"""Linear arrangements, width measures, and the balanced arrangement tree.

An arrangement maps vertices bijectively onto positions 1..n.  The
arrangement tree recurses over the position interval: the left child of a
node of size s covers the largest power of two strictly below s, the right
child covers the rest.  Every graph edge is "split" by exactly one node (the
lowest node whose interval contains both endpoint positions), and the height
of that node is the primary MST weight used by the tree construction.

The tree is a spine of perfect blocks, one per set bit of n from the highest
down, and a node of size s has height (s - 1).bit_length().  So the split
height is arithmetic on 0-based positions x < y: with
dx = (x ^ n).bit_length() and dy = (y ^ n).bit_length() (the block of each
endpoint), it is (x ^ y).bit_length() when dx == dy, and otherwise the
height of the spine node whose left child is x's block,
((n & ((1 << max(dx, dy)) - 1)) - 1).bit_length().  ``split_heights`` uses
this closed form; the explicit ``ArrangementNode`` tree serves the
split-set statistics and charging diagnostics.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph


class ArrangementError(ValueError):
    pass


@dataclass(frozen=True)
class LinearArrangement:
    """Bijection between vertices 1..n and positions 1..n.

    position_of[v] is the position of vertex v; vertex_at[k] is the vertex at
    position k.  Index 0 of both tuples is unused padding.
    """

    position_of: tuple[int, ...]
    vertex_at: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.vertex_at) - 1

    @classmethod
    def from_order(cls, order: list[int]) -> "LinearArrangement":
        n = len(order)
        if sorted(order) != list(range(1, n + 1)):
            raise ArrangementError("arrangement is not a permutation of 1..n")
        vertex_at = [0] + list(order)
        position_of = [0] * (n + 1)
        for pos, v in enumerate(order, start=1):
            position_of[v] = pos
        return cls(tuple(position_of), tuple(vertex_at))

    @classmethod
    def identity(cls, n: int) -> "LinearArrangement":
        return cls.from_order(list(range(1, n + 1)))

    def spread(self, u: int, v: int) -> int:
        return abs(self.position_of[u] - self.position_of[v])


def load_arrangement(text: str, n: int) -> LinearArrangement:
    """Parse an arrangement file: n lines, line k holds the vertex at position k."""
    order = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            order.append(int(line))
        except ValueError:
            raise ArrangementError(f"line {lineno}: expected a vertex label") from None
    if len(order) != n:
        raise ArrangementError(f"arrangement has {len(order)} positions, graph has {n} vertices")
    return LinearArrangement.from_order(order)


def dump_arrangement(a: LinearArrangement) -> str:
    return "\n".join(str(v) for v in a.vertex_at[1:]) + "\n"


def widths(g: Graph, a: LinearArrangement) -> tuple[int, int]:
    """Bandwidth (max edge spread) and cutwidth (max edges across a gap)."""
    if a.n != g.n:
        raise ArrangementError("arrangement size does not match graph")
    bandwidth = 0
    diff = [0] * (g.n + 2)
    for u, v in g.edges:
        pu, pv = a.position_of[u], a.position_of[v]
        if pu > pv:
            pu, pv = pv, pu
        bandwidth = max(bandwidth, pv - pu)
        diff[pu] += 1
        diff[pv] -= 1
    cutwidth = 0
    running = 0
    for i in range(1, g.n + 1):
        running += diff[i]
        cutwidth = max(cutwidth, running)
    return bandwidth, cutwidth


def edge_spreads(g: Graph, a: LinearArrangement) -> list[int]:
    """Spread of every edge, indexed by edge ID - 1."""
    return [abs(a.position_of[u] - a.position_of[v]) for u, v in g.edges]


@dataclass
class ArrangementNode:
    """One node of the arrangement tree, covering positions [lo, hi]."""

    lo: int
    hi: int
    height: int
    left: "ArrangementNode | None" = None
    right: "ArrangementNode | None" = None
    split_edges: list[int] = field(default_factory=list)

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def walk(self):
        """Yield all nodes of the subtree, leaves included."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.left is not None:
                stack.append(node.left)
                stack.append(node.right)


def _largest_pow2_below(s: int) -> int:
    # largest power of two strictly less than s (s >= 2)
    return 1 << (s - 1).bit_length() - 1


def _build_interval(lo: int, hi: int) -> ArrangementNode:
    if lo == hi:
        return ArrangementNode(lo, hi, height=0)
    p = _largest_pow2_below(hi - lo + 1)
    left = _build_interval(lo, lo + p - 1)
    right = _build_interval(lo + p, hi)
    return ArrangementNode(lo, hi, height=1 + max(left.height, right.height), left=left, right=right)


def build_arrangement_tree(g: Graph, a: LinearArrangement) -> ArrangementNode:
    """Build the tree and assign every edge to the node that splits it."""
    if a.n != g.n:
        raise ArrangementError("arrangement size does not match graph")
    root = _build_interval(1, g.n)
    for eid, (u, v) in enumerate(g.edges, start=1):
        node = _descend_to_split(root, a.position_of[u], a.position_of[v])
        node.split_edges.append(eid)
    return root


def _descend_to_split(root: ArrangementNode, pu: int, pv: int) -> ArrangementNode:
    if pu > pv:
        pu, pv = pv, pu
    node = root
    while not node.is_leaf:
        if pv <= node.left.hi:
            node = node.left
        elif pu >= node.right.lo:
            node = node.right
        else:
            break
    return node


def split_heights(g: Graph, a: LinearArrangement) -> list[int]:
    """Arrangement-tree height of the node splitting each edge (by ID - 1).

    Closed form from the module docstring; equals the height of the node
    ``build_arrangement_tree`` assigns the edge to.
    """
    if a.n != g.n:
        raise ArrangementError("arrangement size does not match graph")
    n = g.n
    zero = [p - 1 for p in a.position_of]  # 0-based position per vertex
    block = [(x ^ n).bit_length() for x in zero]
    spine = [((n & ((1 << d) - 1)) - 1).bit_length() for d in range(n.bit_length() + 1)]
    out = []
    append = out.append
    for u, v in g.edges:
        du, dv = block[u], block[v]
        if du == dv:
            append((zero[u] ^ zero[v]).bit_length())
        else:
            append(spine[du if du > dv else dv])
    return out


def split_height(i: int, j: int, n_total: int) -> tuple[int, int]:
    """Split height and power for a padded power-of-two arrangement.

    For endpoint positions 1 <= i < j <= n_total with n_total a power of two,
    returns (height, p) where p is the largest power of two dividing an
    integer in the half-open interval [i, j) and height = log2(2p) is the
    height of the splitting node (whose size is 2p).
    """
    if not (1 <= i < j <= n_total):
        raise ValueError("need 1 <= i < j <= n_total")
    if n_total & (n_total - 1):
        raise ValueError("n_total must be a power of two")
    height = ((i - 1) ^ (j - 1)).bit_length()
    return height, 1 << (height - 1)


@dataclass(frozen=True)
class PaddedArrangement:
    """A base arrangement shifted inside a power-of-two padding.

    n_prime is the smallest power of two >= 2n; the shift places that many
    isolated padding positions before the real vertices.  Padding vertices
    are never materialized: padded positions are pure arithmetic offsets.
    """

    base: LinearArrangement
    shift: int

    def __post_init__(self):
        if not (0 <= self.shift <= self.n_prime - self.base.n - 1):
            raise ArrangementError(f"shift {self.shift} out of range for n={self.base.n}")

    @property
    def n_prime(self) -> int:
        return padded_size(self.base.n)

    def padded_position(self, v: int) -> int:
        return self.shift + self.base.position_of[v]


def padded_size(n: int) -> int:
    """Smallest power of two >= 2n."""
    return 1 << (2 * n - 1).bit_length()


def shift_count(n: int) -> int:
    """Number of distinct shifts in the padded-arrangement distribution."""
    return padded_size(n) - n


def padded_split_heights(g: Graph, a: LinearArrangement, shift: int) -> list[int]:
    """Split heights of all edges under the padded, shifted arrangement."""
    pos = a.position_of
    base = shift - 1  # 0-based padded position of the vertex at position 1, minus 0
    return [((base + pos[u]) ^ (base + pos[v])).bit_length() for u, v in g.edges]
