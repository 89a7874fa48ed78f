"""Linear arrangements, width measures, and the balanced arrangement tree.

An arrangement maps vertices bijectively onto positions 1..n.  The
arrangement tree recurses over the position interval: the left child of a
node of size s covers the largest power of two strictly below s, the right
child covers the rest.  Every graph edge is "split" by exactly one node (the
lowest node whose interval contains both endpoint positions), and the height
of that node is the primary MST weight used by the tree construction.

Every node of height h starts at a multiple of 2**h and holds at most 2**h
positions: its left child is the perfect block of 2**(h - 1) positions, and
its right child starts at a multiple of 2**(h - 1) and holds at most that
many.  So the node splitting 0-based positions x < y is the lowest aligned
block of 2**h positions holding both, cut off at position n, as in the
padded tree at shift 0, and its height is (x ^ y).bit_length()
(``padded_split_heights`` at shift 0).  The split node itself is fixed by
its height and x (``split_nodes``).  The tree is never built:
``tree_intervals`` enumerates its node intervals, children first, for the
split-set statistics and charging diagnostics.
"""
from __future__ import annotations

import json
import re
from collections.abc import Iterator

from . import _Record
from .graph import Graph


class ArrangementError(ValueError):
    pass


class LinearArrangement(_Record):
    """Immutable bijection between vertices 1..n and positions 1..n.

    position_of[v] is the position of vertex v; vertex_at[k] is the vertex at
    position k.  Index 0 of both tuples is unused padding.  Arrangements are
    equal when both tuples are.
    """

    def __init__(self, position_of: tuple[int, ...], vertex_at: tuple[int, ...]):
        vars(self).update(position_of=position_of, vertex_at=vertex_at)

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


# A plain arrangement document: one ASCII-digit label per line, every line
# ended by "\n", as ``dump_arrangement`` writes it.
_PLAIN_ARRANGEMENT = re.compile(r"(?:[0-9]+\n)+")


def load_arrangement(text: str, n: int) -> LinearArrangement:
    """Parse an arrangement file: n lines, line k holds the vertex at position k.

    A plain document of exactly n lines is converted in one ``json.loads``
    call, as ``load_graph`` converts its edges.  JSON rejects a leading zero
    and ``int`` more than 4,300 digits; such a document, and every other one,
    goes through the line loop, which strips each line, skips blank ones,
    accepts ``01`` and ``+3`` and gives each error its line number.  Both end in
    ``LinearArrangement.from_order`` on the same labels, so the fast path
    changes no result and no message.
    """
    if text.count("\n") == n and _PLAIN_ARRANGEMENT.fullmatch(text):
        try:
            order = json.loads("[" + text[:-1].replace("\n", ",") + "]")
        except ValueError:  # a leading zero, or more digits than int() converts
            pass
        else:
            return LinearArrangement.from_order(order)
    return _load_arrangement_lines(text, n)


def _load_arrangement_lines(text: str, n: int) -> LinearArrangement:
    """The line loop: every label error with its line number."""
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


def split_heights(g: Graph, a: LinearArrangement) -> list[int]:
    """Arrangement-tree height of the node splitting each edge (by ID - 1).

    The padded tree at shift 0; see the module docstring.
    """
    return padded_split_heights(g, a, 0)


def split_nodes(g: Graph, a: LinearArrangement) -> list[tuple[int, int]]:
    """Interval (lo, hi) of 1-based positions of the node splitting each edge
    (by ID - 1): the aligned block of 2**h positions around the smaller
    endpoint, h the edge's split height, cut off at position n."""
    n = g.n
    pos = a.position_of
    out = []
    for (u, v), h in zip(g.edges, split_heights(g, a)):
        lo = (min(pos[u], pos[v]) - 1) >> h << h  # 0-based
        out.append((lo + 1, min(lo + (1 << h), n)))
    return out


def right_child_start(lo: int, hi: int) -> int:
    """First position of the right child of the node [lo, hi], lo < hi."""
    return lo + (1 << (hi - lo).bit_length() - 1)


def tree_intervals(lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """Every node interval of the arrangement tree over positions lo..hi,
    children before their parent."""
    if lo < hi:
        mid = right_child_start(lo, hi)
        yield from tree_intervals(lo, mid - 1)
        yield from tree_intervals(mid, hi)
    yield lo, hi


def padded_size(n: int) -> int:
    """Smallest power of two >= 2n."""
    return 1 << (2 * n - 1).bit_length()


def shift_count(n: int) -> int:
    """Number of distinct shifts in the padded-arrangement distribution."""
    return padded_size(n) - n


def padded_split_heights(g: Graph, a: LinearArrangement, shift: int) -> list[int]:
    """Split heights of all edges (by ID - 1) in the padded tree: ``a`` placed
    after ``shift`` padding positions among ``padded_size(n)``.  A padded tree
    is ``(a, shift)`` with ``0 <= shift < shift_count(n)``."""
    if a.n != g.n:
        raise ArrangementError("arrangement size does not match graph")
    if not 0 <= shift < shift_count(g.n):
        raise ArrangementError(f"shift {shift} out of range for n={g.n}")
    pos = a.position_of
    base = shift - 1  # 0-based padded position of the vertex at position 1, minus 0
    return [((base + pos[u]) ^ (base + pos[v])).bit_length() for u, v in g.edges]
