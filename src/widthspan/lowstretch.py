"""Spanning trees from linear arrangements with exact stretch accounting.

The tree built here is the minimum spanning tree of the graph under the
lexicographic edge weight (split height, spread, edge ID), where the split
height is the arrangement-tree height of the lowest node separating the
edge's endpoint positions.  Equivalently: a greedy leaf-to-root scan of the
arrangement tree adding split edges in increasing spread order.

The module also exposes the charging-scheme diagnostics used to certify the
cubic-in-bandwidth stretch bound: long-component counts per arrangement-tree
node and the node charges they induce.  The predicates at its end state each
of the paper's bounds once, for ``verify`` and the tests alike.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from fractions import Fraction
from itertools import compress
from operator import not_

from . import _Record, kernel
from .arrangement import (
    LinearArrangement,
    edge_spreads,
    padded_split_heights,
    right_child_start,
    shift_count,
    split_heights,
    split_nodes,
    tree_intervals,
    widths,
)
from .graph import Graph


class StretchReport(_Record):
    """An immutable spanning tree with per-edge stretch and cycle-basis
    accounting, checked against the cycle-basis identity when built, and
    equal to another with the same five fields."""

    def __init__(self, tree_edges: frozenset[int], per_edge_stretch: tuple[int, ...],
                 total_stretch: int, avg_stretch: Fraction, fcb_weight: int):
        # FCB(T) = stretch(T) + m - 2n + 2 exactly, with n - 1 tree edges
        if fcb_weight != total_stretch + len(per_edge_stretch) - 2 * len(tree_edges):
            raise ValueError("cycle-basis identity violated")
        vars(self).update(tree_edges=tree_edges, per_edge_stretch=per_edge_stretch,
                          total_stretch=total_stretch, avg_stretch=avg_stretch, fcb_weight=fcb_weight)


def _fcb_weight(in_tree: list[int], stretch: list[int]) -> int:
    """Fundamental cycle basis weight: a non-tree edge's cycle has stretch + 1 edges."""
    return sum(compress(stretch, map(not_, in_tree))) + in_tree.count(0)


def _avg(total: int, m: int) -> Fraction:
    return Fraction(total, m) if m else Fraction(0)


def _make_report(in_tree: list[int], stretch: list[int]) -> StretchReport:
    total = sum(stretch)
    return StretchReport(
        tree_edges=frozenset(compress(range(1, len(in_tree) + 1), in_tree)),
        per_edge_stretch=tuple(stretch),
        total_stretch=total,
        avg_stretch=_avg(total, len(stretch)),
        fcb_weight=_fcb_weight(in_tree, stretch),
    )


def build_tree(g: Graph, a: LinearArrangement) -> StretchReport:
    """MST under (split height, spread, edge ID) order for the raw (unpadded)
    arrangement tree, which is the padded tree at shift 0."""
    return _build(g, a, split_heights(g, a))


def build_tree_padded(g: Graph, a: LinearArrangement, shift: int) -> StretchReport:
    """MST under the split heights of the padded tree ``(a, shift)``; raises
    ``ArrangementError`` unless ``a`` has g's n vertices and
    ``0 <= shift < shift_count(n)``.  Shift 0 is ``build_tree``'s tree."""
    return _build(g, a, padded_split_heights(g, a, shift))


def _build(g: Graph, a: LinearArrangement, heights: list[int]) -> StretchReport:
    in_tree, stretch = kernel.tree_stretch(g.n, g.edges, heights, edge_spreads(g, a))
    return _make_report(in_tree, stretch)


def padded_reports(g: Graph, a: LinearArrangement) -> Iterator[tuple[list[int], StretchReport]]:
    """``(shifts, report)`` once for every distinct tree of the padded
    shifts, in order of first sight: ``report`` is the tree of
    ``build_tree_padded`` at each of ``shifts``, which lists the tree's
    shifts in walk order.  Over all yields every shift in
    ``range(shift_count(g.n))`` comes exactly once.

    An edge's padded split height is at most h exactly when its endpoints lie
    in one aligned block of 2**h padded positions, and that depends only on
    the shift mod 2**h.  So shifts that agree in their low h bits share the
    Kruskal forest of the edges of height at most h, and one walk over a
    binary trie of shift bits, lowest bit first, builds every shift's tree.
    The walk is depth first, from a stack.  An entry is a trie node at depth
    h and residue r, with its parent's forest (a union-find and a bytearray
    marking its edges), the number of edges that forest still lacks, and the
    pending edges, those of height h or more, in (spread, edge ID) order.
    Popped, the node copies the forest and adds, in that order, the pending
    edges whose endpoints lie in one block of 2**h positions under r; the
    rest stay pending.  The root (h = 0) adds none: a graph has no loops.
    A node whose forest spans is a leaf: every shift of its residue has that
    tree.  So is a node when the bandwidth is at most 2**h and each aligned
    block of 2**h positions is one component of its forest (it lacks one
    edge per block boundary):
    - every pending edge then joins two neighbouring blocks;
    - the edges across one boundary share their split height for each
      shift, so they are scanned together, in (spread, edge ID) order;
    - so every shift of the residue keeps the first pending edge across
      each boundary, and one Kruskal scan over the pending edges, in
      their order, finishes the tree of them all.
    Any other node pushes its children, the residues r and r + 2**h below
    the shift count, in reverse, so they pop in increasing order.  Siblings
    share their parent's forest, and each copies it on its turn: one forest
    is alive per level.  Shifts come in walk order, not in increasing order.

    Many leaves hold the same tree, so the whole trie is walked first and
    each leaf's shifts are gathered under its tree's edge marks (m bytes per
    distinct tree).  Then each tree costs one report: one pass of stretch
    queries and the cycle-basis identity check of ``StretchReport``.  Only
    one report is alive at a time.
    """
    n, m, edges = g.n, g.m, g.edges
    zero = [p - 1 for p in a.position_of]  # plus the shift: the padded position
    xu = [zero[u] for u, _ in edges]
    xv = [zero[v] for _, v in edges]
    spreads = edge_spreads(g, a)
    w = max(spreads, default=0)  # the bandwidth
    count = shift_count(n)
    trees: dict[bytes, list[int]] = {}
    stack = [(0, 0, list(range(n + 1)), bytearray(m), n - 1, sorted(range(m), key=spreads.__getitem__))]
    while stack:
        depth, residue, parent, in_tree, wanted, pending = stack.pop()
        joined, rest = [], []
        for i in pending:
            (joined if (residue + xu[i]) >> depth == (residue + xv[i]) >> depth else rest).append(i)
        parent, in_tree = parent.copy(), in_tree.copy()
        wanted -= kernel.kruskal_step(parent, in_tree, edges, joined, wanted)
        if wanted and w <= 1 << depth and wanted == (residue + n - 1) >> depth:
            # each block of 2**depth positions is one component and every
            # pending edge joins two neighbouring blocks: the tree is the same
            # for every shift of this residue
            if kernel.kruskal_step(parent, in_tree, edges, rest, wanted) != wanted:
                raise ValueError("graph is not connected")
            wanted = 0
        if not wanted:
            trees.setdefault(bytes(in_tree), []).extend(range(residue, count, 1 << depth))
        elif not rest:
            raise ValueError("graph is not connected")
        else:
            for r in reversed(range(residue, min(count, residue + (2 << depth)), 1 << depth)):
                stack.append((depth + 1, r, parent, in_tree, wanted, rest))
    for in_tree, shifts in trees.items():
        yield shifts, _make_report(in_tree, kernel._stretches(n, edges, in_tree))


def stretch_of(g: Graph, tree_edges: frozenset[int] | set[int]) -> StretchReport:
    """Exact stretch accounting for a given spanning tree (set of edge IDs)."""
    in_tree = [0] * g.m
    for eid in tree_edges:
        if not (1 <= eid <= g.m):
            raise ValueError(f"edge ID {eid} out of range")
        in_tree[eid - 1] = 1
    stretch = kernel.distances_in_tree(g.n, g.edges, in_tree)
    return _make_report(in_tree, stretch)


def lemma31_check(g: Graph, a: LinearArrangement, shift: int, report: StretchReport) -> list[tuple[int, int, bool]]:
    """Per-edge split power p and whether stretch <= 2p - 1 holds.

    ``report`` is the tree of the padded tree ``(a, shift)``, as
    ``build_tree_padded`` builds it (``build_tree``'s at shift 0), and p is
    2**(h - 1) for the edge's split height h there.  Raises
    ``ArrangementError`` on the inputs ``build_tree_padded`` rejects.
    Returns (edge_id, p, bound_ok) triples.
    """
    out = []
    heights = padded_split_heights(g, a, shift)
    for eid, (h, s) in enumerate(zip(heights, report.per_edge_stretch), start=1):
        p = 1 << (h - 1)
        out.append((eid, p, s <= 2 * p - 1))
    return out


# ---------------------------------------------------------------------------
# Charging diagnostics: long components and node charges.
# ---------------------------------------------------------------------------

class NodeCharge(_Record):
    """One arrangement-tree node's interval, leaf count, long components and
    charge; immutable, and equal to another with the same five fields."""

    def __init__(self, lo: int, hi: int, leaf_count: int, long_components: int, charge: int):
        vars(self).update(lo=lo, hi=hi, leaf_count=leaf_count, long_components=long_components, charge=charge)


class ChargeReport(_Record):
    """Immutable charging diagnostics: the bandwidth, every node's charge,
    children first (so the root is last), and their total."""

    def __init__(self, bandwidth: int, nodes: tuple[NodeCharge, ...], total_charge: int):
        vars(self).update(bandwidth=bandwidth, nodes=nodes, total_charge=total_charge)


def charge_diagnostics(g: Graph, a: LinearArrangement) -> ChargeReport:
    """Long-component counts and charges for every arrangement-tree node.

    A long component of the induced interval [lo, hi] is a connected
    component containing a vertex within b positions of each interval end,
    where b is the arrangement's bandwidth.  Components are maintained by a
    single union-find over the node intervals, children first: sibling
    intervals are vertex disjoint, so one global structure is sound.  Each
    node's split edges are merged by ``kernel.kruskal_step`` and its end
    vertices' components taken by ``kernel.find``; the counts depend only on
    the partition.  A node's charge compares its count with its children's,
    already known.
    """
    b, _ = widths(g, a)
    split_at: dict[tuple[int, int], list[int]] = {}
    for i, node in enumerate(split_nodes(g, a)):
        split_at.setdefault(node, []).append(i)
    parent = list(range(g.n + 1))
    merged = bytearray(g.m)
    long_of: dict[tuple[int, int], int] = {}
    nodes: list[NodeCharge] = []
    total = 0
    for lo, hi in tree_intervals(1, g.n):
        split = split_at.get((lo, hi), ())
        kernel.kruskal_step(parent, merged, g.edges, split, len(split))
        left_roots = {kernel.find(parent, a.vertex_at[k]) for k in range(lo, min(lo + b, hi + 1))}
        right_roots = {kernel.find(parent, a.vertex_at[k]) for k in range(max(hi - b + 1, lo), hi + 1)}
        lx = long_of[(lo, hi)] = len(left_roots & right_roots)
        charge = 0
        if lo < hi:
            mid = right_child_start(lo, hi)
            ly, lz = long_of[(lo, mid - 1)], long_of[(mid, hi)]
            ny, nz = mid - lo, hi - mid + 1
            if lx < ly and lx < lz:
                charge = ny + nz
            elif lx < ly and lx == lz:
                charge = ny
            elif lx < lz and lx == ly:
                charge = nz
        nodes.append(NodeCharge(lo, hi, hi - lo + 1, lx, charge))
        total += charge
    return ChargeReport(bandwidth=b, nodes=tuple(nodes), total_charge=total)


def fundamental_cycle_spans(g: Graph, a: LinearArrangement, report: StretchReport) -> list[tuple[int, int, int]]:
    """Per non-tree edge: (edge_id, cycle spread, cycle length).

    The fundamental cycle of a non-tree edge has length stretch + 1; its
    spread is the position range covered by the cycle's vertices, obtained by
    walking the actual tree path up to the LCA through the parents and depths
    of ``kernel.root_tree``.
    """
    in_tree = [eid in report.tree_edges for eid in range(1, g.m + 1)]
    par, depth, _, _ = kernel.root_tree(g.n, g.edges, in_tree)
    out = []
    for eid, (u, v) in enumerate(g.edges, start=1):
        if eid in report.tree_edges:
            continue
        # walk both endpoints to the LCA collecting positions
        positions = []
        x, y = u, v
        while x != y:
            if depth[x] >= depth[y]:
                positions.append(a.position_of[x])
                x = par[x]
            else:
                positions.append(a.position_of[y])
                y = par[y]
        positions.append(a.position_of[x])
        span = max(positions) - min(positions)
        out.append((eid, span, report.per_edge_stretch[eid - 1] + 1))
    return out


def cubic_bound_holds(g: Graph, report: StretchReport, b: int) -> bool:
    """Average stretch <= 4b^3 + 2 and cycle-basis weight <= 4b^3 n."""
    return report.avg_stretch <= 4 * b**3 + 2 and report.fcb_weight <= 4 * b**3 * g.n


def split_sets_hold(g: Graph, a: LinearArrangement, b: int) -> bool:
    """Each edge's end positions straddle the children of its split node,
    and no node splits more than b(b+1)/2 edges."""
    pos, nodes = a.position_of, split_nodes(g, a)
    straddle = all(lo <= min(pos[u], pos[v]) < right_child_start(lo, hi) <= max(pos[u], pos[v]) <= hi
                   for (u, v), (lo, hi) in zip(g.edges, nodes))
    return straddle and max(Counter(nodes).values(), default=0) <= b * (b + 1) // 2


def charges_hold(g: Graph, charges: ChargeReport) -> bool:
    """Every node has 1 to b long components, the root one, and no more
    than each child of more than b positions; the total charge is at most
    bn.  b is the report's bandwidth."""
    b = charges.bandwidth
    long_of = {(nc.lo, nc.hi): nc.long_components for nc in charges.nodes}
    for (lo, hi), count in long_of.items():
        if not 1 <= count <= b:
            return False
        if lo < hi:
            mid = right_child_start(lo, hi)
            # a child of at most b positions can lose long components upward
            if any(y - x + 1 > b and count > long_of[(x, y)] for x, y in ((lo, mid - 1), (mid, hi))):
                return False
    return charges.nodes[-1].long_components == 1 and charges.total_charge <= b * g.n


def cycle_spans_hold(g: Graph, a: LinearArrangement, report: StretchReport, b: int) -> bool:
    """Every fundamental cycle C of spread s has 2s/b <= |C| <= s + 1."""
    return all(2 * span <= length * b and length <= span + 1
               for _, span, length in fundamental_cycle_spans(g, a, report))
