"""Brute-force ground truth for small instances.

Everything here deliberately avoids the optimized code paths: spanning trees
are enumerated by recursive growth, the count is cross-checked against the
Kirchhoff determinant in exact integer arithmetic, stretches are computed by
naive tree-path walks, and the shift distribution is re-derived with a
from-scratch Kruskal.  These are the oracles the fast implementations are
validated against.
"""
from __future__ import annotations

from fractions import Fraction

from . import _Record
from .arrangement import LinearArrangement, shift_count
from .graph import Graph


class OracleCapExceeded(RuntimeError):
    def __init__(self, count: int, cap: int):
        super().__init__(f"{count} spanning trees exceeds enumeration cap {cap}")
        self.count = count
        self.cap = cap


class OracleResult(_Record):
    """The exhaustive minimum: tree count, least total stretch, every tree
    attaining it and, on request, every tree's total; immutable."""

    def __init__(self, spanning_tree_count: int, min_total_stretch: int,
                 argmin_trees: tuple[frozenset[int], ...], per_tree_totals: tuple[int, ...] | None = None):
        vars(self).update(spanning_tree_count=spanning_tree_count, min_total_stretch=min_total_stretch,
                          argmin_trees=argmin_trees, per_tree_totals=per_tree_totals)


def spanning_tree_count(g: Graph) -> int:
    """Kirchhoff matrix-tree value via Bareiss integer elimination."""
    n = g.n
    if n == 1:
        return 1
    lap = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        lap[u - 1][u - 1] += 1
        lap[v - 1][v - 1] += 1
        lap[u - 1][v - 1] -= 1
        lap[v - 1][u - 1] -= 1
    # determinant of the reduced Laplacian (drop last row/column)
    a = [row[: n - 1] for row in lap[: n - 1]]
    size = n - 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            for r in range(k + 1, size):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[size - 1][size - 1]


def _find(parent: dict[int, int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _tree_distances(g: Graph, tree: frozenset[int]) -> list[int]:
    """Tree-path length between the endpoints of every edge, by walking up
    parent pointers from both ends."""
    adj: dict[int, list[int]] = {v: [] for v in range(1, g.n + 1)}
    for eid in tree:
        u, v = g.edges[eid - 1]
        adj[u].append(v)
        adj[v].append(u)
    par = {1: 0}
    depth = {1: 0}
    stack = [1]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in par:
                par[y] = x
                depth[y] = depth[x] + 1
                stack.append(y)
    out = []
    for u, v in g.edges:
        x, y = u, v
        d = 0
        while x != y:
            if depth[x] >= depth[y]:
                x = par[x]
            else:
                y = par[y]
            d += 1
        out.append(d)
    return out


def enumerate_spanning_trees(g: Graph, cap: int = 10**6):
    """Yield every spanning tree as a frozenset of edge IDs.

    Recursive growth with a connectivity prune: an edge is skipped only if
    the remaining edges still connect the graph.  The matrix-tree count is
    checked against the cap before any enumeration work.
    """
    count = spanning_tree_count(g)
    if count > cap:
        raise OracleCapExceeded(count, cap)
    m = g.m
    n = g.n

    def connected_with(excluded: set[int]) -> bool:
        seen = {1}
        stack = [1]
        while stack:
            x = stack.pop()
            for eid in g.incident[x]:
                if eid in excluded:
                    continue
                a, b = g.edges[eid - 1]
                y = b if a == x else a
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == n

    chosen: list[int] = []
    excluded: set[int] = set()

    def rec(next_eid: int, parent: dict[int, int], picked: int):
        if picked == n - 1:
            yield frozenset(chosen)
            return
        if next_eid > m:
            return
        eid = next_eid
        u, v = g.edges[eid - 1]
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            child = dict(parent)
            child[ru] = rv
            chosen.append(eid)
            yield from rec(eid + 1, child, picked + 1)
            chosen.pop()
        # skip eid, but only if a spanning tree is still possible
        excluded.add(eid)
        if connected_with(excluded):
            yield from rec(eid + 1, parent, picked)
        excluded.remove(eid)

    yield from rec(1, {v: v for v in range(1, n + 1)}, 0)


def enumerate_min_stretch(g: Graph, cap: int = 10**6, histogram: bool = False) -> OracleResult:
    """Exhaustive minimum of total stretch over all spanning trees."""
    best = None
    argmin: list[frozenset[int]] = []
    totals: list[int] = []
    seen = 0
    for tree in enumerate_spanning_trees(g, cap=cap):
        seen += 1
        total = sum(_tree_distances(g, tree))
        if histogram:
            totals.append(total)
        if best is None or total < best:
            best = total
            argmin = [tree]
        elif total == best:
            argmin.append(tree)
    expected = spanning_tree_count(g)
    if seen != expected:
        raise RuntimeError(f"enumerated {seen} trees, matrix-tree says {expected}")
    return OracleResult(
        spanning_tree_count=seen,
        min_total_stretch=best,
        argmin_trees=tuple(argmin),
        per_tree_totals=tuple(totals) if histogram else None,
    )


# ---------------------------------------------------------------------------
# Independent re-derivation of the shift distribution.
# ---------------------------------------------------------------------------

def _naive_shift_tree(g: Graph, a: LinearArrangement, shift: int) -> frozenset[int]:
    """From-scratch Kruskal under padded split heights; no shared kernel code."""
    if not 0 <= shift < shift_count(g.n):
        raise ValueError(f"shift {shift} out of range for n={g.n}")
    weighted = []
    for eid, (u, v) in enumerate(g.edges, start=1):
        i = shift + a.position_of[u] - 1
        j = shift + a.position_of[v] - 1
        height = (i ^ j).bit_length()
        weighted.append((height, abs(i - j), eid))
    weighted.sort()
    parent = {v: v for v in range(1, g.n + 1)}
    tree = set()
    for _, _, eid in weighted:
        u, v = g.edges[eid - 1]
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[ru] = rv
            tree.add(eid)
    return frozenset(tree)


def expected_stretch_oracle(g: Graph, a: LinearArrangement) -> tuple[Fraction, ...]:
    """Exact per-edge expected stretch over all shifts, by naive path walks."""
    count = shift_count(g.n)
    sums = [0] * g.m
    for shift in range(count):
        tree = _naive_shift_tree(g, a, shift)
        sums = [s + d for s, d in zip(sums, _tree_distances(g, tree))]
    return tuple(Fraction(s, count) for s in sums)
