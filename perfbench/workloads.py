"""Workloads of the CLI benchmark: seeded inputs and independent output checks.

Inputs are generated here, not by ``widthspan gen``, so that a change to the
program's generators cannot change what the benchmark measures.  The checks
recompute every answer with the small reference algorithms below; they share
no code with the program under test.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable


class CheckError(Exception):
    """An output of the program is wrong."""


@dataclass
class Instance:
    """One workload's inputs, as the CLI sees them, and the check of its outputs."""

    args: list[str]
    outputs: list[Path]
    sizes: dict
    check: Callable[[list[bytes]], None]


# ---------------------------------------------------------------------------
# Inputs.
# ---------------------------------------------------------------------------

def bandwidth_graph(n: int, b: int, p: float, seed: int, relabel: bool) -> tuple[list[tuple[int, int]], list[int]]:
    """A random graph of bandwidth <= b under its witness arrangement
    (consecutive positions always joined), as ``gen --family random_bandwidth``
    draws it.  With ``relabel`` the vertex labels are permuted by the seed, so
    the arrangement is not the identity.

    Returns the edges (u < v, sorted) and the vertex at each position.
    """
    rng = random.Random(seed)
    by_position = []
    for x in range(1, n + 1):
        for y in range(x + 1, min(x + b, n) + 1):
            if y - x == 1 or rng.random() < p:
                by_position.append((x, y))
    order = list(range(1, n + 1))
    if relabel:
        rng.shuffle(order)
    label = [0] + order
    edges = sorted((min(label[x], label[y]), max(label[x], label[y])) for x, y in by_position)
    return edges, order


def graph_text(n: int, edges: list[tuple[int, int]]) -> str:
    return f"p {n} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)


def positions(order: list[int]) -> list[int]:
    pos = [0] * (len(order) + 1)
    for k, v in enumerate(order, start=1):
        pos[v] = k
    return pos


# The 4 x 3 grid (vertex r*3 + c + 1 at row r, column c) and its min-fill
# tree decomposition of width 3.  Fixed, so the DP workload ignores the seed.
GRID_N = 12
GRID_EDGES = sorted(
    [(v, v + 1) for v in range(1, 13) if v % 3 != 0] + [(v, v + 3) for v in range(1, 10)]
)
GRID_TD = """\
s td 12 4 12
b 1 1 2 4
b 2 2 3 6
b 3 2 4 5 6
b 4 7 10 11
b 5 9 11 12
b 6 7 8 9 11
b 7 4 5 6 7
b 8 5 6 7 8
b 9 6 7 8 9
b 10 7 8 9
b 11 8 9
b 12 9
1 3
2 3
3 7
4 6
5 6
6 10
7 8
8 9
9 10
10 11
11 12
"""
GRID_WIDTH = 3


# ---------------------------------------------------------------------------
# Reference algorithms.
# ---------------------------------------------------------------------------

def arrangement_height(x: int, y: int, n: int) -> int:
    """Height of the arrangement-tree node splitting 0-based positions x, y.

    The tree over n positions is a spine of perfect blocks, one per set bit
    of n; a node of size s has height (s - 1).bit_length().
    """
    dx, dy = (x ^ n).bit_length(), (y ^ n).bit_length()
    if dx == dy:
        return (x ^ y).bit_length()
    return ((n & ((1 << max(dx, dy)) - 1)) - 1).bit_length()


def padded_size(n: int) -> int:
    return 1 << (2 * n - 1).bit_length()


def greedy_tree(n: int, edges: list[tuple[int, int]], heights: list[int], spreads: list[int]) -> list[bool]:
    """Kruskal under the (split height, spread, edge ID) order."""
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    in_tree = [False] * len(edges)
    for i in sorted(range(len(edges)), key=lambda i: (heights[i], spreads[i], i)):
        u, v = edges[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            in_tree[i] = True
    return in_tree


def tree_distances(n: int, edges: list[tuple[int, int]], in_tree: list[bool]) -> list[int] | None:
    """Tree-path length between the endpoints of every edge, or None when
    the marked edges are not a spanning tree."""
    if sum(in_tree) != n - 1:
        return None
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for (u, v), t in zip(edges, in_tree):
        if t:
            adj[u].append(v)
            adj[v].append(u)
    par = [-1] * (n + 1)
    depth = [0] * (n + 1)
    par[1] = 0
    stack = [1]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if par[y] == -1:
                par[y] = x
                depth[y] = depth[x] + 1
                stack.append(y)
    if -1 in par[1:]:
        return None
    out = []
    for u, v in edges:
        d = 0
        while u != v:
            if depth[u] >= depth[v]:
                u = par[u]
            else:
                v = par[v]
            d += 1
        out.append(d)
    return out


def minimum_total_stretch(n: int, edges: list[tuple[int, int]]) -> int:
    """Exhaustive minimum over all spanning trees (small graphs only)."""
    best = None
    for chosen in itertools.combinations(range(len(edges)), n - 1):
        in_tree = [False] * len(edges)
        for i in chosen:
            in_tree[i] = True
        dist = tree_distances(n, edges, in_tree)
        if dist is not None and (best is None or sum(dist) < best):
            best = sum(dist)
    return best


# ---------------------------------------------------------------------------
# Output parsing.
# ---------------------------------------------------------------------------

def rational(value) -> Fraction:
    """A report value written as an integer or a "p/q" string."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise CheckError(f"not an exact rational: {value!r}")
    try:
        return Fraction(value)
    except ValueError:
        raise CheckError(f"not an exact rational: {value!r}") from None


def load_report(data: bytes) -> dict:
    try:
        report = json.loads(data)
    except ValueError as exc:
        raise CheckError(f"report is not JSON: {exc}") from None
    if not isinstance(report, dict):
        raise CheckError("report is not a JSON object")
    return report


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def field(report: dict, key: str):
    try:
        return report[key]
    except KeyError:
        raise CheckError(f"report has no {key!r}") from None


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------

def build_tree_bw(seed: int, workdir: Path, smoke: bool) -> Instance:
    """``build-tree`` on a random bandwidth-4 graph: graph parsing, the split
    heights, one large kernel call and a megabyte-sized JSON report."""
    n = 300 if smoke else 50_000
    # Labels follow the arrangement, as generated graphs come: random labels
    # at this size make every layer slower through cache misses alone.
    edges, order = bandwidth_graph(n, 4, 0.7, seed, relabel=False)
    m = len(edges)
    gr, arr, out = workdir / "g.gr", workdir / "g.arr", workdir / "report.json"
    gr.write_text(graph_text(n, edges))
    arr.write_text("".join(f"{v}\n" for v in order))
    pos = positions(order)

    def check(outputs: list[bytes]) -> None:
        report = load_report(outputs[0])
        heights = [arrangement_height(pos[u] - 1, pos[v] - 1, n) for u, v in edges]
        spreads = [abs(pos[u] - pos[v]) for u, v in edges]
        in_tree = greedy_tree(n, edges, heights, spreads)
        stretch = tree_distances(n, edges, in_tree)
        per_edge = field(report, "per_edge_stretch")
        total = field(report, "total_stretch")
        tree = field(report, "tree_edges")
        expect(field(report, "n") == n and field(report, "m") == m, "wrong n or m")
        expect(total == sum(per_edge), "total_stretch != sum of per_edge_stretch")
        expect(field(report, "fcb_weight") == total + m - 2 * n + 2, "cycle-basis identity fails")
        expect(len(tree) == n - 1, "tree does not have n - 1 edges")
        expect(rational(field(report, "avg_stretch")) == Fraction(total, m), "avg_stretch != total/m")
        expect(tree == [i + 1 for i, t in enumerate(in_tree) if t], "tree differs from the reference MST")
        expect(per_edge == stretch, "per-edge stretch differs from the reference")

    return Instance(
        args=["build-tree", "--graph", str(gr), "--arrangement", str(arr), "--report", str(out)],
        outputs=[out],
        sizes={"n": n, "m": m},
        check=check,
    )


def explicit_shifts(seed: int, workdir: Path, smoke: bool) -> Instance:
    """``distribution --explicit --csv``: one small kernel call per padding
    shift, arithmetic split heights, exact rational expectations."""
    n = 20 if smoke else 512
    # Random labels, so the checks see whether the arrangement is applied.
    edges, order = bandwidth_graph(n, 4, 0.7, seed, relabel=True)
    m = len(edges)
    shifts = padded_size(n) - n
    gr, arr = workdir / "g.gr", workdir / "g.arr"
    out, csv = workdir / "dist.json", workdir / "dist.csv"
    gr.write_text(graph_text(n, edges))
    arr.write_text("".join(f"{v}\n" for v in order))
    pos = positions(order)

    def check(outputs: list[bytes]) -> None:
        report = load_report(outputs[0])
        spreads = [abs(pos[u] - pos[v]) for u, v in edges]
        sums = [0] * m
        totals = []
        for shift in range(shifts):
            heights = [((shift - 1 + pos[u]) ^ (shift - 1 + pos[v])).bit_length() for u, v in edges]
            stretch = tree_distances(n, edges, greedy_tree(n, edges, heights, spreads))
            sums = [a + b for a, b in zip(sums, stretch)]
            totals.append(sum(stretch))
        expected = [Fraction(s, shifts) for s in sums]
        per_edge = [rational(x) for x in field(report, "per_edge_expected_stretch")]
        per_shift = [rational(x) for x in field(report, "per_shift_avg_stretch")]
        expect(field(report, "mode") == "explicit", "mode is not explicit")
        expect(field(report, "shifts") == shifts, "shifts != shift_count(n)")
        expect(len(per_edge) == m and len(per_shift) == shifts, "wrong list lengths")
        expect(sum(per_edge) / m == sum(per_shift) / shifts,
               "mean expected stretch != mean per-shift average stretch")
        expect(per_edge == expected, "per-edge expectations differ from the reference")
        expect(per_shift == [Fraction(t, m) for t in totals], "per-shift averages differ from the reference")
        expect(field(report, "best_shift") == totals.index(min(totals)), "best_shift is not the first minimum")
        expect(rational(field(report, "max_expected_stretch")) == max(expected), "wrong max_expected_stretch")
        rows = [f"{i},{u},{v},{spreads[i - 1]},{expected[i - 1]}" for i, (u, v) in enumerate(edges, start=1)]
        expect(outputs[1].decode() == "\n".join(["edge_id,u,v,spread,expected_stretch"] + rows) + "\n",
               "CSV differs from the reference")

    return Instance(
        args=["distribution", "--graph", str(gr), "--arrangement", str(arr),
              "--explicit", "--csv", str(csv), "--out", str(out)],
        outputs=[out, csv],
        sizes={"n": n, "m": m, "shifts": shifts},
        check=check,
    )


def dp_exact(seed: int, workdir: Path, smoke: bool) -> Instance:
    """``dp-min-stretch`` on the 4 x 3 grid with a width-3 decomposition.
    The instance is fixed: the seed and the smoke flag do not change it."""
    gr, td, out = workdir / "g.gr", workdir / "g.td", workdir / "dp.json"
    gr.write_text(graph_text(GRID_N, GRID_EDGES))
    td.write_text(GRID_TD)
    m = len(GRID_EDGES)
    optimum = minimum_total_stretch(GRID_N, GRID_EDGES)

    def check(outputs: list[bytes]) -> None:
        report = load_report(outputs[0])
        tree = field(report, "tree_edges")
        total = field(report, "total_stretch")
        expect(isinstance(tree, list) and all(isinstance(e, int) and 1 <= e <= m for e in tree),
               "tree_edges are not edge IDs")
        in_tree = [i + 1 in tree for i in range(m)]
        stretch = tree_distances(GRID_N, GRID_EDGES, in_tree)
        expect(stretch is not None, "witness is not a spanning tree")
        expect(sum(stretch) == total, "witness stretch != reported optimum")
        expect(total == optimum, f"reported optimum {total} != exhaustive minimum {optimum}")
        expect(rational(field(report, "avg_stretch")) == Fraction(total, m), "avg_stretch != total/m")
        expect(field(report, "width") == GRID_WIDTH, "wrong decomposition width")

    return Instance(
        args=["dp-min-stretch", "--graph", str(gr), "--td", str(td), "--out", str(out)],
        outputs=[out],
        sizes={"n": GRID_N, "m": m, "td_width": GRID_WIDTH},
        check=check,
    )


WORKLOADS = {
    "build_tree_bw": build_tree_bw,
    "explicit_shifts": explicit_shifts,
    "dp_exact": dp_exact,
}
