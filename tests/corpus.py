"""Graphs, decompositions and helpers shared by the test modules.

It imports no test framework, so ``tests/test_cli_golden.py`` can print its
table on an interpreter without pytest.
"""
from __future__ import annotations

from widthspan.graph import Graph, _build_graph


# The 4 x 3 grid (vertex r*3 + c + 1 at row r, column c) and its min-fill
# decomposition of width 3, as the benchmark's dp_exact workload runs it.
GRID_4X3_EDGES = sorted(
    [(v, v + 1) for v in range(1, 13) if v % 3 != 0] + [(v, v + 3) for v in range(1, 10)]
)
GRID_4X3_TD = """\
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


def make_graph(n: int, edges) -> Graph:
    """Build a validated graph from explicit (u, v) pairs in ID order."""
    return _build_graph(n, list(edges))


def dump_td(td, n: int) -> str:
    """A tree decomposition as a PACE ``.td`` document for an n-vertex graph."""
    width_plus_1 = max(len(b) for b in td.bags.values())
    out = [f"s td {len(td.bags)} {width_plus_1} {n}"]
    for i in sorted(td.bags):
        out.append("b " + " ".join([str(i)] + [str(v) for v in sorted(td.bags[i])]))
    for i, j in td.edges:
        out.append(f"{i} {j}")
    return "\n".join(out) + "\n"
