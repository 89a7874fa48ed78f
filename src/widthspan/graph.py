"""Simple connected unweighted graphs: representation, I/O, and generators.

Vertices are labeled 1..n.  Edges are stored as (u, v) pairs with u < v and
carry stable 1-based edge IDs assigned in file (or generation) order; all
deterministic tie-breaking downstream uses these IDs.

Edge-list file format (line oriented):
    c <comment>
    p <n> <m>
    e <u> <v>        (m lines, 1 <= u, v <= n)

``load_graph`` has a fast path for the document ``dump_graph`` writes: a
header line, then only edge lines, each field ASCII digits, separated by one
space, every line ended by ``\n``.  It finds one by deleting the body's
digits in one ``str.translate`` pass, which must leave ``"e  \n"`` once per
line, and by checking that every line starts with ``"e "``.  It turns the
edge lines into one JSON array of endpoints and converts every field in a
single ``json.loads`` call, whose C decoder is about twice as fast as
``map(int, ...)`` over a split.
Then it validates in bulk: min/max for the vertex range, pairwise comparison
for self-loops, then duplicates and connectivity, each first by a
certificate in one pass at C speed.  Pairs in strictly increasing order
repeat none; only otherwise does a set count the duplicates.  A graph in which
every label 2..n is the larger end of some edge is connected; only otherwise
does the kernel's Kruskal scan decide.  A sorted document in which each
vertex but 1 has a lesser neighbour, such as ``gen --family random_bandwidth``
writes, passes both.  After the range check every endpoint is mapped through
one ``list(range(n + 1))``, so the edges hold one int object per label rather
than the parser's one per endpoint, and the same list then serves as the
scan's union-find.  JSON rejects a field with a leading zero (``01``) and
``int`` one with more than 4,300 digits; such a document, any document that is
not plain, and any document the bulk checks reject goes through the
line-by-line parser and the per-edge checks, which accept ``01`` as 1 and
raise every error with its line number.  So the fast path changes no result
and no message.
"""
from __future__ import annotations

import json
import math
import operator
import random
import re
from functools import cached_property
from itertools import islice

from . import _Record, kernel


class _GraphError(ValueError):
    """A graph error, its message led by the line it was found on, if any."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")


class GraphFormatError(_GraphError):
    """Malformed edge-list document."""


class GraphValidationError(_GraphError):
    """Structurally invalid graph (loop, duplicate, disconnected, bad label)."""


class Graph(_Record):
    """Immutable simple connected graph.

    edges[i] is the endpoint pair of the edge with ID i+1.  ``incident[v]``
    lists the IDs of edges touching vertex v; it is the graph's only index,
    built on first use (by ``degree``, ``neighbors``, the exact DP, the
    oracle and ``verify``), so a run that never asks for it never pays for
    it.  Graphs are equal when their n and edges are.
    """

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]):
        # cached_property stores into __dict__ too, past _Record.__setattr__
        vars(self).update(n=n, edges=edges)

    def __eq__(self, other):
        if type(other) is not Graph:
            return NotImplemented
        # not vars(): that holds incident, once built
        return self.n == other.n and self.edges == other.edges

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        incident: list[list[int]] = [[] for _ in range(self.n + 1)]
        for eid, (u, v) in enumerate(self.edges, start=1):
            incident[u].append(eid)
            incident[v].append(eid)
        return tuple(tuple(ids) for ids in incident)

    def degree(self, v: int) -> int:
        return len(self.incident[v])

    def neighbors(self, v: int) -> list[int]:
        out = []
        for eid in self.incident[v]:
            a, b = self.edges[eid - 1]
            out.append(b if a == v else a)
        return out


def _bulk_edges(n: int, us: list[int], vs: list[int]) -> tuple[tuple[int, int], ...] | None:
    """The edges as (u, v) pairs with u < v when every edge is in range, not a
    loop, not a duplicate, and the graph on 1..n is connected; else None.
    Duplicates and connectivity are tried by certificate first (see the
    module docstring)."""
    if len(us) < n - 1:
        return None
    ordered = all(map(operator.lt, us, vs))
    if ordered:
        if us and (min(us) < 1 or max(vs) > n):
            return None
    else:
        if min(us) < 1 or min(vs) < 1 or max(us) > n or max(vs) > n:
            return None
        if not all(map(operator.ne, us, vs)):
            return None
    # one int object per label: the edges share this list's ints, not the
    # parser's one per endpoint occurrence.  Only after the range checks: an
    # out-of-range label would index past the list or wrap from its end.
    parent = list(range(n + 1))
    labels = zip(map(parent.__getitem__, us), map(parent.__getitem__, vs))
    if ordered:
        edges = tuple(labels)
    else:
        edges = tuple((u, v) if u < v else (v, u) for u, v in labels)
    # strictly increasing pairs repeat none; only otherwise count a set
    if not all(map(operator.lt, edges, islice(edges, 1, None))) and len(set(edges)) != len(edges):
        return None
    # connected when every label 2..n is the larger end of an edge: each
    # vertex then has a lesser neighbour, so by induction it reaches 1.  Only
    # otherwise run the kernel's Kruskal scan over the pairs just built, with
    # the label list as its union-find: connected iff it keeps n - 1 edges
    m = len(edges)
    if (len(set(vs if ordered else map(max, us, vs))) != n - 1
            and kernel.kruskal_step(parent, bytearray(m), edges, range(m), n - 1) != n - 1):
        return None
    return edges


def _checked_edges(n: int, raw_edges: list[tuple[int, int]], lines: list[int] | None) -> tuple[tuple[int, int], ...]:
    """Validate edge by edge, raising the first error with its source line;
    then check connectivity by the kernel's Kruskal scan over a union-find of
    vertex 1 and the edges' endpoints alone, so that memory follows the edge
    list and not the declared n."""

    def where(i: int) -> int | None:
        return lines[i] if lines is not None else None

    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    for i, (u, v) in enumerate(raw_edges):
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphValidationError(f"vertex out of range in edge ({u}, {v})", where(i))
        if u == v:
            raise GraphValidationError(f"self-loop at vertex {u}", where(i))
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphValidationError(f"duplicate edge ({key[0]}, {key[1]})", where(i))
        seen.add(key)
        edges.append(key)

    if n >= 1:
        # connected iff the scan keeps n - 1 edges; else count 1's component
        parent = {x: x for edge in edges for x in edge}
        parent[1] = 1
        m = len(edges)
        if kernel.kruskal_step(parent, bytearray(m), edges, range(m), n - 1) != n - 1:
            root = kernel.find(parent, 1)
            reached = sum(kernel.find(parent, x) == root for x in parent)
            raise GraphValidationError(f"graph is disconnected ({reached} of {n} vertices reachable)")
    return tuple(edges)


def _build_graph(n: int, raw_edges: list[tuple[int, int]], lines: list[int] | None = None) -> Graph:
    """Validate and assemble a Graph.  ``lines`` maps edge index -> source line.

    The bulk checks decide almost every graph; the per-edge checks run only
    when the bulk checks reject it, to raise the error they would raise."""
    us = [u for u, _ in raw_edges]
    vs = [v for _, v in raw_edges]
    edges = _bulk_edges(n, us, vs)
    if edges is None:
        edges = _checked_edges(n, raw_edges, lines)
    return Graph(n=n, edges=edges)


# A plain document is a header line, then "e u v\n" lines only.  With its
# ASCII digits deleted, the body after the header is "e  \n" once per line.
_PLAIN_HEADER = re.compile(r"p ([0-9]+) ([0-9]+)\n")
_DIGITS = dict.fromkeys(range(ord("0"), ord("9") + 1))


def load_graph(text: str) -> Graph:
    """Parse an edge-list document into a validated Graph."""
    header = _PLAIN_HEADER.match(text)
    body = text[header.end():] if header else ""
    skeleton = body.translate(_DIGITS)
    lines = skeleton.count("e  \n")
    # Each line is "e  \n" once its digits are deleted, ends the body or is
    # followed by "e ", and the first starts with "e ": so each line is
    # "e " digits " " digits "\n".  JSON rejects an empty field.
    if (header and lines * 4 == len(skeleton) and body[:2] == "e " and body[-1:] == "\n"
            and body.count("\ne ") == lines - 1):
        try:
            n, m = int(header[1]), int(header[2])
            # one JSON array of every endpoint, converted by the C decoder
            ends = json.loads("[" + body[2:-1].replace("\ne ", ",").replace(" ", ",") + "]")
        except ValueError:  # a leading zero, or more digits than int() converts
            pass
        else:
            us, vs = ends[0::2], ends[1::2]
            if len(us) == m and (edges := _bulk_edges(n, us, vs)) is not None:
                return Graph(n=n, edges=edges)
    return _load_graph_lines(text)


def _load_graph_lines(text: str) -> Graph:
    """The line-by-line parser: every format error with its line number."""
    n = m = None
    raw_edges: list[tuple[int, int]] = []
    lines: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphFormatError("duplicate header line", lineno)
            if len(parts) != 3:
                raise GraphFormatError("header must be 'p <n> <m>'", lineno)
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError("non-integer header fields", lineno) from None
            if n < 1 or m < 0:
                raise GraphFormatError("header counts out of range", lineno)
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError("edge line before header", lineno)
            if len(parts) != 3:
                raise GraphFormatError("edge line must be 'e <u> <v>'", lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError("non-integer edge endpoints", lineno) from None
            raw_edges.append((u, v))
            lines.append(lineno)
        else:
            raise GraphFormatError(f"unrecognized line type {parts[0]!r}", lineno)
    if n is None:
        raise GraphFormatError("missing 'p' header line")
    if m != len(raw_edges):
        raise GraphFormatError(f"header declares {m} edges, found {len(raw_edges)}")
    return _build_graph(n, raw_edges, lines)


def dump_graph(g: Graph) -> str:
    out = [f"p {g.n} {g.m}"]
    out.extend(f"e {u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Generators.  Each returns (Graph, witness arrangement order) where the
# order is the list of vertices position by position; callers wrap it in a
# LinearArrangement.  All generators are deterministic given the seed.
# ---------------------------------------------------------------------------

FAMILIES = (
    "path",
    "cycle",
    "grid",
    "complete",
    "caterpillar",
    "random_bandwidth",
    "random_cutwidth",
)


def generate(
    family: str,
    n: int,
    seed: int = 0,
    *,
    b: int | None = None,
    p: float | None = None,
    c: int | None = None,
) -> tuple[Graph, list[int]]:
    """Generate a named graph family with a witness arrangement order."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if family == "path":
        edges = [(i, i + 1) for i in range(1, n)]
        order = list(range(1, n + 1))
    elif family == "cycle":
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
        # fold the cycle: 1, 2, n, 3, n-1, ... gives spread <= 2
        order = [1]
        lo, hi = 2, n
        take_low = True
        while lo <= hi:
            if take_low:
                order.append(lo)
                lo += 1
            else:
                order.append(hi)
                hi -= 1
            take_low = not take_low
    elif family == "grid":
        cols = _largest_divisor_at_most(n, math.isqrt(n))
        rows = n // cols
        edges = []
        for r in range(rows):
            for col in range(cols):
                v = r * cols + col + 1
                if col + 1 < cols:
                    edges.append((v, v + 1))
                if r + 1 < rows:
                    edges.append((v, v + cols))
        edges.sort()
        order = list(range(1, n + 1))
    elif family == "complete":
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        order = list(range(1, n + 1))
    elif family == "caterpillar":
        # spine at odd positions, one leg per spine vertex: identity order
        # has spine spread 2 and leg spread 1.
        edges = []
        for v in range(1, n + 1, 2):
            if v + 2 <= n:
                edges.append((v, v + 2))
            if v + 1 <= n:
                edges.append((v, v + 1))
        edges.sort()
        order = list(range(1, n + 1))
    elif family == "random_bandwidth":
        if b is None or b < 1:
            raise ValueError("random_bandwidth requires b >= 1")
        if p is None or not (0 < p <= 1):
            raise ValueError("random_bandwidth requires 0 < p <= 1")
        rng = random.Random(seed)
        edges = []
        for u in range(1, n + 1):
            for v in range(u + 1, min(u + b, n) + 1):
                if v - u == 1 or rng.random() < p:
                    edges.append((u, v))
        order = list(range(1, n + 1))
    elif family == "random_cutwidth":
        if n < 3:
            raise ValueError("random_cutwidth needs n >= 3")
        if c is None or c < 1:
            raise ValueError("random_cutwidth requires c >= 1")
        rng = random.Random(seed)
        edges = [(i, i + 1) for i in range(1, n)]
        present = set(edges)
        cut = [1] * (n - 1)  # cut[i] = edges crossing the gap (i+1, i+2)
        for _ in range(4 * n):
            u = rng.randrange(1, n - 1)
            v = rng.randrange(u + 2, n + 1)
            if (u, v) in present:
                continue
            if all(cut[i] < c for i in range(u - 1, v - 1)):
                present.add((u, v))
                edges.append((u, v))
                for i in range(u - 1, v - 1):
                    cut[i] += 1
        edges.sort()
        order = list(range(1, n + 1))
    else:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")

    return _build_graph(n, edges), order


def _largest_divisor_at_most(n: int, k: int) -> int:
    for d in range(k, 0, -1):
        if n % d == 0:
            return d
