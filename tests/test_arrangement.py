import random
from dataclasses import dataclass, field
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthspan import arrangement as arrangement_module
from widthspan.arrangement import (
    ArrangementError,
    LinearArrangement,
    dump_arrangement,
    edge_spreads,
    load_arrangement,
    padded_size,
    padded_split_heights,
    right_child_start,
    shift_count,
    split_heights,
    split_nodes,
    tree_intervals,
    widths,
)
from widthspan.graph import generate
from widthspan.lowstretch import NodeCharge, charge_diagnostics, split_sets_hold

from corpus import make_graph

C4_EDGES = [(1, 2), (2, 3), (3, 4), (1, 4)]


# ---------------------------------------------------------------------------
# Independent references: the arrangement tree built as node objects by
# recursion and descent, and the divisibility form of the padded split height.
# ---------------------------------------------------------------------------

@dataclass
class _Node:
    lo: int
    hi: int
    height: int
    left: "_Node | None" = None
    right: "_Node | None" = None
    split_edges: list = field(default_factory=list)

    @property
    def size(self):
        return self.hi - self.lo + 1

    def walk(self):
        yield self
        if self.left is not None:
            yield from self.left.walk()
            yield from self.right.walk()


def _build_interval(lo, hi):
    if lo == hi:
        return _Node(lo, hi, height=0)
    size = hi - lo + 1
    p = 1 << (size - 1).bit_length() - 1  # largest power of two strictly below size
    left = _build_interval(lo, lo + p - 1)
    right = _build_interval(lo + p, hi)
    return _Node(lo, hi, 1 + max(left.height, right.height), left, right)


def _reference_tree(g, a):
    """The tree with every edge assigned, by descent, to the node that splits it."""
    root = _build_interval(1, g.n)
    for eid, (u, v) in enumerate(g.edges, start=1):
        pu, pv = sorted((a.position_of[u], a.position_of[v]))
        node = root
        while node.left is not None:
            if pv <= node.left.hi:
                node = node.left
            elif pu >= node.right.lo:
                node = node.right
            else:
                break
        node.split_edges.append(eid)
    return root


def _reference_split_nodes(g, a):
    nodes = [None] * g.m
    for node in _reference_tree(g, a).walk():
        for eid in node.split_edges:
            nodes[eid - 1] = (node.lo, node.hi)
    return nodes


def _reference_charges(g, a):
    """Long components and charges per node, computed on the reference tree."""
    b, _ = widths(g, a)
    root = _reference_tree(g, a)
    parent = list(range(g.n + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    long_of = {}
    for node in sorted(root.walk(), key=lambda node: node.size):
        for eid in node.split_edges:
            u, v = g.edges[eid - 1]
            parent[find(u)] = find(v)
        left = {find(a.vertex_at[k]) for k in range(node.lo, min(node.lo + b, node.hi + 1))}
        right = {find(a.vertex_at[k]) for k in range(max(node.hi - b + 1, node.lo), node.hi + 1)}
        long_of[node.lo, node.hi] = len(left & right)
    charges = []
    for node in root.walk():
        lx = long_of[node.lo, node.hi]
        charge = 0
        if node.left is not None:
            y, z = node.left, node.right
            ly, lz = long_of[y.lo, y.hi], long_of[z.lo, z.hi]
            if lx < ly and lx < lz:
                charge = y.size + z.size
            elif lx < ly and lx == lz:
                charge = y.size
            elif lx < lz and lx == ly:
                charge = z.size
        charges.append(NodeCharge(node.lo, node.hi, node.size, lx, charge))
    return b, charges


def split_height(i, j, n_total):
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


def test_widths_examples():
    g, order = generate("path", 4)
    assert widths(g, LinearArrangement.from_order(order)) == (1, 1)
    g = make_graph(4, C4_EDGES)
    assert widths(g, LinearArrangement.from_order([1, 2, 4, 3])) == (2, 2)
    g, order = generate("complete", 4)
    assert widths(g, LinearArrangement.from_order(order)) == (3, 4)


def test_arrangement_bijection_and_io():
    a = LinearArrangement.from_order([3, 1, 2])
    assert a.position_of[3] == 1 and a.vertex_at[1] == 3
    assert load_arrangement(dump_arrangement(a), 3) == a
    with pytest.raises(ArrangementError):
        LinearArrangement.from_order([1, 1, 2])
    with pytest.raises(ArrangementError):
        load_arrangement("1\n2\n", 3)
    with pytest.raises(ArrangementError):
        load_arrangement("1\nx\n2\n", 3)


# ---------------------------------------------------------------------------
# The fast path of load_arrangement against the line loop.
# ---------------------------------------------------------------------------

# Edits that keep a document plain: a label repeated, or set to 0 or n + 1.
_PLAIN_ARR_KINDS = ["repeat", "range"]
_ALL_ARR_KINDS = _PLAIN_ARR_KINDS + [
    "zero", "plus", "blank", "space", "crlf", "no-final-newline", "drop", "extra", "digits",
    "non-ascii", "float",
]


@st.composite
def _arrangement_documents(draw, kinds):
    """(text, n): a permutation of 1..n as ``dump_arrangement`` writes it,
    after up to three edits drawn from ``kinds``."""
    n = draw(st.integers(1, 9))
    lines = [str(v) for v in draw(st.permutations(range(1, n + 1)))]
    end = "\n"
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=3)):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        if kind == "repeat":
            lines[i] = lines[j]
        elif kind == "range":
            lines[i] = draw(st.sampled_from(["0", str(n + 1)]))
        elif kind == "zero":
            lines[i] = "0" + lines[i]
        elif kind == "plus":
            lines[i] = "+" + lines[i]
        elif kind == "blank":
            lines.insert(i, "")
        elif kind == "space":
            lines[i] += " "
        elif kind == "crlf":
            lines = [line + "\r" for line in lines]
        elif kind == "no-final-newline":
            end = ""
        elif kind == "drop":
            del lines[i]
        elif kind == "extra":
            lines.insert(i, lines[j])
        elif kind == "digits":
            lines[i] = "9" * 5000
        elif kind == "non-ascii":  # Arabic-Indic digits, which int() reads
            lines[i] = "".join(chr(0x660 + int(c)) if c.isdigit() else c for c in lines[i])
        elif kind == "float":  # JSON numbers that are not ints
            lines[i] += draw(st.sampled_from([".0", "e0"]))
    return "\n".join(lines) + end, n


def _arrangement_outcome(load, text, n):
    try:
        return load(text, n)
    except ArrangementError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=st.one_of(_arrangement_documents(_PLAIN_ARR_KINDS), _arrangement_documents(_ALL_ARR_KINDS)))
def test_arrangement_fast_path_matches_the_line_loop(doc):
    """The public loader and the line loop give equal arrangements, or the
    same exception type and message."""
    text, n = doc
    assert _arrangement_outcome(load_arrangement, text, n) == _arrangement_outcome(
        arrangement_module._load_arrangement_lines, text, n)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(doc=_arrangement_documents(_PLAIN_ARR_KINDS))
def test_plain_arrangements_skip_the_line_loop(doc):
    text, n = doc
    with patch.object(arrangement_module, "_load_arrangement_lines", side_effect=AssertionError):
        _arrangement_outcome(load_arrangement, text, n)


def test_tree_shape_n4():
    assert list(tree_intervals(1, 4)) == [(1, 1), (2, 2), (1, 2), (3, 3), (4, 4), (3, 4), (1, 4)]
    assert right_child_start(1, 4) == 3


def test_tree_shape_n5():
    intervals = list(tree_intervals(1, 5))
    assert intervals[-1] == (1, 5)
    assert right_child_start(1, 5) == 5
    assert (1, 4) in intervals and (5, 5) in intervals


def test_c4_root_split_set():
    g = make_graph(4, C4_EDGES)
    a = LinearArrangement.from_order([1, 2, 4, 3])
    # edges (2,3) and (1,4) straddle positions 2|3
    nodes = split_nodes(g, a)
    assert [eid for eid, node in enumerate(nodes, start=1) if node == (1, 4)] == [2, 4]
    assert nodes == _reference_split_nodes(g, a)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=200))
def test_tree_structure_invariants(n):
    intervals = list(tree_intervals(1, n))
    assert sorted(intervals) == sorted((nd.lo, nd.hi) for nd in _build_interval(1, n).walk())
    assert intervals[-1] == (1, n)
    seen = set()
    for lo, hi in intervals:
        if lo < hi:
            mid = right_child_start(lo, hi)
            left_size = mid - lo
            assert left_size & (left_size - 1) == 0  # power of two
            assert left_size < hi - lo + 1 <= 2 * left_size
            assert (lo, mid - 1) in seen and (mid, hi) in seen  # children first
        seen.add((lo, hi))
    assert len(seen) == len(intervals) == 2 * n - 1
    assert sum(lo == hi for lo, hi in intervals) == n


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=48),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_every_edge_split_once(n, seed):
    g, order = generate("random_bandwidth", n, seed=seed, b=3, p=0.5)
    a = LinearArrangement.from_order(order)
    nodes = split_nodes(g, a)
    assert len(nodes) == g.m
    assert set(nodes) <= set(tree_intervals(1, n))
    # the lowest node holding both ends: they straddle its children
    assert split_sets_hold(g, a, widths(g, a)[0])
    assert nodes == _reference_split_nodes(g, a)


def test_split_height_examples():
    assert split_height(3, 6, 8)[1] == 4
    assert split_height(1, 2, 8)[1] == 1
    assert split_height(4, 5, 8)[1] == 4


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=63), st.integers(min_value=1, max_value=63))
def test_split_height_matches_divisibility_definition(i, j):
    if i == j:
        return
    i, j = sorted((i, j))
    _, p = split_height(i, j, 64)
    # p is the largest power of two dividing some integer in [i, j)
    best = 0
    for x in range(i, j):
        q = 1
        while x % (2 * q) == 0:
            q *= 2
        best = max(best, q)
    assert p == best


def test_split_height_validation():
    with pytest.raises(ValueError):
        split_height(2, 2, 8)
    with pytest.raises(ValueError):
        split_height(1, 3, 6)


def test_padded_sizes_and_shift_range():
    assert padded_size(4) == 8 and shift_count(4) == 4
    assert padded_size(5) == 16 and shift_count(5) == 11
    g = make_graph(4, [(1, 2), (2, 3), (3, 4)])
    a = LinearArrangement.identity(4)
    # shift 3: padded positions 3..6 (0-based) of 8
    assert padded_split_heights(g, a, 3) == [3, 1, 2]
    with pytest.raises(ArrangementError, match=r"^shift 4 out of range for n=4$"):
        padded_split_heights(g, a, 4)
    with pytest.raises(ArrangementError, match=r"^shift -1 out of range for n=4$"):
        padded_split_heights(g, a, -1)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=40),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_padded_split_heights_match_split_height(n, seed):
    g, order = generate("random_bandwidth", n, seed=seed, b=2, p=0.7)
    a = LinearArrangement.from_order(order)
    for shift in (0, shift_count(n) - 1):
        heights = padded_split_heights(g, a, shift)
        for eid, (u, v) in enumerate(g.edges, start=1):
            i = shift + a.position_of[u]
            j = shift + a.position_of[v]
            if i > j:
                i, j = j, i
            assert heights[eid - 1] == split_height(i, j, padded_size(n))[0]


def test_raw_split_heights_agree_with_descent():
    g = make_graph(4, C4_EDGES)
    a = LinearArrangement.from_order([1, 2, 4, 3])
    assert split_heights(g, a) == [1, 2, 1, 2]


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=64),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_degree_bounded_by_twice_bandwidth(n, seed):
    g, order = generate("random_bandwidth", n, seed=seed, b=4, p=0.8)
    a = LinearArrangement.from_order(order)
    b, _ = widths(g, a)
    assert all(g.degree(v) <= 2 * b for v in range(1, n + 1))


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=64),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_sum_spread_at_most_cutwidth_times_n(n, seed):
    g, order = generate("random_cutwidth", n, seed=seed, c=3)
    a = LinearArrangement.from_order(order)
    _, c = widths(g, a)
    assert sum(edge_spreads(g, a)) <= c * n


def test_split_set_size_bound():
    for b in (1, 2, 3, 4):
        g, order = generate("random_bandwidth", 60, seed=b, b=b, p=0.9)
        a = LinearArrangement.from_order(order)
        bw, _ = widths(g, a)
        assert split_sets_hold(g, a, bw)
        root = _reference_tree(g, a)
        assert all(len(nd.split_edges) <= bw * (bw + 1) // 2 for nd in root.walk())


def _random_connected_edges(rng, n):
    """A random spanning tree plus about 2n random chords."""
    edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
    for _ in range(2 * n):
        u, v = sorted(rng.sample(range(1, n + 1), 2))
        edges.add((u, v))
    return sorted(edges)


def test_closed_form_split_heights_match_tree():
    rng = random.Random(2004)
    for n in [*range(2, 200), 1000, 1023, 1024, 1025, 4097]:
        if n <= 40:  # every pair of positions
            edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        else:
            edges = _random_connected_edges(rng, n)
        g = make_graph(n, edges)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        a = LinearArrangement.from_order(order)
        heights = [None] * g.m
        nodes = [None] * g.m
        for node in _reference_tree(g, a).walk():
            for eid in node.split_edges:
                heights[eid - 1] = node.height
                nodes[eid - 1] = (node.lo, node.hi)
        assert split_heights(g, a) == heights, n
        assert split_nodes(g, a) == nodes, n


def _near_powers_of_two(limit):
    return sorted({n for k in range(1, limit.bit_length())
                   for n in (2**k - 1, 2**k, 2**k + 1) if 2 <= n <= limit})


def test_charge_diagnostics_match_reference_tree():
    # random_bandwidth contains the path 1..n, so under its own (identity)
    # order every interval is connected and nothing is charged.  Folding the
    # order (1, n, 2, n - 1, ...) keeps the bandwidth at most 2b but splits
    # intervals into two long components; a shuffled order reaches every
    # charge case.
    rng = random.Random(6)
    charged = 0
    for b in (1, 2, 3, 4):
        for n in _near_powers_of_two(300):
            if n <= b:
                continue
            g, order = generate("random_bandwidth", n, seed=7 * b + n, b=b, p=0.7)
            folded = [v for k in range(n // 2) for v in (k + 1, n - k)] + [n // 2 + 1] * (n % 2)
            rng.shuffle(order)
            for a in (LinearArrangement.identity(n), LinearArrangement.from_order(folded),
                      LinearArrangement.from_order(order)):
                bw, expected = _reference_charges(g, a)
                rep = charge_diagnostics(g, a)
                assert rep.bandwidth == bw
                assert sorted(rep.nodes, key=lambda nc: (nc.lo, nc.hi)) == \
                    sorted(expected, key=lambda nc: (nc.lo, nc.hi)), (b, n)
                assert rep.total_charge == sum(nc.charge for nc in expected)
                charged += rep.total_charge > 0
    assert charged > 20
