import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthspan.arrangement import (
    ArrangementError,
    LinearArrangement,
    PaddedArrangement,
    build_arrangement_tree,
    dump_arrangement,
    edge_spreads,
    load_arrangement,
    padded_size,
    padded_split_heights,
    shift_count,
    split_height,
    split_heights,
    widths,
)
from widthspan.graph import generate

from conftest import make_graph

C4_EDGES = [(1, 2), (2, 3), (3, 4), (1, 4)]


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


def test_tree_shape_n4():
    g = make_graph(4, C4_EDGES)
    root = build_arrangement_tree(g, LinearArrangement.identity(4))
    assert (root.lo, root.hi) == (1, 4)
    assert (root.left.lo, root.left.hi) == (1, 2)
    assert (root.right.lo, root.right.hi) == (3, 4)


def test_tree_shape_n5():
    g, order = generate("path", 5)
    root = build_arrangement_tree(g, LinearArrangement.from_order(order))
    assert (root.left.lo, root.left.hi) == (1, 4)
    assert (root.right.lo, root.right.hi) == (5, 5)


def test_c4_root_split_set():
    g = make_graph(4, C4_EDGES)
    a = LinearArrangement.from_order([1, 2, 4, 3])
    root = build_arrangement_tree(g, a)
    # edges (2,3) and (1,4) straddle positions 2|3
    assert sorted(root.split_edges) == [2, 4]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=200))
def test_tree_structure_invariants(n):
    g, order = generate("path", n)
    root = build_arrangement_tree(g, LinearArrangement.from_order(order))
    leaves = 0
    for node in root.walk():
        if node.is_leaf:
            leaves += 1
            assert node.lo == node.hi and node.height == 0
        else:
            left_size = node.left.size
            assert left_size & (left_size - 1) == 0  # power of two
            assert left_size == 1 << (node.size - 1).bit_length() - 1
            assert node.left.lo == node.lo and node.right.hi == node.hi
            assert node.left.hi + 1 == node.right.lo
    assert leaves == n


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=48),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_every_edge_split_once(n, seed):
    g, order = generate("random_bandwidth", n, seed=seed, b=3, p=0.5)
    a = LinearArrangement.from_order(order)
    root = build_arrangement_tree(g, a)
    seen = []
    for node in root.walk():
        seen.extend(node.split_edges)
        for eid in node.split_edges:
            u, v = g.edges[eid - 1]
            pu, pv = sorted((a.position_of[u], a.position_of[v]))
            assert node.lo <= pu and pv <= node.hi
            if not node.is_leaf:
                assert not (pv <= node.left.hi or pu >= node.right.lo)
    assert sorted(seen) == list(range(1, g.m + 1))


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
    a = LinearArrangement.identity(4)
    p = PaddedArrangement(a, 3)
    assert p.n_prime == 8
    assert p.padded_position(1) == 4
    with pytest.raises(ArrangementError):
        PaddedArrangement(a, 4)
    with pytest.raises(ArrangementError):
        PaddedArrangement(a, -1)


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
        root = build_arrangement_tree(g, a)
        assert all(len(nd.split_edges) <= bw * (bw + 1) // 2 for nd in root.walk())


def _tree_split_heights(g, a):
    """Reference: height of the node build_arrangement_tree assigns each edge to."""
    heights = [None] * g.m
    for node in build_arrangement_tree(g, a).walk():
        for eid in node.split_edges:
            heights[eid - 1] = node.height
    return heights


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
        assert split_heights(g, a) == _tree_split_heights(g, a), n
