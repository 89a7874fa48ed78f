import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthspan.arrangement import (
    ArrangementError,
    LinearArrangement,
    edge_spreads,
    shift_count,
    split_heights,
    widths,
)
from widthspan.graph import dump_graph, generate, load_graph
from widthspan.lowstretch import (
    ChargeReport,
    NodeCharge,
    StretchReport,
    build_tree,
    build_tree_padded,
    charge_diagnostics,
    charges_hold,
    cubic_bound_holds,
    cycle_spans_hold,
    fundamental_cycle_spans,
    lemma31_check,
    split_sets_hold,
    stretch_of,
)
from widthspan.twdp.decomposition import min_fill_td
from widthspan.twdp.solver import dp_min_stretch

from corpus import make_graph

C4_EDGES = [(1, 2), (2, 3), (3, 4), (1, 4)]


def test_path_tree_is_free():
    g, order = generate("path", 4)
    r = build_tree(g, LinearArrangement.from_order(order))
    assert r.tree_edges == frozenset({1, 2, 3})
    assert r.avg_stretch == 1 and r.fcb_weight == 0


def test_c4_folded_tree_frozen():
    g = make_graph(4, C4_EDGES)
    r = build_tree(g, LinearArrangement.from_order([1, 2, 4, 3]))
    assert r.tree_edges == frozenset({1, 2, 3})
    assert r.per_edge_stretch == (1, 1, 1, 3)
    assert r.avg_stretch == Fraction(3, 2)
    assert r.fcb_weight == 4


def test_edge_weights_are_the_sort_key():
    g = make_graph(4, C4_EDGES)
    a = LinearArrangement.from_order([1, 2, 4, 3])
    heights, spreads = split_heights(g, a), edge_spreads(g, a)
    assert (heights[0], spreads[0]) == (1, 1)
    assert (heights[1], spreads[1]) == (2, 2)
    order = sorted(range(g.m), key=lambda i: (heights[i], spreads[i], i))
    assert order == [0, 2, 1, 3]
    # the first three edges of that order close no cycle: they are the tree
    assert build_tree(g, a).tree_edges == frozenset({1, 3, 2})


def test_stretch_of_k4_star_and_path():
    g, _ = generate("complete", 4)
    star = stretch_of(g, {1, 2, 3})  # edges at vertex 1
    assert star.total_stretch == 9
    path = stretch_of(g, {1, 4, 6})  # 1-2, 2-3, 3-4
    assert path.total_stretch == 10
    assert sorted(path.per_edge_stretch) == [1, 1, 1, 2, 2, 3]


def test_stretch_of_rejects_non_trees():
    g, _ = generate("complete", 4)
    with pytest.raises(ValueError, match="out of range"):
        stretch_of(g, {1, 2, 99})
    with pytest.raises(ValueError, match="n - 1"):
        stretch_of(g, {1, 2})
    with pytest.raises(ValueError, match="cycle"):
        stretch_of(g, {1, 2, 4})  # 1-2, 1-3, 2-3


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=60),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_cycle_basis_identity(n, seed):
    g, order = generate("random_bandwidth", n, seed=seed, b=3, p=0.6)
    r = build_tree(g, LinearArrangement.from_order(order))
    non_tree = [
        s + 1 for i, s in enumerate(r.per_edge_stretch) if i + 1 not in r.tree_edges
    ]
    assert r.fcb_weight == sum(non_tree)
    assert r.fcb_weight == r.total_stretch + g.m - 2 * g.n + 2


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=50),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_build_tree_matches_naive_kruskal(n, seed):
    g, order = generate("random_bandwidth", n, seed=seed, b=2, p=0.7)
    a = LinearArrangement.from_order(order)
    heights = split_heights(g, a)
    spreads = edge_spreads(g, a)
    order_ids = sorted(range(g.m), key=lambda i: (heights[i], spreads[i], i))
    parent = list(range(g.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = set()
    for i in order_ids:
        u, v = g.edges[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.add(i + 1)
    assert build_tree(g, a).tree_edges == frozenset(tree)


def test_lemma31_c4_edge_powers():
    g = make_graph(4, C4_EDGES)
    a = LinearArrangement.from_order([1, 2, 4, 3])
    r = build_tree_padded(g, a, 0)
    rows = lemma31_check(g, a, 0, r)
    by_id = {eid: (p, ok) for eid, p, ok in rows}
    assert by_id[2][0] == 2  # endpoints at padded positions 2 and 4
    assert all(ok for _, _, ok in rows)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=40),
    seed=st.integers(min_value=0, max_value=10**6),
    pick=st.integers(min_value=0, max_value=10**6),
)
def test_lemma31_holds_on_padded_trees(n, seed, pick):
    g, order = generate("random_bandwidth", n, seed=seed, b=3, p=0.8)
    a = LinearArrangement.from_order(order)
    shift = pick % shift_count(n)
    r = build_tree_padded(g, a, shift)
    assert all(ok for _, _, ok in lemma31_check(g, a, shift, r))


@pytest.mark.parametrize("order", [[5, 4, 3, 2, 1], [3, 2, 1]], ids=["n=5", "n=3"])
def test_padded_build_rejects_a_wrong_size_arrangement(order):
    g = make_graph(4, C4_EDGES)
    a = LinearArrangement.from_order(order)
    report = build_tree(g, LinearArrangement.identity(4))
    with pytest.raises(ArrangementError, match="^arrangement size does not match graph$"):
        build_tree_padded(g, a, 0)
    with pytest.raises(ArrangementError, match="^arrangement size does not match graph$"):
        lemma31_check(g, a, 0, report)
    with pytest.raises(ArrangementError, match="^arrangement size does not match graph$"):
        widths(g, a)


def test_charges_vanish_on_paths():
    g, order = generate("path", 17)
    rep = charge_diagnostics(g, LinearArrangement.from_order(order))
    assert rep.bandwidth == 1
    assert all(nc.long_components == 1 for nc in rep.nodes)
    assert rep.total_charge == 0


@settings(max_examples=20, deadline=None)
@given(
    b=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=4, max_value=64),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_charge_bounds(b, n, seed):
    g, order = generate("random_bandwidth", n, seed=seed, b=b, p=0.7)
    _check_charge_bounds(g, LinearArrangement.from_order(order))


@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_charge_bounds_folded(b):
    # the generator's own order keeps the path 1..n contiguous, so no node is
    # charged under it; the folded order (1, n, 2, n - 1, ...) charges every
    # one of these graphs, so the bound is tested above 0
    for n in (6, 7, 16, 31, 64):
        folded = [v for k in range(n // 2) for v in (k + 1, n - k)] + [n // 2 + 1] * (n % 2)
        for seed in range(3):
            g, _ = generate("random_bandwidth", n, seed=seed, b=b, p=0.7)
            rep = _check_charge_bounds(g, LinearArrangement.from_order(folded))
            assert rep.total_charge > 0


def _check_charge_bounds(g, a):
    rep = charge_diagnostics(g, a)
    assert rep.bandwidth == widths(g, a)[0]
    assert charges_hold(g, rep)
    return rep


def test_long_components_not_monotone_for_tiny_children():
    # ell can exceed a child's count when that child has at most b leaves:
    # here node [5,7] has two long components but its child [7,7] has one.
    g = make_graph(7, [(1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (5, 7)])
    a = LinearArrangement.identity(7)
    bw, _ = widths(g, a)
    assert bw == 2
    rep = charge_diagnostics(g, a)
    by_iv = {(nc.lo, nc.hi): nc.long_components for nc in rep.nodes}
    assert by_iv[(5, 7)] == 2 and by_iv[(7, 7)] == 1
    # the qualified claim: monotone below every child larger than b
    assert charges_hold(g, rep)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=6, max_value=48),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_fundamental_cycle_span_bounds(n, seed):
    g, order = generate("random_bandwidth", n, seed=seed, b=3, p=0.8)
    a = LinearArrangement.from_order(order)
    assert cycle_spans_hold(g, a, build_tree(g, a), widths(g, a)[0])


def _path_positions(g, a, tree_edges, u, v):
    """Arrangement positions of the tree path from u to v, by a BFS from u."""
    adj = {x: [] for x in range(1, g.n + 1)}
    for eid in tree_edges:
        x, y = g.edges[eid - 1]
        adj[x].append(y)
        adj[y].append(x)
    came = {u: None}
    queue = [u]
    for x in queue:
        for y in adj[x]:
            if y not in came:
                came[y] = x
                queue.append(y)
    path = [v]
    while path[-1] != u:
        path.append(came[path[-1]])
    return [a.position_of[x] for x in path]


@pytest.mark.parametrize("shuffled", [False, True])
@pytest.mark.parametrize("family,n,kw", [
    ("random_bandwidth", 40, {"b": 3, "p": 0.7}),
    ("grid", 30, {}),
    ("cycle", 17, {}),
])
def test_fundamental_cycle_spans_follow_the_tree_path(family, n, kw, shuffled):
    g, order = generate(family, n, seed=5, **kw)
    if shuffled:
        random.Random(n).shuffle(order)
    a = LinearArrangement.from_order(order)
    r = build_tree(g, a)
    expected = []
    for eid, (u, v) in enumerate(g.edges, start=1):
        if eid not in r.tree_edges:
            positions = _path_positions(g, a, r.tree_edges, u, v)
            expected.append((eid, max(positions) - min(positions), len(positions)))
    assert expected
    assert fundamental_cycle_spans(g, a, r) == expected


def test_avg_stretch_cubic_bound_small_families():
    for b in (1, 2, 3):
        for n in (16, 64, 128):
            g, order = generate("random_bandwidth", n, seed=11 * b + n, b=b, p=0.9)
            a = LinearArrangement.from_order(order)
            assert cubic_bound_holds(g, build_tree(g, a), widths(g, a)[0])


def test_each_bound_predicate_rejects_a_violation():
    # C4, identity arrangement: bandwidth 3, one long component per node
    g = make_graph(4, C4_EDGES)
    a = LinearArrangement.identity(4)
    report, charges = build_tree(g, a), charge_diagnostics(g, a)
    assert split_sets_hold(g, a, 3) and cubic_bound_holds(g, report, 3)
    assert charges_hold(g, charges) and cycle_spans_hold(g, a, report, 3)
    assert not split_sets_hold(g, a, 1)  # the root splits two edges
    assert not cycle_spans_hold(g, a, report, 1)  # edge 1-4: 2 * 3 > 4 * 1
    heavy = StretchReport(frozenset({1, 2, 3}), (1, 1, 1, 129), 132, Fraction(33), 130)
    assert not cubic_bound_holds(g, heavy, 2)  # 130 > 4 * 8 * 4, though 33 <= 4 * 8 + 2
    # [1, 1] with no long component or more than 3, two at the root, a total charge over 3 * 4
    for first, root, total in ((0, 1, 0), (4, 1, 0), (1, 2, 0), (1, 1, 13)):
        nodes = (NodeCharge(1, 1, 1, first, 0), *charges.nodes[1:-1], NodeCharge(1, 4, 4, root, 0))
        assert not charges_hold(g, ChargeReport(3, nodes, total))
    # the 9-vertex path at bandwidth field 2, [1, 8] given two long components
    # where its children of 4 positions have one each: each count is within
    # [1, 2] and the root's is 1, so only the climb over a long child breaks
    g, _ = generate("path", 9)
    charges = charge_diagnostics(g, LinearArrangement.identity(9))
    assert charges_hold(g, ChargeReport(2, charges.nodes, charges.total_charge))
    nodes = tuple(NodeCharge(nc.lo, nc.hi, nc.leaf_count, 2, nc.charge) if (nc.lo, nc.hi) == (1, 8) else nc
                  for nc in charges.nodes)
    assert not charges_hold(g, ChargeReport(2, nodes, charges.total_charge))


def test_inconsistent_report_raises():
    # C4 with tree edges 1-3 has stretches (1, 1, 1, 3): FCB weight is 4, not 5
    with pytest.raises(ValueError, match="cycle-basis identity"):
        StretchReport(
            tree_edges=frozenset({1, 2, 3}),
            per_edge_stretch=(1, 1, 1, 3),
            total_stretch=6,
            avg_stretch=Fraction(3, 2),
            fcb_weight=5,
        )


def test_load_and_build_memory_stays_small():
    # one int per vertex label, the kernel on those labels, and no adjacency
    # list alive with the query lists: the peak was 22.9 MiB with a second
    # int per endpoint and both sets of per-vertex lists alive; 12.9 MiB now
    g, order = generate("random_bandwidth", 20_000, b=4, p=0.7)
    text = dump_graph(g)
    a = LinearArrangement.from_order(order)
    tracemalloc.start()
    try:
        report = build_tree(load_graph(text), a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == build_tree(g, a)
    assert peak < 18 * 2**20


def test_exact_dp_memory_stays_small():
    # each child table dropped once its parent's is built, and of it only
    # the entries a back pointer reaches: the peak was 34.7 MiB with every
    # table alive until the DP returned; 3.3 MiB now
    g, _ = generate("cycle", 40)
    td = min_fill_td(g)
    tracemalloc.start()
    try:
        res = dp_min_stretch(g, td, enforce_limits=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.min_total_stretch == 2 * 39
    assert peak < 8 * 2**20


def test_exact_dp_entries_hold_no_edge_maps():
    # an entry stores its key and its edge set's shared positions, and the
    # edge map is rebuilt where a step reads it: the peak was 3.3 MiB with
    # an edge map stored in every entry; 1.9 MiB now
    g, _ = generate("cycle", 40)
    td = min_fill_td(g)
    tracemalloc.start()
    try:
        res = dp_min_stretch(g, td, enforce_limits=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.min_total_stretch == 2 * 39
    assert peak < 2.5 * 2**20
