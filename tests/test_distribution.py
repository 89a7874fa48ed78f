import hashlib
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from widthspan import distribution, kernel, lowstretch
from widthspan.arrangement import LinearArrangement, shift_count
from widthspan.distribution import (
    DistributionReport,
    cutwidth_tree,
    explicit_distribution,
    sample_tree,
)
from widthspan.graph import Graph, generate
from widthspan.lowstretch import build_tree_padded, padded_reports
from widthspan.oracle import expected_stretch_oracle

from corpus import make_graph

C4_EDGES = [(1, 2), (2, 3), (3, 4), (1, 4)]


def _rows_by_shift(g, a):
    """The walk's reports as (per-edge stretches, total, average) rows, one
    row object per distinct tree, put in shift order; every shift exactly
    once."""
    walked = []
    for shifts, r in padded_reports(g, a):
        row = (r.per_edge_stretch, r.total_stretch, r.avg_stretch)
        walked += ((shift, row) for shift in shifts)
    assert sorted(shift for shift, _ in walked) == list(range(shift_count(g.n)))
    return [row for _, row in sorted(walked, key=lambda pair: pair[0])]


def _walk_order(g, a):
    """The walk's distinct trees: each one's shifts, in order of first sight."""
    return [shifts for shifts, _ in padded_reports(g, a)]


def test_trees_have_expectation_one():
    for g, order in (generate("path", 2), generate("path", 4)):
        rep = explicit_distribution(g, LinearArrangement.from_order(order))
        assert all(e == 1 for e in rep.per_edge_expected_stretch)
        assert all(a == 1 for a in rep.per_shift_avg_stretch)


def test_star_has_expectation_one():
    g = make_graph(9, [(1, k) for k in range(2, 10)])
    rep = explicit_distribution(g, LinearArrangement.identity(9))
    assert all(e == 1 for e in rep.per_edge_expected_stretch)


def test_c4_explicit_distribution():
    g = make_graph(4, C4_EDGES)
    a = LinearArrangement.from_order([1, 2, 4, 3])
    rep = explicit_distribution(g, a)
    assert rep.shifts == 4
    assert rep.per_edge_expected_stretch == (
        Fraction(1),
        Fraction(3, 2),
        Fraction(1),
        Fraction(5, 2),
    )
    assert rep.per_shift_avg_stretch == (Fraction(3, 2),) * 4
    assert rep.max_expected_stretch == Fraction(5, 2)
    assert rep.best_shift == 0
    # every shift tree is the cycle minus one edge
    for shift in range(4):
        tree = build_tree_padded(g, a, shift).tree_edges
        assert len(tree) == 3


@pytest.mark.parametrize(
    "family,n,kwargs",
    [
        ("grid", 6, {}),
        ("caterpillar", 9, {}),
        ("random_bandwidth", 10, {"seed": 3, "b": 2, "p": 0.8}),
        ("cycle", 7, {}),
    ],
)
def test_explicit_matches_oracle(family, n, kwargs):
    g, order = generate(family, n, **kwargs)
    a = LinearArrangement.from_order(order)
    rep = explicit_distribution(g, a)
    assert rep.per_edge_expected_stretch == expected_stretch_oracle(g, a)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=40),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_sampling_is_deterministic_and_consistent(n, seed):
    g, order = generate("random_bandwidth", n, seed=seed, b=2, p=0.7)
    a = LinearArrangement.from_order(order)
    shift, rep = sample_tree(g, a, seed)
    shift2, rep2 = sample_tree(g, a, seed)
    assert shift == shift2 and rep == rep2
    assert 0 <= shift < shift_count(n)
    assert rep == build_tree_padded(g, a, shift)


def test_cutwidth_tree_best_shift_is_minimal():
    g, order = generate("random_cutwidth", 20, seed=9, c=3)
    a = LinearArrangement.from_order(order)
    shift, rep = cutwidth_tree(g, a)
    totals = [
        build_tree_padded(g, a, s).total_stretch for s in range(shift_count(g.n))
    ]
    assert rep.total_stretch == min(totals)
    assert shift == totals.index(min(totals))


FAMILIES = {
    "path": {},
    "cycle": {},
    "grid": {},
    "caterpillar": {},
    "random_bandwidth": {"seed": 5, "b": 3, "p": 0.6},
    "random_cutwidth": {"seed": 5, "c": 2},
}


def _row_cases():
    for family, kwargs in FAMILIES.items():
        g, _ = generate(family, 13, **kwargs)
        identity = list(range(1, g.n + 1))
        shuffled = identity.copy()
        random.Random(11).shuffle(shuffled)
        yield pytest.param(g, identity, id=f"{family}-identity")
        yield pytest.param(g, shuffled, id=f"{family}-shuffled")
    yield pytest.param(make_graph(1, []), [1], id="p 1 0")
    yield pytest.param(make_graph(2, [(1, 2)]), [2, 1], id="n=2")


@pytest.mark.parametrize("g,order", _row_cases())
def test_shift_rows_match_shift_trees(g, order):
    a = LinearArrangement.from_order(order)
    for shift, (per_edge, total, avg) in enumerate(_rows_by_shift(g, a)):
        rep = build_tree_padded(g, a, shift)
        assert (tuple(per_edge), total, avg) == (rep.per_edge_stretch, rep.total_stretch, rep.avg_stretch)


def test_disconnected_graph_is_an_error():
    # a Graph built without load_graph's validation can be disconnected; the
    # walk runs out of pending edges with the forest unfinished
    g = Graph(n=4, edges=((1, 2), (3, 4)))
    a = LinearArrangement.identity(4)
    with pytest.raises(ValueError, match="^graph is not connected$"):
        explicit_distribution(g, a)
    with pytest.raises(ValueError, match="^graph is not connected$"):
        cutwidth_tree(g, a)


def _raising_node(g):
    """Depth and pending edges of the trie node whose walk raised."""
    with pytest.raises(ValueError, match="^graph is not connected$") as info:
        list(padded_reports(g, LinearArrangement.identity(g.n)))
    tb = info.tb
    while tb.tb_next is not None:
        tb = tb.tb_next
    assert tb.tb_frame.f_code.co_name == "padded_reports"
    return tb.tb_frame.f_locals["depth"], list(tb.tb_frame.f_locals["rest"])


def test_both_disconnection_checks_are_reached():
    # bandwidth 1: the root is a spanning leaf, and its one Kruskal scan over
    # both pending edges keeps 2 of the 3 edges it wants
    assert _raising_node(Graph(n=4, edges=((1, 2), (3, 4)))) == (0, [0, 1])
    # bandwidth 2 with 3 components: no node's blocks are its components,
    # and a depth-2 node has joined both edges with 2 still wanted
    assert _raising_node(Graph(n=5, edges=((1, 3), (2, 4)))) == (2, [])


def _leaf_rule_cases():
    graphs = [("random_bandwidth", {"seed": b, "b": b, "p": 0.6}) for b in (1, 2, 3, 4, 5)]
    graphs += [("path", {}), ("grid", {}), ("caterpillar", {}), ("cycle", {})]
    for family, kwargs in graphs:
        for n in (31, 32, 33, 64, 65):
            g, order = generate(family, n, **kwargs)
            shuffled = order.copy()
            random.Random(n).shuffle(shuffled)
            for name, o in (("identity", order), ("reversed", order[::-1]), ("shuffled", shuffled)):
                yield pytest.param(g, o, id=f"{family}-{kwargs.get('b', '')}-{n}-{name}")


@pytest.mark.parametrize("g,order", _leaf_rule_cases())
def test_spanning_leaves_give_each_shifts_tree(g, order):
    # random_bandwidth with bandwidth b ends branches at depth ceil(log2 b);
    # the folded cycle's blocks are its components only once two are left,
    # at nodes that hold one shift, so there the rule saves next to nothing
    a = LinearArrangement.from_order(order)
    for shift, (per_edge, total, avg) in enumerate(_rows_by_shift(g, a)):
        rep = build_tree_padded(g, a, shift)
        assert (tuple(per_edge), total, avg) == (rep.per_edge_stretch, rep.total_stretch, rep.avg_stretch)


def test_one_tree_walk_ends_at_the_bandwidth_depth(monkeypatch):
    # bandwidth 4: the four depth-2 nodes are leaves, 2 + 4 + 4 Kruskal
    # scans in all, where a walk to the spanning forests makes 1,533
    calls = {"kruskal_step": 0, "_stretches": 0}
    for name in calls:
        real = getattr(kernel, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(kernel, name, counted)
    g, order = generate("random_bandwidth", 512, seed=2, b=4, p=0.7)
    rows = _rows_by_shift(g, LinearArrangement.from_order(order))
    assert len(rows) == 512
    assert calls["kruskal_step"] <= 16
    assert calls["_stretches"] == 1


def test_one_fraction_per_distinct_expected_sum(monkeypatch):
    # 1,577 edges share 4 distinct sums over the 512 shifts: the expectations
    # are built once per sum, plus the Fraction(0) that fills the per-shift list
    g, order = generate("random_bandwidth", 512, seed=2, b=4, p=0.7)
    a = LinearArrangement.from_order(order)
    sums = [0] * g.m
    for per_edge, _, _ in _rows_by_shift(g, a):
        sums = [s + x for s, x in zip(sums, per_edge)]
    made = []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(distribution, "Fraction", counted)
    dist = explicit_distribution(g, a)
    assert len(made) <= len(set(sums)) + 1
    assert list(dist.per_edge_expected_stretch) == [Fraction(s, dist.shifts) for s in sums]


def test_max_expected_stretch_compares_each_shared_fraction_once(monkeypatch):
    # the 1,577 edges share 4 Fraction objects, so the maximum takes at most
    # 3 comparisons, and is the object a scan of every edge returns
    g, order = generate("random_bandwidth", 512, seed=2, b=4, p=0.7)
    dist = explicit_distribution(g, LinearArrangement.from_order(order))
    every = max(dist.per_edge_expected_stretch)
    compared = []
    for name in ("__gt__", "__lt__", "__ge__", "__le__"):
        real = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda a, b, real=real: compared.append(a) or real(a, b))
    got = dist.max_expected_stretch
    monkeypatch.undo()
    assert got is every
    assert len(compared) < len({id(f) for f in dist.per_edge_expected_stretch}) <= 4
    assert DistributionReport(0, (), (), 0).max_expected_stretch == 0


def test_shift_rows_check_the_cycle_basis_identity(monkeypatch):
    # a tree edge whose stretch is not 1 breaks FCB(T) = stretch(T) + m - 2n + 2;
    # the check is a raise, so it also holds under python -O
    real = kernel._stretches

    def inconsistent(n, edges, in_tree):
        stretch = real(n, edges, in_tree)
        stretch[in_tree.index(1)] = 2
        return stretch

    monkeypatch.setattr(kernel, "_stretches", inconsistent)
    g, order = generate("grid", 9)
    with pytest.raises(ValueError, match="cycle-basis identity violated"):
        explicit_distribution(g, LinearArrangement.from_order(order))


def test_cycle_basis_check_fires_on_a_trees_first_sight(monkeypatch):
    # each distinct tree has one report, checked once; the folded cycle
    # meets most trees at leaves apart in walk order: corrupt a tree that is
    # not the first and the walk must stop at its report, after exactly the
    # trees first seen before it
    g, order = generate("cycle", 200)
    a = LinearArrangement.from_order(order)
    trees = [build_tree_padded(g, a, shifts[0]).tree_edges for shifts in _walk_order(g, a)]
    assert len(trees) == len(set(trees)) == _distinct_trees(g, a)
    first = len(trees) // 2
    target = trees[first]
    real = kernel._stretches

    def inconsistent(n, edges, in_tree):
        stretch = real(n, edges, in_tree)
        if {i + 1 for i, t in enumerate(in_tree) if t} == target:
            stretch[in_tree.index(1)] = 2
        return stretch

    monkeypatch.setattr(kernel, "_stretches", inconsistent)
    walk = padded_reports(g, a)
    assert [next(walk)[1].tree_edges for _ in range(first)] == trees[:first]
    with pytest.raises(ValueError, match="cycle-basis identity violated"):
        next(walk)


@pytest.mark.parametrize("family,n,seed,digest", [
    ("cycle", 200, None, "d9da038d02aff9c216c3cb476153a122250c833168f116b03460f88dc0b1c3b5"),
    ("grid", 40, 3, "64fe2be86467353b2119b6175324f13845da9de66d042f32fdc9dfc2ad24aa39"),
])
def test_walk_order_is_pinned(family, n, seed, digest):
    # the first-sight order of the distinct trees, and each tree's shifts in
    # walk order, which tests such as the first-sight check above rest on
    g, order = generate(family, n)
    if seed is not None:
        random.Random(seed).shuffle(order)
    walk = _walk_order(g, LinearArrangement.from_order(order))
    assert hashlib.sha256(repr(walk).encode()).hexdigest() == digest
    # a graph compares only with a graph
    assert g.__eq__(walk) is NotImplemented


def _distinct_trees(g, a):
    return len({build_tree_padded(g, a, s).tree_edges for s in range(shift_count(g.n))})


def test_memo_runs_the_distances_once_per_tree(monkeypatch):
    calls = []
    real = kernel._stretches

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(kernel, "_stretches", counted)
    g, order = generate("random_bandwidth", 64, seed=1, b=3, p=0.6)
    rows = _rows_by_shift(g, LinearArrangement.from_order(order))
    assert len(calls) == 1
    assert all(row is rows[0] for row in rows)

    g, order = generate("grid", 200)
    a = LinearArrangement.from_order(order)
    calls.clear()
    _rows_by_shift(g, a)
    assert len(calls) == _distinct_trees(g, a) == 16

    # the folded cycle meets most of its trees at leaves apart in walk order
    g, order = generate("cycle", 200)
    a = LinearArrangement.from_order(order)
    calls.clear()
    shifts = [s for walked in _walk_order(g, a) for s in walked]
    assert len(calls) == _distinct_trees(g, a) == 100
    assert sorted(shifts) == list(range(shift_count(g.n)))


def test_memo_eviction_keeps_rows_exact():
    # the folded cycle has 100 distinct trees, most of them met at leaves
    # apart in walk order, with other trees between
    g, order = generate("cycle", 200)
    a = LinearArrangement.from_order(order)
    assert _distinct_trees(g, a) == 100
    for shift, (per_edge, total, avg) in enumerate(_rows_by_shift(g, a)):
        rep = build_tree_padded(g, a, shift)
        assert (tuple(per_edge), total, avg) == (rep.per_edge_stretch, rep.total_stretch, rep.avg_stretch)


def test_walk_holds_one_row_at_a_time(monkeypatch):
    # every distinct tree's report is tracked by a weak reference; while a
    # report is in hand, the walk holds that report and no other
    alive = []
    real = lowstretch._make_report

    def tracked(*args):
        report = real(*args)
        alive.append(weakref.ref(report))
        return report

    monkeypatch.setattr(lowstretch, "_make_report", tracked)
    g, order = generate("cycle", 200)
    a = LinearArrangement.from_order(order)
    most = 0
    for _ in padded_reports(g, a):
        most = max(most, sum(ref() is not None for ref in alive))
    assert len(alive) == _distinct_trees(g, a) == 100
    assert most == 1


def test_shuffled_grid_rows_match_each_shift_tree():
    # 88 shifts whose totals differ, in walk order: a shift-order mix-up
    # changes the per-shift averages and the best shift.
    g, order = generate("grid", 40)
    random.Random(3).shuffle(order)
    a = LinearArrangement.from_order(order)
    count = shift_count(g.n)
    reports = [build_tree_padded(g, a, s) for s in range(count)]
    assert count == 88 and len({r.total_stretch for r in reports}) > 1
    rep = explicit_distribution(g, a)
    assert rep.per_shift_avg_stretch == tuple(r.avg_stretch for r in reports)
    assert rep.per_edge_expected_stretch == tuple(
        Fraction(sum(stretches), count) for stretches in zip(*(r.per_edge_stretch for r in reports)))
    totals = [r.total_stretch for r in reports]
    assert rep.best_shift == totals.index(min(totals))
    assert cutwidth_tree(g, a) == (rep.best_shift, reports[rep.best_shift])


@pytest.mark.parametrize("family,n,seed", [("grid", 40, 3), ("cycle", 200, None)])
def test_cutwidth_tree_returns_the_walks_report(family, n, seed, monkeypatch):
    # the winning report is the walk's own: no tree is built a second time,
    # and it equals the tree built for its shift alone
    g, order = generate(family, n)
    if seed is not None:
        random.Random(seed).shuffle(order)
    a = LinearArrangement.from_order(order)
    built = []

    def counted(*args):
        built.append(args)
        return build_tree_padded(*args)

    monkeypatch.setattr(distribution, "build_tree_padded", counted)
    monkeypatch.setattr(lowstretch, "build_tree_padded", counted)
    shift, report = cutwidth_tree(g, a)
    monkeypatch.undo()
    assert built == []
    assert report == build_tree_padded(g, a, shift)


def test_cutwidth_tree_seeded_mode():
    g = make_graph(4, C4_EDGES)
    a = LinearArrangement.from_order([1, 2, 4, 3])
    shift, rep = sample_tree(g, a, 5)
    assert (shift, rep) == sample_tree(g, a, 5)
    assert rep.avg_stretch == Fraction(3, 2)


# n at and next to the powers of two, where the shift count and the number
# of levels of shift bits change
POWER_NS = sorted({m for k in range(1, 7) for m in (2**k - 1, 2**k, 2**k + 1)} - {1})


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    n=st.sampled_from(POWER_NS),
    shuffled=st.booleans(),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_expectations_are_shift_averages(family, n, shuffled, seed):
    assume(n >= 3 or family not in ("cycle", "random_cutwidth"))
    kwargs = FAMILIES[family]
    g, order = generate(family, n, **(kwargs and {**kwargs, "seed": seed}))
    if shuffled:
        random.Random(seed).shuffle(order)
    a = LinearArrangement.from_order(order)
    rep = explicit_distribution(g, a)
    count = shift_count(n)
    reports = [build_tree_padded(g, a, s) for s in range(count)]
    for idx in range(g.m):
        mean = Fraction(sum(r.per_edge_stretch[idx] for r in reports), count)
        assert rep.per_edge_expected_stretch[idx] == mean
    assert rep.per_shift_avg_stretch == tuple(r.avg_stretch for r in reports)
    best = min(range(count), key=lambda s: (reports[s].total_stretch, s))
    assert rep.best_shift == best
