import random
from types import SimpleNamespace

import pytest

from widthspan.graph import generate
from widthspan.lowstretch import stretch_of
from widthspan.oracle import enumerate_min_stretch
from widthspan.twdp import (
    DPLimitError,
    TreeDecomposition,
    TreeDecompositionError,
    dp_min_stretch,
    dump_td,
    load_td,
    make_nice,
)
from widthspan.twdp import solver
from widthspan.twdp.decomposition import min_fill_td
from widthspan.twdp.solver import (
    Configuration,
    contract_to_configuration,
    forget_step,
    introduce_step,
    _canon,
    _Entry,
)

from conftest import GRID_4X3_EDGES, GRID_4X3_TD, make_graph

P3_TD = "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n"


def p3():
    return make_graph(3, [(1, 2), (2, 3)])


def test_load_td_basic():
    td = load_td(P3_TD, p3())
    assert td.width == 1
    assert td.bags == {1: frozenset({1, 2}), 2: frozenset({2, 3})}
    assert td.edges == ((1, 2),)


def test_load_td_missing_bags_default_empty():
    td = load_td("s td 3 2 3\nb 1 1 2\nb 3 2 3\n1 2\n2 3\n")
    assert td.bags[2] == frozenset()


@pytest.mark.parametrize(
    "doc,pattern",
    [
        ("b 1 1\ns td 1 1 1\n", "bag line before"),
        ("s td 1 1 1\ns td 1 1 1\n", "duplicate solution"),
        ("s 1 1 1\n", "expected 's td"),
        ("s td 2 2 3\nb 1 1 2\nb 1 2 3\n", "duplicate bag"),
        ("s td 1 1 1\nnonsense\n", "malformed"),
        ("", "missing 's td'"),
    ],
)
def test_load_td_format_errors(doc, pattern):
    with pytest.raises(TreeDecompositionError, match=pattern):
        load_td(doc)


@pytest.mark.parametrize(
    "doc,pattern",
    [
        ("s td 1 2 3\nb 1 1 2\n", "in no bag"),
        ("s td 2 2 3\nb 1 1 2\nb 2 3\n1 2\n", "covered by no bag"),
        ("s td 2 2 3\nb 1 1 2\nb 2 2 3\n", "not a tree"),
        ("s td 3 2 3\nb 1 1 2\nb 2 3\nb 3 2 3\n1 2\n2 3\n", "not connected"),
    ],
)
def test_load_td_validation_errors(doc, pattern):
    with pytest.raises(TreeDecompositionError, match=pattern):
        load_td(doc, p3())


def test_load_td_checks_the_header():
    # the header's width+1 must match the largest bag, with or without a graph
    with pytest.raises(TreeDecompositionError, match="line 2: 's td' gives width[+]1 = 3, the largest bag has 2"):
        load_td("c two bags\ns td 2 3 3\nb 1 1 2\nb 2 2 3\n1 2\n")
    # its n is checked only against a given graph
    doc = "s td 2 2 9\nb 1 1 2\nb 2 2 3\n1 2\n"
    assert load_td(doc).width == 1
    with pytest.raises(TreeDecompositionError, match="line 1: 's td' gives n = 9, the graph has 3"):
        load_td(doc, p3())


def test_td_round_trip():
    td = load_td(P3_TD, p3())
    assert load_td(dump_td(td, 3), p3()) == td


def _check_nice(ntd, g):
    assert ntd.nodes[ntd.root].bag == frozenset() or len(ntd.nodes[ntd.root].bag) == 1
    for nd in ntd.nodes:
        if nd.kind == "leaf":
            assert not nd.children and len(nd.bag) == 1
        elif nd.kind == "introduce":
            child = ntd.nodes[nd.children[0]]
            assert nd.bag == child.bag | {nd.vertex}
            assert nd.vertex not in child.bag
        elif nd.kind == "forget":
            child = ntd.nodes[nd.children[0]]
            assert nd.bag == child.bag - {nd.vertex}
            assert nd.vertex in child.bag
        else:
            assert nd.kind == "join"
            j, k = nd.children
            assert ntd.nodes[j].bag == nd.bag == ntd.nodes[k].bag
    assert ntd.nodes[ntd.root].below == frozenset(range(1, g.n + 1))


def test_make_nice_p3():
    g = p3()
    ntd = make_nice(load_td(P3_TD, g), g)
    assert ntd.width == 1
    _check_nice(ntd, g)


def test_make_nice_single_bag_k4():
    g, _ = generate("complete", 4)
    td = TreeDecomposition(bags={1: frozenset({1, 2, 3, 4})}, edges=())
    ntd = make_nice(td, g)
    assert ntd.width == 3
    _check_nice(ntd, g)


def test_make_nice_preserves_width_on_min_fill():
    for family, n in (("grid", 6), ("cycle", 7), ("caterpillar", 8)):
        g, _ = generate(family, n)
        td = min_fill_td(g)
        td.validate(g)
        ntd = make_nice(td, g)
        assert ntd.width == td.width
        _check_nice(ntd, g)


@pytest.mark.parametrize("td_text", [
    "s td 3 3 3\nb 1 1 2 3\nb 2\nb 3\n1 2\n1 3\n",  # empty leaf bags
    "s td 2 3 3\nb 1\nb 2 1 2 3\n1 2\n",  # an empty root bag
])
def test_empty_bags_are_dropped(td_text):
    g = p3()
    td = load_td(td_text, g)
    ntd = make_nice(td, g)
    _check_nice(ntd, g)
    assert ntd.width == 2
    res = dp_min_stretch(g, td)
    assert res.min_total_stretch == enumerate_min_stretch(g).min_total_stretch == 2
    assert stretch_of(g, res.tree_edges).total_stretch == 2


def test_make_nice_deep_bag_tree():
    """A bag tree deeper than the interpreter's recursion limit: the path
    decomposition of a 700-vertex path."""
    n = 700
    g, _ = generate("path", n)
    td = TreeDecomposition(
        bags={i: frozenset({i, i + 1}) for i in range(1, n)},
        edges=tuple((i, i + 1) for i in range(1, n - 1)),
    )
    ntd = make_nice(td, g)
    assert len(ntd.nodes) == 2 * n - 1
    _check_nice(ntd, g)


def test_empty_bags_change_nothing_on_the_4x3_grid():
    """Empty bags hung off the smallest bag (so one becomes the least id)
    and off a leaf give the same nice form and the same answer."""
    g = make_graph(12, GRID_4X3_EDGES)
    td = load_td(GRID_4X3_TD, g)
    padded = TreeDecomposition(
        bags={**td.bags, 0: frozenset(), 13: frozenset()},
        edges=td.edges + ((0, 1), (12, 13)),
    )
    padded.validate(g)
    assert make_nice(padded, g) == make_nice(td, g)
    res = dp_min_stretch(g, padded)
    assert res == dp_min_stretch(g, td)
    assert res.min_total_stretch == enumerate_min_stretch(g).min_total_stretch


def test_contract_path_trace():
    edges = [(1, 2), (2, 3)]
    conf = contract_to_configuration(edges, {1, 3}, {1, 2, 3})
    assert conf.edges == ((1, 3, 2, True),)
    assert conf.stretch_of(1, 3) == 2
    # vertex 2 not yet introduced: the edge is only promised
    conf = contract_to_configuration(edges, {1, 3}, {1, 3})
    assert conf.edges == ((1, 3, 2, False),)


def test_contract_star_trace():
    edges = [(1, 4), (2, 4), (3, 4)]
    conf = contract_to_configuration(edges, {1, 2, 3}, {1, 2, 3, 4})
    assert sorted(conf.edges) == [(1, 4, 1, True), (2, 4, 1, True), (3, 4, 1, True)]
    assert conf.steiner_tags() == {4: "below"}
    conf = contract_to_configuration(edges, {1, 2, 3}, {1, 2, 3})
    assert all(not realized for *_, realized in conf.edges)
    assert conf.steiner_tags() == {4: "above"}


def test_contract_full_bag_is_identity():
    edges = [(1, 2), (2, 3), (3, 4)]
    conf = contract_to_configuration(edges, {1, 2, 3, 4}, {1, 2, 3, 4})
    assert conf.edges == ((1, 2, 1, True), (2, 3, 1, True), (3, 4, 1, True))


def test_contract_strips_offbag_leaves():
    edges = [(1, 2), (2, 3), (3, 4)]
    conf = contract_to_configuration(edges, {2, 3}, {1, 2, 3, 4})
    assert conf.edges == ((2, 3, 1, True),)


def test_canonical_key_ignores_steiner_labels():
    a = Configuration(frozenset({1, 2, 3}), ((-1, 1, 1, False), (-1, 2, 2, False), (-1, 3, 1, False)))
    b = Configuration(frozenset({1, 2, 3}), ((-7, 1, 1, False), (-7, 2, 2, False), (-7, 3, 1, False)))
    assert a.canonical_key == b.canonical_key
    c = Configuration(frozenset({1, 2, 3}), ((-7, 1, 2, False), (-7, 2, 1, False), (-7, 3, 1, False)))
    assert a.canonical_key != c.canonical_key


def test_canonical_key_random_relabeling():
    rng = random.Random(13)
    for _ in range(30):
        bag = frozenset({1, 2, 3})
        steiners = [-1, -2]
        edges = [
            (steiners[0], 1, rng.randrange(1, 4), False),
            (steiners[0], 2, rng.randrange(1, 4), False),
            (steiners[0], steiners[1], rng.randrange(1, 4), False),
            (steiners[1], 3, rng.randrange(1, 4), False),
        ]
        conf = Configuration(bag, tuple(edges))
        relabeled = tuple(
            (a if a > 0 else a - 10, b if b > 0 else b - 10, c, r)
            for a, b, c, r in edges
        )
        assert conf.canonical_key == Configuration(bag, relabeled).canonical_key


def test_introduce_step_k2():
    g = make_graph(2, [(1, 2)])
    leaf_table = {_canon(frozenset({1}), {}): _Entry(0, {}, ("leaf",))}
    table = introduce_step(leaf_table, 2, frozenset({1}), g)
    realized = _canon(frozenset({1, 2}), {(1, 2): (1, True)})
    assert realized in table
    assert table[realized].cost == 1
    assert table[realized].back[2] == ((2, 1),)


def test_forget_step_rejects_promised_arms():
    bag_j = frozenset({1, 2})
    promised = {(1, 2): (3, False)}
    table = {_canon(bag_j, promised): _Entry(0, promised, ("leaf",))}
    assert forget_step(table, 2, frozenset({1})) == {}
    done = {(1, 2): (1, True)}
    table = {_canon(bag_j, done): _Entry(5, done, ("leaf",))}
    out = forget_step(table, 2, frozenset({1}))
    assert list(out.values())[0].cost == 5
    assert list(out.values())[0].edges == {}


def test_forget_isolated_vertex_raises():
    # the check must survive python -O, so it cannot be an assert
    bag_j = frozenset({1})
    table = {_canon(bag_j, {}): _Entry(0, {}, ("leaf",))}
    with pytest.raises(RuntimeError, match="forgetting an isolated vertex"):
        forget_step(table, 1, frozenset())


def _dp(g, **kwargs):
    return dp_min_stretch(g, min_fill_td(g), **kwargs)


def test_dp_small_exact_values():
    assert _dp(p3()).min_total_stretch == 2
    g = make_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert _dp(g).min_total_stretch == 6
    g, _ = generate("complete", 4)
    res = _dp(g)
    assert res.min_total_stretch == 9
    # the witness is a genuine spanning tree achieving the optimum
    assert stretch_of(g, res.tree_edges).total_stretch == 9


def test_witness_mismatch_raises(monkeypatch):
    # the check must survive python -O, so it cannot be an assert
    g, _ = generate("complete", 4)
    # the upper bound goes through stretch_of too; keep it at its true value
    monkeypatch.setattr(solver, "_upper_bound", lambda g: 9)
    monkeypatch.setattr(solver, "stretch_of", lambda g, tree: SimpleNamespace(total_stretch=8))
    with pytest.raises(RuntimeError, match="witness stretch 8 disagrees with DP optimum 9"):
        _dp(g)


def test_bound_below_optimum_raises(monkeypatch):
    # a bound below the optimum prunes every complete tree: the DP must fail
    # loudly (under python -O too), never answer with a worse tree
    g, _ = generate("complete", 4)
    monkeypatch.setattr(solver, "_upper_bound", lambda g: 9 - 1)
    with pytest.raises(RuntimeError, match="empty DP table|no complete configuration at the root"):
        _dp(g)


def test_upper_bound_is_the_best_bfs_tree():
    # the 4-cycle: every spanning tree is a path, total stretch 3 + 3
    assert solver._upper_bound(make_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])) == 6
    # K4: a BFS tree is a star, 3 + 3 * 2; the optimum is 9 as well
    assert solver._upper_bound(generate("complete", 4)[0]) == 9
    assert solver._upper_bound(make_graph(1, [])) == 0


def _bounded_and_unbounded(monkeypatch, g, td):
    """The DP as it runs, and with a bound that prunes nothing: every trace
    distance is below n, so an entry costs less than n per charged edge, and
    as the girth is at most n, m * n exceeds each entry's cost plus the least
    charge ``_limit`` reserves for the edges still to come."""
    upper, girth = solver._upper_bound(g), solver._girth(g)
    bounded = dp_min_stretch(g, td, enforce_limits=False, keep_tables=True)
    with monkeypatch.context() as m:
        m.setattr(solver, "_upper_bound", lambda g: g.m * g.n)
        unbounded = dp_min_stretch(g, td, enforce_limits=False, keep_tables=True)
    limits = [
        solver._limit(g, upper, girth, nd.below, nd.bag)
        if nd.kind in ("introduce", "join") else None
        for nd in bounded.ntd.nodes
    ]
    return bounded, unbounded, limits


def _chain_keys(unbounded, limits):
    """Per node, the unbounded keys whose entry, and every entry its back
    pointers reach, costs no more than its node's limit.  Forget and leaf
    nodes have no limit."""
    ntd = unbounded.ntd
    chain: list[set | None] = [None] * len(ntd.nodes)
    for node_id in ntd.postorder():
        children = ntd.nodes[node_id].children
        limit = limits[node_id]
        chain[node_id] = {
            k for k, e in unbounded.tables[node_id].items()
            if (limit is None or e.cost <= limit)
            # back[1:] starts with one key per child
            and all(key in chain[child] for child, key in zip(children, e.back[1:]))
        }
    return chain


def _pinned(name):
    if name == "grid 4x3":
        g = make_graph(12, GRID_4X3_EDGES)
        return g, load_td(GRID_4X3_TD, g)
    family, n = name.split()
    g, _ = generate(family, int(n))
    return g, min_fill_td(g)


@pytest.mark.parametrize("name", ["cycle 8", "grid 9", "caterpillar 9", "grid 4x3"])
def test_bound_only_removes_entries(monkeypatch, name):
    # The limit is not monotone along a path to the root: an introduce step
    # can raise it by more than the charge it adds, so a child may prune an
    # entry whose descendant the parent's limit would keep.  On these inputs
    # the bounded tables are exactly the unbounded entries whose whole
    # back-pointer chain is within its nodes' limits, so the witness is the
    # same tree.
    g, td = _pinned(name)
    bounded, unbounded, limits = _bounded_and_unbounded(monkeypatch, g, td)
    assert bounded.min_total_stretch == unbounded.min_total_stretch
    assert bounded.tree_edges == unbounded.tree_edges
    assert sum(bounded.table_sizes) < sum(unbounded.table_sizes)
    chain = _chain_keys(unbounded, limits)
    for a, b, keys in zip(bounded.tables, unbounded.tables, chain):
        assert {k: (e.cost, e.edges, e.back) for k, e in a.items()} == {
            k: (b[k].cost, b[k].edges, b[k].back) for k in keys
        }


def test_bound_only_removes_keys_on_the_atlas(monkeypatch, atlas_corpus):
    # Each table keeps every key whose chain is within the limits, at its
    # least cost, and no key above its own node's limit.  A key can also
    # survive through a costlier entry whose chain is within the limits; and
    # when optimal trees tie, the first-found entry of a key can differ, as
    # the pruned candidates change the order in which keys first enter a
    # table, so the witness may be another optimal tree.
    for g in atlas_corpus[::5]:
        bounded, unbounded, limits = _bounded_and_unbounded(monkeypatch, g, min_fill_td(g))
        assert bounded.min_total_stretch == unbounded.min_total_stretch
        assert stretch_of(g, bounded.tree_edges).total_stretch == bounded.min_total_stretch
        chain = _chain_keys(unbounded, limits)
        for a, b, keys, limit in zip(bounded.tables, unbounded.tables, chain, limits):
            cut = {k for k, e in b.items() if limit is None or e.cost <= limit}
            assert keys <= a.keys() <= cut
            assert all(a[k].cost == b[k].cost for k in keys)
            assert all(a[k].cost >= b[k].cost for k in a)


def test_girth():
    assert solver._girth(generate("cycle", 8)[0]) == 8
    assert solver._girth(make_graph(12, GRID_4X3_EDGES)) == 4
    assert solver._girth(generate("complete", 4)[0]) == 3
    # a forest has no cycle: 2 makes the girth term vanish
    assert solver._girth(generate("path", 5)[0]) == 2
    assert solver._girth(make_graph(1, [])) == 2


def test_limit_on_the_4x3_grid():
    # D = the first two rows, B = the second row: 7 of the 17 edges lie in D,
    # so unch = 10; f = 11 - (6 - 3) = 8 tree edges may still come, so at
    # least 2 of the 10 are non-tree edges of stretch >= girth - 1 = 3
    g = make_graph(12, GRID_4X3_EDGES)
    below, bag = frozenset(range(1, 7)), frozenset({4, 5, 6})
    assert solver._limit(g, 100, 4, below, bag) == 100 - 10 - 2 * 2
    # with every vertex in D no edge is left to charge
    assert solver._limit(g, 100, 4, frozenset(range(1, 13)), bag) == 100


# The trace invariants below must survive python -O, so they cannot be asserts.
def test_mixed_steiner_vertex_raises():
    adj = {-1: [(1, 1, True), (2, 1, False), (3, 1, True)]}
    with pytest.raises(RuntimeError, match="Steiner vertex with mixed"):
        solver._steiner_tag(adj, -1)


def test_trace_edge_mixing_below_and_above_raises():
    # 1 - 3 - 4 - 2 with only 3 processed: the contracted edge 1-2 runs
    # through one forgotten and one future vertex
    with pytest.raises(RuntimeError, match="mixes below and above"):
        contract_to_configuration([(1, 3), (3, 4), (4, 2)], {1, 2}, {3})


def test_mixed_join_block_raises():
    edges = {(-1, 1): (2, True), (-1, 2): (2, False), (-1, 3): (1, True)}
    with pytest.raises(RuntimeError, match="join block with mixed"):
        solver._blocks(edges)


@pytest.mark.parametrize("family,n", [("cycle", 8), ("grid", 6), ("caterpillar", 9), ("path", 10)])
def test_dp_matches_oracle_families(family, n):
    g, _ = generate(family, n)
    res = _dp(g, enforce_limits=False)
    assert res.min_total_stretch == enumerate_min_stretch(g).min_total_stretch
    assert stretch_of(g, res.tree_edges).total_stretch == res.min_total_stretch


def test_dp_matches_oracle_atlas_sample(atlas_corpus):
    for g in atlas_corpus[::7]:
        res = _dp(g, enforce_limits=False)
        assert res.min_total_stretch == enumerate_min_stretch(g).min_total_stretch


def test_prune_does_not_change_the_optimum(atlas_corpus):
    for g in atlas_corpus[10:40:3]:
        a = _dp(g, enforce_limits=False, prune_future=True)
        b = _dp(g, enforce_limits=False, prune_future=False)
        assert a.min_total_stretch == b.min_total_stretch


def test_limits_enforced():
    g, _ = generate("complete", 6)
    with pytest.raises(DPLimitError, match="width"):
        _dp(g)
    g, _ = generate("path", 30)
    with pytest.raises(DPLimitError, match="30 vertices"):
        _dp(g)
    assert _dp(g, enforce_limits=False).min_total_stretch == 29


def test_optimal_trace_is_in_every_table():
    # instrumentation: conforming the witness tree at each bag must hit a
    # table entry whose cost is at most the witness stretch inside D(B)
    g = make_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    res = _dp(g, keep_tables=True)
    tree_pairs = [g.edges[eid - 1] for eid in res.tree_edges]
    full = stretch_of(g, res.tree_edges)
    for node_id, table in enumerate(res.tables):
        nd = res.ntd.nodes[node_id]
        conf = contract_to_configuration(tree_pairs, nd.bag, nd.below)
        assert conf.canonical_key in table
        inside = sum(
            full.per_edge_stretch[eid - 1]
            for eid, (u, v) in enumerate(g.edges, start=1)
            if u in nd.below and v in nd.below
        )
        assert table[conf.canonical_key].cost <= inside
