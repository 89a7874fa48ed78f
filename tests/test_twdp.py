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

from conftest import make_graph

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
    monkeypatch.setattr(solver, "stretch_of", lambda g, tree: SimpleNamespace(total_stretch=8))
    with pytest.raises(RuntimeError, match="witness stretch 8 disagrees with DP optimum 9"):
        _dp(g)


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
