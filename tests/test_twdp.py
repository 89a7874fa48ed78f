import hashlib
import itertools
import random
import tracemalloc
from dataclasses import dataclass
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthspan.graph import Graph, generate
from widthspan.lowstretch import stretch_of
from widthspan.oracle import enumerate_min_stretch
from widthspan.twdp import solver
from widthspan.twdp.decomposition import (
    TreeDecomposition,
    TreeDecompositionError,
    _rooted,
    load_td,
    make_nice,
    min_fill_td,
)
from widthspan.twdp.solver import (
    DPLimitError,
    EdgeMap,
    dp_min_stretch,
    forget_step,
    introduce_step,
    _adjacency,
    _canon,
    _distances,
    _ekey,
    _Entry,
    _steiner_tag,
)

from corpus import GRID_4X3_EDGES, GRID_4X3_TD, dump_td, make_graph

# A bound no entry can reach: passed to a DP step where a test means it to
# prune nothing.
UNBOUNDED = 10**9

# ---------------------------------------------------------------------------
# The trace of a concrete spanning tree, computed without the DP: the
# conformity reference the DP's tables are checked against.
# ---------------------------------------------------------------------------

def _dist(edges: EdgeMap, s: int, t: int) -> int:
    """Cost-weighted path length between two trace vertices."""
    d = _distances(_adjacency(edges), s)
    if t not in d:
        raise ValueError(f"vertices {s} and {t} are not connected in the trace")
    return d[t]


@dataclass(frozen=True)
class Configuration:
    """The trace of a spanning tree on a bag, in contracted normal form."""

    bag: frozenset[int]
    edges: tuple[tuple[int, int, int, bool], ...]  # (a, b, cost, realized)

    def edge_map(self) -> EdgeMap:
        return {_ekey(a, b): (cost, realized) for a, b, cost, realized in self.edges}

    @property
    def canonical_key(self) -> tuple:
        return _canon(self.bag, self.edge_map())

    def steiner_tags(self) -> dict[int, str]:
        edges = self.edge_map()
        adj = _adjacency(edges)
        return {v: _steiner_tag(adj, v) for v in adj if v not in self.bag}

    def stretch_of(self, u: int, v: int) -> int:
        return _dist(self.edge_map(), u, v)


def contract_to_configuration(tree_edges, bag, below_set) -> Configuration:
    """Trace of a spanning tree on a bag: strip off-bag leaves, contract
    degree-2 off-bag vertices summing costs, classify edges by whether their
    internal vertices were already processed (below) or are still to come.
    """
    bag = frozenset(bag)
    below_set = frozenset(below_set)
    # (cost, below_internals, above_internals) per surviving edge
    attrs: dict[tuple[int, int], tuple[int, int, int]] = {}
    adj: dict[int, set[int]] = {}
    for u, v in tree_edges:
        attrs[_ekey(u, v)] = (1, 0, 0)
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    for v in bag:
        adj.setdefault(v, set())

    changed = True
    while changed:
        changed = False
        for v in list(adj):
            if v in bag:
                continue
            if len(adj[v]) == 1:
                (w,) = adj[v]
                del attrs[_ekey(v, w)]
                adj[w].discard(v)
                del adj[v]
                changed = True
            elif len(adj[v]) == 2:
                a, b = sorted(adj[v])
                ca, ba_, aa = attrs.pop(_ekey(v, a))
                cb, bb, ab = attrs.pop(_ekey(v, b))
                inside = 1 if v in below_set else 0
                attrs[_ekey(a, b)] = (ca + cb, ba_ + bb + inside, aa + ab + (1 - inside))
                adj[a].discard(v)
                adj[b].discard(v)
                adj[a].add(b)
                adj[b].add(a)
                del adj[v]
                changed = True

    out = []
    for (a, b), (cost, below_int, above_int) in sorted(attrs.items()):
        if below_int and above_int:
            raise RuntimeError("trace edge mixes below and above internals")
        endpoint_above = any(x not in bag and x not in below_set for x in (a, b))
        realized = above_int == 0 and not endpoint_above
        out.append((a, b, cost, realized))
    return Configuration(bag=bag, edges=tuple(out))



P3_TD = "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n"


def p3():
    return make_graph(3, [(1, 2), (2, 3)])


def test_load_td_basic():
    td = load_td(P3_TD, p3())
    assert max(map(len, td.bags.values())) - 1 == 1
    assert td.bags == {1: frozenset({1, 2}), 2: frozenset({2, 3})}
    assert td.edges == ((1, 2),)


def test_load_td_missing_bags_default_empty():
    td = load_td("s td 3 2 3\nb 1 1 2\nb 3 2 3\n1 2\n2 3\n", p3())
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
    # each error is raised before the header's n is compared with the graph's
    with pytest.raises(TreeDecompositionError, match=pattern):
        load_td(doc, p3())


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
    g = p3()
    with pytest.raises(TreeDecompositionError, match=pattern):
        make_nice(load_td(doc, g), g)


def _reference_validate(td, g) -> None:
    """The three decomposition properties, checked with one search for
    connectivity and one per graph vertex for its subtree: the reference
    ``_rooted`` must agree with, first error included."""
    covered = set()
    for b in td.bags.values():
        covered |= b
    for v in range(1, g.n + 1):
        if v not in covered:
            raise TreeDecompositionError(f"vertex {v} is in no bag")
    for v in covered:
        if not (1 <= v <= g.n):
            raise TreeDecompositionError(f"bag vertex {v} is not a graph vertex")
    bag_ids = set(td.bags)
    adj: dict[int, list[int]] = {i: [] for i in bag_ids}
    for i, j in td.edges:
        if i not in bag_ids or j not in bag_ids:
            raise TreeDecompositionError(f"bag-tree edge ({i}, {j}) references unknown bag")
        adj[i].append(j)
        adj[j].append(i)
    if len(td.edges) != len(td.bags) - 1:
        raise TreeDecompositionError("bag graph is not a tree (wrong edge count)")
    start = next(iter(bag_ids))
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if seen != bag_ids:
        raise TreeDecompositionError("bag graph is disconnected")
    for u, v in g.edges:
        if not any(u in b and v in b for b in td.bags.values()):
            raise TreeDecompositionError(f"edge ({u}, {v}) is covered by no bag")
    for v in range(1, g.n + 1):
        holders = {i for i, b in td.bags.items() if v in b}
        root = next(iter(holders))
        reached = {root}
        stack = [root]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in holders and y not in reached:
                    reached.add(y)
                    stack.append(y)
        if reached != holders:
            raise TreeDecompositionError(f"bags containing vertex {v} are not connected")


@st.composite
def _bag_trees(draw):
    """A graph on 1..n and a bag tree on ids 1..k, valid by construction (each
    vertex's bags are the bags a walk in the tree visits, and each graph edge
    lies in a bag), after 0 to 3 edits that may break it: a vertex taken out
    of or put into a bag (n + 1 is no graph vertex), a bag emptied, a tree
    edge dropped, added, repeated or moved (k + 1 is no bag), or a graph edge
    added.  Only ``n`` and ``edges`` of the graph are read, so it need not be
    connected."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 5))
    ids = range(1, k + 1)
    tree = [(i, draw(st.integers(1, i - 1))) for i in ids[1:]]
    adj: dict[int, list[int]] = {i: [] for i in ids}
    for i, j in tree:
        adj[i].append(j)
        adj[j].append(i)
    bags: dict[int, set[int]] = {i: set() for i in ids}
    for v in range(1, n + 1):
        at = draw(st.sampled_from(ids))
        bags[at].add(v)
        for _ in range(draw(st.integers(0, 3))):
            if adj[at]:
                at = draw(st.sampled_from(adj[at]))
            bags[at].add(v)
    pairs = sorted({(u, v) for b in bags.values() for u in b for v in b if u < v})
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    for _ in range(draw(st.integers(0, 3))):
        # "put" and "graph" twice: a split vertex or an uncovered edge is rarer
        # than a broken tree
        kind = draw(st.sampled_from(["take", "put", "put", "empty", "drop", "add", "repeat", "move", "graph", "graph"]))
        bag = draw(st.sampled_from(ids))
        if kind == "take" and bags[bag]:
            bags[bag].discard(draw(st.sampled_from(sorted(bags[bag]))))
        elif kind == "put":
            bags[bag].add(draw(st.integers(1, n + 1)))
        elif kind == "empty":
            bags[bag] = set()
        elif kind == "drop" and tree:
            del tree[draw(st.integers(0, len(tree) - 1))]
        elif kind == "add":
            tree.append((bag, draw(st.integers(1, k + 1))))
        elif kind == "repeat" and tree:
            tree.append(draw(st.sampled_from(tree)))
        elif kind == "move" and tree:
            tree[draw(st.integers(0, len(tree) - 1))] = (bag, draw(st.integers(1, k)))
        elif kind == "graph" and n > 1:
            u = draw(st.integers(1, n - 1))
            edges.append((u, draw(st.integers(u + 1, n))))
    td = TreeDecomposition(bags={i: frozenset(b) for i, b in bags.items()}, edges=tuple(tree))
    return SimpleNamespace(n=n, edges=tuple(dict.fromkeys(edges))), td


def _first_error(check, td, g) -> str | None:
    try:
        check(td, g)
    except TreeDecompositionError as exc:
        return str(exc)
    return None


@settings(max_examples=500, deadline=None, derandomize=True)
@given(case=_bag_trees())
def test_validate_matches_the_reference(case):
    g, td = case
    error = _first_error(_reference_validate, td, g)
    assert _first_error(_rooted, td, g) == error
    if error is None:
        # the rooting: the least non-empty bag id, and each parent a neighbour
        parent = _rooted(td, g)
        assert [x for x, up in parent.items() if up is None] == [min(i for i, b in td.bags.items() if b)]
        tree = {frozenset(e) for e in td.edges}
        assert len(parent) == len(td.bags)
        assert all(frozenset((x, up)) in tree for x, up in parent.items() if up is not None)


def test_edge_coverage_matches_the_reference_on_the_atlas(atlas_corpus):
    """The per-vertex bag lists find the same first uncovered edge as the
    reference's scan of every bag: on each atlas graph's min-fill
    decomposition, and on the decomposition of the graph with one edge
    removed, checked against the whole graph."""
    uncovered = 0
    for g in atlas_corpus:
        assert _first_error(_rooted, min_fill_td(g), g) is None
        for e in g.edges:
            td = min_fill_td(Graph(n=g.n, edges=tuple(f for f in g.edges if f != e)))
            error = _first_error(_reference_validate, td, g)
            assert _first_error(_rooted, td, g) == error
            uncovered += error is not None and "covered by no bag" in error
    assert uncovered > 100


def test_load_td_checks_the_header():
    # the header's width+1 must match the largest bag, and its n the graph's
    with pytest.raises(TreeDecompositionError, match="line 2: 's td' gives width[+]1 = 3, the largest bag has 2"):
        load_td("c two bags\ns td 2 3 3\nb 1 1 2\nb 2 2 3\n1 2\n", p3())
    doc = "s td 2 2 9\nb 1 1 2\nb 2 2 3\n1 2\n"
    with pytest.raises(TreeDecompositionError, match="line 1: 's td' gives n = 9, the graph has 3"):
        load_td(doc, p3())


def test_td_round_trip():
    td = load_td(P3_TD, p3())
    assert load_td(dump_td(td, 3), p3()) == td


def _width(nodes) -> int:
    return max(len(nd.bag) for nd in nodes) - 1


def _check_nice(nodes, g):
    # children first, so the root is the last node: the DP walks the nodes
    # in index order
    assert nodes[-1].bag == frozenset() or len(nodes[-1].bag) == 1
    for node_id, nd in enumerate(nodes):
        assert all(ch < node_id for ch in nd.children)
        if nd.kind == "leaf":
            assert not nd.children and len(nd.bag) == 1
        elif nd.kind == "introduce":
            child = nodes[nd.children[0]]
            assert nd.bag == child.bag | {nd.vertex}
            assert nd.vertex not in child.bag
        elif nd.kind == "forget":
            child = nodes[nd.children[0]]
            assert nd.bag == child.bag - {nd.vertex}
            assert nd.vertex in child.bag
        else:
            assert nd.kind == "join"
            j, k = nd.children
            assert nodes[j].bag == nd.bag == nodes[k].bag
    below = _reference_below(nodes)
    assert below[-1] == frozenset(range(1, g.n + 1))
    for nd, d in zip(nodes, below):
        ref = _reference_counts(g, nd.bag, d)
        assert (nd.size, nd.inside) == (ref.size, ref.inside)


def _reference_below(nodes) -> list[frozenset[int]]:
    """D per nice node by its definition, the node's bag and its children's
    D: the reference for the counts ``size`` and ``inside``."""
    below: list[frozenset[int]] = []
    for nd in nodes:
        below.append(nd.bag.union(*(below[ch] for ch in nd.children)))
    return below


def _reference_counts(g, bag, below):
    """What ``_limit`` reads of a node with this bag and D = below: the bag,
    |D| and the number of graph edges with both ends in D."""
    inside = sum(1 for u, w in g.edges if u in below and w in below)
    return SimpleNamespace(bag=bag, size=len(below), inside=inside)


def test_make_nice_p3():
    g = p3()
    nodes = make_nice(load_td(P3_TD, g), g)
    assert _width(nodes) == 1
    _check_nice(nodes, g)


def test_make_nice_single_bag_k4():
    g, _ = generate("complete", 4)
    td = TreeDecomposition(bags={1: frozenset({1, 2, 3, 4})}, edges=())
    nodes = make_nice(td, g)
    assert _width(nodes) == 3
    _check_nice(nodes, g)


def test_counts_match_the_reference_below(atlas_corpus):
    # |D| and e(D) by the counting rules equal those of the reference D on
    # every atlas graph's min-fill decomposition and the 4x3 grid's .td
    for g, td in [(g, min_fill_td(g)) for g in atlas_corpus] + [_pinned("grid 4x3")]:
        _check_nice(make_nice(td, g), g)


def test_make_nice_memory_stays_small_on_a_long_path():
    # two counts per node, not D: on the path decomposition of the
    # 1,000-vertex path, D as a vertex set per node peaked at about 45 MB
    g, _ = generate("path", 1000)
    td = _path_td(1000)
    tracemalloc.start()
    try:
        nodes = make_nice(td, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(nodes) == 1999
    assert peak < 4 * 2**20


def test_make_nice_preserves_width_on_min_fill():
    for family, n in (("grid", 6), ("cycle", 7), ("caterpillar", 8)):
        g, _ = generate(family, n)
        td = min_fill_td(g)
        _rooted(td, g)
        nodes = make_nice(td, g)
        assert _width(nodes) == max(map(len, td.bags.values())) - 1
        _check_nice(nodes, g)


@pytest.mark.parametrize("td_text", [
    "s td 3 3 3\nb 1 1 2 3\nb 2\nb 3\n1 2\n1 3\n",  # empty leaf bags
    "s td 2 3 3\nb 1\nb 2 1 2 3\n1 2\n",  # an empty root bag
])
def test_empty_bags_are_dropped(td_text):
    g = p3()
    td = load_td(td_text, g)
    nodes = make_nice(td, g)
    _check_nice(nodes, g)
    assert _width(nodes) == 2
    res = dp_min_stretch(g, td)
    assert res.min_total_stretch == enumerate_min_stretch(g).min_total_stretch == 2
    assert stretch_of(g, res.tree_edges).total_stretch == 2


def _path_td(n: int) -> TreeDecomposition:
    """The path decomposition of the n-vertex path: bag i holds i and i + 1."""
    return TreeDecomposition(
        bags={i: frozenset({i, i + 1}) for i in range(1, n)},
        edges=tuple((i, i + 1) for i in range(1, n - 1)),
    )


def test_make_nice_deep_bag_tree():
    """A bag tree deeper than the interpreter's recursion limit: the path
    decomposition of a 700-vertex path."""
    n = 700
    g, _ = generate("path", n)
    nodes = make_nice(_path_td(n), g)
    assert len(nodes) == 2 * n - 1
    _check_nice(nodes, g)


def test_empty_bags_change_nothing_on_the_4x3_grid():
    """Empty bags hung off the smallest bag (so one becomes the least id)
    and off a leaf give the same nice form and the same answer."""
    g = make_graph(12, GRID_4X3_EDGES)
    td = load_td(GRID_4X3_TD, g)
    padded = TreeDecomposition(
        bags={**td.bags, 0: frozenset(), 13: frozenset()},
        edges=td.edges + ((0, 1), (12, 13)),
    )
    _rooted(padded, g)
    assert make_nice(padded, g) == make_nice(td, g)
    res = dp_min_stretch(g, padded)
    plain = dp_min_stretch(g, td)
    assert (res.min_total_stretch, res.tree_edges, res.width, _table_digest(res)) == (
        plain.min_total_stretch, plain.tree_edges, plain.width, _table_digest(plain))
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


def _walk_key(bag: frozenset[int], edges: EdgeMap) -> tuple:
    """The reference table key, the one the DP used before its split keys:
    the trace rooted at the least bag vertex, each vertex's children ordered
    by the least bag label below them, Steiner vertices anonymous and flags
    erased; and the realized flags as bits in that shape's edge order."""
    adj = _adjacency(edges)

    def walk(v, parent):
        kids = []
        for w, cost, _ in adj.get(v, ()):
            if w != parent:
                kids.append((*walk(w, v), cost, _ekey(v, w)))
        if not kids:
            if v in bag:
                return v, (v, ()), ()
            raise RuntimeError("trace with a non-bag leaf")
        kids.sort()
        order = []
        for _, _, below, _, k in kids:
            order.append(k)
            order += below
        shape = tuple((cost, kid) for _, kid, _, cost, _ in kids)
        least = kids[0][0]
        return (min(v, least), (v, shape), order) if v in bag else (least, (0, shape), order)

    _, shape, order = walk(min(bag), None)
    return shape, sum(1 << i for i, k in enumerate(order) if edges[k][1])


def _random_traces(rng, count, labelings):
    """``count`` traces in normal form, each in ``labelings`` labelings:
    the trace of a random tree on 1..9 on a random bag, below a random set,
    with its non-bag vertices given negative labels at random and its edges
    shuffled."""
    out = []
    while len(out) < count * labelings:
        tree = [(v, rng.randrange(1, v)) for v in range(2, 10)]
        bag = frozenset(rng.sample(range(1, 10), rng.randint(3, 5)))
        below = bag | frozenset(v for v in range(1, 10) if rng.random() < 0.5)
        try:
            conf = contract_to_configuration(tree, bag, below)
        except RuntimeError:  # a path through forgotten and future vertices
            continue
        for _ in range(labelings):
            names = rng.sample(range(-9, 0), 9)
            label = {v: v if v in bag else names[v - 1] for v in range(1, 10)}
            edges = [(_ekey(label[a], label[b]), (cost, realized))
                     for a, b, cost, realized in conf.edges]
            rng.shuffle(edges)
            out.append((bag, dict(edges)))
    return out


def test_split_keys_and_walk_keys_make_the_same_classes():
    # Buneman: a tree whose unlabeled vertices all have degree >= 3 is fixed
    # by its splits, so two traces in normal form have equal split keys
    # exactly when they have equal walk keys.
    traces = _random_traces(random.Random(5), 1000, 3)
    pairs = {(bag, _walk_key(bag, edges), _canon(bag, edges)) for bag, edges in traces}
    assert len({p[:2] for p in pairs}) == len(pairs) == len({(p[0], p[2]) for p in pairs})
    assert len(pairs) < 1000  # some random trees leave alike traces
    assert sum(any(x < 0 for k in edges for x in k) for _, edges in traces) > 1000


def _split_edges(bag: frozenset[int], edges: EdgeMap) -> tuple:
    """A trace's edges in the split order of its key, from scratch."""
    return tuple(k for _, k in solver._split_order(bag, _adjacency(edges)))


def _table(bag: frozenset[int], edges: EdgeMap, cost: int = 0) -> dict:
    """A table of one hand-built entry, which carries its edges in the split
    order of its key as every entry the DP builds does."""
    return {_canon(bag, edges): _Entry(cost, edges, ("leaf",), _split_edges(bag, edges))}


def test_introduce_step_k2():
    g = make_graph(2, [(1, 2)])
    leaf_table = _table(frozenset({1}), {})
    table = introduce_step(leaf_table, 2, frozenset({1}), g, future_budget=UNBOUNDED, limit=UNBOUNDED)
    realized = _canon(frozenset({1, 2}), {(1, 2): (1, True)})
    assert realized in table
    assert table[realized].cost == 1
    assert table[realized].back[2] == ((2, 1),)


def test_dp_steps_refuse_to_run_unbounded():
    # the DP has one configuration: every introduce and join step is bounded
    g = make_graph(2, [(1, 2)])
    leaf = _table(frozenset({1}), {})
    for bounds in ({}, {"future_budget": UNBOUNDED}, {"limit": UNBOUNDED}):
        with pytest.raises(TypeError):
            introduce_step(leaf, 2, frozenset({1}), g, **bounds)
    table = introduce_step(leaf, 2, frozenset({1}), g, future_budget=UNBOUNDED, limit=UNBOUNDED)
    with pytest.raises(TypeError):
        solver.join_step(table, table, frozenset({1, 2}), g)


def test_forget_step_rejects_promised_arms():
    bag_j = frozenset({1, 2})
    promised = {(1, 2): (3, False)}
    table = _table(bag_j, promised)
    assert forget_step(table, 2, frozenset({1})) == {}
    done = {(1, 2): (1, True)}
    table = _table(bag_j, done, 5)
    out = forget_step(table, 2, frozenset({1}))
    assert list(out.values())[0].cost == 5
    assert list(out.values())[0].edges == {}


def test_forget_isolated_vertex_raises():
    # the check must survive python -O, so it cannot be an assert
    bag_j = frozenset({1})
    table = _table(bag_j, {})
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
    # the bounds price their trees through the kernel, not stretch_of, so
    # they stay K4's true UB and girth and only the witness check can fail
    monkeypatch.setattr(solver, "stretch_of", lambda g, tree: SimpleNamespace(total_stretch=8))
    with pytest.raises(RuntimeError, match="witness stretch 8 disagrees with DP optimum 9"):
        _dp(g)


def test_bound_below_optimum_raises(monkeypatch):
    # a bound below the optimum prunes every complete tree: the DP must fail
    # loudly (under python -O too), never answer with a worse tree
    g, _ = generate("complete", 4)
    monkeypatch.setattr(solver, "_bounds", lambda g: (9 - 1, 3))
    with pytest.raises(RuntimeError, match="empty DP table|no complete configuration at the root"):
        _dp(g)


def test_upper_bound_is_the_best_bfs_tree():
    # the 4-cycle: every spanning tree is a path, total stretch 3 + 3
    assert solver._bounds(make_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]))[0] == 6
    # K4: a BFS tree is a star, 3 + 3 * 2; the optimum is 9 as well
    assert solver._bounds(generate("complete", 4)[0])[0] == 9
    assert solver._bounds(make_graph(1, []))[0] == 0


def _reference_upper_bound(g) -> int:
    """Least total stretch over the n BFS spanning trees of g, one per root,
    each search building its own tree."""
    best = None
    for root in range(1, g.n + 1):
        tree = set()
        seen = {root}
        queue = [root]
        for x in queue:
            for eid in g.incident[x]:
                a, b = g.edges[eid - 1]
                y = b if a == x else a
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
                    tree.add(eid)
        total = stretch_of(g, tree).total_stretch
        if best is None or total < best:
            best = total
    return best


def _reference_girth(g) -> int:
    """Length of the shortest cycle of g, by one BFS per root; 2 for a
    forest."""
    best = None
    for root in range(1, g.n + 1):
        depth = {root: 0}
        via = {root: 0}
        queue = [root]
        for x in queue:
            for eid in g.incident[x]:
                if eid == via[x]:
                    continue
                a, b = g.edges[eid - 1]
                y = b if a == x else a
                if y not in depth:
                    depth[y] = depth[x] + 1
                    via[y] = eid
                    queue.append(y)
                elif best is None or depth[x] + depth[y] + 1 < best:
                    best = depth[x] + depth[y] + 1
    return 2 if best is None else best


def _bridged_graphs(count: int = 40):
    """Random graphs of one to three cores, each a cycle of 3 to 6 vertices
    with random chords and each after the first hung by a bridge off an
    earlier vertex, then pendant trees grown one leaf at a time."""
    rng = random.Random(5)
    out = []
    for _ in range(count):
        n = 0
        edges = set()
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(3, 6)
            core = range(n + 1, n + k + 1)
            if n:
                edges.add((rng.randint(1, n), n + 1))
            edges.update(_ekey(core[i], core[i - 1]) for i in range(k))
            edges.update((u, w) for u in core for w in core if u < w and rng.random() < 0.2)
            n += k
        for _ in range(rng.randint(0, 8)):
            n += 1
            edges.add((rng.randint(1, n - 1), n))
        out.append(make_graph(n, sorted(edges)))
    return out


def test_bounds_match_the_references(atlas_corpus):
    # one search per root gives both bounds: its first-reach edges are the
    # BFS tree the UB reference builds
    families = [generate(f, n)[0] for f in ("path", "cycle", "grid", "complete", "caterpillar")
                for n in (5, 12, 30)]
    families += [generate("random_bandwidth", 30, s, b=3, p=0.5)[0] for s in range(3)]
    families += [generate("random_cutwidth", 30, s, c=2)[0] for s in range(3)]
    graphs = [make_graph(1, [])] + atlas_corpus + families + _bridged_graphs()
    for g in graphs:
        assert solver._bounds(g) == (_reference_upper_bound(g), _reference_girth(g))


def test_bounds_of_a_tree_price_no_bfs_tree(monkeypatch):
    # a tree is its own only spanning tree, so UB = m and the girth is 2
    # without a search; a graph with a cycle still prices one tree per root
    calls = []
    real = solver.kernel._stretches
    monkeypatch.setattr(solver.kernel, "_stretches",
                        lambda n, edges, in_tree: calls.append(n) or real(n, edges, in_tree))
    assert solver._bounds(generate("path", 1600)[0]) == (1599, 2)
    assert calls == []
    assert solver._bounds(generate("cycle", 5)[0]) == (8, 5)
    assert calls == [5] * 5


def _bounded_and_unbounded(monkeypatch, g, td):
    """The DP as it runs, and with a bound that prunes nothing: every trace
    distance is below n, so an entry costs less than n per charged edge, and
    as the girth is at most n, m * n exceeds each entry's cost plus the least
    charge ``_limit`` reserves for the edges still to come."""
    upper, girth = _reference_upper_bound(g), _reference_girth(g)
    bounded = dp_min_stretch(g, td, enforce_limits=False)
    with monkeypatch.context() as m:
        _without_bound(m)
        unbounded = dp_min_stretch(g, td, enforce_limits=False)
    limits = [
        solver._limit(g, upper, girth, _reference_counts(g, nd.bag, below))
        if nd.kind in ("introduce", "join") else None
        for nd, below in zip(bounded.nodes, _reference_below(bounded.nodes))
    ]
    return bounded, unbounded, limits


def _chain_keys(unbounded, limits):
    """Per node, the unbounded keys whose entry, and every entry its back
    pointers reach, costs no more than its node's limit.  Forget and leaf
    nodes have no limit."""
    nodes = unbounded.nodes
    chain: list[set | None] = [None] * len(nodes)
    for node_id in range(len(nodes)):
        children = nodes[node_id].children
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


def _table_digest(res) -> str:
    """One digest over every node's table that does not depend on how keys
    are encoded: the (cost, edges, back) of each entry in insertion order,
    each entry's edges in their own order, and each child key in a back
    pointer replaced by its insertion index in the child's table."""
    position = [{k: i for i, k in enumerate(table)} for table in res.tables]
    h = hashlib.sha256()
    for nd, table in zip(res.nodes, res.tables):
        rows = []
        for e in table.values():
            tag, *rest = e.back
            keys = tuple(position[c][k] for c, k in zip(nd.children, rest))
            rows.append((e.cost, tuple(e.edges.items()), (tag, *keys, *rest[len(keys):])))
        h.update(hashlib.sha256(repr(rows).encode()).digest())
    return h.hexdigest()[:16]


# (table entries, digest) per input, taken from the DP whose table keys held
# the realized/promised flags inside a nested encoding.  The witness among
# tied optima follows insertion order, so the order is pinned along with the
# contents.
PINNED_TABLES = {
    "grid 4x3": (1373, "9b2a37271b48da66"),
    "grid 6": (55, "057051605c44e27a"),
    "cycle 8": (179, "f84c1a9a295f83b9"),
    "complete 4": (22, "3cb4f15d9264f894"),
}
PINNED_ATLAS_TABLES = [  # every 5th atlas graph, under min_fill_td
    (3, "3fe315f66799251a"),
    (11, "d45e904b4fe8fd9c"),
    (12, "9fe4e82bdea6ac22"),
    (29, "438eb926cacf53c0"),
    (29, "82d544b70bf28a35"),
    (60, "e9ba8f98175c6bc7"),
    (17, "d4dfd43b9d152272"),
    (11, "7381fb3ccfebef08"),
    (50, "935c6a12c9c50741"),
    (18, "53c159fed38dd86b"),
    (31, "9544d1883914f094"),
    (54, "045b3fadd2338439"),
    (19, "91de8dfd0a734cdd"),
    (56, "a9d8286972e802a4"),
    (43, "de88c4b6aa670319"),
    (40, "fac71a024b2d3e78"),
    (72, "fe910c27fa8b3b06"),
    (36, "d18abd4234cae09c"),
    (36, "7a062f12a86d7eb5"),
    (53, "d2e70600bb80961b"),
    (83, "9c132bf9438288b8"),
    (91, "a34a4c3497988141"),
    (45, "86e8bc2377e99c6d"),
    (100, "ad5d50b202445ad7"),
    (73, "58c239f8775fd66f"),
    (62, "16a4ec6c4327d14b"),
    (109, "5daa644a321a6be6"),
    (80, "0f9930fc9719ed13"),
    (122, "16c45d3f342a2672"),
]


@pytest.mark.parametrize("name", sorted(PINNED_TABLES))
def test_tables_are_pinned(name):
    g, td = _pinned(name)
    res = dp_min_stretch(g, td, enforce_limits=False)
    assert (sum(res.table_sizes), _table_digest(res)) == PINNED_TABLES[name]


# Deep bag trees, where |D| and the edges inside D grow along the nice form:
# the path decomposition of the 40-vertex path, a 2x29 ladder and a
# caterpillar, taken with every vertex of D kept as a set on each nice node.
PINNED_DEEP_TABLES = {
    "path 40": (79, "880effc473150161"),
    "grid 58": (1638, "223cbc0755c959aa"),
    "caterpillar 41": (138, "a6a8d73c27a3dbca"),
}


@pytest.mark.parametrize("name", sorted(PINNED_DEEP_TABLES))
def test_deep_tables_are_pinned(name):
    family, n = name.split()
    g, _ = generate(family, int(n))
    td = _path_td(g.n) if family == "path" else min_fill_td(g)
    res = dp_min_stretch(g, td, enforce_limits=False)
    assert (sum(res.table_sizes), _table_digest(res)) == PINNED_DEEP_TABLES[name]


def test_atlas_tables_are_pinned(atlas_corpus):
    got = []
    for g in atlas_corpus[::5]:
        res = dp_min_stretch(g, min_fill_td(g), enforce_limits=False)
        got.append((sum(res.table_sizes), _table_digest(res)))
    assert got == PINNED_ATLAS_TABLES


def _rows(table):
    return [(k, e.cost, tuple(e.edges.items()), e.back) for k, e in table.items()]


def _without_bound(m):
    """Run the DP with UB = m * n, which prunes nothing (see
    ``_bounded_and_unbounded``), and the real girth."""
    bounds = solver._bounds
    m.setattr(solver, "_bounds", lambda g: (g.m * g.n, bounds(g)[1]))


def _without_future_budget(m):
    """Run every introduce step of the DP with a future budget that prunes
    nothing."""
    step = solver.introduce_step
    m.setattr(solver, "introduce_step",
              lambda *args, future_budget, **kwargs: step(*args, future_budget=UNBOUNDED, **kwargs))


def _kept_exactly_within(every, built, keep):
    """A bound on one quantity keeps exactly the candidates whose built
    value is within it, at each built value q and at q - 1; so a candidate
    is priced no higher than q and no lower, that is, at q."""
    rows = [(tuple(c[0].items()),) + c[1:] for c in every]
    for bound in sorted(set(built) | {q - 1 for q in built}):
        kept = [(tuple(c[0].items()),) + c[1:] for c in keep(bound)]
        assert kept == [row for row, value in zip(rows, built) if value <= bound]


def _future_need(bag: frozenset[int], edges: EdgeMap) -> int:
    """The vertices still to be introduced that a trace commits to, by a
    scan of its own: the internal vertices of its promised edges, and its
    Above vertices, the non-bag vertices whose edges are all promised."""
    flags: dict[int, set[bool]] = {}
    for k, (_, realized) in edges.items():
        for x in k:
            if x not in bag:
                flags.setdefault(x, set()).add(realized)
    promised = sum(cost - 1 for cost, realized in edges.values() if not realized)
    return promised + sum(f == {False} for f in flags.values())


def test_priced_candidates_match_the_built_ones(monkeypatch, atlas_corpus):
    # Every introduce candidate is priced from its parent trace before it is
    # built.  Over the traces of every atlas graph's DP (run without a bound
    # or future pruning, so that every kind of trace is there), each
    # candidate's charge must be what the built trace gives, and the charge
    # bound, the future budget and the vertex cap must each keep exactly the
    # candidates whose built charge, future need and vertex count are within
    # them.
    kinds = set()
    for g in atlas_corpus:
        td = min_fill_td(g)
        with monkeypatch.context() as m:
            _without_bound(m)
            _without_future_budget(m)
            res = dp_min_stretch(g, td, enforce_limits=False)
        for nd in res.nodes:
            if nd.kind != "introduce":
                continue
            v, bag_i = nd.vertex, nd.bag
            bag_j = bag_i - {v}
            nbrs = [u for u in g.neighbors(v) if u in bag_j]
            for entry in res.tables[nd.children[0]].values():
                max_extra = (g.n - 1) - sum(cost for cost, _ in entry.edges.values())
                need_j = _future_need(bag_j, entry.edges)
                verts_j = len(bag_j | _adjacency(entry.edges).keys())

                def candidates(charge=UNBOUNDED, need=UNBOUNDED, verts=UNBOUNDED):
                    return list(solver._intro_candidates(
                        entry.edges, bag_j, v, nbrs, max_extra, charge, need, verts,
                        ({}, {})))

                every = candidates()
                charges, needs, counts = [], [], []
                for edges_i, _, charge in every:
                    adj = _adjacency(edges_i)
                    dist = _distances(adj, v)
                    assert charge == sum(dist[u] for u in nbrs)
                    charges.append(charge)
                    needs.append(_future_need(bag_i, edges_i))
                    counts.append(len(bag_i | adj.keys()))
                    kinds.add((counts[-1] - verts_j, needs[-1] < need_j))
                _kept_exactly_within(every, charges, lambda b: candidates(charge=b))
                _kept_exactly_within(every, needs, lambda b: candidates(need=b))
                _kept_exactly_within(every, counts, lambda b: candidates(verts=b))
    # v hung off a vertex, in an Above vertex's place, on a promised edge,
    # and off a fresh Above vertex
    assert kinds == {(1, False), (0, True), (1, True), (2, False)}


def test_table_keys_equal_the_keys_from_scratch(monkeypatch, atlas_corpus):
    # Each step keys its entries by splits it computes once per edge set and
    # shares between the traces of that set.  Over the DP of every atlas
    # graph and the pinned instances, run without a bound or future pruning,
    # every entry's key and the edge order it keeps for its key must be the
    # ones computed from scratch from its own trace.
    inputs = [_pinned(name) for name in sorted(PINNED_TABLES)]
    inputs += [(g, min_fill_td(g)) for g in atlas_corpus]
    for g, td in inputs:
        with monkeypatch.context() as m:
            _without_bound(m)
            _without_future_budget(m)
            res = dp_min_stretch(g, td, enforce_limits=False)
        for nd, table in zip(res.nodes, res.tables):
            for key, e in table.items():
                assert (key, e.order) == (_canon(nd.bag, e.edges), _split_edges(nd.bag, e.edges))


def _subset_join(table_j: dict, table_k: dict, bag: frozenset[int], g, *,
                 limit: int) -> dict:
    """The reference join: for each entry of the first child, each subset
    of its promised blocks, by size and then lexicographically, realized
    below the second child, looked up by its canonical key."""
    bag_pairs: dict[int, list[int]] = {}
    for u, w in g.edges:
        if u in bag and w in bag:
            bag_pairs.setdefault(u, []).append(w)
    table_i: dict = {}
    for key_j, entry_j in table_j.items():
        adj_j = _adjacency(entry_j.edges)
        dup = 0
        for u, ws in bag_pairs.items():
            dist = _distances(adj_j, u)
            dup += sum(dist[w] for w in ws)
        promised_blocks = [ks for ks, realized in solver._blocks(entry_j.edges) if not realized]
        for r in range(len(promised_blocks) + 1):
            for chosen in itertools.combinations(promised_blocks, r):
                flip: set = set().union(*chosen) if chosen else set()
                partner: EdgeMap = {}
                for k, (cost, realized) in entry_j.edges.items():
                    if k[0] > 0 and k[1] > 0 and cost == 1:
                        partner[k] = (cost, True)
                    else:
                        partner[k] = (cost, k in flip)
                key_k = _canon(bag, partner)
                entry_k = table_k.get(key_k)
                if entry_k is None:
                    continue
                cost_i = entry_j.cost + entry_k.cost - dup
                if cost_i > limit:
                    continue
                merged: EdgeMap = {
                    k: (cost, realized or partner[k][1])
                    for k, (cost, realized) in entry_j.edges.items()
                }
                solver._merge(table_i, _canon(bag, merged), merged, cost_i,
                              ("join", key_j, key_k), _split_edges(bag, merged))
    return table_i


def test_shape_join_equals_the_subset_enumeration(monkeypatch, atlas_corpus):
    # The same entries in the same order, with the same cost, edges and back
    # pointers, at every join node of the DP, bounded and not.
    joins = 0
    inputs = [_pinned("grid 4x3")] + [(g, min_fill_td(g)) for g in atlas_corpus[::3]]
    for g, td in inputs:
        bounded, unbounded, limits = _bounded_and_unbounded(monkeypatch, g, td)
        for res in (bounded, unbounded):
            for node_id, nd in enumerate(res.nodes):
                if nd.kind != "join":
                    continue
                j, k = (res.tables[c] for c in nd.children)
                limit = limits[node_id] if res is bounded else g.m * g.n
                got = solver.join_step(j, k, nd.bag, g, limit=limit)
                assert _rows(got) == _rows(res.tables[node_id])
                assert _rows(got) == _rows(_subset_join(j, k, nd.bag, g, limit=limit))
                joins += 1
    assert joins > 50


# A Steiner leaf under bag vertex 1.  The DP never makes such a trace: in
# normal form every leaf is a bag vertex with its own label, which is what
# makes every split non-empty, and so the table key, canonical.  The check must survive python -O, so it cannot be an assert.
STEINER_LEAF = {(1, 2): (1, True), (-1, 1): (2, False)}


def test_canon_raises_on_a_trace_with_a_non_bag_leaf():
    with pytest.raises(RuntimeError, match="trace with a non-bag leaf"):
        _canon(frozenset({1, 2}), STEINER_LEAF)


def test_introduce_raises_on_a_trace_with_a_non_bag_leaf(monkeypatch):
    g = make_graph(2, [(1, 2)])
    leaf = _table(frozenset({1}), {})
    monkeypatch.setattr(solver, "_intro_candidates",
                        lambda *a: iter([(STEINER_LEAF, ((2, 1),), 1)]))
    with pytest.raises(RuntimeError, match="trace with a non-bag leaf"):
        introduce_step(leaf, 2, frozenset({1}), g, future_budget=UNBOUNDED, limit=UNBOUNDED)


def test_shape_join_partners_realize_whole_blocks():
    # Of entries of the same shape, only one whose realized edges are the
    # shared unit bag edges plus whole promised blocks is a partner.  (The
    # DP's own entries never realize part of a block or leave a shared edge
    # promised; these are built by hand.)
    g = make_graph(5, [(1, 2), (2, 5), (3, 5), (4, 5)])
    bag = frozenset({1, 2, 3, 4})
    star = {(1, 2): (1, True), (-1, 2): (2, False), (-1, 3): (2, False), (-1, 4): (1, False)}
    table_j = _table(bag, star, 5)
    table_k = {}
    # the cheaper two, were they partners, would replace the full block's
    for flags, cost in (((True, False, False, False), 7), ((True, True, True, True), 7),
                        ((False, True, True, True), 6), ((True, False, False, True), 5)):
        edges = {k: (c, flag) for (k, (c, _)), flag in zip(star.items(), flags)}
        table_k.update(_table(bag, edges, cost))
    got = solver.join_step(table_j, table_k, bag, g, limit=UNBOUNDED)
    assert [(e.cost, e.edges) for e in got.values()] == [
        (5 + 7 - 1, star),
        (5 + 7 - 1, {(1, 2): (1, True), (-1, 2): (2, True), (-1, 3): (2, True), (-1, 4): (1, True)}),
    ]
    assert _rows(got) == _rows(_subset_join(table_j, table_k, bag, g, limit=UNBOUNDED))


def test_join_checks_the_blocks_of_every_entry_with_a_partner():
    # the check must survive python -O, so it cannot be an assert
    g = make_graph(3, [(1, 2), (2, 3)])
    bag = frozenset({1, 2, 3})
    mixed = {(-1, 1): (2, True), (-1, 2): (2, False), (-1, 3): (1, True)}
    table = _table(bag, mixed)
    with pytest.raises(RuntimeError, match="join block with mixed"):
        solver.join_step(table, table, bag, g, limit=UNBOUNDED)


def test_join_skips_the_blocks_of_an_entry_without_a_partner():
    # an entry whose shape the second child's table lacks has no partner, so
    # its blocks are never read: a mixed one does not raise
    g = make_graph(3, [(1, 2), (2, 3)])
    bag = frozenset({1, 2, 3})
    mixed = {(-1, 1): (2, True), (-1, 2): (2, False), (-1, 3): (1, True)}
    path = {(1, 2): (1, True), (2, 3): (1, True)}
    assert solver.join_step(_table(bag, mixed), _table(bag, path), bag, g, limit=UNBOUNDED) == {}


def test_introduce_checks_the_steiner_tags_of_its_parents():
    # the check must survive python -O, so it cannot be an assert
    g = make_graph(4, [(1, 2), (2, 3), (3, 4)])
    bag = frozenset({1, 2, 3})
    mixed = {(-1, 1): (2, True), (-1, 2): (2, False), (-1, 3): (1, True)}
    table = _table(bag, mixed)
    with pytest.raises(RuntimeError, match="Steiner vertex with mixed"):
        introduce_step(table, 4, bag, g, future_budget=UNBOUNDED, limit=UNBOUNDED)


def test_introduce_checks_the_steiner_tags_of_its_entries(monkeypatch):
    # every trace an introduce step keeps is checked, not only its parents
    g = make_graph(2, [(1, 2)])
    leaf = _table(frozenset({1}), {})
    mixed = {(-1, 1): (1, True), (-1, 2): (2, False), (-1, 3): (1, False)}
    monkeypatch.setattr(solver, "_intro_candidates",
                        lambda *a: iter([(mixed, (), 0)]))
    with pytest.raises(RuntimeError, match="Steiner vertex with mixed"):
        introduce_step(leaf, 2, frozenset({1}), g, future_budget=UNBOUNDED, limit=UNBOUNDED)


def test_candidates_read_each_steiner_tag_of_their_parent_once(monkeypatch):
    # a parent's tags make both its Above vertices and its future need, from
    # one reading per Steiner vertex: here -1 is Below and -2 Above, on the
    # hand-built parent and then on every parent of the 4x3 grid's DP
    calls = []
    tag = solver._steiner_tag
    monkeypatch.setattr(solver, "_steiner_tag", lambda adj, s: calls.append(s) or tag(adj, s))
    g = make_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 6), (4, 6)])
    bag = frozenset({1, 2, 3, 4, 5})
    parent = {(-1, 1): (1, True), (-1, 2): (2, True), (-1, 3): (1, True),
              (-2, 3): (2, False), (-2, 4): (1, False), (-2, 5): (3, False)}
    parents = [(bag, g, 6, parent)]
    grid, td = _pinned("grid 4x3")
    res = dp_min_stretch(grid, td)
    for nd in res.nodes:
        if nd.kind == "introduce":
            bag_j = nd.bag - {nd.vertex}
            parents += [(bag_j, grid, nd.vertex, e.edges) for e in res.tables[nd.children[0]].values()]
    above = 0
    for bag_j, graph, v, edges in parents:
        nbrs = [u for u in graph.neighbors(v) if u in bag_j]
        calls.clear()
        every = list(solver._intro_candidates(edges, bag_j, v, nbrs, graph.n, UNBOUNDED,
                                              UNBOUNDED, UNBOUNDED, ({}, {})))
        steiner = sorted({x for k in edges for x in k if x < 0})
        assert sorted(calls) == steiner
        above += any(all(not realized for k, (_, realized) in edges.items() if s in k)
                     for s in steiner)
        assert every
    assert above > 1


def test_introduce_checks_every_flag_set_of_an_edge_set(monkeypatch):
    # candidates with one edge set share their splits, but each set of
    # flags is checked: here the second candidate's fresh vertex is mixed
    g = make_graph(3, [(1, 2), (1, 3), (2, 3)])
    bag = frozenset({1, 2})
    parent = {(1, 2): (2, False)}
    table = _table(bag, parent)
    fresh = {(-1, 1): (1, False), (-1, 2): (1, False), (-1, 3): (1, False)}
    mixed = {**fresh, (-1, 3): (1, True)}
    monkeypatch.setattr(solver, "_intro_candidates",
                        lambda *a: iter([(fresh, (), 0), (mixed, (), 0)]))
    with pytest.raises(RuntimeError, match="Steiner vertex with mixed"):
        introduce_step(table, 3, bag, g, future_budget=UNBOUNDED, limit=UNBOUNDED)


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
    assert solver._bounds(generate("cycle", 8)[0])[1] == 8
    assert solver._bounds(make_graph(12, GRID_4X3_EDGES))[1] == 4
    assert solver._bounds(generate("complete", 4)[0])[1] == 3
    # a forest has no cycle: 2 makes the girth term vanish
    assert solver._bounds(generate("path", 5)[0])[1] == 2
    assert solver._bounds(make_graph(1, []))[1] == 2


def test_limit_on_the_4x3_grid():
    # D = the first two rows, B = the second row: 7 of the 17 edges lie in D,
    # so unch = 10; f = 11 - (6 - 3) = 8 tree edges may still come, so at
    # least 2 of the 10 are non-tree edges of stretch >= girth - 1 = 3
    g = make_graph(12, GRID_4X3_EDGES)
    below, bag = frozenset(range(1, 7)), frozenset({4, 5, 6})
    assert solver._limit(g, 100, 4, _reference_counts(g, bag, below)) == 100 - 10 - 2 * 2
    # with every vertex in D no edge is left to charge
    assert solver._limit(g, 100, 4, _reference_counts(g, bag, frozenset(range(1, 13)))) == 100


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


def test_prune_does_not_change_the_optimum(monkeypatch, atlas_corpus):
    for g in atlas_corpus[10:40:3]:
        a = _dp(g, enforce_limits=False)
        with monkeypatch.context() as m:
            _without_future_budget(m)
            b = _dp(g, enforce_limits=False)
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
    res = _dp(g)
    tree_pairs = [g.edges[eid - 1] for eid in res.tree_edges]
    full = stretch_of(g, res.tree_edges)
    below = _reference_below(res.nodes)
    for node_id, table in enumerate(res.tables):
        nd = res.nodes[node_id]
        conf = contract_to_configuration(tree_pairs, nd.bag, below[node_id])
        assert conf.canonical_key in table
        inside = sum(
            full.per_edge_stretch[eid - 1]
            for eid, (u, v) in enumerate(g.edges, start=1)
            if u in below[node_id] and v in below[node_id]
        )
        assert table[conf.canonical_key].cost <= inside
