import tracemalloc
from itertools import chain
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthspan import graph as graph_module
from widthspan.graph import (
    Graph,
    GraphFormatError,
    GraphValidationError,
    dump_graph,
    generate,
    load_graph,
)
from widthspan.arrangement import LinearArrangement, widths

P4 = "p 4 3\ne 1 2\ne 2 3\ne 3 4\n"
C4 = "p 4 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n"


def test_load_path():
    g = load_graph(P4)
    assert g.n == 4 and g.m == 3
    assert g.edges == ((1, 2), (2, 3), (3, 4))
    assert g.edges[1] == (2, 3)


def test_load_cycle_with_comments():
    g = load_graph("c a comment\n" + C4 + "c trailing\n")
    assert g.m == 4
    assert 4 in g.neighbors(1) and 3 not in g.neighbors(1)


def test_duplicate_edge_rejected_with_line():
    with pytest.raises(GraphValidationError, match="line 4.*duplicate"):
        load_graph("p 2 2\ne 1 2\n\ne 1 2\n")


def test_self_loop_rejected():
    with pytest.raises(GraphValidationError, match="self-loop"):
        load_graph("p 3 3\ne 1 2\ne 2 2\ne 2 3\n")


def test_out_of_range_vertex_rejected():
    with pytest.raises(GraphValidationError, match="out of range"):
        load_graph("p 3 2\ne 1 2\ne 2 5\n")


def test_disconnected_rejected():
    with pytest.raises(GraphValidationError, match="disconnected"):
        load_graph("p 4 2\ne 1 2\ne 3 4\n")


def test_disconnected_check_memory_follows_the_edges():
    # A 12-byte document declaring a million vertices must not cost a
    # million of anything before it is rejected.
    tracemalloc.start()
    try:
        with pytest.raises(GraphValidationError) as exc:
            load_graph("p 1000000 0\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "graph is disconnected (1 of 1000000 vertices reachable)"
    assert peak < 1_000_000


def test_each_label_is_one_int_object():
    # the edges share one int per vertex label, not one per endpoint
    # occurrence from the parser; labels above 256 are not cached ints
    g, _ = generate("random_bandwidth", 1000, seed=3, b=4, p=0.7)
    text = dump_graph(g)
    swapped = f"p {g.n} {g.m}\n" + "".join(f"e {v} {u}\n" for u, v in g.edges)
    for doc in (text, swapped, "c line parser\n" + text):
        loaded = load_graph(doc)
        assert loaded == g
        assert len(set(map(id, chain.from_iterable(loaded.edges)))) == g.n


@pytest.mark.parametrize(
    "doc,pattern",
    [
        ("e 1 2\n", "edge line before header"),
        ("p 2\ne 1 2\n", "header must be"),
        ("p 2 1\nx 1 2\n", "unrecognized"),
        ("p 2 2\ne 1 2\n", "declares 2 edges"),
        ("", "missing 'p' header"),
        ("p x 2\n", "non-integer header fields"),
        ("p 2 1\ne 1 x\n", "non-integer edge endpoints"),
        ("p 2 1\np 2 1\ne 1 2\n", "line 2: duplicate header line"),
    ],
)
def test_format_errors(doc, pattern):
    with pytest.raises(GraphFormatError, match=pattern):
        load_graph(doc)


def test_round_trip():
    g = load_graph(C4)
    assert load_graph(dump_graph(g)).edges == g.edges


def test_generate_path():
    g, order = generate("path", 4)
    a = LinearArrangement.from_order(order)
    assert g.edges == ((1, 2), (2, 3), (3, 4))
    assert order == [1, 2, 3, 4]
    assert widths(g, a)[0] == 1


def test_generate_cycle_folded_order():
    g, order = generate("cycle", 4)
    assert order == [1, 2, 4, 3]
    assert widths(g, LinearArrangement.from_order(order))[0] == 2
    for n in (3, 5, 8, 13):
        g, order = generate("cycle", n)
        assert widths(g, LinearArrangement.from_order(order))[0] <= 2


def test_generate_complete():
    g, order = generate("complete", 4)
    assert g.m == 6
    assert widths(g, LinearArrangement.from_order(order))[0] == 3


def test_generate_grid_and_caterpillar():
    g, order = generate("grid", 6)
    assert g.n == 6 and g.m == 7  # 2 x 3 grid
    g, order = generate("caterpillar", 9)
    assert g.m == g.n - 1  # caterpillars are trees
    assert widths(g, LinearArrangement.from_order(order))[0] <= 2


@settings(max_examples=25, deadline=None)
@given(
    b=st.integers(min_value=1, max_value=5),
    n=st.integers(min_value=4, max_value=64),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_random_bandwidth_witness(b, n, seed):
    g, order = generate("random_bandwidth", n, seed=seed, b=b, p=0.6)
    a = LinearArrangement.from_order(order)
    assert widths(g, a)[0] <= b
    # determinism
    g2, order2 = generate("random_bandwidth", n, seed=seed, b=b, p=0.6)
    assert g2.edges == g.edges and order2 == order


@settings(max_examples=20, deadline=None)
@given(
    c=st.integers(min_value=1, max_value=5),
    n=st.integers(min_value=4, max_value=64),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_random_cutwidth_witness(c, n, seed):
    g, order = generate("random_cutwidth", n, seed=seed, c=c)
    a = LinearArrangement.from_order(order)
    assert widths(g, a)[1] <= max(c, 1)


@pytest.mark.parametrize(
    "family,kwargs",
    [
        ("random_bandwidth", {}),
        ("random_bandwidth", {"b": 0, "p": 0.5}),
        ("random_bandwidth", {"b": 2, "p": 0.0}),
        ("random_cutwidth", {}),
        ("nosuch", {}),
        ("random_cutwidth", {"n": 2, "c": 2}),
    ],
)
def test_generate_invalid_params(family, kwargs):
    kwargs = dict(kwargs)
    n = kwargs.pop("n", 8)
    with pytest.raises(ValueError, match=family):
        generate(family, n, **kwargs)


def test_generate_rejects_tiny_n():
    with pytest.raises(ValueError):
        generate("path", 1)


# ---------------------------------------------------------------------------
# The fast path of load_graph against the line parser with per-edge checks.
# ---------------------------------------------------------------------------

@st.composite
def _plain_documents(draw):
    """A connected graph as ``dump_graph`` writes it, with edges in random
    order and orientation: a random spanning tree plus extra edges, its
    vertices relabeled by a random permutation, so that a vertex other than 1
    may have no lesser neighbour."""
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    if n >= 2:
        extra = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] < e[1])
        pairs |= set(draw(st.lists(extra, max_size=8)))
    label = [0, *draw(st.permutations(range(1, n + 1)))]
    pairs = {tuple(sorted((label[u], label[v]))) for u, v in pairs}
    edges = draw(st.permutations(sorted(pairs)))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    lines = [f"p {n} {len(edges)}"]
    lines += [f"e {v} {u}" if flip else f"e {u} {v}" for (u, v), flip in zip(edges, flips)]
    return "\n".join(lines) + "\n"


_FIELD_VALUES = [
    "1", "2", "3", "0", "-1", "10", "99", "x", "1.5", "01", "007", "+1", "1_0", "١", "9" * 5000, "",
]


# Mutations that keep a document plain, so only the bulk checks see them.
_PLAIN_KINDS = ["loop", "relabel", "repeat-edge", "extra-edge", "drop-edge", "header-count"]
_ALL_KINDS = _PLAIN_KINDS + [
    "truncate", "duplicate", "swap", "field", "crlf", "tab", "comment", "no-final-newline",
    "blank", "p00", "digits",
]


@st.composite
def _mutated_documents(draw, kinds):
    text = draw(_plain_documents())
    for _ in range(draw(st.integers(1, 3))):
        end = "\n" if text.endswith("\n") else ""
        body = text[: len(text) - len(end)].split("\n")
        i = draw(st.integers(0, len(body) - 1))
        j = draw(st.integers(0, len(body) - 1))
        kind = draw(st.sampled_from(kinds))
        header = body[0].split(" ")
        # a header field may have become one with more digits than int() converts
        counted = len(header) == 3 and all(f.isdigit() and len(f) < 20 for f in header[1:])
        if kind == "truncate":
            text = text[: draw(st.integers(0, len(text)))]
            continue
        if kind == "duplicate":
            body.insert(j, body[i])
        elif kind == "swap":
            body[i], body[j] = body[j], body[i]
        elif kind == "field":
            parts = body[i].split(" ")
            k = draw(st.integers(min(1, len(parts) - 1), len(parts) - 1))
            parts[k] = draw(st.sampled_from(_FIELD_VALUES) | st.integers(0, 12).map(str))
            body[i] = " ".join(parts)
        elif kind == "loop":
            parts = body[i].split(" ")
            if len(parts) == 3:
                parts[2] = parts[1]
            body[i] = " ".join(parts)
        elif kind == "relabel" and counted:  # one vertex label becomes 0 or n + 1
            n = int(header[1])
            old, new = str(draw(st.integers(1, max(n, 1)))), draw(st.sampled_from(["0", str(n + 1)]))
            body[1:] = [" ".join(new if f == old else f for f in line.split(" ")) for line in body[1:]]
        elif kind == "repeat-edge":
            if body[i].startswith("e") and body[j].startswith("e"):
                body[i] = body[j]
        elif kind in ("extra-edge", "drop-edge") and counted and i > 0:
            # keep the header count right: a duplicate, a loop, or a cut edge
            if kind == "drop-edge":
                del body[i]
                m = int(header[2]) - 1
            else:
                u = body[i].split(" ")[1:2] * 2
                body.insert(max(j, 1), draw(st.sampled_from([body[i], " ".join(["e", *u])])))
                m = int(header[2]) + 1
            body[0] = f"{header[0]} {header[1]} {m}"
        elif kind == "crlf":
            body = [line + "\r" for line in body]
        elif kind == "tab":
            body[i] = body[i].replace(" ", "\t", 1)
        elif kind == "comment":
            body.insert(j, "c a comment")
        elif kind == "no-final-newline":
            end = ""
        elif kind == "blank":
            body.insert(j, draw(st.sampled_from(["", " ", "\t"])))
        elif kind == "header-count" and len(header) == 3:
            header[draw(st.integers(1, 2))] = str(draw(st.integers(0, 12)))
            body[0] = " ".join(header)
        elif kind == "p00":
            body[0] = "p 0 0"
        elif kind == "digits":  # digits anywhere in a line, the "e" token too
            k = draw(st.sampled_from([0, 1]) | st.integers(0, len(body[i])))
            body[i] = body[i][:k] + draw(st.sampled_from(["5", "51"])) + body[i][k:]
            if counted and i > 0 and draw(st.booleans()):  # m counts the number they may add
                body[0] = f"{header[0]} {header[1]} {int(header[2]) + 1}"
        text = "\n".join(body) + end
    return text


def _outcome(load, text):
    try:
        return load(text)
    except (GraphFormatError, GraphValidationError) as exc:
        return type(exc), str(exc)


def _check_same_outcome(text):
    """The public loader and the line parser with only the per-edge checks
    give equal graphs, or the same exception type and message."""
    got = _outcome(load_graph, text)
    with patch.object(graph_module, "_bulk_edges", lambda n, us, vs: None):
        reference = _outcome(graph_module._load_graph_lines, text)
    assert got == reference
    if isinstance(reference, Graph):
        assert got.incident == reference.incident


@settings(max_examples=500, deadline=None)
@given(text=st.one_of(
    _plain_documents(), _mutated_documents(_PLAIN_KINDS), _mutated_documents(_ALL_KINDS),
    _mutated_documents(["digits", "field"]),
))
def test_fast_path_matches_line_parser(text):
    _check_same_outcome(text)


@pytest.mark.parametrize("text", [
    "p 0 0\n",
    "p 1 0\n",
    "p 2 0\n",
    "p 2 1\ne 0 1\n",
    "p 2 1\ne 1 0\n",
    "p 2 1\ne 1 3\n",
    "p 2 1\ne 3 1\n",
    "p 2 1\ne 2 2\n",
    "p 3 3\ne 1 2\ne 2 3\ne 3 2\n",
    "p 3 2\ne 1 2\ne 1 2\n",
    "p 4 3\ne 1 2\ne 3 4\ne 2 1\n",
    "p 4 3\ne 1 2\ne 2 3\ne 1 3\n",
    "p 4 2\ne 1 2\ne 3 4\n",
    "p 3 2\ne 1 2\ne 2 3\ne 1 3\n",
    "p 3 2\ne 1 2\ne 2 01\n",
    "p 3 2\ne 01 2\ne 2 3\n",
    "p 2 2\ne 1 2\ne 2 2\n",
    "p 3 2\ne 1 2\ne 0 1\n",
    "p 3 2\ne 2 1\ne 0 1\n",
    "p 3 2\ne 1 2\ne 3 4\n",
    "p 3 2\ne 2 1\ne 4 3\n",
    "p 3 2\ne 1 3\ne 2 3\n",
    "p 3 3\ne 1 2\ne 2 3\ne 1 2\n",
    "p 2 1\ne5 1 2\n",
    "p 2 1\n5e 1 2\n",
    "p 3 2\ne 1 2\n5e 2 3\n",
    "p 3 2\ne 1 2\ne5 2 3\n",
    "p 2 1\ne 1 2\n5",
    "p 1 0\n5",
    "p 3 2\ne 1 \ne 2 3\n",
    "p 3 2\ne 1 2\ne  3\n",
    "p 2 1\ne 1 2 \n",
    "p 2 1\ne 1e0 2\n",
    "p 3 3\ne51 2 2\ne 3 1\n",
    "p 3 3\ne51 2 2\ne 3 7\n",
    "p 3 2\ne 3 \n1e0 2 3\n",
    "p 3 2\ne 1 \n1e0 2 3\n",
    "p 3 2\n1e 2 3\ne 1 2\n",
])
def test_fast_path_matches_line_parser_examples(text):
    _check_same_outcome(text)


def test_sorted_document_skips_the_duplicate_set_and_the_scan():
    """Edges in increasing order, each vertex but 1 with a lesser neighbour:
    the certificates decide, so no set of pairs is built and the kernel's
    Kruskal scan never runs."""
    g, _ = generate("random_bandwidth", 300, seed=5, b=3, p=0.6)
    text = dump_graph(g)
    built = []

    def spy_set(items=()):
        out = set(items)
        built.append(out)
        return out

    with patch.object(graph_module, "set", spy_set, create=True), \
            patch.object(graph_module.kernel, "kruskal_step", wraps=graph_module.kernel.kruskal_step) as scan, \
            patch.object(graph_module, "_load_graph_lines", side_effect=AssertionError):
        assert load_graph(text) == g
    assert scan.call_count == 0
    assert built and not any(isinstance(x, tuple) for s in built for x in s)


def test_fast_path_takes_plain_documents():
    """A plain valid document is decided without the line parser, and a
    document with a comment, a blank line or a tab goes through it."""
    text = "p 4 4\ne 1 2\ne 3 2\ne 3 4\ne 1 4\n"
    with patch.object(graph_module, "_load_graph_lines", side_effect=AssertionError):
        g = load_graph(text)
    assert g.edges == ((1, 2), (2, 3), (3, 4), (1, 4))
    for other in ("c x\n" + text, text.replace("\ne 3 4", "\n\ne 3 4"), text.replace("e 3 2", "e 3 2\t")):
        with patch.object(graph_module, "_load_graph_lines", wraps=graph_module._load_graph_lines) as lines:
            assert load_graph(other) == g
        assert lines.call_count == 1


def test_incident_is_lazy():
    g = load_graph(C4)
    assert "incident" not in vars(g)
    assert g.incident == ((), (1, 4), (1, 2), (2, 3), (3, 4))
    assert g.degree(1) == 2 and sorted(g.neighbors(1)) == [2, 4]
    assert g == load_graph(C4)  # not part of equality
