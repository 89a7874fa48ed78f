import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthspan.graph import (
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
    assert g.endpoints(2) == (2, 3)


def test_load_cycle_with_comments():
    g = load_graph("c a comment\n" + C4 + "c trailing\n")
    assert g.m == 4
    assert g.has_edge(4, 1) and not g.has_edge(1, 3)


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


@pytest.mark.parametrize(
    "doc,pattern",
    [
        ("e 1 2\n", "edge line before header"),
        ("p 2\ne 1 2\n", "header must be"),
        ("p 2 1\nx 1 2\n", "unrecognized"),
        ("p 2 2\ne 1 2\n", "declares 2 edges"),
        ("", "missing 'p' header"),
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
