from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthspan import oracle
from widthspan.arrangement import LinearArrangement
from widthspan.graph import Graph, generate
from widthspan.lowstretch import stretch_of
from widthspan.oracle import (
    OracleCapExceeded,
    enumerate_min_stretch,
    enumerate_spanning_trees,
    expected_stretch_oracle,
    spanning_tree_count,
)

from corpus import make_graph

C4_EDGES = [(1, 2), (2, 3), (3, 4), (1, 4)]


def test_c4_count_and_minimum():
    g = make_graph(4, C4_EDGES)
    res = enumerate_min_stretch(g)
    assert res.spanning_tree_count == 4
    assert res.min_total_stretch == 6
    assert len(res.argmin_trees) == 4  # every C4 tree scores 6
    assert res.per_tree_totals is None


def test_k4_count_and_minimum():
    g, _ = generate("complete", 4)
    res = enumerate_min_stretch(g, histogram=True)
    assert res.spanning_tree_count == 16
    assert res.min_total_stretch == 9
    assert res.per_tree_totals is not None
    assert len(res.per_tree_totals) == 16
    assert min(res.per_tree_totals) == 9
    # the four stars are the minimizers; the twelve paths score 10
    assert sorted(res.per_tree_totals) == [9] * 4 + [10] * 12


def test_tree_input_has_unique_tree():
    g, _ = generate("caterpillar", 8)
    res = enumerate_min_stretch(g)
    assert res.spanning_tree_count == 1
    assert res.min_total_stretch == g.m
    assert res.argmin_trees == (frozenset(range(1, g.m + 1)),)


def test_matrix_tree_values():
    assert spanning_tree_count(make_graph(4, C4_EDGES)) == 4
    g, _ = generate("complete", 5)
    assert spanning_tree_count(g) == 5**3  # Cayley
    g, _ = generate("cycle", 9)
    assert spanning_tree_count(g) == 9
    # a disconnected graph: the elimination finds no nonzero pivot and
    # the count is 0 (Graph skips load_graph's connectivity check)
    assert spanning_tree_count(Graph(n=4, edges=((1, 2), (3, 4)))) == 0


def test_enumeration_matches_brute_force_subsets():
    g, _ = generate("complete", 4)
    trees = set(enumerate_spanning_trees(g))
    # ground truth: all (n-1)-subsets that are acyclic and connected
    expected = set()
    for subset in combinations(range(1, g.m + 1), g.n - 1):
        try:
            stretch_of(g, set(subset))
        except ValueError:
            continue
        expected.add(frozenset(subset))
    assert trees == expected


def test_cap_exceeded_reports_count():
    g, _ = generate("complete", 5)
    with pytest.raises(OracleCapExceeded) as exc:
        enumerate_min_stretch(g, cap=100)
    assert exc.value.count == 125
    assert exc.value.cap == 100


def test_expected_stretch_oracle_trees():
    g, order = generate("path", 4)
    exp = expected_stretch_oracle(g, LinearArrangement.from_order(order))
    assert exp == (Fraction(1),) * 3
    g, order = generate("path", 2)
    exp = expected_stretch_oracle(g, LinearArrangement.from_order(order))
    assert exp == (Fraction(1),)


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=7),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_count_matches_enumeration(n, seed):
    g, _ = generate("random_bandwidth", n, seed=seed, b=3, p=0.8)
    trees = list(enumerate_spanning_trees(g))
    assert len(trees) == spanning_tree_count(g)
    assert len(set(trees)) == len(trees)
    for tree in trees:
        assert stretch_of(g, tree).tree_edges == tree


def test_count_mismatch_raises(monkeypatch):
    # the check must survive python -O, so it cannot be an assert
    g, _ = generate("cycle", 4)
    true_count = oracle.spanning_tree_count(g)
    monkeypatch.setattr(oracle, "spanning_tree_count", lambda g: true_count + 1)
    with pytest.raises(RuntimeError, match="matrix-tree says 5"):
        enumerate_min_stretch(g)


@pytest.mark.parametrize("shift", [-1, 5])
def test_naive_shift_out_of_range_raises(shift):
    # n=3 pads to 8 positions; the distribution draws shifts 0..4
    # (shift_count), and the oracle checks that same range.  The check
    # survives python -O.
    g = make_graph(3, [(1, 2), (2, 3)])
    a = LinearArrangement.identity(3)
    assert oracle._naive_shift_tree(g, a, 4) == oracle._naive_shift_tree(g, a, 0)
    with pytest.raises(ValueError, match="out of range for n=3"):
        oracle._naive_shift_tree(g, a, shift)
