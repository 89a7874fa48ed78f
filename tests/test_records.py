"""The contract of the package's record classes: their fields cannot be
assigned, records are equal when built from equal fields and are not
hashable, and ``StretchReport`` checks the cycle-basis identity when it is
built."""
from fractions import Fraction

import pytest

from widthspan.arrangement import LinearArrangement
from widthspan.distribution import DistributionReport, explicit_distribution
from widthspan.graph import Graph, generate
from widthspan.lowstretch import ChargeReport, NodeCharge, StretchReport, build_tree, charge_diagnostics
from widthspan.oracle import OracleResult, enumerate_min_stretch
from widthspan.twdp.decomposition import NiceNode, TreeDecomposition, make_nice, min_fill_td
from widthspan.twdp.solver import DPResult, dp_min_stretch


def _immutable_records():
    """(record, its field names) for every record class."""
    g, order = generate("random_bandwidth", 9, seed=3, b=2, p=0.7)
    a = LinearArrangement.from_order(order)
    charges = charge_diagnostics(g, a)
    return [
        (g, ("n", "edges")),
        (a, ("position_of", "vertex_at")),
        (build_tree(g, a), ("tree_edges", "per_edge_stretch", "total_stretch", "avg_stretch", "fcb_weight")),
        (charges.nodes[-1], ("lo", "hi", "leaf_count", "long_components", "charge")),
        (charges, ("bandwidth", "nodes", "total_charge")),
        (explicit_distribution(g, a),
         ("shifts", "per_edge_expected_stretch", "per_shift_avg_stretch", "best_shift")),
        (enumerate_min_stretch(generate("grid", 4)[0]),
         ("spanning_tree_count", "min_total_stretch", "argmin_trees", "per_tree_totals")),
        (min_fill_td(g), ("bags", "edges")),
        (make_nice(min_fill_td(g), g)[-1], ("kind", "bag", "size", "inside", "children", "vertex")),
        (dp_min_stretch(g, min_fill_td(g)),
         ("min_total_stretch", "min_avg_stretch", "tree_edges", "width", "table_sizes")),
    ]


def test_immutable_records_refuse_assignment():
    for record, names in _immutable_records():
        for name in names:
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, before)
            assert getattr(record, name) is before, (type(record).__name__, name)


def test_records_are_not_hashable():
    for record, _ in _immutable_records():
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)


def test_records_from_equal_fields_are_equal():
    edges = ((1, 2), (2, 3), (1, 3))
    assert Graph(3, edges) == Graph(n=3, edges=tuple(list(edges)))
    assert Graph(3, edges) != Graph(3, edges[:2])
    assert LinearArrangement((0, 2, 1), (0, 2, 1)) == LinearArrangement.from_order([2, 1])
    assert LinearArrangement.identity(2) != LinearArrangement.from_order([2, 1])
    assert NodeCharge(1, 4, 4, 2, 3) == NodeCharge(lo=1, hi=4, leaf_count=4, long_components=2, charge=3)
    assert NodeCharge(1, 4, 4, 2, 3) != NodeCharge(1, 4, 4, 2, 0)
    bags = {1: frozenset({1, 2}), 2: frozenset({2, 3})}
    assert TreeDecomposition(bags, ((1, 2),)) == TreeDecomposition(bags=dict(bags), edges=((1, 2),))
    assert TreeDecomposition(bags, ((1, 2),)) != TreeDecomposition(bags, ((2, 1),))
    nodes = (NodeCharge(1, 2, 2, 0, 0), NodeCharge(1, 4, 4, 2, 3))
    assert ChargeReport(2, nodes, 3) == ChargeReport(bandwidth=2, nodes=tuple(list(nodes)), total_charge=3)
    assert ChargeReport(2, nodes, 3) != ChargeReport(2, nodes[1:], 3)
    expected = (Fraction(1), Fraction(3, 2))
    assert DistributionReport(4, expected, (Fraction(5, 4),), 0) == DistributionReport(
        shifts=4, per_edge_expected_stretch=expected, per_shift_avg_stretch=(Fraction(5, 4),), best_shift=0)
    assert DistributionReport(4, expected, (Fraction(5, 4),), 0) != DistributionReport(4, expected, (Fraction(5, 4),), 1)
    trees = (frozenset({1, 2}), frozenset({2, 3}))
    assert OracleResult(3, 4, trees) == OracleResult(
        spanning_tree_count=3, min_total_stretch=4, argmin_trees=trees, per_tree_totals=None)
    assert OracleResult(3, 4, trees) != OracleResult(3, 4, trees, (4, 4, 5))
    bag = frozenset({1, 2})
    assert NiceNode("introduce", bag, 2, 1, (0,), 2) == NiceNode(
        kind="introduce", bag=frozenset([2, 1]), size=2, inside=1, children=(0,), vertex=2)
    assert NiceNode("introduce", bag, 2, 1, (0,), 2) != NiceNode("introduce", bag, 2, 1, (0,), 1)
    assert NiceNode("leaf", frozenset({1}), 1, 0) == NiceNode("leaf", frozenset({1}), 1, 0, (), None)
    sizes = (1, 2, 1)
    assert DPResult(4, Fraction(4, 3), bag, 1, sizes) == DPResult(
        min_total_stretch=4, min_avg_stretch=Fraction(4, 3), tree_edges=bag, width=1,
        table_sizes=tuple(list(sizes)))
    assert DPResult(4, Fraction(4, 3), bag, 1, sizes) != DPResult(4, Fraction(4, 3), bag, 1, sizes[:2])
    assert NodeCharge(1, 4, 4, 2, 3) != ChargeReport(1, (), 3)


def test_stretch_report_checks_the_cycle_basis_when_built():
    g, order = generate("grid", 9)
    r = build_tree(g, LinearArrangement.from_order(order))
    fields = dict(
        tree_edges=r.tree_edges,
        per_edge_stretch=r.per_edge_stretch,
        total_stretch=r.total_stretch,
        avg_stretch=r.avg_stretch,
        fcb_weight=r.fcb_weight,
    )
    assert StretchReport(**fields) == r
    with pytest.raises(ValueError, match="cycle-basis identity"):
        StretchReport(**dict(fields, fcb_weight=r.fcb_weight + 1))
