"""The contract of the package's record classes: the fields of the immutable
ones cannot be assigned, records compared by value are equal when built from
equal fields, and ``StretchReport`` checks the cycle-basis identity when it
is built."""
import pytest

from widthspan.arrangement import LinearArrangement
from widthspan.distribution import explicit_distribution
from widthspan.graph import Graph, generate
from widthspan.lowstretch import NodeCharge, StretchReport, build_tree, charge_diagnostics
from widthspan.oracle import enumerate_min_stretch
from widthspan.twdp.decomposition import TreeDecomposition, min_fill_td


def _immutable_records():
    """(record, its field names) for every immutable record class."""
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
    ]


def test_immutable_records_refuse_assignment():
    for record, names in _immutable_records():
        for name in names:
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, before)
            assert getattr(record, name) is before, (type(record).__name__, name)


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
