"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line on the real terminal (capture
disabled) so a full run reads as a checklist, and then asserts the same
condition so failures break the build.
"""
from fractions import Fraction

import pytest

from widthspan.arrangement import (
    LinearArrangement,
    edge_spreads,
    shift_count,
    widths,
)
from widthspan.cli import main
from widthspan.distribution import cutwidth_tree, explicit_distribution, sample_tree
from widthspan.graph import generate
from widthspan.lowstretch import (
    build_tree,
    build_tree_padded,
    charge_diagnostics,
    charges_hold,
    cubic_bound_holds,
    cycle_spans_hold,
    lemma31_check,
    stretch_of,
)
from widthspan.oracle import enumerate_min_stretch, expected_stretch_oracle
from widthspan.twdp.decomposition import min_fill_td
from widthspan.twdp.solver import dp_min_stretch

from corpus import make_graph


def _announce(capsys, label: str, ok: bool, detail: str = ""):
    suffix = f"  [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'}  {label}{suffix}")
    assert ok, label


def _bandwidth_corpus():
    """(graph, arrangement) pairs; bandwidth witnesses of several sizes."""
    out = []
    for b in (1, 2, 3):
        for n in (16, 40, 100):
            g, order = generate("random_bandwidth", n, seed=b * 1000 + n, b=b, p=0.7)
            out.append((g, LinearArrangement.from_order(order)))
    for family, n in (("path", 50), ("cycle", 50), ("caterpillar", 51), ("grid", 20)):
        g, order = generate(family, n)
        out.append((g, LinearArrangement.from_order(order)))
    return out


def test_criterion_1_cycle_basis_identity_everywhere(capsys):
    reports = []
    for family, n in (("path", 2000), ("cycle", 1500), ("caterpillar", 999),
                      ("grid", 100), ("complete", 12)):
        g, order = generate(family, n)
        a = LinearArrangement.from_order(order)
        reports.append(build_tree(g, a))
        reports.append(build_tree_padded(g, a, 0))
    for seed in range(60):
        g, order = generate("random_bandwidth", 20 + seed, seed=seed, b=1 + seed % 4, p=0.6)
        a = LinearArrangement.from_order(order)
        reports.append(build_tree(g, a))
        reports.append(sample_tree(g, a, seed)[1])
        reports.append(cutwidth_tree(g, a)[1])
    for seed in range(20):
        g, order = generate("random_cutwidth", 30 + seed, seed=seed, c=2 + seed % 3)
        a = LinearArrangement.from_order(order)
        reports.append(build_tree(g, a))
        reports.append(stretch_of(g, build_tree(g, a).tree_edges))
    ok = len(reports) >= 200 and all(
        r.fcb_weight == r.total_stretch + len(r.per_edge_stretch) - 2 * (len(r.tree_edges) + 1) + 2
        for r in reports
    )
    _announce(capsys, "criterion 1: exact cycle-basis identity on every code path",
              ok, f"{len(reports)} trees")


def test_criterion_2_cubic_bandwidth_bounds(capsys):
    ok = True
    for b in range(1, 7):
        for n in (16, 64, 256, 1024, 2048):
            g, order = generate("random_bandwidth", n, seed=b * 7 + n, b=b, p=0.8)
            a = LinearArrangement.from_order(order)
            if not cubic_bound_holds(g, build_tree(g, a), widths(g, a)[0]):
                ok = False
    _announce(capsys, "criterion 2: avg stretch <= 4b^3+2 and cycle-basis weight <= 4b^3 n", ok)


def test_criterion_3_padded_per_edge_bound(capsys):
    ok = True
    for g, a in _bandwidth_corpus():
        for shift in (0, (13 * g.n) % shift_count(g.n)):
            r = build_tree_padded(g, a, shift)
            if not all(bound for _, _, bound in lemma31_check(g, a, shift, r)):
                ok = False
    _announce(capsys, "criterion 3: stretch(e) <= 2p-1 on every padded edge", ok)


def test_criterion_4_charging_diagnostics(capsys):
    ok = True
    for g, a in _bandwidth_corpus():
        b, _ = widths(g, a)
        ok &= charges_hold(g, charge_diagnostics(g, a)) and cycle_spans_hold(g, a, build_tree(g, a), b)
    _announce(capsys, "criterion 4: long components, charges, and cycle spans in bounds", ok)


def test_criterion_5_expected_stretch_non_growing(capsys):
    ok = True
    worst = Fraction(0)
    for b in (2, 3):
        prev = None
        for n in (64, 128, 256, 512, 1024):
            g, order = generate("random_bandwidth", n, seed=5 * b + n, b=b, p=0.9)
            a = LinearArrangement.from_order(order)
            cur = explicit_distribution(g, a).max_expected_stretch
            if prev is not None:
                ratio = Fraction(cur, prev)
                worst = max(worst, ratio)
                if ratio > Fraction(12, 10):
                    ok = False
            prev = cur
    for n in (12, 24, 32):
        g, order = generate("random_bandwidth", n, seed=n, b=2, p=0.8)
        a = LinearArrangement.from_order(order)
        if explicit_distribution(g, a).per_edge_expected_stretch != expected_stretch_oracle(g, a):
            ok = False
    _announce(capsys, "criterion 5: max expected stretch stable in n; explicit equals oracle",
              ok, f"worst doubling ratio {float(worst):.3f}")


def test_criterion_6_cutwidth_constant(capsys):
    ok = True
    ratios = []
    constants = []
    for c in (2, 3, 4):
        per_n = []
        for n in (64, 128, 256, 512):
            vals = []
            for s in range(3):  # average out single-instance noise
                g, order = generate("random_cutwidth", n, seed=1000 * s + 3 * c + n, c=c)
                a = LinearArrangement.from_order(order)
                cw = max(widths(g, a)[1], 1)
                if sum(edge_spreads(g, a)) > cw * g.n:
                    ok = False
                _, rep = cutwidth_tree(g, a)
                vals.append(Fraction(rep.avg_stretch, cw**2))
            per_n.append(sum(vals) / len(vals))
        constants.append(max(per_n))
        for prev, cur in zip(per_n, per_n[1:]):  # stability per doubling of n
            ratio = max(Fraction(cur, prev), Fraction(prev, cur))
            ratios.append(ratio)
            if ratio > Fraction(12, 10):
                ok = False
    C = max(constants)
    _announce(capsys, "criterion 6: best-shift average stretch <= C*c^2 with stable C",
              ok, f"C = {float(C):.3f}, worst ratio {float(max(ratios)):.3f}")


def test_criterion_7_dp_equals_oracle(capsys, atlas_corpus):
    ok = True
    count = 0
    instances = list(atlas_corpus)
    for n in range(2, 11):
        instances.append(generate("path", n)[0])
        if n >= 3:
            instances.append(generate("cycle", n)[0])
    instances.append(generate("complete", 4)[0])
    instances.append(generate("grid", 6)[0])
    for g in instances:
        res = dp_min_stretch(g, min_fill_td(g), enforce_limits=False)
        oracle = enumerate_min_stretch(g)
        count += 1
        if res.min_total_stretch != oracle.min_total_stretch:
            ok = False
        if stretch_of(g, res.tree_edges).total_stretch != res.min_total_stretch:
            ok = False
    six = sum(1 for g in atlas_corpus if g.n == 6)
    _announce(capsys, "criterion 7: DP optimum equals exhaustive oracle with valid witnesses",
              ok and six >= 112, f"{count} instances, {six} on six vertices")


def test_criterion_8_byte_identical_reruns(capsys, tmp_path):
    graph = tmp_path / "g.gr"
    arr = tmp_path / "g.arr"
    assert main(["gen", "--family", "random_bandwidth", "--n", "48", "--seed", "11",
                 "--b", "3", "--p", "0.7", "--out", str(graph),
                 "--arrangement-out", str(arr)]) == 0
    blobs = []
    for i in range(3):
        files = []
        for cmd, name in (
            (["stats"], f"stats{i}.json"),
            (["build-tree"], f"tree{i}.json"),
            (["distribution", "--explicit"], f"dist{i}.json"),
            (["distribution", "--sample", "5", "--seed", "4"], f"sample{i}.json"),
            (["cutwidth-tree", "--best-shift"], f"cut{i}.json"),
        ):
            out = tmp_path / name
            flag = "--report" if cmd[0] == "build-tree" else "--out"
            assert main(cmd + ["--graph", str(graph), "--arrangement", str(arr),
                               flag, str(out)]) == 0
            files.append(out.read_bytes())
        blobs.append(files)
    ok = blobs[0] == blobs[1] == blobs[2]
    _announce(capsys, "criterion 8: three identical-seed runs are byte-identical", ok)
