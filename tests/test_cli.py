import contextlib
import gc
import io
import json
import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthspan import cli
from widthspan.cli import _dumps, main
from widthspan.arrangement import LinearArrangement, dump_arrangement, load_arrangement, shift_count
from widthspan.graph import dump_graph, generate, load_graph
from widthspan.lowstretch import build_tree_padded
from widthspan.oracle import OracleCapExceeded
from widthspan.twdp import decomposition
from widthspan.twdp.decomposition import min_fill_td

from corpus import GRID_4X3_EDGES, GRID_4X3_TD, dump_td, make_graph
from test_graph import _ALL_KINDS, _mutated_documents

C4 = "p 4 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n"
C4_ORDER = "1\n2\n4\n3\n"
K4_TD = "s td 1 4 4\nb 1 1 2 3 4\n"


@pytest.fixture
def c4_files(tmp_path):
    graph = tmp_path / "c4.gr"
    graph.write_text(C4)
    arr = tmp_path / "c4.arr"
    arr.write_text(C4_ORDER)
    return str(graph), str(arr)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_gen_then_build_tree(tmp_path, capsys):
    graph = tmp_path / "g.gr"
    arr = tmp_path / "g.arr"
    rc = main([
        "gen", "--family", "cycle", "--n", "4", "--seed", "0",
        "--out", str(graph), "--arrangement-out", str(arr),
    ])
    assert rc == 0
    assert graph.read_text() == C4
    assert arr.read_text().split() == ["1", "2", "4", "3"]
    rc = main(["build-tree", "--graph", str(graph), "--arrangement", str(arr)])
    assert rc == 0
    report = _json_out(capsys)
    assert report["tree_edges"] == [1, 2, 3]
    assert report["avg_stretch"] == "3/2"
    assert report["total_stretch"] == 6
    assert report["fcb_weight"] == 4


def test_stats(c4_files, capsys):
    graph, arr = c4_files
    assert main(["stats", "--graph", graph, "--arrangement", arr]) == 0
    report = _json_out(capsys)
    assert report == {
        "n": 4,
        "m": 4,
        "bandwidth": 2,
        "cutwidth": 2,
        "sum_spread": 6,
        "max_split_set": 2,
    }


def test_build_tree_padded_shift(c4_files, capsys):
    graph, arr = c4_files
    assert main(["build-tree", "--graph", graph, "--arrangement", arr,
                 "--padded", "--shift", "1"]) == 0
    report = _json_out(capsys)
    assert sorted(report["tree_edges"]) == [1, 3, 4]


@pytest.mark.parametrize("shift", ["0", "3", "-1"])
def test_build_tree_shift_needs_padded(c4_files, capsys, shift):
    graph, arr = c4_files
    assert main(["build-tree", "--graph", graph, "--arrangement", arr, "--shift", shift]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --shift needs --padded\n"


def test_build_tree_padded_shift_defaults_to_zero(c4_files, capsys):
    graph, arr = c4_files
    assert main(["build-tree", "--graph", graph, "--arrangement", arr, "--padded"]) == 0
    default = capsys.readouterr().out
    assert main(["build-tree", "--graph", graph, "--arrangement", arr,
                 "--padded", "--shift", "0"]) == 0
    assert capsys.readouterr().out == default


def test_distribution_explicit_json_and_csv(c4_files, tmp_path, capsys):
    graph, arr = c4_files
    csv_path = tmp_path / "dist.csv"
    assert main(["distribution", "--graph", graph, "--arrangement", arr,
                 "--explicit", "--csv", str(csv_path)]) == 0
    report = _json_out(capsys)
    assert report["shifts"] == 4
    assert report["per_edge_expected_stretch"] == [1, "3/2", 1, "5/2"]
    assert report["best_shift"] == 0
    assert report["max_expected_stretch"] == "5/2"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "edge_id,u,v,spread,expected_stretch"
    assert lines[2] == "2,2,3,2,3/2"
    assert lines[4] == "4,1,4,2,5/2"


def test_distribution_sample_mode(c4_files, capsys):
    graph, arr = c4_files
    args = ["distribution", "--graph", graph, "--arrangement", arr,
            "--sample", "3", "--seed", "7"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    report = json.loads(first)
    assert len(report["samples"]) == 3
    assert all(len(s["tree_edges"]) == 3 for s in report["samples"])


def test_explicit_report_equals_the_per_shift_trees(c4_files, tmp_path):
    # a shuffled grid-40: 88 shifts whose totals differ, so a shift-order
    # mix-up in the all-shifts walk changes the output; the report must be
    # what building every shift's tree on its own gives.
    grid, grid_arr = tmp_path / "g40.gr", tmp_path / "g40.arr"
    assert main(["gen", "--family", "grid", "--n", "40", "--out", str(grid)]) == 0
    order = list(range(1, 41))
    random.Random(3).shuffle(order)
    grid_arr.write_text("".join(f"{v}\n" for v in order))
    for graph, arr in (c4_files, (str(grid), str(grid_arr))):
        out = tmp_path / "dist.json"
        assert main(["distribution", "--explicit", "--graph", graph,
                     "--arrangement", arr, "--out", str(out)]) == 0
        g = load_graph(Path(graph).read_text())
        a = load_arrangement(Path(arr).read_text(), g.n)
        reports = [build_tree_padded(g, a, s) for s in range(shift_count(g.n))]
        per_edge = [Fraction(sum(col), len(reports))
                    for col in zip(*(r.per_edge_stretch for r in reports))]
        totals = [r.total_stretch for r in reports]
        assert json.loads(out.read_text()) == _jsonable({
            "mode": "explicit",
            "shifts": len(reports),
            "per_edge_expected_stretch": per_edge,
            "per_shift_avg_stretch": [r.avg_stretch for r in reports],
            "best_shift": totals.index(min(totals)),
            "max_expected_stretch": max(per_edge),
        })


@pytest.mark.parametrize(
    "args", [["stats"], ["build-tree"], ["oracle"], ["cutwidth-tree", "--best-shift"],
             ["distribution", "--explicit"]]
)
def test_no_subcommand_takes_jobs(c4_files, capsys, args):
    # no subcommand takes --jobs any more, distribution included: argparse
    # rejects it with exit 2.
    with pytest.raises(SystemExit) as exc:
        main([*args, "--graph", c4_files[0], "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_cutwidth_tree_best_shift(c4_files, capsys):
    graph, arr = c4_files
    assert main(["cutwidth-tree", "--graph", graph, "--arrangement", arr,
                 "--best-shift"]) == 0
    report = _json_out(capsys)
    assert report["avg_stretch"] == "3/2"
    assert report["cutwidth"] == 2
    assert report["shift"] == 0


@pytest.fixture
def k4_files(tmp_path):
    graph = tmp_path / "k4.gr"
    graph.write_text("p 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n")
    td = tmp_path / "k4.td"
    td.write_text(K4_TD)
    return ["dp-min-stretch", "--graph", str(graph), "--td", str(td), "--check-oracle"]


def test_dp_min_stretch_with_oracle(k4_files, capsys):
    # the check line goes to stderr, so stdout is exactly the JSON report
    assert main(k4_files) == 0
    out, err = capsys.readouterr()
    assert err == "9 = 9\n"
    report = json.loads(out)
    assert report["total_stretch"] == 9
    assert report["avg_stretch"] == "3/2"
    assert report["width"] == 3


def _over_cap(g):
    raise OracleCapExceeded(16, 10)


@pytest.mark.parametrize("oracle, message", [
    (_over_cap, "16 spanning trees exceeds enumeration cap 10"),
    (lambda g: SimpleNamespace(min_total_stretch=8), "DP optimum 9 disagrees with oracle 8"),
])
def test_dp_min_stretch_oracle_failure_is_cli_error(k4_files, capsys, monkeypatch, oracle, message):
    monkeypatch.setattr(cli, "enumerate_min_stretch", oracle)
    assert main(k4_files) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_dp_min_stretch_limit_is_cli_error(tmp_path, capsys):
    n = 30
    edges = "".join(f"e {i} {i + 1}\n" for i in range(1, n))
    graph = tmp_path / "p30.gr"
    graph.write_text(f"p {n} {n - 1}\n" + edges)
    bags = "".join(f"b {i} {i} {i + 1}\n" for i in range(1, n))
    links = "".join(f"{i} {i + 1}\n" for i in range(1, n - 1))
    td = tmp_path / "p30.td"
    td.write_text(f"s td {n - 1} 2 {n}\n" + bags + links)
    assert main(["dp-min-stretch", "--graph", str(graph), "--td", str(td)]) == 1
    err = capsys.readouterr().err
    assert "limit" in err
    # the error names the option that lifts the limits, not a library keyword
    assert "--allow-large lifts the limits" in err
    assert "enforce_limits" not in err
    assert main(["dp-min-stretch", "--graph", str(graph), "--td", str(td),
                 "--allow-large"]) == 0


def test_invalid_td_is_reported_before_the_limits(tmp_path, capsys):
    # the 30-path is over MAX_N, but a decomposition whose bag 15 lost vertex
    # 16 is refused first, as a td error
    n = 30
    edges = "".join(f"e {i} {i + 1}\n" for i in range(1, n))
    graph = tmp_path / "p30.gr"
    graph.write_text(f"p {n} {n - 1}\n" + edges)
    bags = "".join(f"b {i} {i}\n" if i == 15 else f"b {i} {i} {i + 1}\n" for i in range(1, n))
    links = "".join(f"{i} {i + 1}\n" for i in range(1, n - 1))
    td = tmp_path / "p30.td"
    td.write_text(f"s td {n - 1} 2 {n}\n" + bags + links)
    assert main(["dp-min-stretch", "--graph", str(graph), "--td", str(td)]) == 1
    assert capsys.readouterr().err == f"error: {td}: edge (15, 16) is covered by no bag\n"


def test_dp_min_stretch_checks_the_decomposition_once(tmp_path, capsys, monkeypatch):
    calls = []
    rooted = decomposition._rooted

    def counted(td, g):
        calls.append(td)
        return rooted(td, g)

    monkeypatch.setattr(decomposition, "_rooted", counted)
    graph = tmp_path / "k4.gr"
    graph.write_text("p 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n")
    td = tmp_path / "k4.td"
    td.write_text(K4_TD)
    assert main(["dp-min-stretch", "--graph", str(graph), "--td", str(td)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("td_text, message", [
    ("s td x 2 4\nb 1 1 2 3 4\n", "line 1: non-integer 's td' fields"),
    ("s td 1 4 4\nb x 1 2 3 4\n", "line 2: non-integer bag id or vertex"),
    ("s td 1 4 4\nb\n", "line 2: bag line must be"),
    ("s td 1 2 9\nb 1 1 2 3 4\n", "line 1: 's td' gives width+1 = 2, the largest bag has 4"),
    ("s td 1 4 9\nb 1 1 2 3 4\n", "line 1: 's td' gives n = 9, the graph has 4"),
    ("s td 2 4 4\nb 1 1 2 3 4\nb 3 1\n1 3\n", "line 3: bag id 3 is outside 1..2"),
    ("s td 2 4 4\nb 1 1 2 3 4\nb 2 1\n1 3\n", "line 4: bag id 3 is outside 1..2"),
    ("s td 2 4 4\nb 1 1 2 3 4\nb 2 1\n1 2 7\n", "line 4: malformed tree edge, expected '<bag> <bag>'"),
    ("s td 2 4 4\nb 1 1 2 3 4\nb 2 1\n1\n", "line 4: malformed tree edge"),
    ("1 2\ns td 2 4 4\nb 1 1 2 3 4\nb 2 1\n", "line 1: tree edge before solution line"),
    ("s td 1 4 4\nb 1 1 2 3 5\n", "line 2: bag vertex 5 is outside 1..4"),
    ("s td 1 4 4\nb 1 0 1 2 3\n", "line 2: bag vertex 0 is outside 1..4"),
    # refused before a bag is made for each declared id
    ("s td 10000000000000000000 4 4\nb 1 1 2 3 4\n",
     "line 1: 's td' gives 10000000000000000000 bags, which 0 tree edges cannot join"),
    # found by validation, after the file parsed
    ("s td 2 3 4\nb 1 1 2 3\nb 2 1 2 3\n1 2\n", "vertex 4 is in no bag"),
])
def test_malformed_td_is_cli_error(tmp_path, capsys, td_text, message):
    graph = tmp_path / "k4.gr"
    graph.write_text("p 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n")
    td = tmp_path / "bad.td"
    td.write_text(td_text)
    assert main(["dp-min-stretch", "--graph", str(graph), "--td", str(td)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {td}: ") and message in err
    assert "Traceback" not in err


K4 = "p 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n"
# (graph, valid .td) pairs the fuzz below mutates the decomposition of
_TD_DOCUMENTS = [(K4, K4_TD)] + [
    (dump_graph(g), dump_td(min_fill_td(g), g.n))
    for g, _ in (generate("cycle", 6), generate("grid", 6), generate("caterpillar", 7))
]
_TD_FIELDS = ["0", "-1", "x", "1.5", "", "+2", "10000000000000000000"]


@st.composite
def _mutated_td(draw):
    """A valid .td file after 1 to 3 edits: a truncation, a duplicated or
    swapped line, a field set out of range or to a non-integer, or a changed
    's td' header."""
    graph, text = draw(st.sampled_from(_TD_DOCUMENTS))
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["truncate", "duplicate", "swap", "field", "header"]))
        if kind == "truncate":
            text = "\n".join(lines)
            lines = text[: draw(st.integers(0, len(text)))].splitlines()
        elif kind == "duplicate":
            lines.insert(j, lines[i])
        elif kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "field":
            parts = lines[i].split(" ")
            k = draw(st.integers(0, len(parts) - 1))
            parts[k] = draw(st.sampled_from(_TD_FIELDS) | st.integers(-1, 12).map(str))
            lines[i] = " ".join(parts)
        else:
            i = next((i for i, line in enumerate(lines) if line.startswith("s ")), 0)
            parts = lines[i].split(" ")
            k = draw(st.integers(1, max(1, len(parts) - 1)))
            parts[k:k + 1] = [draw(st.sampled_from(["tw", "td", "TD"] + _TD_FIELDS))]
            lines[i] = " ".join(parts)
    return graph, "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz_td")


def _exits_zero_or_one_with_an_error_line(argv: list[str]) -> dict | None:
    """Run the CLI in-process: exit 0 with a JSON report, which is returned,
    or exit 1 with a single 'error: ' line.  Any exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        return json.loads(out.getvalue())
    assert code == 1
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=_mutated_td())
def test_mutated_td_exits_zero_or_one_with_an_error_line(fuzz_dir, doc):
    graph_text, td_text = doc
    graph = fuzz_dir / "g.gr"
    graph.write_text(graph_text)
    td = fuzz_dir / "mutated.td"
    td.write_text(td_text)
    report = _exits_zero_or_one_with_an_error_line(["dp-min-stretch", "--graph", str(graph), "--td", str(td)])
    if report is not None:
        assert report["width"] >= 0


# (graph, valid .arr) pairs the fuzz below mutates the arrangement of
_ARR_DOCUMENTS = [(C4, C4_ORDER)] + [
    (dump_graph(g), dump_arrangement(LinearArrangement.from_order(order)))
    for g, order in (generate("cycle", 6), generate("grid", 6), generate("caterpillar", 7))
]
_ARR_FIELDS = ["0", "-1", "8", "x", "1.5", "", " ", "+2", "2 3", "10000000000000000000"]


@st.composite
def _mutated_arr(draw):
    """A valid .arr file after 1 to 3 edits: a truncation, a duplicated or
    swapped line, or a line set out of range, to a non-integer or empty."""
    graph, text = draw(st.sampled_from(_ARR_DOCUMENTS))
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["truncate", "duplicate", "swap", "field"]))
        if kind == "truncate":
            text = "\n".join(lines)
            lines = text[: draw(st.integers(0, len(text)))].splitlines()
        elif kind == "duplicate":
            lines.insert(j, lines[i])
        elif kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[i] = draw(st.sampled_from(_ARR_FIELDS) | st.integers(-1, 9).map(str))
    return graph, "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=_mutated_arr())
def test_mutated_arr_exits_zero_or_one_with_an_error_line(fuzz_dir, doc):
    graph_text, arr_text = doc
    graph = fuzz_dir / "g.gr"
    graph.write_text(graph_text)
    arr = fuzz_dir / "mutated.arr"
    arr.write_text(arr_text)
    inputs = ["--graph", str(graph), "--arrangement", str(arr)]
    for argv in (["stats"], ["build-tree"], ["distribution", "--explicit"], ["cutwidth-tree", "--best-shift"]):
        _exits_zero_or_one_with_an_error_line(argv + inputs)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(text=_mutated_documents(_ALL_KINDS))
def test_mutated_gr_exits_zero_or_one_with_an_error_line(fuzz_dir, text):
    """A mutated .gr file (graphs on up to 9 vertices, edits from the graph
    loader's fuzz) through every subcommand that reads one.  The
    decomposition is a min-fill one of the graph when the graph loads, so
    ``dp-min-stretch`` also gets past its input; the oracle's cap keeps each
    enumeration small."""
    graph = fuzz_dir / "mutated.gr"
    graph.write_text(text)
    td = fuzz_dir / "g.td"
    try:
        g = load_graph(text)
    except ValueError:
        td.write_text(K4_TD)
    else:
        td.write_text(dump_td(min_fill_td(g), g.n))
    inputs = ["--graph", str(graph)]
    for argv in (["stats"], ["build-tree"], ["distribution", "--explicit"],
                 ["cutwidth-tree", "--best-shift"], ["dp-min-stretch", "--td", str(td)],
                 ["oracle", "--cap", "300"]):
        _exits_zero_or_one_with_an_error_line(argv + inputs)


def test_oracle_command(c4_files, capsys):
    graph, _ = c4_files
    assert main(["oracle", "--graph", graph, "--histogram"]) == 0
    report = _json_out(capsys)
    assert report["spanning_tree_count"] == 4
    assert report["min_total_stretch"] == 6
    assert report["per_tree_totals"] == [6, 6, 6, 6]
    assert len(report["argmin_trees"]) == 4


def test_verify_suite_dp(capsys):
    assert main(["verify", "--suite", "dp"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == 2


def _costlier_tree(cutwidth_tree):
    def patched(g, a):
        shift, report = cutwidth_tree(g, a)
        return shift, SimpleNamespace(total_stretch=report.total_stretch + 1)
    return patched


def _other_optimum(enumerate_min_stretch):
    return lambda g: SimpleNamespace(min_total_stretch=enumerate_min_stretch(g).min_total_stretch + 1)


# per suite: the cli dependency to replace, a wrapper making the replacement
# from the real one, and the check that must then fail
@pytest.mark.parametrize("suite, target, wrap, label", [
    pytest.param("bandwidth", "lemma31_check", lambda real: lambda g, a, shift, report: [(1, 1, False)],
                 "per-edge stretch <= 2p-1 (padded)", id="bandwidth"),
    *(pytest.param("bandwidth", target, lambda real: lambda *args: False, label, id=f"bandwidth-{target}")
      for target, label in (
          ("split_sets_hold", "split sets partition edges, |S_v| <= b(b+1)/2"),
          ("cubic_bound_holds", "avg stretch <= 4b^3+2 and FCB <= 4b^3 n"),
          ("charges_hold", "long components <= b and total charge <= bn"),
          ("cycle_spans_hold", "fundamental cycles: 2s/b <= |C| <= s+1"),
      )),
    pytest.param("cutwidth", "cutwidth_tree", _costlier_tree,
                 "best-shift tree minimizes over all shifts", id="cutwidth"),
    pytest.param("distribution", "expected_stretch_oracle", lambda real: lambda g, a: (Fraction(0),) * g.m,
                 "explicit distribution equals the naive oracle", id="distribution"),
    pytest.param("dp", "enumerate_min_stretch", _other_optimum,
                 "DP optimum equals exhaustive oracle", id="dp"),
])
def test_verify_reports_a_failing_check(capsys, monkeypatch, suite, target, wrap, label):
    monkeypatch.setattr(cli, target, wrap(getattr(cli, target)))
    assert main(["verify", "--suite", suite]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert f"FAIL  [{suite}] {label}" in lines
    assert sum(line.startswith("FAIL ") for line in lines) == 1
    assert lines[-1] == "FAILED: 1 failing check(s)"


@pytest.mark.parametrize("argv, message", [
    (["gen", "--family", "grid", "--n", "1"], "n must be >= 2"),
    (["gen", "--family", "random_bandwidth", "--n", "5", "--b", "2"], "random_bandwidth requires 0 < p <= 1"),
    (["oracle", "--cap", "1", "--graph", "C4"], "4 spanning trees exceeds enumeration cap 1"),
    (["gen", "--family", "cycle", "--n", "2"], "cycle needs n >= 3"),
    (["oracle", "--cap", "-1", "--graph", "C4"], "--cap must be at least 0, got -1"),
])
def test_bad_option_values_exit_one_with_one_error_line(c4_files, capsys, argv, message):
    argv = [c4_files[0] if arg == "C4" else arg for arg in argv]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_bad_graph_file_exits_one(tmp_path, capsys):
    graph = tmp_path / "bad.gr"
    graph.write_text("p 2 1\ne 1 5\n")
    assert main(["stats", "--graph", str(graph)]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["stats", "--graph", str(tmp_path / "missing.gr")]) == 1


@pytest.mark.parametrize("suffix", ["gr", "arr", "td"])
def test_input_that_is_not_utf8_is_cli_error(tmp_path, suffix):
    # run as a subprocess, so stderr is what a user sees, traceback included
    graph = tmp_path / "k4.gr"
    graph.write_text("p 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n")
    bad = tmp_path / f"bad.{suffix}"
    bad.write_bytes(b"\xff\xfe")
    argv = {
        "gr": ["stats", "--graph", str(bad)],
        "arr": ["stats", "--graph", str(graph), "--arrangement", str(bad)],
        "td": ["dp-min-stretch", "--graph", str(graph), "--td", str(bad)],
    }[suffix]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-m", "widthspan.cli", *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith(f"error: cannot read {bad}: ")
    assert "can't decode byte 0xff in position 0" in proc.stderr


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["stats", "build-tree", "verify"])
def test_closed_stdout_is_one_error_line(tmp_path, command, unbuffered):
    # stdout is a pipe whose reader is gone before the command starts, the
    # full device where there is one, or a closed descriptor (sys.stdout is
    # None); buffered, the small stats report fails only in the flush, the
    # 24 kB build-tree report in its write; each way ends in one error line
    # and exit 1
    g, _ = generate("grid", 1000)
    graph = tmp_path / "grid.gr"
    graph.write_text(dump_graph(g))
    argv = {
        "stats": ["stats", "--graph", str(graph)],
        "build-tree": ["build-tree", "--graph", str(graph)],
        "verify": ["verify", "--suite", "bandwidth", "--seed", "0"],
    }[command]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    sinks = ["pipe", "closed"] + (["full"] if os.path.exists("/dev/full") else [])
    for sink in sinks:
        read_end, write_end = os.pipe()
        os.close(read_end)
        full = open("/dev/full", "w") if sink == "full" else None
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "widthspan.cli", *argv], env=env,
                stdout={"pipe": write_end, "closed": None, "full": full}[sink],
                preexec_fn=(lambda: os.close(1)) if sink == "closed" else None,
                stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write_end)
            if full is not None:
                full.close()
        assert proc.returncode == 1, sink
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr, sink
        assert proc.stderr.count("\n") == 1, sink
        assert proc.stderr.startswith("error: cannot write stdout: "), sink


def test_closed_stdout_is_no_error_when_every_output_is_a_file(tmp_path):
    graph = tmp_path / "k4.gr"
    graph.write_text("p 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n")
    out = tmp_path / "stats.json"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-m", "widthspan.cli", "stats", "--graph", str(graph),
                           "--out", str(out)], env=env, preexec_fn=lambda: os.close(1),
                          stderr=subprocess.PIPE, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(out.read_text())["m"] == 6


def test_bad_usage_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["distribution", "--graph", "x"])  # neither --explicit nor --sample
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["nosuchcommand"])


def test_manifest_records_digests(c4_files, tmp_path):
    graph, arr = c4_files
    out = tmp_path / "stats.json"
    assert main(["stats", "--graph", graph, "--arrangement", arr,
                 "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "stats.json.manifest.json").read_text())
    assert manifest["command"][0] == "widthspan"
    digest = hashlib.sha256(out.read_text().encode()).hexdigest()
    assert manifest["outputs"][str(out)] == digest
    assert manifest["inputs"][graph] == hashlib.sha256(C4.encode()).hexdigest()
    assert "wall_clock_s" in manifest


@pytest.mark.parametrize("text", [
    "",
    "ñ ü 漢字 🙂\n",
    "x" * (cli._BUILTIN_SHA256_LIMIT - 1),
    "x" * cli._BUILTIN_SHA256_LIMIT,
    "x" * (cli._BUILTIN_SHA256_LIMIT + 1),
])
def test_sha256_equals_hashlib(text):
    assert cli._sha256(text) == hashlib.sha256(text.encode()).hexdigest()


def test_the_builtin_sha256_limit_counts_utf8_bytes(monkeypatch):
    builtin = []
    monkeypatch.setattr(cli, "_builtin_sha256", lambda data: builtin.append(len(data)) or hashlib.sha256(data))
    half = cli._BUILTIN_SHA256_LIMIT // 2
    for text in ("é" * (half - 1) + "x", "é" * half, "x" * (cli._BUILTIN_SHA256_LIMIT - 1)):
        assert cli._sha256(text) == hashlib.sha256(text.encode()).hexdigest()
    assert builtin == [cli._BUILTIN_SHA256_LIMIT - 1, cli._BUILTIN_SHA256_LIMIT - 1]


def test_stdout_runs_hash_nothing(c4_files, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_sha256", lambda text: calls.append(text) or "")
    graph, arr = c4_files
    assert main(["build-tree", "--graph", graph, "--arrangement", arr]) == 0
    assert _json_out(capsys)["avg_stretch"] == "3/2"
    assert calls == []


@pytest.mark.parametrize("command, inputs, output", [
    (["stats"], ["--graph", "--arrangement"], "--out"),
    (["build-tree"], ["--graph", "--arrangement"], "--report"),
    (["distribution", "--explicit"], ["--graph", "--arrangement"], "--csv"),
    (["dp-min-stretch"], ["--graph", "--td"], "--out"),
])
def test_every_file_output_records_the_input_digests(c4_files, tmp_path, capsys, command, inputs, output):
    td = tmp_path / "c4.td"
    td.write_text("s td 2 3 4\nb 1 1 2 3\nb 2 1 3 4\n1 2\n")
    files = {"--graph": c4_files[0], "--arrangement": c4_files[1], "--td": str(td)}
    out = tmp_path / "out"
    argv = command + [arg for option in inputs for arg in (option, files[option])] + [output, str(out)]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["inputs"] == {
        files[option]: hashlib.sha256(Path(files[option]).read_bytes()).hexdigest() for option in inputs
    }
    assert manifest["outputs"] == {str(out): hashlib.sha256(out.read_bytes()).hexdigest()}


def test_repeated_runs_byte_identical(c4_files, tmp_path):
    graph, arr = c4_files
    outs = []
    for name in ("a.json", "b.json", "c.json"):
        out = tmp_path / name
        assert main(["distribution", "--graph", graph, "--arrangement", arr,
                     "--explicit", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


@pytest.fixture
def single_vertex(tmp_path):
    graph = tmp_path / "k1.gr"
    graph.write_text("p 1 0\n")
    return str(graph)


@pytest.mark.parametrize("args, key", [
    (["build-tree"], "avg_stretch"),
    (["distribution", "--explicit"], "max_expected_stretch"),
    (["cutwidth-tree", "--best-shift"], "avg_stretch"),
])
def test_edgeless_graph_reports_zero(single_vertex, capsys, args, key):
    assert main([*args, "--graph", single_vertex]) == 0
    report = _json_out(capsys)
    assert report[key] == 0


def test_padded_shift_out_of_range_is_cli_error(tmp_path, capsys):
    graph = tmp_path / "p3.gr"
    graph.write_text("p 3 2\ne 1 2\ne 2 3\n")
    assert main(["build-tree", "--graph", str(graph), "--padded", "--shift", "99"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "shift 99" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["gen", "--family", "cycle", "--n", "4", "--out", "{missing}/g.gr"],
    ["stats", "--graph", "{graph}", "--out", "{missing}/x.json"],
    ["distribution", "--graph", "{graph}", "--explicit", "--csv", "{missing}/c.csv"],
])
def test_unwritable_output_is_cli_error(c4_files, tmp_path, capsys, command):
    missing = tmp_path / "no-such-dir"
    argv = [arg.format(graph=c4_files[0], missing=missing) for arg in command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {missing}/")
    assert "Traceback" not in err


@pytest.mark.parametrize("args, message", [
    (["--sample", "-2"], "--sample must be at least 0, got -2"),
    (["--sample", "3", "--csv", "out.csv"], "--csv needs --explicit"),
])
def test_bad_sample_or_csv_is_cli_error(c4_files, capsys, args, message):
    assert main(["distribution", "--graph", c4_files[0], *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_zero_samples_is_an_empty_report(c4_files, capsys):
    assert main(["distribution", "--graph", c4_files[0], "--sample", "0"]) == 0
    assert _json_out(capsys) == {"mode": "sample", "samples": []}


def _jsonable(value):
    """The recursive pre-pass ``_dumps`` replaced; kept as the reference."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


@pytest.mark.parametrize("report", [
    {"avg_stretch": Fraction(3, 2), "total_stretch": 6, "fcb_weight": Fraction(4)},
    {"tree_edges": [1, 7, 33, 64], "per_edge_stretch": (1, 1, 3, 1, 2)},
    {"per_edge_expected_stretch": [Fraction(1), Fraction(3, 2), Fraction(-5, 2)],
     "best_shift": 0, "mode": "explicit", "max_expected_stretch": Fraction(5, 2)},
    {"mode": "sample", "samples": [
        {"seed": 7, "shift": 2, "tree_edges": sorted({4, 2, 1}),
         "total_stretch": 6, "avg_stretch": Fraction(3, 2)},
        {"seed": 8, "shift": 0, "tree_edges": [1, 2, 3],
         "total_stretch": 4, "avg_stretch": Fraction(1)},
    ]},
    {"argmin_trees": [sorted(t) for t in (frozenset({1, 2}), frozenset({2, 3}))],
     "empty": [], "nested": {"b": [3, 12], "a": (Fraction(0), Fraction(7, 3))}},
    {"per_edge_stretch": [i * 7919 % 1013 for i in range(1000)], "total_stretch": 1},
    {"signed": [-3, 0, -(2**70)], "huge": [2**64, 2**64 + 1, 10**30]},
    {"flags": [True, 1], "mixed": [1, Fraction(1, 2)]},
    {"empty": []},
    {"outer": {"inner": [1, 2, 3]}, "rows": [[1, 2], [3]]},
    [3, 1, {"b": [2], "a": []}],
    {},
    {"per_edge_expected_stretch": [Fraction(i * 7919 % 1013 - 500, i % 7 + 1) for i in range(1000)]
     + [Fraction(2**70 + 1, 3), Fraction(-(2**65), 1), Fraction(10**30 + 7, 2**64 + 1)],
     "shifts": 512},
    {"integral": [Fraction(4), Fraction(-2, 1), Fraction(0), Fraction(2**80, 2)]},
    {"per_shift_avg_stretch": (Fraction(3, 2), Fraction(1), Fraction(-7, 4))},
    {"flags": [True, Fraction(1, 2)]},
    {"outer": {"inner": [Fraction(1, 3), Fraction(2)]}},
    {"empty": ()},
])
def test_dumps_matches_recursive_prepass(report):
    expected = json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
    assert _dumps(report) == expected


@pytest.mark.parametrize("td_text", [
    "s td 3 3 3\nb 1 1 2 3\nb 2\nb 3\n1 2\n1 3\n",
    "s td 2 3 3\nb 1\nb 2 1 2 3\n1 2\n",
])
def test_dp_min_stretch_with_empty_bags(tmp_path, capsys, td_text):
    graph = tmp_path / "p3.gr"
    graph.write_text("p 3 2\ne 1 2\ne 2 3\n")
    td = tmp_path / "p3.td"
    td.write_text(td_text)
    assert main(["dp-min-stretch", "--graph", str(graph), "--td", str(td),
                 "--check-oracle"]) == 0
    out, err = capsys.readouterr()
    assert err == "2 = 2\n"
    assert json.loads(out)["total_stretch"] == 2


# ---------------------------------------------------------------------------
# main runs each command with the cyclic collector off.  That is safe only
# while a command leaves (almost) no reference cycles behind: argparse leaves
# a few hundred objects, and nothing that grows with the input may add more.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def gc_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("gc")
    paths = {}

    def write(name, text):
        paths[name] = str(root / name)
        (root / name).write_text(text)

    for name, n in (("small", 32), ("large", 2000)):
        g, order = generate("random_bandwidth", n, seed=1, b=3, p=0.5)
        write(f"{name}.gr", dump_graph(g))
        write(f"{name}.arr", "".join(f"{v}\n" for v in order))
    cycle, _ = generate("cycle", 8)
    write("cycle.gr", dump_graph(cycle))
    write("cycle.td", dump_td(min_fill_td(cycle), 8))
    write("grid.gr", dump_graph(make_graph(12, GRID_4X3_EDGES)))
    write("grid.td", GRID_4X3_TD)
    return paths


def _gc_argv(paths, command, size="small"):
    arrangement = ["--graph", paths[f"{size}.gr"], "--arrangement", paths[f"{size}.arr"]]
    return {
        "build-tree": ["build-tree", *arrangement],
        "distribution --explicit": ["distribution", *arrangement, "--explicit"],
        "cutwidth-tree": ["cutwidth-tree", *arrangement, "--best-shift"],
        "dp-min-stretch": (
            ["dp-min-stretch", "--graph", paths["cycle.gr"], "--td", paths["cycle.td"]]
            if size == "small"
            else ["dp-min-stretch", "--graph", paths["grid.gr"], "--td", paths["grid.td"]]
        ),
        "oracle": ["oracle", "--graph", paths["cycle.gr"]],
        "stats": ["stats", *arrangement],
        "verify": ["verify", "--suite", "dp"],
    }[command]


def _cyclic_garbage(argv, measure=None) -> int:
    """Objects the cyclic collector finds after one in-process run of main,
    or ``measure`` of the list of them."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        assert not gc.isenabled()
        found = gc.collect()
        return found if measure is None else measure(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("command", [
    "build-tree", "distribution --explicit", "cutwidth-tree", "dp-min-stretch",
    "oracle", "stats", "verify",
])
def test_commands_leave_little_cyclic_garbage(gc_inputs, capsys, command):
    assert _cyclic_garbage(_gc_argv(gc_inputs, command)) < 2000


@pytest.mark.parametrize("command", ["build-tree", "dp-min-stretch"])
def test_cyclic_garbage_does_not_grow_with_the_input(gc_inputs, capsys, command):
    small = _cyclic_garbage(_gc_argv(gc_inputs, command, "small"))
    large = _cyclic_garbage(_gc_argv(gc_inputs, command, "large"))
    assert large <= small


def _largest_container(garbage) -> int:
    return max((len(x) for x in garbage if isinstance(x, (list, tuple, dict, set, bytearray))), default=0)


@pytest.mark.parametrize("command", ["distribution --explicit", "cutwidth-tree"])
def test_largest_cyclic_garbage_does_not_grow_with_the_input(gc_inputs, capsys, command):
    # the all-shifts walk keeps its per-edge lists out of any reference cycle:
    # as a recursive closure, it left four lists of m entries in the garbage
    small = _cyclic_garbage(_gc_argv(gc_inputs, command, "small"), _largest_container)
    large = _cyclic_garbage(_gc_argv(gc_inputs, command, "large"), _largest_container)
    assert large <= small


def test_main_restores_the_collector(c4_files, capsys, monkeypatch):
    graph, _ = c4_files
    seen = []
    stats = cli._cmd_stats

    def spy(args, run):
        seen.append(gc.isenabled())
        return stats(args, run)

    monkeypatch.setattr(cli, "_cmd_stats", spy)
    assert gc.isenabled()
    assert main(["stats", "--graph", graph]) == 0
    assert gc.isenabled()
    assert main(["stats", "--graph", graph + ".missing"]) == 1  # CliError
    assert gc.isenabled()
    gc.disable()
    try:
        assert main(["stats", "--graph", graph]) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert seen == [False, False, False]
