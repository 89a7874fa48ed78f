"""Command-line surface: generation, tree construction, distribution and
cutwidth reports, the exact DP, brute-force oracles, and invariant suites.

Reports are JSON with exact integers and rationals (``"p/q"`` strings) —
never floats — so repeated runs diff cleanly.  Every file-producing run also
writes ``<out>.manifest.json`` recording the command, input/output digests,
seed, and wall-clock time.

The digests come from CPython's built-in SHA-256 (``_sha2`` on 3.12+,
``_sha256`` before) for a text under ``_BUILTIN_SHA256_LIMIT`` UTF-8 bytes,
and from ``hashlib`` at or above it, imported only then.  ``hashlib`` loads
OpenSSL's ``_hashlib``, about 3-4 ms and 3.6 MB of RSS per process, which a
small run would otherwise spend on start-up alone.  A run that writes only to
stdout writes no manifest and hashes nothing.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from collections import Counter
from fractions import Fraction

from . import __version__
from .arrangement import (
    ArrangementError,
    LinearArrangement,
    dump_arrangement,
    edge_spreads,
    load_arrangement,
    shift_count,
    split_nodes,
    widths,
)
from .distribution import cutwidth_tree, explicit_distribution, sample_tree
from .graph import FAMILIES, Graph, GraphFormatError, GraphValidationError, dump_graph, generate, load_graph
from .lowstretch import (
    StretchReport,
    build_tree,
    build_tree_padded,
    charge_diagnostics,
    charges_hold,
    cubic_bound_holds,
    cycle_spans_hold,
    lemma31_check,
    split_sets_hold,
    stretch_of,
)
from .oracle import (
    OracleCapExceeded,
    enumerate_min_stretch,
    expected_stretch_oracle,
)
from .twdp.decomposition import TreeDecompositionError, load_td, min_fill_td
from .twdp.solver import DPLimitError, dp_min_stretch

try:
    from _sha2 import sha256 as _builtin_sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _builtin_sha256  # CPython 3.10-3.11
    except ImportError:  # a build with OpenSSL hashes only
        _builtin_sha256 = None


class CliError(Exception):
    """Validation failure surfaced to the user; exit code 1."""


# ---------------------------------------------------------------------------
# Serialization helpers.
# ---------------------------------------------------------------------------

def _json_default(value):
    """``json.dumps`` hook: a ``Fraction`` becomes an int or ``"p/q"``."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _dumps(obj) -> str:
    """``obj`` as ``json.dumps(obj, sort_keys=True, indent=2)`` writes it,
    with ``_json_default`` for fractions; the one writer of every
    report and manifest.

    With ``indent`` set, ``json`` runs its pure-Python encoder, and a report's
    per-edge lists hold one entry per edge.  So each member of a top-level
    dict is written on its own.  A non-empty list or tuple of exact ints (a
    bool stays ``true``), or of exact ``Fraction``s, goes through the C
    encoder, with the indented layout in its separator; the fractions are
    first mapped through ``_json_default``, the hook the indenting call would
    call on each of them, to ints and ``"p/q"`` strings, which hold nothing to
    escape.  Every other value goes through the indenting call, re-indented
    one level.  ``json`` writes a tuple as an array, and a flat array's
    indented layout is only its separator, so the bytes are the same as one
    indenting call over the whole object.
    """
    if type(obj) is not dict or not all(type(key) is str for key in obj):
        return json.dumps(obj, sort_keys=True, indent=2, default=_json_default) + "\n"
    members = []
    for key in sorted(obj):
        value = obj[key]
        kinds = set(map(type, value)) if type(value) in (list, tuple) else None
        if kinds == {Fraction}:
            value = list(map(_json_default, value))
        if kinds == {int} or kinds == {Fraction}:
            text = "[\n    " + json.dumps(value, separators=(",\n    ", ": "))[1:-1] + "\n  ]"
        else:
            text = json.dumps(value, sort_keys=True, indent=2, default=_json_default).replace("\n", "\n  ")
        members.append(f"{json.dumps(key)}: {text}")
    return "{\n  " + ",\n  ".join(members) + "\n}\n" if members else "{}\n"


# Texts shorter than this many UTF-8 bytes are hashed by the built-in SHA-256,
# the rest by hashlib.  Importing hashlib loads OpenSSL: 3-4 ms and 3.6 MB
# of RSS per process (3.10-3.13).  The built-in code is about 10x slower
# (a 2.1 MB graph: 14-18 ms against 1.5-1.6 ms with OpenSSL, on a 2-vCPU
# Xeon), so a text of 64 KiB costs it about 0.5 ms, far less than the import.
# Every text of the benchmark's dp_exact and explicit_shifts runs (at most
# 26 KB) is under the limit and every text of its build_tree_bw run (289 KB to
# 2.1 MB) is over it, so both sides of the split are measured.
_BUILTIN_SHA256_LIMIT = 1 << 16


def _sha256(text: str) -> str:
    data = text.encode()
    if _builtin_sha256 is not None and len(data) < _BUILTIN_SHA256_LIMIT:
        return _builtin_sha256(data).hexdigest()
    import hashlib

    return hashlib.sha256(data).hexdigest()


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _stdout(text: str) -> None:
    """Write ``text`` to stdout and flush it.  A stdout that is closed
    (``sys.stdout`` is None) or refuses the bytes (a closed pipe, a full
    device) is a CliError; what is still buffered then goes to the null
    device, so that the flush at exit does not fail a second time."""
    if sys.stdout is None:
        raise CliError("cannot write stdout: it is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise CliError(f"cannot write stdout: {exc}") from exc


# The options that name an output file.  A run given any of them writes a
# manifest, so it digests each input as it reads it.
_OUTPUT_OPTIONS = ("out", "report", "csv", "arrangement_out")


class _Run:
    """Collects input/output digests and writes the manifest per output.
    The inputs are digested only when ``manifest`` is set, that is when some
    output goes to a file."""

    def __init__(self, argv: list[str], seed: int | None, manifest: bool):
        self.argv = argv
        self.seed = seed
        self.manifest = manifest
        self.started = time.monotonic()
        self.inputs: dict[str, str] = {}

    def read_input(self, path: str) -> str:
        text = _read(path)
        if self.manifest:
            self.inputs[path] = _sha256(text)
        return text

    def emit(self, text: str, out: str | None) -> None:
        if out is None:
            _stdout(text)
            return
        _write(out, text)
        manifest = {
            "command": self.argv,
            "inputs": self.inputs,
            "outputs": {out: _sha256(text)},
            "seed": self.seed,
            "version": __version__,
            "wall_clock_s": round(time.monotonic() - self.started, 6),
        }
        _write(out + ".manifest.json", _dumps(manifest))


def _load_graph_file(run: _Run, path: str) -> Graph:
    try:
        return load_graph(run.read_input(path))
    except (GraphFormatError, GraphValidationError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_arrangement_file(run: _Run, path: str | None, g: Graph) -> LinearArrangement:
    if path is None:
        return LinearArrangement.identity(g.n)
    try:
        return load_arrangement(run.read_input(path), g.n)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _stretch_report_dict(g: Graph, report: StretchReport) -> dict:
    return {
        "n": g.n,
        "m": g.m,
        "tree_edges": sorted(report.tree_edges),
        "per_edge_stretch": report.per_edge_stretch,
        "total_stretch": report.total_stretch,
        "avg_stretch": report.avg_stretch,
        "fcb_weight": report.fcb_weight,
    }


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def _cmd_gen(args, run: _Run) -> int:
    try:
        g, order = generate(args.family, args.n, seed=args.seed, b=args.b, p=args.p, c=args.c)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    run.emit(dump_graph(g), args.out)
    if args.arrangement_out is not None:
        arr = LinearArrangement.from_order(order)
        run.emit(dump_arrangement(arr), args.arrangement_out)
    return 0


def _cmd_stats(args, run: _Run) -> int:
    g = _load_graph_file(run, args.graph)
    a = _load_arrangement_file(run, args.arrangement, g)
    bandwidth, cut = widths(g, a)
    max_split = max(Counter(split_nodes(g, a)).values(), default=0)
    report = {
        "n": g.n,
        "m": g.m,
        "bandwidth": bandwidth,
        "cutwidth": cut,
        "sum_spread": sum(edge_spreads(g, a)),
        "max_split_set": max_split,
    }
    run.emit(_dumps(report), args.out)
    return 0


def _cmd_build_tree(args, run: _Run) -> int:
    if args.shift is not None and not args.padded:
        raise CliError("--shift needs --padded")
    g = _load_graph_file(run, args.graph)
    a = _load_arrangement_file(run, args.arrangement, g)
    if args.padded:
        try:
            report = build_tree_padded(g, a, args.shift or 0)
        except ArrangementError as exc:
            raise CliError(str(exc)) from exc
    else:
        report = build_tree(g, a)
    run.emit(_dumps(_stretch_report_dict(g, report)), args.report)
    return 0


def _cmd_distribution(args, run: _Run) -> int:
    if args.sample is not None and args.sample < 0:
        raise CliError(f"--sample must be at least 0, got {args.sample}")
    if args.csv is not None and not args.explicit:
        raise CliError("--csv needs --explicit")
    g = _load_graph_file(run, args.graph)
    a = _load_arrangement_file(run, args.arrangement, g)
    if args.explicit:
        dist = explicit_distribution(g, a)
        report = {
            "mode": "explicit",
            "shifts": dist.shifts,
            "per_edge_expected_stretch": dist.per_edge_expected_stretch,
            "per_shift_avg_stretch": dist.per_shift_avg_stretch,
            "best_shift": dist.best_shift,
            "max_expected_stretch": dist.max_expected_stretch,
        }
        if args.csv is not None:
            spreads = edge_spreads(g, a)
            lines = ["edge_id,u,v,spread,expected_stretch"]
            for eid, (u, v) in enumerate(g.edges, start=1):
                exp = dist.per_edge_expected_stretch[eid - 1]
                lines.append(f"{eid},{u},{v},{spreads[eid - 1]},{exp}")
            run.emit("\n".join(lines) + "\n", args.csv)
    else:
        samples = []
        for i in range(args.sample):
            shift, rep = sample_tree(g, a, args.seed + i)
            samples.append(
                {
                    "seed": args.seed + i,
                    "shift": shift,
                    "tree_edges": sorted(rep.tree_edges),
                    "total_stretch": rep.total_stretch,
                    "avg_stretch": rep.avg_stretch,
                }
            )
        report = {"mode": "sample", "samples": samples}
    run.emit(_dumps(report), args.out)
    return 0


def _cmd_cutwidth_tree(args, run: _Run) -> int:
    g = _load_graph_file(run, args.graph)
    a = _load_arrangement_file(run, args.arrangement, g)
    if args.best_shift:
        shift, rep = cutwidth_tree(g, a)
    else:
        shift, rep = sample_tree(g, a, args.seed)
    _, cut = widths(g, a)
    report = _stretch_report_dict(g, rep)
    report.update(
        {
            "shift": shift,
            "cutwidth": cut,
            "sum_spread": sum(edge_spreads(g, a)),
        }
    )
    run.emit(_dumps(report), args.out)
    return 0


def _cmd_dp_min_stretch(args, run: _Run) -> int:
    g = _load_graph_file(run, args.graph)
    try:
        td = load_td(run.read_input(args.td), g)
        result = dp_min_stretch(g, td, enforce_limits=not args.allow_large)
    except TreeDecompositionError as exc:
        raise CliError(f"{args.td}: {exc}") from exc
    except DPLimitError as exc:
        raise CliError(f"{exc}; --allow-large lifts the limits") from exc
    report = {
        "total_stretch": result.min_total_stretch,
        "avg_stretch": result.min_avg_stretch,
        "tree_edges": sorted(result.tree_edges),
        "width": result.width,
    }
    if args.check_oracle:
        try:
            oracle = enumerate_min_stretch(g)
        except OracleCapExceeded as exc:
            raise CliError(str(exc)) from exc
        if result.min_total_stretch != oracle.min_total_stretch:
            raise CliError(
                f"DP optimum {result.min_total_stretch} disagrees with "
                f"oracle {oracle.min_total_stretch}"
            )
        print(f"{result.min_total_stretch} = {oracle.min_total_stretch}", file=sys.stderr)
    run.emit(_dumps(report), args.out)
    return 0


def _cmd_oracle(args, run: _Run) -> int:
    if args.cap < 0:
        raise CliError(f"--cap must be at least 0, got {args.cap}")
    g = _load_graph_file(run, args.graph)
    try:
        result = enumerate_min_stretch(g, cap=args.cap, histogram=args.histogram)
    except OracleCapExceeded as exc:
        raise CliError(str(exc)) from exc
    report = {
        "spanning_tree_count": result.spanning_tree_count,
        "min_total_stretch": result.min_total_stretch,
        "argmin_trees": [sorted(t) for t in result.argmin_trees],
    }
    if args.histogram:
        report["per_tree_totals"] = sorted(result.per_tree_totals)
    run.emit(_dumps(report), args.out)
    return 0


# ---------------------------------------------------------------------------
# Invariant suites (`verify`).
# ---------------------------------------------------------------------------

def _suite_bandwidth(seed: int) -> list[tuple[str, bool, str]]:
    checks = []
    corpus = []
    for b in (1, 2, 3):
        for n in (16, 33, 64):
            g, order = generate("random_bandwidth", n, seed=seed + b * 100 + n, b=b, p=0.7)
            corpus.append((g, LinearArrangement.from_order(order)))
    corpus.append(_gen_pair("path", 40, seed))
    corpus.append(_gen_pair("cycle", 40, seed))
    corpus.append(_gen_pair("caterpillar", 41, seed))

    split_ok = tight_split_ok = degree_ok = fcb_ok = lemma_ok = bound_ok = charge_ok = cycle_ok = True
    for g, a in corpus:
        b, _ = widths(g, a)
        report = build_tree(g, a)
        split_ok &= split_sets_hold(g, a, b)
        tight_split_ok &= split_sets_hold(g, a, max(0, b - 2))  # (1/2)(b-1)(b-2)
        degree_ok &= all(g.degree(v) <= 2 * b for v in range(1, g.n + 1))
        fcb_ok &= report.fcb_weight == report.total_stretch + g.m - 2 * g.n + 2
        lemma_ok &= all(ok for _, _, ok in lemma31_check(g, a, 0, report))
        bound_ok &= cubic_bound_holds(g, report, b)
        charge_ok &= charges_hold(g, charge_diagnostics(g, a))
        cycle_ok &= cycle_spans_hold(g, a, report, b)
    checks.append(("split sets partition edges, |S_v| <= b(b+1)/2", split_ok, ""))
    checks.append(("tight split-set constant (1/2)(b-1)(b-2) (informational)", True,
                   "holds" if tight_split_ok else "violated for small b, safe bound used"))
    checks.append(("deg(v) <= 2b", degree_ok, ""))
    checks.append(("FCB identity exact", fcb_ok, ""))
    checks.append(("per-edge stretch <= 2p-1 (padded)", lemma_ok, ""))
    checks.append(("avg stretch <= 4b^3+2 and FCB <= 4b^3 n", bound_ok, ""))
    checks.append(("long components <= b and total charge <= bn", charge_ok, ""))
    checks.append(("fundamental cycles: 2s/b <= |C| <= s+1", cycle_ok, ""))
    return checks


def _gen_pair(family: str, n: int, seed: int):
    g, order = generate(family, n, seed=seed)
    return g, LinearArrangement.from_order(order)


def _suite_cutwidth(seed: int) -> list[tuple[str, bool, str]]:
    checks = []
    ok_spread = ok_best = True
    for c in (2, 3):
        for n in (32, 64):
            g, order = generate("random_cutwidth", n, seed=seed + c * 10 + n, c=c)
            a = LinearArrangement.from_order(order)
            _, cut = widths(g, a)
            if sum(edge_spreads(g, a)) > cut * g.n:
                ok_spread = False
            shift, rep = cutwidth_tree(g, a)
            for s in range(shift_count(g.n)):
                if build_tree_padded(g, a, s).total_stretch < rep.total_stretch:
                    ok_best = False
    checks.append(("sum of spreads <= cutwidth * n", ok_spread, ""))
    checks.append(("best-shift tree minimizes over all shifts", ok_best, ""))
    return checks


def _suite_distribution(seed: int) -> list[tuple[str, bool, str]]:
    checks = []
    ok_oracle = ok_sample = True
    for family, n in (("cycle", 8), ("caterpillar", 9), ("grid", 12)):
        g, a = _gen_pair(family, n, seed)
        dist = explicit_distribution(g, a)
        if dist.per_edge_expected_stretch != expected_stretch_oracle(g, a):
            ok_oracle = False
        shift, rep = sample_tree(g, a, seed)
        shift2, rep2 = sample_tree(g, a, seed)
        if shift != shift2 or rep.tree_edges != rep2.tree_edges:
            ok_sample = False
        if build_tree_padded(g, a, shift).tree_edges != rep.tree_edges:
            ok_sample = False
    checks.append(("explicit distribution equals the naive oracle", ok_oracle, ""))
    checks.append(("sampling is seed-deterministic and shift-consistent", ok_sample, ""))
    return checks


def _suite_dp(seed: int) -> list[tuple[str, bool, str]]:
    checks = []
    ok_equal = ok_witness = True
    instances = [
        _gen_pair("path", 8, seed)[0],
        _gen_pair("cycle", 8, seed)[0],
        _gen_pair("complete", 4, seed)[0],
        _gen_pair("grid", 6, seed)[0],
        _gen_pair("caterpillar", 9, seed)[0],
    ]
    for g in instances:
        td = min_fill_td(g)
        result = dp_min_stretch(g, td, enforce_limits=False)
        oracle = enumerate_min_stretch(g)
        if result.min_total_stretch != oracle.min_total_stretch:
            ok_equal = False
        if stretch_of(g, result.tree_edges).total_stretch != result.min_total_stretch:
            ok_witness = False
    checks.append(("DP optimum equals exhaustive oracle", ok_equal, ""))
    checks.append(("witness tree stretch equals reported optimum", ok_witness, ""))
    return checks


_SUITES = {
    "bandwidth": _suite_bandwidth,
    "cutwidth": _suite_cutwidth,
    "distribution": _suite_distribution,
    "dp": _suite_dp,
}


def _cmd_verify(args, run: _Run) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    failed = 0
    for name in names:
        for label, ok, detail in _SUITES[name](args.seed):
            status = "PASS" if ok else "FAIL"
            suffix = f"  ({detail})" if detail else ""
            _stdout(f"{status}  [{name}] {label}{suffix}\n")
            if not ok:
                failed += 1
    _stdout(f"{'OK' if failed == 0 else 'FAILED'}: {failed} failing check(s)\n")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="widthspan",
        description="Low-stretch spanning trees from bounded-width arrangements.",
    )
    parser.add_argument("--version", action="version", version=f"widthspan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, arrangement=True):
        p.add_argument("--graph", required=True, help="edge-list graph file")
        if arrangement:
            p.add_argument("--arrangement", help="arrangement file (default: identity)")
        p.add_argument("--out", help="output JSON path (default: stdout)")

    p = sub.add_parser("gen", help="generate a graph family with a witness arrangement")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--b", type=int, help="bandwidth parameter (random_bandwidth)")
    p.add_argument("--p", type=float, help="edge probability (random_bandwidth)")
    p.add_argument("--c", type=int, help="cutwidth parameter (random_cutwidth)")
    p.add_argument("--out", help="graph output path (default: stdout)")
    p.add_argument("--arrangement-out", help="write the witness arrangement here")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("stats", help="n, m, widths, and split-set statistics")
    common(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("build-tree", help="arrangement-tree MST with stretch report")
    p.add_argument("--graph", required=True)
    p.add_argument("--arrangement", help="arrangement file (default: identity)")
    p.add_argument("--report", help="output JSON path (default: stdout)")
    p.add_argument("--padded", action="store_true", help="use the padded power-of-two tree")
    p.add_argument("--shift", type=int, help="padding shift (with --padded; default: 0)")
    p.set_defaults(func=_cmd_build_tree)

    p = sub.add_parser("distribution", help="shifted-padding tree distribution")
    common(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--explicit", action="store_true", help="all shifts, exact expectations")
    mode.add_argument("--sample", type=int, metavar="N", help="draw N trees")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", help="CSV export (explicit mode)")
    p.set_defaults(func=_cmd_distribution)

    p = sub.add_parser("cutwidth-tree", help="cutwidth-witness spanning tree")
    common(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--best-shift", action="store_true")
    mode.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_cutwidth_tree)

    p = sub.add_parser("dp-min-stretch", help="exact optimum via tree-decomposition DP")
    common(p, arrangement=False)
    p.add_argument("--td", required=True, help="PACE-format tree decomposition")
    p.add_argument("--check-oracle", action="store_true")
    p.add_argument("--allow-large", action="store_true",
                   help="lift the width/size practical limits")
    p.set_defaults(func=_cmd_dp_min_stretch)

    p = sub.add_parser("oracle", help="exhaustive spanning-tree enumeration")
    common(p, arrangement=False)
    p.add_argument("--cap", type=int, default=10**6)
    p.add_argument("--histogram", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite", required=True,
                   choices=["bandwidth", "cutwidth", "distribution", "dp", "all"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    manifest = any(getattr(args, name, None) is not None for name in _OUTPUT_OPTIONS)
    run = _Run(["widthspan"] + argv, getattr(args, "seed", None), manifest)
    # A command builds up to millions of tuples and lists and none of them
    # forms a reference cycle, so reference counting frees all of it; the
    # cyclic collector's passes over the growing heap find nothing.  Left on,
    # it takes about a tenth of a large build-tree run.  tests/test_cli.py
    # checks that each command leaves little cyclic garbage.  An in-process
    # caller gets its collector back as it was.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args, run)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
