"""End-to-end benchmark of the widthspan CLI, with a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload build_tree_bw --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn
    python3 perfbench/run.py --smoke                     # self-test at tiny sizes

A run writes the workload's seeded inputs to a scratch directory, then starts
the CLI (``python3 -c 'from widthspan.cli import main; ...'``, the console
entry point) one process at a time -- a closed loop with ``--jobs`` left at 1
-- until ``--seconds`` have passed.  The first output is checked against
independent reference algorithms; every later output must equal it byte for
byte.  A nonzero exit, a failed check or differing bytes count as failed.

With ``--trace 0`` the metrics are the medians over the CLI processes of wall
time, user+sys CPU time and peak RSS, plus ``setup_s``: the median time of a
fresh interpreter running ``import widthspan.cli``, which every CLI call pays.
The CPU speed of a shared machine drifts by tens of percent over minutes, so
each CLI process is followed by two set-up processes and one run of a fixed
calibration program, and the three times are scaled to a reference speed:
multiplied by ``CALIBRATION_REF_S`` over the run's median calibration time.
A record line gives that factor, so the measured times can be recovered.

With ``--trace 1`` untraced processes alternate with processes run through
``traced.py``; the metrics are the per-layer times and counts of the traced
processes and ``trace.overhead_s``, the traced minus the untraced median wall.
These times are not scaled.

The metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is the JSON result; the lines before it record the machine,
kernel, commit, seed and input sizes, and each metric's quartiles.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Instance

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"
TRACED = Path(__file__).resolve().parent / "traced.py"

CLI = "import sys; from widthspan.cli import main; sys.exit(main())"
SETUP = "import widthspan.cli"
PROBE = "import widthspan.cli, widthspan.kernel as k; print(k.IMPLEMENTATION); print(k.__file__)"
SETUP_PER_INVOCATION = 2
# Interpreter-bound work with a working set larger than the caches, like the
# CLI's; independent of the program, so it measures only the machine.
CALIBRATION = """
import random
r = random.Random(0)
a = list(range(300000))
r.shuffle(a)
x = s = 0
for _ in range(200000):
    x = a[x]
    s += x
a.sort()
"""
# Median calibration time on an Intel Xeon (2 vCPUs, Python 3.11).
CALIBRATION_REF_S = 0.6
MIN_INVOCATIONS = 2
CHILD_TIMEOUT_S = 60
SPAN_KINDS = ("s", "calls", "self_s")


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout


@dataclass
class Child:
    status: int
    wall: float
    cpu: float
    rss_mb: float


def spawn(argv: list[str], env: dict, log: Path) -> Child:
    """Run one process to its end with stdout and stderr in ``log``."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException as exc:  # timeout or interrupt: never leave the child running
        os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        if not isinstance(exc, ChildTimeout):
            raise
    finally:
        signal.alarm(0)
    wall = time.perf_counter() - start
    return Child(
        status=os.waitstatus_to_exitcode(status),
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
    )


def child_env() -> dict:
    """The caller's environment with only the checkout's sources importable,
    bytecode caching on (an installed package has its caches) and no
    WIDTHSPAN_JOBS (``--jobs`` stays 1)."""
    unset = ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "WIDTHSPAN_JOBS")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env["PYTHONPATH"] = str(SRC)
    return env


class Invoker:
    """Runs the CLI on one instance and judges every output."""

    def __init__(self, inst: Instance, env: dict, workdir: Path, corrupt=None):
        self.inst = inst
        self.env = env
        self.log = workdir / "child.log"
        self.corrupt = corrupt  # smoke tests: (attempt, outputs) -> outputs
        self.reference: list[bytes] | None = None
        self.attempted = 0
        self.failed = 0

    def fail(self, why: str) -> None:
        self.failed += 1
        tail = self.log.read_text(errors="replace")[-2000:] if self.log.exists() else ""
        print(f"invocation {self.attempted} failed: {why}\n{tail}", file=sys.stderr)

    def invoke(self, prefix: list[str]) -> Child | None:
        """One CLI process; returns its measurements if its outputs are right."""
        self.attempted += 1
        for path in self.inst.outputs:
            path.unlink(missing_ok=True)
        child = spawn([sys.executable] + prefix + self.inst.args, self.env, self.log)
        if child.status != 0:
            self.fail(f"exit status {child.status}")
            return None
        try:
            outputs = [path.read_bytes() for path in self.inst.outputs]
        except OSError as exc:
            self.fail(f"missing output: {exc}")
            return None
        if self.corrupt is not None:
            outputs = self.corrupt(self.attempted, outputs)
        if self.reference is None:
            try:
                self.inst.check(outputs)
            except Exception as exc:  # any malformed output is a failed check
                self.fail(f"output check: {type(exc).__name__}: {exc}")
                return None
            self.reference = outputs
        elif outputs != self.reference:
            self.fail("outputs differ from the run's reference")
            return None
        return child


def layer_totals(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: total duration, calls, and self time (duration minus
    the time its child spans cover)."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _), child_time in zip(spans, covered):
        agg = out.setdefault(name, {"s": 0.0, "calls": 0, "self_s": 0.0})
        agg["s"] += end - start
        agg["calls"] += 1
        agg["self_s"] += end - start - child_time
    return out


def layer_value(name: str, totals: dict, counters: dict) -> float:
    base, _, kind = name.rpartition(".")
    if kind in SPAN_KINDS:
        return totals.get(base, {}).get(kind, 0)
    return counters.get(name, 0)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def run(workload: str, seed: int, seconds: float, trace: int, *, smoke: bool = False, corrupt=None) -> dict:
    """One benchmark run; prints its record lines and returns the result."""
    spec = load_spec()
    wanted = spec["per_layer" if trace else "end_to_end"]
    workdir = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inst = WORKLOADS[workload](seed, workdir, smoke)
        env = child_env()
        # The probe also writes the bytecode caches, so setup_s measures warm imports.
        probe = spawn([sys.executable, "-c", PROBE], env, workdir / "probe.log")
        probe_out = (workdir / "probe.log").read_text().split()
        if probe.status != 0 or len(probe_out) != 2 or not probe_out[1].startswith(str(SRC)):
            raise SystemExit(f"cannot import widthspan from {SRC}: {' '.join(probe_out)[-2000:]}")
        print("meta " + json.dumps({
            "workload": workload,
            "seed": seed,
            "trace": trace,
            "sizes": inst.sizes,
            "kernel": probe_out[0],
            "python": platform.python_version(),
            "cpu": _cpu_model(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": _git_commit(),
        }, sort_keys=True))

        def timed(code: str) -> float:
            child = spawn([sys.executable, "-c", code], env, workdir / "extra.log")
            if child.status != 0:
                raise SystemExit(f"failed: python3 -c {code!r}")
            return child.wall

        invoker = Invoker(inst, env, workdir, corrupt)
        spans_path = workdir / "spans.json"
        plain: list[Child] = []
        traced: list[tuple[Child, dict, dict]] = []
        setup: list[float] = []
        calibration: list[float] = []
        minimum = MIN_INVOCATIONS * (2 if trace else 1)
        deadline = time.perf_counter() + seconds
        while invoker.attempted < minimum or time.perf_counter() < deadline:
            if trace and invoker.attempted % 2:
                spans_path.unlink(missing_ok=True)
                child = invoker.invoke([str(TRACED), str(spans_path)])
                if child is not None:
                    record = json.loads(spans_path.read_text())
                    traced.append((child, layer_totals(record["spans"]), record["counters"]))
            else:
                child = invoker.invoke(["-c", CLI])
                if child is not None:
                    plain.append(child)
                if not trace:
                    setup.extend(timed(SETUP) for _ in range(SETUP_PER_INVOCATION))
                    calibration.append(timed(CALIBRATION))
        if not plain or (trace and not traced):
            raise SystemExit(f"{workload}: no invocation succeeded")

        series: dict[str, list[float]] = {}
        if trace:
            plain_wall = statistics.median(c.wall for c in plain)
            for metric in wanted:
                name = metric["name"]
                if name == "trace.overhead_s":
                    series[name] = [statistics.median(c.wall for c, _, _ in traced) - plain_wall]
                else:
                    series[name] = [layer_value(name, totals, counters) for _, totals, counters in traced]
        else:
            speed = CALIBRATION_REF_S / statistics.median(calibration)
            print(f"{workload} calibration: median {statistics.median(calibration):.6g} s "
                  f"({len(calibration)} samples); times below are scaled by {speed:.6g}")
            measured = {
                "wall_s": [c.wall * speed for c in plain],
                "cpu_s": [c.cpu * speed for c in plain],
                "peak_rss_mb": [c.rss_mb for c in plain],
                "setup_s": [t * speed for t in setup],
            }
            series = {m["name"]: measured[m["name"]] for m in wanted}

        metrics = {}
        for metric in wanted:
            values = series[metric["name"]]
            q1, median, q3 = quartiles(values)
            metrics[metric["name"]] = {"value": median, "unit": metric["unit"]}
            print(f"{workload} {metric['name']}: median {median:.6g} {metric['unit']} "
                  f"(q1 {q1:.6g}, q3 {q3:.6g}, {len(values)} samples)")
        print(f"{workload} error_rate: {invoker.failed}/{invoker.attempted} invocations failed")
        return {
            "correct": invoker.failed == 0,
            "attempted": invoker.attempted,
            "failed": invoker.failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


# ---------------------------------------------------------------------------
# Smoke mode: the benchmark's own test, at tiny sizes.
# ---------------------------------------------------------------------------

def bump_last_digit(data: bytes) -> bytes:
    i = max(data.rfind(bytes([d])) for d in b"0123456789")
    return data[:i] + bytes([ord("0") + (data[i] - ord("0") + 1) % 10]) + data[i + 1:]


def corrupt_at(attempt: int):
    """Corrupt the first output of the given invocation."""
    def corrupt(current: int, outputs: list[bytes]) -> list[bytes]:
        if current != attempt:
            return outputs
        return [bump_last_digit(outputs[0])] + outputs[1:]
    return corrupt


def smoke() -> int:
    spec = load_spec()
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run(workload, 1, 0, trace, smoke=True)
            print(json.dumps(result))
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: failed invocations on a correct program")
            for metric in spec["per_layer" if trace else "end_to_end"]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"] or isinstance(got["value"], bool) \
                        or not isinstance(got["value"], (int, float)):
                    problems.append(f"{workload} trace={trace}: {metric['name']} missing or malformed")
        # The first output goes through the checks, later ones through the byte comparison.
        for attempt in (1, 2):
            result = run(workload, 1, 0, 0, smoke=True, corrupt=corrupt_at(attempt))
            if result["correct"] or result["failed"] != 1:
                problems.append(f"{workload}: corrupted output of invocation {attempt} not counted as failed")
    for problem in problems:
        print("FAIL " + problem)
    print("smoke: " + ("OK" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the widthspan CLI.")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test at tiny sizes")
    args = parser.parse_args()
    if not (SRC / "widthspan" / "cli.py").is_file():
        print(f"error: no widthspan sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    if args.smoke:
        return smoke()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        print(json.dumps(run(name, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
