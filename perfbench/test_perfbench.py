"""The benchmark's own test: ``python3 -m pytest perfbench``.

Runs ``run.py --smoke``, which drives every workload at tiny sizes, checks
that each metric named in BENCHMARK.json is printed with its unit, and that a
deliberately corrupted output is counted as a failed invocation.
"""
import subprocess
import sys
from pathlib import Path


def test_smoke():
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run([sys.executable, str(run), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
