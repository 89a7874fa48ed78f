"""``import widthspan.cli`` must not load ``dataclasses``: it pulls in
``inspect`` (and with it ``ast``, ``dis`` and ``tokenize``), and generating
dataclass methods runs ``exec`` per class, which together cost most of the
package's own start-up.  The record classes are plain classes on purpose.

Nor may it, or a small file-producing run, load OpenSSL's ``_hashlib``
(through ``hashlib``): about 3 ms and 3.6 MB of RSS per process.  The
manifest digests of small texts come from CPython's built-in SHA-256.

The checks run in fresh interpreters, because this test process has
already imported ``dataclasses`` and ``hashlib`` (pytest and the test
modules use them)."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from widthspan import cli

from test_cli import C4

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import widthspan.cli
print(" ".join(sorted({"dataclasses", "inspect", "_hashlib"} & set(sys.modules))))
"""

RUN_PROBE = """
import sys
from widthspan.cli import main
if main(sys.argv[1:]) != 0:
    raise SystemExit("the run failed")
print(" ".join(sorted({"_hashlib", "hashlib"} & set(sys.modules))))
"""


def _python(code: str, *args: str, prelude: str = "") -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", prelude + code, *args],
        env=env, capture_output=True, text=True, check=True,
    ).stdout


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Nor ``_hashlib``, as the module docstring says."""
    out = _python(PROBE).split()
    assert out == [], "import widthspan.cli loaded: " + ", ".join(out)


def test_small_file_producing_runs_do_not_load_openssl(tmp_path):
    graph = tmp_path / "c4.gr"
    graph.write_text(C4)
    out = _python(RUN_PROBE, "stats", "--graph", str(graph), "--out", str(tmp_path / "s.json"))
    assert out.split() == [], "stats --out loaded: " + out
    assert json.loads((tmp_path / "s.json.manifest.json").read_text())["inputs"]


def test_manifests_fall_back_to_hashlib_without_the_builtin_sha256(tmp_path):
    """On a build whose SHA-256 comes from OpenSSL alone, every digest,
    of a small text or of one past the built-in limit, equals hashlib's."""
    small = tmp_path / "c4.gr"
    small.write_text(C4)
    n = 8000  # about 100 KB of edge lines
    big = tmp_path / "cycle.gr"
    big.write_text(f"p {n} {n}\n" + "".join(f"e {v} {v % n + 1}\n" for v in range(1, n + 1)))
    assert len(big.read_bytes()) > cli._BUILTIN_SHA256_LIMIT
    prelude = 'import sys\nsys.modules["_sha2"] = sys.modules["_sha256"] = None\n'
    for graph in (small, big):
        out = tmp_path / f"{graph.stem}.json"
        loaded = _python(RUN_PROBE, "stats", "--graph", str(graph), "--out", str(out), prelude=prelude)
        assert loaded.split() == ["_hashlib", "hashlib"]
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["inputs"] == {str(graph): hashlib.sha256(graph.read_bytes()).hexdigest()}
        assert manifest["outputs"] == {str(out): hashlib.sha256(out.read_bytes()).hexdigest()}
