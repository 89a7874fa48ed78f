"""``import widthspan.cli`` must not load ``dataclasses``: it pulls in
``inspect`` (and with it ``ast``, ``dis`` and ``tokenize``), and generating
dataclass methods runs ``exec`` per class, which together cost most of the
package's own start-up.  The record classes are plain classes on purpose.

The check runs in a fresh interpreter, because this test process has
already imported ``dataclasses`` (pytest and the test modules use it)."""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import widthspan.cli
print(" ".join(sorted({"dataclasses", "inspect"} & set(sys.modules))))
"""


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert out == [], "import widthspan.cli loaded: " + ", ".join(out)
