"""Every site the traced benchmark wraps must exist.

``perfbench/traced.py`` wraps module attributes by name and only warns when
one is missing, so a rename under ``src/`` would quietly turn a per-layer
metric into zero.  This test reads its ``SITES`` table and resolves each one.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def _sites():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SITES


@pytest.mark.parametrize("module_name, attr, span", _sites())
def test_trace_site_resolves(module_name, attr, span):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} ({span}) is gone"
