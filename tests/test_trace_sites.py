"""Every site the traced benchmark wraps must exist, and so must the one
result attribute it reads.

``perfbench/traced.py`` wraps module attributes by name and only warns when
one is missing, so a rename under ``src/`` would quietly turn a per-layer
metric into zero.  This test reads its ``SITES`` table and resolves each one.
Its ``twdp.table_entries`` and ``twdp.max_table_entries`` counters are the
sum and the maximum of ``dp_min_stretch(...).table_sizes``.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from widthspan.twdp import solver
from widthspan.twdp.decomposition import load_td, make_nice

from corpus import GRID_4X3_EDGES, GRID_4X3_TD, make_graph

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


def test_table_sizes_are_the_sizes_of_the_tables_built():
    # the dp_exact workload's input: 1373 entries, 210 in the largest table
    g = make_graph(12, GRID_4X3_EDGES)
    td = load_td(GRID_4X3_TD, g)
    sizes = solver.dp_min_stretch(g, td).table_sizes
    assert type(sizes) is tuple
    assert sizes == tuple(len(table) for table in solver._tables(g, make_nice(td, g)))
    assert (sum(sizes), max(sizes)) == (1373, 210)
