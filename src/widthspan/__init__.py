"""widthspan: low-stretch spanning trees from bounded-width linear
arrangements and tree decompositions.

Public surface: graph and arrangement I/O, the arrangement-tree MST
construction with exact stretch accounting, the shifted-padding tree
distribution (sampled or explicit), the cutwidth variant, the exact
treewidth DP, and brute-force oracles for validation.
"""
from .arrangement import (
    LinearArrangement,
    PaddedArrangement,
    dump_arrangement,
    edge_spreads,
    load_arrangement,
    padded_size,
    shift_count,
    split_heights,
    split_nodes,
    tree_intervals,
    widths,
)
from .distribution import (
    DistributionReport,
    build_shift_tree,
    cutwidth_tree,
    explicit_distribution,
    sample_tree,
)
from .graph import (
    Graph,
    GraphFormatError,
    GraphValidationError,
    dump_graph,
    generate,
    load_graph,
)
from .lowstretch import (
    ChargeReport,
    StretchReport,
    build_tree,
    build_tree_padded,
    charge_diagnostics,
    lemma31_check,
    stretch_of,
)
from .oracle import (
    OracleCapExceeded,
    OracleResult,
    enumerate_min_stretch,
    enumerate_spanning_trees,
    expected_stretch_oracle,
    spanning_tree_count,
)
from .twdp import (
    DPLimitError,
    NiceTreeDecomposition,
    TreeDecomposition,
    TreeDecompositionError,
    dp_min_stretch,
    load_td,
    make_nice,
)

__version__ = "0.1.0"

__all__ = [
    "LinearArrangement",
    "PaddedArrangement",
    "dump_arrangement",
    "edge_spreads",
    "load_arrangement",
    "padded_size",
    "shift_count",
    "split_heights",
    "split_nodes",
    "tree_intervals",
    "widths",
    "DistributionReport",
    "build_shift_tree",
    "cutwidth_tree",
    "explicit_distribution",
    "sample_tree",
    "Graph",
    "GraphFormatError",
    "GraphValidationError",
    "dump_graph",
    "generate",
    "load_graph",
    "ChargeReport",
    "StretchReport",
    "build_tree",
    "build_tree_padded",
    "charge_diagnostics",
    "lemma31_check",
    "stretch_of",
    "OracleCapExceeded",
    "OracleResult",
    "enumerate_min_stretch",
    "enumerate_spanning_trees",
    "expected_stretch_oracle",
    "spanning_tree_count",
    "DPLimitError",
    "NiceTreeDecomposition",
    "TreeDecomposition",
    "TreeDecompositionError",
    "dp_min_stretch",
    "load_td",
    "make_nice",
    "__version__",
]
