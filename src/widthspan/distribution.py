"""The random distribution over spanning trees from shifted padded arrangements.

The base arrangement is embedded in a power-of-two total of padded positions
(smallest power of two >= 2n); each admissible shift yields one tree via the
arrangement-tree MST.  Sampling draws a shift uniformly; explicit mode builds
every shift and reports exact per-edge expected stretches as rationals.

The same machinery, keyed on a cutwidth witness instead of a bandwidth one,
gives the cutwidth construction: one sampled shift in expected-linear mode,
or the best shift by exhaustion.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .arrangement import LinearArrangement, PaddedArrangement, shift_count
from .graph import Graph
from .lowstretch import StretchReport, build_tree_padded


@dataclass(frozen=True)
class DistributionReport:
    """Exact statistics of the full shift distribution."""

    shifts: int
    per_edge_expected_stretch: tuple[Fraction, ...]
    per_shift_avg_stretch: tuple[Fraction, ...]
    best_shift: int

    @property
    def max_expected_stretch(self) -> Fraction:
        return max(self.per_edge_expected_stretch, default=Fraction(0))


def build_shift_tree(g: Graph, a: LinearArrangement, shift: int) -> StretchReport:
    return build_tree_padded(g, PaddedArrangement(a, shift))


def sample_tree(g: Graph, a: LinearArrangement, seed: int) -> tuple[int, StretchReport]:
    """Draw one shift uniformly and build its tree.  Reproducible by seed."""
    shift = random.Random(seed).randrange(shift_count(g.n))
    return shift, build_shift_tree(g, a, shift)


def explicit_distribution(g: Graph, a: LinearArrangement) -> DistributionReport:
    """Build the tree of every shift; exact expectations, no sampling error."""
    count = shift_count(g.n)
    sums = [0] * g.m
    per_shift: list[Fraction] = []
    best_shift = 0
    best_total = None
    for shift in range(count):
        report = build_shift_tree(g, a, shift)
        for i, s in enumerate(report.per_edge_stretch):
            sums[i] += s
        per_shift.append(report.avg_stretch)
        if best_total is None or report.total_stretch < best_total:
            best_total = report.total_stretch
            best_shift = shift
    return DistributionReport(
        shifts=count,
        per_edge_expected_stretch=tuple(Fraction(s, count) for s in sums),
        per_shift_avg_stretch=tuple(per_shift),
        best_shift=best_shift,
    )


def cutwidth_tree(
    g: Graph,
    a: LinearArrangement,
    *,
    seed: int | None = None,
    best_shift: bool = False,
) -> tuple[int, StretchReport]:
    """Cutwidth-witness spanning tree: one sampled shift, or the best of all.

    best_shift mode derandomizes by exhaustion: it evaluates every shift and
    returns the tree of minimum average stretch (lowest shift on ties).
    """
    if best_shift == (seed is not None):
        raise ValueError("choose exactly one of seed= or best_shift=True")
    if seed is not None:
        return sample_tree(g, a, seed)
    best: tuple[int, StretchReport] | None = None
    for shift in range(shift_count(g.n)):
        report = build_shift_tree(g, a, shift)
        if best is None or report.total_stretch < best[1].total_stretch:
            best = (shift, report)
    assert best is not None
    return best
