"""The random distribution over spanning trees from shifted padded arrangements.

The base arrangement is embedded in a power-of-two total of padded positions
(smallest power of two >= 2n); each admissible shift yields one tree via the
arrangement-tree MST.  Sampling draws a shift uniformly; explicit mode builds
every shift's tree and reports exact per-edge expected stretches as
rationals.  All shifts come from one serial walk over the shift bits
(``lowstretch.padded_reports``), which gives one report per distinct tree
with the shifts that have it; the per-shift list is filled by index, and
the best shift is the least (total stretch, shift) over the trees.

The same machinery, keyed on a cutwidth witness instead of a bandwidth one,
gives the cutwidth construction: ``cutwidth_tree`` takes the best shift by
exhaustion, and ``sample_tree`` gives one sampled shift.
"""
from __future__ import annotations

import random
from fractions import Fraction

from . import _Record
from .arrangement import LinearArrangement, shift_count
from .graph import Graph
from .lowstretch import StretchReport, build_tree_padded, padded_reports


class DistributionReport(_Record):
    """Exact statistics of the full shift distribution; immutable."""

    def __init__(self, shifts: int, per_edge_expected_stretch: tuple[Fraction, ...],
                 per_shift_avg_stretch: tuple[Fraction, ...], best_shift: int):
        vars(self).update(shifts=shifts, per_edge_expected_stretch=per_edge_expected_stretch,
                          per_shift_avg_stretch=per_shift_avg_stretch, best_shift=best_shift)

    @property
    def max_expected_stretch(self) -> Fraction:
        """The largest per-edge expectation.  Edges share one ``Fraction``
        per distinct value (``explicit_distribution``), so each object is
        compared once, in the order of its first edge: ``max`` then returns
        the object it would return over every edge."""
        distinct = {id(f): f for f in self.per_edge_expected_stretch}
        return max(distinct.values(), default=Fraction(0))


def sample_tree(g: Graph, a: LinearArrangement, seed: int) -> tuple[int, StretchReport]:
    """Draw one shift uniformly and build its tree.  Reproducible by seed."""
    shift = random.Random(seed).randrange(shift_count(g.n))
    return shift, build_tree_padded(g, a, shift)


def explicit_distribution(g: Graph, a: LinearArrangement) -> DistributionReport:
    """Build the tree of every shift; exact expectations, no sampling error.

    The walk yields each distinct tree once, with its report and shifts, so
    the tree's per-edge stretches are added into the sums once, times its
    shift count.  Edges share few distinct sums (4 over the 1,577 edges of an
    n = 512 bandwidth-4 graph), so one ``Fraction`` is built per distinct sum
    and shared by its edges; the table is keyed by the int sum, which hashes
    in C where a ``Fraction`` hashes in Python.
    """
    count = shift_count(g.n)
    sums = [0] * g.m
    per_shift: list[Fraction] = [Fraction(0)] * count
    best = (float("inf"), 0)
    for shifts, report in padded_reports(g, a):
        for shift in shifts:
            per_shift[shift] = report.avg_stretch
        length = len(shifts)
        sums = [s + length * x for s, x in zip(sums, report.per_edge_stretch)]
        best = min(best, (report.total_stretch, min(shifts)))
    expected = {s: Fraction(s, count) for s in set(sums)}
    return DistributionReport(
        shifts=count,
        per_edge_expected_stretch=tuple(map(expected.__getitem__, sums)),
        per_shift_avg_stretch=tuple(per_shift),
        best_shift=best[1],
    )


def cutwidth_tree(g: Graph, a: LinearArrangement) -> tuple[int, StretchReport]:
    """Cutwidth-witness spanning tree, derandomized by exhaustion: the tree
    of the shift of minimum average stretch (lowest shift on ties)."""
    _, shift, report = min((report.total_stretch, min(shifts), report)
                           for shifts, report in padded_reports(g, a))
    return shift, report
