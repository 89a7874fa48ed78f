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
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add

from .arrangement import LinearArrangement, PaddedArrangement, shift_count
from .graph import Graph
from .lowstretch import ShiftRow, StretchReport, build_tree_padded, padded_stretch_rows

# Shifts per task of the worker pool; each task sets up the graph once.
_CHUNK = 16


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


def _chunk_rows(g: Graph, a: LinearArrangement, shifts: range) -> list[ShiftRow]:
    """The rows of a run of shifts: one worker task."""
    return list(padded_stretch_rows(g, a, shifts))


def _shift_rows(g: Graph, a: LinearArrangement, jobs: int = 1) -> Iterator[ShiftRow]:
    """Yield the per-edge stretches, total and average stretch of every
    shift's tree, in shift order: all the shift loop's callers read, and all
    a worker process sends back.

    With ``jobs > 1`` runs of ``_CHUNK`` shifts are fanned out over that many
    worker processes; ``map`` returns them in order, so results do not depend
    on ``jobs``.  Serially, only one tree is alive at a time.
    """
    count = shift_count(g.n)
    if jobs <= 1:
        yield from padded_stretch_rows(g, a, range(count))
        return
    from concurrent.futures import ProcessPoolExecutor

    chunks = [range(lo, min(lo + _CHUNK, count)) for lo in range(0, count, _CHUNK)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for rows in pool.map(_chunk_rows, repeat(g), repeat(a), chunks):
            yield from rows


def _best_shift(totals: list[int]) -> int:
    """The shift of minimum total stretch; ties go to the lowest shift."""
    return min(range(len(totals)), key=totals.__getitem__)


def explicit_distribution(g: Graph, a: LinearArrangement, jobs: int = 1) -> DistributionReport:
    """Build the tree of every shift; exact expectations, no sampling error.

    ``jobs > 1`` builds the shift trees in that many worker processes.
    """
    count = shift_count(g.n)
    sums = [0] * g.m
    per_shift: list[Fraction] = []
    totals: list[int] = []
    for per_edge, total, avg in _shift_rows(g, a, jobs):
        sums = list(map(add, sums, per_edge))
        per_shift.append(avg)
        totals.append(total)
    return DistributionReport(
        shifts=count,
        per_edge_expected_stretch=tuple(Fraction(s, count) for s in sums),
        per_shift_avg_stretch=tuple(per_shift),
        best_shift=_best_shift(totals),
    )


def cutwidth_tree(
    g: Graph,
    a: LinearArrangement,
    *,
    seed: int | None = None,
    best_shift: bool = False,
) -> tuple[int, StretchReport]:
    """Cutwidth-witness spanning tree: one sampled shift, or the best of all.

    best_shift mode derandomizes by exhaustion: it evaluates every shift
    and returns the tree of minimum average stretch (lowest shift on ties).
    """
    if best_shift == (seed is not None):
        raise ValueError("choose exactly one of seed= or best_shift=True")
    if seed is not None:
        return sample_tree(g, a, seed)
    # only the totals are kept, so the winning tree is built once more
    shift = _best_shift([total for _, total, _ in _shift_rows(g, a)])
    return shift, build_shift_tree(g, a, shift)
