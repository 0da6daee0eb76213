"""Order statistics the benchmark reports.

A timing is reported as its median and its *tail*: the highest whole
percentile that still has at least :data:`TAIL_BEYOND` samples above it
(nearest-rank definition).  The percentile therefore depends only on the
sample count, which each workload fixes per pass, so the same percentile
is compared from run to run; :func:`pooled_tail` applies it to the samples
of every pass of a run.
"""

from __future__ import annotations

import math
import statistics

#: samples that must lie strictly above the reported tail value
TAIL_BEYOND = 10


def percentile(values, p: float):
    """Nearest-rank ``p``-th percentile of ``values`` (0 < p <= 100)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    rank = math.ceil(p / 100 * len(ordered))
    return ordered[max(rank, 1) - 1]


def tail_percentile(n: int) -> int | None:
    """The highest whole percentile (at most 99) with at least
    :data:`TAIL_BEYOND` of ``n`` samples strictly beyond it.

    ``None`` when ``n`` is too small for any percentile to qualify
    (``n <= TAIL_BEYOND``).
    """
    if n <= TAIL_BEYOND:
        return None
    return min(99, (100 * (n - TAIL_BEYOND)) // n)


def pooled_tail(per_pass: list) -> tuple[int, float] | None:
    """The tail of several passes' samples pooled together.

    The percentile is the one :func:`tail_percentile` gives for a single
    pass, so it is fixed by the workload's op list and not by how many
    passes fit in the run; pooling only adds samples beyond it.
    """
    p = tail_percentile(min((len(s) for s in per_pass), default=0))
    if p is None:
        return None
    return p, percentile([v for s in per_pass for v in s], p)


def median(values) -> float:
    """The median (mean of the middle two for an even count)."""
    return statistics.median(values)
