"""Percentiles and the Table 1 accuracy figure.

Tail percentiles use the nearest-rank rule: the q-th percentile of n
sorted samples is the sample at rank ceil(q * n), so ``n - ceil(q * n)``
samples lie beyond it.  A tail percentile is only reported with at
least :data:`MIN_BEYOND` samples beyond it; with fewer samples the
level drops to the highest one that still has them.  A p50 is the
median (the mean of the two middle samples when n is even).
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def _rank(q: float, n: int) -> int:
    # The epsilon keeps 0.99 * 1000 at rank 990, not 991.
    return max(1, math.ceil(q * n - 1e-9))


def beyond(q: float, n: int) -> int:
    """How many of ``n`` samples lie beyond the q-th percentile."""
    return n - _rank(q, n)


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile (``0 < q <= 1``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(q, len(ordered)) - 1]


def tail_level(n: int, wanted: float) -> float:
    """``wanted``, or the highest level with MIN_BEYOND samples beyond
    it when ``n`` samples are too few for ``wanted``."""
    if beyond(wanted, n) >= MIN_BEYOND:
        return wanted
    if n <= MIN_BEYOND:
        raise ValueError(f"{n} samples cannot have {MIN_BEYOND} beyond "
                         "any percentile")
    return (n - MIN_BEYOND) / n


def tail(values, wanted: float) -> tuple[float, float]:
    """(level, value) of the tail percentile by the MIN_BEYOND rule."""
    level = tail_level(len(values), wanted)
    return level, percentile(values, level)


def median(values) -> float:
    """The p50 of every metric."""
    return statistics.median(values)


def table1_error(results) -> float:
    """Mean over the (agent, variants) pairs of Table 1 of
    |measured mean slowdown - paper| / paper.  ``results`` are
    :class:`repro.experiments.runner.ExperimentResult`."""
    from repro.experiments.tables import TABLE1_PAPER
    from repro.perf.report import aggregate_slowdowns

    measured = aggregate_slowdowns([r.to_slowdown() for r in results])
    errors = [abs(measured[key] - paper) / paper
              for key, paper in TABLE1_PAPER.items() if key in measured]
    if not errors:
        raise ValueError("no Table 1 pair was measured")
    return sum(errors) / len(errors)
