"""Order statistics, the tail-percentile rule, and bound checks."""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence

#: Candidate tail percentiles, highest first.  p75 serves workloads with
#: few, slow cells (``contention`` pools 64 samples from four passes).
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)

#: Samples a tail percentile needs beyond it to be reported.
MIN_BEYOND = 10


def rank(n: int, p: float) -> int:
    """Nearest-rank position (1-based) of the ``p``-th percentile of ``n``
    samples."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of ``values``."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def tail_percentile(n: int) -> float:
    """The highest of :data:`TAIL_PERCENTILES` with at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it; 100 (the maximum) when
    none has, which only a smoke run reaches."""
    for p in TAIL_PERCENTILES:
        if n - rank(n, p) >= MIN_BEYOND:
            return p
    return 100


def latency_samples(per_cell: Sequence[Sequence[float]]) -> List[float]:
    """The latency samples a workload's p50 and tail are taken over, from
    each cell's latencies in the timed passes.

    When the cells alone are enough for a tail percentile, each cell
    contributes one sample, the median of its passes: a 70 us lookup hit
    by a scheduler hiccup then moves no percentile (the ``warm-cache``
    tail spread 0.17 between runs with every pass pooled and 0.05 with
    per-cell medians).  A workload of a few slow cells pools every pass.
    """
    if tail_percentile(len(per_cell)) < 100:
        return [statistics.median(latencies) for latencies in per_cell]
    return [latency for latencies in per_cell for latency in latencies]


def relative_iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


def regressed(better: str, bound: float, base: float, value: float) -> bool:
    """Whether ``value`` is worse than ``base`` by more than ``bound``, a
    share of ``base``, in the direction ``better`` (``"lower"`` or
    ``"higher"``)."""
    if better == "lower":
        return value > base * (1.0 + bound)
    if better == "higher":
        return value < base * (1.0 - bound)
    raise ValueError(f"unknown direction {better!r}")


#: The largest bound a metric may have.
BOUND_CAP = 0.25


def derive_bound(spreads: Sequence[float], floor: float) -> float:
    """``max(floor, 3 x the widest relative IQR)``, at most
    :data:`BOUND_CAP`."""
    return min(BOUND_CAP, round(max(floor, 3.0 * max(spreads)), 3))
