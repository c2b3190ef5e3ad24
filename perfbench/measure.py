"""Summaries the benchmark reports: medians, tails, rates, memory."""

from __future__ import annotations

import resource
import statistics
from typing import Dict, Sequence, Tuple

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value, n)`` by nearest rank: with ``n``
    sorted samples, rank ``n - 10`` is the highest with ten beyond it.
    With fewer than 21 samples that rank falls below the median, so the
    median is returned instead (percentile 50), never a "tail" under it.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("tail() of no samples")
    ordered = sorted(samples)
    rank = n - TAIL_BEYOND
    if rank < (n + 1) // 2:
        return 50.0, statistics.median(ordered), n
    return 100.0 * rank / n, ordered[rank - 1], n


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("median() of no samples")
    return statistics.median(samples)


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB, from ``getrusage``."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Peak RSS of the largest waited-for child process, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def ratio(num: float, den: float, empty: float = 0.0) -> float:
    return num / den if den else empty


def p50_or_zero(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def tail_or_zero(samples: Sequence[float]) -> float:
    return tail(samples)[1] if samples else 0.0
