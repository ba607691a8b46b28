"""Summary and comparison statistics for benchmark results.

Everything here is pure Python and seeded, so two calls with the same
inputs and seed return the same numbers.  Quartiles use the same rule
as :func:`statistics.quantiles` (``n=4``, exclusive method) because that
is the rule by which run-to-run spread is judged.
"""

from __future__ import annotations

import math
import random
import statistics
from typing import Callable, Sequence

Statistic = Callable[[Sequence[float]], float]


def median(values: Sequence[float]) -> float:
    """The median; raises ``ValueError`` on an empty sequence."""
    if not values:
        raise ValueError("median of an empty sequence")
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` by ``statistics.quantiles(values, n=4)``.

    A single value is its own quartiles.
    """
    if not values:
        raise ValueError("quartiles of an empty sequence")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 when the
    median is 0 and the values agree, infinity when only the median is 0)."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(q2)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``0 <= q <= 100``)."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


def bootstrap_ci(
    values: Sequence[float],
    statistic: Statistic = median,
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> tuple[float, float, float]:
    """``(point, low, high)``: the statistic and its percentile-bootstrap
    confidence interval."""
    if not values:
        raise ValueError("bootstrap of an empty sequence")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    rng = random.Random(seed)
    n = len(values)
    draws = sorted(
        statistic([values[rng.randrange(n)] for __ in range(n)])
        for __ in range(resamples)
    )
    tail = (1 - confidence) / 2 * 100
    return (
        statistic(values),
        percentile(draws, tail),
        percentile(draws, 100 - tail),
    )


def paired_bootstrap_delta(
    parent: Sequence[float],
    change: Sequence[float],
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> tuple[float, float, float]:
    """``(point, low, high)`` of the relative change ``change / parent - 1``
    in the median, resampling *pairs* so run-order drift cancels.

    ``parent[i]`` and ``change[i]`` must come from the same pair of runs.
    """
    if len(parent) != len(change):
        raise ValueError(
            f"paired samples differ in length: {len(parent)} vs {len(change)}"
        )
    if not parent:
        raise ValueError("bootstrap of an empty sequence")

    def relative(pairs: Sequence[tuple[float, float]]) -> float:
        base = median([p for p, __ in pairs])
        if base == 0:
            return 0.0
        return median([c for __, c in pairs]) / base - 1.0

    pairs = list(zip(parent, change))
    return bootstrap_ci(
        pairs, relative, confidence=confidence, resamples=resamples, seed=seed
    )


def win_share(
    parent: Sequence[float], change: Sequence[float], better: str
) -> float:
    """Share of pairs in which the change beats the parent; ties count
    for neither side."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if len(parent) != len(change) or not parent:
        raise ValueError("win share needs equally long, non-empty samples")
    sign = -1 if better == "lower" else 1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    return wins / len(parent)
