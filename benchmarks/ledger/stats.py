"""Summary statistics and the regression verdict used by the ledger."""

from __future__ import annotations

import statistics
from typing import Sequence

import numpy as np

__all__ = ["median", "tail_percentile", "percentile", "spread", "verdict"]

#: Beyond the reported tail percentile there must be this many samples.
MIN_TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    return float(np.percentile(values, pct))


def tail_percentile(
    values: Sequence[float], candidates: Sequence[int] = (99, 95, 90, 75)
) -> tuple[int, float] | None:
    """The highest candidate percentile with >= 10 samples beyond it.

    ``None`` when even the lowest candidate has fewer: a tail read off
    a handful of samples is a maximum, not a percentile.
    """
    for pct in sorted(candidates, reverse=True):
        if len(values) * (100 - pct) / 100.0 >= MIN_TAIL_SAMPLES:
            return pct, percentile(values, pct)
    return None


def spread(values: Sequence[float]) -> float:
    """(max - min) / median of a metric's per-pass values."""
    if not values:
        return 0.0
    mid = median(values)
    return (max(values) - min(values)) / mid if mid else 0.0


def verdict(
    base: Sequence[float],
    new: Sequence[float],
    bound: float,
    better: str = "lower",
) -> tuple[str, float]:
    """``(verdict, ratio)`` of new against base per-pass values.

    ``ratio`` is new median / base median.  ``regressed`` when the
    median worsened by more than ``bound``; ``unresolved`` when either
    side's own pass-to-pass spread is wider than the bound, so the
    medians cannot tell — unless every new pass beats every base pass,
    which no spread can explain away.
    """
    base_mid, new_mid = median(base), median(new)
    ratio = new_mid / base_mid if base_mid else (1.0 if not new_mid else float("inf"))
    sign = 1.0 if better == "lower" else -1.0
    if base and new and all(
        sign * n < sign * b for n in new for b in base
    ):
        return "ok", ratio
    if max(spread(base), spread(new)) > bound:
        return "unresolved", ratio
    worse_by = sign * (ratio - 1.0)
    return ("regressed" if worse_by > bound else "ok"), ratio
