"""Percentiles.

The paper reports medians, 90/95/99-th percentiles throughout; this
module provides the single implementation every bench uses (linear
interpolation, matching numpy's default).
"""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile, pct in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile {pct} out of range")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = pct / 100.0 * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    value = ordered[lo] * (1 - frac) + ordered[hi] * frac
    # Interpolation rounding must not escape the sample range.
    return min(max(value, ordered[lo]), ordered[hi])
