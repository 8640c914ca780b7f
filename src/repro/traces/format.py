"""Mahimahi packet-delivery trace format.

A Mahimahi trace file is one integer millisecond timestamp per line;
each line is an opportunity to deliver one 1500-byte packet.  N lines
with the same timestamp = N x 1500 bytes deliverable that millisecond.
In memory a trace is an ``array('i')``: 4 bytes per opportunity.
"""

from __future__ import annotations

from array import array
from math import floor
from pathlib import Path
from typing import Iterable, Sequence, Union

from repro.netem.packet import MTU


def load_mahimahi_trace(path: Union[str, Path]) -> array:
    """Read a Mahimahi trace file into a sorted array of ms timestamps
    (only a file out of order is sorted through a list); a line that is
    not a non-negative 32-bit integer is a ``ValueError``."""
    timestamps = array("i")
    in_order = True
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                value = int(line)
                if value < 0:
                    raise ValueError("negative timestamp")
                in_order &= not timestamps or timestamps[-1] <= value
                timestamps.append(value)
            except (ValueError, OverflowError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: bad trace line {line!r}"
                ) from exc
    return timestamps if in_order else array("i", sorted(timestamps))


def save_mahimahi_trace(trace_ms: Sequence[int],
                        path: Union[str, Path]) -> None:
    """Write timestamps in Mahimahi's one-per-line format."""
    with open(path, "w") as f:
        for ts in trace_ms:
            f.write(f"{int(ts)}\n")


def trace_from_rate_series(rates_bps: Iterable[float],
                           interval_s: float = 0.1) -> array:
    """Convert a throughput time series into delivery opportunities.

    ``rates_bps[i]`` is the link rate over window ``[i*interval,
    (i+1)*interval)``.  Opportunities are spread uniformly within each
    window, carrying fractional-packet credit across windows so the
    long-run average matches the series exactly.
    """
    if interval_s <= 0:
        raise ValueError("interval must be positive")
    trace = array("i")
    credit = 0.0
    for i, rate in enumerate(rates_bps):
        if rate < 0:
            raise ValueError("rates must be non-negative")
        start_ms = i * interval_s * 1000.0
        credit += rate * interval_s / 8.0 / MTU
        n = int(credit)
        credit -= n
        if n <= 0:
            continue
        step = interval_s * 1000.0 / n
        # per window; floor == int() for times >= 0, and is faster
        trace.fromlist([floor(start_ms + k * step) for k in range(n)])
    return trace


def trace_mean_throughput_bps(trace_ms: Sequence[int]) -> float:
    """Mean throughput implied by a trace (bytes of opportunity / duration)."""
    if not trace_ms:
        return 0.0
    duration_s = max(trace_ms[-1] + 1, 1) / 1000.0
    return len(trace_ms) * MTU * 8.0 / duration_s
