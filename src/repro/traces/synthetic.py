"""Synthetic trace generators shaped after the paper's captures.

The paper's controlled experiments replay traces from four
environments: walking on campus (Wi-Fi with a near-total outage around
t=1.7-2.2s; Fig. 1a), stable LTE (Fig. 1b), subways and high-speed
rail (deep periodic fades from tunnels/handoffs; Fig. 15).  Each
generator returns a trace (an ``array('i')`` of ms delivery
opportunities) that :class:`repro.netem.TraceDrivenLink` replays.
"""

from __future__ import annotations

import math
from array import array
from typing import List

from repro.sim.rng import make_rng
from repro.traces.format import trace_from_rate_series

MBPS = 1e6


#: Fig. 1a's campus walk: peak Wi-Fi rate and the collapse window [s)
CAMPUS_PEAK_MBPS = 30.0
CAMPUS_OUTAGE_S = (1.7, 2.2)


def campus_walk_wifi_trace(duration_s: float = 3.0,
                           seed: int = 1) -> array:
    """Fast-varying Wi-Fi with a throughput collapse, as in Fig. 1a.

    Rate oscillates between ~20% and 100% of peak on a 100 ms grid and
    drops to (almost) zero during the outage window.
    """
    peak_mbps = CAMPUS_PEAK_MBPS
    outage_start_s, outage_end_s = CAMPUS_OUTAGE_S
    rng = make_rng(seed, "campus-wifi")
    interval = 0.1
    rates: List[float] = []
    level = 0.8
    for i in range(int(duration_s / interval)):
        t = i * interval
        # Random-walk the level with heavy swings (walking past obstacles).
        level += rng.uniform(-0.35, 0.35)
        level = min(1.0, max(0.15, level))
        rate = level * peak_mbps * MBPS
        if outage_start_s <= t < outage_end_s:
            rate = 0.02 * peak_mbps * MBPS  # near-zero residual
        rates.append(rate)
    return trace_from_rate_series(rates, interval)


def stable_lte_trace(duration_s: float = 3.0, seed: int = 2,
                     mean_mbps: float = 24.0) -> array:
    """Relatively stable LTE, as in Fig. 1b: small jitter around the mean."""
    rng = make_rng(seed, "stable-lte")
    interval = 0.1
    rates = []
    for _ in range(int(duration_s / interval)):
        rates.append(mean_mbps * MBPS * rng.uniform(0.85, 1.15))
    return trace_from_rate_series(rates, interval)


def _fading_trace(duration_s: float, seed: int, label: str,
                  peak_mbps: float, fade_period_s: float,
                  fade_depth: float, fade_width_s: float,
                  jitter: float = 0.25,
                  phase_s: float = 0.0) -> array:
    """Shared generator for mobility traces with periodic deep fades."""
    rng = make_rng(seed, label)
    interval = 0.1
    rates = []
    for i in range(int(duration_s / interval)):
        t = i * interval + phase_s
        base = peak_mbps * (0.55 + 0.45 * math.sin(2 * math.pi * t / 7.0))
        base = max(base, 0.15 * peak_mbps)
        # Periodic deep fades: tunnels / cell handoffs.
        pos = t % fade_period_s
        if pos < fade_width_s:
            base *= (1.0 - fade_depth)
        rate = base * MBPS * (1.0 + rng.uniform(-jitter, jitter))
        rates.append(max(rate, 0.0))
    return trace_from_rate_series(rates, interval)


def subway_cellular_trace(duration_s: float = 30.0,
                          seed: int = 10) -> array:
    """Cellular on a subway: moderate rate, deep fades in tunnel sections."""
    return _fading_trace(duration_s, seed, "subway-cell", peak_mbps=12.0,
                         fade_period_s=8.0, fade_depth=0.97,
                         fade_width_s=2.0)


def subway_wifi_trace(duration_s: float = 30.0, seed: int = 11) -> array:
    """Onboard subway Wi-Fi: bursty, fades offset from the cellular ones."""
    return _fading_trace(duration_s, seed, "subway-wifi", peak_mbps=8.0,
                         fade_period_s=11.0, fade_depth=0.95,
                         fade_width_s=2.5, jitter=0.4, phase_s=4.0)


def high_speed_rail_cellular_trace(duration_s: float = 30.0,
                                   seed: int = 12) -> array:
    """Cellular on high-speed rail: frequent handoffs (Fig. 15a shape)."""
    return _fading_trace(duration_s, seed, "hsr-cell", peak_mbps=10.0,
                         fade_period_s=5.0, fade_depth=0.9,
                         fade_width_s=1.2, jitter=0.35)


def high_speed_rail_wifi_trace(duration_s: float = 30.0,
                               seed: int = 13) -> array:
    """Onboard HSR Wi-Fi, backhauled over cellular: low and choppy."""
    return _fading_trace(duration_s, seed, "hsr-wifi", peak_mbps=6.0,
                         fade_period_s=6.5, fade_depth=0.92,
                         fade_width_s=1.5, jitter=0.45, phase_s=2.5)
