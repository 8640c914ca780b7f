"""QoE metrics: session aggregation and A/B comparison helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.video.player import PlayerStats


@dataclass
class SessionMetrics:
    """Flattened per-session results for population aggregation."""

    request_completion_times: List[float] = field(default_factory=list)
    first_frame_latency: Optional[float] = None
    rebuffer_time: float = 0.0
    play_time: float = 0.0
    redundant_bytes: int = 0
    useful_bytes: int = 0
    buffer_level_samples: List[float] = field(default_factory=list)

    @classmethod
    def from_player(cls, stats: PlayerStats, redundant_bytes: int = 0,
                    useful_bytes: int = 0) -> "SessionMetrics":
        return cls(
            request_completion_times=list(stats.request_completion_times),
            first_frame_latency=stats.first_frame_latency,
            rebuffer_time=stats.rebuffer_time,
            play_time=stats.play_time,
            redundant_bytes=redundant_bytes,
            useful_bytes=useful_bytes,
            buffer_level_samples=[s[2] for s in stats.buffer_level_samples],
        )


def aggregate_rebuffer_rate(sessions: Iterable[SessionMetrics]) -> float:
    """sum(rebuffer time) / sum(play time) over a population (Sec. 7.2)."""
    total_rebuffer = 0.0
    total_play = 0.0
    for s in sessions:
        total_rebuffer += s.rebuffer_time
        total_play += s.play_time
    if total_play <= 0:
        return 0.0
    return total_rebuffer / total_play


def improvement_percent(baseline: float, treatment: float) -> float:
    """Relative improvement of treatment over baseline, in percent.

    Positive = treatment is better (smaller metric).  Matches how the
    paper reports 'XX% improvement in rebuffer rate / RCT'.  Against a
    zero baseline any worse treatment is an unbounded regression
    (``-inf``) and an equal one is parity (``0.0``).
    """
    if baseline == 0:
        return 0.0 if treatment == baseline else \
            math.copysign(math.inf, baseline - treatment)
    return (baseline - treatment) / baseline * 100.0
