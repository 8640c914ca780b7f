"""Streaming per-scheme QoE accumulation for fleet runs.

A :class:`MetricSink` is what crosses the process-pool boundary in a
sharded fleet run: each worker folds its slice of session outcomes
into one sink and ships only the sink back, so memory on both sides
is O(schemes x buckets) regardless of population size.

Per scheme it accumulates the QoE fields the paper's Tables 1/3
report -- request completion times, startup delay, rebuffer rate,
re-injection overhead -- as :class:`~repro.metrics.sketch.DistSketch`
distributions plus integer/fixed-point totals, all with the same
order-independent merge contract as the sketches: merging shard sinks
in any order yields a digest identical to the serial run.

Empty state is well-defined everywhere: a scheme with zero sessions
reports ``count=0``, ``None`` percentiles and zero rates instead of
raising, so a fleet report can render empty cells for a scheme that
never completed a session.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from repro.metrics.sketch import (DEFAULT_ALPHA, DEFAULT_EXACT_LIMIT,
                                  DistSketch, _quantize)

__all__ = ["SchemeSink", "MetricSink", "QUANTUM"]

QUANTUM = 1e-9

#: The sketched distribution fields of one scheme sink, in canonical
#: order (used by merge, digest and the memory-footprint proxy).
SKETCH_FIELDS = ("rct", "startup", "session_rebuffer_rate",
                 "buffer_level", "duration")


class SchemeSink:
    """Streaming QoE aggregate for one transport scheme."""

    __slots__ = ("scheme", "sessions", "completed", "failures",
                 "rct", "startup", "session_rebuffer_rate", "buffer_level",
                 "duration", "rebuffer_q", "play_q",
                 "redundant_bytes", "useful_bytes",
                 "reinjected_bytes", "new_stream_bytes")

    def __init__(self, scheme: str, alpha: float = DEFAULT_ALPHA,
                 exact_limit: int = DEFAULT_EXACT_LIMIT) -> None:
        self.scheme = scheme
        self.sessions = 0
        self.completed = 0
        #: execution failures, keyed by exception type name
        self.failures: Dict[str, int] = {}
        self.rct = DistSketch(alpha, exact_limit)
        self.startup = DistSketch(alpha, exact_limit)
        self.session_rebuffer_rate = DistSketch(alpha, exact_limit)
        self.buffer_level = DistSketch(alpha, exact_limit)
        self.duration = DistSketch(alpha, exact_limit)
        self.rebuffer_q = 0      # fixed-point totals (nanoseconds)
        self.play_q = 0
        self.redundant_bytes = 0
        self.useful_bytes = 0
        self.reinjected_bytes = 0
        self.new_stream_bytes = 0

    # -- ingest ---------------------------------------------------------

    def observe(self, outcome) -> None:
        """Fold one ``SessionOutcome`` into the running aggregates."""
        metrics = outcome.metrics
        self.sessions += 1
        if outcome.completed:
            self.completed += 1
        for t in metrics.request_completion_times:
            self.rct.add(t)
        if metrics.first_frame_latency is not None:
            self.startup.add(metrics.first_frame_latency)
        self.rebuffer_q += _quantize(metrics.rebuffer_time)
        self.play_q += _quantize(metrics.play_time)
        if metrics.play_time > 0:
            self.session_rebuffer_rate.add(
                metrics.rebuffer_time / metrics.play_time)
        for level in metrics.buffer_level_samples:
            self.buffer_level.add(level)
        self.duration.add(outcome.duration_s)
        self.redundant_bytes += metrics.redundant_bytes
        self.useful_bytes += metrics.useful_bytes
        self.reinjected_bytes += outcome.reinjected_bytes
        self.new_stream_bytes += outcome.new_stream_bytes

    def observe_failure(self, kind: str) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1

    # -- merge ----------------------------------------------------------

    def merge(self, other: "SchemeSink") -> "SchemeSink":
        if other.scheme != self.scheme:
            raise ValueError(f"cannot merge sink for {other.scheme!r} "
                             f"into {self.scheme!r}")
        self.sessions += other.sessions
        self.completed += other.completed
        for kind, n in other.failures.items():
            self.failures[kind] = self.failures.get(kind, 0) + n
        for field in SKETCH_FIELDS:
            getattr(self, field).merge(getattr(other, field))
        self.rebuffer_q += other.rebuffer_q
        self.play_q += other.play_q
        self.redundant_bytes += other.redundant_bytes
        self.useful_bytes += other.useful_bytes
        self.reinjected_bytes += other.reinjected_bytes
        self.new_stream_bytes += other.new_stream_bytes
        return self

    # -- reads ----------------------------------------------------------

    @property
    def rebuffer_rate(self) -> float:
        """Aggregate sum(rebuffer)/sum(play) (Sec. 7.2); 0 when empty."""
        if self.play_q <= 0:
            return 0.0
        return self.rebuffer_q / self.play_q

    @property
    def traffic_overhead_percent(self) -> float:
        if self.useful_bytes <= 0:
            return 0.0
        return self.redundant_bytes / self.useful_bytes * 100.0

    @property
    def reinjection_overhead_percent(self) -> float:
        if self.new_stream_bytes <= 0:
            return 0.0
        return self.reinjected_bytes / self.new_stream_bytes * 100.0

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def n_buckets(self) -> int:
        return sum(getattr(self, field).n_buckets
                   for field in SKETCH_FIELDS)

    def canonical(self) -> Tuple:
        return (self.scheme, self.sessions, self.completed,
                tuple(sorted(self.failures.items())),
                tuple(getattr(self, field).canonical()
                      for field in SKETCH_FIELDS),
                self.rebuffer_q, self.play_q,
                self.redundant_bytes, self.useful_bytes,
                self.reinjected_bytes, self.new_stream_bytes)

    def digest(self) -> str:
        return hashlib.sha256(repr(self.canonical()).encode()).hexdigest()

    # -- checkpoint serialization ---------------------------------------

    def to_dict(self) -> Dict:
        """Full-state JSON-safe form (contrast :meth:`as_dict`, the
        human-facing summary).  Digest-exact round trip via
        :meth:`from_dict`: counters are ints, sketches serialize
        through :meth:`DistSketch.to_dict`."""
        state = {
            "scheme": self.scheme,
            "sessions": self.sessions,
            "completed": self.completed,
            "failures": dict(sorted(self.failures.items())),
            "rebuffer_q": self.rebuffer_q,
            "play_q": self.play_q,
            "redundant_bytes": self.redundant_bytes,
            "useful_bytes": self.useful_bytes,
            "reinjected_bytes": self.reinjected_bytes,
            "new_stream_bytes": self.new_stream_bytes,
        }
        for field in SKETCH_FIELDS:
            state[field] = getattr(self, field).to_dict()
        return state

    @classmethod
    def from_dict(cls, state: Dict) -> "SchemeSink":
        first = DistSketch.from_dict(state[SKETCH_FIELDS[0]])
        sink = cls(state["scheme"], alpha=first.alpha,
                   exact_limit=first.exact_limit)
        sink.sessions = state["sessions"]
        sink.completed = state["completed"]
        sink.failures = {str(k): int(v)
                         for k, v in state["failures"].items()}
        for field in SKETCH_FIELDS:
            setattr(sink, field, DistSketch.from_dict(state[field]))
        sink.rebuffer_q = state["rebuffer_q"]
        sink.play_q = state["play_q"]
        sink.redundant_bytes = state["redundant_bytes"]
        sink.useful_bytes = state["useful_bytes"]
        sink.reinjected_bytes = state["reinjected_bytes"]
        sink.new_stream_bytes = state["new_stream_bytes"]
        return sink

    def as_dict(self) -> Dict:
        """JSON-friendly summary (None percentiles when empty)."""
        return {
            "scheme": self.scheme,
            "sessions": self.sessions,
            "completed": self.completed,
            "failed": self.failed,
            "rct_p50": self.rct.percentile(50),
            "rct_p90": self.rct.percentile(90),
            "rct_p95": self.rct.percentile(95),
            "rct_p99": self.rct.percentile(99),
            "startup_p50": self.startup.percentile(50),
            "startup_p95": self.startup.percentile(95),
            "rebuffer_rate": self.rebuffer_rate,
            "traffic_overhead_percent": self.traffic_overhead_percent,
        }


class MetricSink:
    """Per-scheme :class:`SchemeSink` collection with reduce semantics."""

    __slots__ = ("alpha", "exact_limit", "schemes")

    def __init__(self, alpha: float = DEFAULT_ALPHA,
                 exact_limit: int = DEFAULT_EXACT_LIMIT) -> None:
        self.alpha = alpha
        self.exact_limit = exact_limit
        self.schemes: Dict[str, SchemeSink] = {}

    def scheme(self, name: str) -> SchemeSink:
        sink = self.schemes.get(name)
        if sink is None:
            sink = SchemeSink(name, self.alpha, self.exact_limit)
            self.schemes[name] = sink
        return sink

    def observe(self, outcome) -> None:
        self.scheme(outcome.scheme).observe(outcome)

    def observe_failure(self, scheme: str, kind: str) -> None:
        self.scheme(scheme).observe_failure(kind)

    def merge(self, other: "MetricSink") -> "MetricSink":
        if (other.alpha != self.alpha
                or other.exact_limit != self.exact_limit):
            raise ValueError("cannot merge sinks with different grids")
        # Never adopt ``other``'s scheme sinks: callers pool per-day
        # sinks and keep reading the days afterwards.
        for name, scheme_sink in other.schemes.items():
            self.scheme(name).merge(scheme_sink)
        return self

    # -- reads ----------------------------------------------------------

    @property
    def sessions(self) -> int:
        return sum(s.sessions for s in self.schemes.values())

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.schemes.values())

    @property
    def n_buckets(self) -> int:
        """Total occupied sketch slots: the fleet's peak-RSS proxy."""
        return sum(s.n_buckets for s in self.schemes.values())

    def digest(self) -> str:
        """Order-independent digest over every scheme's canonical state."""
        parts = sorted((name, sink.digest())
                       for name, sink in self.schemes.items())
        return hashlib.sha256(repr(parts).encode()).hexdigest()

    def as_dict(self) -> Dict[str, Dict]:
        return {name: sink.as_dict()
                for name, sink in sorted(self.schemes.items())}

    # -- checkpoint serialization ---------------------------------------

    def to_dict(self) -> Dict:
        """Full-state JSON-safe form; digest-exact round trip."""
        return {
            "alpha": self.alpha,
            "exact_limit": self.exact_limit,
            "schemes": {name: sink.to_dict()
                        for name, sink in sorted(self.schemes.items())},
        }

    @classmethod
    def from_dict(cls, state: Dict) -> "MetricSink":
        sink = cls(alpha=state["alpha"], exact_limit=state["exact_limit"])
        sink.schemes = {name: SchemeSink.from_dict(scheme_state)
                        for name, scheme_state
                        in state["schemes"].items()}
        return sink

    def scheme_names(self) -> List[str]:
        return sorted(self.schemes)

    def get(self, name: str) -> Optional[SchemeSink]:
        return self.schemes.get(name)
