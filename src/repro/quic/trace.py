"""Structured connection tracing (qlog-style).

XQUIC ships an event log used to debug production incidents; this is
the emulator's equivalent.  A :class:`ConnectionTracer` attaches to a
connection and records typed events with virtual timestamps --
datagrams sent/received, re-injections, QoE feedback and robustness
drops, the five observer hooks a connection has.  Acks, losses and path
state changes are not recorded yet (ROADMAP item 3).  Traces can be
filtered, summarized, and exported as JSON-lines for offline analysis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    time: float
    category: str         # "packet" | "recovery" | "path" | "qoe" | ...
    name: str             # e.g. "packet_sent", "reinjection"
    data: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({"time": round(self.time, 9),
                           "category": self.category,
                           "name": self.name, "data": self.data},
                          sort_keys=True)


class ConnectionTracer:
    """Collects :class:`TraceEvent` records from one connection.

    Attach with :meth:`install`; the tracer registers observer hooks
    (``add_transmit_hook`` / ``add_receive_hook`` / ...) on the
    connection -- nothing is monkey-patched.
    """

    def __init__(self, max_events: int = 1_000_000) -> None:
        self.events: List[TraceEvent] = []
        self.max_events = max_events
        self._conn = None
        self.dropped = 0

    # -- recording --------------------------------------------------------

    def record(self, time: float, category: str, name: str,
               **data: Any) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(TraceEvent(time=time, category=category,
                                      name=name, data=data))

    # -- installation -------------------------------------------------------

    def install(self, conn) -> None:
        """Observe a :class:`repro.quic.connection.Connection`.

        Registers on the connection's observer-hook API (transmit,
        receive, re-injection, QoE); nothing on the connection is
        wrapped or replaced, so any number of observers can coexist.
        """
        if self._conn is not None:
            raise RuntimeError("tracer already installed")
        self._conn = conn

        def on_transmit(net_path_id: int, payload: bytes) -> None:
            self.record(conn.loop.now, "packet", "datagram_sent",
                        net_path=net_path_id, size=len(payload))

        def on_receive(payload: bytes, net_path_id: int = -1) -> None:
            self.record(conn.loop.now, "packet", "datagram_received",
                        net_path=net_path_id, size=len(payload))

        def on_reinjection(chunk, position) -> None:
            self.record(conn.loop.now, "recovery", "reinjection",
                        stream_id=chunk.stream_id,
                        offset=chunk.offset, length=chunk.length,
                        exclude_path=chunk.exclude_path,
                        position=position)

        def on_qoe(qoe) -> None:
            self.record(conn.loop.now, "qoe", "feedback_received",
                        cached_bytes=qoe.cached_bytes,
                        cached_frames=qoe.cached_frames,
                        bps=qoe.bps, fps=qoe.fps)

        def on_drop(reason: str, size: int) -> None:
            self.record(conn.loop.now, "robustness", "drop",
                        reason=reason, size=size)

        conn.add_transmit_hook(on_transmit)
        conn.add_receive_hook(on_receive)
        conn.add_reinjection_hook(on_reinjection)
        conn.add_qoe_hook(on_qoe)
        conn.add_drop_hook(on_drop)

    # -- queries --------------------------------------------------------------

    def filter(self, category: Optional[str] = None,
               name: Optional[str] = None) -> List[TraceEvent]:
        out = self.events
        if category is not None:
            out = [e for e in out if e.category == category]
        if name is not None:
            out = [e for e in out if e.name == name]
        return list(out)

    def count(self, name: str) -> int:
        return sum(1 for e in self.events if e.name == name)

    def bytes_sent_by_path(self) -> Dict[int, int]:
        """Total datagram bytes per network path."""
        out: Dict[int, int] = {}
        for e in self.filter(name="datagram_sent"):
            path = e.data["net_path"]
            out[path] = out.get(path, 0) + e.data["size"]
        return out

    def reinjection_timeline(self) -> List[tuple]:
        """(time, cumulative re-injected bytes) pairs."""
        total = 0
        out = []
        for e in self.filter(name="reinjection"):
            total += e.data["length"]
            out.append((e.time, total))
        return out

    # -- export ---------------------------------------------------------------

    def to_jsonl(self) -> str:
        return "\n".join(e.to_json() for e in self.events)

    def save(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.to_jsonl())
            if self.events:
                f.write("\n")

    @staticmethod
    def load_events(path) -> List[TraceEvent]:
        events = []
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                raw = json.loads(line)
                events.append(TraceEvent(time=raw["time"],
                                         category=raw["category"],
                                         name=raw["name"],
                                         data=raw["data"]))
        return events
