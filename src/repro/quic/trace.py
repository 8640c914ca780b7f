"""Structured connection tracing (qlog-style).

XQUIC ships an event log used to debug production incidents; this is
the emulator's equivalent.  A :class:`ConnectionTracer` listens to a
connection and records every event it emits, with virtual timestamps:
datagrams sent and received, ACK_MP processing, loss-timer and PTO
firings, re-injections, QoE feedback, path state changes and
robustness drops.  Traces can be filtered, summarized, and exported as
JSON-lines for offline analysis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List

#: every kind ``Connection.emit`` is called with -> its trace category.
#: Datagram events carry the wire bytes as ``payload``; the rest carry
#: plain numbers and names.
EVENTS = {
    "datagram_sent": "packet",          # Sender.send_datagram
    "datagram_received": "packet",      # Receiver.on_datagram, first
    "ack_received": "recovery",         # AckHandler.on_ack_mp
    "loss_timer": "recovery",           # Timers.on_loss_timer
    "pto": "recovery",                  # Timers.on_pto
    "reinjection": "recovery",          # Sender.enqueue_reinjection
    "feedback_received": "qoe",         # AckHandler.on_qoe
    "path_updated": "path",             # Connection.path_updated
    "drop": "robustness",               # reasons mirror the counters
}


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


#: events a tracer keeps; later ones are not recorded (a guard on a
#: runaway session's memory)
MAX_TRACE_EVENTS = 1_000_000


class ConnectionTracer:
    """Collects :class:`TraceEvent` records from one connection.

    Attach with :meth:`install`; the tracer is one more entry in the
    connection's ``listeners`` -- nothing is monkey-patched.
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self._conn = None

    # -- recording --------------------------------------------------------

    def record(self, time: float, category: str, name: str,
               **data: Any) -> None:
        if len(self.events) >= MAX_TRACE_EVENTS:
            return
        self.events.append(TraceEvent(time=time, category=category,
                                      name=name, data=data))

    # -- installation -------------------------------------------------------

    def install(self, conn) -> None:
        """Record every event a :class:`repro.quic.connection.Connection`
        emits; any number of listeners can coexist."""
        if self._conn is not None:
            raise RuntimeError("tracer already installed")
        self._conn = conn

        def on_event(kind: str, fields: Dict[str, Any]) -> None:
            payload = fields.get("payload")
            if payload is not None:     # a datagram: record its size
                fields = {"net_path": fields["net_path"],
                          "size": len(payload)}
            self.record(conn.loop.now, EVENTS[kind], kind, **fields)

        conn.listeners.append(on_event)

    # -- queries --------------------------------------------------------------

    def count(self, name: str) -> int:
        return sum(1 for e in self.events if e.name == name)

    # -- export ---------------------------------------------------------------

    def to_jsonl(self) -> str:
        return "\n".join(e.to_json() for e in self.events)

    def save(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.to_jsonl())
            if self.events:
                f.write("\n")
