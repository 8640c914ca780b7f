"""Link models.

:class:`TraceDrivenLink` reproduces Mahimahi's ``mm-link`` semantics:
a trace (:func:`as_trace`) is an ``array('i')`` of ms timestamps; each
grants one delivery opportunity of up to ``MTU`` bytes.  Unused
opportunity bytes within a slot may be used by the next queued packet
(packet-granular, as in Mahimahi: an opportunity delivers at most one
packet; a packet larger than MTU would consume multiple opportunities,
but we cap datagrams at MTU so one opportunity == up to one packet).
The trace wraps around when exhausted.  Packets wait in a droptail
FIFO queue bounded in bytes.

:class:`ConstantRateLink` is a fluid-approximation link used in unit
tests and calibration: serialization time = size / rate.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Iterable, Optional
from weakref import WeakValueDictionary

from repro.netem.packet import MTU, Datagram
from repro.sim.event_loop import EventLoop

DeliverFn = Callable[[Datagram], None]

#: traces :func:`as_trace` passed, by identity; entries go with them
_CHECKED: "WeakValueDictionary[int, array]" = WeakValueDictionary()


def as_trace(trace_ms: Iterable[int]) -> array:
    """``trace_ms`` as a trace: a non-empty ``array('i')`` of
    non-negative, non-decreasing ms timestamps, kept as given (links,
    paths and sessions share it: read-only once built) or copied from
    any other int sequence; checked once, 1,024 timestamps at a time."""
    if _CHECKED.get(id(trace_ms)) is trace_ms:
        return trace_ms
    if not (isinstance(trace_ms, array) and trace_ms.typecode == "i"):
        try:
            trace_ms = array("i", trace_ms)
        except OverflowError as exc:
            raise ValueError("trace timestamps must fit in 32 bits") from exc
    if not trace_ms:
        raise ValueError("trace must contain at least one opportunity")
    if trace_ms[0] < 0:
        raise ValueError("trace timestamps must be non-negative")
    last = 0
    for i in range(0, len(trace_ms), 1024):
        part = trace_ms[i:i + 1024].tolist()
        if part[0] < last or part != sorted(part):
            raise ValueError("trace timestamps must be non-decreasing")
        last = part[-1]
    _CHECKED[id(trace_ms)] = trace_ms
    return trace_ms


@dataclass
class LinkStats:
    """Counters every link keeps; benches read these for cost metrics."""

    packets_in: int = 0
    packets_dropped: int = 0
    bytes_out: int = 0


class _QueueMixin:
    """Shared droptail queue behaviour."""

    queue_limit_bytes: int
    stats: LinkStats
    _queue: Deque[Datagram]
    _queued_bytes: int

    def _enqueue(self, dgram: Datagram) -> bool:
        """Add to the FIFO; drop (and count) if the queue is full."""
        self.stats.packets_in += 1
        if self._queued_bytes + dgram.wire_size > self.queue_limit_bytes:
            self.stats.packets_dropped += 1
            return False
        self._queue.append(dgram)
        self._queued_bytes += dgram.wire_size
        return True

    def _dequeue(self) -> Datagram:
        dgram = self._queue.popleft()
        self._queued_bytes -= dgram.wire_size
        return dgram

    @property
    def queue_depth_packets(self) -> int:
        return len(self._queue)


class ConstantRateLink(_QueueMixin):
    """Fluid link: serialization delay = wire_size / rate."""

    def __init__(self, loop: EventLoop, rate_bps: float, deliver: DeliverFn,
                 queue_limit_bytes: int = 256 * 1024) -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.loop = loop
        self.rate_bps = float(rate_bps)
        self.deliver = deliver
        self.queue_limit_bytes = queue_limit_bytes
        self.stats = LinkStats()
        self._queue: Deque[Datagram] = deque()
        self._queued_bytes = 0
        self._busy = False
        self._transmitting: Optional[Datagram] = None

    def send(self, dgram: Datagram) -> None:
        """Accept a datagram for transmission."""
        if not self._enqueue(dgram):
            return
        if not self._busy:
            self._transmit_next()

    def _transmit_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        dgram = self._dequeue()
        tx_time = dgram.wire_size * 8.0 / self.rate_bps
        # At most one datagram serializes at a time, so a single slot
        # replaces the per-packet closure the loop used to allocate.
        self._transmitting = dgram
        self.loop.schedule_after(tx_time, self._tx_done)

    def _tx_done(self) -> None:
        dgram = self._transmitting
        self._transmitting = None
        self.stats.bytes_out += dgram.wire_size
        self.deliver(dgram)
        self._transmit_next()


class TraceDrivenLink(_QueueMixin):
    """Mahimahi-style trace-replaying link.

    ``trace_ms`` is a trace (:func:`as_trace`, held, not copied) of ms
    offsets; each entry is one opportunity to deliver one packet of up
    to MTU bytes.  The trace wraps: after the last entry, it repeats
    shifted by the trace duration.  An empty region in the trace (no
    timestamps) is a link outage -- exactly how Mahimahi models the
    zero-throughput window in the paper's Fig. 1a.
    """

    def __init__(self, loop: EventLoop, trace_ms: Iterable[int],
                 deliver: DeliverFn,
                 queue_limit_bytes: int = 256 * 1024) -> None:
        self.trace_ms = as_trace(trace_ms)
        self.loop = loop
        # Trace duration for wrap-around: the last timestamp + 1 ms.
        self.period_ms = self.trace_ms[-1] + 1
        self.deliver = deliver
        self.queue_limit_bytes = queue_limit_bytes
        self.stats = LinkStats()
        self._queue: Deque[Datagram] = deque()
        self._queued_bytes = 0
        self._opportunity_idx = 0
        self._wraps = 0
        self._pump_scheduled = False

    # -- public API ----------------------------------------------------

    def send(self, dgram: Datagram) -> None:
        """Accept a datagram; it departs at the next delivery opportunity."""
        if dgram.wire_size > MTU:
            raise ValueError(
                f"datagram wire size {dgram.wire_size} exceeds MTU {MTU}"
            )
        if not self._enqueue(dgram):
            return
        self._schedule_pump()

    def _schedule_pump(self) -> None:
        if self._pump_scheduled or not self._queue:
            return
        # Fast-forward past opportunities that are already in the past.
        # Everything lives in locals: dense traces can skip thousands of
        # expired slots per call after an idle period.
        now = self.loop.now
        trace = self.trace_ms
        n = len(trace)
        period = self.period_ms
        idx = self._opportunity_idx
        wraps = self._wraps
        t = (wraps * period + trace[idx]) / 1000.0
        limit = now - 1e-12
        while t < limit:
            idx += 1
            if idx >= n:
                idx = 0
                wraps += 1
            t = (wraps * period + trace[idx]) / 1000.0
        self._opportunity_idx = idx
        self._wraps = wraps
        self._pump_scheduled = True
        self.loop.schedule_at(t if t > now else now, self._pump)

    def _pump(self) -> None:
        # One event drains *every* opportunity in the current slot
        # (high-rate traces put many identical ms timestamps in a row),
        # instead of re-scheduling one event per packet at the same
        # virtual instant.  ``_pump_scheduled`` stays True while we
        # drain so reentrant send() calls from deliver() cannot
        # schedule a second pump against opportunities this loop is
        # about to consume.
        queue = self._queue
        stats = self.stats
        deliver = self.deliver
        trace = self.trace_ms
        n = len(trace)
        period = self.period_ms
        limit = self.loop.now + 1e-12
        while queue:
            idx = self._opportunity_idx
            t = (self._wraps * period + trace[idx]) / 1000.0
            if t > limit:
                break
            idx += 1
            if idx >= n:
                idx = 0
                self._wraps += 1
            self._opportunity_idx = idx
            dgram = queue.popleft()
            self._queued_bytes -= dgram.wire_size
            stats.bytes_out += dgram.wire_size
            deliver(dgram)
        self._pump_scheduled = False
        if queue:
            self._schedule_pump()
