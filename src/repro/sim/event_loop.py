"""Binary-heap event loop.

Events fire in ``(time, sequence)`` order; the sequence number is a
monotonically increasing insertion counter, so events scheduled for the
same instant run first-scheduled-first.  Determinism here is what makes
every benchmark in the repository reproducible.

Hot-path notes: the heap stores raw ``(time, seq, event)`` tuples so
ordering is plain tuple comparison (``seq`` is unique, so the
:class:`Event` object itself is never compared), :class:`Event` uses
``__slots__``, and :meth:`EventLoop.run` keeps the heap and ``heappop``
in locals.  Cancelled events are skipped lazily when they
reach the top of the heap; when more than half the heap is dead the
loop compacts it in place so long-lived simulations with heavy timer
re-arming (QUIC PTO timers) do not drag a graveyard around.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

#: Compaction is considered once at least this many cancellations are
#: pending; below it the lazy top-of-heap skip is always cheaper.
_COMPACT_MIN_CANCELLED = 64

#: Runaway guard: events one :meth:`EventLoop.run` call may execute.
MAX_EVENTS = 50_000_000


class SimulationError(RuntimeError):
    """Raised when the simulation is driven incorrectly."""


class Event:
    """A scheduled callback.  Heap ordering uses the entry's (time, seq)."""

    __slots__ = ("time", "callback", "cancelled", "_loop")

    def __init__(self, time: float, callback: Callable[[], Any],
                 loop: "EventLoop") -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False
        self._loop = loop

    def cancel(self) -> None:
        """Mark the event dead; the loop will skip it when popped."""
        if not self.cancelled:
            self.cancelled = True
            self._loop._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, {state})"


class EventLoop:
    """Discrete-event executor in virtual time."""

    def __init__(self) -> None:
        #: current virtual time in seconds, starting at 0.0; only the
        #: loop advances it, and never backwards
        self.now = 0.0
        #: heap of (time, seq, Event); tuple order never reaches the Event
        self._heap: list = []
        self._seq = 0
        self._running = False
        self._cancelled_pending = 0
        self._stop_requested = False

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at absolute virtual ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {time:.9f} < {self.now:.9f}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, callback, self)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def schedule_after(self, delay: float,
                       callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, callback)

    def _note_cancelled(self) -> None:
        """Track a cancellation; compact the heap when mostly dead.

        Compaction mutates ``self._heap`` in place (slice assignment)
        because :meth:`run` holds a local reference to the list.
        """
        self._cancelled_pending += 1
        heap = self._heap
        if (self._cancelled_pending >= _COMPACT_MIN_CANCELLED
                and self._cancelled_pending * 2 > len(heap)):
            heap[:] = [entry for entry in heap if not entry[2].cancelled]
            heapq.heapify(heap)
            self._cancelled_pending = 0

    def clear(self) -> None:
        """Drop every pending event and its callback.

        Part of a finished world's teardown: the heap is the loop's one
        edge to the objects its callbacks belong to, and a pending event
        whose owner keeps a handle to it (a timer) would still reach
        that owner, so each event's callback goes too.  ``now`` keeps
        its reading.
        """
        for entry in self._heap:
            entry[2].callback = None
        self._heap.clear()
        self._cancelled_pending = 0

    def step(self) -> bool:
        """Run the next live event.  Returns False if none remain."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            time, _seq, event = pop(heap)
            if event.cancelled:
                self._cancelled_pending -= 1
                continue
            # monotonic by construction: schedule_at rejects past times
            self.now = time
            event.callback()
            return True
        return False

    def request_stop(self) -> None:
        """Ask a running :meth:`run` to return after the current event.

        Lets batched drivers (``repro.host.runtime``) run the loop in
        one tight native loop and still stop the instant a callback
        observes its completion condition, instead of re-evaluating the
        condition between every pair of events.
        """
        self._stop_requested = True

    def run(self, until: Optional[float] = None,
            stop_before: Optional[float] = None) -> float:
        """Run events until the queue drains or virtual ``until`` is reached.

        Returns the final virtual time.  Exactly :data:`MAX_EVENTS`
        events may execute; the guard raises :class:`SimulationError`
        only when a further live event is still pending (so a queue that
        drains at the limit is fine).

        ``stop_before`` reproduces the classic ``while loop.now < t:
        step()`` driver exactly: the event that carries the clock to or
        past ``stop_before`` still executes, and the loop returns
        before running the one after it.  (``until`` is different: it
        stops *before* crossing the horizon.  When a live event lies
        past ``until``, ``now`` advances to exactly ``until``; when the
        heap drains first, ``now`` stays at the last event run.  An
        ``until`` earlier than ``now`` raises ``ValueError`` rather than
        move time backwards.)
        """
        if self._running:
            raise SimulationError("event loop is not reentrant")
        if until is not None and until < self.now:
            raise ValueError(f"time cannot go backwards: "
                             f"{until:.9f} < {self.now:.9f}")
        self._running = True
        self._stop_requested = False
        heap = self._heap  # compaction mutates in place, so this local
        pop = heapq.heappop  # stays valid across callbacks
        max_events = MAX_EVENTS
        executed = 0
        try:
            while heap:
                if stop_before is not None and self.now >= stop_before:
                    break
                entry = heap[0]
                event = entry[2]
                if event.cancelled:
                    pop(heap)
                    self._cancelled_pending -= 1
                    continue
                time = entry[0]
                if until is not None and time > until:
                    self.now = until
                    break
                if executed >= max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; runaway simulation?"
                    )
                pop(heap)
                # monotonic: schedule_at rejects the past
                self.now = time
                executed += 1
                event.callback()
                if self._stop_requested:
                    break
            return self.now
        finally:
            self._running = False
