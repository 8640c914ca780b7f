"""Composable pipeline stages: fixed delay, stochastic loss, outages.

These mirror Mahimahi's ``mm-delay`` and ``mm-loss`` shells.  Each
stage takes a ``deliver`` continuation, so a path is assembled by
nesting stages: loss -> link -> delay -> receiver.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Tuple

from repro.netem.packet import Datagram
from repro.sim.event_loop import EventLoop

DeliverFn = Callable[[Datagram], None]


class DelayBox:
    """Fixed one-way propagation delay (mm-delay).

    One FIFO of the datagrams in flight.  A fixed delay cannot reorder
    them, and the loop runs same-instant events first-scheduled-first,
    so each datagram's arrival event -- a bound method, like
    ``ConstantRateLink``'s single slot -- delivers the oldest one.
    """

    def __init__(self, loop: EventLoop, delay_s: float,
                 deliver: DeliverFn) -> None:
        if delay_s < 0:
            raise ValueError("delay must be non-negative")
        self.loop = loop
        self.delay_s = float(delay_s)
        self.deliver = deliver
        self._in_flight: Deque[Datagram] = deque()

    def send(self, dgram: Datagram) -> None:
        self._in_flight.append(dgram)
        self.loop.schedule_at(self.loop.now + self.delay_s, self._arrive)

    def _arrive(self) -> None:
        self.deliver(self._in_flight.popleft())


@dataclass
class OutageSchedule:
    """Deterministic link blackout windows, e.g. tunnels on a subway.

    ``windows`` is a list of (start, end) virtual-time intervals during
    which every packet is dropped.  Windows repeat every ``period``
    seconds if ``period`` is set.
    """

    windows: List[Tuple[float, float]]
    period: Optional[float] = None

    def in_outage(self, t: float) -> bool:
        if self.period:
            t = t % self.period
        return any(start <= t < end for start, end in self.windows)


class LossBox:
    """Bernoulli random loss plus optional deterministic outages (mm-loss)."""

    def __init__(self, loop: EventLoop, deliver: DeliverFn,
                 loss_rate: float = 0.0,
                 outages: Optional[OutageSchedule] = None,
                 rng: Optional[random.Random] = None) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        self.loop = loop
        self.deliver = deliver
        self.loss_rate = float(loss_rate)
        self.outages = outages
        self.rng = rng if rng is not None else random.Random(0)
        self.packets_dropped = 0
        self.packets_forwarded = 0

    def send(self, dgram: Datagram) -> None:
        if self.outages is not None and self.outages.in_outage(self.loop.now):
            self.packets_dropped += 1
            return
        if self.loss_rate > 0.0 and self.rng.random() < self.loss_rate:
            self.packets_dropped += 1
            return
        self.packets_forwarded += 1
        self.deliver(dgram)
