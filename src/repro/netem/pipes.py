"""Composable pipeline stages: fixed delay, stochastic loss, outages.

These mirror Mahimahi's ``mm-delay`` and ``mm-loss`` shells.  Each
stage takes a ``deliver`` continuation, so a path is assembled by
nesting stages: loss -> link -> delay -> receiver.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.netem.packet import Datagram
from repro.sim.event_loop import EventLoop

DeliverFn = Callable[[Datagram], None]


class DelayBox:
    """Fixed one-way propagation delay (mm-delay).

    Batched delivery: a run-until-blocked sender hands the box a whole
    burst of datagrams at one virtual instant, and a fixed delay maps
    the burst onto one arrival instant -- so the box schedules a single
    loop event per burst and fans the datagrams out in send order when
    it fires, instead of one closure + heap push per packet.
    """

    def __init__(self, loop: EventLoop, delay_s: float,
                 deliver: DeliverFn) -> None:
        if delay_s < 0:
            raise ValueError("delay must be non-negative")
        self.loop = loop
        self.delay_s = float(delay_s)
        self.deliver = deliver
        self.packets_forwarded = 0
        self._batch: List[Datagram] = []
        self._batch_time = -1.0

    def send(self, dgram: Datagram) -> None:
        self.packets_forwarded += 1
        arrival = self.loop.now + self.delay_s
        if self._batch and self._batch_time == arrival:
            self._batch.append(dgram)
            return
        self._batch = batch = [dgram]
        self._batch_time = arrival
        self.loop.schedule_at(arrival, lambda: self._deliver_batch(batch))

    def _deliver_batch(self, batch: List[Datagram]) -> None:
        if self._batch is batch:
            self._batch = []
        deliver = self.deliver
        for dgram in batch:
            deliver(dgram)


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
