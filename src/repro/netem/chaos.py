"""Seeded chaos-injection pipeline for emulated paths.

Mahimahi-style boxes model *clean* pathology (loss, outages, queues);
real RAN edges also corrupt, reorder, duplicate, and rebind.  A
:class:`ChaosBox` wraps one direction of an :class:`EmulatedPath` and
injects those fault classes, driven by a scripted
:class:`ChaosSchedule` so every run is deterministic and replayable
from a seed:

- **bit corruption** -- one random bit of the payload is flipped; the
  receiver's AEAD must reject the datagram (never crash).
- **duplication** -- a clone of the datagram is delivered slightly
  later (middlebox retransmit / route flap).
- **reordering** -- a datagram is held back by an extra random delay,
  letting later packets overtake it.
- **burst blackholes** -- absolute-time windows during which every
  datagram vanishes (deterministic, unlike LossBox's Bernoulli drop).
- **jitter spikes** -- windows that add extra one-way delay
  (bufferbloat bursts, RAN scheduling stalls).
- **NAT rebind** -- from a scheduled instant on, the datagram's source
  address is rewritten (``addr#r1``, ``#r2``, ...), the way a NAT
  timeout re-binds a flow to a new public 4-tuple mid-connection.

The box sits *before* the loss/link/delay pipeline, so chaos-injected
datagrams still contend for link capacity and queue space.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.netem.packet import Datagram
from repro.sim.event_loop import EventLoop

DeliverFn = Callable[[Datagram], None]


class ChaosStats:
    """Per-direction accounting of injected faults."""

    def __init__(self) -> None:
        self.forwarded = 0
        self.corrupted = 0
        self.duplicated = 0
        self.reordered = 0
        self.blackholed = 0
        self.jitter_delayed = 0
        self.rebinds = 0

    def as_dict(self) -> dict:
        return {
            "forwarded": self.forwarded,
            "corrupted": self.corrupted,
            "duplicated": self.duplicated,
            "reordered": self.reordered,
            "blackholed": self.blackholed,
            "jitter_delayed": self.jitter_delayed,
            "rebinds": self.rebinds,
        }


@dataclass
class ChaosSchedule:
    """Scripted fault plan for one path direction.

    Rates are per-datagram probabilities drawn from the box's seeded
    RNG; windows are absolute virtual-time intervals, so the same
    schedule over the same traffic produces the same faults.
    """

    #: probability a datagram gets one bit flipped
    corrupt_rate: float = 0.0
    #: probability a datagram is delivered twice
    duplicate_rate: float = 0.0
    #: extra delay before the duplicate copy enters the pipeline
    duplicate_delay_s: float = 0.005
    #: probability a datagram is held back (overtaken by later ones)
    reorder_rate: float = 0.0
    #: (min, max) extra delay for held-back datagrams
    reorder_delay_s: Tuple[float, float] = (0.002, 0.05)
    #: absolute (start, end) windows during which everything is dropped
    blackholes: List[Tuple[float, float]] = field(default_factory=list)
    #: (start, end, extra_delay) windows adding one-way delay
    jitter_spikes: List[Tuple[float, float, float]] = field(
        default_factory=list)
    #: instants after which the source address is rewritten (NAT rebind)
    rebinds: List[float] = field(default_factory=list)

    def is_noop(self) -> bool:
        return (self.corrupt_rate == 0.0 and self.duplicate_rate == 0.0
                and self.reorder_rate == 0.0 and not self.blackholes
                and not self.jitter_spikes and not self.rebinds)

    def in_blackhole(self, t: float) -> bool:
        return any(start <= t < end for start, end in self.blackholes)

    def blackhole_seconds(self) -> float:
        return sum(end - start for start, end in self.blackholes)

    def jitter_at(self, t: float) -> float:
        return sum(extra for start, end, extra in self.jitter_spikes
                   if start <= t < end)

    def rebind_count(self, t: float) -> int:
        """How many rebinds have occurred by time ``t``."""
        return sum(1 for at in self.rebinds if at <= t)

    @classmethod
    def randomized(cls, rng: random.Random, duration_s: float,
                   rebind: bool = False) -> "ChaosSchedule":
        """Draw one direction's fault plan from ``rng``.

        Each fault class is included with moderate probability so
        scenarios differ in *shape*, not just intensity.  ``rebind``
        gates NAT rebinds in: they only make sense on the
        client-to-server direction.
        """
        sched = cls()
        if rng.random() < 0.7:
            sched.corrupt_rate = rng.uniform(0.001, 0.03)
        if rng.random() < 0.6:
            sched.duplicate_rate = rng.uniform(0.005, 0.05)
            sched.duplicate_delay_s = rng.uniform(0.001, 0.02)
        if rng.random() < 0.6:
            sched.reorder_rate = rng.uniform(0.01, 0.10)
            sched.reorder_delay_s = (0.002, rng.uniform(0.01, 0.06))
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 3)):
                start = rng.uniform(1.0, max(duration_s - 1.0, 1.5))
                sched.blackholes.append(
                    (start, start + rng.uniform(0.1, 1.2)))
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 3)):
                start = rng.uniform(0.5, max(duration_s - 0.5, 1.0))
                sched.jitter_spikes.append(
                    (start, start + rng.uniform(0.1, 0.8),
                     rng.uniform(0.01, 0.12)))
        if rebind and rng.random() < 0.4:
            sched.rebinds.append(rng.uniform(0.5, max(duration_s, 1.0)))
        return sched


class ChaosBox:
    """Injects scheduled faults into one path direction.

    Sits in front of the loss/link/delay pipeline (``deliver`` is the
    direction's normal entry point).  All randomness comes from the
    box's own RNG, so a fixed seed replays the identical fault
    sequence for the identical traffic.
    """

    def __init__(self, loop: EventLoop, deliver: DeliverFn,
                 schedule: ChaosSchedule,
                 rng: Optional[random.Random] = None) -> None:
        self.loop = loop
        self.deliver = deliver
        self.schedule = schedule
        self.rng = rng if rng is not None else random.Random(0)
        self.stats = ChaosStats()
        self._rebinds_applied = 0

    def send(self, dgram: Datagram) -> None:
        now = self.loop.now
        sched = self.schedule
        if sched.in_blackhole(now):
            self.stats.blackholed += 1
            return
        if sched.rebinds and dgram.src:
            n = sched.rebind_count(now)
            if n > 0:
                if n > self._rebinds_applied:
                    self.stats.rebinds += n - self._rebinds_applied
                    self._rebinds_applied = n
                dgram.src = f"{dgram.src}#r{n}"
        if (sched.corrupt_rate > 0.0 and dgram.payload
                and self.rng.random() < sched.corrupt_rate):
            dgram.payload = self._flip_bit(dgram.payload)
            self.stats.corrupted += 1
        extra = sched.jitter_at(now)
        if extra > 0.0:
            self.stats.jitter_delayed += 1
        if sched.reorder_rate > 0.0 \
                and self.rng.random() < sched.reorder_rate:
            lo, hi = sched.reorder_delay_s
            extra += self.rng.uniform(lo, hi)
            self.stats.reordered += 1
        if sched.duplicate_rate > 0.0 \
                and self.rng.random() < sched.duplicate_rate:
            clone = Datagram(payload=dgram.payload, src=dgram.src,
                             dst=dgram.dst, path_id=dgram.path_id)
            self.stats.duplicated += 1
            self.loop.schedule_after(extra + sched.duplicate_delay_s,
                                     lambda: self._forward(clone))
        if extra > 0.0:
            self.loop.schedule_after(extra, lambda: self._forward(dgram))
        else:
            self._forward(dgram)

    def _forward(self, dgram: Datagram) -> None:
        self.stats.forwarded += 1
        self.deliver(dgram)

    def _flip_bit(self, payload: bytes) -> bytes:
        bit = self.rng.randrange(len(payload) * 8)
        corrupted = bytearray(payload)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        return bytes(corrupted)
