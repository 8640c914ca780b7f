"""BBR congestion control and a coupled multipath variant.

BBR (Cardwell et al.) models the path instead of reacting to loss: a
windowed-max filter over delivery-rate samples estimates the
bottleneck bandwidth (BtlBw), a windowed-min filter estimates the
round-trip propagation delay (RTprop), and the controller paces at
``pacing_gain * BtlBw`` while capping inflight at
``cwnd_gain * BtlBw * RTprop`` (the BDP).  The classic four-state
machine:

- STARTUP: pacing gain 2/ln2 doubles the sending rate every RTT until
  measured bandwidth plateaus (<25% growth for 3 rounds).
- DRAIN: inverse gain drains the queue startup built, until inflight
  falls to one BDP.
- PROBE_BW: an 8-phase gain cycle (1.25, 0.75, 1 x6) probes for newly
  available bandwidth, then yields, then cruises.
- PROBE_RTT: every 10 s without a new RTprop minimum, drop cwnd to
  4 packets for max(200 ms, one round) to drain queues and re-measure.

Determinism: the reference BBR randomizes its PROBE_BW entry phase;
this implementation always enters at the first cruise phase (index 2)
so fixed-seed experiments reproduce bit-for-bit.

The multipath variant (:class:`MpBbrCc` + :class:`MpBbrCoordinator`,
after "An Optimized BBR for Multipath Real Time Video Streaming")
mirrors the :class:`~repro.quic.cc.coupled.LiaCoordinator` shape:
subflows share a coordinator that (a) serializes bandwidth probing --
at most one subflow runs the 1.25 gain phase at a time, so the
aggregate overshoot at a shared bottleneck stays bounded by one
subflow's probe -- and (b) floors every subflow's cwnd at 4 packets so
a slow path keeps probing instead of starving.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.quic.cc.base import (CongestionController, INITIAL_WINDOW,
                                MAX_DATAGRAM_SIZE, MINIMUM_WINDOW, RateSample)

#: STARTUP/DRAIN pacing gains: 2/ln2 doubles delivered data each RTT.
STARTUP_GAIN = 2.0 / math.log(2.0)
DRAIN_GAIN = 1.0 / STARTUP_GAIN

#: PROBE_BW pacing-gain cycle; one phase per RTprop.
PROBE_BW_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)

#: Deterministic PROBE_BW entry phase (reference BBR randomizes this).
PROBE_BW_ENTRY_PHASE = 2

#: cwnd = CWND_GAIN * BDP outside PROBE_RTT (2 absorbs ack aggregation).
CWND_GAIN = 2.0

#: BtlBw filter window, in packet-timed rounds.
BW_FILTER_ROUNDS = 10

#: RTprop filter window and PROBE_RTT dwell time (seconds).
MIN_RTT_WINDOW_S = 10.0
PROBE_RTT_DURATION_S = 0.2

#: cwnd while in PROBE_RTT, and the multipath non-starvation floor.
PROBE_RTT_CWND = 4 * MAX_DATAGRAM_SIZE

#: STARTUP exits after this many rounds without 25% bandwidth growth.
FULL_BW_ROUNDS = 3
FULL_BW_GROWTH = 1.25

#: Conservative RTprop guess before the first RTT sample (RFC 9002
#: kInitialRtt); only seeds the initial pacing rate.
INITIAL_RTT_GUESS_S = 0.333


class _WindowedMaxFilter:
    """Max over the last ``window`` rounds of (value, round) samples."""

    __slots__ = ("window", "_samples")

    def __init__(self, window: int) -> None:
        self.window = window
        self._samples: List[tuple] = []  # (round, value), round ascending

    def update(self, value: float, round_count: int) -> None:
        cutoff = round_count - self.window
        samples = [s for s in self._samples if s[0] > cutoff]
        # Keep only the decreasing-maxima staircase: older samples
        # dominated by a newer, larger one can never be the max again.
        while samples and samples[-1][1] <= value:
            samples.pop()
        samples.append((round_count, value))
        self._samples = samples

    def get(self, round_count: Optional[int] = None) -> float:
        samples = self._samples
        if round_count is not None:
            cutoff = round_count - self.window
            samples = [s for s in samples if s[0] > cutoff]
        return samples[0][1] if samples else 0.0

    def reset(self) -> None:
        self._samples = []


class BbrCc(CongestionController):
    """BBR v1, driven by the connection's delivery-rate samples."""

    paced = True

    STARTUP = "startup"
    DRAIN = "drain"
    PROBE_BW = "probe_bw"
    PROBE_RTT = "probe_rtt"

    def __init__(self) -> None:
        super().__init__()
        self._init_model()

    def _init_model(self) -> None:
        self.state = self.STARTUP
        self._bw_filter = _WindowedMaxFilter(BW_FILTER_ROUNDS)
        self.min_rtt: float = float("inf")
        self._min_rtt_stamp: float = 0.0
        self._round_count = 0
        self._next_round_delivered = 0
        self._round_start = False
        self._pacing_gain = STARTUP_GAIN
        self._cwnd_gain = STARTUP_GAIN
        self._full_bw = 0.0
        self._full_bw_count = 0
        self.filled_pipe = False
        self._cycle_index = PROBE_BW_ENTRY_PHASE
        self._cycle_stamp = 0.0
        self._probe_rtt_done_at: Optional[float] = None
        self._prior_cwnd = 0.0
        self._next_send_at = 0.0

    # -- model queries -----------------------------------------------------

    @property
    def bandwidth(self) -> float:
        """Current BtlBw estimate in bytes/sec (0 before any sample)."""
        return self._bw_filter.get()

    def bdp(self, gain: float = 1.0) -> float:
        """Bandwidth-delay product estimate, scaled by ``gain``."""
        if self.min_rtt == float("inf") or self.bandwidth <= 0:
            return float(INITIAL_WINDOW)
        return gain * self.bandwidth * self.min_rtt

    @property
    def pacing_rate(self) -> float:
        bw = self.bandwidth
        if bw <= 0:
            # No sample yet: pace the initial window over a conservative
            # RTT guess so startup is not one unbounded burst.
            return self._pacing_gain * INITIAL_WINDOW / INITIAL_RTT_GUESS_S
        return self._pacing_gain * bw

    def next_send_time(self, now: float) -> float:
        return self._next_send_at

    # -- events ------------------------------------------------------------

    def on_packet_sent(self, size: int, now: float) -> None:
        super().on_packet_sent(size, now)
        rate = self.pacing_rate
        if rate > 0 and rate != float("inf"):
            # Token release: ``max(..., now)`` forgives idle periods
            # instead of granting a burst allowance for them.
            self._next_send_at = max(self._next_send_at, now) + size / rate

    def on_rate_sample(self, sample: RateSample) -> None:
        """Advance the model: filters, round count, state machine."""
        self._update_round(sample)
        if sample.delivery_rate > 0 and (
                not sample.app_limited
                or sample.delivery_rate > self.bandwidth):
            self._bw_filter.update(sample.delivery_rate, self._round_count)
        # Compute expiry *before* the filter update: the expiry branch
        # below refreshes the stamp, and PROBE_RTT entry must key off
        # the same expired-filter observation (as the reference does).
        rtt_expired = (sample.now - self._min_rtt_stamp
                       > MIN_RTT_WINDOW_S)
        if 0 < sample.rtt and (sample.rtt <= self.min_rtt or rtt_expired):
            self.min_rtt = sample.rtt
            self._min_rtt_stamp = sample.now
        self._check_full_pipe(sample)
        self._advance_state(sample.now, rtt_expired)

    def _update_round(self, sample: RateSample) -> None:
        if sample.pkt_delivered >= self._next_round_delivered:
            self._next_round_delivered = sample.delivered
            self._round_count += 1
            self._round_start = True
        else:
            self._round_start = False

    def _check_full_pipe(self, sample: RateSample) -> None:
        if self.filled_pipe or not self._round_start or sample.app_limited:
            return
        bw = self.bandwidth
        if bw >= self._full_bw * FULL_BW_GROWTH:
            self._full_bw = bw
            self._full_bw_count = 0
            return
        self._full_bw_count += 1
        if self._full_bw_count >= FULL_BW_ROUNDS:
            self.filled_pipe = True

    # -- state machine -----------------------------------------------------

    def _advance_state(self, now: float, rtt_expired: bool = False) -> None:
        if self.state == self.STARTUP and self.filled_pipe:
            self.state = self.DRAIN
            self._pacing_gain = DRAIN_GAIN
            self._cwnd_gain = STARTUP_GAIN
        if self.state == self.DRAIN \
                and self.bytes_in_flight <= self.bdp(1.0):
            self._enter_probe_bw(now)
        if self.state == self.PROBE_BW:
            self._advance_cycle(now)
        self._check_probe_rtt(now, rtt_expired)
        self._set_cwnd()

    def _enter_probe_bw(self, now: float) -> None:
        self.state = self.PROBE_BW
        self._cwnd_gain = CWND_GAIN
        self._cycle_index = PROBE_BW_ENTRY_PHASE
        self._cycle_stamp = now
        self._pacing_gain = PROBE_BW_GAINS[self._cycle_index]

    def _advance_cycle(self, now: float) -> None:
        rtprop = self.min_rtt if self.min_rtt != float("inf") else 0.05
        elapsed = now - self._cycle_stamp
        gain = PROBE_BW_GAINS[self._cycle_index]
        if gain == 0.75:
            # Leave the yield phase as soon as the queue it targets is
            # drained -- lingering would give up throughput for nothing.
            if elapsed > rtprop or self.bytes_in_flight <= self.bdp(1.0):
                self._next_cycle_phase(now)
            return
        if elapsed > rtprop:
            self._next_cycle_phase(now)

    def _next_cycle_phase(self, now: float) -> None:
        prev_gain = PROBE_BW_GAINS[self._cycle_index]
        self._cycle_index = (self._cycle_index + 1) % len(PROBE_BW_GAINS)
        if PROBE_BW_GAINS[self._cycle_index] > 1.0 \
                and not self._may_probe_bw(now):
            # Coupled subflow denied the probe slot: skip the 1.25/0.75
            # pair and cruise this cycle.
            self._cycle_index = PROBE_BW_ENTRY_PHASE
        if prev_gain > 1.0:
            self._probe_released()
        self._cycle_stamp = now
        self._pacing_gain = PROBE_BW_GAINS[self._cycle_index]

    def _may_probe_bw(self, now: float) -> bool:
        """Hook for coupled variants; standalone BBR always probes."""
        return True

    def _probe_released(self) -> None:
        """Hook: the 1.25 probe phase just ended."""

    def _check_probe_rtt(self, now: float, rtt_expired: bool) -> None:
        if self.state != self.PROBE_RTT and rtt_expired \
                and self.min_rtt != float("inf"):
            self.state = self.PROBE_RTT
            self._prior_cwnd = max(self._prior_cwnd, self.cwnd)
            self._pacing_gain = 1.0
            self._cwnd_gain = 1.0
            self._probe_rtt_done_at = None
        if self.state == self.PROBE_RTT:
            if self._probe_rtt_done_at is None \
                    and self.bytes_in_flight <= PROBE_RTT_CWND:
                self._probe_rtt_done_at = now + PROBE_RTT_DURATION_S
            elif self._probe_rtt_done_at is not None \
                    and now >= self._probe_rtt_done_at:
                self._min_rtt_stamp = now
                self.cwnd = max(self.cwnd, self._prior_cwnd)
                if self.filled_pipe:
                    self._enter_probe_bw(now)
                else:
                    self.state = self.STARTUP
                    self._pacing_gain = STARTUP_GAIN
                    self._cwnd_gain = STARTUP_GAIN

    def _set_cwnd(self) -> None:
        if self.state == self.PROBE_RTT:
            self.cwnd = min(self.cwnd, float(PROBE_RTT_CWND))
            return
        target = self.bdp(self._cwnd_gain)
        if self.filled_pipe:
            self.cwnd = min(self.cwnd, target)
        self.cwnd = max(self.cwnd, float(MINIMUM_WINDOW))

    # -- base-class hooks --------------------------------------------------

    def _increase_window(self, acked_bytes: int, sent_time: float,
                         now: float, rtt: float) -> None:
        # Model-based growth: move cwnd toward the gain-scaled BDP by
        # the acked amount (slow-start-fast before the pipe is full).
        if self.state == self.PROBE_RTT:
            return
        target = self.bdp(self._cwnd_gain)
        if self.filled_pipe:
            self.cwnd = min(self.cwnd + acked_bytes, target)
        else:
            self.cwnd += acked_bytes
        self.cwnd = max(self.cwnd, float(MINIMUM_WINDOW))

    def _on_congestion_event(self, now: float) -> None:
        # BBR does not halve on loss; a mild packet-conservation
        # trim keeps chaos-grade loss bursts from locking in a cwnd
        # far above what the (possibly gone) link can carry.
        self.cwnd = max(self.cwnd * 0.85, float(MINIMUM_WINDOW))

    def reset(self) -> None:
        super().reset()
        self._init_model()


class MpBbrCoordinator:
    """Shared state across the BBR subflows of one connection.

    Mirrors :class:`~repro.quic.cc.coupled.LiaCoordinator`: one
    instance per connection, each per-path controller registers at
    construction.  Couples the subflows two ways: a single
    bandwidth-probe token (at most one subflow in the 1.25 gain phase
    at a time) and a per-subflow cwnd floor so the aggregate never
    starves a slow path out of its probe traffic.
    """

    def __init__(self) -> None:
        self._controllers: List["MpBbrCc"] = []
        self._probe_holder: Optional["MpBbrCc"] = None

    def register(self, cc: "MpBbrCc") -> None:
        self._controllers.append(cc)

    def acquire_probe(self, cc: "MpBbrCc") -> bool:
        """Grant the 1.25 probe phase to at most one subflow at a time."""
        if self._probe_holder is None or self._probe_holder is cc:
            self._probe_holder = cc
            return True
        return False

    def release_probe(self, cc: "MpBbrCc") -> None:
        if self._probe_holder is cc:
            self._probe_holder = None


class MpBbrCc(BbrCc):
    """One subflow of a coupled multipath-BBR connection."""

    def __init__(self, coordinator: Optional[MpBbrCoordinator] = None) -> None:
        super().__init__()
        self.coordinator = coordinator if coordinator is not None \
            else MpBbrCoordinator()
        self.coordinator.register(self)

    def _may_probe_bw(self, now: float) -> bool:
        return self.coordinator.acquire_probe(self)

    def _probe_released(self) -> None:
        self.coordinator.release_probe(self)

    def _set_cwnd(self) -> None:
        super()._set_cwnd()
        if self.state != self.PROBE_RTT:
            # Non-starvation floor: a subflow whose BDP estimate has
            # collapsed keeps 4 packets of probe traffic flowing.
            self.cwnd = max(self.cwnd, float(PROBE_RTT_CWND))

    def _increase_window(self, acked_bytes: int, sent_time: float,
                         now: float, rtt: float) -> None:
        super()._increase_window(acked_bytes, sent_time, now, rtt)
        if self.state != self.PROBE_RTT:
            self.cwnd = max(self.cwnd, float(PROBE_RTT_CWND))

    def _on_congestion_event(self, now: float) -> None:
        super()._on_congestion_event(now)
        if self.state != self.PROBE_RTT:
            self.cwnd = max(self.cwnd, float(PROBE_RTT_CWND))
