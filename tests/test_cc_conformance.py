"""Conformance and invariant harness for every congestion controller.

Every name in ``repro.quic.cc.CC_REGISTRY`` -- the loss-based family
(newreno, cubic, lia) and the model-based family (bbr, mpbbr) -- runs
the same invariant suite:

- the congestion window never drops below ``MINIMUM_WINDOW`` and never
  goes NaN/negative, no matter the loss storm;
- ``bytes_in_flight`` is conserved exactly through any interleaving of
  sent / acked / lost / discarded events;
- pacing state is sane: unpaced controllers answer ``inf`` rate and
  "send now", paced controllers answer finite positive rates and
  finite token-release deadlines, and an idle period is forgiven
  rather than banked as a burst allowance;
- on a synthetic fixed-rate link the controller actually uses the
  link, and a paced controller's rate tracks the measured bandwidth.

On top of the shared suite sit behavioural pins for BBR (startup
exits, convergence to the BDP neighbourhood, PROBE_RTT drains the
queue, app-limited samples cannot deflate the bandwidth filter),
coupling pins for multipath BBR (single probe token, non-starvation
floor), and two-flow fairness runs on a shared emulated bottleneck
(Cubic-vs-BBR and LIA-vs-mpBBR; neither side may starve).
"""

import math
import random

import pytest

from repro.experiments.harness import (PathSpec, run_video_session,
                                       scheme_with_cc)
from repro.host import SessionRuntime, VideoSessionSpec
from repro.netem import MultipathNetwork
from repro.quic.cc import (CC_REGISTRY, BbrCc, MpBbrCc, MpBbrCoordinator,
                           RateSample, make_cc, make_coordinator)
from repro.quic.cc.base import (INITIAL_WINDOW, MAX_DATAGRAM_SIZE,
                                MINIMUM_WINDOW)
from repro.quic.cc.bbr import (PROBE_BW_ENTRY_PHASE, PROBE_RTT_CWND,
                               _WindowedMaxFilter)
from repro.sim import EventLoop
from repro.traces.radio_profiles import RadioType
from repro.video import PlayerConfig
from repro.video.media import Video

MDS = MAX_DATAGRAM_SIZE
ALL_CCS = sorted(CC_REGISTRY)
PACED_CCS = [n for n in ALL_CCS if CC_REGISTRY[n].paced]


# ---------------------------------------------------------------------------
# synthetic link driver
# ---------------------------------------------------------------------------


class SyntheticLink:
    """A fixed-rate bottleneck driving one controller the way the
    connection does: window/pacing-gated sends, a serialization queue,
    per-ack delivery-rate samples with RFC-style ``delivered``
    bookkeeping (mirroring ``PathLossDetector`` stamping and
    ``Connection._feed_rate_samples``).
    """

    def __init__(self, cc, rate_bps=8e6, rtt_s=0.04):
        self.cc = cc
        self.rate = rate_bps / 8.0          # bottleneck bytes/sec
        self.base_rtt = rtt_s               # mutable mid-run (rtt step)
        self.now = 0.0
        self.busy_until = 0.0
        self.queue = []                     # in-flight, ack-time ordered
        self.delivered = 0
        self.delivered_time = 0.0
        self.states = set()
        self.probe_rtt_max_cwnd = 0.0
        self.probe_rtt_min_inflight = float("inf")

    @property
    def throughput(self):
        return self.delivered / self.now if self.now > 0 else 0.0

    def _send_window(self):
        cc = self.cc
        while cc.can_send(MDS):
            if cc.paced and cc.next_send_time(self.now) > self.now + 1e-9:
                return
            if cc.bytes_in_flight == 0:     # detector's idle restart
                self.delivered_time = self.now
            start = max(self.busy_until, self.now)
            self.busy_until = start + MDS / self.rate
            self.queue.append({
                "ack": self.busy_until + self.base_rtt, "size": MDS,
                "sent": self.now, "d": self.delivered,
                "dt": self.delivered_time})
            cc.on_packet_sent(MDS, self.now)

    def _ack(self, pkt):
        cc = self.cc
        self.delivered += pkt["size"]
        self.delivered_time = self.now
        rtt = self.now - pkt["sent"]
        if cc.paced:
            interval = self.delivered_time - pkt["dt"]
            if interval > 0:
                cc.on_rate_sample(RateSample(
                    delivery_rate=(self.delivered - pkt["d"]) / interval,
                    rtt=rtt, delivered=self.delivered,
                    pkt_delivered=pkt["d"], now=self.now))
        cc.on_packet_acked(pkt["size"], pkt["sent"], self.now, rtt)
        state = getattr(cc, "state", None)
        if state is not None:
            self.states.add(state)
            if state == BbrCc.PROBE_RTT:
                self.probe_rtt_max_cwnd = max(self.probe_rtt_max_cwnd,
                                              cc.cwnd)
                self.probe_rtt_min_inflight = min(
                    self.probe_rtt_min_inflight, cc.bytes_in_flight)

    def run(self, duration):
        cc = self.cc
        end = self.now + duration
        while self.now < end:
            self._send_window()
            events = []
            if self.queue:
                events.append(self.queue[0]["ack"])
            if cc.paced and cc.can_send(MDS):
                deadline = cc.next_send_time(self.now)
                if deadline > self.now:
                    events.append(deadline)
            if not events:
                break                        # window-limited, pipe empty
            self.now = max(self.now, min(events))
            while self.queue and self.queue[0]["ack"] <= self.now + 1e-12:
                self._ack(self.queue.pop(0))
        return self


# ---------------------------------------------------------------------------
# the shared invariant suite: every registered controller
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_CCS)
class TestInvariants:
    def test_initial_state(self, name):
        cc = make_cc(name)
        assert cc.cwnd == float(INITIAL_WINDOW)
        assert cc.bytes_in_flight == 0
        assert cc.can_send(MDS)

    def test_window_accounting_conserves_in_flight(self, name):
        cc = make_cc(name)
        for _ in range(6):
            cc.on_packet_sent(MDS, 0.0)
        assert cc.bytes_in_flight == 6 * MDS
        cc.on_packet_acked(MDS, 0.0, 0.05, 0.05)
        cc.on_packet_acked(MDS, 0.0, 0.05, 0.05)
        assert cc.bytes_in_flight == 4 * MDS
        cc.on_packets_lost(MDS, 0.0, 0.1)
        assert cc.bytes_in_flight == 3 * MDS
        cc.on_discarded(MDS)
        assert cc.bytes_in_flight == 2 * MDS
        cc.on_discarded(2 * MDS)
        assert cc.bytes_in_flight == 0

    def test_discard_never_goes_negative(self, name):
        cc = make_cc(name)
        cc.on_packet_sent(MDS, 0.0)
        cc.on_discarded(10 * MDS)
        assert cc.bytes_in_flight == 0
        cc.on_packets_lost(MDS, 0.0, 0.1)
        assert cc.bytes_in_flight == 0

    def test_loss_storm_keeps_cwnd_at_or_above_floor(self, name):
        cc = make_cc(name)
        t = 0.0
        for _ in range(40):
            cc.on_packet_sent(MDS, t)
            t += 0.05
            cc.on_packets_lost(MDS, t - 0.05, t)
            assert cc.cwnd >= float(MINIMUM_WINDOW)
            assert math.isfinite(cc.cwnd)
        assert cc.bytes_in_flight == 0

    def test_event_storm_produces_finite_state(self, name):
        """Seeded random interleaving of every event; conservation and
        finiteness must hold at every step."""
        cc = make_cc(name)
        rng = random.Random(4242)
        t = 0.0
        flight = []
        for i in range(500):
            t += rng.random() * 0.01
            op = rng.random()
            if op < 0.5 and cc.can_send(MDS):
                cc.on_packet_sent(MDS, t)
                flight.append((MDS, t))
            elif op < 0.7 and flight:
                size, sent = flight.pop(0)
                cc.on_packet_acked(size, sent, t, max(t - sent, 1e-6))
            elif op < 0.85 and flight:
                size, sent = flight.pop(0)
                cc.on_packets_lost(size, sent, t)
            elif flight:
                size, _ = flight.pop(0)
                cc.on_discarded(size)
            if rng.random() < 0.3:
                cc.on_rate_sample(RateSample(
                    delivery_rate=rng.random() * 2e6,
                    rtt=rng.random() * 0.2 + 1e-3,
                    delivered=(i + 1) * MDS,
                    pkt_delivered=max(i - 5, 0) * MDS, now=t,
                    app_limited=rng.random() < 0.2))
            assert cc.bytes_in_flight == sum(s for s, _ in flight)
            assert math.isfinite(cc.cwnd) and cc.cwnd > 0
            assert cc.cwnd >= float(MINIMUM_WINDOW)
            rate = cc.pacing_rate
            assert rate > 0 and not math.isnan(rate)
            deadline = cc.next_send_time(t)
            assert math.isfinite(deadline) and deadline >= 0.0

    def test_pacing_contract(self, name):
        cc = make_cc(name)
        if not cc.paced:
            assert cc.pacing_rate == float("inf")
            assert cc.next_send_time(3.7) == 3.7
        else:
            assert 0 < cc.pacing_rate < float("inf")
            assert math.isfinite(cc.next_send_time(0.0))

    def test_reset_restores_initial_state(self, name):
        cc = make_cc(name)
        t = 0.0
        for _ in range(10):
            cc.on_packet_sent(MDS, t)
            t += 0.02
            cc.on_packets_lost(MDS, t - 0.02, t)
        cc.reset()
        assert cc.cwnd == float(INITIAL_WINDOW)
        assert cc.bytes_in_flight == 0
        assert cc.next_send_time(100.0) <= 100.0

    def test_synthetic_link_utilization(self, name):
        """Every controller must actually use a clean 8 Mbps link."""
        link = SyntheticLink(make_cc(name), rate_bps=8e6, rtt_s=0.04)
        link.run(5.0)
        assert link.throughput >= 0.5 * link.rate


# ---------------------------------------------------------------------------
# pacing behaviour: the model-based controllers only
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", PACED_CCS)
class TestPacing:
    def test_token_advances_per_send(self, name):
        cc = make_cc(name)
        cc.on_packet_sent(MDS, 0.0)
        first = cc.next_send_time(0.0)
        assert first == pytest.approx(MDS / cc.pacing_rate)
        cc.on_packet_sent(MDS, 0.0)
        assert cc.next_send_time(0.0) > first

    def test_idle_restart_forgives_gap(self, name):
        """An idle period neither blocks the next send nor banks a
        burst allowance for the skipped time."""
        cc = make_cc(name)
        for _ in range(4):
            cc.on_packet_sent(MDS, 0.0)
        gap = 50.0
        assert cc.next_send_time(gap) <= gap
        cc.on_packet_sent(MDS, gap)
        deadline = cc.next_send_time(gap)
        assert gap < deadline <= gap + 2 * MDS / cc.pacing_rate

    def test_pacing_rate_tracks_link_bandwidth(self, name):
        link = SyntheticLink(make_cc(name), rate_bps=8e6, rtt_s=0.04)
        link.run(4.0)
        assert 0.5 * link.rate <= link.cc.pacing_rate <= 3.0 * link.rate


# ---------------------------------------------------------------------------
# BBR behavioural pins
# ---------------------------------------------------------------------------


class TestBbrBehavior:
    def test_windowed_max_filter_staircase(self):
        f = _WindowedMaxFilter(window=3)
        f.update(10.0, 1)
        f.update(5.0, 2)
        assert f.get() == 10.0
        f.update(12.0, 3)           # dominates both older samples
        assert f.get() == 12.0
        assert len(f._samples) == 1

    def test_windowed_max_filter_expiry(self):
        f = _WindowedMaxFilter(window=3)
        f.update(10.0, 1)
        f.update(5.0, 2)
        # round 4: the 10.0 sample (round 1) has aged out of window 3
        f.update(1.0, 4)
        assert f.get() == 5.0
        f.update(0.5, 9)            # everything else aged out
        assert f.get() == 0.5

    def test_startup_fills_pipe_and_exits(self):
        link = SyntheticLink(BbrCc(), rate_bps=8e6, rtt_s=0.04)
        link.run(3.0)
        assert link.cc.filled_pipe
        assert link.cc.state == BbrCc.PROBE_BW
        assert BbrCc.DRAIN in link.states

    def test_converges_to_bdp_neighborhood(self):
        link = SyntheticLink(BbrCc(), rate_bps=8e6, rtt_s=0.04)
        link.run(6.0)
        bdp = link.rate * 0.04
        assert 0.8 * bdp <= link.cc.cwnd <= 3.0 * bdp
        assert 0.7 * link.rate <= link.cc.bandwidth <= 1.3 * link.rate
        assert link.cc.min_rtt == pytest.approx(0.04, rel=0.2)

    def test_probe_rtt_drains_queue(self):
        """After an RTT step up, the stale RTprop forces PROBE_RTT:
        cwnd clamps to 4 packets, the pipe drains, then the controller
        returns to PROBE_BW."""
        link = SyntheticLink(BbrCc(), rate_bps=8e6, rtt_s=0.04)
        link.run(5.0)
        link.base_rtt = 0.08        # min RTT is now unreachable
        link.run(13.0)
        assert BbrCc.PROBE_RTT in link.states
        assert link.probe_rtt_max_cwnd <= float(PROBE_RTT_CWND)
        assert link.probe_rtt_min_inflight <= PROBE_RTT_CWND
        assert link.cc.state == BbrCc.PROBE_BW

    def test_app_limited_samples_cannot_deflate_filter(self):
        cc = BbrCc()

        def sample(rate, app_limited, i):
            return RateSample(delivery_rate=rate, rtt=0.04,
                              delivered=(i + 1) * MDS,
                              pkt_delivered=i * MDS, now=0.01 * i,
                              app_limited=app_limited)

        cc.on_rate_sample(sample(1e6, False, 0))
        assert cc.bandwidth == 1e6
        cc.on_rate_sample(sample(1e5, True, 1))     # cannot deflate
        assert cc.bandwidth == 1e6
        cc.on_rate_sample(sample(2e6, True, 2))     # may still raise
        assert cc.bandwidth == 2e6

    def test_fixed_run_is_deterministic(self):
        """Two identical links produce bit-identical model state (the
        deterministic PROBE_BW entry phase, not the RFC's random one)."""
        a = SyntheticLink(BbrCc(), rate_bps=8e6, rtt_s=0.04).run(4.0)
        b = SyntheticLink(BbrCc(), rate_bps=8e6, rtt_s=0.04).run(4.0)
        assert a.cc.cwnd == b.cc.cwnd
        assert a.cc.bandwidth == b.cc.bandwidth
        assert a.cc.min_rtt == b.cc.min_rtt
        assert a.cc.state == b.cc.state
        assert a.delivered == b.delivered


# ---------------------------------------------------------------------------
# multipath-BBR coupling pins
# ---------------------------------------------------------------------------


class TestMpBbr:
    def test_probe_token_is_exclusive(self):
        coord = MpBbrCoordinator()
        a = MpBbrCc(coord)
        b = MpBbrCc(coord)
        assert coord.acquire_probe(a)
        assert coord.acquire_probe(a)       # re-entrant for the holder
        assert not coord.acquire_probe(b)
        coord.release_probe(a)
        assert coord.acquire_probe(b)
        coord.release_probe(a)              # non-holder release: no-op
        assert not coord.acquire_probe(a)

    def test_denied_probe_skips_probe_pair(self):
        """A subflow denied the probe token skips the 1.25/0.75 pair
        and cruises this cycle instead."""
        coord = MpBbrCoordinator()
        holder = MpBbrCc(coord)
        other = MpBbrCc(coord)
        assert coord.acquire_probe(holder)
        other._cycle_index = 7              # next phase would be 1.25
        other._next_cycle_phase(1.0)
        assert other._cycle_index == PROBE_BW_ENTRY_PHASE
        coord.release_probe(holder)
        other._cycle_index = 7
        other._next_cycle_phase(2.0)
        assert other._cycle_index == 0      # token free: probe granted

    def test_loss_storm_respects_non_starvation_floor(self):
        cc = make_cc("mpbbr")
        t = 0.0
        for _ in range(40):
            cc.on_packet_sent(MDS, t)
            t += 0.05
            cc.on_packets_lost(MDS, t - 0.05, t)
            cc.on_packet_sent(MDS, t)
            cc.on_packet_acked(MDS, t, t + 0.04, 0.04)
            t += 0.04
        assert cc.cwnd >= float(PROBE_RTT_CWND)

    def test_make_coordinator_registry(self):
        assert isinstance(make_coordinator("mpbbr"), MpBbrCoordinator)
        assert make_coordinator("cubic") is None
        assert make_coordinator("bbr") is None


# ---------------------------------------------------------------------------
# two-flow fairness on one shared emulated bottleneck
# ---------------------------------------------------------------------------


def _bulk_video(total_bytes, name="fair"):
    n_frames = 50
    frame = max(total_bytes // n_frames, 1)
    sizes = [frame] * n_frames
    sizes[-1] += total_bytes - sum(sizes)
    return Video(name=name, fps=25, frame_sizes=sizes,
                 chunk_size=total_bytes)


#: greedy player: requests the whole video immediately, never pauses
_GREEDY = PlayerConfig(startup_frames=2, resume_frames=1,
                       concurrent_requests=1, max_buffer_s=1e9,
                       tick_s=0.1)


def _run_two_flows(scheme_a, scheme_b, path_specs, horizon_s=6.0):
    """Two sessions, distinct client hosts, same shared bottleneck
    path(s); returns the bytes each server delivered (acked in-flight
    bytes over all its paths)."""
    loop = EventLoop()
    net = MultipathNetwork(loop)
    for pid, rate_bps, delay_s in path_specs:
        net.add_simple_path(pid, rate_bps, delay_s,
                            queue_limit_bytes=64 * 1024)
    runtime = SessionRuntime(loop, net)
    interfaces = [(pid, RadioType.WIFI if pid == 0 else RadioType.LTE)
                  for pid, _, _ in path_specs]
    video = _bulk_video(16_000_000)
    handles = []
    for i, scheme in enumerate((scheme_a, scheme_b)):
        handles.append(runtime.add_session(VideoSessionSpec(
            scheme=scheme, interfaces=interfaces, video=video,
            player_config=_GREEDY, seed=i,
            client_addr=f"flow-{i}", connection_name=f"flow-{i}")))
    runtime.run(timeout_s=horizon_s)
    return [sum(p.loss.delivered for p in h.server.paths.values())
            for h in handles]


class TestFairness:
    def test_cubic_vs_bbr_share_bottleneck(self):
        got = _run_two_flows("sp", scheme_with_cc("sp", "bbr"),
                             [(0, 8e6, 0.03)])
        total = sum(got)
        assert total > 0
        for received in got:
            assert received >= 0.25 * total, got

    def test_lia_vs_mpbbr_share_bottleneck(self):
        got = _run_two_flows(scheme_with_cc("vanilla_mp", "lia"),
                             scheme_with_cc("vanilla_mp", "mpbbr"),
                             [(0, 6e6, 0.02), (1, 6e6, 0.04)])
        total = sum(got)
        assert total > 0
        for received in got:
            assert received >= 0.25 * total, got

    def test_mpbbr_does_not_starve_slow_path(self):
        """One mpBBR connection over a fast and a slow path: the floor
        keeps probe traffic flowing on the slow one."""
        loop = EventLoop()
        net = MultipathNetwork(loop)
        net.add_simple_path(0, 8e6, 0.02, queue_limit_bytes=64 * 1024)
        net.add_simple_path(1, 1e6, 0.05, queue_limit_bytes=64 * 1024)
        runtime = SessionRuntime(loop, net)
        handle = runtime.add_session(VideoSessionSpec(
            scheme=scheme_with_cc("vanilla_mp", "mpbbr"),
            interfaces=[(0, RadioType.WIFI), (1, RadioType.LTE)],
            video=_bulk_video(16_000_000), player_config=_GREEDY,
            seed=3))
        runtime.run(timeout_s=6.0)
        received = {pid: p.loss.delivered
                    for pid, p in handle.server.paths.items()}
        total = sum(received.values())
        assert total > 0
        assert received[1] >= 0.02 * total, received


# ---------------------------------------------------------------------------
# end-to-end: a paced scheme variant through the full host runtime
# ---------------------------------------------------------------------------


class TestEndToEnd:
    def _paths(self):
        return [PathSpec(0, RadioType.WIFI, 0.02, rate_bps=10e6),
                PathSpec(1, RadioType.LTE, 0.04, rate_bps=8e6)]

    def test_xlink_bbr_session_completes_with_pacing_engaged(self):
        scheme = scheme_with_cc("xlink", "bbr")
        result = run_video_session(scheme, self._paths(), seed=7)
        assert result.completed
        for conn in (result.client, result.server):
            for path in conn.paths.values():
                assert path.cc.paced
                assert path.loss.delivered > 0

    def test_bbr_session_is_deterministic(self):
        scheme = scheme_with_cc("sp", "bbr")
        a = run_video_session(scheme, self._paths()[:1], seed=9)
        b = run_video_session(scheme, self._paths()[:1], seed=9)
        assert a.completed and b.completed
        assert a.duration_s == b.duration_s
        assert (a.metrics.request_completion_times
                == b.metrics.request_completion_times)
