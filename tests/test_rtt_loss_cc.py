"""Tests for RTT estimation, loss detection, and congestion control."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quic.cc import (BbrCc, CubicCc, LiaCoordinator, LiaCoupledCc,
                           MpBbrCc, NewRenoCc, make_cc)
from repro.quic.cc.base import INITIAL_WINDOW, MAX_DATAGRAM_SIZE, MINIMUM_WINDOW
from repro.quic.frames import AckRange
from repro.quic.loss_detection import (PACKET_THRESHOLD, PathLossDetector,
                                       SentPacket)
from repro.quic.rtt import INITIAL_RTT, RttEstimator


class TestRttEstimator:
    def test_first_sample_initializes(self):
        rtt = RttEstimator()
        rtt.update(0.1)
        assert rtt.smoothed == pytest.approx(0.1)
        assert rtt.rttvar == pytest.approx(0.05)
        assert rtt.min_rtt == pytest.approx(0.1)

    def test_ewma_smoothing(self):
        rtt = RttEstimator()
        rtt.update(0.1)
        rtt.update(0.2)
        assert rtt.smoothed == pytest.approx(0.875 * 0.1 + 0.125 * 0.2)

    def test_min_rtt_tracks_minimum(self):
        rtt = RttEstimator()
        for sample in [0.1, 0.05, 0.2]:
            rtt.update(sample)
        assert rtt.min_rtt == pytest.approx(0.05)

    def test_ack_delay_subtracted(self):
        rtt = RttEstimator()
        rtt.update(0.1)
        rtt.update(0.2, ack_delay=0.05)
        # adjusted = 0.15, which is >= min_rtt
        assert rtt.smoothed == pytest.approx(0.875 * 0.1 + 0.125 * 0.15)

    def test_ack_delay_not_below_min(self):
        rtt = RttEstimator()
        rtt.update(0.1)
        rtt.update(0.11, ack_delay=0.05)  # 0.06 < min_rtt -> no subtraction
        assert rtt.smoothed == pytest.approx(0.875 * 0.1 + 0.125 * 0.11)

    def test_defaults_before_samples(self):
        rtt = RttEstimator()
        assert rtt.smoothed == INITIAL_RTT
        assert not rtt.has_sample

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RttEstimator().update(0.0)

    def test_delivery_time_is_srtt_plus_var(self):
        rtt = RttEstimator()
        rtt.update(0.1)
        assert rtt.delivery_time == pytest.approx(0.15)

    def test_pto_formula(self):
        rtt = RttEstimator()
        rtt.update(0.1)
        assert rtt.pto() == \
            pytest.approx(0.1 + 4 * 0.05 + 0.025)


def _mk_detector():
    rtt = RttEstimator()
    return PathLossDetector(rtt)


def _pkt(pn, t, size=1000, eliciting=True, in_flight=True):
    return SentPacket(packet_number=pn, sent_time=t, size=size,
                      ack_eliciting=eliciting, in_flight=in_flight)


def _aggregates(det):
    """What the detector reports: (bytes in flight, has unacked,
    oldest unacked, PTO deadline)."""
    return (det.bytes_in_flight, det.has_unacked, det.oldest_unacked(),
            det.pto_deadline())


def _recounted(det):
    """The same four, recounted from ``det.sent`` by brute force."""
    pkts = det.sent.values()
    eliciting = [p.sent_time for p in pkts if p.ack_eliciting]
    pto = det.rtt.pto() * 2 ** det.pto_count
    return (sum(p.size for p in pkts if p.in_flight),
            bool(eliciting),
            det.sent[min(det.sent)] if det.sent else None,
            min(eliciting) + pto if eliciting else None)


def _ack_ranges(pieces, last_pn):
    """Disjoint descending ranges over packet numbers already sent."""
    pns = set()
    for start, span in pieces:
        start %= last_pn + 1
        pns.update(range(start, min(start + span, last_pn) + 1))
    ranges = []
    for pn in sorted(pns, reverse=True):
        if ranges and ranges[-1].start == pn + 1:
            ranges[-1] = AckRange(pn, ranges[-1].end)
        else:
            ranges.append(AckRange(pn, pn))
    return tuple(ranges)


_detector_ops = st.lists(st.one_of(
    st.tuples(st.just("send"), st.integers(1, 3), st.integers(1, 1500),
              st.booleans(), st.booleans()),
    st.tuples(st.just("ack"),
              st.lists(st.tuples(st.integers(0, 200), st.integers(0, 12)),
                       min_size=1, max_size=3)),
    st.tuples(st.just("timer")),
    st.tuples(st.just("pto")),
    st.tuples(st.just("discard")),
), max_size=60)


class TestLossDetection:
    def test_ack_removes_packets(self):
        det = _mk_detector()
        for pn in range(3):
            det.on_packet_sent(_pkt(pn, 0.0))
        acked, lost, _ = det.on_ack_received((AckRange(0, 2),), 0.0, 0.1)
        assert [p.packet_number for p in acked] == [0, 1, 2]
        assert lost == []
        assert det.sent == {}

    def test_rtt_sample_from_largest(self):
        det = _mk_detector()
        det.on_packet_sent(_pkt(0, 1.0))
        _a, _l, sample = det.on_ack_received((AckRange(0, 0),), 0.0, 1.25)
        assert sample == pytest.approx(0.25)
        assert det.rtt.latest == pytest.approx(0.25)

    def test_packet_threshold_loss(self):
        """A packet PACKET_THRESHOLD behind the largest acked is lost."""
        det = _mk_detector()
        for pn in range(PACKET_THRESHOLD + 1):
            det.on_packet_sent(_pkt(pn, 0.0))
        _a, lost, _ = det.on_ack_received(
            (AckRange(PACKET_THRESHOLD, PACKET_THRESHOLD),), 0.0, 0.05)
        assert [p.packet_number for p in lost] == [0]

    def test_time_threshold_loss(self):
        det = _mk_detector()
        det.on_packet_sent(_pkt(0, 0.0))
        det.on_packet_sent(_pkt(1, 1.0))
        # Ack pn 1 long after pn 0 was sent.
        _a, lost, _ = det.on_ack_received((AckRange(1, 1),), 0.0, 1.1)
        assert [p.packet_number for p in lost] == [0]

    def test_reordering_within_threshold_not_lost(self):
        det = _mk_detector()
        det.on_packet_sent(_pkt(0, 0.0))
        det.on_packet_sent(_pkt(1, 0.0005))
        # Ack pn1 just after pn0: pn0 is only 1 behind and younger than
        # the 9/8 * max(rtt, granularity) time threshold.
        _a, lost, _ = det.on_ack_received((AckRange(1, 1),), 0.0, 0.001)
        assert lost == []
        assert det.loss_time is not None  # armed for later

    def test_loss_timer_fires(self):
        det = _mk_detector()
        det.on_packet_sent(_pkt(0, 0.0))
        det.on_packet_sent(_pkt(1, 0.0005))
        det.on_ack_received((AckRange(1, 1),), 0.0, 0.001)
        lost = det.on_loss_timer(10.0)
        assert [p.packet_number for p in lost] == [0]

    def test_pto_deadline_uses_oldest_eliciting(self):
        det = _mk_detector()
        det.rtt.update(0.1)
        det.on_packet_sent(_pkt(0, 1.0))
        det.on_packet_sent(_pkt(1, 2.0))
        deadline = det.pto_deadline()
        assert deadline == pytest.approx(1.0 + det.rtt.pto())

    def test_pto_backoff(self):
        det = _mk_detector()
        det.rtt.update(0.1)
        det.on_packet_sent(_pkt(0, 1.0))
        d0 = det.pto_deadline()
        det.on_pto()
        assert det.pto_deadline() == pytest.approx(1.0 + (d0 - 1.0) * 2)

    def test_pto_resets_on_ack(self):
        det = _mk_detector()
        det.on_packet_sent(_pkt(0, 0.0))
        det.on_pto()
        det.on_packet_sent(_pkt(1, 0.1))
        det.on_ack_received((AckRange(1, 1),), 0.0, 0.2)
        assert det.pto_count == 0

    def test_no_deadline_without_eliciting(self):
        det = _mk_detector()
        det.on_packet_sent(_pkt(0, 0.0, eliciting=False))
        assert det.pto_deadline() is None
        assert not det.has_unacked

    def test_pto_base_follows_eliciting_through_ack_loss_discard(self):
        """A receiver's ``sent``: ACK-only packets around a few
        ack-eliciting ones.  The PTO base is always the oldest tracked
        eliciting packet, as the full scan over ``sent`` would find."""
        det = _mk_detector()
        det.rtt.update(0.1)
        pto = det.rtt.pto()
        for pn in range(40):
            det.on_packet_sent(_pkt(pn, 0.01 * pn,
                                    eliciting=pn in (10, 20, 30)))

        def scanned():
            return _recounted(det)[3]

        assert det.pto_deadline() == scanned() == pytest.approx(0.1 + pto)
        det.on_ack_received((AckRange(8, 12),), 0.0, 0.5)   # acks pn 10
        assert det.pto_deadline() == scanned() == pytest.approx(0.2 + pto)
        # pn 20 trails largest_acked=31 by >= 3: lost; pn 30 is neither
        # that far behind nor (sent 50 ms ago) too old
        _acked, lost, _rtt = det.on_ack_received((AckRange(31, 31),),
                                                 0.0, 0.35)
        assert 20 in {p.packet_number for p in lost}
        assert det.pto_deadline() == scanned() == pytest.approx(0.3 + pto)
        det.discard_all()
        assert det.pto_deadline() is None and not det.has_unacked

    @settings(max_examples=200, deadline=None)
    @given(ops=_detector_ops,
           gaps=st.lists(st.floats(0.0, 0.3), min_size=60, max_size=60))
    def test_aggregates_equal_a_recount_of_sent(self, ops, gaps):
        """After any valid interleaving of sends, ACKs, loss timers,
        PTOs and discards, the incrementally kept aggregates equal a
        recount over ``sent``; a send out of order is refused and
        changes nothing."""
        det = _mk_detector()
        now, last_pn = 0.0, -1
        for op, gap in zip(ops, gaps):
            now += gap
            if op[0] == "send":
                _, step, size, eliciting, in_flight = op
                last_pn += step
                det.on_packet_sent(_pkt(last_pn, now, size, eliciting,
                                        in_flight))
            elif op[0] == "ack" and last_pn >= 0:
                det.on_ack_received(_ack_ranges(op[1], last_pn), 0.0, now)
            elif op[0] == "timer":
                det.on_loss_timer(now)
            elif op[0] == "pto":
                det.on_pto()
            elif op[0] == "discard":
                det.discard_all()
            assert _aggregates(det) == _recounted(det)
        if last_pn >= 0:
            before = dict(det.sent)
            with pytest.raises(ValueError):
                det.on_packet_sent(_pkt(last_pn, now))
            with pytest.raises(ValueError):
                det.on_packet_sent(_pkt(last_pn + 1, -1.0))
            assert det.sent == before
            assert _aggregates(det) == _recounted(det)

    def test_duplicate_pn_rejected(self):
        det = _mk_detector()
        det.on_packet_sent(_pkt(0, 0.0))
        with pytest.raises(ValueError):
            det.on_packet_sent(_pkt(0, 0.1))

    def test_bytes_in_flight(self):
        det = _mk_detector()
        det.on_packet_sent(_pkt(0, 0.0, size=500))
        det.on_packet_sent(_pkt(1, 0.0, size=700))
        assert det.bytes_in_flight == 1200


class TestNewReno:
    def test_slow_start_doubles(self):
        cc = NewRenoCc()
        start = cc.cwnd
        cc.on_packet_sent(1000, 0.0)
        cc.on_packet_acked(1000, 0.0, 0.1, 0.1)
        assert cc.cwnd == start + 1000

    def test_congestion_event_halves(self):
        cc = NewRenoCc()
        cc.cwnd = 100_000
        cc.on_packet_sent(1000, 0.0)
        cc.on_packets_lost(1000, 0.5, 1.0)
        assert cc.cwnd == pytest.approx(50_000)
        assert cc.ssthresh == pytest.approx(50_000)

    def test_recovery_suppresses_growth(self):
        cc = NewRenoCc()
        cc.on_packet_sent(1000, 0.0)
        cc.on_packet_sent(1000, 0.5)
        cc.on_packets_lost(1000, 0.0, 1.0)
        w = cc.cwnd
        # Ack of a packet sent before recovery start: no growth.
        cc.on_packet_acked(1000, 0.5, 1.1, 0.1)
        assert cc.cwnd == w

    def test_congestion_avoidance_linear(self):
        cc = NewRenoCc()
        cc.ssthresh = cc.cwnd  # force CA
        w = cc.cwnd
        cc.on_packet_sent(1000, 0.0)
        cc.on_packet_acked(1000, 0.0, 0.1, 0.1)
        assert cc.cwnd == pytest.approx(w + MAX_DATAGRAM_SIZE * 1000 / w)

    def test_minimum_window_floor(self):
        cc = NewRenoCc()
        cc.cwnd = MINIMUM_WINDOW
        cc.on_packets_lost(0, 0.5, 1.0)
        assert cc.cwnd == MINIMUM_WINDOW

    def test_only_one_reduction_per_rtt(self):
        cc = NewRenoCc()
        cc.cwnd = 100_000
        cc.on_packets_lost(1000, 0.9, 1.0)
        w = cc.cwnd
        cc.on_packets_lost(1000, 0.95, 1.05)  # sent before recovery start
        assert cc.cwnd == w

    def test_can_send_respects_window(self):
        cc = NewRenoCc()
        assert cc.can_send(1000)
        cc.bytes_in_flight = int(cc.cwnd)
        assert not cc.can_send(1000)

    def test_reset_restores_initial(self):
        cc = NewRenoCc()
        cc.cwnd = 500_000
        cc.bytes_in_flight = 100
        cc.reset()
        assert cc.cwnd == INITIAL_WINDOW
        assert cc.bytes_in_flight == 0


class TestCubic:
    def test_slow_start_growth(self):
        cc = CubicCc()
        start = cc.cwnd
        cc.on_packet_sent(1000, 0.0)
        cc.on_packet_acked(1000, 0.0, 0.1, 0.1)
        assert cc.cwnd == start + 1000

    def test_beta_reduction(self):
        cc = CubicCc()
        cc.cwnd = 100_000
        cc.on_packets_lost(1000, 0.5, 1.0)
        assert cc.cwnd == pytest.approx(70_000)

    def test_window_growth_accelerates_within_epoch(self):
        """Cubic's growth increases with time since the epoch began."""
        cc = CubicCc()
        cc.cwnd = 100_000
        cc.on_packets_lost(0, 0.5, 1.0)  # w_max = 100k, cwnd = 70k
        early = _cubic_growth(cc, at=1.5)  # also starts the epoch at 1.5
        late = _cubic_growth(cc, at=20.0)
        assert late > early

    def test_approaches_wmax_past_k(self):
        """The window climbs back toward W_max as the epoch passes K.

        Growth per ack is proportional to acked bytes, so with sparse
        acks the curve is tracked loosely; we assert most of the loss
        is recovered shortly after K.
        """
        cc = CubicCc()
        cc.cwnd = 100_000
        cc.on_packets_lost(0, 0.5, 1.0)
        t = 1.05  # past the recovery period that started at 1.0
        _cubic_growth(cc, at=t)  # starts the epoch, computes K
        k = cc._k
        while t < 1.05 + k + 1.0:
            _cubic_growth(cc, at=t)
            t += 0.05
        assert cc.cwnd >= 0.85 * 100_000
        assert cc.cwnd > 70_000

    def test_fast_convergence_lowers_wmax(self):
        cc = CubicCc()
        cc.cwnd = 100_000
        cc.on_packets_lost(0, 0.5, 1.0)
        # Second loss below previous w_max triggers fast convergence.
        cc.on_packets_lost(0, 2.0, 3.0)
        assert cc._w_max < 70_000 + 1

    def test_reset_clears_state(self):
        cc = CubicCc()
        cc.cwnd = 100_000
        cc.on_packets_lost(0, 0.5, 1.0)
        cc.reset()
        assert cc.cwnd == INITIAL_WINDOW
        assert cc._w_max == 0.0


def _cubic_growth(cc, at):
    """Total growth from acks at time ``at`` (outside slow start)."""
    before = cc.cwnd
    cc.on_packet_sent(1000, at)
    cc.on_packet_acked(1000, at, at, 0.05)
    return cc.cwnd - before


class TestLiaCoupled:
    def test_coupled_increase_less_aggressive(self):
        """LIA's coupled increase never beats the uncoupled one."""
        coord = LiaCoordinator()
        a = LiaCoupledCc(coord)
        b = LiaCoupledCc(coord)
        a.ssthresh = a.cwnd  # CA mode
        b.ssthresh = b.cwnd
        solo = NewRenoCc()
        solo.ssthresh = solo.cwnd
        a.last_rtt = b.last_rtt = 0.1
        before = a.cwnd
        a.on_packet_sent(1000, 0.0)
        a.on_packet_acked(1000, 0.0, 0.1, 0.1)
        growth_coupled = a.cwnd - before
        before = solo.cwnd
        solo.on_packet_sent(1000, 0.0)
        solo.on_packet_acked(1000, 0.0, 0.1, 0.1)
        growth_solo = solo.cwnd - before
        assert growth_coupled <= growth_solo + 1e-9

    def test_slow_start_uncoupled(self):
        coord = LiaCoordinator()
        a = LiaCoupledCc(coord)
        start = a.cwnd
        a.on_packet_sent(1000, 0.0)
        a.on_packet_acked(1000, 0.0, 0.1, 0.1)
        assert a.cwnd == start + 1000

    def test_alpha_positive(self):
        coord = LiaCoordinator()
        a = LiaCoupledCc(coord)
        b = LiaCoupledCc(coord)
        a.last_rtt, b.last_rtt = 0.02, 0.2
        assert coord.alpha() > 0


class TestCcFactory:
    def test_make_cc_by_name(self):
        assert isinstance(make_cc("cubic"), CubicCc)
        assert isinstance(make_cc("newreno"), NewRenoCc)
        assert isinstance(make_cc("lia"), LiaCoupledCc)
        assert isinstance(make_cc("bbr"), BbrCc)
        assert isinstance(make_cc("mpbbr"), MpBbrCc)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_cc("vegas")
