"""Tests for flow control, transport parameters, and path state."""

import pytest

from repro.quic.cc import NewRenoCc
from repro.quic.cid import ConnectionId
from repro.quic.errors import FlowControlError
from repro.quic.flow_control import FlowControlWindow
from repro.quic.path import Path, PathState
from repro.quic.transport_params import TransportParameters


class TestFlowControlWindow:
    def test_sendable_shrinks_with_offset(self):
        fc = FlowControlWindow.with_window(1000)
        assert fc.sendable(0) == 1000
        assert fc.sendable(400) == 600
        assert fc.sendable(1000) == 0
        assert fc.sendable(1500) == 0

    def test_peer_update_only_raises(self):
        fc = FlowControlWindow.with_window(1000)
        fc.on_peer_update(500)     # stale update ignored
        assert fc.limit == 1000
        fc.on_peer_update(2000)
        assert fc.limit == 2000

    def test_check_receive_enforces_limit(self):
        fc = FlowControlWindow.with_window(1000)
        fc.check_receive(1000)  # exactly at limit is fine
        with pytest.raises(FlowControlError):
            fc.check_receive(1001)

    def test_maybe_advance_half_window_rule(self):
        fc = FlowControlWindow.with_window(1000)
        # Consumer at 300: remaining 700 >= 500, no update.
        assert fc.maybe_advance(300) == 0
        # Consumer at 600: remaining 400 < 500 -> bump to 1600.
        assert fc.maybe_advance(600) == 1600
        assert fc.limit == 1600

    def test_maybe_advance_is_monotone(self):
        fc = FlowControlWindow.with_window(1000)
        first = fc.maybe_advance(900)
        second = fc.maybe_advance(901)
        assert first == 1900
        assert second in (0, 1901)
        assert fc.limit >= first


class TestTransportParameters:
    def test_roundtrip(self):
        params = TransportParameters(enable_multipath=True,
                                     initial_max_data=123456,
                                     initial_max_stream_data=7890,
                                     initial_max_streams=42,
                                     max_ack_delay_us=10_000,
                                     active_cid_limit=5)
        assert TransportParameters.decode(params.encode()) == params

    def test_default_roundtrip(self):
        params = TransportParameters()
        assert TransportParameters.decode(params.encode()) == params

    def test_negotiation_requires_both(self):
        on = TransportParameters(enable_multipath=True)
        off = TransportParameters(enable_multipath=False)
        assert TransportParameters.negotiated_multipath(on, on)
        assert not TransportParameters.negotiated_multipath(on, off)
        assert not TransportParameters.negotiated_multipath(off, on)
        assert not TransportParameters.negotiated_multipath(off, off)


def _path(path_id=0):
    cid = ConnectionId(cid=bytes([path_id + 1]) * 8,
                       sequence_number=path_id)
    return Path(path_id, cid, cid, NewRenoCc())


class TestPathState:
    def test_initial_state(self):
        path = _path()
        assert path.state is PathState.PENDING

    def test_packet_numbers_monotone(self):
        path = _path()
        pns = [path.next_packet_number() for _ in range(5)]
        assert pns == [0, 1, 2, 3, 4]

    def test_record_received_tracks_ranges(self):
        path = _path()
        assert path.record_received(0, now=1.0)
        assert path.record_received(1, now=1.1)
        assert path.record_received(3, now=1.2)
        assert path.ack_pending == [(0, 1), (3, 3)]
        assert path.largest_received_pn == 3

    def test_duplicate_receive_rejected(self):
        path = _path()
        assert path.record_received(5, now=1.0)
        assert not path.record_received(5, now=1.1)

    def test_range_merge_fills_gap(self):
        path = _path()
        for pn in (0, 2, 1):
            path.record_received(pn, now=1.0)
        assert path.ack_pending == [(0, 2)]

    def test_abandon(self):
        path = _path()
        path.state = PathState.ACTIVE
        assert path.is_usable
        path.state = PathState.ABANDONED
        assert not path.is_usable

    def test_suspect_requires_silence_and_history(self):
        path = _path()
        path.state = PathState.ACTIVE
        # Never received, nothing unacked: not suspect.
        assert not path.is_suspect(now=100.0)
        path.record_received(0, now=100.0)
        path.packets_received = 1
        assert not path.is_suspect(now=100.1)
        # A long silence afterwards makes it suspect.
        assert path.is_suspect(now=105.0)

    def test_suspect_with_unacked_only(self):
        from repro.quic.loss_detection import SentPacket
        path = _path()
        path.loss.on_packet_sent(SentPacket(
            packet_number=0, sent_time=0.0, size=100,
            ack_eliciting=True, in_flight=True))
        assert path.is_suspect(now=10.0)
