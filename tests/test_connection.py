"""Integration tests for the multipath QUIC connection over the emulator."""

import pytest

from repro.core import (MinRttScheduler, ReinjectionMode, SinglePathScheduler,
                        ThresholdConfig, XlinkScheduler)
from repro.netem import Datagram, MultipathNetwork, OutageSchedule
from repro.quic.connection import Connection, ConnectionConfig
from repro.quic.frames import PathStatus
from repro.quic.path import PathState
from repro.sim import EventLoop
from tests.test_scheduler import gate_answers


def build_pair(loop, net, client_scheduler=None, server_scheduler=None,
               client_mp=True, server_mp=True, name="test",
               ack_policy="fastest", cc="cubic"):
    client = Connection(
        loop, ConnectionConfig(is_client=True, enable_multipath=client_mp,
                               ack_path_policy=ack_policy, cc_algorithm=cc),
        transmit=lambda pid, d: net.client.send(
            Datagram(payload=d, path_id=pid)),
        scheduler=client_scheduler or MinRttScheduler(),
        connection_name=name)
    server = Connection(
        loop, ConnectionConfig(is_client=False, enable_multipath=server_mp,
                               ack_path_policy=ack_policy, cc_algorithm=cc),
        transmit=lambda pid, d: net.server.send(
            Datagram(payload=d, path_id=pid)),
        scheduler=server_scheduler or MinRttScheduler(),
        connection_name=name)
    net.client.on_receive(lambda d: client.datagram_received(d.payload,
                                                             d.path_id))
    net.server.on_receive(lambda d: server.datagram_received(d.payload,
                                                             d.path_id))
    client.add_local_path(0, 0)
    server.add_local_path(0, 0)
    return client, server


def captured(conn, kind, field="payload"):
    """A list ``conn`` appends ``field`` of each ``kind`` event to."""
    out = []

    def listener(event, fields):
        if event == kind:
            out.append(fields[field])

    conn.listeners.append(listener)
    return out


def two_path_net(loop, rate1=20e6, rate2=20e6, delay1=0.02, delay2=0.05,
                 **kw):
    net = MultipathNetwork(loop)
    net.add_simple_path(0, rate1, delay1)
    net.add_simple_path(1, rate2, delay2, **kw)
    return net


class TestHandshake:
    def test_establishes_in_one_rtt(self):
        loop = EventLoop()
        net = two_path_net(loop)
        client, server = build_pair(loop, net)
        client.connect()
        loop.run(until=1.0)
        assert client.established and server.established
        # 1 RTT on the 20 ms one-way path = 40 ms.
        assert client.stats.handshake_completed_at == pytest.approx(
            0.04, abs=0.01)

    def test_multipath_negotiated_when_both_enable(self):
        loop = EventLoop()
        net = two_path_net(loop)
        client, server = build_pair(loop, net)
        client.connect()
        loop.run(until=1.0)
        assert client.multipath_negotiated
        assert server.multipath_negotiated

    def test_fallback_when_server_lacks_multipath(self):
        """Fig. 9: no enable_multipath from the server -> single path."""
        loop = EventLoop()
        net = two_path_net(loop)
        client, server = build_pair(loop, net, server_mp=False)
        client.connect()
        loop.run(until=1.0)
        assert client.established
        assert not client.multipath_negotiated
        with pytest.raises(Exception):
            client.open_path(1, 1)

    def test_handshake_retransmitted_on_loss(self):
        loop = EventLoop()
        net = MultipathNetwork(loop)
        # Total outage for the first 1.5 s eats the first handshake.
        net.add_simple_path(0, 20e6, 0.02,
                            outages=OutageSchedule(windows=[(0.0, 1.5)]))
        client, server = build_pair(loop, net)
        client.connect()
        loop.run(until=5.0)
        assert client.established

    def test_peer_cids_registered(self):
        loop = EventLoop()
        net = two_path_net(loop)
        client, server = build_pair(loop, net)
        client.connect()
        loop.run(until=1.0)
        # EXTRA_CIDS=4 plus the handshake SCID (seq 0).
        assert set(client.cids.peer_cids) == {0, 1, 2, 3, 4}
        assert set(server.cids.peer_cids) == {0, 1, 2, 3, 4}


class TestPathLifecycle:
    def _established(self, loop, net):
        client, server = build_pair(loop, net)
        client.connect()
        loop.run(until=0.5)
        return client, server

    def test_open_path_validates(self):
        loop = EventLoop()
        net = two_path_net(loop)
        client, server = self._established(loop, net)
        path = client.open_path(1, 1)
        assert path.state is PathState.VALIDATING
        loop.run(until=1.0)
        assert path.state is PathState.ACTIVE
        assert 1 in server.paths

    def test_path_ids_are_cid_sequence_numbers(self):
        loop = EventLoop()
        net = two_path_net(loop)
        client, server = self._established(loop, net)
        client.open_path(1, 1)
        loop.run(until=1.0)
        path = client.paths[1]
        assert path.remote_cid.sequence_number == 1
        assert path.local_cid.sequence_number == 1

    def test_migration_resets_cwnd(self):
        loop = EventLoop()
        net = two_path_net(loop)
        client, server = self._established(loop, net)
        client.open_path(1, 1)
        loop.run(until=1.0)
        client.paths[1].cc.cwnd = 500_000
        client.migrate(1)
        assert client.paths[1].cc.cwnd < 500_000
        assert client.paths[0].state is PathState.STANDBY
        assert client.paths[1].state is PathState.ACTIVE


def transfer(loop, net, server_scheduler, size=200_000, open_second=True,
             until=30.0, client_qoe=None, ack_policy="fastest"):
    """Handshake, open paths, transfer ``size`` bytes server->client."""
    client, server = build_pair(loop, net,
                                server_scheduler=server_scheduler,
                                ack_policy=ack_policy)
    if client_qoe is not None:
        client.qoe_provider = client_qoe
    state = {"done_at": None}

    def on_established():
        if open_second and client.multipath_negotiated:
            client.open_path(1, 1)
        sid = client.create_stream()
        client.stream_send(sid, b"GET", fin=True)

    def on_server_stream(sid):
        stream = server.recv_streams[sid]
        if stream.is_complete and sid not in getattr(
                server, "_served", set()):
            served = getattr(server, "_served", set())
            served.add(sid)
            server._served = served
            server.stream_read(sid)
            server.stream_send(sid, b"D" * size, fin=True)

    def on_client_complete(sid):
        state["done_at"] = loop.now

    client.on_established = on_established
    server.on_stream_data = on_server_stream
    client.on_stream_complete = on_client_complete
    client.connect()
    while state["done_at"] is None and loop.now < until:
        if not loop.step():
            break
    return client, server, state["done_at"]


class TestDataTransfer:
    def test_single_path_transfer_completes(self):
        loop = EventLoop()
        net = MultipathNetwork(loop)
        net.add_simple_path(0, 10e6, 0.02)
        client, server, done = transfer(loop, net, SinglePathScheduler(),
                                        open_second=False)
        assert done is not None

    def test_multipath_aggregates_bandwidth(self):
        """Two slow paths beat one of them alone."""
        size = 1_500_000
        loop1 = EventLoop()
        net1 = MultipathNetwork(loop1)
        net1.add_simple_path(0, 4e6, 0.02)
        _c, _s, single = transfer(loop1, net1, SinglePathScheduler(),
                                  size=size, open_second=False)
        loop2 = EventLoop()
        net2 = two_path_net(loop2, rate1=4e6, rate2=4e6, delay2=0.03)
        _c, _s, multi = transfer(loop2, net2, MinRttScheduler(), size=size)
        assert single is not None and multi is not None
        assert multi < single * 0.85

    def test_both_paths_carry_data(self):
        loop = EventLoop()
        net = two_path_net(loop, rate1=4e6, rate2=4e6)
        client, server, done = transfer(loop, net, MinRttScheduler(),
                                        size=1_000_000)
        assert done is not None
        assert server.paths[0].bytes_sent > 10_000
        assert server.paths[1].bytes_sent > 10_000

    def test_loss_recovered(self):
        loop = EventLoop()
        net = MultipathNetwork(loop)
        net.add_simple_path(0, 10e6, 0.02, loss_rate=0.05)
        client, server, done = transfer(loop, net, SinglePathScheduler(),
                                        size=500_000, open_second=False)
        assert done is not None
        assert server.stats.stream_bytes_rtx > 0

    def test_transfer_through_outage(self):
        loop = EventLoop()
        net = MultipathNetwork(loop)
        net.add_simple_path(
            0, 10e6, 0.02,
            outages=OutageSchedule(windows=[(0.2, 0.8)]))
        client, server, done = transfer(loop, net, SinglePathScheduler(),
                                        size=500_000, open_second=False,
                                        until=30.0)
        assert done is not None

    def test_flow_control_limits_respected(self):
        loop = EventLoop()
        net = two_path_net(loop)
        client, server, done = transfer(loop, net, MinRttScheduler(),
                                        size=3_000_000)
        assert done is not None
        # Client never sees more connection bytes than it advertised.
        assert client.fc_recv.limit >= client.receiver.total_recv_offset

    def test_duplicate_datagram_ignored(self):
        loop = EventLoop()
        net = two_path_net(loop)
        client, server = build_pair(loop, net)
        seen = []
        orig = client.datagram_received

        def duplicating(payload, net_path_id=-1):
            seen.append(payload)
            orig(payload, net_path_id)
            orig(payload, net_path_id)  # replay every datagram

        net.client.on_receive(
            lambda d: duplicating(d.payload, d.path_id))
        client.connect()
        loop.run(until=0.5)
        assert client.established  # no crash, duplicates dropped


class TestXlinkReinjection:
    def test_reinjection_rescues_outage(self):
        """MP-HoL scenario: path 0 blacks out mid-transfer; XLINK's
        re-injection recovers the stuck bytes via path 1 much faster
        than vanilla min-RTT waiting for PTO."""
        size = 800_000

        def run(sched):
            loop = EventLoop()
            net = MultipathNetwork(loop)
            net.add_simple_path(
                0, 8e6, 0.02,
                outages=OutageSchedule(windows=[(0.15, 5.0)]))
            net.add_simple_path(1, 8e6, 0.04)
            _c, s, done = transfer(loop, net, sched, size=size, until=30.0)
            return done, s

        vanilla_done, _ = run(MinRttScheduler())
        xlink_done, xlink_server = run(XlinkScheduler(
            mode=ReinjectionMode.STREAM_PRIORITY,
            thresholds=ThresholdConfig(always_on=True)))
        assert xlink_done is not None
        assert xlink_server.stats.stream_bytes_reinjected > 0
        assert vanilla_done is None or xlink_done < vanilla_done

    def test_qoe_gate_suppresses_reinjection_when_buffer_high(self):
        loop = EventLoop()
        net = two_path_net(loop, rate1=8e6, rate2=8e6)
        sched = XlinkScheduler(thresholds=ThresholdConfig(0.5, 2.0))
        answers = gate_answers(sched)
        from repro.quic.frames import QoeSignals
        rich = QoeSignals(cached_bytes=10_000_000, cached_frames=10_000,
                          bps=2_000_000, fps=25)
        _c, server, done = transfer(loop, net, sched, size=500_000,
                                    client_qoe=lambda: rich)
        assert done is not None
        assert server.stats.stream_bytes_reinjected == 0
        assert False in answers

    def test_reinjected_bytes_counted_separately(self):
        loop = EventLoop()
        net = MultipathNetwork(loop)
        net.add_simple_path(0, 6e6, 0.02,
                            outages=OutageSchedule(windows=[(0.1, 3.0)]))
        net.add_simple_path(1, 6e6, 0.05)
        sched = XlinkScheduler(thresholds=ThresholdConfig(always_on=True))
        _c, server, done = transfer(loop, net, sched, size=400_000)
        assert server.stats.stream_bytes_reinjected > 0
        assert server.stats.stream_bytes_new == 400_000


class TestAckPathPolicy:
    def _rtts(self, policy):
        loop = EventLoop()
        net = two_path_net(loop, rate1=8e6, rate2=8e6,
                           delay1=0.01, delay2=0.08)
        client, server, done = transfer(loop, net, MinRttScheduler(),
                                        size=600_000, ack_policy=policy)
        assert done is not None
        return done, server

    def test_fastest_beats_original_with_asymmetric_paths(self):
        """Fig. 8: ACK_MP on the min-RTT path speeds up the transfer."""
        fastest_done, _ = self._rtts("fastest")
        original_done, _ = self._rtts("original")
        assert fastest_done <= original_done * 1.05

    def test_original_policy_measures_true_path_rtt(self):
        _done, server = self._rtts("original")
        # Path 1 one-way delay 80 ms -> RTT >= 160 ms on the original path.
        assert server.paths[1].rtt.smoothed >= 0.14


class TestConnectionClose:
    def test_close_notifies_peer(self):
        loop = EventLoop()
        net = two_path_net(loop)
        client, server = build_pair(loop, net)
        client.connect()
        loop.run(until=0.5)
        client.close()
        loop.run(until=1.0)
        assert client.closed and server.closed

    def test_no_sends_after_close(self):
        loop = EventLoop()
        net = two_path_net(loop)
        client, server = build_pair(loop, net)
        client.connect()
        loop.run(until=0.5)
        client.close()
        count = client.stats.packets_sent
        client.stream_send(client.create_stream(), b"late", fin=True)
        loop.run(until=1.0)
        assert client.stats.packets_sent == count
