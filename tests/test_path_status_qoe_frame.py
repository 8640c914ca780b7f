"""The receive side of PATH_STATUS, and QoE feedback on ACK_MP.

A client retires a path with ``Connection.abandon_path``, which sends
PATH_STATUS Abandon on another path; the peer drops the path too.  The
frame's Standby and Available values are decoded but change nothing.
QoE feedback rides ACK_MP (the draft's standalone QOE_CONTROL_SIGNALS
frame is not implemented), so it reaches the server while data flows.
"""

from repro.core import MinRttScheduler, ThresholdConfig, XlinkScheduler
from repro.netem import Datagram, MultipathNetwork
from repro.quic.connection import Connection, ConnectionConfig
from repro.quic.frames import PathStatus, PathStatusFrame, QoeSignals
from repro.quic.path import PathState
from repro.sim import EventLoop


def pair(server_scheduler=None):
    loop = EventLoop()
    net = MultipathNetwork(loop)
    net.add_simple_path(0, 10e6, 0.01)
    net.add_simple_path(1, 10e6, 0.03)
    client = Connection(loop, ConnectionConfig(is_client=True),
                        transmit=lambda pid, d: net.client.send(
                            Datagram(payload=d, path_id=pid)),
                        scheduler=MinRttScheduler(),
                        connection_name="ps")
    server = Connection(loop, ConnectionConfig(is_client=False),
                        transmit=lambda pid, d: net.server.send(
                            Datagram(payload=d, path_id=pid)),
                        scheduler=server_scheduler or MinRttScheduler(),
                        connection_name="ps")
    net.client.on_receive(lambda d: client.datagram_received(d.payload,
                                                             d.path_id))
    net.server.on_receive(lambda d: server.datagram_received(d.payload,
                                                             d.path_id))
    client.add_local_path(0, 0)
    server.add_local_path(0, 0)
    client.on_established = lambda: client.open_path(1, 1)
    client.connect()
    loop.run(until=0.5)
    return loop, net, client, server


def send_status(loop, client, path_id, status):
    """The client tells the server ``path_id`` is now ``status``."""
    client.sender.queue_control(0, PathStatusFrame(
        path_id=path_id, status=status, status_seq=0))
    client.sender.flush_control(loop.now)


def serve(client, server, size):
    """The client asks on a new stream; the server answers ``size``
    bytes.  Returns the stream id."""
    sid = client.create_stream()
    client.stream_send(sid, b"GET", fin=True)

    def on_data(stream_id):
        stream = server.recv_streams[stream_id]
        if stream.is_complete and not getattr(server, "_done", False):
            server._done = True
            server.stream_read(stream_id)
            server.stream_send(stream_id, b"X" * size, fin=True)

    server.on_stream_data = on_data
    return sid


class TestPathStatus:
    def test_standby_and_available_change_nothing(self):
        loop, net, client, server = pair()
        send_status(loop, client, 1, PathStatus.STANDBY)
        loop.run(until=1.0)
        assert server.paths[1].state is PathState.ACTIVE
        send_status(loop, client, 1, PathStatus.AVAILABLE)
        loop.run(until=1.5)
        assert server.paths[1].state is PathState.ACTIVE

    def test_standby_path_not_scheduled(self):
        """A path in STANDBY (here: left behind by a migration) carries
        no data."""
        loop, net, client, server = pair()
        server.migrate(0)
        assert server.paths[1].state is PathState.STANDBY
        sent_before = server.paths[1].bytes_sent
        serve(client, server, 200_000)
        loop.run(until=5.0)
        assert server.paths[1].bytes_sent == sent_before
        assert server.paths[0].bytes_sent > 200_000

    def test_abandon_via_status(self):
        loop, net, client, server = pair()
        client.abandon_path(1)
        assert client.paths[1].state is PathState.ABANDONED
        loop.run(until=1.0)
        assert server.paths[1].state is PathState.ABANDONED

    def test_unknown_path_rejected(self):
        """A PATH_STATUS for a path the peer does not have changes
        nothing there."""
        loop, net, client, server = pair()
        send_status(loop, client, 9, PathStatus.ABANDON)
        loop.run(until=1.0)
        assert sorted(server.paths) == [0, 1]
        assert all(p.state is PathState.ACTIVE
                   for p in server.paths.values())
        assert not server.closed


class TestQoeFeedbackOnAckMp:
    def test_feedback_drives_scheduler_controller(self):
        sched = XlinkScheduler(thresholds=ThresholdConfig(0.5, 2.0))
        loop, net, client, server = pair(server_scheduler=sched)
        client.qoe_provider = lambda: QoeSignals(
            cached_bytes=0, cached_frames=0, bps=2_000_000, fps=25)
        serve(client, server, 200_000)
        loop.run(until=1.0)
        assert sched.controller.last_qoe is not None
        assert sched.controller.play_time_left(loop.now) == 0.0

    def test_feedback_updates_over_time(self):
        loop, net, client, server = pair()
        values = iter(range(100, 100_000))
        client.qoe_provider = lambda: QoeSignals(
            cached_bytes=next(values), cached_frames=1, bps=1, fps=1)
        feedback = []
        server.listeners.append(
            lambda kind, fields: kind == "feedback_received"
            and feedback.append(fields["cached_bytes"]))
        serve(client, server, 2_000_000)
        loop.run(until=0.8)
        first = feedback[-1]
        loop.run(until=1.4)
        assert feedback[-1] > first
