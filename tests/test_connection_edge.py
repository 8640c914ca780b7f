"""Edge-case tests for connection internals."""

import pytest

from repro.core import MinRttScheduler, ThresholdConfig, XlinkScheduler
from repro.netem import Datagram, MultipathNetwork, OutageSchedule
from repro.quic.connection import Connection, ConnectionConfig, SendChunk
from repro.quic.errors import TransportErrorCode
from repro.quic.frames import NewConnectionIdFrame, QoeSignals
from repro.sim import EventLoop


def pair(loop=None, rate1=10e6, rate2=10e6, delay1=0.01, delay2=0.03,
         **path_kw):
    loop = loop or EventLoop()
    net = MultipathNetwork(loop)
    net.add_simple_path(0, rate1, delay1, **path_kw)
    net.add_simple_path(1, rate2, delay2)
    client = Connection(loop, ConnectionConfig(is_client=True),
                        transmit=lambda pid, d: net.client.send(
                            Datagram(payload=d, path_id=pid)),
                        scheduler=MinRttScheduler(),
                        connection_name="edge")
    server = Connection(loop, ConnectionConfig(is_client=False),
                        transmit=lambda pid, d: net.server.send(
                            Datagram(payload=d, path_id=pid)),
                        scheduler=MinRttScheduler(),
                        connection_name="edge")
    net.client.on_receive(lambda d: client.datagram_received(d.payload,
                                                             d.path_id))
    net.server.on_receive(lambda d: server.datagram_received(d.payload,
                                                             d.path_id))
    client.add_local_path(0, 0)
    server.add_local_path(0, 0)
    client.connect()
    loop.run(until=0.3)
    return loop, net, client, server


class TestReinjectionDedup:
    def test_same_range_not_requeued_within_ttl(self):
        loop, net, client, server = pair()
        server._ensure_send_stream(1)
        server.send_streams[1].write(b"x" * 2000)
        chunk = SendChunk(stream_id=1, offset=0, length=1000,
                          kind="reinject")
        before = len(server.send_queue)
        server.enqueue_reinjection(chunk)
        server.enqueue_reinjection(SendChunk(stream_id=1, offset=0,
                                             length=1000, kind="reinject"))
        assert len(server.send_queue) == before + 1

    def test_range_can_retry_after_ttl(self):
        loop, net, client, server = pair()
        server._ensure_send_stream(1)
        server.send_streams[1].write(b"x" * 2000)
        server.enqueue_reinjection(SendChunk(stream_id=1, offset=0,
                                             length=1000, kind="reinject"))
        first = len(server.send_queue)
        # Advance virtual time beyond the TTL window.
        loop.schedule_after(5.0, lambda: None)
        loop.run()
        server.enqueue_reinjection(SendChunk(stream_id=1, offset=0,
                                             length=1000, kind="reinject"))
        assert len(server.send_queue) == first + 1

    def test_ack_clears_dedup_entry(self):
        loop, net, client, server = pair()
        server._ensure_send_stream(1)
        stream = server.send_streams[1]
        stream.write(b"x" * 2000)
        server.enqueue_reinjection(SendChunk(stream_id=1, offset=0,
                                             length=1000, kind="reinject"))
        assert (0, 1000) in stream.reinjected
        from repro.quic.send import SentFrameInfo
        from repro.quic.loss_detection import SentPacket
        pkt = SentPacket(packet_number=99, sent_time=0.0, size=100,
                         ack_eliciting=True, in_flight=True,
                         frames_info=(SentFrameInfo(
                             stream_id=1, offset=0, length=1000),))
        server.acks.on_frames_acked(pkt)
        assert (0, 1000) not in stream.reinjected


class TestMaxDeliveryTime:
    def test_zero_without_unacked(self):
        loop, net, client, server = pair()
        loop.run(until=2.0)  # everything acked by now
        assert server.max_delivery_time() == 0.0

    def test_grows_while_path_dark(self):
        """The wait-aware bound: a silent path's estimate keeps rising."""
        loop, net, client, server = pair(
            outages=OutageSchedule(windows=[(0.5, 30.0)]))
        sid = client.create_stream()
        client.stream_send(sid, b"GET", fin=True)

        def serve(stream_id):
            stream = server.recv_streams[stream_id]
            if stream.is_complete and not getattr(server, "_done", False):
                server._done = True
                server.stream_read(stream_id)
                server.stream_send(stream_id, b"D" * 500_000, fin=True)

        server.on_stream_data = serve
        loop.run(until=1.5)
        early = server.max_delivery_time()
        loop.run(until=3.0)
        late = server.max_delivery_time()
        if server.paths[0].loss.has_unacked:
            assert late > early


class TestAddressMigration:
    def test_server_follows_observed_network_path(self):
        loop, net, client, server = pair()
        assert server.net_path_of[0] == 0
        # The client rebinds path 0 onto interface 1 and probes.
        client.net_path_of[0] = 1
        client.send_ping(0)
        loop.run(until=1.0)
        assert server.net_path_of[0] == 1


class TestQueueSemantics:
    def test_fin_only_write_enqueues_chunk(self):
        loop, net, client, server = pair()
        server._ensure_send_stream(1)
        server.send_streams[1].write(b"abc")
        server.sender.enqueue_stream_data(server.send_streams[1])
        server.send_queue.clear()
        server.send_streams[1].write(b"", fin=True)
        server.sender.enqueue_stream_data(server.send_streams[1])
        assert any(c.length == 0 for c in server.send_queue)

    def test_chunks_split_on_priority_boundaries(self):
        loop, net, client, server = pair()
        server._ensure_send_stream(1)
        stream = server.send_streams[1]
        stream.write(b"x" * 300, frame_priority=0, position=100, size=100)
        server.send_queue.clear()
        stream.queued_offset = 0
        server.sender.enqueue_stream_data(stream)
        priorities = [(c.offset, c.length, c.frame_priority)
                      for c in server.send_queue]
        assert priorities == [(0, 100, 10), (100, 100, 0), (200, 100, 10)]

    def test_acked_chunk_skipped_by_pump(self):
        loop, net, client, server = pair()
        server._ensure_send_stream(1)
        stream = server.send_streams[1]
        stream.write(b"x" * 100)
        stream.on_acked(0, 100, fin=False)
        chunk = SendChunk(stream_id=1, offset=0, length=100, kind="rtx")
        assert not server.sender.chunk_sendable(chunk)


class TestQoeProviderIntegration:
    def test_acks_carry_latest_qoe(self):
        loop, net, client, server = pair()
        snapshots = iter([QoeSignals(10, 1, 1, 1),
                          QoeSignals(20, 2, 2, 2)] + [
                              QoeSignals(30, 3, 3, 3)] * 50)
        client.qoe_provider = lambda: next(snapshots)
        sid = client.create_stream()
        client.stream_send(sid, b"GET", fin=True)

        def serve(stream_id):
            stream = server.recv_streams[stream_id]
            if stream.is_complete and not getattr(server, "_done", False):
                server._done = True
                server.stream_read(stream_id)
                server.stream_send(stream_id, b"D" * 100_000, fin=True)

        server.on_stream_data = serve
        feedback = []
        server.listeners.append(
            lambda kind, fields: kind == "feedback_received"
            and feedback.append(fields["cached_bytes"]))
        loop.run(until=3.0)
        assert feedback and set(feedback) <= {10, 20, 30}


class TestNewConnectionIdLength:
    def test_a_cid_this_stack_cannot_hold_closes_the_connection(self):
        """An authenticated NEW_CONNECTION_ID with a 4-byte CID used to
        reach ``ConnectionId``, whose ``ValueError`` is no ``QuicError``
        and escaped ``on_datagram`` through ``EventLoop.run``."""
        loop, net, client, server = pair()
        server.sender.queue_control(
            0, NewConnectionIdFrame(9, b"\x01\x02\x03\x04", 0))
        server.pump()
        loop.run(until=loop.now + 1.0)      # must not raise
        assert client.closed and server.closed
        assert client.stats.frame_decode_errors == 1
        assert client.stats.protocol_error_closes == 1
        assert 9 not in client.cids.peer_cids


class TestReissuedConnectionId:
    """A sequence number reissued with a different CID is the peer's
    protocol violation; ``CidRegistry.register_peer`` used to answer it
    with a bare ``ValueError`` that is no ``QuicError``."""

    @staticmethod
    def _close_codes(conn):
        """Record the error code of every ``conn.close`` call."""
        codes, close = [], conn.close

        def spy(error_code=0, reason=""):
            codes.append(error_code)
            close(error_code=error_code, reason=reason)

        conn.close = spy
        return codes

    def test_in_a_1rtt_frame_closes_the_connection(self):
        # it escaped ``on_datagram`` through ``EventLoop.run``
        loop, net, client, server = pair()
        codes = self._close_codes(client)
        assert 1 in client.cids.peer_cids
        server.sender.queue_control(
            0, NewConnectionIdFrame(1, b"\xee" * 8, 0))
        server.pump()
        loop.run(until=loop.now + 1.0)      # must not raise
        assert client.closed and server.closed
        assert client.stats.protocol_error_closes == 1
        assert codes == [TransportErrorCode.PROTOCOL_VIOLATION]
        assert client.cids.peer_cids[1].cid != b"\xee" * 8

    def test_in_a_handshake_packet_closes_the_connection(self):
        # it was swallowed as a malformed drop: no close, no error code
        loop, net, client, server = pair()
        codes = self._close_codes(client)
        frames = server._handshake_frames()
        server._handshake_frames = lambda: frames + [
            NewConnectionIdFrame(1, b"\xee" * 8, 0)]
        server._send_handshake()
        loop.run(until=loop.now + 1.0)
        assert client.closed and server.closed
        assert client.stats.protocol_error_closes == 1
        assert client.stats.malformed_dropped == 0
        assert codes == [TransportErrorCode.PROTOCOL_VIOLATION]
