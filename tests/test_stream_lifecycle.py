"""Stream lifecycle: a connection's state follows what is open.

A bidirectional stream whose send half is fully acked and whose receive
half is read to its final size is closed (RFC 9000 Sec. 3.4) and
forgotten; only its id survives, so that late frames and stale chunks
are ignored instead of bringing it back.
"""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MinRttScheduler
from repro.quic.connection import Connection, ConnectionConfig, SendChunk
from repro.quic.errors import StreamStateError
from repro.quic.frames import MaxStreamDataFrame, StreamFrame
from repro.sim import EventLoop
from tests import test_one_pass
from tests.test_connection import captured


def established_pair():
    return test_one_pass.established_pair(
        lambda net: net.add_simple_path(0, 1e9, 0.001))


def open_streams(conn):
    return len(conn.send_streams) + len(conn.recv_streams)


# ---------------------------------------------------------------------------
# (a) the memory gate
# ---------------------------------------------------------------------------


def test_state_follows_open_streams_not_history():
    """2,000 request/response streams, 4 open at a time: both peers end
    with at most ``window`` streams, and what the run retains between
    exchange 500 and exchange 2,000 is noise, not a per-stream record.
    (The tree before stream retirement kept ~3 KB per exchange here.)"""
    window, exchanges, warm = 4, 2000, 500
    loop, client, server = established_pair()
    request, response = b"q" * 64, b"r" * 256
    pending = set()
    state = {"issued": 0, "done": 0, "retained_at_warm": None,
             "most_open": 0}

    def retained():
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    def issue():
        if state["issued"] < exchanges:
            state["issued"] += 1
            sid = client.create_stream()
            pending.add(sid)
            client.stream_send(sid, request, fin=True)

    def serve(sid):
        if server.stream_read(sid):
            server.stream_send(sid, response, fin=True)

    def finish(sid):
        if sid not in pending:
            return
        pending.discard(sid)
        assert client.stream_read(sid) == response
        state["done"] += 1
        state["most_open"] = max(state["most_open"], open_streams(client),
                                 open_streams(server))
        if state["done"] == warm:
            state["retained_at_warm"] = retained()
        issue()

    server.on_stream_complete = serve
    client.on_stream_complete = finish
    tracemalloc.start()
    try:
        for _ in range(window):
            issue()
        loop.run(until=loop.now + 60.0)
        growth = retained() - state["retained_at_warm"]
    finally:
        tracemalloc.stop()
    assert state["done"] == exchanges
    assert state["most_open"] <= 2 * window
    for conn in (client, server):
        assert open_streams(conn) <= 2 * window
        assert len(conn._closed[0]) == 1     # one range: ids are dense
    # 16 KB per peer; the parent commit retains ~4.6 MB here
    assert growth < 2 * 16 * 1024, growth


# ---------------------------------------------------------------------------
# (b) a closed stream stays closed
# ---------------------------------------------------------------------------


@pytest.fixture()
def closed_stream():
    """A pair on which stream 0 carried one exchange and closed."""
    loop, client, server = established_pair()
    server.on_stream_complete = lambda sid: server.stream_send(
        sid, server.stream_read(sid).upper(), fin=True)
    sid = client.create_stream()
    client.stream_send(sid, b"ping", fin=True)
    loop.run(until=loop.now + 1.0)
    assert client.stream_read(sid) == b"PING"
    loop.run(until=loop.now + 1.0)
    for conn in (client, server):
        assert conn.stream_closed(sid) and conn.stream_finished(sid)
        assert open_streams(conn) == 0
    return loop, client, server, sid


class TestClosedStreamStaysClosed:
    def test_duplicate_stream_frame_is_ignored(self, closed_stream):
        loop, client, server, sid = closed_stream
        fired = []
        server.on_stream_data = server.on_stream_complete = fired.append
        charged = server.receiver.total_recv_offset
        limit = server.fc_recv.limit
        for frame in (StreamFrame(sid, 0, b"ping", True),
                      StreamFrame(sid, 2, b"ng", True),
                      StreamFrame(sid, 4, b"", True)):
            server.receiver.on_stream_frame(frame, server.paths[0], loop.now)
        assert open_streams(server) == 0
        assert fired == []
        assert server.receiver.total_recv_offset == charged
        assert server.fc_recv.limit == limit
        assert server.stream_read(sid) == b""
        assert not server.closed

    def test_max_stream_data_is_ignored(self, closed_stream):
        loop, client, server, sid = closed_stream
        sent = server.stats.packets_sent
        server.receiver.on_max_stream_data(
            MaxStreamDataFrame(stream_id=sid, maximum=1 << 40),
            server.paths[0], loop.now)
        server.pump()
        assert open_streams(server) == 0
        assert server.stats.packets_sent == sent

    @pytest.mark.parametrize("kind", ["rtx", "reinject", "new"])
    def test_stale_chunk_is_dropped_by_the_pump(self, closed_stream,
                                                monkeypatch, kind):
        loop, client, server, sid = closed_stream
        reached = []
        monkeypatch.setattr(
            server.sender, "send_data_packet",
            lambda path, chunk, now: reached.append(chunk))
        sent = server.stats.packets_sent
        server.send_queue.append(SendChunk(sid, 0, 4, kind))
        server.send_queue.append(SendChunk(sid, 4, 0, kind))    # FIN-only
        server.pump()
        assert server.send_queue == [] and reached == []
        assert server.stats.packets_sent == sent
        assert open_streams(server) == 0

    def test_reinjection_of_a_closed_range_is_not_queued(self, closed_stream):
        loop, client, server, sid = closed_stream
        hooked = captured(server, "reinjection", "stream_id")
        server.enqueue_reinjection(SendChunk(sid, 0, 4, "reinject"))
        server.enqueue_reinjection(SendChunk(sid, 0, 4, "reinject"), 0)
        assert server.send_queue == [] and hooked == []
        assert server.stats.storm_guard_trims == 0

    def test_late_ack_and_loss_of_a_closed_streams_packet(self,
                                                          closed_stream):
        from repro.quic.loss_detection import SentPacket
        from repro.quic.send import SentFrameInfo
        loop, client, server, sid = closed_stream
        pkt = SentPacket(999, loop.now, 100, True, True,
                         (SentFrameInfo(sid, 0, 4, True, "reinject"),))
        server.acks.on_frames_acked(pkt)
        server.acks.requeue_lost(pkt)
        assert server.send_queue == [] and open_streams(server) == 0

    def test_the_application_cannot_reopen_it(self, closed_stream):
        loop, client, server, sid = closed_stream
        for conn in (client, server):
            with pytest.raises(StreamStateError):
                conn.stream_send(sid, b"again")
            assert open_streams(conn) == 0

    def test_closed_ids_are_ranges_per_initiator(self, closed_stream):
        loop, client, server, sid = closed_stream
        assert not client.stream_closed(sid + 1)    # server-initiated twin
        assert not client.stream_closed(sid + 4)
        assert not client.stream_finished(sid + 4)


# ---------------------------------------------------------------------------
# (c) a stream used in one direction only never closes
# ---------------------------------------------------------------------------


def test_one_directional_stream_is_never_retired():
    loop, client, server = established_pair()
    got = bytearray()
    server.on_stream_data = lambda sid: got.extend(server.stream_read(sid))
    payload = bytes(range(256)) * 400
    sid = client.create_stream()
    client.stream_send(sid, payload, fin=True)
    loop.run(until=loop.now + 5.0)
    assert bytes(got) == payload
    assert client.send_streams[sid].fully_acked
    assert sid not in client.recv_streams
    recv = server.recv_streams[sid]
    assert recv.is_complete and recv.fully_read
    assert server.stream_finished(sid)
    assert sid not in server.send_streams
    assert not client.stream_closed(sid) and not server.stream_closed(sid)


# ---------------------------------------------------------------------------
# (d) any interleaving: closed iff both halves terminal, bytes exactly once
# ---------------------------------------------------------------------------


class ScriptedPair:
    """A client and a server joined by a pipe the script operates by
    hand: every datagram waits in ``wire`` until it is delivered (once
    or twice, in any order) or dropped.  The halves a connection ever
    held are kept here, so "terminal" is read off the objects and not
    off the maps under test."""

    STREAMS = (0, 4, 8)

    def __init__(self):
        self.loop = EventLoop()
        self.wire = []          # (destination index, payload)
        self.manual = False
        self.conns = []
        for index, is_client in enumerate((True, False)):
            self.conns.append(Connection(
                self.loop, ConnectionConfig(is_client=is_client),
                transmit=lambda _pid, data, dest=1 - index:
                    self.transmit(dest, data),
                scheduler=MinRttScheduler(), connection_name="script"))
        #: per side, every half ever made, whatever became of it
        self.halves = [{}, {}]
        for conn, held in zip(self.conns, self.halves):
            conn.add_local_path(0, 0)
            self.record_halves(conn, held)
        self.conns[0].connect()
        self.loop.run(until=0.5)
        assert all(conn.established for conn in self.conns)
        for _ in self.STREAMS:
            self.conns[0].create_stream()
        self.manual = True
        #: per side, per stream: bytes written / read so far, FIN written
        self.put = [{sid: bytearray() for sid in self.STREAMS}
                    for _ in self.conns]
        self.got = [{sid: bytearray() for sid in self.STREAMS}
                    for _ in self.conns]
        self.fin = [{sid: False for sid in self.STREAMS} for _ in self.conns]

    @staticmethod
    def record_halves(conn, held):
        def recording(name, ensure):
            def wrapper(stream_id, *args):
                half = ensure(stream_id, *args)
                if half is not None:
                    # a half is made once and never replaced
                    assert held.setdefault((name, stream_id), half) is half
                return half
            return wrapper
        conn._ensure_send_stream = recording("send", conn._ensure_send_stream)
        conn.ensure_recv_stream = recording("recv", conn.ensure_recv_stream)

    def transmit(self, dest, data):
        if self.manual:
            self.wire.append((dest, data))
        else:
            self.loop.schedule_after(
                0.001, lambda: self.conns[dest].datagram_received(data, 0))

    # -- the script's operations ------------------------------------------

    def write(self, side, sid, size, fin):
        if self.fin[side][sid]:
            return
        data = bytes((len(self.put[side][sid]) + i) % 251
                     for i in range(size))
        self.conns[side].stream_send(sid, data, fin=fin)
        self.put[side][sid] += data
        self.fin[side][sid] = fin

    def read(self, side, sid):
        self.got[side][sid] += self.conns[side].stream_read(sid)

    def read_all(self, side):
        for sid in self.STREAMS:
            self.read(side, sid)

    def deliver(self, index, keep):
        if self.wire:
            index %= len(self.wire)
            dest, data = self.wire[index] if keep else self.wire.pop(index)
            self.conns[dest].datagram_received(data, 0)

    def flush(self):
        """Everything on the wire lands, oldest first."""
        wire, self.wire = self.wire, []
        for dest, data in wire:
            self.conns[dest].datagram_received(data, 0)

    def drop(self, index):
        if self.wire:
            self.wire.pop(index % len(self.wire))

    def reinject(self, side, index):
        conn = self.conns[side]
        ranges = conn.unacked_ranges()
        if ranges:
            conn.enqueue_reinjection(ranges[index % len(ranges)][0])
            conn.pump()

    def tick(self, seconds):
        self.loop.run(until=self.loop.now + seconds)

    def drain(self):
        """A perfect network from here on: everything in flight lands,
        every loss is repaired, every byte is read."""
        self.manual = False
        self.flush()
        for _ in range(4):
            self.loop.run(until=self.loop.now + 10.0)
            self.read_all(0)
            self.read_all(1)
            self.check()

    # -- the invariant ----------------------------------------------------

    def check(self):
        for side, conn in enumerate(self.conns):
            held = self.halves[side]
            for sid in self.STREAMS:
                send, recv = held.get(("send", sid)), held.get(("recv", sid))
                assert conn.send_streams.get(sid, send) is send
                assert conn.recv_streams.get(sid, recv) is recv
                terminal = (send is not None and recv is not None
                            and send.fully_acked and recv.fully_read)
                if terminal and not conn.stream_closed(sid):
                    # the FIN landed after the last byte was read: the
                    # read that finds nothing more is what closes it
                    assert conn.stream_read(sid) == b""
                assert conn.stream_closed(sid) == terminal
                if terminal:
                    assert sid not in conn.send_streams
                    assert sid not in conn.recv_streams
                # exactly once, in order: what was read is a prefix of
                # what the peer wrote
                wrote = self.put[1 - side][sid]
                assert self.got[side][sid] == wrote[:len(self.got[side][sid])]


_side = st.integers(0, 1)
_sid = st.sampled_from(ScriptedPair.STREAMS)
_index = st.integers(0, 50)
#: weighted towards progress (a FIN on most writes, whole flights
#: landing, the ack-delay timer firing), or few scripts would ever close
#: a stream before the final drain; the rest is there to hurt
_op = st.one_of(
    st.tuples(st.just("write"), _side, _sid, st.integers(0, 4000),
              st.sampled_from((True, True, False))),
    st.tuples(st.just("read"), _side, _sid),
    st.tuples(st.just("read_all"), _side),
    st.tuples(st.just("flush")),
    st.tuples(st.just("deliver"), st.integers(0, 2), st.just(False)),
    st.tuples(st.just("deliver"), _index, st.booleans()),
    st.tuples(st.just("drop"), _index),
    st.tuples(st.just("reinject"), _side, _index),
    st.tuples(st.just("tick"), st.sampled_from((0.001, 0.03, 0.03, 0.5))))


@settings(max_examples=150, deadline=None)
@given(request=st.integers(0, 3000), response=st.integers(0, 6000),
       ops=st.lists(_op, min_size=10, max_size=80))
def test_closed_iff_both_halves_terminal_and_bytes_exactly_once(
        request, response, ops):
    pair = ScriptedPair()
    # stream 0 starts as an exchange already written, so that scripts
    # get to closing it (and to what arrives after) more often than not
    pair.write(0, 0, request, True)
    pair.write(1, 0, response, True)
    for op in ops:
        getattr(pair, op[0])(*op[1:])
        pair.check()
    # whoever has not finished writing finishes, on the streams both
    # sides used; a stream only one side wrote on stays one-directional
    for sid in pair.STREAMS:
        if pair.put[0][sid] or pair.fin[0][sid] \
                or pair.put[1][sid] or pair.fin[1][sid]:
            two_way = sid != 8
            for side in (0, 1) if two_way else (0,):
                pair.write(side, sid, 10, True)
    pair.drain()
    for side, conn in enumerate(pair.conns):
        for sid in pair.STREAMS:
            assert pair.got[side][sid] == pair.put[1 - side][sid]
            both = pair.fin[0][sid] and pair.fin[1][sid]
            assert conn.stream_closed(sid) == both
    assert not any(conn.closed for conn in pair.conns)
