"""Chaos injection, transport hardening, and the soak's determinism.

Covers the robustness contract end to end: the seeded fault pipeline
(`repro.netem.chaos`), the never-raise guarantee of
``Connection.datagram_received`` under fuzzed and corrupted input,
idle-timeout shutdown, host eviction, abandoned-path accounting, the
re-injection storm guard, CM rebind when the primary dies
mid-handshake, and bit-identical chaos-soak fingerprints.
"""

import gc
import random
import weakref
from types import SimpleNamespace

from repro.core import MinRttScheduler
from repro.host import ClientEndpoint, SessionRuntime, VideoSessionSpec
from repro.host.server import ServerHost
from repro.host.specs import PathSpec, SCHEMES, build_network
from repro.netem import (ChaosBox, ChaosSchedule, Datagram,
                         MultipathNetwork, OutageSchedule)
from repro.quic.connection import Connection, ConnectionConfig, SendChunk
from repro.quic.errors import FrameEncodingError, QuicError
from repro.quic.frames import decode_frames
from repro.quic.packets import decode_header
from repro.quic.path import PathState
from repro.quic.send import REINJECT_BUDGET_BYTES_PER_RTT
from repro.sim import EventLoop
from repro.sim.rng import make_rng
from repro.traces.radio_profiles import RadioType
from repro.video import MediaServer, PlayerConfig, make_video
from tests.test_connection import captured as sent


def build_pair(loop, net, client_config=None, server_config=None):
    client = Connection(
        loop, client_config or ConnectionConfig(is_client=True),
        transmit=lambda pid, d: net.client.send(
            Datagram(payload=d, path_id=pid)),
        scheduler=MinRttScheduler(), connection_name="chaos-test")
    server = Connection(
        loop, server_config or ConnectionConfig(is_client=False),
        transmit=lambda pid, d: net.server.send(
            Datagram(payload=d, path_id=pid)),
        scheduler=MinRttScheduler(), connection_name="chaos-test")
    net.client.on_receive(lambda d: client.datagram_received(d.payload,
                                                             d.path_id))
    net.server.on_receive(lambda d: server.datagram_received(d.payload,
                                                             d.path_id))
    client.add_local_path(0, 0)
    server.add_local_path(0, 0)
    return client, server


def two_path_net(loop, **kw):
    net = MultipathNetwork(loop)
    net.add_simple_path(0, 20e6, 0.02)
    net.add_simple_path(1, 20e6, 0.05, **kw)
    return net


# ---------------------------------------------------------------------------
# ChaosBox unit behaviour
# ---------------------------------------------------------------------------


class TestChaosBox:
    def _box(self, schedule, seed=1):
        loop = EventLoop()
        delivered = []
        box = ChaosBox(loop, delivered.append, schedule,
                       rng=make_rng(seed, "box"))
        return loop, delivered, box

    def test_noop_schedule_forwards_unchanged(self):
        loop, delivered, box = self._box(ChaosSchedule())
        box.send(Datagram(payload=b"hello", src="c"))
        assert [d.payload for d in delivered] == [b"hello"]
        assert delivered[0].src == "c"
        assert box.stats.forwarded == 1

    def test_blackhole_drops_everything_in_window(self):
        loop, delivered, box = self._box(
            ChaosSchedule(blackholes=[(0.0, 1.0)]))
        box.send(Datagram(payload=b"x"))
        assert delivered == []
        assert box.stats.blackholed == 1
        loop.schedule_at(2.0, lambda: box.send(Datagram(payload=b"y")))
        loop.run()
        assert [d.payload for d in delivered] == [b"y"]

    def test_corruption_flips_exactly_one_bit(self):
        loop, delivered, box = self._box(ChaosSchedule(corrupt_rate=1.0))
        box.send(Datagram(payload=b"\x00" * 32))
        assert box.stats.corrupted == 1
        damage = sum(bin(b).count("1") for b in delivered[0].payload)
        assert damage == 1

    def test_duplicate_delivers_twice(self):
        loop, delivered, box = self._box(
            ChaosSchedule(duplicate_rate=1.0, duplicate_delay_s=0.005))
        box.send(Datagram(payload=b"dup"))
        loop.run()
        assert [d.payload for d in delivered] == [b"dup", b"dup"]
        assert delivered[1] is not delivered[0]
        assert box.stats.duplicated == 1

    def test_reorder_holds_a_datagram_back(self):
        loop, delivered, box = self._box(
            ChaosSchedule(reorder_rate=1.0, reorder_delay_s=(0.01, 0.01)))
        box.send(Datagram(payload=b"first"))
        box.send(Datagram(payload=b"second"))
        assert delivered == []  # both held back
        loop.run()
        assert len(delivered) == 2
        assert box.stats.reordered == 2

    def test_rebind_rewrites_source_address(self):
        loop, delivered, box = self._box(ChaosSchedule(rebinds=[1.0]))
        box.send(Datagram(payload=b"a", src="client-0"))
        loop.schedule_at(2.0, lambda: box.send(
            Datagram(payload=b"b", src="client-0")))
        loop.run()
        assert delivered[0].src == "client-0"
        assert delivered[1].src == "client-0#r1"
        assert box.stats.rebinds == 1

    def test_same_seed_replays_identical_faults(self):
        def run(seed):
            loop, delivered, box = self._box(
                ChaosSchedule(corrupt_rate=0.3, duplicate_rate=0.3,
                              reorder_rate=0.3), seed=seed)
            for i in range(200):
                box.send(Datagram(payload=bytes([i % 256]) * 20))
            loop.run()
            return ([d.payload for d in delivered],
                    box.stats.as_dict())
        assert run(4) == run(4)
        assert run(4) != run(5)


# ---------------------------------------------------------------------------
# parser + connection fuzzing (satellite 1)
# ---------------------------------------------------------------------------


class TestFuzz:
    N = 10_000

    def test_parsers_raise_only_typed_errors(self):
        """Random bytes into the decoders: typed QuicErrors only."""
        rng = random.Random(0xC0FFEE)
        header_errors = frame_errors = 0
        for _ in range(self.N):
            blob = rng.randbytes(rng.randint(0, 64))
            try:
                decode_header(blob)
            except QuicError:
                header_errors += 1
            try:
                decode_frames(blob)
            except FrameEncodingError:
                frame_errors += 1
        assert header_errors > 0 and frame_errors > 0

    def test_live_connection_swallows_fuzzed_datagrams(self):
        """10k hostile datagrams: never raise, every one accounted."""
        loop = EventLoop()
        net = two_path_net(loop)
        client, server = build_pair(loop, net)
        captured = sent(server, "datagram_sent")
        client.connect()
        loop.run(until=0.5)
        sid = client.create_stream()
        client.stream_send(sid, b"req", fin=True)
        server.stream_send(sid, b"x" * 20_000, fin=True)
        loop.run(until=2.0)
        assert client.established and captured

        rng = random.Random(31337)
        before = dict(client.stats.robustness_dict())
        received_before = client.stats.packets_received
        for _ in range(self.N):
            if rng.random() < 0.5 and captured:
                blob = bytearray(rng.choice(captured))
                bit = rng.randrange(len(blob) * 8)
                blob[bit // 8] ^= 1 << (bit % 8)
                blob = bytes(blob)
            else:
                blob = rng.randbytes(rng.randint(0, 80))
            client.datagram_received(blob, 0)

        after = client.stats.robustness_dict()
        assert not client.closed
        assert client.stats.packets_received == received_before
        accounted = sum(
            after[k] - before[k]
            for k in ("malformed_dropped", "corrupted_dropped",
                      "unknown_cid_dropped", "duplicates_suppressed",
                      "frame_decode_errors"))
        assert accounted == self.N
        assert after["corrupted_dropped"] > before["corrupted_dropped"]
        assert after["malformed_dropped"] > before["malformed_dropped"]

    def test_corrupted_datagram_is_counted_not_raised(self):
        """One flipped bit in a valid 1-RTT packet -> AEAD drop."""
        loop = EventLoop()
        net = two_path_net(loop)
        client, server = build_pair(loop, net)
        captured = sent(server, "datagram_sent")
        client.connect()
        loop.run(until=0.5)
        sid = client.create_stream()
        client.stream_send(sid, b"req", fin=True)
        server.stream_send(sid, b"data" * 100, fin=True)
        loop.run(until=2.0)
        one_rtt = [d for d in captured
                   if decode_header(d)[0].packet_type.name == "ONE_RTT"]
        assert one_rtt
        blob = bytearray(one_rtt[-1])
        blob[-1] ^= 0x01  # inside the AEAD tag
        before = client.stats.corrupted_dropped
        client.datagram_received(bytes(blob), 0)
        assert client.stats.corrupted_dropped == before + 1
        assert not client.closed


# ---------------------------------------------------------------------------
# transport hardening
# ---------------------------------------------------------------------------


class TestIdleTimeout:
    def test_idle_connections_close_and_loop_drains(self):
        loop = EventLoop()
        net = two_path_net(loop)
        config_c = ConnectionConfig(is_client=True, idle_timeout_s=1.0)
        config_s = ConnectionConfig(is_client=False, idle_timeout_s=1.0)
        client, server = build_pair(loop, net, config_c, config_s)
        client.connect()
        loop.run(until=0.5)
        assert client.established and server.established
        loop.run(until=60.0)
        assert client.closed and server.closed
        assert client.stats.idle_timeouts == 1
        assert server.stats.idle_timeouts == 1
        # every timer was cancelled: the loop is fully drained
        assert not loop.step()

    def test_idle_timer_off_by_default(self):
        loop = EventLoop()
        net = two_path_net(loop)
        client, server = build_pair(loop, net)
        client.connect()
        loop.run(until=30.0)
        assert client.established and not client.closed
        assert client.stats.idle_timeouts == 0


class TestStormGuard:
    def _conn(self):
        loop = EventLoop()
        conn = Connection(
            loop, ConnectionConfig(is_client=False),
            transmit=lambda pid, d: None, scheduler=MinRttScheduler(),
            connection_name="guard")
        conn.add_local_path(0, 0)
        conn._ensure_send_stream(0)     # the dedup table is the stream's
        return conn

    def test_budget_trims_duplicate_bytes(self):
        conn = self._conn()
        half = REINJECT_BUDGET_BYTES_PER_RTT // 2 + 1
        conn.enqueue_reinjection(SendChunk(stream_id=0, offset=0,
                                           length=half, kind="reinject"))
        conn.enqueue_reinjection(SendChunk(stream_id=0, offset=half,
                                           length=half, kind="reinject"))
        assert len(conn.send_queue) == 1
        assert conn.stats.storm_guard_trims == 1
        assert conn.stats.storm_guard_trimmed_bytes == half


class TestPathAbandonAccounting:
    def test_abandon_releases_in_flight_bytes(self):
        """Satellite 2: PATH_ABANDON leaves no tracked packets behind."""
        loop = EventLoop()
        net = two_path_net(loop)
        client, server = build_pair(loop, net)
        client.connect()
        loop.run(until=0.5)
        client.open_path(1, 1)
        loop.run(until=1.0)
        sid = client.create_stream()
        client.stream_send(sid, b"req", fin=True)
        server.stream_send(sid, b"z" * 500_000, fin=True)
        # a few steps: data is in flight on both paths
        for _ in range(200):
            loop.step()
        assert any(p.loss.bytes_in_flight for p in server.paths.values())
        # the client abandons path 1 and tells the server, whose PATH_STATUS
        # handler drops the path with data in flight on it
        client.abandon_path(1)
        path = server.paths[1]
        while path.state is not PathState.ABANDONED:
            in_flight = path.loss.bytes_in_flight
            assert loop.step()
        assert in_flight > 0
        assert not path.loss.sent
        assert path.loss.bytes_in_flight == 0
        assert path.loss.loss_time is None
        loop.run(until=30.0)
        # the transfer still completes on the surviving path
        assert client.recv_streams[sid].is_complete
        assert client.paths[1].state is PathState.ABANDONED
        assert client.paths[1].loss.bytes_in_flight == 0

    def test_lost_abandon_is_sent_again(self):
        """The packet carrying PATH_STATUS Abandon is lost on the way:
        loss recovery sends the frame again, and the server still drops
        the path."""
        loop = EventLoop()
        net = two_path_net(loop)
        client, server = build_pair(loop, net)
        client.connect()
        loop.run(until=0.5)
        client.open_path(1, 1)
        loop.run(until=1.0)
        sid = client.create_stream()
        client.stream_send(sid, b"req", fin=True)
        server.stream_send(sid, b"z" * 500_000, fin=True)
        for _ in range(200):
            loop.step()
        # path 0's uplink is dark while the Abandon goes out on it
        dark_until = loop.now + 0.01
        net.paths[0].attach_chaos(
            up=ChaosSchedule(blackholes=[(loop.now, dark_until)]),
            rng=make_rng(1, "lost-abandon"))
        client.abandon_path(1)
        path = server.paths[1]
        while path.state is not PathState.ABANDONED:
            assert loop.step()
        assert loop.now > dark_until
        assert net.paths[0].up_chaos.stats.blackholed >= 1
        assert not path.loss.sent and path.loss.bytes_in_flight == 0
        loop.run(until=30.0)
        assert client.recv_streams[sid].is_complete


class TestServerHostEviction:
    def test_idle_connection_is_evicted_and_unrouted(self):
        loop = EventLoop()
        net = build_network(
            loop, [PathSpec(0, RadioType.WIFI, 0.01, rate_bps=10e6)],
            seed=0)
        host = ServerHost(loop, net)
        conn = host.register_session("client-0", "ghost", SCHEMES["sp"],
                                     seed=3, primary_net=0)
        host.start_eviction(idle_timeout_s=0.5)
        loop.run(until=5.0)
        assert host.connections == []
        assert host.evicted_idle == 1
        assert conn.closed
        assert not host._by_addr and not host._initial_route
        # sweep stopped re-arming once the table emptied
        assert not loop.step()

    def test_closed_connection_is_evicted(self):
        loop = EventLoop()
        net = build_network(
            loop, [PathSpec(0, RadioType.WIFI, 0.01, rate_bps=10e6)],
            seed=0)
        host = ServerHost(loop, net)
        conn = host.register_session("client-0", "dead", SCHEMES["sp"],
                                     seed=3, primary_net=0)
        conn.silent_close()
        host.start_eviction(idle_timeout_s=60.0)
        loop.run(until=2.0)
        assert host.connections == []
        assert host.evicted_closed == 1


    def test_evicted_connection_is_collectable(self):
        """``_evict`` purged the routing tables, but the media server
        kept ``(conn, ffa)`` -- and the connection's request keys -- for
        the host's life."""
        loop = EventLoop()
        net = build_network(
            loop, [PathSpec(0, RadioType.WIFI, 0.01, rate_bps=10e6)],
            seed=0)
        host = ServerHost(loop, net)
        net.server.on_receive(host.on_datagram)
        client = ClientEndpoint(loop, net.client, SCHEMES["sp"],
                                [(0, RadioType.WIFI)], seed=1)
        conn = host.register_session("client", client.connection_name,
                                     SCHEMES["sp"], seed=1, primary_net=0)
        video = make_video(name="evict-video", duration_s=1.0, seed=1)
        host.media.add_video(video)
        client.attach_player(video)
        client.start()
        host.start_eviction(idle_timeout_s=0.5)
        loop.run(until=30.0)
        assert client.finished
        assert host.evicted_idle == 1 and host.connections == []
        assert host.media.connections == 0
        assert not host.media._request_buf
        ref = weakref.ref(conn)
        del conn
        gc.collect()
        assert ref() is None

    def test_detach_is_per_connection(self):
        media = MediaServer()
        a, b = SimpleNamespace(), SimpleNamespace()
        media.attach(a)
        media.attach(b)
        media._request_buf = {(id(a), 8): bytearray(b"GET"),
                              (id(b), 8): bytearray(b"GET")}
        media.detach(b)
        assert media.connections == 1 and b.on_stream_data is None
        assert list(media._request_buf) == [(id(a), 8)]
        media.detach(b)     # not attached: a no-op
        assert media.connections == 1


# ---------------------------------------------------------------------------
# CM rebind when the primary dies mid-handshake (satellite 4)
# ---------------------------------------------------------------------------


class TestMidHandshakeMigration:
    def test_cm_rebinds_before_establishment(self):
        loop = EventLoop()
        paths = [
            PathSpec(0, RadioType.WIFI, 0.012, rate_bps=10e6,
                     outages=OutageSchedule(windows=[(0.0, 2.5)])),
            PathSpec(1, RadioType.LTE, 0.040, rate_bps=5e6),
        ]
        net = build_network(loop, paths, seed=0)
        runtime = SessionRuntime(loop, net)
        video = make_video(name="hs-video", duration_s=2.0, seed=1)
        handle = runtime.add_session(VideoSessionSpec(
            scheme="cm",
            interfaces=[(0, RadioType.WIFI), (1, RadioType.LTE)],
            video=video, player_config=PlayerConfig(), seed=1))
        runtime.run(timeout_s=30.0)
        # the monitor moved path 0 onto the LTE interface
        assert handle.client.conn.net_path_of[0] == 1
        assert handle.client.conn.established
        assert handle.player.finished
        # the handshake completed while Wi-Fi was still dark
        completed = handle.client.conn.stats.handshake_completed_at
        assert completed is not None and completed < 2.5


# ---------------------------------------------------------------------------
# soak determinism (tentpole acceptance)
# ---------------------------------------------------------------------------


class TestChaosSoak:
    def test_fixed_seed_reproduces_fingerprints(self):
        from repro.experiments.chaos import run_chaos_scenario
        first = run_chaos_scenario(0, seed=5)
        second = run_chaos_scenario(0, seed=5)
        assert first.error is None and not first.violations
        assert first.fingerprint == second.fingerprint

    def test_soak_digest_is_bit_identical(self):
        from repro.experiments.chaos import ChaosSoakConfig, run_chaos_soak
        config = ChaosSoakConfig(scenarios=2, seed=11)
        a = run_chaos_soak(config)
        b = run_chaos_soak(config)
        assert a.ok, a.errors + a.violations
        assert a.digest == b.digest

    def test_different_seeds_differ(self):
        from repro.experiments.chaos import run_chaos_scenario
        assert (run_chaos_scenario(1, seed=5).fingerprint
                != run_chaos_scenario(1, seed=6).fingerprint)

    def test_bbr_soak_holds_invariants_and_is_deterministic(self):
        """The chaos invariants (I1-I5: no exceptions, no negative
        counters, loop drains, bounded stall, bit-identical replay)
        hold under the BBR controller too, and the pacing machinery
        does not leak nondeterminism into the digest."""
        from repro.experiments.chaos import ChaosSoakConfig, run_chaos_soak
        config = ChaosSoakConfig(scenarios=2, seed=11,
                                 cc_algorithm="bbr")
        a = run_chaos_soak(config)
        b = run_chaos_soak(config)
        assert a.ok, a.errors + a.violations
        assert a.digest == b.digest
        # and it genuinely ran a different controller than the default
        cubic = run_chaos_soak(ChaosSoakConfig(scenarios=2, seed=11))
        assert a.digest != cubic.digest


class TestAbandonScenario:
    def test_the_server_drops_what_it_held_and_finishes_on_the_cell(
            self, monkeypatch):
        """The soak's scripted abandon: the client retires its Wi-Fi path
        (QUIC path 0) while the server has data in flight on it.  The
        server's copy of the path ends empty, what it held in flight is
        acked through the cell path, and the stream finishes."""
        from repro.experiments import chaos
        handles, held = [], []

        class Watched(SessionRuntime):
            """Keeps the sessions, and notes the stream ranges the
            server's path holds as it is abandoned."""

            def add_session(self, spec):
                handle = super().add_session(spec)
                server = handle.server

                def on_event(kind, fields):
                    if kind == "path_updated" \
                            and fields["cause"] == "abandon":
                        path = server.paths[fields["path_id"]]
                        held.extend((info.stream_id, info.offset,
                                     info.offset + info.length)
                                    for pkt in path.loss.sent.values()
                                    for info in pkt.frames_info
                                    if info.stream_id >= 0)

                server.listeners.append(on_event)
                handles.append(handle)
                return handle

        monkeypatch.setattr(chaos, "SessionRuntime", Watched)
        outcome = chaos.run_abandon_scenario(
            chaos.ChaosSoakConfig(scenarios=12, seed=7))
        assert outcome.ok, (outcome.error, outcome.violations)
        [handle] = handles
        server = handle.server
        wifi, cell = server.paths[0], server.paths[1]
        # the server had data in flight on the path when it dropped it,
        # and learnt of it from a resent Abandon: the cell uplink lost
        # the first one
        assert outcome.abandoned[0][:2] == ("client", 0)
        assert outcome.abandoned[-1][:2] == ("server", 0)
        assert outcome.abandoned[-1][2] > 0 and held
        assert outcome.abandoned[-1][3] > \
            chaos.ABANDON_AT_S + chaos.ABANDON_LOST_FOR_S
        assert wifi.state is PathState.ABANDONED
        assert not wifi.loss.sent and wifi.loss.bytes_in_flight == 0
        # every range it held was acked since, and only the cell could
        # carry it: a closed stream was acked in full
        assert cell.state is PathState.ACTIVE
        for stream_id, start, end in held:
            stream = server.send_streams.get(stream_id)
            assert stream is None or stream.acked_ranges.covers(start, end)
        # every stream finished
        assert outcome.completed == outcome.sessions == 1
        assert handle.player.finished


class TestChaosOnEmulatedPath:
    def test_attach_chaos_skips_noop_and_wires_boxes(self):
        loop = EventLoop()
        net = two_path_net(loop)
        path = net.paths[0]
        path.attach_chaos(up=ChaosSchedule(),  # noop: not attached
                          down=ChaosSchedule(corrupt_rate=0.5),
                          rng=make_rng(9, "t"))
        assert path.up_chaos is None
        assert path.down_chaos is not None

    def test_session_survives_corruption_on_the_wire(self):
        """End-to-end: chaos between real endpoints, AEAD holds."""
        loop = EventLoop()
        net = two_path_net(loop)
        net.paths[0].attach_chaos(
            up=ChaosSchedule(corrupt_rate=0.05, duplicate_rate=0.05),
            down=ChaosSchedule(corrupt_rate=0.05, reorder_rate=0.1),
            rng=make_rng(2, "wire"))
        client, server = build_pair(loop, net)
        client.connect()
        loop.run(until=2.0)
        assert client.established
        sid = client.create_stream()
        client.stream_send(sid, b"req", fin=True)
        server.stream_send(sid, b"w" * 100_000, fin=True)
        loop.run(until=30.0)
        assert client.recv_streams[sid].is_complete
        assert client.stream_read(sid) == b"w" * 100_000
        total = (client.stats.corrupted_dropped
                 + server.stats.corrupted_dropped)
        assert total > 0
