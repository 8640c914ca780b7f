"""Tests for the CDN frontend (QUIC-LB with live traffic)."""

import pytest

from repro.core import MinRttScheduler
from repro.lb.frontend import CdnFrontend
from repro.netem import Datagram, MultipathNetwork
from repro.quic.connection import Connection, ConnectionConfig
from repro.sim import EventLoop
from repro.video import MediaServer, VideoPlayer, make_video


def build_cdn(loop, net, n_backends=3, name="cdn"):
    """N backend server connections behind one frontend."""
    backends = {}
    for sid in range(1, n_backends + 1):
        server = Connection(
            loop, ConnectionConfig(is_client=False, seed=sid),
            transmit=lambda pid, d: net.server.send(
                Datagram(payload=d, path_id=pid)),
            scheduler=MinRttScheduler(), connection_name=name,
            server_id=sid)
        server.add_local_path(0, 0)
        backends[sid] = server
    frontend = CdnFrontend(backends)
    frontend.attach(net.server)
    return frontend, backends


class TestRouting:
    def _client(self, loop, net, name="cdn", seed=0):
        client = Connection(
            loop, ConnectionConfig(is_client=True, seed=seed),
            transmit=lambda pid, d: net.client.send(
                Datagram(payload=d, path_id=pid)),
            scheduler=MinRttScheduler(), connection_name=name)
        net.client.on_receive(
            lambda d: client.datagram_received(d.payload, d.path_id))
        client.add_local_path(0, 0)
        return client

    def test_handshake_reaches_one_backend(self):
        loop = EventLoop()
        net = MultipathNetwork(loop)
        net.add_simple_path(0, 10e6, 0.01)
        net.add_simple_path(1, 10e6, 0.03)
        frontend, backends = build_cdn(loop, net)
        client = self._client(loop, net)
        client.connect()
        loop.run(until=1.0)
        established = [sid for sid, b in backends.items() if b.established]
        assert len(established) == 1
        assert client.established

    def test_all_paths_reach_same_backend(self):
        """The Sec. 6 property: CID routing keeps every path of a
        connection on one backend."""
        loop = EventLoop()
        net = MultipathNetwork(loop)
        net.add_simple_path(0, 10e6, 0.01)
        net.add_simple_path(1, 10e6, 0.03)
        frontend, backends = build_cdn(loop, net)
        client = self._client(loop, net)
        client.on_established = lambda: client.open_path(1, 1)
        client.connect()
        loop.run(until=1.0)
        serving = [b for b in backends.values() if b.established]
        assert len(serving) == 1
        backend = serving[0]
        assert set(backend.paths) == {0, 1}
        # The other backends saw nothing of the 1-RTT traffic.
        for b in backends.values():
            if b is not backend:
                assert b.stats.packets_received == 0

    def test_video_session_through_frontend(self):
        loop = EventLoop()
        net = MultipathNetwork(loop)
        net.add_simple_path(0, 10e6, 0.01)
        net.add_simple_path(1, 5e6, 0.04)
        frontend, backends = build_cdn(loop, net)
        video = make_video(duration_s=3.0, seed=2)
        for backend in backends.values():
            MediaServer(backend, {video.name: video})
        client = self._client(loop, net, seed=5)
        player = VideoPlayer(loop, client, video)
        client.on_established = lambda: (client.open_path(1, 1),
                                         player.start())
        client.connect()
        while not player.finished and loop.now < 30.0:
            if not loop.step():
                break
        assert player.finished
        assert player.stats.first_frame_latency is not None

    def test_two_clients_can_use_distinct_backends(self):
        """Different initial DCIDs may hash to different backends."""
        seen = set()
        for seed in range(8):
            loop = EventLoop()
            net = MultipathNetwork(loop)
            net.add_simple_path(0, 10e6, 0.01)
            frontend, backends = build_cdn(loop, net, n_backends=4)
            client = self._client(loop, net, seed=seed)
            client.connect()
            loop.run(until=1.0)
            assert client.established
            for sid, b in backends.items():
                if b.established:
                    seen.add(sid)
        assert len(seen) >= 2  # the hash spreads clients around

    def test_garbage_datagram_dropped(self):
        loop = EventLoop()
        net = MultipathNetwork(loop)
        net.add_simple_path(0, 10e6, 0.01)
        frontend, backends = build_cdn(loop, net)
        frontend.on_datagram(Datagram(payload=b"", path_id=0))
        assert frontend.datagrams_dropped == 1

    def test_truncated_datagrams_dropped(self):
        """Peeking at the DCID refuses exactly what the full header
        parse refused: nothing truncated reaches a backend."""
        loop = EventLoop()
        net = MultipathNetwork(loop)
        net.add_simple_path(0, 10e6, 0.01)
        frontend, backends = build_cdn(loop, net)
        truncated = [b"\x40", b"\x40" + b"\x01" * 7,
                     b"\x40" + b"\x01" * 8 + b"\x00\x00", b"\xc0",
                     b"\xc0\x08" + b"\x01" * 8]
        for payload in truncated:
            frontend.on_datagram(Datagram(payload=payload, path_id=0))
        assert frontend.datagrams_dropped == len(truncated)
        assert frontend.datagrams_routed == 0
        assert all(b.stats.malformed_dropped == 0
                   for b in backends.values())

    def test_short_header_routes_by_server_id_without_a_full_parse(
            self, monkeypatch):
        from repro.lb import frontend as frontend_module
        loop = EventLoop()
        net = MultipathNetwork(loop)
        net.add_simple_path(0, 10e6, 0.01)
        frontend, backends = build_cdn(loop, net)

        def no_full_parse(data):
            raise AssertionError("frontend parsed a short header in full")

        monkeypatch.setattr(frontend_module, "decode_header", no_full_parse)
        for sid, backend in backends.items():
            packet = b"\x40" + bytes([sid]) + b"\x07" * 7 + b"\x00" * 20
            assert frontend.route_backend(packet) is backend
        # unknown server-ID byte: consistent-hash fallback, still routed
        stray = b"\x40" + bytes([200]) + b"\x07" * 7 + b"\x00" * 20
        assert frontend.route_backend(stray) in backends.values()

    def test_requires_backends(self):
        with pytest.raises(ValueError):
            CdnFrontend({})
