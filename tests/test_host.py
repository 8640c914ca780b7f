"""Unit tests for the ``repro.host`` endpoint runtime.

Covers the ServerHost's DCID demultiplexing (including the failure
classifications: misrouted, unknown CID, post-close), multi-client
shared-link attachment in netem, the shared MediaServer catalog, and
the SessionRuntime's provisioning rules.
"""

import pytest

from repro.host import (SCHEMES, ClientEndpoint, ServerHost, SessionRuntime,
                        VideoSessionSpec)
from repro.host.server import SERVER_ID
from repro.host.specs import PathSpec, build_network
from repro.netem import Datagram, MultipathNetwork
from repro.quic.cid import CID_LENGTH
from repro.quic.connection import Connection, ConnectionConfig
from repro.quic.packets import PacketHeader, PacketType, encode_header
from repro.sim import EventLoop
from repro.traces.radio_profiles import RadioType
from repro.video import MediaServer, make_video
from repro.video.media import Video


def _network(loop, n_paths=2, seed=0):
    specs = [PathSpec(i, RadioType.WIFI if i else RadioType.LTE,
                      0.01, rate_bps=10e6) for i in range(n_paths)]
    return build_network(loop, specs, seed)


def _short_header_payload(dcid: bytes) -> bytes:
    """A syntactically valid 1-RTT packet addressed to ``dcid``."""
    header = PacketHeader(packet_type=PacketType.ONE_RTT, dcid=dcid)
    return encode_header(header) + b"\x00" * 16


class TestServerHostRouting:
    def _host_with_session(self, scheme="xlink"):
        loop = EventLoop()
        net = _network(loop)
        host = ServerHost(loop, net)
        net.server.on_receive(host.on_datagram)
        conn = host.register_session("client", "sess-a", SCHEMES[scheme],
                                     seed=0, primary_net=0)
        return loop, net, host, conn

    def test_full_session_routes_every_datagram(self):
        """End-to-end: the host demultiplexes a whole video session."""
        loop = EventLoop()
        net = _network(loop)
        host = ServerHost(loop, net)
        net.server.on_receive(host.on_datagram)
        scheme = SCHEMES["xlink"]
        client = ClientEndpoint(loop, net.client, scheme,
                                [(0, RadioType.WIFI), (1, RadioType.LTE)],
                                seed=1)
        host.register_session("client", client.connection_name, scheme,
                              seed=1, primary_net=client.primary_net,
                              radio=client.primary_radio)
        video = make_video(duration_s=2.0, seed=1)
        host.media.add_video(video)
        client.attach_player(video)
        client.start()
        while not client.finished and loop.now < 60.0:
            if not loop.step():
                break
        assert client.finished
        assert host.datagrams_routed > 0
        assert host.datagrams_dropped == 0
        assert host.misrouted == 0
        assert host.unknown_cid == 0

    def test_misrouted_datagram_counted_and_dropped(self):
        """A CID embedding another host's server-ID byte is misrouted."""
        loop, net, host, conn = self._host_with_session()
        foreign = bytes([9]) + b"\x11" * (CID_LENGTH - 1)
        host.on_datagram(Datagram(payload=_short_header_payload(foreign),
                                  path_id=0, src="client"))
        assert host.misrouted == 1
        assert host.unknown_cid == 0
        assert host.datagrams_dropped == 1
        assert host.datagrams_routed == 0

    def test_unknown_cid_counted_and_dropped(self):
        """Our server-ID byte, but no connection ever issued the CID."""
        loop, net, host, conn = self._host_with_session()
        stale = bytes([SERVER_ID]) + b"\x22" * (CID_LENGTH - 1)
        host.on_datagram(Datagram(payload=_short_header_payload(stale),
                                  path_id=0, src="client"))
        assert host.unknown_cid == 1
        assert host.misrouted == 0
        assert host.datagrams_dropped == 1

    def test_post_close_datagram_dropped(self):
        """Datagrams for a closed connection are dropped, not delivered."""
        loop, net, host, conn = self._host_with_session()
        issued = conn.cids.issued[0].cid
        conn.closed = True
        before = conn.stats.packets_received
        host.on_datagram(Datagram(payload=_short_header_payload(issued),
                                  path_id=0, src="client"))
        assert host.post_close_drops == 1
        assert host.datagrams_dropped == 1
        assert conn.stats.packets_received == before

    def test_undecodable_datagram_dropped(self):
        loop, net, host, conn = self._host_with_session()
        host.on_datagram(Datagram(payload=b"", path_id=0, src="client"))
        assert host.datagrams_dropped == 1

    @pytest.mark.parametrize("payload", [
        b"\x40",                               # flags byte only
        b"\x40" + b"\x01" * (CID_LENGTH - 1),   # DCID cut short
        b"\x40" + b"\x01" * CID_LENGTH + b"\x00\x00",    # PN cut short
        b"\xc0",                               # long header, nothing else
        b"\xc0\x08" + b"\x01" * CID_LENGTH,    # long header, no SCID
    ])
    def test_truncated_datagram_dropped_unclassified(self, payload):
        """Routing peeks at the DCID instead of parsing the header; what
        it refuses, and how that is counted, must not have changed."""
        loop, net, host, conn = self._host_with_session()
        host.on_datagram(Datagram(payload=payload, path_id=0, src="client"))
        assert host.datagrams_dropped == 1
        assert host.datagrams_routed == 0
        assert host.misrouted == host.unknown_cid == 0
        assert conn.stats.packets_received == 0
        assert conn.stats.malformed_dropped == 0

    def test_short_header_routes_without_a_full_parse(self, monkeypatch):
        """One header parse per datagram: the connection's.  The host
        reads 8 bytes at offset 1."""
        from repro.host import server as server_module
        loop, net, host, conn = self._host_with_session()

        def no_full_parse(data):
            raise AssertionError("host parsed a short header in full")

        monkeypatch.setattr(server_module, "decode_header", no_full_parse)
        issued = conn.cids.issued[0].cid
        dgram = Datagram(payload=_short_header_payload(issued), path_id=0,
                         src="client")
        assert host.route_connection(dgram) is conn

    def test_handshake_routes_by_source_address_then_pins_dcid(self):
        loop, net, host, conn = self._host_with_session()
        header = PacketHeader(packet_type=PacketType.HANDSHAKE,
                              dcid=b"\xabrandom!", scid=b"\x01" * 8)
        payload = encode_header(header) + b"\x00" * 16
        dgram = Datagram(payload=payload, path_id=0, src="client")
        assert host.route_connection(dgram) is conn
        # Pinned: even from another source address, retransmits of the
        # same client-chosen DCID keep landing on the same connection.
        dgram2 = Datagram(payload=payload, path_id=0, src="elsewhere")
        assert host.route_connection(dgram2) is conn

    def test_two_sessions_route_independently(self):
        loop = EventLoop()
        net = _network(loop)
        host = ServerHost(loop, net)
        conn_a = host.register_session("client-a", "sess-a",
                                       SCHEMES["xlink"], seed=0,
                                       primary_net=0)
        conn_b = host.register_session("client-b", "sess-b",
                                       SCHEMES["xlink"], seed=1,
                                       primary_net=0)
        cid_a = conn_a.cids.issued[0].cid
        cid_b = conn_b.cids.issued[0].cid
        assert cid_a != cid_b
        route = host.route_connection
        assert route(Datagram(payload=_short_header_payload(cid_a),
                              path_id=0, src="client-a")) is conn_a
        assert route(Datagram(payload=_short_header_payload(cid_b),
                              path_id=0, src="client-b")) is conn_b

    def test_duplicate_address_rejected(self):
        loop, net, host, conn = self._host_with_session()
        with pytest.raises(ValueError):
            host.register_session("client", "sess-b", SCHEMES["sp"],
                                  seed=1, primary_net=0)


class TestNetemMultiClient:
    def test_downlink_dispatched_by_dst(self):
        loop = EventLoop()
        net = _network(loop)
        extra = net.add_client("client-2")
        got = {"default": [], "extra": []}
        net.client.on_receive(lambda d: got["default"].append(d))
        extra.on_receive(lambda d: got["extra"].append(d))
        net.server.send(Datagram(payload=b"a", path_id=0, dst="client-2"))
        net.server.send(Datagram(payload=b"b", path_id=0))
        loop.run()
        assert [d.payload for d in got["extra"]] == [b"a"]
        assert [d.payload for d in got["default"]] == [b"b"]

    def test_clients_share_link_capacity(self):
        """Two senders on one path contend for the same queue/link."""
        loop = EventLoop()
        net = MultipathNetwork(loop)
        net.add_simple_path(0, rate_bps=8e4, one_way_delay_s=0.001)
        second = net.add_client("client-2")
        arrived = []
        net.server.on_receive(lambda d: arrived.append((loop.now, d.src)))
        for _ in range(5):
            net.client.send(Datagram(payload=b"x" * 1000, path_id=0))
            second.send(Datagram(payload=b"y" * 1000, path_id=0))
        loop.run()
        assert len(arrived) == 10
        # Serialized through one 80 kbit/s link: 10 KB takes ~1 s, far
        # slower than either sender alone on a private link would see.
        assert arrived[-1][0] > 0.9
        assert {src for _t, src in arrived} == {"client", "client-2"}

    def test_duplicate_client_name_rejected(self):
        loop = EventLoop()
        net = _network(loop)
        with pytest.raises(ValueError):
            net.add_client("client")
        with pytest.raises(ValueError):
            net.add_client("server")


class TestSharedMediaServer:
    def _conn(self, loop, name):
        return Connection(loop, ConnectionConfig(is_client=False),
                          transmit=lambda pid, data: None,
                          connection_name=name)

    def test_attach_twice_rejected(self):
        loop = EventLoop()
        conn = self._conn(loop, "a")
        media = MediaServer(videos={})
        media.attach(conn)
        with pytest.raises(ValueError):
            media.attach(conn)

    def test_connections_counted(self):
        loop = EventLoop()
        media = MediaServer(videos={})
        media.attach(self._conn(loop, "a"))
        media.attach(self._conn(loop, "b"))
        assert media.connections == 2

    def test_legacy_positional_form_still_works(self):
        loop = EventLoop()
        conn = self._conn(loop, "a")
        video = make_video(duration_s=1.0)
        media = MediaServer(conn, {video.name: video})
        assert media.connections == 1
        assert media.videos[video.name] is video


class TestSessionRuntime:
    def test_mptcp_session_completes(self):
        loop = EventLoop()
        net = _network(loop)
        runtime = SessionRuntime(loop, net)
        handle = runtime.add_session(VideoSessionSpec(
            scheme="mptcp", interfaces=[(0, RadioType.WIFI)],
            video=make_video(duration_s=1.0)))
        runtime.run(timeout_s=30.0)
        assert runtime.result(handle).completed

    def test_conflicting_catalog_entry_rejected(self):
        loop = EventLoop()
        net = _network(loop)
        runtime = SessionRuntime(loop, net)
        v1 = Video(name="clip", fps=25, frame_sizes=[100, 100],
                   chunk_size=1024)
        v2 = Video(name="clip", fps=25, frame_sizes=[200, 200],
                   chunk_size=1024)
        runtime.add_session(VideoSessionSpec(
            scheme="sp", interfaces=[(0, RadioType.WIFI)], video=v1,
            connection_name="u1"))
        with pytest.raises(ValueError):
            runtime.add_session(VideoSessionSpec(
                scheme="sp", interfaces=[(0, RadioType.WIFI)],
                video=v2, client_addr="client-2", connection_name="u2"))
