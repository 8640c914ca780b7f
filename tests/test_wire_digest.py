"""Wire images of two scripted sessions, for ``tests/test_golden.py``.

The bench ``sim_digest``s hash a run's *outputs* (bytes delivered,
virtual duration, packet counts).  These two digests hash the *wire*:
sha256 over every datagram either endpoint emits, in emit order, with
its direction, network path and length -- so a change to a header, a
frame layout, an ACK range, a packet boundary, the order two packets
leave in, or the RNG draws behind a loss shows up here even when the
session still completes with the same totals.  ``tests/data/golden.json``
holds their values (``wire/*``).

The ``*_plain`` images hash what each ``seal`` is *given* -- the
header it authenticates, the plaintext frames, the CID sequence number
and the packet number -- in call order, so they hold across a change of
cipher: equal plain images mean every header, frame and packet boundary
is unchanged, whatever the ciphertext bytes are.  One tapped run of
each session gives both images; it runs once per process.
"""

import hashlib
from functools import lru_cache

from repro.host.runtime import SessionRuntime, VideoSessionSpec
from repro.host.specs import PathSpec, build_network
from repro.netem import MultipathNetwork, OutageSchedule
from repro.quic.connection import Connection
from repro.sim import EventLoop
from repro.traces.radio_profiles import RadioType
from repro.video import make_video
from tests.test_connection import build_pair


class _SealTap:
    """Stands in for a connection's ``protection``: hashes the inputs of
    every ``seal``, then seals with the real one."""

    def __init__(self, inner, tap: "WireTap", direction: bytes) -> None:
        self._inner, self._tap, self._direction = inner, tap, direction
        self.open = inner.open

    def seal(self, plaintext, aad, cid_sequence_number: int,
             packet_number: int) -> bytes:
        tap = self._tap
        tap.seals += 1
        for part in (self._direction, len(aad).to_bytes(2, "big"), aad,
                     len(plaintext).to_bytes(4, "big"), plaintext,
                     cid_sequence_number.to_bytes(4, "big"),
                     packet_number.to_bytes(8, "big")):
            tap._plain.update(part)
        return self._inner.seal(plaintext, aad, cid_sequence_number,
                                packet_number)


class WireTap:
    """sha256 over every datagram the tapped connections emit, and over
    the inputs of every packet they seal."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self._plain = hashlib.sha256()
        self.datagrams = 0
        self.seals = 0

    def attach(self, conn: Connection, direction: bytes) -> None:
        def listener(kind: str, fields: dict) -> None:
            if kind != "datagram_sent":
                return
            net_path_id, payload = fields["net_path"], fields["payload"]
            self.datagrams += 1
            self._hash.update(direction)
            self._hash.update(net_path_id.to_bytes(2, "big", signed=True))
            self._hash.update(len(payload).to_bytes(4, "big"))
            self._hash.update(payload)

        conn.listeners.append(listener)
        conn.protection = _SealTap(conn.protection, self, direction)

    def images(self):
        """(datagram sha256, datagrams), (seal-input sha256, seals)."""
        return ((self._hash.hexdigest(), self.datagrams),
                (self._plain.hexdigest(), self.seals))


def xlink_session_wire(plain: bool = False):
    """One 2-path ``xlink`` video session: random loss on both paths and
    a Wi-Fi blackout, so loss detection, PTO, retransmission,
    re-injection and the fastest-path ACK policy all reach the wire."""
    return _xlink_session_images()[plain]


@lru_cache(maxsize=None)
def _xlink_session_images():
    loop = EventLoop()
    paths = [
        PathSpec(0, RadioType.WIFI, 0.015, rate_bps=6e6, loss_rate=0.02,
                 outages=OutageSchedule(windows=[(1.2, 2.0)])),
        PathSpec(1, RadioType.LTE, 0.04, rate_bps=4e6, loss_rate=0.01),
    ]
    runtime = SessionRuntime(loop, build_network(loop, paths, seed=11))
    handle = runtime.add_session(VideoSessionSpec(
        scheme="xlink",
        interfaces=[(spec.net_path_id, spec.radio) for spec in paths],
        video=make_video(duration_s=4.0, seed=11), seed=11,
        start_at=0.01))
    tap = WireTap()
    tap.attach(handle.client.conn, b"c")
    tap.attach(handle.server, b"s")
    runtime.run(timeout_s=60.0)
    assert handle.finished
    assert handle.server.stats.stream_bytes_reinjected > 0
    assert handle.server.stats.stream_bytes_rtx > 0
    return tap.images()


def rpc_exchange_wire(plain: bool = False, exchanges: int = 60,
                      window: int = 4):
    """``exchanges`` 64 B requests answered by 256 B responses, ``window``
    open at a time, on one clean path: the smallest packets both ways."""
    return _rpc_exchange_images(exchanges, window)[plain]


@lru_cache(maxsize=None)
def _rpc_exchange_images(exchanges: int, window: int):
    loop = EventLoop()
    net = MultipathNetwork(loop)
    net.add_simple_path(0, 50e6, 0.005)
    client, server = build_pair(loop, net, name="wire-rpc")   # MinRtt + Cubic
    tap = WireTap()
    tap.attach(client, b"c")
    tap.attach(server, b"s")
    state = {"issued": 0, "done": 0}
    answered = set()

    def issue() -> None:
        if state["issued"] < exchanges:
            index = state["issued"]
            state["issued"] += 1
            client.stream_send(client.create_stream(),
                               bytes([index % 251]) * 64, fin=True)

    def serve(stream_id: int) -> None:
        if stream_id not in answered:
            answered.add(stream_id)
            request = server.stream_read(stream_id)
            server.stream_send(stream_id,
                               hashlib.sha256(request).digest() * 8,
                               fin=True)

    def finish(stream_id: int) -> None:
        assert len(client.stream_read(stream_id)) == 256
        state["done"] += 1
        issue()

    def start() -> None:
        for _ in range(window):
            issue()

    server.on_stream_complete = serve
    client.on_stream_complete = finish
    client.on_established = start
    client.connect()
    loop.run(until=30.0)
    assert state["done"] == exchanges
    return tap.images()
