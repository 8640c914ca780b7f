"""The six workloads: closed loop, fixed work per rep, checked outputs.

Each workload drives only public entry points of ``repro`` and returns
a :class:`RepResult` per rep.  A rep is *identical* every time it runs
for a given seed, so its ``digest`` (sha256 over the simulated outputs)
must be identical too -- between reps, between the traced and untraced
run, and between ``fleet_sharded`` and its serial reference.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core import MinRttScheduler
from repro.experiments import contention, fleet
from repro.netem import Datagram, MultipathNetwork
from repro.quic.connection import Connection, ConnectionConfig
from repro.sim import EventLoop

from bench.spec import WORKLOAD_BY_NAME


@dataclass
class RepResult:
    """What one rep did, and whether its outputs were right."""

    #: units attempted (whole MB, exchanges or sessions)
    units: int
    #: units failed, timed out, abandoned, incomplete or wrong
    failed: int
    #: sha256 over the rep's simulated outputs
    digest: str
    #: numbers the layer ledger reads straight from the program's results
    detail: Dict[str, float] = field(default_factory=dict)


def _digest(*parts: Any) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _established_pair():
    """A fresh client/server connection pair over one 1 Gbps / 1 ms path
    (MinRtt + Cubic), handshake done."""
    loop = EventLoop()
    net = MultipathNetwork(loop)
    net.add_simple_path(0, 1e9, 0.001)
    client = Connection(
        loop, ConnectionConfig(is_client=True, enable_multipath=True),
        transmit=lambda pid, data: net.client.send(
            Datagram(payload=data, path_id=pid)),
        scheduler=MinRttScheduler(), connection_name="bench")
    server = Connection(
        loop, ConnectionConfig(is_client=False, enable_multipath=True),
        transmit=lambda pid, data: net.server.send(
            Datagram(payload=data, path_id=pid)),
        scheduler=MinRttScheduler(), connection_name="bench")
    net.client.on_receive(
        lambda d: client.datagram_received(d.payload, d.path_id))
    net.server.on_receive(
        lambda d: server.datagram_received(d.payload, d.path_id))
    client.add_local_path(0, 0)
    server.add_local_path(0, 0)
    client.connect()
    loop.run(until=0.5)
    if not (client.established and server.established):
        raise RuntimeError("connection pair failed to establish")
    return loop, client, server


class Bulk:
    """One client->server stream of ``megabytes`` MB, read as it lands."""

    def __init__(self, megabytes: int) -> None:
        self.megabytes = megabytes
        self.payload = b""
        self.expected = ""

    def prepare(self, seed: int) -> None:
        self.payload = random.Random(seed).randbytes(
            self.megabytes * 1_000_000)
        self.expected = hashlib.sha256(self.payload).hexdigest()

    def rep(self) -> RepResult:
        loop, client, server = _established_pair()
        received = hashlib.sha256()
        # Without the read a write over 4 MiB stalls on stream flow
        # control: credit is only returned for bytes the app consumed.
        server.on_stream_data = \
            lambda sid: received.update(server.stream_read(sid))
        stream_id = client.create_stream()
        client.stream_send(stream_id, self.payload, fin=True)
        loop.run(until=loop.now + 60.0)
        stream = server.recv_streams.get(stream_id)
        complete = stream is not None and stream.is_complete
        intact = received.hexdigest() == self.expected
        packets = client.stats.packets_sent + server.stats.packets_sent
        return RepResult(
            units=self.megabytes,
            failed=0 if (complete and intact) else self.megabytes,
            digest=_digest(received.hexdigest(), loop.now, packets,
                           client.stats.stream_bytes_new))


class Rpc:
    """``exchanges`` request/response streams, ``window`` open at a time."""

    REQUEST_BYTES = 64
    RESPONSE_REPEATS = 8        # 8 x 32 B digest = 256 B response

    def __init__(self, exchanges: int, window: int) -> None:
        self.exchanges = exchanges
        self.window = window
        self.requests: List[bytes] = []
        self.responses: List[bytes] = []

    @classmethod
    def _response(cls, request: bytes) -> bytes:
        return hashlib.sha256(request).digest() * cls.RESPONSE_REPEATS

    def prepare(self, seed: int) -> None:
        blob = random.Random(seed).randbytes(
            self.exchanges * self.REQUEST_BYTES)
        self.requests = [blob[i:i + self.REQUEST_BYTES]
                         for i in range(0, len(blob), self.REQUEST_BYTES)]
        self.responses = [self._response(r) for r in self.requests]

    def rep(self) -> RepResult:
        loop, client, server = _established_pair()
        index_of: Dict[int, int] = {}
        answered = set()
        seen = hashlib.sha256()
        state = {"issued": 0, "right": 0, "done": 0}

        def issue() -> None:
            if state["issued"] < self.exchanges:
                stream_id = client.create_stream()
                index_of[stream_id] = state["issued"]
                state["issued"] += 1
                client.stream_send(stream_id,
                                   self.requests[index_of[stream_id]],
                                   fin=True)

        def serve(stream_id: int) -> None:
            if stream_id not in answered:
                answered.add(stream_id)
                server.stream_send(
                    stream_id, self._response(server.stream_read(stream_id)),
                    fin=True)

        def finish(stream_id: int) -> None:
            index = index_of.pop(stream_id, None)
            if index is None:
                return
            response = client.stream_read(stream_id)
            seen.update(response)
            state["done"] += 1
            state["right"] += response == self.responses[index]
            issue()

        server.on_stream_complete = serve
        client.on_stream_complete = finish
        for _ in range(self.window):
            issue()
        loop.run(until=loop.now + 60.0)
        packets = client.stats.packets_sent + server.stats.packets_sent
        return RepResult(
            units=self.exchanges,
            failed=self.exchanges - state["right"],
            digest=_digest(seen.hexdigest(), loop.now, packets,
                           state["done"]))


class Fleet:
    """A population driver through ``run_fleet_driver``.

    ``serial=True`` runs the same population with ``workers=1`` (and the
    same shard size): the reference a sharded run must reproduce.
    """

    def __init__(self, make_driver: Callable[[int], Any], workers: int = 1,
                 shard_size: Optional[int] = None) -> None:
        self.make_driver = make_driver
        self.workers = workers
        self.shard_size = shard_size
        self.seed = 0
        #: sessions the population holds (counted in ``prepare``)
        self.expected = 0
        self.taskgen_us_per_unit = 0.0

    def prepare(self, seed: int) -> None:
        self.seed = seed
        t0 = time.perf_counter()
        self.expected = sum(1 for _ in self.make_driver(seed).task_iter())
        self.taskgen_us_per_unit = \
            (time.perf_counter() - t0) * 1e6 / max(self.expected, 1)

    def rep(self, serial: bool = False) -> RepResult:
        kwargs = {} if self.shard_size is None \
            else {"shard_size": self.shard_size}
        run = fleet.run_fleet_driver(
            self.make_driver(self.seed),
            workers=1 if serial else self.workers, **kwargs)
        result, sink = run.result, run.sink
        completed = sum(s.completed for s in sink.schemes.values())
        rebuffer = sum(s.rebuffer_q for s in sink.schemes.values())
        play = sum(s.play_q for s in sink.schemes.values())
        return RepResult(
            units=self.expected,
            failed=self.expected - completed,
            digest=_digest(sink.digest(), result.tasks, sink.sessions,
                           completed, sink.failed),
            detail={"rebuffer_share": rebuffer / play if play else 0.0,
                    "sink_buckets": sink.n_buckets,
                    "shards": result.shards,
                    "retries": result.retries,
                    "workers": result.workers_effective})


class Contention:
    """``sessions`` concurrent sessions on one host and a shared cell."""

    def __init__(self, sessions: int, video_duration_s: float) -> None:
        self.sessions = sessions
        self.video_duration_s = video_duration_s
        self.seed = 0

    def prepare(self, seed: int) -> None:
        self.seed = seed

    def rep(self) -> RepResult:
        result = contention.run_contention(contention.ContentionConfig(
            sessions=self.sessions, seed=self.seed,
            video_duration_s=self.video_duration_s))
        return RepResult(
            units=self.sessions,
            failed=self.sessions - result.completed,
            digest=_digest(result.fingerprint()),
            detail={"rebuffer_share": result.rebuffer_rate})


def _ab_population(users: int) -> Callable[[int], Any]:
    return lambda seed: fleet.ABPopulationDriver(
        fleet.FleetConfig(users=users, seed=seed))


def make(name: str, quick: bool = False):
    """Build the named workload at its frozen (or ``--quick``) size."""
    spec = WORKLOAD_BY_NAME[name]
    size = spec.quick if quick else spec.size
    if name == "bulk":
        return Bulk(**size)
    if name == "rpc":
        return Rpc(**size)
    if name == "ab_day":
        return Fleet(_ab_population(size["users"]))
    if name == "fleet_sharded":
        return Fleet(_ab_population(size["users"]), workers=size["workers"],
                     shard_size=size["shard_size"])
    if name == "mobility":
        return Fleet(lambda seed: fleet.MobilityPopulationDriver(
            traces=size["traces"], repeats=1, seed=seed,
            schemes=tuple(size["schemes"])))
    if name == "contention":
        return Contention(**size)
    raise KeyError(name)
