"""The session runtime: N concurrent sessions against one ServerHost.

This is the layered endpoint architecture the experiments run on:

    MultipathNetwork -- emulated paths (shared-link attachment for
        multi-user cells)
    CdnFrontend      -- the QUIC-LB front door; consistent-hashes
        handshake DCIDs and routes server-ID-embedding CIDs, exactly
        the Sec. 6 deployment shape
    ServerHost       -- one CDN node; demultiplexes datagrams to
        per-connection state, serves all of them from one shared
        MediaServer catalog
    ClientEndpoint   -- one user's device; connection + player + CM
        monitor, which listens to the connection's events

``repro.experiments.harness.run_video_session`` is the N=1 case of
this runtime (its outputs pinned by ``tests/test_golden.py``);
``repro.experiments.contention`` is the N>1 shared-cell case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.host.client import ClientEndpoint
from repro.host.server import SERVER_ID, ServerHost
from repro.host.specs import SchemeLike, resolve_scheme
from repro.lb.frontend import CdnFrontend
from repro.metrics.qoe import SessionMetrics
from repro.netem import MultipathNetwork
from repro.quic.connection import Connection
from repro.quic.trace import ConnectionTracer
from repro.sim import EventLoop
from repro.traces.radio_profiles import RadioType
from repro.video import PlayerConfig, VideoPlayer
from repro.video.media import Video


@dataclass
class SessionResult:
    """Everything a bench may want from one finished session."""

    scheme: str
    completed: bool
    duration_s: float
    metrics: SessionMetrics
    #: raw objects for deep inspection
    player: Optional[VideoPlayer] = None
    client: Optional[Connection] = None
    server: Optional[Connection] = None
    net: Optional[MultipathNetwork] = None
    #: bulk-download completion time (bulk mode only)
    download_time_s: Optional[float] = None
    reinjected_bytes: int = 0
    new_stream_bytes: int = 0

    @property
    def redundancy_percent(self) -> float:
        if self.new_stream_bytes == 0:
            return 0.0
        return self.reinjected_bytes / self.new_stream_bytes * 100.0


@dataclass
class VideoSessionSpec:
    """Everything needed to stand up one video session on the runtime."""

    #: a :class:`SchemeConfig`, or the name of one of the paper's arms
    scheme: SchemeLike
    interfaces: Sequence[Tuple[int, RadioType]]
    video: Video
    player_config: Optional[PlayerConfig] = None
    seed: int = 0
    primary_order: Optional[Sequence[RadioType]] = None
    #: client endpoint name; ``None`` uses the network's default client
    client_addr: Optional[str] = None
    #: shared-secret identity; ``None`` derives ``session-<seed>``
    connection_name: Optional[str] = None
    #: virtual time at which the session connects
    start_at: float = 0.0
    #: optional qlog-style tracer installed on the client connection
    tracer: Optional[ConnectionTracer] = None


@dataclass
class SessionHandle:
    """A live session inside the runtime."""

    client: ClientEndpoint
    server: Connection
    player: VideoPlayer

    @property
    def finished(self) -> bool:
        return self.player.finished


class SessionRuntime:
    """Drives N concurrent video sessions through one ServerHost."""

    def __init__(self, loop: EventLoop, net: MultipathNetwork,
                 idle_timeout_s: Optional[float] = None) -> None:
        self.loop = loop
        self.net = net
        self.idle_timeout_s = idle_timeout_s
        #: one CDN node, its catalog filled per session, always behind
        #: the QUIC-LB front door
        self.host = ServerHost(loop, net)
        if idle_timeout_s is not None:
            self.host.start_eviction(idle_timeout_s)
        self.frontend = CdnFrontend({SERVER_ID: self.host})
        self.frontend.attach(net.server)
        self.sessions: List[SessionHandle] = []
        #: sessions whose playback has not finished yet; maintained by
        #: per-player finish callbacks so :meth:`run` never has to poll
        self._unfinished = 0

    def add_session(self, spec: VideoSessionSpec) -> SessionHandle:
        """Provision both endpoints of one session.

        A session starting at ``start_at == 0`` connects immediately;
        later starts are scheduled on the loop (staggered arrivals).
        """
        scheme = resolve_scheme(spec.scheme)
        if spec.client_addr is None:
            endpoint = self.net.client
        else:
            endpoint = self.net.clients.get(spec.client_addr)
            if endpoint is None:
                endpoint = self.net.add_client(spec.client_addr)
        client = ClientEndpoint(self.loop, endpoint, scheme,
                                spec.interfaces, seed=spec.seed,
                                connection_name=spec.connection_name,
                                primary_order=spec.primary_order,
                                idle_timeout_s=self.idle_timeout_s)
        server = self.host.register_session(
            endpoint.name, client.connection_name, scheme, spec.seed,
            client.primary_net, radio=client.primary_radio,
            idle_timeout_s=self.idle_timeout_s)
        self._add_to_catalog(spec.video)
        player = client.attach_player(spec.video, spec.player_config)
        self._unfinished += 1
        chained = player.on_finished

        def _finished() -> None:
            self._unfinished -= 1
            if self._unfinished <= 0:
                self.loop.request_stop()
            if chained is not None:
                chained()

        player.on_finished = _finished
        if spec.tracer is not None:
            spec.tracer.install(client.conn)
        if spec.start_at <= 0:
            client.start()
        else:
            self.loop.schedule_at(spec.start_at, client.start)
        handle = SessionHandle(client=client, server=server, player=player)
        self.sessions.append(handle)
        return handle

    def _add_to_catalog(self, video: Video) -> None:
        existing = self.host.media.videos.get(video.name)
        if existing is None:
            self.host.media.add_video(video)
        elif existing is not video:
            raise ValueError(
                f"catalog already holds a different video named "
                f"{video.name!r}")

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------

    def run(self, timeout_s: float = 120.0) -> None:
        """Run the loop until every session's playback finishes.

        Batched driver: instead of polling every session's player (an
        O(sessions) walk) between every pair of events, the loop runs
        run-until-blocked and the finish callback installed by
        :meth:`add_session` stops it the instant the last player
        completes.  ``stop_before`` preserves the historical timeout
        semantics exactly: the event that crosses ``timeout_s`` still
        runs, then the loop returns.
        """
        if self._unfinished <= 0:
            return
        self.loop.run(stop_before=timeout_s)

    def teardown(self) -> None:
        """Free the finished world.

        A running world is full of back-edges: connections and their
        collaborators point at each other, the player, client endpoint
        and media server hand the connections callbacks, netem endpoints
        and the network point at each other, each player's finish hook
        points at this runtime, and every pending event reaches its
        owner.  Dropping those edges leaves a tree, which plain
        refcounting frees the moment the last :class:`SessionResult` of
        it goes -- no collector pass, however many worlds a process runs
        back to back.  Call it after the results are read; the results
        stay readable, the world can no longer run.
        """
        for handle in self.sessions:
            handle.player.on_finished = None
            handle.client.conn.teardown()
            handle.server.teardown()
        self.net.teardown()
        self.loop.clear()

    def result(self, handle: SessionHandle) -> SessionResult:
        """Assemble the metrics bundle for one session."""
        server = handle.server
        metrics = SessionMetrics.from_player(
            handle.player.stats,
            redundant_bytes=server.stats.stream_bytes_reinjected,
            useful_bytes=server.stats.stream_bytes_new)
        return SessionResult(
            scheme=handle.client.scheme.name,
            completed=handle.player.finished,
            duration_s=self.loop.now, metrics=metrics,
            player=handle.player, client=handle.client.conn,
            server=server, net=self.net,
            reinjected_bytes=server.stats.stream_bytes_reinjected,
            new_stream_bytes=server.stats.stream_bytes_new)
