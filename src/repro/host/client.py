"""The client-side endpoint runtime.

A :class:`ClientEndpoint` wraps one client connection together with its
application wiring -- video player, secondary-path bring-up, and the
CM baseline's migration monitor -- behind explicit ``on_datagram`` /
``on_established`` hooks.  Nothing monkey-patches the connection: the
migration monitor is one of the connection's listeners, as
:class:`ConnectionTracer` is.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Sequence, Tuple

from repro.core import select_primary_path
from repro.host.specs import SchemeConfig, make_scheduler
from repro.netem import Datagram
from repro.netem.network import Endpoint
from repro.quic.connection import Connection, ConnectionConfig
from repro.quic.path import PathState
from repro.sim import EventLoop
from repro.traces.radio_profiles import RadioType
from repro.video import PlayerConfig, VideoPlayer
from repro.video.media import Video


class ClientEndpoint:
    """One user's device: connection + player + path management."""

    def __init__(self, loop: EventLoop, endpoint: Endpoint,
                 scheme: SchemeConfig,
                 interfaces: Sequence[Tuple[int, RadioType]],
                 seed: int = 0,
                 connection_name: Optional[str] = None,
                 primary_order: Optional[Sequence[RadioType]] = None,
                 idle_timeout_s: Optional[float] = None
                 ) -> None:
        self.loop = loop
        self.scheme = scheme
        self.interfaces = [tuple(i) for i in interfaces]
        self.seed = seed
        self.connection_name = (connection_name if connection_name is not None
                                else f"session-{seed}")
        self.player: Optional[VideoPlayer] = None
        #: user hook, fired after secondary paths open and playback starts
        self.on_established: Optional[Callable[[], None]] = None

        # The client runs the same scheduler family as the server: the
        # XLINK client (Taobao app) schedules its request packets with
        # the same QoE-driven logic, which matters when the primary
        # path dies holding an un-acked HTTP request.
        self.conn = Connection(
            loop,
            ConnectionConfig(is_client=True,
                             enable_multipath=scheme.multipath,
                             cc_algorithm=scheme.cc_algorithm,
                             ack_path_policy=scheme.ack_path_policy,
                             seed=seed,
                             idle_timeout_s=idle_timeout_s),
            transmit=lambda pid, data: endpoint.send(
                Datagram(payload=data, path_id=pid)),
            scheduler=make_scheduler(scheme),
            connection_name=self.connection_name)
        endpoint.on_receive(self.on_datagram)

        # Wireless-aware primary path selection (Sec. 5.3): QUIC path 0
        # maps to the preferred interface.
        if primary_order is not None:
            self.primary_net = select_primary_path(self.interfaces,
                                                   order=primary_order)
        else:
            self.primary_net = select_primary_path(self.interfaces)
        self.primary_radio = next(
            radio for net_id, radio in self.interfaces
            if net_id == self.primary_net)
        self.secondaries = [(net_id, radio)
                            for net_id, radio in self.interfaces
                            if net_id != self.primary_net]
        self.conn.add_local_path(0, self.primary_net,
                                 radio=self.primary_radio)
        self.conn.on_established = self._established

    # -- datagram + lifecycle hooks -------------------------------------

    def on_datagram(self, dgram: Datagram) -> None:
        """Entry point for datagrams from this host's network endpoint."""
        self.conn.datagram_received(dgram.payload, dgram.path_id)

    def _established(self) -> None:
        if self.scheme.multipath and self.conn.multipath_negotiated:
            for i, (net_id, radio) in enumerate(self.secondaries, start=1):
                self.conn.open_path(i, net_id, radio=radio)
        if self.player is not None:
            self.player.start()
        if self.on_established is not None:
            self.on_established()

    # -- application wiring ---------------------------------------------

    def attach_player(self, video: Video,
                      config: Optional[PlayerConfig] = None) -> VideoPlayer:
        """Create the video player (started once the handshake finishes)."""
        self.player = VideoPlayer(self.loop, self.conn, video, config=config)
        return self.player

    def start(self) -> None:
        """Connect; enable the CM migration monitor when the scheme asks."""
        self.conn.connect()
        if self.scheme.connection_migration:
            # the connection keeps the monitor: it is one of its listeners
            MigrationMonitor(self.loop, self.conn,
                             [net_id for net_id, _radio in self.interfaces],
                             self.primary_net)

    @property
    def finished(self) -> bool:
        return self.player is not None and self.player.finished


class MigrationMonitor:
    """CM baseline: probe the active path, migrate on stall.

    QUIC connection migration is client-driven: when nothing has been
    received for a degradation threshold, the client migrates to the
    other interface, which resets the congestion window (Sec. 2).  The
    monitor listens to the connection's ``datagram_received`` events.
    """

    #: idle time on the active path that forces a migration
    STALL_THRESHOLD_S = 0.6
    #: a path is degraded when its short-window goodput falls below
    #: this fraction of the session's running average
    DEGRADED_FRACTION = 0.2
    WINDOW_S = 0.7
    PROBE_INTERVAL_S = 0.1

    def __init__(self, loop: EventLoop, conn: Connection,
                 net_path_ids: Sequence[int], primary_net: int) -> None:
        self.loop = loop
        self.conn = conn
        self.current_net = primary_net
        self.others = [n for n in net_path_ids if n != primary_net]
        self.last_rx = 0.0
        self._started_at = loop.now
        self.bytes = 0
        #: (time, cumulative bytes) samples; old entries age off the left
        self.window: Deque[Tuple[float, int]] = deque()
        self.migrated_at = -1.0
        self._next_quic_id = 1
        conn.listeners.append(self._on_event)
        loop.schedule_after(self.PROBE_INTERVAL_S, self._probe)

    def _on_event(self, kind: str, fields: dict) -> None:
        if kind == "datagram_received":
            self.last_rx = self.loop.now
            self.bytes += len(fields["payload"])

    def _degraded(self) -> bool:
        """Idle too long, or goodput collapsed vs the session average."""
        now = self.loop.now
        if now - self.last_rx > self.STALL_THRESHOLD_S:
            return True
        window = self.window
        window.append((now, self.bytes))
        while window and window[0][0] < now - self.WINDOW_S:
            window.popleft()
        if now < 1.0 or len(window) < 3:
            return False
        recent_rate = (window[-1][1] - window[0][1]) / self.WINDOW_S
        average_rate = self.bytes / max(now, 1e-9)
        return recent_rate < self.DEGRADED_FRACTION * average_rate

    def _probe(self) -> None:
        conn = self.conn
        if conn.closed:
            return
        # Outstanding work: an open request stream whose response is
        # missing or incomplete (the response may not have *started*,
        # so checking recv_streams alone is not enough).  A stream that
        # was answered, read and acked has closed and is in neither map.
        have_work = False
        for sid in conn.send_streams:
            recv = conn.recv_streams.get(sid)
            if recv is None or not recv.is_complete:
                have_work = True
                break
        recently_migrated = \
            self.loop.now - self.migrated_at < 1.0
        if not conn.established:
            # Mid-handshake outage: nothing has ever been received, so
            # goodput heuristics are useless -- a silent handshake is
            # itself the stall signal (Wi-Fi died under the first
            # flight).  Rebind to the other interface and retransmit.
            stalled = self.loop.now - max(self.last_rx, self._started_at) \
                > self.STALL_THRESHOLD_S
            if stalled and self.others and not recently_migrated:
                self._migrate_handshake()
            self.loop.schedule_after(self.PROBE_INTERVAL_S, self._probe)
            return
        if (have_work and not recently_migrated
                and self._degraded() and self.others):
            if not self._migrate():
                return  # path bring-up failed; stop probing
        self.loop.schedule_after(self.PROBE_INTERVAL_S, self._probe)

    def _migrate_handshake(self) -> None:
        """Rebind path 0 to the other interface before establishment.

        There is no validated secondary path to migrate onto yet, so
        this is the pure CM rebind: point path 0's egress at the other
        interface, reset congestion state, and retransmit the
        handshake immediately.  The server follows the new source
        interface when the retransmit arrives.
        """
        conn = self.conn
        target_net = self.others[0]
        self.others[0] = self.current_net
        self.current_net = target_net
        conn.net_path_of[0] = target_net
        conn.paths[0].cc.reset()
        conn.retransmit_handshake()
        self.last_rx = self.loop.now
        self.migrated_at = self.loop.now
        self.window.clear()

    def _migrate(self) -> bool:
        """Open (or reuse) a path on the other interface and make it
        the only active one, resetting its cwnd."""
        conn = self.conn
        target_net = self.others[0]
        self.others[0] = self.current_net
        self.current_net = target_net
        existing = next(
            (p for p in conn.paths.values()
             if conn.net_path_of.get(p.path_id) == target_net
             and p.state is not PathState.ABANDONED), None)
        if existing is None and conn.multipath_negotiated:
            quic_id = self._next_quic_id
            self._next_quic_id += 1
            try:
                conn.open_path(quic_id, target_net)
            except Exception:
                return False
            conn.migrate(quic_id)
        elif existing is not None:
            conn.migrate(existing.path_id)
        else:
            # Pure single-path CM: rebind path 0 to the new interface
            # and reset its congestion state; the probe teaches the
            # server the client's new address.
            conn.net_path_of[0] = target_net
            conn.paths[0].cc.reset()
            conn.send_ping(0)
        self.last_rx = self.loop.now
        self.migrated_at = self.loop.now
        self.window.clear()
        return True
