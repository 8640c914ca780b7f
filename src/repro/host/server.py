"""The server-side endpoint runtime: one emulated CDN node.

A :class:`ServerHost` owns the server network endpoint and serves many
concurrent QUIC connections from one shared :class:`MediaServer`
catalog, the way one XLINK real server behind the QUIC-LB front door
serves many users (Sec. 6).  Incoming datagrams are demultiplexed to
per-connection state by DCID:

- *Handshake* packets carry a client-chosen random DCID the host has
  never issued.  The first one from a client address pins that DCID to
  the connection registered for the address (the emulator's stand-in
  for the UDP 4-tuple), so handshake retransmits keep routing stably.
- *Short-header* packets carry a host-issued CID; the host resolves it
  against its connections' CID registries (caching the mapping), which
  is exactly how all paths of one multipath connection -- each path on
  a different CID -- land on the same per-connection state.

Datagrams that resolve to no connection are dropped and classified:
``misrouted`` (the CID embeds another host's server-ID byte -- the
load balancer sent it to the wrong place), ``unknown_cid`` (our
server-ID byte but no matching connection), or ``post_close`` (the
connection already closed).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.host.specs import SchemeConfig, make_scheduler
from repro.netem import Datagram, MultipathNetwork
from repro.quic.cid import SERVER_ID_OFFSET
from repro.quic.connection import (Connection, ConnectionConfig,
                                   derive_initial_dcid)
from repro.quic.packets import decode_header, peek_dcid
from repro.sim import EventLoop
from repro.traces.radio_profiles import RadioType
from repro.video import MediaServer


#: the server-ID byte this host embeds in the CIDs it issues (QUIC-LB)
SERVER_ID = 1
#: how often :meth:`ServerHost.start_eviction`'s sweep runs
EVICTION_INTERVAL_S = 1.0


class ServerHost:
    """One emulated CDN node serving many concurrent connections."""

    def __init__(self, loop: EventLoop, net: MultipathNetwork) -> None:
        self.loop = loop
        self.net = net
        #: the shared media catalog every connection is served from
        self.media = MediaServer()
        self.connections: List[Connection] = []
        self._by_addr: Dict[str, Connection] = {}
        #: client handshake DCID -> connection (pinned on first sight)
        self._initial_route: Dict[bytes, Connection] = {}
        #: host-issued CID bytes -> connection (filled lazily)
        self._cid_route: Dict[bytes, Connection] = {}
        self.datagrams_routed = 0
        self.datagrams_dropped = 0
        self.misrouted = 0
        self.unknown_cid = 0
        self.post_close_drops = 0
        #: eviction accounting (see :meth:`start_eviction`)
        self.evicted_closed = 0
        self.evicted_idle = 0
        self._eviction_event = None
        self._eviction_idle_s: Optional[float] = None

    # ------------------------------------------------------------------
    # session provisioning
    # ------------------------------------------------------------------

    def register_session(self, client_addr: str, connection_name: str,
                         scheme: SchemeConfig, seed: int,
                         primary_net: int,
                         radio: Optional[RadioType] = None,
                         idle_timeout_s: Optional[float] = None
                         ) -> Connection:
        """Provision the server side of one expected session.

        Creates the per-connection state (transport config mirrors the
        scheme, path 0 bound to the client's primary interface),
        addresses its egress to ``client_addr``, and attaches it to the
        shared media catalog, first-frame acceleration as the scheme
        says.  Returns the server connection.
        """
        if client_addr in self._by_addr:
            raise ValueError(f"address {client_addr!r} already registered")
        conn = Connection(
            self.loop,
            ConnectionConfig(is_client=False,
                             enable_multipath=scheme.multipath,
                             cc_algorithm=scheme.cc_algorithm,
                             ack_path_policy=scheme.ack_path_policy,
                             seed=seed,
                             idle_timeout_s=idle_timeout_s),
            transmit=self._transmit_to(client_addr),
            scheduler=make_scheduler(scheme),
            connection_name=connection_name,
            server_id=SERVER_ID)
        conn.add_local_path(0, primary_net, radio=radio)
        self.media.attach(
            conn, first_frame_acceleration=scheme.first_frame_acceleration)
        self.connections.append(conn)
        self._by_addr[client_addr] = conn
        # Pre-pin the client's (deterministic) initial DCID: handshake
        # datagrams then route even if the source address changed (NAT
        # rebind) before the first packet could pin it by address.
        self._initial_route[
            derive_initial_dcid(seed, connection_name)] = conn
        return conn

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------

    def start_eviction(self, idle_timeout_s: float) -> None:
        """Every :data:`EVICTION_INTERVAL_S`, evict dead and idle
        connections.

        Closed connections (protocol-error closes, idle timeouts,
        client-initiated closes) are purged from the routing tables so
        late datagrams land in ``post_close``/``unknown_cid`` drop
        accounting instead of touching dead state; connections silent
        beyond ``idle_timeout_s`` are closed and purged -- the host's
        defence against clients that vanish without closing.
        """
        self._eviction_idle_s = idle_timeout_s
        if self._eviction_event is None:
            self._eviction_event = self.loop.schedule_after(
                EVICTION_INTERVAL_S, self._eviction_sweep)

    def _eviction_sweep(self) -> None:
        self._eviction_event = None
        now = self.loop.now
        for conn in list(self.connections):
            if conn.closed:
                self._evict(conn)
                self.evicted_closed += 1
            elif now - conn.last_activity_at > self._eviction_idle_s:
                conn.silent_close()
                self._evict(conn)
                self.evicted_idle += 1
        # Re-arm only while there is anything left to watch, so
        # drain-to-empty simulations still terminate.
        if self.connections:
            self._eviction_event = self.loop.schedule_after(
                EVICTION_INTERVAL_S, self._eviction_sweep)

    def _evict(self, conn: Connection) -> None:
        if conn in self.connections:
            self.connections.remove(conn)
        self.media.detach(conn)
        for table in (self._by_addr, self._initial_route, self._cid_route):
            for key in [k for k, v in table.items() if v is conn]:
                del table[key]

    def _transmit_to(self, client_addr: str) -> Callable[[int, bytes], None]:
        endpoint = self.net.server

        def transmit(net_path_id: int, payload: bytes) -> None:
            endpoint.send(Datagram(payload=payload, path_id=net_path_id,
                                   dst=client_addr))

        return transmit

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------

    def on_datagram(self, dgram: Datagram) -> None:
        """Demultiplex one incoming datagram to its connection."""
        conn = self.route_connection(dgram)
        if conn is None:
            self.datagrams_dropped += 1
            return
        if conn.closed:
            self.post_close_drops += 1
            self.datagrams_dropped += 1
            return
        self.datagrams_routed += 1
        conn.datagram_received(dgram.payload, dgram.path_id)

    def route_connection(self, dgram: Datagram) -> Optional[Connection]:
        """Resolve the connection a datagram belongs to, or ``None``."""
        try:
            dcid = peek_dcid(dgram.payload)
            handshake = dcid is None
            if handshake:       # long header: needs the full parse
                dcid = decode_header(dgram.payload)[0].dcid
        except Exception:
            return None
        if handshake:
            conn = self._initial_route.get(dcid)
            if conn is None:
                conn = self._by_addr.get(dgram.src)
                if conn is not None:
                    self._initial_route[dcid] = conn
            return conn
        conn = self._cid_route.get(dcid)
        if conn is not None:
            return conn
        for candidate in self.connections:
            if candidate.cids.lookup_issued(dcid) is not None:
                self._cid_route[dcid] = candidate
                return candidate
        if dcid[SERVER_ID_OFFSET] != SERVER_ID:
            self.misrouted += 1
        else:
            self.unknown_cid += 1
        return None
