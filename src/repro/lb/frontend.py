"""CDN frontend: a QUIC-LB load balancer carrying live traffic.

Sec. 6 describes the deployment: multiple real servers sit behind a
load balancer that routes on connection IDs.  Each server encodes its
server ID into every CID it issues, so all paths of one connection --
each path using a different CID -- reach the same backend.  The
client's *initial* packet carries a random DCID the balancer has never
seen; it is routed by consistent hashing, and the chosen backend's
CIDs take over from there.

:class:`CdnFrontend` implements exactly that on top of the emulator:
it owns the server-side endpoint of a :class:`MultipathNetwork` and
demultiplexes datagrams to backend
:class:`~repro.quic.connection.Connection` objects.
"""

from __future__ import annotations

from typing import Dict

from repro.lb.quic_lb import QuicLbRouter
from repro.netem.packet import Datagram
from repro.quic.packets import decode_header, peek_dcid


class CdnFrontend:
    """Routes datagrams from one network endpoint to N backends."""

    def __init__(self, backends: Dict[int, object]) -> None:
        """``backends`` maps server-ID byte -> server Connection."""
        #: the routing rule; it names each backend by its server ID
        self.router = QuicLbRouter({sid: str(sid) for sid in backends})
        self._backends = {str(sid): backend
                          for sid, backend in backends.items()}
        #: handshake DCID (bytes) -> backend name, for initial packets
        self._initial_route: Dict[bytes, str] = {}
        self.datagrams_routed = 0
        self.datagrams_dropped = 0

    def attach(self, endpoint) -> None:
        """Listen on a network endpoint (e.g. ``net.server``)."""
        endpoint.on_receive(self.on_datagram)

    def on_datagram(self, dgram: Datagram) -> None:
        backend = self.route_backend(dgram.payload)
        if backend is None:
            self.datagrams_dropped += 1
            return
        self.datagrams_routed += 1
        deliver = getattr(backend, "on_datagram", None)
        if deliver is not None:
            # Multi-connection backend (a ServerHost): it demultiplexes
            # per-connection state itself and needs the full datagram.
            deliver(dgram)
        else:
            backend.datagram_received(dgram.payload, dgram.path_id)

    def route_backend(self, payload: bytes):
        """Resolve the backend Connection for a datagram."""
        try:
            dcid = peek_dcid(payload)
            handshake = dcid is None
            if handshake:       # long header: needs the full parse
                dcid = decode_header(payload)[0].dcid
        except Exception:
            return None
        if handshake:
            # Initial packets carry a client-chosen DCID: consistent-
            # hash it once and pin the mapping for retransmits.
            name = self._initial_route.get(dcid)
            if name is None:
                name = self._initial_route[dcid] = \
                    self.router.ring.node_for(dcid)
        else:
            # Short header: a backend-issued CID, routed by its
            # server-ID byte (or the ring, for an unknown byte).
            name = self.router.route(dcid)
        return self._backends[name]
