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

from typing import Dict, Optional

from repro.lb.quic_lb import ConsistentHashRing
from repro.netem.packet import Datagram
from repro.quic.packets import decode_header, peek_dcid


class CdnFrontend:
    """Routes datagrams from one network endpoint to N backends."""

    def __init__(self, backends: Dict[int, object]) -> None:
        """``backends`` maps server-ID byte -> server Connection."""
        if not backends:
            raise ValueError("frontend needs at least one backend")
        self.backends = dict(backends)
        #: handshake DCID (bytes) -> server id, for initial packets
        self._initial_route: Dict[bytes, int] = {}
        self._hash_ring = ConsistentHashRing(
            [str(sid) for sid in sorted(backends)])
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
            sid = self._initial_route.get(dcid)
            if sid is None:
                sid = int(self._hash_ring.node_for(dcid))
                self._initial_route[dcid] = sid
            return self.backends.get(sid)
        # Short header: the DCID is a backend-issued CID with the
        # server ID embedded at a fixed offset.
        backend = self.backends.get(dcid[0])
        if backend is not None:
            return backend
        # Unknown ID byte (e.g. a backend was removed): fall back to
        # hashing so the packet at least lands somewhere deterministic.
        return self.backends.get(int(self._hash_ring.node_for(dcid)))
