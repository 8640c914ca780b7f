"""QUIC-LB-style connection-ID routing.

The paper's CDN deployment (Sec. 6) routes with consistent hashing on
connection IDs: a real server encodes its server ID into the CIDs it
issues, so every path of one connection -- each using a different CID
-- reaches the same backend.  A second level of the same trick encodes
a process ID so the right worker process gets the packet.

Two routers are provided:

- :class:`QuicLbRouter` -- deterministic routing by the embedded
  server-ID byte (the QUIC-LB draft's encoded mode).
- :class:`ConsistentHashRing` -- hash-ring fallback for CIDs without
  an encoded ID (e.g. the client's initial random DCID).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence

from repro.quic.cid import SERVER_ID_OFFSET


#: virtual nodes each backend places on the ring
REPLICAS = 64


class ConsistentHashRing:
    """Classic consistent hashing with virtual nodes."""

    def __init__(self, nodes: Sequence[str]) -> None:
        if not nodes:
            raise ValueError("ring needs at least one node")
        self._ring: List[int] = []
        self._owner: Dict[int, str] = {}
        for node in nodes:
            self.add_node(node)

    @staticmethod
    def _hash(data: bytes) -> int:
        return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")

    def add_node(self, node: str) -> None:
        for i in range(REPLICAS):
            point = self._hash(f"{node}:{i}".encode())
            if point in self._owner:
                continue
            bisect.insort(self._ring, point)
            self._owner[point] = node

    def node_for(self, key: bytes) -> str:
        if not self._ring:
            raise RuntimeError("empty hash ring")
        point = self._hash(key)
        idx = bisect.bisect(self._ring, point) % len(self._ring)
        return self._owner[self._ring[idx]]


class QuicLbRouter:
    """Routes datagrams to backends by the CID's embedded server ID."""

    def __init__(self, backends: Dict[int, str]) -> None:
        """``backends`` maps server-ID byte -> backend name."""
        if not backends:
            raise ValueError("router needs at least one backend")
        self.backends = dict(backends)
        #: where a DCID without a known server ID goes
        self.ring = ConsistentHashRing(sorted(backends.values()))
        self.routed_by_id = 0
        self.routed_by_hash = 0

    def route(self, dcid: bytes) -> str:
        """Backend for a packet with destination CID ``dcid``."""
        if len(dcid) > SERVER_ID_OFFSET:
            server_id = dcid[SERVER_ID_OFFSET]
            backend = self.backends.get(server_id)
            if backend is not None:
                self.routed_by_id += 1
                return backend
        self.routed_by_hash += 1
        return self.ring.node_for(dcid)
