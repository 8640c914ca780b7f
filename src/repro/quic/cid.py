"""Connection IDs.

In the XLINK multipath design, a path is identified by the *sequence
number* of the connection ID in use on it (Sec. 6).  Each endpoint
issues CIDs via ``NEW_CONNECTION_ID``; opening path N requires an
unused CID from the peer.  CIDs also carry a server-ID byte so the
QUIC-LB load balancer (``repro.lb``) can route all paths of one
connection to the same backend.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.quic.errors import ProtocolViolation

CID_LENGTH = 8

#: Byte offset in the CID where the server encodes its ID for QUIC-LB.
SERVER_ID_OFFSET = 0


@dataclass(frozen=True)
class ConnectionId:
    """A connection ID with its sequence number."""

    cid: bytes
    sequence_number: int

    def __post_init__(self) -> None:
        if len(self.cid) != CID_LENGTH:
            raise ValueError(f"CID must be {CID_LENGTH} bytes")


def generate_cid(rng: random.Random, sequence_number: int,
                 server_id: Optional[int] = None) -> ConnectionId:
    """Generate a random CID, optionally embedding a server ID byte."""
    body = bytes(rng.getrandbits(8) for _ in range(CID_LENGTH))
    if server_id is not None:
        if not 0 <= server_id <= 255:
            raise ValueError("server_id must fit one byte")
        body = bytes([server_id]) + body[1:]
    return ConnectionId(cid=body, sequence_number=sequence_number)


class CidRegistry:
    """Tracks CIDs issued by an endpoint and CIDs received from the peer."""

    def __init__(self, rng: random.Random,
                 server_id: Optional[int] = None) -> None:
        self._rng = rng
        self._server_id = server_id
        self._next_seq = 0
        self.issued: Dict[int, ConnectionId] = {}
        #: the same CIDs by raw bytes, for receiver demux
        self._issued_by_bytes: Dict[bytes, ConnectionId] = {}
        self.peer_cids: Dict[int, ConnectionId] = {}

    def issue(self) -> ConnectionId:
        """Mint a new local CID with the next sequence number."""
        cid = generate_cid(self._rng, self._next_seq, self._server_id)
        self.issued[self._next_seq] = cid
        self._issued_by_bytes.setdefault(cid.cid, cid)
        self._next_seq += 1
        return cid

    def register_peer(self, cid: ConnectionId) -> None:
        """Record a CID the peer issued to us.

        A sequence number reissued with a different CID is the peer's
        protocol violation (RFC 9000 Sec. 19.15): a :class:`QuicError`,
        so the receiver closes with its code instead of letting a
        stdlib exception out through the event loop.
        """
        existing = self.peer_cids.get(cid.sequence_number)
        if existing is not None and existing.cid != cid.cid:
            raise ProtocolViolation(
                f"peer reissued sequence {cid.sequence_number} with a "
                f"different CID"
            )
        self.peer_cids[cid.sequence_number] = cid

    def lookup_issued(self, cid_bytes: bytes) -> Optional[ConnectionId]:
        """Find one of *our* issued CIDs by raw bytes (receiver demux)."""
        return self._issued_by_bytes.get(cid_bytes)
