"""Datagram container carried by the emulated network.

The emulator moves opaque byte payloads; the QUIC layer serializes
packets into ``payload`` and parses them back on arrival.  ``wire_size``
adds UDP/IP overhead so trace-driven links charge realistic bytes.
"""

from __future__ import annotations

import itertools
from typing import Optional

#: UDP + IPv4 header overhead charged per datagram on the wire.
UDP_IP_OVERHEAD = 28

#: Conventional MTU used throughout (Mahimahi charges 1500-byte slots).
MTU = 1500

_dgram_ids = itertools.count(1)


class Datagram:
    """One UDP-like datagram in flight."""

    __slots__ = ("payload", "src", "dst", "path_id", "sent_at", "dgram_id",
                 "tag", "wire_size")

    def __init__(self, payload: bytes, src: str = "", dst: str = "",
                 path_id: int = 0, sent_at: float = 0.0,
                 dgram_id: Optional[int] = None,
                 tag: Optional[str] = None) -> None:
        self.payload = payload
        self.src = src
        self.dst = dst
        self.path_id = path_id
        #: virtual time the sender handed the datagram to the network
        self.sent_at = sent_at
        #: unique id for tracing / debugging
        self.dgram_id = next(_dgram_ids) if dgram_id is None else dgram_id
        #: optional tag for experiment bookkeeping (e.g. "reinjected")
        self.tag = tag
        #: bytes charged on the wire (payload + UDP/IP headers); fixed at
        #: construction -- links read it several times per hop, and
        #: nothing that rewrites a payload changes its length
        self.wire_size = len(payload) + UDP_IP_OVERHEAD

    @property
    def size(self) -> int:
        """Payload size in bytes."""
        return len(self.payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Datagram(id={self.dgram_id}, {self.src}->{self.dst}, "
                f"path={self.path_id}, {self.size}B)")
