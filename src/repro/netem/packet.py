"""Datagram container carried by the emulated network.

The emulator moves opaque byte payloads; the QUIC layer serializes
packets into ``payload`` and parses them back on arrival.  ``wire_size``
adds UDP/IP overhead so trace-driven links charge realistic bytes.
"""

from __future__ import annotations

#: UDP + IPv4 header overhead charged per datagram on the wire.
UDP_IP_OVERHEAD = 28

#: Conventional MTU used throughout (Mahimahi charges 1500-byte slots).
MTU = 1500


class Datagram:
    """One UDP-like datagram in flight."""

    __slots__ = ("payload", "src", "dst", "path_id", "wire_size")

    def __init__(self, payload: bytes, src: str = "", dst: str = "",
                 path_id: int = 0) -> None:
        self.payload = payload
        self.src = src
        self.dst = dst
        self.path_id = path_id
        #: bytes charged on the wire (payload + UDP/IP headers); fixed at
        #: construction -- links read it several times per hop, and
        #: nothing that rewrites a payload changes its length
        self.wire_size = len(payload) + UDP_IP_OVERHEAD

    @property
    def size(self) -> int:
        """Payload size in bytes."""
        return len(self.payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Datagram({self.src}->{self.dst}, path={self.path_id}, "
                f"{self.size}B)")
