"""Transport parameters exchanged during the handshake.

The multipath handshake (Sec. 6, Fig. 9) is plain QUIC plus one extra
parameter: the client offers ``enable_multipath``; if the server echoes
it, both ends know multipath is on, otherwise they fall back to
single-path QUIC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.quic.rtt import MAX_ACK_DELAY
from repro.quic.varint import decode_varint, encode_varint


@dataclass(frozen=True)
class TransportParameters:
    """Handshake-advertised limits and capabilities."""

    enable_multipath: bool = False
    initial_max_data: int = 16 * 1024 * 1024
    initial_max_stream_data: int = 4 * 1024 * 1024
    initial_max_streams: int = 128
    max_ack_delay_us: int = round(MAX_ACK_DELAY * 1_000_000)
    active_cid_limit: int = 8

    def encode(self) -> bytes:
        return b"".join(map(encode_varint, (
            1 if self.enable_multipath else 0,
            self.initial_max_data,
            self.initial_max_stream_data,
            self.initial_max_streams,
            self.max_ack_delay_us,
            self.active_cid_limit)))

    @classmethod
    def decode(cls, data: bytes) -> "TransportParameters":
        multipath, pos = decode_varint(data, 0)
        max_data, pos = decode_varint(data, pos)
        max_stream_data, pos = decode_varint(data, pos)
        max_streams, pos = decode_varint(data, pos)
        max_ack_delay_us, pos = decode_varint(data, pos)
        active_cid_limit, pos = decode_varint(data, pos)
        return cls(
            enable_multipath=bool(multipath),
            initial_max_data=max_data,
            initial_max_stream_data=max_stream_data,
            initial_max_streams=max_streams,
            max_ack_delay_us=max_ack_delay_us,
            active_cid_limit=active_cid_limit,
        )

    @staticmethod
    def negotiated_multipath(client: "TransportParameters",
                             server: "TransportParameters") -> bool:
        """Multipath is on only when both sides advertised it."""
        return client.enable_multipath and server.enable_multipath
