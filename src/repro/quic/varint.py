"""QUIC variable-length integers (RFC 9000 Sec. 16).

The two high bits of the first byte select a 1/2/4/8-byte encoding,
giving ranges up to 2^6-1, 2^14-1, 2^30-1 and 2^62-1.

This module sits under every frame encoded or parsed.  Encoding is one
table lookup or one ``to_bytes``; decoding takes ``(data, offset)`` and
returns ``(value, new_offset)``, so a codec walks its buffer (``bytes``
or a ``memoryview``, never copied) by index and keeps no reader object.
A codec on the per-packet path reads the one-byte form -- frame types,
small ids -- in place (``data[pos] < 0x40``) and calls
:func:`decode_varint` for the rest.
"""

from __future__ import annotations

import struct
from typing import Tuple, Union

from repro.quic.errors import BufferReadError

VARINT_MAX = (1 << 62) - 1

#: (exclusive upper limit, encoded size)
_RANGES = ((1 << 6, 1), (1 << 14, 2), (1 << 30, 4), (1 << 62, 8))

#: All 1-byte varints, precomputed (the overwhelmingly common case:
#: frame type codes, flags, small lengths).
_ONE_BYTE = tuple(bytes([i]) for i in range(64))

_U32 = struct.Struct(">I").unpack_from
_U64 = struct.Struct(">Q").unpack_from


def varint_size(value: int) -> int:
    """Bytes needed to encode ``value``."""
    if value < 0 or value > VARINT_MAX:
        raise ValueError(f"varint out of range: {value}")
    for limit, size in _RANGES:
        if value < limit:
            return size
    raise AssertionError("unreachable")


def encode_varint(value: int) -> bytes:
    """Encode ``value`` as a QUIC varint."""
    if 0 <= value < 64:
        return _ONE_BYTE[value]
    if value < 0 or value > VARINT_MAX:
        raise ValueError(f"varint out of range: {value}")
    if value < 1 << 14:
        return (value | 0x4000).to_bytes(2, "big")
    if value < 1 << 30:
        return (value | 0x80000000).to_bytes(4, "big")
    return (value | 0xC000000000000000).to_bytes(8, "big")


def decode_varint(data: Union[bytes, memoryview],
                  offset: int = 0) -> Tuple[int, int]:
    """Decode a varint at ``offset``; returns (value, new_offset).

    The reads themselves find the end of ``data``: running off it is
    :class:`BufferReadError`, with no length test on the way.
    """
    try:
        first = data[offset]
        if first < 0x40:
            return first, offset + 1
        if first < 0x80:
            return (first & 0x3F) << 8 | data[offset + 1], offset + 2
        if first < 0xC0:
            return _U32(data, offset)[0] & 0x3FFFFFFF, offset + 4
        return _U64(data, offset)[0] & VARINT_MAX, offset + 8
    except (IndexError, struct.error):
        raise BufferReadError(
            f"varint truncated at offset {offset}") from None
