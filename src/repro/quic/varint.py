"""QUIC variable-length integers (RFC 9000 Sec. 16).

The two high bits of the first byte select a 1/2/4/8-byte encoding,
giving ranges up to 2^6-1, 2^14-1, 2^30-1 and 2^62-1.

Hot-path notes: this module sits under every frame encoded or parsed,
so it avoids per-call allocations where it can.  1-byte varints come
from a precomputed table and the longer forms are one ``to_bytes``
each, reads index straight into the underlying buffer (a
``memoryview`` when the caller provides one, so pulling bytes never
copies), and the write side is a single ``bytearray`` builder instead
of a chunk list.  All of this is invisible on the wire: encodings are
byte-identical to the naive implementation.
"""

from __future__ import annotations

from typing import Tuple, Union

from repro.quic.errors import BufferReadError

VARINT_MAX = (1 << 62) - 1

#: (exclusive upper limit, encoded size)
_RANGES = ((1 << 6, 1), (1 << 14, 2), (1 << 30, 4), (1 << 62, 8))

#: All 1-byte varints, precomputed (the overwhelmingly common case:
#: frame type codes, flags, small lengths).
_ONE_BYTE = tuple(bytes([i]) for i in range(64))


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
    """Decode a varint at ``offset``; returns (value, new_offset)."""
    if offset >= len(data):
        raise BufferReadError("varint truncated: empty buffer")
    first = data[offset]
    size = 1 << (first >> 6)
    if size == 1:
        return first & 0x3F, offset + 1
    end = offset + size
    if end > len(data):
        raise BufferReadError(
            f"varint truncated: need {size} bytes at offset {offset}"
        )
    value = int.from_bytes(data[offset:end], "big") \
        & ((1 << (8 * size - 2)) - 1)
    return value, end


class Buffer:
    """Sequential varint/bytes reader-writer used by frame codecs.

    Reads are zero-copy: the buffer wraps the caller's data in a
    ``memoryview`` and :meth:`pull_bytes` returns slices of it, so a
    decoded STREAM frame's payload references the decrypted packet
    buffer until stream reassembly materializes it.  Writes accumulate
    in one ``bytearray``.
    """

    __slots__ = ("_wbuf", "_init_data", "_read_data", "_pos", "_end")

    def __init__(self, data: Union[bytes, memoryview] = b"") -> None:
        self._init_data = data
        #: write buffer; a reader gets one (a copy) only if written to
        self._wbuf: bytearray = None if data else bytearray()
        self._read_data: Union[bytes, memoryview] = \
            memoryview(data) if data else b""
        self._pos = 0
        self._end = len(data)

    # -- writing --------------------------------------------------------

    def _writer(self) -> bytearray:
        wbuf = self._wbuf
        if wbuf is None:
            wbuf = self._wbuf = bytearray(self._init_data)
        return wbuf

    def push_varint(self, value: int) -> "Buffer":
        wbuf = self._wbuf if self._wbuf is not None else self._writer()
        wbuf += _ONE_BYTE[value] if 0 <= value < 64 else encode_varint(value)
        return self

    def push_bytes(self, data: Union[bytes, memoryview]) -> "Buffer":
        wbuf = self._wbuf if self._wbuf is not None else self._writer()
        wbuf += data
        return self

    def push_uint8(self, value: int) -> "Buffer":
        self._writer().append(value & 0xFF)
        return self

    def getvalue(self) -> bytes:
        if self._wbuf is None:
            return bytes(self._init_data)
        return bytes(self._wbuf)

    # -- reading --------------------------------------------------------

    def pull_varint(self) -> int:
        pos = self._pos
        if pos >= self._end:
            raise BufferReadError("varint truncated: empty buffer")
        first = self._read_data[pos]
        if first < 0x40:  # 1-byte varint
            self._pos = pos + 1
            return first
        size = 1 << (first >> 6)
        end = pos + size
        if end > self._end:
            raise BufferReadError(
                f"varint truncated: need {size} bytes at offset {pos}")
        self._pos = end
        return int.from_bytes(self._read_data[pos:end], "big") \
            & ((1 << (8 * size - 2)) - 1)

    def pull_bytes(self, n: int) -> Union[bytes, memoryview]:
        end = self._pos + n
        if n < 0 or end > self._end:
            raise BufferReadError(f"buffer truncated: need {n} bytes")
        data = self._read_data[self._pos:end]
        self._pos = end
        return data

    def pull_uint8(self) -> int:
        if self._pos >= self._end:
            raise BufferReadError("buffer truncated: need 1 byte")
        value = self._read_data[self._pos]
        self._pos += 1
        return value

    @property
    def remaining(self) -> int:
        return self._end - self._pos
