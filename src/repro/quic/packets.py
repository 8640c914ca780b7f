"""Packet header encode/decode.

XLINK keeps QUIC's packet header formats unchanged so middleboxes see
ordinary QUIC (Sec. 6, design point 2).  We use two header forms:

- a *long header* for handshake packets (carries both CIDs), and
- a *short header* for 1-RTT packets: flags byte, DCID, and a 4-byte
  truncated packet number (we always encode 4 bytes for simplicity --
  legal in QUIC, which permits 1-4).

The receiver identifies the path from the DCID (whose sequence number
is the path identifier) and reconstructs the full 62-bit packet number
from the truncated field and the largest packet number seen on that
path.
"""

from __future__ import annotations

import enum
import struct
from functools import partial
from typing import NamedTuple, Optional, Tuple

from repro.quic.cid import CID_LENGTH
from repro.quic.errors import ProtocolViolation

PN_TRUNC_BYTES = 4
PN_TRUNC_MOD = 1 << (8 * PN_TRUNC_BYTES)

#: the ``PN_TRUNC_BYTES``-wide packet number field
_PN_FIELD = struct.Struct(">I")

#: short header layout: flags byte, DCID, truncated packet number
_SHORT_DCID_END = 1 + CID_LENGTH
_SHORT_HEADER_SIZE = _SHORT_DCID_END + PN_TRUNC_BYTES


class PacketType(enum.Enum):
    HANDSHAKE = "handshake"
    ONE_RTT = "1rtt"


class PacketHeader(NamedTuple):
    packet_type: PacketType
    dcid: bytes
    scid: Optional[bytes] = None  # long header only
    truncated_pn: int = 0


#: ``_make_header((type, dcid, scid, pn))``: the decoder's constructor,
#: one C call per datagram
_make_header = partial(tuple.__new__, PacketHeader)


def encode_header(header: PacketHeader) -> bytes:
    """Serialize a packet header (also used as AEAD associated data)."""
    if header.packet_type is PacketType.HANDSHAKE:
        if header.scid is None:
            raise ProtocolViolation("long header requires SCID")
        out = bytearray([0xC0])  # long header form, fixed bit
        out.append(len(header.dcid))
        out.extend(header.dcid)
        out.append(len(header.scid))
        out.extend(header.scid)
    else:
        out = bytearray([0x40])  # short header form, fixed bit
        out.extend(header.dcid)
    out.extend((header.truncated_pn % PN_TRUNC_MOD).to_bytes(
        PN_TRUNC_BYTES, "big"))
    return bytes(out)


def encode_short_header(dcid: bytes, truncated_pn: int) -> bytes:
    """1-RTT header without building a ``PacketHeader``.

    Byte-identical to ``encode_header(PacketHeader(ONE_RTT, dcid,
    truncated_pn=pn))``; the send loop calls this once per packet.
    """
    return b"\x40" + dcid + (truncated_pn % PN_TRUNC_MOD).to_bytes(
        PN_TRUNC_BYTES, "big")


def decode_header(data) -> Tuple[PacketHeader, int]:
    """Parse a header; returns (header, payload_offset).

    Accepts any bytes-like object.  CIDs are materialized as
    ``bytes``: they key long-lived routing tables in the server host
    and LB frontend, and a view would pin the whole datagram alive.
    """
    size = len(data)
    if not size:
        raise ProtocolViolation("empty packet")
    if data[0] & 0x80:  # long header
        pos = 1
        if pos >= size:
            raise ProtocolViolation("truncated long header")
        dcid_len = data[pos]
        pos += 1
        dcid = bytes(data[pos:pos + dcid_len])
        pos += dcid_len
        if pos >= size:
            raise ProtocolViolation("truncated long header")
        scid_len = data[pos]
        pos += 1
        scid = bytes(data[pos:pos + scid_len])
        pos += scid_len
        if pos > size:
            raise ProtocolViolation("truncated long header")
        if pos + PN_TRUNC_BYTES > size:
            raise ProtocolViolation("truncated packet number")
        pn, = _PN_FIELD.unpack_from(data, pos)
        return _make_header((PacketType.HANDSHAKE, dcid, scid,
                             pn)), pos + PN_TRUNC_BYTES
    # short header: fixed-length DCID
    if size < _SHORT_DCID_END:
        raise ProtocolViolation("truncated short header")
    if size < _SHORT_HEADER_SIZE:
        raise ProtocolViolation("truncated packet number")
    pn, = _PN_FIELD.unpack_from(data, _SHORT_DCID_END)
    return _make_header((PacketType.ONE_RTT, bytes(data[1:_SHORT_DCID_END]),
                         None, pn)), _SHORT_HEADER_SIZE


def peek_dcid(data) -> Optional[bytes]:
    """The DCID of a *short-header* packet, without parsing the rest.

    What a load balancer or host needs to route a 1-RTT datagram: the
    8 bytes after the flags byte.  Returns ``None`` for a long header
    (the handshake needs the full :func:`decode_header`); raises
    :class:`ProtocolViolation` on exactly the inputs ``decode_header``
    rejects, so drop accounting does not depend on which one ran.
    """
    size = len(data)
    if not size:
        raise ProtocolViolation("empty packet")
    if data[0] & 0x80:
        return None
    if size < _SHORT_HEADER_SIZE:
        raise ProtocolViolation("truncated short header")
    return bytes(data[1:_SHORT_DCID_END])


def reconstruct_pn(truncated: int, largest_seen: int) -> int:
    """Recover the full packet number from its 4-byte truncation.

    Picks the candidate closest to ``largest_seen + 1`` (RFC 9000
    Appendix A semantics, fixed 32-bit window).
    """
    expected = largest_seen + 1
    candidate = (expected & ~(PN_TRUNC_MOD - 1)) | truncated
    if candidate + PN_TRUNC_MOD // 2 <= expected:
        candidate += PN_TRUNC_MOD
    elif candidate > expected + PN_TRUNC_MOD // 2 and candidate >= PN_TRUNC_MOD:
        candidate -= PN_TRUNC_MOD
    return candidate
