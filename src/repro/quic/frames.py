"""QUIC frames, including the XLINK multipath extension frames.

Implemented frames:

- core QUIC: PADDING, PING, ACK, CRYPTO, STREAM, MAX_DATA,
  MAX_STREAM_DATA, NEW_CONNECTION_ID, PATH_CHALLENGE, PATH_RESPONSE,
  CONNECTION_CLOSE
- multipath extension (draft-liu-multipath-quic-02 as used by XLINK):
  ACK_MP (with the deployed XLINK variant carrying a QoE control
  signal field -- Sec. 4 / Appendix C) and PATH_STATUS.  The draft's
  standalone QOE_CONTROL_SIGNALS frame is not built.

Every frame serializes to bytes and parses back; the connection layer
only ever exchanges serialized packets.

What the stack sends: PING, CRYPTO, STREAM, MAX_DATA, MAX_STREAM_DATA,
NEW_CONNECTION_ID, PATH_CHALLENGE, PATH_RESPONSE, CONNECTION_CLOSE,
ACK_MP with the QoE field on it, and PATH_STATUS Abandon; a receiver
decodes PATH_STATUS Standby / Available but acts on Abandon only.
PADDING and single-space ACK are decoded and ignored.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial
from typing import List, NamedTuple, Optional, Tuple

from repro.quic.cid import CID_LENGTH
from repro.quic.errors import FrameEncodingError
from repro.quic.varint import decode_varint
from repro.quic.varint import encode_varint as _varint


class FrameType(enum.IntEnum):
    """Wire type codes.  Extension codes follow the draft's registry."""

    PADDING = 0x00
    PING = 0x01
    ACK = 0x02
    CRYPTO = 0x06
    MAX_DATA = 0x10
    MAX_STREAM_DATA = 0x11
    STREAM = 0x08            # base; 0x08..0x0f with OFF/LEN/FIN bits
    NEW_CONNECTION_ID = 0x18
    PATH_CHALLENGE = 0x1A
    PATH_RESPONSE = 0x1B
    CONNECTION_CLOSE = 0x1C
    # Multipath extension frames:
    ACK_MP = 0xBABA00
    PATH_STATUS = 0xBABA01


class PathStatus(enum.IntEnum):
    """PATH_STATUS values (Sec. 6): Abandon, Standby, Available."""

    ABANDON = 0
    STANDBY = 1
    AVAILABLE = 2


class AckRange(namedtuple("AckRange", "start end")):
    """Inclusive packet-number range [start, end]: a 2-tuple with names,
    so ranges compare, hash and unpack in C, and a plain ``(start, end)``
    is accepted wherever one is read."""

    __slots__ = ()

    def __new__(cls, start: int, end: int) -> "AckRange":
        if start > end or start < 0:
            raise ValueError(f"bad ack range [{start}, {end}]")
        return tuple.__new__(cls, (start, end))


#: ``make_range((start, end))``, for bounds the caller has just computed
#: and knows to satisfy ``0 <= start <= end``
make_range = partial(tuple.__new__, AckRange)


class QoeSignals(NamedTuple):
    """The four QoE feedback signals the Taobao client reports (Sec. 5.2).

    Units: bytes, frames, bits/s, frames/s.  On the wire: four varints
    in this order.
    """

    cached_bytes: int = 0
    cached_frames: int = 0
    bps: int = 0
    fps: int = 0

    def play_time_left(self) -> float:
        """Conservative play-time-left estimate Δt (Alg. 1 step 1).

        Uses the min of the frames/fps and bytes/bps quotients when
        both are available ("look at both the bit-rate and the
        frame-rate ... a more conservative estimate").
        """
        candidates = []
        if self.fps > 0:
            candidates.append(self.cached_frames / self.fps)
        if self.bps > 0:
            candidates.append(self.cached_bytes * 8.0 / self.bps)
        if not candidates:
            return 0.0
        return min(candidates)


# ---------------------------------------------------------------------------
# frame dataclasses
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PaddingFrame:
    length: int = 1


@dataclass(frozen=True, slots=True)
class PingFrame:
    pass


@dataclass(frozen=True, slots=True)
class AckFrame:
    """Single-space ACK used before multipath negotiation completes."""

    largest_acked: int
    ack_delay_us: int
    ranges: Tuple[AckRange, ...]


#: most an ACK_MP can take around its gap/length pairs: type (4), path
#: id (8), QoE flag (1), largest (8), delay (8), range count (8), first
#: range (8), four QoE varints (32)
ACK_MP_FIXED_MAX = 77


@dataclass(slots=True)
class AckMpFrame:
    """Multipath ACK: per-path ack ranges + XLINK QoE field.

    ``path_id`` is the sequence number of the CID the *acknowledging
    packets' receiver* used on that path (the draft's path
    identifier).  ``qoe`` is the XLINK deployment's extra field; it is
    optional on the wire (flag bit).

    ``ranges`` alone describes the frame, in any order.  With
    ``older_wire`` (:meth:`repro.quic.path.Path.ack_ranges`) they are
    ascending and the gap/length pairs of all but the newest are
    already encoded: the encoder copies them.
    """

    path_id: int
    largest_acked: int
    ack_delay_us: int
    ranges: Tuple[AckRange, ...]
    qoe: Optional[QoeSignals] = None
    older_wire: Optional[bytes] = field(default=None, compare=False)

    def wire_budget(self) -> int:
        """Upper bound on the encoded length, without encoding."""
        if self.older_wire is not None:
            return ACK_MP_FIXED_MAX + len(self.older_wire)
        return ACK_MP_FIXED_MAX + 16 * (len(self.ranges) - 1)


@dataclass(frozen=True, slots=True)
class CryptoFrame:
    offset: int
    data: bytes


@dataclass(slots=True)
class StreamFrame:
    stream_id: int
    offset: int
    data: bytes
    fin: bool = False


@dataclass(frozen=True, slots=True)
class MaxDataFrame:
    maximum: int


@dataclass(frozen=True, slots=True)
class MaxStreamDataFrame:
    stream_id: int
    maximum: int


@dataclass(frozen=True, slots=True)
class NewConnectionIdFrame:
    sequence_number: int
    cid: bytes
    retire_prior_to: int = 0


@dataclass(frozen=True, slots=True)
class PathChallengeFrame:
    data: bytes  # 8 bytes

    def __post_init__(self) -> None:
        if len(self.data) != 8:
            raise ValueError("PATH_CHALLENGE data must be 8 bytes")


@dataclass(frozen=True, slots=True)
class PathResponseFrame:
    data: bytes  # 8 bytes

    def __post_init__(self) -> None:
        if len(self.data) != 8:
            raise ValueError("PATH_RESPONSE data must be 8 bytes")


@dataclass(frozen=True, slots=True)
class ConnectionCloseFrame:
    error_code: int
    reason: str = ""


@dataclass(frozen=True, slots=True)
class PathStatusFrame:
    """Informs the peer of a path's status (Abandon/Standby/Available)."""

    path_id: int
    status: PathStatus
    status_seq: int = 0


# ---------------------------------------------------------------------------
# encoding: one function per frame type, frame -> bytes
# ---------------------------------------------------------------------------

_PING = _varint(FrameType.PING)
_ACK = _varint(FrameType.ACK)
_ACK_MP = _varint(FrameType.ACK_MP)
_CRYPTO = _varint(FrameType.CRYPTO)
#: STREAM always carries the OFF and LEN bits; indexed by ``fin``
_STREAM = (_varint(FrameType.STREAM | 0x06), _varint(FrameType.STREAM | 0x07))
_MAX_DATA = _varint(FrameType.MAX_DATA)
_MAX_STREAM_DATA = _varint(FrameType.MAX_STREAM_DATA)
_NEW_CONNECTION_ID = _varint(FrameType.NEW_CONNECTION_ID)
_PATH_CHALLENGE = _varint(FrameType.PATH_CHALLENGE)
_PATH_RESPONSE = _varint(FrameType.PATH_RESPONSE)
_CONNECTION_CLOSE = _varint(FrameType.CONNECTION_CLOSE)
_PATH_STATUS = _varint(FrameType.PATH_STATUS)
_NO_QOE, _HAS_QOE = _varint(0), _varint(1)
#: the types the decoder meets on nearly every packet, as plain ints:
#: STREAM with any of its OFF / LEN / FIN bits, and ACK_MP
_STREAM_FIRST, _STREAM_LAST = int(FrameType.STREAM), FrameType.STREAM | 0x07
_ACK_MP_TYPE = int(FrameType.ACK_MP)


def ack_pairs_wire(ranges) -> bytes:
    """The gap/length pairs (RFC 9000 Sec. 19.3.1) that follow
    ``ranges[0]`` on the wire, for ``ranges`` newest first."""
    pairs = []
    for above, (start, end) in zip(ranges, ranges[1:]):
        if above[0] - end < 2:
            raise FrameEncodingError("overlapping ack ranges")
        pairs.append(_varint(above[0] - end - 2) + _varint(end - start))
    return b"".join(pairs)


def _ack_ranges_wire(largest: int, ranges: tuple,
                     older_wire: Optional[bytes] = None) -> bytes:
    """ACK range encoding per RFC 9000: first range + gap/length pairs."""
    if older_wire is None:
        ordered = sorted(ranges, key=lambda r: r[1], reverse=True)
        newest = ordered[0] if ordered else None
        older_wire = ack_pairs_wire(ordered)
    else:
        newest = ranges[-1]
    if newest is None or newest[1] != largest:
        raise FrameEncodingError("largest_acked must end the first range")
    return _varint(len(ranges) - 1) + _varint(largest - newest[0]) \
        + older_wire


def _enc_padding(frame: PaddingFrame) -> bytes:
    return b"\x00" * frame.length


def _enc_ping(frame: PingFrame) -> bytes:
    return _PING


def _enc_ack(frame: AckFrame) -> bytes:
    largest = frame.largest_acked
    return _ACK + _varint(largest) + _varint(frame.ack_delay_us) \
        + _ack_ranges_wire(largest, frame.ranges)


def _enc_ack_mp(frame: AckMpFrame) -> bytes:
    largest = frame.largest_acked
    qoe = frame.qoe
    wire = _ACK_MP + _varint(frame.path_id) \
        + (_NO_QOE if qoe is None else _HAS_QOE) \
        + _varint(largest) + _varint(frame.ack_delay_us) \
        + _ack_ranges_wire(largest, frame.ranges, frame.older_wire)
    if qoe is None:
        return wire
    return wire + _varint(qoe[0]) + _varint(qoe[1]) + _varint(qoe[2]) \
        + _varint(qoe[3])


def _enc_crypto(frame: CryptoFrame) -> bytes:
    data = frame.data
    return _CRYPTO + _varint(frame.offset) + _varint(len(data)) + data


def _enc_stream(frame: StreamFrame) -> bytes:
    data = frame.data
    return _STREAM[frame.fin] + _varint(frame.stream_id) \
        + _varint(frame.offset) + _varint(len(data)) + data


def _enc_max_data(frame: MaxDataFrame) -> bytes:
    return _MAX_DATA + _varint(frame.maximum)


def _enc_max_stream_data(frame: MaxStreamDataFrame) -> bytes:
    return _MAX_STREAM_DATA + _varint(frame.stream_id) \
        + _varint(frame.maximum)


def _enc_new_cid(frame: NewConnectionIdFrame) -> bytes:
    cid = frame.cid
    if not 1 <= len(cid) <= 20:  # RFC 9000 Sec. 19.15; one length byte
        raise FrameEncodingError(f"CID length {len(cid)} not in 1..20")
    return _NEW_CONNECTION_ID + _varint(frame.sequence_number) \
        + _varint(frame.retire_prior_to) + bytes((len(cid),)) + cid


def _enc_path_challenge(frame: PathChallengeFrame) -> bytes:
    return _PATH_CHALLENGE + frame.data


def _enc_path_response(frame: PathResponseFrame) -> bytes:
    return _PATH_RESPONSE + frame.data


def _enc_close(frame: ConnectionCloseFrame) -> bytes:
    reason = frame.reason.encode()
    return _CONNECTION_CLOSE + _varint(frame.error_code) \
        + _varint(len(reason)) + reason


def _enc_path_status(frame: PathStatusFrame) -> bytes:
    return _PATH_STATUS + _varint(frame.path_id) \
        + _varint(frame.status_seq) + _varint(frame.status)


#: exact-type dispatch: one dict lookup per frame
_FRAME_ENCODERS = {
    PaddingFrame: _enc_padding,
    PingFrame: _enc_ping,
    AckFrame: _enc_ack,
    AckMpFrame: _enc_ack_mp,
    CryptoFrame: _enc_crypto,
    StreamFrame: _enc_stream,
    MaxDataFrame: _enc_max_data,
    MaxStreamDataFrame: _enc_max_stream_data,
    NewConnectionIdFrame: _enc_new_cid,
    PathChallengeFrame: _enc_path_challenge,
    PathResponseFrame: _enc_path_response,
    ConnectionCloseFrame: _enc_close,
    PathStatusFrame: _enc_path_status,
}


def encode_frames(frames: List[object]) -> bytes:
    """Serialize a frame sequence into one contiguous payload."""
    encoders = _FRAME_ENCODERS
    pieces = []
    for frame in frames:
        try:
            encoder = encoders[type(frame)]
        except KeyError:
            raise FrameEncodingError(
                f"cannot encode {type(frame).__name__}") from None
        pieces.append(encoder(frame))
    return b"".join(pieces)


# ---------------------------------------------------------------------------
# decoding: one loop over one view of the payload, by index
# ---------------------------------------------------------------------------

#: The decoder's one memo.  A lossy path's permanent gaps repeat in
#: every ACK_MP and only the ranges at the top change: ``(start of the
#: range above, pairs that follow)`` -> ``(those pairs' bytes, their
#: ranges)``, stored per frame for the pairs after its first range and
#: probed before each pair is read, so a frame costs the pairs above
#: the newest suffix seen before.  A hit counts only if the frame's
#: bytes equal the stored ones, whichever connection stored them.
_ACK_DECODE_MEMO: dict = {}
_ACK_DECODE_MEMO_MAX = 256


def _decode_ack_ranges(data: memoryview, pos: int,
                       largest: int) -> Tuple[Tuple[AckRange, ...], int]:
    """The ranges of an ACK (newest first) whose range count is at
    ``pos``, and the offset after them."""
    count, pos = decode_varint(data, pos)
    # Each additional range needs at least two varint bytes; a count
    # beyond that is a malformed (or hostile) frame, not a big ACK.
    if count * 2 > len(data) - pos:
        raise FrameEncodingError(f"ack range count {count} exceeds payload")
    first_len, pos = decode_varint(data, pos)
    start = largest - first_len
    first = make_range((start, largest))
    if count == 0 and start >= 0:
        return (first,), pos
    key = (start, count)
    pairs_from = pos
    fresh = []
    older: tuple = ()
    for left in range(count, 0, -1):
        entry = _ACK_DECODE_MEMO.get((start, left))
        if entry is not None:
            stop = pos + len(entry[0])
            if data[pos:stop] == entry[0]:
                pos = stop
                older = entry[1]
                break
        gap, pos = decode_varint(data, pos)
        length, pos = decode_varint(data, pos)
        end = start - gap - 2
        start = end - length
        fresh.append(make_range((start, end)))
    # Starts only fall, and a memo key was a valid start already.
    if start < 0:
        raise FrameEncodingError(f"bad ack range: it starts at {start}")
    if fresh:
        older = tuple(fresh) + older
        if len(_ACK_DECODE_MEMO) >= _ACK_DECODE_MEMO_MAX:
            _ACK_DECODE_MEMO.clear()
        _ACK_DECODE_MEMO[key] = (bytes(data[pairs_from:pos]), older)
    return (first,) + older, pos


_make_qoe = partial(tuple.__new__, QoeSignals)


def _take(data: memoryview, pos: int, n: int) -> Tuple[memoryview, int]:
    """The ``n`` bytes at ``pos`` (a view of ``data``) and the offset
    after them."""
    end = pos + n
    if end > len(data):
        raise FrameEncodingError(f"frame truncated: need {n} bytes")
    return data[pos:end], end


def decode_frames(payload) -> List[object]:
    """Parse a packet payload into a list of frames.

    Accepts any bytes-like payload; the receive path hands a
    ``memoryview`` of the decrypted packet, and STREAM/CRYPTO data
    fields stay views of it (zero-copy) until stream reassembly
    materializes them.  Small fields that outlive the datagram --
    NEW_CONNECTION_ID CIDs, path challenge tokens, close reasons --
    are materialized as ``bytes`` here.

    Malformed input always surfaces as :class:`FrameEncodingError`
    (never a bare ``ValueError`` or ``IndexError``), so the connection
    can map any parse failure to a clean FRAME_ENCODING_ERROR close.
    A read past the end of the payload is caught here once, not tested
    for before every byte.
    """
    data = memoryview(payload)
    size = len(data)
    pos = 0
    frames: List[object] = []
    try:
        while pos < size:
            frame_type = data[pos]
            if frame_type < 0x40:  # the one-byte varint, read in place
                pos += 1
            else:
                frame_type, pos = decode_varint(data, pos)
            if _STREAM_FIRST <= frame_type <= _STREAM_LAST:
                stream_id = data[pos]
                if stream_id < 0x40:
                    pos += 1
                else:
                    stream_id, pos = decode_varint(data, pos)
                offset = 0
                if frame_type & 0x04:
                    offset, pos = decode_varint(data, pos)
                length = size - pos
                if frame_type & 0x02:
                    length, pos = decode_varint(data, pos)
                end = pos + length
                if end > size:
                    raise FrameEncodingError("STREAM data truncated")
                frames.append(StreamFrame(stream_id, offset, data[pos:end],
                                          (frame_type & 0x01) == 1))
                pos = end
            elif frame_type == _ACK_MP_TYPE:
                path_id = data[pos]
                if path_id < 0x40:
                    pos += 1
                else:
                    path_id, pos = decode_varint(data, pos)
                flags, pos = decode_varint(data, pos)
                largest, pos = decode_varint(data, pos)
                delay, pos = decode_varint(data, pos)
                ranges, pos = _decode_ack_ranges(data, pos, largest)
                qoe = None
                if flags & 1:
                    cached_bytes, pos = decode_varint(data, pos)
                    cached_frames, pos = decode_varint(data, pos)
                    bps, pos = decode_varint(data, pos)
                    fps, pos = decode_varint(data, pos)
                    qoe = _make_qoe((cached_bytes, cached_frames, bps, fps))
                frames.append(AckMpFrame(path_id, largest, delay, ranges,
                                         qoe))
            elif frame_type == FrameType.PADDING:
                continue
            elif frame_type == FrameType.PING:
                frames.append(PingFrame())
            elif frame_type == FrameType.ACK:
                largest, pos = decode_varint(data, pos)
                delay, pos = decode_varint(data, pos)
                ranges, pos = _decode_ack_ranges(data, pos, largest)
                frames.append(AckFrame(largest, delay, ranges))
            elif frame_type == FrameType.CRYPTO:
                offset, pos = decode_varint(data, pos)
                length, pos = decode_varint(data, pos)
                chunk, pos = _take(data, pos, length)
                frames.append(CryptoFrame(offset, chunk))
            elif frame_type == FrameType.MAX_DATA:
                maximum, pos = decode_varint(data, pos)
                frames.append(MaxDataFrame(maximum))
            elif frame_type == FrameType.MAX_STREAM_DATA:
                stream_id, pos = decode_varint(data, pos)
                maximum, pos = decode_varint(data, pos)
                frames.append(MaxStreamDataFrame(stream_id, maximum))
            elif frame_type == FrameType.NEW_CONNECTION_ID:
                seq, pos = decode_varint(data, pos)
                retire, pos = decode_varint(data, pos)
                cid_len = data[pos]
                if cid_len != CID_LENGTH:  # RFC 9000 allows 1..20
                    raise FrameEncodingError(
                        f"CID length {cid_len}: this stack speaks "
                        f"{CID_LENGTH}-byte CIDs")
                cid, pos = _take(data, pos + 1, cid_len)
                frames.append(NewConnectionIdFrame(seq, bytes(cid), retire))
            elif frame_type == FrameType.PATH_CHALLENGE:
                token, pos = _take(data, pos, 8)
                frames.append(PathChallengeFrame(bytes(token)))
            elif frame_type == FrameType.PATH_RESPONSE:
                token, pos = _take(data, pos, 8)
                frames.append(PathResponseFrame(bytes(token)))
            elif frame_type == FrameType.CONNECTION_CLOSE:
                code, pos = decode_varint(data, pos)
                length, pos = decode_varint(data, pos)
                reason, pos = _take(data, pos, length)
                frames.append(ConnectionCloseFrame(code,
                                                   bytes(reason).decode()))
            elif frame_type == FrameType.PATH_STATUS:
                path_id, pos = decode_varint(data, pos)
                status_seq, pos = decode_varint(data, pos)
                status, pos = decode_varint(data, pos)
                frames.append(PathStatusFrame(path_id, PathStatus(status),
                                              status_seq))
            else:
                raise FrameEncodingError(
                    f"unknown frame type 0x{frame_type:x}")
    except FrameEncodingError:
        raise
    except (IndexError, ValueError, OverflowError) as exc:
        raise FrameEncodingError(f"malformed frame: {exc}") from exc
    return frames


#: Every frame type -> whether it is "ack-eliciting" (RFC 9002):
#: everything except ACK, ACK_MP, CONNECTION_CLOSE and PADDING.  The
#: send and receive paths index this by ``type(frame)``.
ACK_ELICITING = {frame_type: frame_type not in (
    AckFrame, AckMpFrame, ConnectionCloseFrame, PaddingFrame)
    for frame_type in _FRAME_ENCODERS}
