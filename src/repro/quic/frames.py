"""QUIC frames, including the XLINK multipath extension frames.

Implemented frames:

- core QUIC: PADDING, PING, ACK, CRYPTO, STREAM, MAX_DATA,
  MAX_STREAM_DATA, NEW_CONNECTION_ID, PATH_CHALLENGE, PATH_RESPONSE,
  CONNECTION_CLOSE
- multipath extension (draft-liu-multipath-quic-02 as used by XLINK):
  ACK_MP (with the deployed XLINK variant carrying a QoE control
  signal field -- Sec. 4 / Appendix C), PATH_STATUS, and the draft's
  standalone QOE_CONTROL_SIGNALS frame.

Every frame serializes to bytes and parses back; the connection layer
only ever exchanges serialized packets.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Tuple

from repro.quic.errors import FrameEncodingError
from repro.quic.varint import Buffer, encode_varint


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
    QOE_CONTROL_SIGNALS = 0xBABA02


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


@dataclass(frozen=True, slots=True)
class QoeSignals:
    """The four QoE feedback signals the Taobao client reports (Sec. 5.2).

    Units: bytes, frames, bits/s, frames/s.  ``fetch_complete`` is not
    in the paper's list but the deployed system needs a way to signal
    "no outstanding request"; we encode it in a flags varint.
    """

    cached_bytes: int = 0
    cached_frames: int = 0
    bps: int = 0
    fps: int = 0

    def encode(self, buf: Buffer) -> None:
        buf.push_varint(self.cached_bytes)
        buf.push_varint(self.cached_frames)
        buf.push_varint(self.bps)
        buf.push_varint(self.fps)

    @classmethod
    def decode(cls, buf: Buffer) -> "QoeSignals":
        return cls(cached_bytes=buf.pull_varint(),
                   cached_frames=buf.pull_varint(),
                   bps=buf.pull_varint(),
                   fps=buf.pull_varint())

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


@dataclass(frozen=True, slots=True)
class QoeControlSignalsFrame:
    """The draft's standalone QoE frame, decoupled from ACK frequency."""

    qoe: QoeSignals


Frame = object  # frames are plain dataclasses; this alias aids readability


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def ack_pairs_wire(ranges) -> bytes:
    """The gap/length pairs (RFC 9000 Sec. 19.3.1) that follow
    ``ranges[0]`` on the wire, for ``ranges`` newest first."""
    pairs = []
    for above, (start, end) in zip(ranges, ranges[1:]):
        if above[0] - end < 2:
            raise FrameEncodingError("overlapping ack ranges")
        pairs.append(encode_varint(above[0] - end - 2)
                     + encode_varint(end - start))
    return b"".join(pairs)


def _encode_ack_ranges(buf: Buffer, largest: int, ranges: tuple,
                       older_wire: Optional[bytes] = None) -> None:
    """ACK range encoding per RFC 9000: first range + gap/length pairs."""
    if older_wire is None:
        ordered = sorted(ranges, key=lambda r: r[1], reverse=True)
        newest = ordered[0] if ordered else None
        older_wire = ack_pairs_wire(ordered)
    else:
        newest = ranges[-1]
    if newest is None or newest[1] != largest:
        raise FrameEncodingError("largest_acked must end the first range")
    buf.push_varint(len(ranges) - 1)
    buf.push_varint(largest - newest[0])  # first ack range
    buf.push_bytes(older_wire)


#: The decoder's one memo.  A lossy path's permanent gaps repeat in
#: every ACK_MP and only the ranges at the top change: ``(start of the
#: range above, pairs that follow)`` -> ``(those pairs' bytes, their
#: ranges)``, stored per frame for the pairs after its first range and
#: probed before each pair is read, so a frame costs the pairs above
#: the newest suffix seen before.  A hit counts only if the frame's
#: bytes equal the stored ones, whichever connection stored them.
_ACK_DECODE_MEMO: dict = {}
_ACK_DECODE_MEMO_MAX = 256


def _decode_ack_ranges(buf: Buffer, largest: int) -> Tuple[AckRange, ...]:
    """The ranges of an ACK, newest first."""
    count = buf.pull_varint()
    # Each additional range needs at least two varint bytes; a count
    # beyond that is a malformed (or hostile) frame, not a big ACK.
    if count * 2 > buf.remaining:
        raise FrameEncodingError(f"ack range count {count} exceeds payload")
    start = largest - buf.pull_varint()
    first = make_range((start, largest))
    if count == 0 and start >= 0:
        return (first,)
    data = buf._read_data
    key = (start, count)
    pairs_from = buf._pos
    fresh = []
    older: tuple = ()
    for left in range(count, 0, -1):
        entry = _ACK_DECODE_MEMO.get((start, left))
        if entry is not None:
            pos = buf._pos
            stop = pos + len(entry[0])
            if data[pos:stop] == entry[0]:
                buf._pos = stop
                older = entry[1]
                break
        gap = buf.pull_varint()
        length = buf.pull_varint()
        end = start - gap - 2
        start = end - length
        fresh.append(make_range((start, end)))
    # Starts only fall, and a memo key was a valid start already.
    if start < 0:
        raise ValueError(f"bad ack range: it starts at {start}")
    if fresh:
        older = tuple(fresh) + older
        if len(_ACK_DECODE_MEMO) >= _ACK_DECODE_MEMO_MAX:
            _ACK_DECODE_MEMO.clear()
        _ACK_DECODE_MEMO[key] = (bytes(data[pairs_from:buf._pos]), older)
    return (first,) + older


def _enc_padding(buf: Buffer, frame: PaddingFrame) -> None:
    buf.push_bytes(b"\x00" * frame.length)


def _enc_ping(buf: Buffer, frame: PingFrame) -> None:
    buf.push_varint(FrameType.PING)


def _enc_ack(buf: Buffer, frame: AckFrame) -> None:
    buf.push_varint(FrameType.ACK)
    buf.push_varint(frame.largest_acked)
    buf.push_varint(frame.ack_delay_us)
    _encode_ack_ranges(buf, frame.largest_acked, frame.ranges)


def _enc_ack_mp(buf: Buffer, frame: AckMpFrame) -> None:
    buf.push_varint(FrameType.ACK_MP)
    buf.push_varint(frame.path_id)
    buf.push_varint(1 if frame.qoe is not None else 0)
    buf.push_varint(frame.largest_acked)
    buf.push_varint(frame.ack_delay_us)
    _encode_ack_ranges(buf, frame.largest_acked, frame.ranges,
                       frame.older_wire)
    if frame.qoe is not None:
        frame.qoe.encode(buf)


def _enc_crypto(buf: Buffer, frame: CryptoFrame) -> None:
    buf.push_varint(FrameType.CRYPTO)
    buf.push_varint(frame.offset)
    buf.push_varint(len(frame.data))
    buf.push_bytes(frame.data)


def _enc_stream(buf: Buffer, frame: StreamFrame) -> None:
    # Always emit OFF and LEN bits; FIN from the frame.
    buf.push_varint(
        FrameType.STREAM | 0x04 | 0x02 | (0x01 if frame.fin else 0))
    buf.push_varint(frame.stream_id)
    buf.push_varint(frame.offset)
    buf.push_varint(len(frame.data))
    buf.push_bytes(frame.data)


def _enc_max_data(buf: Buffer, frame: MaxDataFrame) -> None:
    buf.push_varint(FrameType.MAX_DATA)
    buf.push_varint(frame.maximum)


def _enc_max_stream_data(buf: Buffer, frame: MaxStreamDataFrame) -> None:
    buf.push_varint(FrameType.MAX_STREAM_DATA)
    buf.push_varint(frame.stream_id)
    buf.push_varint(frame.maximum)


def _enc_new_cid(buf: Buffer, frame: NewConnectionIdFrame) -> None:
    buf.push_varint(FrameType.NEW_CONNECTION_ID)
    buf.push_varint(frame.sequence_number)
    buf.push_varint(frame.retire_prior_to)
    buf.push_uint8(len(frame.cid))
    buf.push_bytes(frame.cid)


def _enc_path_challenge(buf: Buffer, frame: PathChallengeFrame) -> None:
    buf.push_varint(FrameType.PATH_CHALLENGE)
    buf.push_bytes(frame.data)


def _enc_path_response(buf: Buffer, frame: PathResponseFrame) -> None:
    buf.push_varint(FrameType.PATH_RESPONSE)
    buf.push_bytes(frame.data)


def _enc_close(buf: Buffer, frame: ConnectionCloseFrame) -> None:
    buf.push_varint(FrameType.CONNECTION_CLOSE)
    buf.push_varint(frame.error_code)
    reason = frame.reason.encode()
    buf.push_varint(len(reason))
    buf.push_bytes(reason)


def _enc_path_status(buf: Buffer, frame: PathStatusFrame) -> None:
    buf.push_varint(FrameType.PATH_STATUS)
    buf.push_varint(frame.path_id)
    buf.push_varint(frame.status_seq)
    buf.push_varint(int(frame.status))


def _enc_qoe(buf: Buffer, frame: QoeControlSignalsFrame) -> None:
    buf.push_varint(FrameType.QOE_CONTROL_SIGNALS)
    frame.qoe.encode(buf)


#: Exact-type dispatch replaces the old isinstance chain: one dict
#: lookup per frame instead of up to 13 isinstance checks, and all
#: frames in a packet share one Buffer (see :func:`encode_frames`).
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
    QoeControlSignalsFrame: _enc_qoe,
}


def encode_frame_into(buf: Buffer, frame: object) -> None:
    """Append one frame's serialization to ``buf``."""
    encoder = _FRAME_ENCODERS.get(type(frame))
    if encoder is None:
        raise FrameEncodingError(f"cannot encode {type(frame).__name__}")
    encoder(buf, frame)


def encode_frame(frame: object) -> bytes:
    """Serialize one frame to bytes."""
    buf = Buffer()
    encode_frame_into(buf, frame)
    return buf.getvalue()


def encode_frames(frames: List[object]) -> bytes:
    """Serialize a frame sequence into one contiguous payload."""
    buf = Buffer()
    for frame in frames:
        encode_frame_into(buf, frame)
    return buf.getvalue()


def decode_frames(payload) -> List[object]:
    """Parse a packet payload into a list of frames.

    Accepts any bytes-like payload; the receive path hands a
    ``memoryview`` of the decrypted packet, and STREAM/CRYPTO data
    fields stay views of it (zero-copy) until stream reassembly
    materializes them.  Small fields that outlive the datagram --
    NEW_CONNECTION_ID CIDs, path challenge tokens, close reasons --
    are materialized as ``bytes`` here.

    Malformed input always surfaces as :class:`FrameEncodingError`
    (never a bare ``ValueError``), so the connection can map any
    parse failure to a clean FRAME_ENCODING_ERROR close.
    """
    try:
        return _decode_frames_inner(payload)
    except FrameEncodingError:
        raise
    except (ValueError, OverflowError) as exc:
        raise FrameEncodingError(f"malformed frame: {exc}") from exc


def _decode_frames_inner(payload) -> List[object]:
    buf = Buffer(payload)
    frames: List[object] = []
    while buf._pos < buf._end:
        frame_type = buf.pull_varint()
        if frame_type == FrameType.PADDING:
            continue
        if frame_type == FrameType.PING:
            frames.append(PingFrame())
        elif frame_type == FrameType.ACK:
            largest = buf.pull_varint()
            delay = buf.pull_varint()
            ranges = _decode_ack_ranges(buf, largest)
            frames.append(AckFrame(largest_acked=largest, ack_delay_us=delay,
                                   ranges=ranges))
        elif frame_type == FrameType.ACK_MP:
            path_id = buf.pull_varint()
            flags = buf.pull_varint()
            largest = buf.pull_varint()
            delay = buf.pull_varint()
            ranges = _decode_ack_ranges(buf, largest)
            qoe = QoeSignals.decode(buf) if flags & 1 else None
            frames.append(AckMpFrame(path_id=path_id, largest_acked=largest,
                                     ack_delay_us=delay, ranges=ranges,
                                     qoe=qoe))
        elif frame_type == FrameType.CRYPTO:
            offset = buf.pull_varint()
            length = buf.pull_varint()
            frames.append(CryptoFrame(offset=offset,
                                      data=buf.pull_bytes(length)))
        elif FrameType.STREAM <= frame_type <= FrameType.STREAM | 0x07:
            fin = bool(frame_type & 0x01)
            has_len = bool(frame_type & 0x02)
            has_off = bool(frame_type & 0x04)
            stream_id = buf.pull_varint()
            offset = buf.pull_varint() if has_off else 0
            if has_len:
                length = buf.pull_varint()
                data = buf.pull_bytes(length)
            else:
                data = buf.pull_bytes(buf.remaining)
            frames.append(StreamFrame(stream_id=stream_id, offset=offset,
                                      data=data, fin=fin))
        elif frame_type == FrameType.MAX_DATA:
            frames.append(MaxDataFrame(maximum=buf.pull_varint()))
        elif frame_type == FrameType.MAX_STREAM_DATA:
            frames.append(MaxStreamDataFrame(stream_id=buf.pull_varint(),
                                             maximum=buf.pull_varint()))
        elif frame_type == FrameType.NEW_CONNECTION_ID:
            seq = buf.pull_varint()
            retire = buf.pull_varint()
            cid_len = buf.pull_uint8()
            frames.append(NewConnectionIdFrame(
                sequence_number=seq, cid=bytes(buf.pull_bytes(cid_len)),
                retire_prior_to=retire))
        elif frame_type == FrameType.PATH_CHALLENGE:
            frames.append(PathChallengeFrame(data=bytes(buf.pull_bytes(8))))
        elif frame_type == FrameType.PATH_RESPONSE:
            frames.append(PathResponseFrame(data=bytes(buf.pull_bytes(8))))
        elif frame_type == FrameType.CONNECTION_CLOSE:
            code = buf.pull_varint()
            reason_len = buf.pull_varint()
            frames.append(ConnectionCloseFrame(
                error_code=code,
                reason=bytes(buf.pull_bytes(reason_len)).decode()))
        elif frame_type == FrameType.PATH_STATUS:
            path_id = buf.pull_varint()
            status_seq = buf.pull_varint()
            status = PathStatus(buf.pull_varint())
            frames.append(PathStatusFrame(path_id=path_id, status=status,
                                          status_seq=status_seq))
        elif frame_type == FrameType.QOE_CONTROL_SIGNALS:
            frames.append(QoeControlSignalsFrame(qoe=QoeSignals.decode(buf)))
        else:
            raise FrameEncodingError(f"unknown frame type 0x{frame_type:x}")
    return frames


#: Every frame type -> whether it is "ack-eliciting" (RFC 9002):
#: everything except ACK, ACK_MP, CONNECTION_CLOSE and PADDING.  The
#: send and receive paths index this by ``type(frame)``.
ACK_ELICITING = {frame_type: frame_type not in (
    AckFrame, AckMpFrame, ConnectionCloseFrame, PaddingFrame)
    for frame_type in _FRAME_ENCODERS}
