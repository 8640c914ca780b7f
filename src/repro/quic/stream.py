"""QUIC streams: ordered byte streams with reassembly and priorities.

XLINK's scheduler needs two extra notions beyond vanilla QUIC streams:

- a *stream priority* (earlier video chunks are more urgent -- the
  stream-priority re-injection of Fig. 4b), and
- *frame priority ranges* within a stream: the ``stream_send`` API
  lets the application mark a byte range (position, size) as the first
  video frame, at the highest priority (Fig. 4c).

The receive side reassembles out-of-order / duplicate data (duplicates
arise naturally from re-injection) and exposes in-order reads.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.quic.errors import FinalSizeError, StreamStateError
from repro.quic.flow_control import FlowControlWindow
from repro.quic.transport_params import TransportParameters

_DEFAULT_WINDOW = TransportParameters.initial_max_stream_data

#: Default frame priority for bytes not covered by a marked range.
DEFAULT_FRAME_PRIORITY = 10

#: Highest priority, used for the first video frame.
FIRST_FRAME_PRIORITY = 0


#: writes copied rather than held: the caller may change them
_MUTABLE = (bytearray, memoryview)


@dataclass(frozen=True)
class PriorityRange:
    """A byte range [start, end) with an application-set priority."""

    start: int
    end: int
    priority: int

    def __contains__(self, offset: int) -> bool:
        return self.start <= offset < self.end


class SendStream:
    """Send half: an append-only buffer with priority annotations, and
    all else a connection keeps per stream, so that retiring one is a pop."""

    __slots__ = ("stream_id", "priority", "_buffer", "length", "fin_offset",
                 "_priority_ranges", "acked_ranges", "fin_acked", "fc",
                 "queued_offset", "reinjected")

    def __init__(self, stream_id: int, priority: int = 0,
                 window: int = _DEFAULT_WINDOW) -> None:
        self.stream_id = stream_id
        #: stream priority; lower value = more urgent
        self.priority = priority
        #: the one payload written, as is, until a second write
        self._buffer = b""
        #: bytes written so far (the buffer itself goes once all are acked)
        self.length = 0
        self.fin_offset: Optional[int] = None
        self._priority_ranges: List[PriorityRange] = []
        #: set when every byte (and fin) has been acked
        self.acked_ranges: "_RangeSet" = _RangeSet()
        self.fin_acked = False
        #: the peer's MAX_STREAM_DATA limit on what we send
        self.fc = FlowControlWindow.with_window(window)
        #: bytes already cut into chunks on the send queue
        self.queued_offset = 0
        #: (offset, length) -> when last re-injected; popped by an exact ack
        self.reinjected: Dict[Tuple[int, int], float] = {}

    # -- application API --------------------------------------------------

    def write(self, data: bytes, fin: bool = False,
              frame_priority: Optional[int] = None,
              position: Optional[int] = None,
              size: Optional[int] = None) -> None:
        """Append data; optionally mark a priority range.

        ``data`` is bytes-like, or any value whose ``len()`` and
        contiguous ``[a:b]`` give bytes (a media response cuts them on
        demand: ``repro.video.http.RangeResponse``).  A first write that
        is immutable is kept as is, uncopied, until it is fully acked; a
        second write copies what is held into one ``bytearray``.

        ``frame_priority`` with ``position``/``size`` mirrors XLINK's
        ``stream_send(data, position, size, priority)``: the byte
        range [position, position+size) gets ``frame_priority``.
        When position/size are omitted the range covers this write.
        """
        if self.fin_offset is not None:
            raise StreamStateError(f"stream {self.stream_id} already FINed")
        start = self.length
        buf = self._buffer
        if not buf and not isinstance(data, _MUTABLE):
            self._buffer = data  # written once (a response, a payload)
        else:
            if type(buf) is not bytearray:
                buf = self._buffer = bytearray(buf[:])
            buf += data[:]  # any payload's bytes; no copy of ``bytes``
        self.length = start + len(data)
        if fin:
            self.fin_offset = self.length
        if frame_priority is not None:
            p_start = position if position is not None else start
            p_size = size if size is not None else len(data)
            self._priority_ranges.append(
                PriorityRange(p_start, p_start + p_size, frame_priority))

    @property
    def fully_acked(self) -> bool:
        """Every byte and the FIN (sent, so ``fin_offset`` is set) acked."""
        return self.fin_acked and self.acked_ranges.covers(0, self.fin_offset)

    def frame_priority_at(self, offset: int) -> int:
        """Priority of the byte at ``offset`` (first match wins)."""
        for rng in self._priority_ranges:
            if offset in rng:
                return rng.priority
        return DEFAULT_FRAME_PRIORITY

    def priority_segments(self, start: int,
                          end: int) -> List[Tuple[int, int, int]]:
        """Split [start, end) into maximal runs of constant priority.

        Returns ``(seg_start, seg_end, priority)`` triples, equivalent
        to -- but O(ranges log ranges) instead of O(bytes * ranges) --
        calling :meth:`frame_priority_at` on every byte and breaking
        wherever the value changes.  Priority can only change at a
        range endpoint, so it suffices to evaluate once per interval
        between endpoints and merge equal-priority neighbours.
        """
        if start >= end:
            return []
        if not self._priority_ranges:
            return [(start, end, DEFAULT_FRAME_PRIORITY)]
        points = {start, end}
        for rng in self._priority_ranges:
            if start < rng.start < end:
                points.add(rng.start)
            if start < rng.end < end:
                points.add(rng.end)
        ordered = sorted(points)
        segments: List[Tuple[int, int, int]] = []
        for i in range(len(ordered) - 1):
            seg_start = ordered[i]
            priority = self.frame_priority_at(seg_start)
            if segments and segments[-1][2] == priority:
                segments[-1] = (segments[-1][0], ordered[i + 1], priority)
            else:
                segments.append((seg_start, ordered[i + 1], priority))
        return segments

    def priority_range_end(self, priority: int) -> Optional[int]:
        """End offset of the (first) range at ``priority``, if any."""
        for rng in self._priority_ranges:
            if rng.priority == priority:
                return rng.end
        return None

    def data_for(self, offset: int, length: int) -> bytes:
        """Bytes [offset, offset+length) for (re)transmission."""
        if offset + length > len(self._buffer):
            raise StreamStateError(
                f"stream {self.stream_id}: range beyond buffer")
        return bytes(self._buffer[offset:offset + length])

    def is_fin_range(self, offset: int, length: int) -> bool:
        """True if this range's end coincides with the FIN offset."""
        return (self.fin_offset is not None
                and offset + length == self.fin_offset)

    def on_acked(self, offset: int, length: int, fin: bool) -> bool:
        """Record an acked range; True once the half is fully acked."""
        if length:
            self.acked_ranges.add(offset, offset + length)
        if fin:
            self.fin_acked = True
        done = self.fin_acked and self.acked_ranges.covers(0, self.fin_offset)
        if done:
            self._buffer = b""  # nothing can ask for this data again
        return done


class ReceiveStream:
    """Receive half: out-of-order reassembly, duplicate-tolerant."""

    __slots__ = ("stream_id", "_segments", "_received", "read_offset",
                 "highest_received", "final_size", "fc")

    def __init__(self, stream_id: int, window: int = _DEFAULT_WINDOW) -> None:
        self.stream_id = stream_id
        #: the MAX_STREAM_DATA limit we advertise to the peer
        self.fc = FlowControlWindow.with_window(window)
        self._segments: Dict[int, bytes] = {}
        self._received = _RangeSet()
        #: next in-order byte the application has not read yet
        self.read_offset = 0
        #: end of the highest byte received so far
        self.highest_received = 0
        self.final_size: Optional[int] = None

    def on_data(self, offset: int, data: bytes, fin: bool) -> None:
        """Accept a STREAM frame; overlapping data is deduplicated."""
        end = offset + len(data)
        if fin:
            if self.final_size is not None and self.final_size != end:
                raise FinalSizeError(
                    f"stream {self.stream_id}: conflicting final size")
            self.final_size = end
        if self.final_size is not None and end > self.final_size:
            raise FinalSizeError(
                f"stream {self.stream_id}: data beyond final size")
        if end == offset:
            return
        if end > self.highest_received:
            self.highest_received = end
        # Clip already-received prefix/suffix; store novel middle pieces.
        for seg_start, seg_end in self._received.missing_within(offset, end):
            # bytes() materializes here: ``data`` may be a memoryview of
            # the received datagram (zero-copy decode path), and stored
            # segments must not pin that buffer alive.
            self._segments[seg_start] = bytes(data[seg_start - offset:
                                                   seg_end - offset])
            self._received.add(seg_start, seg_end)

    def read_available(self) -> bytes:
        """Return (and consume) all in-order bytes available: one ready
        segment is returned as is, several are joined."""
        segments = self._segments
        out = segments.pop(self.read_offset, b"")
        self.read_offset += len(out)
        if self.read_offset in segments:
            parts = [out]
            while self.read_offset in segments:
                seg = segments.pop(self.read_offset)
                parts.append(seg)
                self.read_offset += len(seg)
            out = b"".join(parts)
        return out

    @property
    def is_complete(self) -> bool:
        """All bytes up to the final size have been received."""
        return (self.final_size is not None
                and self._received.covers(0, self.final_size))

    @property
    def fully_read(self) -> bool:
        return (self.final_size is not None
                and self.read_offset >= self.final_size)


class _RangeSet:
    """Sorted set of disjoint half-open ranges [start, end)."""

    __slots__ = ("_ranges",)

    def __init__(self) -> None:
        self._ranges: List[Tuple[int, int]] = []

    def add(self, start: int, end: int) -> None:
        if start >= end:
            return
        ranges = self._ranges
        if ranges:
            last_start, last_end = ranges[-1]
            if start >= last_start:
                # At or past the newest range (in-order arrival, acks
                # in send order): extend or append in place.
                if start > last_end:
                    ranges.append((start, end))
                elif end > last_end:
                    ranges[-1] = (last_start, end)
                return
        new: List[Tuple[int, int]] = []
        for s, e in ranges:
            if e < start or s > end:
                new.append((s, e))
            else:
                start = min(start, s)
                end = max(end, e)
        bisect.insort(new, (start, end))
        self._ranges = new

    def covers(self, start: int, end: int) -> bool:
        if start >= end:
            return True
        for s, e in self._ranges:
            if s <= start and end <= e:
                return True
        return False

    def missing_within(self, start: int, end: int) -> List[Tuple[int, int]]:
        """Sub-ranges of [start, end) not yet present."""
        missing: List[Tuple[int, int]] = []
        cursor = start
        for s, e in self._ranges:
            if e <= cursor:
                continue
            if s >= end:
                break
            if s > cursor:
                missing.append((cursor, min(s, end)))
            cursor = max(cursor, e)
            if cursor >= end:
                break
        if cursor < end:
            missing.append((cursor, end))
        return missing

    def __len__(self) -> int:
        return len(self._ranges)
