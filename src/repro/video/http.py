"""Minimal HTTP-range request layer over QUIC streams.

The MediaCacheService issues range requests, one QUIC stream per
chunk (Sec. 5.1: "the video player may simultaneously request multiple
streams, with each downloading a small portion of the video").  The
wire format is a compact text request and a binary body; response
metadata (first-frame range) rides a small header so the server can
mark frame priorities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class RangeRequest:
    """GET <name> bytes=start-end (end exclusive)."""

    video_name: str
    start: int
    end: int

    def encode(self) -> bytes:
        return f"GET {self.video_name} bytes={self.start}-{self.end}\r\n" \
            .encode()

    @property
    def size(self) -> int:
        return self.end - self.start


def parse_request(data: bytes) -> Optional[RangeRequest]:
    """Parse a range request; None if the data is not a complete request."""
    if not data.endswith(b"\r\n"):
        return None
    try:
        text = data.decode().strip()
        method, name, range_part = text.split(" ")
        if method != "GET" or not range_part.startswith("bytes="):
            return None
        start_s, end_s = range_part[len("bytes="):].split("-")
        return RangeRequest(video_name=name, start=int(start_s),
                            end=int(end_s))
    except (ValueError, UnicodeDecodeError):
        return None


@dataclass(frozen=True)
class RangeResponseMeta:
    """Fixed-size binary response header preceding the body."""

    total_size: int
    start: int
    end: int

    HEADER_LEN = 24

    def encode(self) -> bytes:
        return (self.total_size.to_bytes(8, "big")
                + self.start.to_bytes(8, "big")
                + self.end.to_bytes(8, "big"))

    @classmethod
    def decode(cls, data: bytes) -> "RangeResponseMeta":
        if len(data) < cls.HEADER_LEN:
            raise ValueError("response header truncated")
        return cls(total_size=int.from_bytes(data[0:8], "big"),
                   start=int.from_bytes(data[8:16], "big"),
                   end=int.from_bytes(data[16:24], "big"))


#: bytes of body pattern a response keeps: a full-sized STREAM frame
#: (~1.3 KB) plus any phase into the pattern unit, so a packet's slice
#: is one ``bytes`` slice
_BLOCK_BYTES = 1536


class RangeResponse:
    """A range response as a value: ``len()`` and ``[a:b]`` give the
    bytes of the encoded header followed by the body, cut on demand.

    The body is the video's pseudo-content: the byte at video offset
    ``o`` is ``unit[o % len(unit)]`` with ``unit = name + "|"``, so any
    range can be checked against any other.  Nothing the size of the
    range is ever built: a send stream holds this value until it is
    acked and asks it for a packet's worth at a time.
    """

    __slots__ = ("header", "unit", "start", "length", "_block")

    def __init__(self, meta: RangeResponseMeta, video_name: str) -> None:
        self.header = meta.encode()
        self.unit = video_name.encode() + b"|"
        self.start = meta.start
        self.length = max(meta.end - meta.start, 0)
        self._block = self.unit * (_BLOCK_BYTES // len(self.unit) + 1)

    def __len__(self) -> int:
        return len(self.header) + self.length

    def __getitem__(self, key: slice) -> bytes:
        header = self.header
        hlen = len(header)
        a, b, step = key.indices(hlen + self.length)
        if step != 1:
            raise ValueError("a response is sliced contiguously")
        if a < hlen:
            return header[a:b] + self[hlen:b] if b > hlen else header[a:b]
        n = b - a
        if n <= 0:
            return b""
        unit = self.unit
        phase = (self.start + a - hlen) % len(unit)
        if phase + n <= len(self._block):  # a packet's worth, or less
            return self._block[phase:phase + n]
        return (unit * ((phase + n) // len(unit) + 1))[phase:phase + n]
