"""Protocol error types and QUIC transport error codes."""

from __future__ import annotations

import enum


class TransportErrorCode(enum.IntEnum):
    """Subset of RFC 9000 transport error codes used by this stack."""

    NO_ERROR = 0x0
    INTERNAL_ERROR = 0x1
    CONNECTION_REFUSED = 0x2
    FLOW_CONTROL_ERROR = 0x3
    STREAM_LIMIT_ERROR = 0x4
    STREAM_STATE_ERROR = 0x5
    FINAL_SIZE_ERROR = 0x6
    FRAME_ENCODING_ERROR = 0x7
    TRANSPORT_PARAMETER_ERROR = 0x8
    PROTOCOL_VIOLATION = 0xA
    # Multipath extension error (draft): path-related violation.
    MP_PROTOCOL_VIOLATION = 0x1001


class QuicError(Exception):
    """Base class for protocol errors."""

    error_code = TransportErrorCode.INTERNAL_ERROR


class FrameEncodingError(QuicError):
    error_code = TransportErrorCode.FRAME_ENCODING_ERROR


class BufferReadError(FrameEncodingError, ValueError):
    """Truncated read from a codec buffer.

    Inherits :class:`ValueError` so pre-hardening callers that caught
    the stdlib type keep working, while the chaos drop-counters can
    classify short reads as ``malformed`` via the :class:`QuicError`
    side of the MRO instead of crashing on a bare ``IndexError``.
    """


class FlowControlError(QuicError):
    error_code = TransportErrorCode.FLOW_CONTROL_ERROR


class StreamStateError(QuicError):
    error_code = TransportErrorCode.STREAM_STATE_ERROR


class FinalSizeError(QuicError):
    error_code = TransportErrorCode.FINAL_SIZE_ERROR


class ProtocolViolation(QuicError):
    error_code = TransportErrorCode.PROTOCOL_VIOLATION
