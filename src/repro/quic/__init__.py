"""Byte-level QUIC transport with the XLINK multipath extension.

The stack implements the parts of IETF QUIC that the paper's
mechanisms live on -- varints, frames, packets, per-path packet-number
spaces, streams with flow control, loss detection with PTO, Cubic /
NewReno / coupled congestion control -- plus the multipath extension of
draft-liu-multipath-quic-02 as deployed in XLINK: paths identified by
connection-ID sequence numbers, ``ACK_MP`` (carrying the QoE control
signal field), ``PATH_STATUS`` (a receiver acts on Abandon), and the
multipath AEAD nonce construction.

Packets are sealed with AEAD_AES_128_GCM, as in RFC 9001, using the
multipath nonce exactly as Sec. 6 describes (see
:mod:`repro.quic.crypto`); the handshake that would agree on the key is
out of scope, so both ends derive it from the connection name.
"""

from repro.quic.connection import Connection, ConnectionConfig
from repro.quic.frames import (AckMpFrame, AckRange, CryptoFrame,
                               MaxDataFrame, MaxStreamDataFrame,
                               NewConnectionIdFrame, PathChallengeFrame,
                               PathResponseFrame, PathStatus,
                               PathStatusFrame, PingFrame, QoeSignals,
                               StreamFrame)
from repro.quic.transport_params import TransportParameters

__all__ = [
    "Connection",
    "ConnectionConfig",
    "TransportParameters",
    "AckMpFrame",
    "AckRange",
    "CryptoFrame",
    "MaxDataFrame",
    "MaxStreamDataFrame",
    "NewConnectionIdFrame",
    "PathChallengeFrame",
    "PathResponseFrame",
    "PathStatus",
    "PathStatusFrame",
    "PingFrame",
    "QoeSignals",
    "StreamFrame",
]
