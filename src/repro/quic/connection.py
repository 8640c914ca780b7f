"""The QUIC connection state machine with multipath + XLINK hooks.

Responsibilities:

- 1-RTT handshake with the ``enable_multipath`` transport parameter
  (Fig. 9); fallback to single path when either side lacks it.
- Per-path packet-number spaces, sealing/opening packets with the
  multipath AEAD nonce.
- Streams with connection/stream flow control; the ``stream_send``
  API carries XLINK's frame-priority annotations.
- A *send queue* of :class:`SendChunk` work items; a pluggable
  scheduler (see :mod:`repro.core.scheduler`) picks the path for every
  packet and controls re-injection by inserting duplicate chunks.
- ACK_MP generation, carrying the client's QoE signals, returned on
  the path chosen by the ACK return-path policy (fastest vs original).
- Per-path loss detection and PTO probing; lost stream data re-enters
  the send queue as retransmission chunks.
- Path lifecycle: NEW_CONNECTION_ID supply, PATH_CHALLENGE /
  PATH_RESPONSE validation, PATH_STATUS close, and single-path
  *connection migration* (cwnd reset) for the CM baseline.

The connection is sans-IO towards the network: it consumes datagram
payloads via :meth:`datagram_received` and emits them through the
``transmit(net_path_id, payload)`` callback, which the experiment
harness wires to :mod:`repro.netem`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.quic.cc import RateSample, make_cc, make_coordinator
from repro.quic.cc.base import MAX_DATAGRAM_SIZE
from repro.quic.cid import CidRegistry, ConnectionId
from repro.quic.crypto import PacketProtection, TAG_LENGTH, derive_connection_key
from repro.quic.errors import ProtocolViolation, QuicError
from repro.quic.frames import (AckMpFrame, ConnectionCloseFrame,
                               CryptoFrame, MaxDataFrame, MaxStreamDataFrame,
                               NewConnectionIdFrame, PathChallengeFrame,
                               PathResponseFrame, PathStatus, PathStatusFrame,
                               PingFrame, QoeControlSignalsFrame, QoeSignals,
                               StreamFrame, decode_frames, encode_frames,
                               is_ack_eliciting)
from repro.quic.loss_detection import SentPacket
from repro.quic.packets import (PacketHeader, PacketType, decode_header,
                                encode_header, encode_short_header,
                                reconstruct_pn)
from repro.quic.path import Path, PathState
from repro.quic.stream import (DEFAULT_FRAME_PRIORITY, ReceiveStream,
                               SendStream)
from repro.quic.transport_params import TransportParameters
from repro.quic.flow_control import FlowControlWindow
from repro.sim.event_loop import EventLoop
from repro.sim.rng import make_rng
from repro.traces.radio_profiles import RadioType

#: Usable payload per packet: datagram budget minus short header and tag.
PACKET_PAYLOAD_BUDGET = MAX_DATAGRAM_SIZE - 13 - TAG_LENGTH - 24

#: Send an ACK after this many ack-eliciting packets (RFC 9000 default 2).
ACK_ELICITING_THRESHOLD = 2


@dataclass
class SendChunk:
    """One work item in the packet send queue (the paper's pkt_send_q).

    ``kind`` is ``"new"`` (first transmission), ``"rtx"``
    (retransmission of lost data) or ``"reinject"`` (XLINK duplicate of
    still-in-flight data).  ``exclude_path`` steers re-injected copies
    away from the path the original is stuck on.
    """

    stream_id: int
    offset: int
    length: int
    kind: str = "new"
    stream_priority: int = 0
    frame_priority: int = DEFAULT_FRAME_PRIORITY
    exclude_path: Optional[int] = None

    @property
    def end(self) -> int:
        return self.offset + self.length


@dataclass
class ConnectionConfig:
    """Tunable connection behaviour."""

    is_client: bool = True
    enable_multipath: bool = True
    #: congestion controller: any name in ``repro.quic.cc.CC_REGISTRY``
    #: ("cubic" | "newreno" | "lia" | "bbr" | "mpbbr")
    cc_algorithm: str = "cubic"
    #: ACK_MP return-path policy: "fastest" (XLINK) or "original" (MPTCP-like)
    ack_path_policy: str = "fastest"
    max_ack_delay: float = 0.025
    transport_params: TransportParameters = field(
        default_factory=TransportParameters)
    #: number of extra CIDs supplied at handshake (max paths - 1)
    extra_cids: int = 4
    seed: int = 0
    #: silently close after this long without an authenticated packet
    #: (``None`` disables the idle timer entirely)
    idle_timeout_s: Optional[float] = None
    #: re-injection storm guard: cap on duplicate bytes enqueued per
    #: RTT-sized window (0 disables).  Sized far above legitimate XLINK
    #: re-injection bursts (bounded by a stuck path's cwnd), so only
    #: chaos-triggered amplification ever trims.
    reinject_budget_bytes_per_rtt: int = 1_000_000


def derive_initial_dcid(seed: int, connection_name: str) -> bytes:
    """The client-chosen random initial DCID for a connection.

    Derived deterministically from the connection's shared identity so
    the server host (which knows the same identity) can pre-pin the
    handshake route -- NAT rebinds before the first packet then cannot
    orphan the connection.
    """
    rng = make_rng(seed, f"{connection_name}-initial-dcid")
    return bytes(rng.getrandbits(8) for _ in range(8))


@dataclass
class _SentFrameInfo:
    """What a sent packet carried, for ack/loss processing."""

    stream_id: int = -1
    offset: int = 0
    length: int = 0
    fin: bool = False
    kind: str = "new"


class ConnectionStats:
    """Traffic accounting used by the cost benchmarks."""

    def __init__(self) -> None:
        self.stream_bytes_new = 0
        self.stream_bytes_rtx = 0
        self.stream_bytes_reinjected = 0
        self.packets_sent = 0
        self.packets_received = 0
        self.acks_sent = 0
        self.handshake_completed_at: Optional[float] = None
        #: robustness counters (chaos / hostile-input accounting)
        self.corrupted_dropped = 0
        self.malformed_dropped = 0
        self.unknown_cid_dropped = 0
        self.frame_decode_errors = 0
        self.protocol_error_closes = 0
        self.duplicates_suppressed = 0
        self.reorder_max_depth = 0
        self.storm_guard_trims = 0
        self.storm_guard_trimmed_bytes = 0
        self.idle_timeouts = 0

    @property
    def redundancy_ratio(self) -> float:
        """Re-injected bytes over useful (new) stream bytes."""
        if self.stream_bytes_new == 0:
            return 0.0
        return self.stream_bytes_reinjected / self.stream_bytes_new

    def robustness_dict(self) -> Dict[str, int]:
        """The robustness counters, for summaries and invariant checks."""
        return {
            "corrupted_dropped": self.corrupted_dropped,
            "malformed_dropped": self.malformed_dropped,
            "unknown_cid_dropped": self.unknown_cid_dropped,
            "frame_decode_errors": self.frame_decode_errors,
            "protocol_error_closes": self.protocol_error_closes,
            "duplicates_suppressed": self.duplicates_suppressed,
            "reorder_max_depth": self.reorder_max_depth,
            "storm_guard_trims": self.storm_guard_trims,
            "storm_guard_trimmed_bytes": self.storm_guard_trimmed_bytes,
            "idle_timeouts": self.idle_timeouts,
        }


def aggregate_robustness(stats_list) -> Dict[str, int]:
    """Merge robustness counters across connections.

    ``reorder_max_depth`` is a high-water mark (max); everything else
    is additive.
    """
    total: Dict[str, int] = {}
    for stats in stats_list:
        for key, value in stats.robustness_dict().items():
            if key == "reorder_max_depth":
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


class Connection:
    """One endpoint of a (multipath) QUIC connection."""

    def __init__(self, loop: EventLoop, config: ConnectionConfig,
                 transmit: Callable[[int, bytes], None],
                 scheduler=None,
                 connection_name: str = "conn",
                 server_id: int = 1) -> None:
        self.loop = loop
        self.config = config
        self.transmit = transmit
        self.scheduler = scheduler
        self.connection_name = connection_name
        self.stats = ConnectionStats()
        self.established = False
        self.closed = False
        self.multipath_negotiated = False
        self.peer_params: Optional[TransportParameters] = None

        rng = make_rng(config.seed, f"{connection_name}-cids-"
                       f"{'c' if config.is_client else 's'}")
        self.cids = CidRegistry(
            rng, server_id=None if config.is_client else server_id)
        # Both sides derive the same key from the connection name: the
        # handshake secrecy itself is out of scope (see crypto module).
        secret = hashlib.sha256(connection_name.encode()).digest()
        self.protection = PacketProtection(derive_connection_key(secret))

        self.paths: Dict[int, Path] = {}
        #: QUIC path id -> network interface id used by ``transmit``
        self.net_path_of: Dict[int, int] = {}
        #: shared coordinator for coupled controllers (lia/mpbbr), else None
        self._cc_coordinator = make_coordinator(config.cc_algorithm)
        #: True once any path runs a paced (model-based) controller;
        #: gates every pacing/rate-sample code path so the default
        #: loss-based configuration takes identical branches to the
        #: pre-pacing connection.
        self._any_paced = False
        self._pacing_event = None
        self._pacing_deadline: Optional[float] = None

        self.send_streams: Dict[int, SendStream] = {}
        self.recv_streams: Dict[int, ReceiveStream] = {}
        self._next_stream_id = 0 if config.is_client else 1
        self._stream_queued_offset: Dict[int, int] = {}

        self.send_queue: List[SendChunk] = []
        #: range -> virtual time of its last re-injection; entries age
        #: out so a duplicate that got stuck itself can be retried
        self._reinjected_ranges: Dict[tuple, float] = {}

        self.fc_send = FlowControlWindow.with_window(
            config.transport_params.initial_max_data)
        self.fc_recv = FlowControlWindow.with_window(
            config.transport_params.initial_max_data)
        self._fc_stream_send: Dict[int, FlowControlWindow] = {}
        self._fc_stream_recv: Dict[int, FlowControlWindow] = {}
        self._total_sent_offset = 0
        self._total_recv_offset = 0

        #: client QoE provider -> QoeSignals or None (set by video player)
        self.qoe_provider: Optional[Callable[[], Optional[QoeSignals]]] = None
        #: latest QoE feedback received from the peer (server side)
        self.last_qoe: Optional[QoeSignals] = None
        self.last_qoe_time: float = -1.0

        #: callbacks
        self.on_established: Optional[Callable[[], None]] = None
        self.on_stream_data: Optional[Callable[[int], None]] = None
        self.on_stream_complete: Optional[Callable[[int], None]] = None

        #: observer hooks -- the supported way to watch a connection
        #: without wrapping its methods (tracers, CM monitors, hosts).
        #: Receive hooks fire on every datagram handed to
        #: :meth:`datagram_received`, before any processing (even on a
        #: closed connection, matching an on-the-wire tap); transmit
        #: hooks fire just before a datagram leaves via ``transmit``.
        self.receive_hooks: List[Callable[[bytes, int], None]] = []
        self.transmit_hooks: List[Callable[[int, bytes], None]] = []
        #: fired when a re-injection chunk is actually enqueued
        self.reinjection_hooks: List[Callable[[SendChunk, Optional[int]],
                                              None]] = []
        #: fired on every QoE feedback signal from the peer
        self.qoe_hooks: List[Callable[[QoeSignals], None]] = []
        #: fired whenever a datagram/chunk is dropped: ``hook(reason,
        #: size)`` -- reasons mirror the robustness counters.
        self.drop_hooks: List[Callable[[str, int], None]] = []

        self._timer_event = None
        #: live loss-timer deadline; the armed event may lag behind it
        #: (lazy-deadline timers -- see _arm_loss_timer)
        self._loss_deadline: Optional[float] = None
        self._ack_timer_event = None
        self._pending_control: Dict[int, List[object]] = {}
        self._handshake_sent = False
        self._handshake_retransmit_event = None
        self._eliciting_since_ack: Dict[int, int] = {}
        self._next_challenge = 0

        #: virtual time of the last authenticated packet (idle timer)
        self.last_activity_at = loop.now
        self._idle_event = None
        if config.idle_timeout_s is not None:
            self._idle_event = loop.schedule_at(
                self._idle_deadline(), self._on_idle_check,
                label="idle-timeout")
        #: re-injection storm guard window state
        self._storm_window_start = loop.now
        self._storm_window_bytes = 0

    # ------------------------------------------------------------------
    # observer hooks
    # ------------------------------------------------------------------

    def add_receive_hook(self, hook: Callable[[bytes, int], None]) -> None:
        """Observe incoming datagrams: ``hook(payload, net_path_id)``."""
        self.receive_hooks.append(hook)

    def add_transmit_hook(self, hook: Callable[[int, bytes], None]) -> None:
        """Observe outgoing datagrams: ``hook(net_path_id, payload)``."""
        self.transmit_hooks.append(hook)

    def add_reinjection_hook(
            self, hook: Callable[["SendChunk", Optional[int]], None]) -> None:
        """Observe enqueued re-injections: ``hook(chunk, position)``."""
        self.reinjection_hooks.append(hook)

    def add_qoe_hook(self, hook: Callable[[QoeSignals], None]) -> None:
        """Observe peer QoE feedback: ``hook(qoe)``."""
        self.qoe_hooks.append(hook)

    def add_drop_hook(self, hook: Callable[[str, int], None]) -> None:
        """Observe robustness drops: ``hook(reason, size_bytes)``."""
        self.drop_hooks.append(hook)

    def _note_drop(self, reason: str, size: int) -> None:
        for hook in self.drop_hooks:
            hook(reason, size)

    def _emit(self, net_path_id: int, payload: bytes) -> None:
        """Hand a datagram to the network, notifying transmit hooks."""
        for hook in self.transmit_hooks:
            hook(net_path_id, payload)
        self.transmit(net_path_id, payload)

    # ------------------------------------------------------------------
    # path setup
    # ------------------------------------------------------------------

    def _make_cc(self):
        if self._cc_coordinator is not None:
            cc = make_cc(self.config.cc_algorithm,
                         coordinator=self._cc_coordinator)
        else:
            cc = make_cc(self.config.cc_algorithm)
        if cc.paced:
            self._any_paced = True
        return cc

    def add_local_path(self, path_id: int, net_path_id: int,
                       radio: Optional[RadioType] = None) -> Path:
        """Create path state bound to a local network interface.

        For path 0 this is done before the handshake; for later paths
        the client calls :meth:`open_path` after negotiation.
        """
        if path_id in self.paths:
            raise ProtocolViolation(f"path {path_id} already exists")
        while path_id not in self.cids.issued:
            self.cids.issue()
        local_cid = self.cids.issued[path_id]
        remote = self.cids.peer_cids.get(path_id)
        if remote is None:
            # Peer CID not yet known (pre-handshake path 0): a random
            # client-chosen initial DCID, as in QUIC -- load balancers
            # consistent-hash it to pick the backend (Sec. 6).  It is
            # replaced when the peer's real CIDs arrive.
            initial = derive_initial_dcid(self.config.seed,
                                          self.connection_name)
            remote = ConnectionId(cid=initial, sequence_number=path_id)
        path = Path(path_id, local_cid, remote, self._make_cc(), radio=radio,
                    max_ack_delay=self.config.max_ack_delay)
        if path.cc.paced:
            # The loss detector stamps delivered/delivered_time on every
            # sent packet only when the controller consumes rate samples.
            path.loss.rate_sampling = True
        self.paths[path_id] = path
        self.net_path_of[path_id] = net_path_id
        self._eliciting_since_ack[path_id] = 0
        return path

    def open_path(self, path_id: int, net_path_id: int,
                  radio: Optional[RadioType] = None) -> Path:
        """Client-side: initiate a new path (Fig. 9 right half).

        Requires multipath negotiation and an unused peer CID; sends a
        PATH_CHALLENGE to validate the path.
        """
        if not self.config.is_client:
            raise ProtocolViolation("only the client opens paths here")
        if not self.multipath_negotiated:
            raise ProtocolViolation("multipath was not negotiated")
        if path_id not in self.cids.peer_cids:
            raise ProtocolViolation(
                f"no peer CID with sequence {path_id} available")
        path = self.add_local_path(path_id, net_path_id, radio=radio)
        path.remote_cid = self.cids.peer_cids[path_id]
        self.cids.mark_peer_used(path_id)
        path.state = PathState.VALIDATING
        challenge = self._next_challenge.to_bytes(8, "big")
        self._next_challenge += 1
        path.challenge_data = challenge
        self._queue_control(path_id, PathChallengeFrame(data=challenge))
        self._pump()
        return path

    def close_path(self, path_id: int) -> None:
        """Abandon a path and tell the peer via PATH_STATUS (Sec. 6)."""
        path = self.paths.get(path_id)
        if path is None or path.state is PathState.ABANDONED:
            return
        status = PathStatusFrame(path_id=path_id, status=PathStatus.ABANDON,
                                 status_seq=0)
        # Send the notice on another live path when possible.
        other = [p for p in self.paths.values()
                 if p.path_id != path_id and p.is_usable]
        carrier = other[0].path_id if other else path_id
        self._queue_control(carrier, status)
        self._abandon_path_locally(path)
        self._pump()

    def _abandon_path_locally(self, path: Path) -> None:
        # Lost-in-limbo data on this path must be retransmitted
        # elsewhere; every in-flight byte is released to congestion
        # control and the path's loss timer is cleared so an abandoned
        # path can never fire a stale deadline.
        for pkt in path.loss.discard_all():
            path.cc.on_discarded(pkt.size if pkt.in_flight else 0)
            self._requeue_lost_frames(pkt)
        path.abandon()
        self._arm_loss_timer()

    def start_qoe_feedback(self, interval_s: float = 0.1) -> None:
        """Send QOE_CONTROL_SIGNALS frames on a timer (draft Sec. 6).

        The deployed XLINK piggybacks QoE on ACK_MP; the draft also
        defines a standalone frame so feedback frequency is not tied
        to ack frequency.  Requires a ``qoe_provider``.
        """
        if self.qoe_provider is None:
            raise ProtocolViolation("no qoe_provider registered")
        if interval_s <= 0:
            raise ValueError("interval must be positive")

        def tick() -> None:
            if self.closed:
                return
            qoe = self.qoe_provider()
            if qoe is not None and self.established:
                carrier = self._ack_carrier_path(
                    self.paths[self._any_active_path_id()])
                self._queue_control(carrier.path_id,
                                    QoeControlSignalsFrame(qoe=qoe))
                self._flush_control()
            self.loop.schedule_after(interval_s, tick, label="qoe-feedback")

        self.loop.schedule_after(interval_s, tick, label="qoe-feedback")

    def set_path_status(self, path_id: int, status: PathStatus,
                        status_seq: int = 0) -> None:
        """Advertise a path's status to the peer (Sec. 6 PATH_STATUS).

        STANDBY asks the peer to stop scheduling data on the path
        (e.g. the phone's Wi-Fi signal is fading); AVAILABLE restores
        it; ABANDON is equivalent to :meth:`close_path`.
        """
        path = self.paths.get(path_id)
        if path is None:
            raise ProtocolViolation(f"unknown path {path_id}")
        if status is PathStatus.ABANDON:
            self.close_path(path_id)
            return
        frame = PathStatusFrame(path_id=path_id, status=status,
                                status_seq=status_seq)
        carrier = self._any_active_path_id()
        self._queue_control(carrier, frame)
        # Apply locally as well: our own scheduler must respect it.
        path.status = status
        if status is PathStatus.STANDBY and path.state is PathState.ACTIVE:
            path.state = PathState.STANDBY
        elif status is PathStatus.AVAILABLE \
                and path.state is PathState.STANDBY:
            path.state = PathState.ACTIVE
        self._pump()

    def send_ping(self, path_id: int) -> None:
        """Send a PING on ``path_id`` (path liveness probe)."""
        path = self.paths.get(path_id)
        if path is None or path.state is PathState.ABANDONED or self.closed:
            return
        self._send_packet(path, [PingFrame()], in_flight=False)

    def migrate(self, new_path_id: int) -> None:
        """QUIC connection migration (CM baseline): single active path,
        congestion state reset on the new path (Sec. 2, 'Road to QUIC')."""
        new_path = self.paths[new_path_id]
        for path in self.paths.values():
            if path.path_id != new_path_id and path.is_usable:
                path.state = PathState.STANDBY
        new_path.state = PathState.ACTIVE
        new_path.cc.reset()
        self._pump()

    # ------------------------------------------------------------------
    # handshake
    # ------------------------------------------------------------------

    def connect(self) -> None:
        """Client: send the first handshake packet on path 0."""
        if not self.config.is_client:
            raise ProtocolViolation("server does not initiate")
        if 0 not in self.paths:
            raise ProtocolViolation("add path 0 before connecting")
        self._send_handshake()

    def _handshake_frames(self) -> List[object]:
        params = replace(self.config.transport_params,
                         enable_multipath=self.config.enable_multipath)
        frames: List[object] = [CryptoFrame(offset=0, data=params.encode())]
        for seq in range(1, 1 + self.config.extra_cids):
            while seq not in self.cids.issued:
                self.cids.issue()
            cid = self.cids.issued[seq]
            frames.append(NewConnectionIdFrame(
                sequence_number=cid.sequence_number, cid=cid.cid))
        return frames

    def _send_handshake(self) -> None:
        path = self.paths[0]
        payload = encode_frames(self._handshake_frames())
        pn = path.next_packet_number()
        header = PacketHeader(PacketType.HANDSHAKE,
                              dcid=path.remote_cid.cid,
                              scid=path.local_cid.cid, truncated_pn=pn)
        aad = encode_header(header)
        sealed = self.protection.seal(payload, aad, 0, pn)
        self._handshake_sent = True
        self.stats.packets_sent += 1
        path.packets_sent += 1
        path.bytes_sent += len(aad) + len(sealed)
        self._emit(self.net_path_of[0], aad + sealed)
        if self.config.is_client and not self.established:
            if self._handshake_retransmit_event is not None:
                self._handshake_retransmit_event.cancel()
            self._handshake_retransmit_event = self.loop.schedule_after(
                1.0, self._handshake_timeout, label="hs-rtx")

    def _handshake_timeout(self) -> None:
        if not self.established and not self.closed:
            self._send_handshake()

    def retransmit_handshake(self) -> None:
        """Re-send the client handshake immediately (CM rebind support).

        Used when the primary interface dies mid-handshake: the monitor
        rebinds path 0 to another interface and retransmits right away
        instead of waiting out the retransmit timer.
        """
        if self.config.is_client and not self.established and not self.closed:
            self._send_handshake()

    def _on_handshake_packet(self, header: PacketHeader,
                             payload: bytes) -> None:
        frames = decode_frames(payload)
        params: Optional[TransportParameters] = None
        for frame in frames:
            if isinstance(frame, CryptoFrame):
                params = TransportParameters.decode(frame.data)
            elif isinstance(frame, NewConnectionIdFrame):
                self.cids.register_peer(ConnectionId(
                    cid=frame.cid, sequence_number=frame.sequence_number))
        if params is None:
            raise ProtocolViolation("handshake without transport parameters")
        self.peer_params = params
        # Path 0's remote CID is the peer's SCID (sequence 0).
        scid = ConnectionId(cid=header.scid, sequence_number=0)
        self.cids.register_peer(scid)
        self.cids.mark_peer_used(0)
        if self.config.is_client:
            self._finish_handshake(client=True)
        else:
            if 0 not in self.paths:
                raise ProtocolViolation("server path 0 not provisioned")
            self.paths[0].remote_cid = scid
            self._send_handshake()
            self._finish_handshake(client=False)

    def _finish_handshake(self, client: bool) -> None:
        if self.established:
            return
        self.established = True
        self.stats.handshake_completed_at = self.loop.now
        if client and self._handshake_retransmit_event is not None:
            self._handshake_retransmit_event.cancel()
        mine = replace(self.config.transport_params,
                       enable_multipath=self.config.enable_multipath)
        self.multipath_negotiated = TransportParameters.negotiated_multipath(
            mine, self.peer_params)
        self.fc_send.on_peer_update(self.peer_params.initial_max_data)
        path0 = self.paths[0]
        if self.cids.peer_cids.get(0) is not None:
            path0.remote_cid = self.cids.peer_cids[0]
        path0.state = PathState.ACTIVE
        if self.on_established is not None:
            self.on_established()
        self._pump()

    # ------------------------------------------------------------------
    # stream API
    # ------------------------------------------------------------------

    def create_stream(self, priority: int = 0) -> int:
        """Open a new bidirectional stream; returns its id."""
        stream_id = self._next_stream_id
        self._next_stream_id += 4
        self._ensure_send_stream(stream_id, priority)
        return stream_id

    def _ensure_send_stream(self, stream_id: int,
                            priority: int = 0) -> SendStream:
        stream = self.send_streams.get(stream_id)
        if stream is None:
            stream = SendStream(stream_id, priority=priority)
            self.send_streams[stream_id] = stream
            self._stream_queued_offset[stream_id] = 0
            self._fc_stream_send[stream_id] = FlowControlWindow.with_window(
                self.config.transport_params.initial_max_stream_data)
        return stream

    def _ensure_recv_stream(self, stream_id: int) -> ReceiveStream:
        stream = self.recv_streams.get(stream_id)
        if stream is None:
            stream = ReceiveStream(stream_id)
            self.recv_streams[stream_id] = stream
            self._fc_stream_recv[stream_id] = FlowControlWindow.with_window(
                self.config.transport_params.initial_max_stream_data)
        return stream

    def stream_send(self, stream_id: int, data: bytes, fin: bool = False,
                    priority: Optional[int] = None,
                    frame_priority: Optional[int] = None,
                    position: Optional[int] = None,
                    size: Optional[int] = None) -> None:
        """Write application data (XLINK's ``stream_send`` API, Sec. 5.1).

        ``frame_priority`` + ``position``/``size`` mark a byte range
        (e.g. the first video frame) for priority-based re-injection.
        """
        stream = self._ensure_send_stream(
            stream_id, priority if priority is not None else 0)
        if priority is not None:
            stream.priority = priority
        stream.write(data, fin=fin, frame_priority=frame_priority,
                     position=position, size=size)
        self._enqueue_new_data(stream)
        self._pump()

    def _enqueue_new_data(self, stream: SendStream) -> None:
        queued = self._stream_queued_offset[stream.stream_id]
        total = stream.length
        if total <= queued and stream.fin_offset is None:
            return
        # Split the fresh region on frame-priority boundaries so higher
        # priority ranges form their own chunks (used by Fig. 4c logic).
        # priority_segments produces the same boundaries as scanning
        # frame_priority_at byte-by-byte, without the per-byte cost.
        for seg_start, seg_end, prio in stream.priority_segments(queued,
                                                                 total):
            self.send_queue.append(SendChunk(
                stream_id=stream.stream_id, offset=seg_start,
                length=seg_end - seg_start, kind="new",
                stream_priority=stream.priority, frame_priority=prio))
        self._stream_queued_offset[stream.stream_id] = total
        if total == queued and stream.fin_offset is not None:
            # FIN-only write: zero-length chunk to carry the FIN bit.
            self.send_queue.append(SendChunk(
                stream_id=stream.stream_id, offset=total, length=0,
                kind="new", stream_priority=stream.priority,
                frame_priority=stream.frame_priority_at(max(total - 1, 0))))

    def stream_read(self, stream_id: int) -> bytes:
        """Read all in-order bytes available on a receive stream."""
        stream = self.recv_streams.get(stream_id)
        if stream is None:
            return b""
        data = stream.read_available()
        if data:
            self._total_recv_offset += 0  # connection FC advances on receipt
            fc = self._fc_stream_recv[stream_id]
            new_limit = fc.maybe_advance(stream.read_offset)
            if new_limit:
                self._queue_control(self._any_active_path_id(),
                                    MaxStreamDataFrame(stream_id=stream_id,
                                                       maximum=new_limit))
                self._pump()
        return data

    # ------------------------------------------------------------------
    # receive pipeline
    # ------------------------------------------------------------------

    def datagram_received(self, payload: bytes, net_path_id: int = -1) -> None:
        """Entry point for datagrams from the emulated network.

        Never raises.  Hostile or damaged input is counted and dropped
        (truncated headers, AEAD failures, duplicates), or -- for
        authenticated-but-malformed payloads -- answered with a clean
        CONNECTION_CLOSE carrying the matching transport error code.
        """
        for hook in self.receive_hooks:
            hook(payload, net_path_id)
        if self.closed:
            return
        # One view of the datagram; header/AAD/ciphertext slices below
        # are all zero-copy until the AEAD produces the plaintext.
        view = memoryview(payload)
        try:
            header, offset = decode_header(view)
        except QuicError:
            self.stats.malformed_dropped += 1
            self._note_drop("malformed_header", len(payload))
            return
        if header.packet_type is PacketType.HANDSHAKE:
            try:
                plain = self.protection.open(view[offset:],
                                             view[:offset], 0,
                                             header.truncated_pn)
            except ValueError:
                self.stats.corrupted_dropped += 1
                self._note_drop("corrupted", len(payload))
                return
            self.stats.packets_received += 1
            self.last_activity_at = self.loop.now
            # Mid-handshake migration: follow the observed source
            # interface so replies reach a client whose primary
            # interface died before the handshake completed.
            if net_path_id >= 0 and 0 in self.paths \
                    and self.net_path_of.get(0) != net_path_id:
                self.net_path_of[0] = net_path_id
            try:
                self._on_handshake_packet(header, plain)
            except QuicError as exc:
                self._close_on_error(exc)
            except ValueError:
                self.stats.malformed_dropped += 1
                self._note_drop("malformed_handshake", len(payload))
            return
        local = self.cids.lookup_issued(header.dcid)
        if local is None:
            # Unknown DCID: routing noise, or corruption that hit the
            # CID bytes (so authentication was never attempted).
            self.stats.unknown_cid_dropped += 1
            self._note_drop("unknown_cid", len(payload))
            return
        path_id = local.sequence_number
        path = self.paths.get(path_id)
        if path is None:
            path = self._accept_new_path(path_id, net_path_id)
            if path is None:
                return
        pn = reconstruct_pn(header.truncated_pn, path.largest_received_pn)
        try:
            plain = self.protection.open(view[offset:], view[:offset],
                                         path_id, pn)
        except ValueError:
            self.stats.corrupted_dropped += 1
            self._note_drop("corrupted", len(payload))
            return
        # Address migration: if the peer moved this QUIC path onto a
        # different network path (QUIC connection migration, Sec. 2),
        # follow it -- replies go to the observed source.
        if net_path_id >= 0 and self.net_path_of.get(path_id) != net_path_id:
            self.net_path_of[path_id] = net_path_id
        if pn < path.largest_received_pn:
            depth = path.largest_received_pn - pn
            if depth > self.stats.reorder_max_depth:
                self.stats.reorder_max_depth = depth
        if not path.record_received(pn, self.loop.now):
            self.stats.duplicates_suppressed += 1
            self._note_drop("duplicate", len(payload))
            return
        self.stats.packets_received += 1
        self.last_activity_at = self.loop.now
        path.packets_received += 1
        path.bytes_received += len(payload)
        try:
            frames = decode_frames(plain)
        except QuicError as exc:
            # Authenticated but unparseable: a peer (or our own stack)
            # bug, not line noise -- close cleanly per RFC 9000.
            self.stats.frame_decode_errors += 1
            self._note_drop("frame_decode", len(payload))
            self._close_on_error(exc)
            return
        eliciting = any(is_ack_eliciting(f) for f in frames)
        try:
            for frame in frames:
                self._handle_frame(frame, path)
        except QuicError as exc:
            self._close_on_error(exc)
            return
        if eliciting:
            self._eliciting_since_ack[path_id] = \
                self._eliciting_since_ack.get(path_id, 0) + 1
            if self._eliciting_since_ack[path_id] >= ACK_ELICITING_THRESHOLD:
                self._send_ack_for(path)
            else:
                self._arm_ack_timer()
        self._pump()

    def _accept_new_path(self, path_id: int,
                         net_path_id: int) -> Optional[Path]:
        """Server side: first packet on a new DCID creates the path."""
        if not self.multipath_negotiated:
            return None
        if path_id not in self.cids.peer_cids:
            return None
        path = self.add_local_path(
            path_id, net_path_id if net_path_id >= 0 else path_id)
        path.remote_cid = self.cids.peer_cids[path_id]
        self.cids.mark_peer_used(path_id)
        path.state = PathState.ACTIVE
        return path

    def _handle_frame(self, frame: object, path: Path) -> None:
        if isinstance(frame, StreamFrame):
            self._on_stream_frame(frame)
        elif isinstance(frame, AckMpFrame):
            self._on_ack_mp(frame)
        elif isinstance(frame, PathChallengeFrame):
            self._queue_control(path.path_id,
                                PathResponseFrame(data=frame.data))
            if path.state is PathState.PENDING:
                path.state = PathState.ACTIVE
        elif isinstance(frame, PathResponseFrame):
            if path.challenge_data == frame.data:
                path.state = PathState.ACTIVE
                path.challenge_data = None
        elif isinstance(frame, NewConnectionIdFrame):
            self.cids.register_peer(ConnectionId(
                cid=frame.cid, sequence_number=frame.sequence_number))
        elif isinstance(frame, PathStatusFrame):
            self._on_path_status(frame)
        elif isinstance(frame, MaxDataFrame):
            self.fc_send.on_peer_update(frame.maximum)
        elif isinstance(frame, MaxStreamDataFrame):
            fc = self._fc_stream_send.get(frame.stream_id)
            if fc is not None:
                fc.on_peer_update(frame.maximum)
        elif isinstance(frame, QoeControlSignalsFrame):
            self._on_qoe(frame.qoe)
        elif isinstance(frame, ConnectionCloseFrame):
            self.closed = True
            self._cancel_timers()
        elif isinstance(frame, PingFrame):
            pass
        # CRYPTO in 1-RTT and unknown frames are ignored at this layer.

    def _on_stream_frame(self, frame: StreamFrame) -> None:
        stream = self._ensure_recv_stream(frame.stream_id)
        fc = self._fc_stream_recv[frame.stream_id]
        end = frame.offset + len(frame.data)
        fc.check_receive(end)
        prev_high = stream.highest_received
        stream.on_data(frame.offset, frame.data, frame.fin)
        # Connection-level FC charges only novel forward progress.
        if stream.highest_received > prev_high:
            delta = stream.highest_received - prev_high
            self._total_recv_offset += delta
            new_limit = self.fc_recv.maybe_advance(self._total_recv_offset)
            if new_limit:
                self._queue_control(self._any_active_path_id(),
                                    MaxDataFrame(maximum=new_limit))
        if self.on_stream_data is not None:
            self.on_stream_data(frame.stream_id)
        if stream.is_complete and self.on_stream_complete is not None:
            self.on_stream_complete(frame.stream_id)

    def _on_path_status(self, frame: PathStatusFrame) -> None:
        path = self.paths.get(frame.path_id)
        if path is None:
            return
        path.status = frame.status
        if frame.status is PathStatus.ABANDON:
            self._abandon_path_locally(path)
        elif frame.status is PathStatus.STANDBY:
            if path.state is PathState.ACTIVE:
                path.state = PathState.STANDBY
        elif frame.status is PathStatus.AVAILABLE:
            if path.state is PathState.STANDBY:
                path.state = PathState.ACTIVE

    def _on_qoe(self, qoe: QoeSignals) -> None:
        for hook in self.qoe_hooks:
            hook(qoe)
        self.last_qoe = qoe
        self.last_qoe_time = self.loop.now
        if self.scheduler is not None and hasattr(self.scheduler, "on_qoe"):
            self.scheduler.on_qoe(self, qoe)

    # ------------------------------------------------------------------
    # ACK handling
    # ------------------------------------------------------------------

    def _on_ack_mp(self, frame: AckMpFrame) -> None:
        path = self.paths.get(frame.path_id)
        if path is None:
            return
        if frame.qoe is not None:
            self._on_qoe(frame.qoe)
        acked, lost, _rtt = path.loss.on_ack_received(
            frame.ranges, frame.ack_delay_us / 1e6, self.loop.now)
        if path.cc.paced and acked:
            self._feed_rate_samples(path, acked, self.loop.now)
        for pkt in acked:
            if pkt.in_flight:
                path.cc.on_packet_acked(pkt.size, pkt.sent_time,
                                        self.loop.now, path.rtt.smoothed)
            self._on_frames_acked(pkt)
        for pkt in lost:
            if pkt.in_flight:
                path.cc.on_packets_lost(pkt.size, pkt.sent_time,
                                        self.loop.now)
            self._requeue_lost_frames(pkt)
        if self.scheduler is not None and hasattr(self.scheduler, "on_ack"):
            self.scheduler.on_ack(self, path, acked, lost)
        self._arm_loss_timer()

    def _feed_rate_samples(self, path: Path, acked, now: float) -> None:
        """Build per-packet delivery-rate samples for a paced controller.

        ``rate = (delivered_now - pkt.delivered) / (delivered_time -
        pkt.delivered_time)``: bytes delivered over the interval since
        the acked packet left, using the totals the loss detector
        stamped on it at send time.  Samples taken over an app-limited
        send period are flagged so they cannot deflate the bandwidth
        model.
        """
        loss = path.loss
        delivered_now = loss.delivered
        limited_until = loss.app_limited_until
        if limited_until and delivered_now >= limited_until:
            loss.app_limited_until = limited_until = 0
        cc = path.cc
        for pkt in acked:
            if not pkt.in_flight:
                continue
            interval = loss.delivered_time - pkt.delivered_time
            if interval <= 0:
                continue
            cc.on_rate_sample(RateSample(
                delivery_rate=(delivered_now - pkt.delivered) / interval,
                rtt=now - pkt.sent_time,
                delivered=delivered_now,
                pkt_delivered=pkt.delivered,
                acked_bytes=pkt.size,
                now=now,
                app_limited=pkt.delivered < limited_until))

    def _on_frames_acked(self, pkt: SentPacket) -> None:
        for info in pkt.frames_info:
            if info.stream_id < 0:
                continue
            stream = self.send_streams.get(info.stream_id)
            if stream is not None:
                stream.on_acked(info.offset, info.length, info.fin)
                key = (info.stream_id, info.offset, info.length)
                self._reinjected_ranges.pop(key, None)

    def _requeue_lost_frames(self, pkt: SentPacket) -> None:
        """Queue retransmission chunks for lost, still-unacked ranges."""
        for info in pkt.frames_info:
            if info.stream_id < 0:
                continue
            stream = self.send_streams.get(info.stream_id)
            if stream is None:
                continue
            if info.length == 0 and info.fin and not stream.fin_acked:
                self.send_queue.insert(0, SendChunk(
                    stream_id=info.stream_id, offset=info.offset, length=0,
                    kind="rtx", stream_priority=stream.priority,
                    frame_priority=DEFAULT_FRAME_PRIORITY))
                continue
            # Requeue only sub-ranges that are not yet acked.
            missing = stream.acked_ranges.missing_within(
                info.offset, info.offset + info.length)
            for start, end in missing:
                self.send_queue.insert(0, SendChunk(
                    stream_id=info.stream_id, offset=start,
                    length=end - start, kind="rtx",
                    stream_priority=stream.priority,
                    frame_priority=stream.frame_priority_at(start)))

    def _send_ack_for(self, path: Path) -> None:
        """Emit an ACK_MP for ``path`` via the ACK return-path policy."""
        if not path.ack_pending or not path.ack_needed:
            return
        ranges = path.ack_frame_ranges()
        largest = ranges[-1].end
        delay_us = int((self.loop.now - path.largest_recv_time) * 1e6)
        qoe = None
        if self.qoe_provider is not None:
            qoe = self.qoe_provider()
        ack = AckMpFrame(path_id=path.path_id, largest_acked=largest,
                         ack_delay_us=delay_us, ranges=ranges, qoe=qoe)
        carrier = self._ack_carrier_path(path)
        path.ack_needed = False
        self._eliciting_since_ack[path.path_id] = 0
        self.stats.acks_sent += 1
        self._queue_control(carrier.path_id, ack)
        self._flush_control()

    def _ack_carrier_path(self, acked_path: Path) -> Path:
        """Pick the path an ACK_MP travels on (Sec. 5.3, Fig. 8).

        The fastest-path policy skips *suspect* paths (nothing received
        for several RTTs): a frozen smoothed RTT on a blacked-out path
        would otherwise keep attracting acks it can no longer carry.
        """
        if self.config.ack_path_policy == "original":
            return acked_path
        usable = [p for p in self.paths.values()
                  if p.is_active and p.status is PathStatus.AVAILABLE]
        if not usable:
            return acked_path
        fresh = [p for p in usable if not p.is_suspect(self.loop.now)]
        candidates = fresh if fresh else usable
        return min(candidates, key=lambda p: p.rtt.smoothed)

    def _arm_ack_timer(self) -> None:
        if self._ack_timer_event is not None:
            return
        delay = self.config.max_ack_delay

        def fire() -> None:
            self._ack_timer_event = None
            for path in self.paths.values():
                if path.ack_needed:
                    self._send_ack_for(path)

        self._ack_timer_event = self.loop.schedule_after(
            delay, fire, label="ack-delay")

    # ------------------------------------------------------------------
    # send pipeline
    # ------------------------------------------------------------------

    def _any_active_path_id(self) -> int:
        for path in self.paths.values():
            if path.is_active:
                return path.path_id
        return next(iter(self.paths), 0)

    def _queue_control(self, path_id: int, frame: object) -> None:
        self._pending_control.setdefault(path_id, []).append(frame)

    def _flush_control(self) -> None:
        """Send control frames immediately (not congestion-limited)."""
        if not self.established and not self._pending_control:
            return
        for path_id, frames in list(self._pending_control.items()):
            path = self.paths.get(path_id)
            if path is None or path.state is PathState.ABANDONED:
                del self._pending_control[path_id]
                continue
            while frames:
                batch: List[object] = []
                size = 0
                while frames and size < PACKET_PAYLOAD_BUDGET - 64:
                    frame = frames.pop(0)
                    batch.append(frame)
                    size += 48  # conservative per-frame estimate
                self._send_packet(path, batch, in_flight=False)
            del self._pending_control[path_id]

    def _pump(self) -> None:
        """Drive the send pipeline: control frames, then data chunks."""
        if self.closed or not self.established:
            self._flush_control()
            return
        self._flush_control()
        if self.scheduler is None:
            return
        self._fc_rotations = 0
        guard = 0
        while True:
            guard += 1
            if guard > 1_000_000:
                raise RuntimeError("send pump did not converge")
            if not self.send_queue:
                # pkt_send_q drained: give the scheduler its re-injection
                # opportunity (traditional appending mode trigger).
                if hasattr(self.scheduler, "on_queue_empty"):
                    self.scheduler.on_queue_empty(self)
                if not self.send_queue:
                    break
            if self._fc_rotations > len(self.send_queue):
                break  # everything left is flow-control blocked
            chunk = self.send_queue[0]
            if not self._chunk_sendable(chunk):
                self.send_queue.pop(0)
                continue
            path = self.scheduler.select_path(self, chunk)
            if path is None:
                break  # all candidate paths are congestion-limited
            self._send_data_packet(path, chunk)
        if self._any_paced:
            if self.send_queue:
                # Data is waiting: if every candidate path is merely
                # pacing-blocked (not window-blocked), wake the pump at
                # the earliest token release.
                self._arm_pacing_timer()
            else:
                # Queue drained with window to spare: mark the paths
                # app-limited so the quiet period cannot be read as the
                # bottleneck bandwidth.
                for p in self.usable_paths():
                    loss = p.loss
                    if loss.rate_sampling:
                        loss.app_limited_until = \
                            loss.delivered + loss.bytes_in_flight
        self._arm_loss_timer()

    def _chunk_sendable(self, chunk: SendChunk) -> bool:
        """Drop chunks whose data has been fully acked meanwhile."""
        stream = self.send_streams.get(chunk.stream_id)
        if stream is None:
            return False
        if chunk.length == 0:
            return stream.fin_offset is not None and not stream.fin_acked
        if stream.acked_ranges.covers(chunk.offset, chunk.end):
            return False
        return True

    def usable_paths(self) -> List[Path]:
        """Paths the scheduler may place data on."""
        return [p for p in self.paths.values()
                if p.is_active and p.status is PathStatus.AVAILABLE]

    def _send_data_packet(self, path: Path, chunk: SendChunk) -> None:
        """Pack up to a packet's worth of ``chunk`` onto ``path``."""
        stream = self.send_streams[chunk.stream_id]
        budget = PACKET_PAYLOAD_BUDGET
        # Room is measured from the chunk's *current* offset: a queued
        # chunk may be larger than the remaining window and still make
        # partial progress.
        fc_room = min(self.fc_send.sendable(self._total_sent_offset),
                      self._fc_stream_send[chunk.stream_id].sendable(
                          chunk.offset))
        take = min(chunk.length, budget)
        if chunk.kind == "new" and take > 0:
            take = min(take, max(fc_room, 0))
            if take == 0:
                # Flow-control blocked; rotate the chunk to the back.
                # The pump stops once every queued chunk has rotated.
                self._fc_rotations = getattr(self, "_fc_rotations", 0) + 1
                self.send_queue.pop(0)
                self.send_queue.append(chunk)
                return
        data = stream.data_for(chunk.offset, take)
        fin = stream.is_fin_range(chunk.offset, take)
        frame = StreamFrame(stream_id=chunk.stream_id, offset=chunk.offset,
                            data=data, fin=fin)
        info = _SentFrameInfo(stream_id=chunk.stream_id, offset=chunk.offset,
                              length=take, fin=fin, kind=chunk.kind)
        self._send_packet(path, [frame], in_flight=True,
                          frames_info=(info,))
        if chunk.kind == "new":
            self.stats.stream_bytes_new += take
            self._total_sent_offset += take
        elif chunk.kind == "rtx":
            self.stats.stream_bytes_rtx += take
        else:
            self.stats.stream_bytes_reinjected += take
        # Advance or retire the chunk.
        chunk.offset += take
        chunk.length -= take
        if chunk.length <= 0:
            self.send_queue.pop(0)
            if hasattr(self.scheduler, "on_chunk_sent_out"):
                self.scheduler.on_chunk_sent_out(self, chunk, stream)

    def _send_packet(self, path: Path, frames: List[object],
                     in_flight: bool,
                     frames_info: tuple = ()) -> None:
        payload = encode_frames(frames)
        pn = path.next_packet_number()
        # Cached-prefix fast path; byte-identical to encode_header of a
        # ONE_RTT PacketHeader with this DCID and packet number.
        aad = encode_short_header(path.remote_cid.cid, pn)
        sealed = self.protection.seal(payload, aad, path.path_id, pn)
        wire = aad + sealed
        eliciting = any(is_ack_eliciting(f) for f in frames)
        pkt = SentPacket(packet_number=pn, sent_time=self.loop.now,
                         size=len(wire), ack_eliciting=eliciting,
                         in_flight=in_flight, frames_info=frames_info)
        path.loss.on_packet_sent(pkt)
        if in_flight:
            path.cc.on_packet_sent(len(wire), self.loop.now)
        path.packets_sent += 1
        path.bytes_sent += len(wire)
        self.stats.packets_sent += 1
        self._emit(self.net_path_of[path.path_id], wire)

    # ------------------------------------------------------------------
    # re-injection support (called by XLINK scheduler)
    # ------------------------------------------------------------------

    def unacked_ranges(self, stream_id: Optional[int] = None,
                       frame_priority: Optional[int] = None,
                       wanted: Optional[Callable[[Path, float], bool]] = None
                       ) -> List[Tuple[SendChunk, int, float]]:
        """In-flight, not-yet-acked stream ranges (the unacked_q).

        Returns (chunk-template, path_id, sent_time) triples, oldest-
        sent first.  Filters: by stream, and/or by frame priority of
        the range start, and/or by ``wanted(path, sent_time)`` of the
        packet carrying the range (asked once per data packet, before
        any per-range work).  Ranges already re-injected once are
        skipped.
        """
        out: List[Tuple[float, SendChunk, int]] = []
        for path in self.paths.values():
            if path.state is PathState.ABANDONED:
                continue
            for pkt in path.loss.sent.values():
                # most tracked packets carry no stream data (ACK-only)
                if not pkt.frames_info or (
                        wanted is not None
                        and not wanted(path, pkt.sent_time)):
                    continue
                for info in pkt.frames_info:
                    if info.stream_id < 0 or info.length == 0:
                        continue
                    if stream_id is not None and info.stream_id != stream_id:
                        continue
                    stream = self.send_streams.get(info.stream_id)
                    if stream is None:
                        continue
                    if stream.acked_ranges.covers(info.offset,
                                                  info.offset + info.length):
                        continue
                    prio = stream.frame_priority_at(info.offset)
                    if frame_priority is not None and prio != frame_priority:
                        continue
                    key = (info.stream_id, info.offset, info.length)
                    last = self._reinjected_ranges.get(key)
                    if last is not None:
                        # Once-only within a delivery-time window; a
                        # duplicate that is itself overdue (both copies
                        # stuck in overlapping fades) may be retried.
                        ttl = max(self.max_delivery_time(), 0.3)
                        if self.loop.now - last < ttl:
                            continue
                    chunk = SendChunk(
                        stream_id=info.stream_id, offset=info.offset,
                        length=info.length, kind="reinject",
                        stream_priority=stream.priority,
                        frame_priority=prio, exclude_path=path.path_id)
                    out.append((pkt.sent_time, chunk, path.path_id))
        out.sort(key=lambda item: item[0])
        return [(chunk, pid, t) for t, chunk, pid in out]

    def enqueue_reinjection(self, chunk: SendChunk,
                            position: Optional[int] = None) -> None:
        """Insert a re-injection chunk into the send queue.

        ``position=None`` appends (traditional mode, Fig. 4a);
        otherwise the chunk is inserted at the given index (priority
        modes, Fig. 4b/4c).
        """
        key = (chunk.stream_id, chunk.offset, chunk.length)
        last = self._reinjected_ranges.get(key)
        if last is not None \
                and self.loop.now - last < max(self.max_delivery_time(),
                                               0.3):
            return
        if not self._storm_guard_admit(chunk.length):
            return
        self._reinjected_ranges[key] = self.loop.now
        if position is None:
            self.send_queue.append(chunk)
        else:
            self.send_queue.insert(position, chunk)
        for hook in self.reinjection_hooks:
            hook(chunk, position)

    def _storm_guard_admit(self, length: int) -> bool:
        """Cap duplicate bytes per RTT-sized window (storm guard).

        Chaos-grade reordering/duplication can con the re-injection
        logic into amplifying traffic; legitimate XLINK bursts are
        bounded by a stuck path's cwnd and stay far below the budget.
        """
        budget = self.config.reinject_budget_bytes_per_rtt
        if budget <= 0:
            return True
        window = max((p.rtt.smoothed for p in self.paths.values()
                      if p.state is not PathState.ABANDONED), default=0.1)
        window = max(window, 0.05)
        now = self.loop.now
        if now - self._storm_window_start >= window:
            self._storm_window_start = now
            self._storm_window_bytes = 0
        if self._storm_window_bytes + length > budget:
            self.stats.storm_guard_trims += 1
            self.stats.storm_guard_trimmed_bytes += length
            self._note_drop("storm_guard", length)
            return False
        self._storm_window_bytes += length
        return True

    def max_delivery_time(self) -> float:
        """Eq. 1: estimated max delivery time of in-flight packets.

        The paper computes RTT_p + delta_p per path; we additionally
        charge the path's queued backlog (in-flight bytes over the
        path's delivery rate, estimated as cwnd/RTT).  A straggler
        behind 100 KB of queue on a 1 Mbps path is going to take
        ~1 s regardless of its RTT, and the whole point of Eq. 1 is to
        estimate when the in-flight data will actually arrive.
        """
        now = self.loop.now
        times = []
        for p in self.paths.values():
            if p.state is PathState.ABANDONED or not p.loss.has_unacked:
                continue
            base = p.rtt.delivery_time
            srtt = max(p.rtt.smoothed, 1e-3)
            rate = max(p.cc.cwnd / srtt, 1200.0 / srtt)
            backlog = p.loss.bytes_in_flight / rate
            estimate = base + backlog
            # A silent path's frozen RTT says nothing: the time its
            # oldest packet has already waited is a *lower bound* on
            # the delivery time, and it keeps growing while the path
            # stays dark (the Fig. 1a outage signature).
            oldest = p.loss.oldest_unacked()
            if oldest is not None:
                waited = now - oldest.sent_time
                estimate = max(estimate, waited + srtt)
            times.append(estimate)
        return max(times) if times else 0.0

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------

    def _arm_loss_timer(self) -> None:
        if self.closed:
            return
        deadlines = []
        for path in self.paths.values():
            if path.state is PathState.ABANDONED:
                continue
            t = path.loss.next_timer()
            if t is not None:
                deadlines.append(t)
        if not deadlines:
            self._loss_deadline = None
            if self._timer_event is not None:
                self._timer_event.cancel()
                self._timer_event = None
            return
        when = max(min(deadlines), self.loop.now)
        self._loss_deadline = when
        event = self._timer_event
        if event is not None:
            if event.time <= when:
                # Lazy-deadline timer: keep the armed wakeup.  If the
                # live deadline moved later, the wakeup fires stale and
                # _on_loss_timer re-arms -- cheaper than paying a heap
                # cancel+push every time the deadline drifts.
                return
            event.cancel()
        self._timer_event = self.loop.schedule_at(
            when, self._on_loss_timer, label="loss-timer")

    def _arm_pacing_timer(self) -> None:
        """Wake the pump at the earliest pacing-token release.

        Same lazy-deadline discipline as the loss timer: an already
        armed earlier wakeup is kept (it re-arms itself if it fires
        stale) instead of paying a heap cancel+push per deadline move.
        """
        if self.closed:
            return
        now = self.loop.now
        when: Optional[float] = None
        for p in self.usable_paths():
            cc = p.cc
            if not cc.paced or not cc.can_send():
                continue
            t = cc.next_send_time(now)
            if t > now + 1e-9 and (when is None or t < when):
                when = t
        self._pacing_deadline = when
        if when is None:
            return
        event = self._pacing_event
        if event is not None:
            if event.time <= when:
                return
            event.cancel()
        self._pacing_event = self.loop.schedule_at(
            when, self._on_pacing_timer, label="pacing-timer")

    def _on_pacing_timer(self) -> None:
        self._pacing_event = None
        if self.closed:
            return
        deadline = self._pacing_deadline
        if deadline is not None and deadline > self.loop.now + 1e-9:
            # Stale wakeup: the deadline moved later after this event
            # was armed; re-arm without pumping.
            self._arm_pacing_timer()
            return
        self._pump()

    def _on_loss_timer(self) -> None:
        self._timer_event = None
        if self.closed:
            return
        now = self.loop.now
        deadline = self._loss_deadline
        if deadline is not None and deadline > now + 1e-9:
            # Stale wakeup: every deadline moved later after this event
            # was armed, so no path can be due (the per-path checks
            # below use the same 1e-9 slack).  Re-arm from live loss
            # state and return *without* running loss detection or the
            # pump -- exactly what would have happened had the old
            # wakeup been cancelled eagerly.
            self._arm_loss_timer()
            return
        for path in self.paths.values():
            if path.state is PathState.ABANDONED:
                continue
            if path.loss.loss_time is not None \
                    and path.loss.loss_time <= now + 1e-9:
                lost = path.loss.on_loss_timer(now)
                for pkt in lost:
                    if pkt.in_flight:
                        path.cc.on_packets_lost(pkt.size, pkt.sent_time, now)
                    self._requeue_lost_frames(pkt)
                continue
            deadline = path.loss.pto_deadline()
            if deadline is not None and deadline <= now + 1e-9:
                self._on_pto(path)
        self._pump()

    # -- idle timeout ----------------------------------------------------

    def _idle_deadline(self) -> float:
        """When the idle timer would fire, PTO-backoff aware.

        RFC 9000 Sec. 10.1: the effective timeout is at least three
        probe timeouts, so a peer mid-PTO-backoff is not declared idle
        while probes are still legitimately spaced out.  The grace is
        capped at 4x the configured timeout so the exponential PTO
        ceiling (2^10) cannot defer the close by minutes.
        """
        idle = self.config.idle_timeout_s
        pto = 0.0
        for path in self.paths.values():
            if path.state is PathState.ABANDONED:
                continue
            interval = path.rtt.pto(self.config.max_ack_delay) \
                * (2 ** path.loss.pto_count)
            pto = max(pto, interval)
        grace = min(3.0 * pto, 4.0 * idle)
        return self.last_activity_at + max(idle, grace)

    def _on_idle_check(self) -> None:
        self._idle_event = None
        if self.closed or self.config.idle_timeout_s is None:
            return
        deadline = self._idle_deadline()
        if self.loop.now + 1e-9 >= deadline:
            self._on_idle_timeout()
            return
        self._idle_event = self.loop.schedule_at(
            deadline, self._on_idle_check, label="idle-timeout")

    def _on_idle_timeout(self) -> None:
        self.stats.idle_timeouts += 1
        self._note_drop("idle_timeout", 0)
        # RFC 9000 Sec. 10.1: an idle close is silent -- the peer is
        # unreachable, so sending CONNECTION_CLOSE would be pointless.
        self.silent_close()

    def _on_pto(self, path: Path) -> None:
        """Probe timeout: retransmit the oldest unacked data on the path."""
        path.loss.on_pto()
        oldest = path.loss.oldest_unacked()
        if oldest is None:
            return
        probed = False
        for info in oldest.frames_info:
            if info.stream_id < 0:
                continue
            stream = self.send_streams.get(info.stream_id)
            if stream is None:
                continue
            missing = stream.acked_ranges.missing_within(
                info.offset, info.offset + info.length)
            for start, end in missing:
                take = min(end - start, PACKET_PAYLOAD_BUDGET)
                frame = StreamFrame(
                    stream_id=info.stream_id, offset=start,
                    data=stream.data_for(start, take),
                    fin=stream.is_fin_range(start, take))
                fi = _SentFrameInfo(stream_id=info.stream_id, offset=start,
                                    length=take, fin=frame.fin, kind="rtx")
                self._send_packet(path, [frame], in_flight=False,
                                  frames_info=(fi,))
                self.stats.stream_bytes_rtx += take
                probed = True
                break
            if probed:
                break
        if not probed:
            self._send_packet(path, [PingFrame()], in_flight=False)

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------

    def close(self, error_code: int = 0, reason: str = "") -> None:
        if self.closed:
            return
        frame = ConnectionCloseFrame(error_code=error_code, reason=reason)
        for path in self.paths.values():
            if path.is_usable:
                self._queue_control(path.path_id, frame)
                break
        self._flush_control()
        self.closed = True
        self._cancel_timers()

    def silent_close(self) -> None:
        """Tear down local state without notifying the peer.

        Used for idle timeouts and host-side eviction, where the peer
        is gone (or never showed up) and a CONNECTION_CLOSE would just
        be more dead traffic.
        """
        if self.closed:
            return
        self.closed = True
        self._cancel_timers()

    def _close_on_error(self, exc: QuicError) -> None:
        """Terminate with the transport error code carried by ``exc``."""
        self.stats.protocol_error_closes += 1
        self.close(error_code=int(exc.error_code), reason=str(exc))

    def _cancel_timers(self) -> None:
        for event in (self._timer_event, self._ack_timer_event,
                      self._handshake_retransmit_event, self._idle_event,
                      self._pacing_event):
            if event is not None:
                event.cancel()
        self._timer_event = None
        self._ack_timer_event = None
        self._handshake_retransmit_event = None
        self._idle_event = None
        self._pacing_event = None
