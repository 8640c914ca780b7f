"""The QUIC connection: the façade over one endpoint's transport state.

:class:`Connection` owns the state -- configuration and stats, the CID
registry and packet protection, paths, streams and flow-control
windows, the send queue, the application callbacks and the one list of
listeners every event reaches through :meth:`Connection.emit` -- and
the parts of the protocol that are about that state rather than about a
packet: the 1-RTT handshake with the
``enable_multipath`` transport parameter (Fig. 9), path lifecycle
(NEW_CONNECTION_ID supply, PATH_CHALLENGE / PATH_RESPONSE validation,
abandon, single-path *connection migration* for the CM baseline), the
stream API with XLINK's frame-priority annotations, and shutdown.

QoE feedback rides ACK_MP.  :meth:`Connection.abandon_path` retires a
path here and sends PATH_STATUS Abandon (sent again if lost), on which
the peer drops it too (:meth:`Connection.abandon_path_locally`).

Everything a datagram triggers is done by four collaborators built
once per connection, each behind public entry points:

- :class:`~repro.quic.receive.Receiver` -- the one pass per datagram
  and frame dispatch;
- :class:`~repro.quic.ack.AckHandler` -- ACK_MP / QoE processing and
  ACK generation;
- :class:`~repro.quic.send.Sender` -- control flush, the pump, packet
  assembly and the re-injection queue;
- :class:`~repro.quic.timers.Timers` -- loss/PTO, pacing, ack-delay
  and idle timers.

The connection is sans-IO towards the network: it consumes datagram
payloads via :meth:`Connection.datagram_received` and emits them
through the ``transmit(net_path_id, payload)`` callback, which the
experiment harness wires to :mod:`repro.netem`.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional

from repro.quic.ack import AckHandler
from repro.quic.cc import make_cc, make_coordinator
from repro.quic.cid import CidRegistry, ConnectionId
from repro.quic.config import (ConnectionConfig, ConnectionStats,
                               aggregate_robustness, derive_initial_dcid)
from repro.quic.crypto import PacketProtection, derive_connection_key
from repro.quic.errors import (ProtocolViolation, QuicError,
                               StreamStateError)
from repro.quic.flow_control import FlowControlWindow
from repro.quic.frames import (ConnectionCloseFrame, CryptoFrame,
                               MaxStreamDataFrame, NewConnectionIdFrame,
                               PathChallengeFrame, PathStatus,
                               PathStatusFrame, PingFrame, QoeSignals,
                               decode_frames, encode_frames)
from repro.quic.packets import PacketHeader, PacketType, encode_header
from repro.quic.path import Path, PathState
from repro.quic.receive import Receiver
from repro.quic.send import SendChunk, Sender
from repro.quic.stream import ReceiveStream, SendStream, _RangeSet
from repro.quic.timers import Timers
from repro.quic.transport_params import TransportParameters
from repro.sim.event_loop import EventLoop
from repro.sim.rng import make_rng
from repro.traces.radio_profiles import RadioType

#: ``ConnectionConfig`` & co. and ``SendChunk`` are imported from here
__all__ = ["Connection", "ConnectionConfig", "ConnectionStats", "SendChunk",
           "aggregate_robustness", "derive_initial_dcid"]

#: CIDs issued at the handshake beyond the first, one per further path
#: a peer may open (max paths - 1)
EXTRA_CIDS = 4

_ACTIVE = PathState.ACTIVE
_ABANDONED = PathState.ABANDONED


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

        #: the halves of every *open* stream: the only per-stream state
        self.send_streams: Dict[int, SendStream] = {}
        self.recv_streams: Dict[int, ReceiveStream] = {}
        #: closed streams as ``[id, id + 4)`` ranges, one set per
        #: initiator: ids are dense, so these stay O(open holes)
        self._closed = (_RangeSet(), _RangeSet())
        self._stream_window = TransportParameters.initial_max_stream_data
        self._next_stream_id = 0 if config.is_client else 1
        #: the packet send queue (the paper's pkt_send_q)
        self.send_queue: List[SendChunk] = []

        window = TransportParameters.initial_max_data
        self.fc_send = FlowControlWindow.with_window(window)
        self.fc_recv = FlowControlWindow.with_window(window)

        #: client QoE provider -> QoeSignals or None (set by video player)
        self.qoe_provider: Optional[Callable[[], Optional[QoeSignals]]] = None

        #: callbacks
        self.on_established: Optional[Callable[[], None]] = None
        self.on_stream_data: Optional[Callable[[int], None]] = None
        self.on_stream_complete: Optional[Callable[[int], None]] = None

        #: observers, ``listener(kind, fields)``: the supported way to
        #: watch a connection without wrapping its methods (tracers, the
        #: CM monitor, tests).  :data:`repro.quic.trace.EVENTS` lists
        #: every kind and where it is emitted.
        self.listeners: List[Callable[[str, dict], None]] = []

        self._handshake_retransmit_event = None
        self._next_challenge = 0
        #: virtual time of the last authenticated packet (idle timer)
        self.last_activity_at = loop.now

        #: the collaborators that do the per-datagram work on this state
        self.timers = Timers(self)
        self.sender = Sender(self)
        self.acks = AckHandler(self)
        self.receiver = Receiver(self)
        #: the scheduler's re-injection API (unacked_q, pkt_send_q insert)
        self.unacked_ranges = self.sender.unacked_ranges
        self.enqueue_reinjection = self.sender.enqueue_reinjection

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------

    def emit(self, kind: str, **fields) -> None:
        """Tell every listener that ``kind`` happened.  Sites on the
        per-packet path test ``listeners`` first, so an unobserved
        connection pays one truthiness check there and builds nothing."""
        for listener in self.listeners:
            listener(kind, fields)

    def path_updated(self, path: Path, cause: str) -> None:
        """Emit ``path_updated`` after ``path``'s state moved."""
        if self.listeners:
            self.emit("path_updated", path_id=path.path_id,
                      state=path.state.value,
                      bytes_in_flight=path.loss.bytes_in_flight, cause=cause)

    # ------------------------------------------------------------------
    # path lifecycle
    # ------------------------------------------------------------------

    def _make_cc(self):
        if self._cc_coordinator is not None:
            return make_cc(self.config.cc_algorithm,
                           coordinator=self._cc_coordinator)
        return make_cc(self.config.cc_algorithm)

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
        path = Path(path_id, local_cid, remote, self._make_cc(), radio=radio)
        self.paths[path_id] = path
        self.net_path_of[path_id] = net_path_id
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
        path.state = PathState.VALIDATING
        challenge = self._next_challenge.to_bytes(8, "big")
        self._next_challenge += 1
        path.challenge_data = challenge
        self.path_updated(path, "open")
        self.sender.queue_control(path_id, PathChallengeFrame(data=challenge))
        self.pump()
        return path

    def accept_new_path(self, path_id: int,
                        net_path_id: int) -> Optional[Path]:
        """Server side: first packet on a new DCID creates the path."""
        if not self.multipath_negotiated:
            return None
        if path_id not in self.cids.peer_cids:
            return None
        path = self.add_local_path(
            path_id, net_path_id if net_path_id >= 0 else path_id)
        path.remote_cid = self.cids.peer_cids[path_id]
        path.state = _ACTIVE
        self.path_updated(path, "accept")
        return path

    def abandon_path(self, path_id: int) -> None:
        """Retire ``path_id`` (its interface went away): drop it here and
        tell the peer with PATH_STATUS Abandon on an active path."""
        self.abandon_path_locally(self.paths[path_id])
        self.sender.queue_control(self.active_path_id(), PathStatusFrame(
            path_id=path_id, status=PathStatus.ABANDON))
        self.pump()

    def abandon_path_locally(self, path: Path) -> None:
        """Drop ``path`` without telling the peer (the peer asked for it
        with PATH_STATUS Abandon, or :meth:`abandon_path` tells it)."""
        path.state = _ABANDONED
        # listeners see what the path still holds as it goes
        self.path_updated(path, "abandon")
        # Lost-in-limbo data on this path must be retransmitted
        # elsewhere; every in-flight byte is released to congestion
        # control and the path's loss timer is cleared so an abandoned
        # path can never fire a stale deadline.
        for pkt in path.loss.discard_all():
            path.cc.on_discarded(pkt.size if pkt.in_flight else 0)
            self.acks.requeue_lost(pkt)
        self.timers.arm_loss()

    def send_ping(self, path_id: int) -> None:
        """Send a PING on ``path_id`` (path liveness probe)."""
        path = self.paths.get(path_id)
        if path is None or path.state is _ABANDONED or self.closed:
            return
        self.sender.send_packet(path, (PingFrame(),), False, (), True,
                                self.loop.now)

    def migrate(self, new_path_id: int) -> None:
        """QUIC connection migration (CM baseline): single active path,
        congestion state reset on the new path (Sec. 2, 'Road to QUIC')."""
        new_path = self.paths[new_path_id]
        for path in self.paths.values():
            if path.path_id != new_path_id and path.is_usable:
                path.state = PathState.STANDBY
                self.path_updated(path, "migrate")
        new_path.state = _ACTIVE
        new_path.cc.reset()
        self.path_updated(new_path, "migrate")
        self.pump()

    def active_path_id(self) -> int:
        """An active path's id (any path's, or 0, when none is)."""
        for path in self.paths.values():
            if path.state is _ACTIVE:
                return path.path_id
        return next(iter(self.paths), 0)

    def any_overdue(self, now: float) -> bool:
        """Is the oldest ack-eliciting packet of some live path overdue
        (:meth:`Path.is_overdue`)?

        One look per path.  An overdue-only walk of the unacked_q can
        find nothing unless this holds: a path's packets are in send
        order, and overdue can only turn false as send times grow.
        """
        for p in self.paths.values():
            times = p.loss.eliciting_sent_time
            if times and p.state is not _ABANDONED \
                    and p.is_overdue(next(iter(times.values())), now):
                return True
        return False

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
        longest = 0.0
        for p in self.paths.values():
            loss = p.loss
            if p.state is _ABANDONED or not loss.has_unacked:
                continue
            srtt = p.rtt.smoothed if p.rtt.smoothed > 1e-3 else 1e-3
            rate = (p.cc.cwnd if p.cc.cwnd > 1200.0 else 1200.0) / srtt
            estimate = p.rtt.delivery_time + loss.bytes_in_flight / rate
            # A silent path's frozen RTT says nothing: the time its
            # oldest packet has already waited is a *lower bound* on
            # the delivery time, and it keeps growing while the path
            # stays dark (the Fig. 1a outage signature).
            oldest = loss.oldest_unacked()
            if oldest is not None:
                waited = now - oldest.sent_time + srtt
                if waited > estimate:
                    estimate = waited
            if estimate > longest:
                longest = estimate
        return longest

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
        params = TransportParameters(
            enable_multipath=self.config.enable_multipath)
        frames: List[object] = [CryptoFrame(offset=0, data=params.encode())]
        for seq in range(1, 1 + EXTRA_CIDS):
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
        wire = self.protection.seal(payload, encode_header(header), 0, pn)
        self.stats.packets_sent += 1
        path.bytes_sent += len(wire)
        self.sender.send_datagram(self.net_path_of[0], wire)
        if self.config.is_client and not self.established:
            if self._handshake_retransmit_event is not None:
                self._handshake_retransmit_event.cancel()
            self._handshake_retransmit_event = self.loop.schedule_after(
                1.0, self.retransmit_handshake)

    def retransmit_handshake(self) -> None:
        """Re-send the client handshake now (retransmit timer, CM rebind).

        Also used when the primary interface dies mid-handshake: the
        monitor rebinds path 0 to another interface and retransmits
        right away instead of waiting out the retransmit timer.
        """
        if self.config.is_client and not self.established and not self.closed:
            self._send_handshake()

    def on_handshake_packet(self, header: PacketHeader,
                            payload: bytes) -> None:
        """Process an authenticated handshake payload (from the receiver)."""
        params: Optional[TransportParameters] = None
        for frame in decode_frames(payload):
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
        if not self.config.is_client:
            if 0 not in self.paths:
                raise ProtocolViolation("server path 0 not provisioned")
            self.paths[0].remote_cid = scid
            self._send_handshake()
        self._finish_handshake()

    def _finish_handshake(self) -> None:
        if self.established:
            return
        self.established = True
        self.stats.handshake_completed_at = self.loop.now
        if self.config.is_client \
                and self._handshake_retransmit_event is not None:
            self._handshake_retransmit_event.cancel()
        mine = TransportParameters(
            enable_multipath=self.config.enable_multipath)
        self.multipath_negotiated = TransportParameters.negotiated_multipath(
            mine, self.peer_params)
        self.fc_send.on_peer_update(self.peer_params.initial_max_data)
        path0 = self.paths[0]
        if self.cids.peer_cids.get(0) is not None:
            path0.remote_cid = self.cids.peer_cids[0]
        path0.state = _ACTIVE
        self.path_updated(path0, "handshake")
        if self.on_established is not None:
            self.on_established()
        self.pump()

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
            if self.stream_closed(stream_id):
                raise StreamStateError(f"stream {stream_id} is closed")
            stream = self.send_streams[stream_id] = SendStream(
                stream_id, priority, self._stream_window)
        return stream

    def ensure_recv_stream(self, stream_id: int) -> Optional[ReceiveStream]:
        """The receive half of ``stream_id``; None once it has closed."""
        stream = self.recv_streams.get(stream_id)
        if stream is None and not self.stream_closed(stream_id):
            stream = self.recv_streams[stream_id] = ReceiveStream(
                stream_id, self._stream_window)
        return stream

    def stream_closed(self, stream_id: int) -> bool:
        """True if ``stream_id`` was open once and has been retired."""
        return self._closed[stream_id & 1].covers(stream_id, stream_id + 1)

    def stream_finished(self, stream_id: int) -> bool:
        """True once the peer's half was read to its end, closed or not."""
        stream = self.recv_streams.get(stream_id)
        return stream.fully_read if stream else self.stream_closed(stream_id)

    def retire_stream(self, stream_id: int) -> None:
        """Forget ``stream_id`` if it is closed (RFC 9000 Sec. 3.4): send
        half fully acked, receive half read to its end.  Only its id stays,
        so late frames are ignored; a one-directional stream never closes."""
        send = self.send_streams.get(stream_id)
        recv = self.recv_streams.get(stream_id)
        if send and recv and recv.fully_read and send.fully_acked:
            del self.send_streams[stream_id], self.recv_streams[stream_id]
            self._closed[stream_id & 1].add(stream_id, stream_id + 4)

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
        self.sender.enqueue_stream_data(stream)
        self.sender.pump(self.loop.now)

    def stream_read(self, stream_id: int) -> bytes:
        """Read all in-order bytes available on a receive stream."""
        stream = self.recv_streams.get(stream_id)
        if stream is None:
            return b""
        data = stream.read_available()
        if data:
            # Stream credit returns as the application consumes;
            # connection-level credit advanced on receipt.
            new_limit = stream.fc.maybe_advance(stream.read_offset)
            if new_limit:
                self.sender.queue_control(
                    self.active_path_id(),
                    MaxStreamDataFrame(stream_id=stream_id,
                                       maximum=new_limit))
                self.sender.pump(self.loop.now)
        if stream.read_offset == stream.final_size:  # ``fully_read``, inline
            self.retire_stream(stream_id)
        return data

    # ------------------------------------------------------------------
    # the per-datagram work, delegated
    # ------------------------------------------------------------------

    def datagram_received(self, payload: bytes, net_path_id: int = -1) -> None:
        """Entry point for datagrams from the emulated network.

        Never raises.  Hostile or damaged input is counted and dropped
        (truncated headers, AEAD failures, duplicates), or -- for
        authenticated-but-malformed payloads -- answered with a clean
        CONNECTION_CLOSE carrying the matching transport error code.
        """
        self.receiver.on_datagram(payload, net_path_id)

    def pump(self) -> None:
        """Drive the send pipeline: control frames, then data chunks."""
        self.sender.pump(self.loop.now)

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------

    def close(self, error_code: int = 0, reason: str = "") -> None:
        if self.closed:
            return
        frame = ConnectionCloseFrame(error_code=error_code, reason=reason)
        for path in self.paths.values():
            if path.is_usable:
                self.sender.queue_control(path.path_id, frame)
                break
        self.sender.flush_control(self.loop.now)
        self.closed = True
        self.cancel_timers()

    def silent_close(self) -> None:
        """Tear down local state without notifying the peer.

        Used for idle timeouts and host-side eviction, where the peer
        is gone (or never showed up) and a CONNECTION_CLOSE would just
        be more dead traffic.
        """
        if self.closed:
            return
        self.closed = True
        self.cancel_timers()

    def close_on_error(self, exc: QuicError) -> None:
        """Terminate with the transport error code carried by ``exc``."""
        self.stats.protocol_error_closes += 1
        self.close(error_code=int(exc.error_code), reason=str(exc))

    def cancel_timers(self) -> None:
        if self._handshake_retransmit_event is not None:
            self._handshake_retransmit_event.cancel()
            self._handshake_retransmit_event = None
        self.timers.cancel_all()

    def teardown(self) -> None:
        """Drop every edge that leads back to this connection, once its
        session is over, so refcounting frees it with its world.

        Those edges are the timer events, the listeners and ``on_*`` /
        ``qoe_provider`` callbacks its application handed it, the
        scheduler (an armed monitor holds the connection) and the four
        collaborators' ``conn``.  Stats, paths and streams stay
        readable; the connection can no longer send or receive.
        """
        self.cancel_timers()
        self.listeners.clear()
        self.on_established = self.on_stream_data = None
        self.on_stream_complete = self.qoe_provider = None
        self.scheduler = None
        self.receiver.detach()
        for part in (self.sender, self.acks, self.timers):
            part.conn = None
