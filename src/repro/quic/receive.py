"""The receive seam of a connection: one pass per datagram.

:class:`Receiver` is built once per connection.  A datagram is read in
a single pass -- clock read once, one header parse, one AEAD open, one
frame decode, one walk over the frames that both dispatches each by
its exact type and decides whether the packet elicits an ACK -- and
ends in one :meth:`~repro.quic.send.Sender.pump`, which flushes what
the frames queued, sends what the ACK released and arms the loss timer
once.
"""

from __future__ import annotations

from repro.quic.cid import ConnectionId
from repro.quic.errors import QuicError
from repro.quic.frames import (ACK_ELICITING, AckMpFrame,
                               ConnectionCloseFrame, MaxDataFrame,
                               MaxStreamDataFrame, NewConnectionIdFrame,
                               PathChallengeFrame, PathResponseFrame,
                               PathStatus, PathStatusFrame, StreamFrame,
                               decode_frames)
from repro.quic.packets import PacketType, decode_header, reconstruct_pn
from repro.quic.path import Path, PathState

#: Send an ACK after this many ack-eliciting packets (RFC 9000 default 2).
ACK_ELICITING_THRESHOLD = 2

_HANDSHAKE = PacketType.HANDSHAKE


class Receiver:
    """Datagram intake and frame dispatch for one connection."""

    def __init__(self, conn) -> None:
        self.conn = conn
        self.loop = conn.loop
        self.stats = conn.stats
        self.sender = conn.sender
        self.acks = conn.acks
        self.timers = conn.timers
        #: connection-level received offset charged to ``conn.fc_recv``
        self.total_recv_offset = 0
        handlers = {
            StreamFrame: self.on_stream_frame,
            AckMpFrame: self.acks.on_ack_mp,
            PathChallengeFrame: self.on_path_challenge,
            PathResponseFrame: self.on_path_response,
            NewConnectionIdFrame: self.on_new_connection_id,
            PathStatusFrame: self.on_path_status,
            MaxDataFrame: self.on_max_data,
            MaxStreamDataFrame: self.on_max_stream_data,
            ConnectionCloseFrame: self.on_connection_close,
        }
        #: frame type -> (handler or None, ack-eliciting); PING, CRYPTO
        #: in 1-RTT and single-space ACK are ignored at this layer
        self._dispatch = {frame_type: (handlers.get(frame_type), eliciting)
                          for frame_type, eliciting in ACK_ELICITING.items()}

    def detach(self) -> None:
        """Let go of the connection (teardown): the dispatch table's
        bound handlers point back at this receiver, so it goes too."""
        self.conn = None
        self._dispatch = {}

    # ------------------------------------------------------------------
    # the pass
    # ------------------------------------------------------------------

    def on_datagram(self, payload: bytes, net_path_id: int) -> None:
        """Process one datagram from the network.  Never raises."""
        conn = self.conn
        if conn.listeners:
            conn.emit("datagram_received", net_path=net_path_id,
                      payload=payload)
        if conn.closed:
            return
        now = self.loop.now
        stats = self.stats
        try:
            header, offset = decode_header(payload)
        except QuicError:
            stats.malformed_dropped += 1
            conn.emit("drop", reason="malformed_header", size=len(payload))
            return
        if header.packet_type is _HANDSHAKE:
            self._on_handshake_datagram(header, payload, offset,
                                        net_path_id, now)
            return
        local = conn.cids.lookup_issued(header.dcid)
        if local is None:
            # Unknown DCID: routing noise, or corruption that hit the
            # CID bytes (so authentication was never attempted).
            stats.unknown_cid_dropped += 1
            conn.emit("drop", reason="unknown_cid", size=len(payload))
            return
        path_id = local.sequence_number
        path = conn.paths.get(path_id)
        if path is None:
            path = conn.accept_new_path(path_id, net_path_id)
            if path is None:
                return
        largest = path.largest_received_pn
        pn = reconstruct_pn(header.truncated_pn, largest)
        try:
            plain = conn.protection.open(payload, offset, path_id, pn)
        except ValueError:
            stats.corrupted_dropped += 1
            conn.emit("drop", reason="corrupted", size=len(payload))
            return
        # Address migration: if the peer moved this QUIC path onto a
        # different network path (QUIC connection migration, Sec. 2),
        # follow it -- replies go to the observed source.
        if net_path_id >= 0 and conn.net_path_of.get(path_id) != net_path_id:
            conn.net_path_of[path_id] = net_path_id
        if pn < largest and largest - pn > stats.reorder_max_depth:
            stats.reorder_max_depth = largest - pn
        if not path.record_received(pn, now):
            stats.duplicates_suppressed += 1
            conn.emit("drop", reason="duplicate", size=len(payload))
            return
        stats.packets_received += 1
        conn.last_activity_at = now
        path.packets_received += 1
        try:
            frames = decode_frames(plain)
        except QuicError as exc:
            # Authenticated but unparseable: a peer (or our own stack)
            # bug, not line noise -- close cleanly per RFC 9000.
            stats.frame_decode_errors += 1
            conn.emit("drop", reason="frame_decode", size=len(payload))
            conn.close_on_error(exc)
            return
        eliciting = False
        dispatch = self._dispatch
        try:
            for frame in frames:
                handler, elicits = dispatch[type(frame)]
                if handler is not None:
                    handler(frame, path, now)
                if elicits:
                    eliciting = True
        except QuicError as exc:
            conn.close_on_error(exc)
            return
        if eliciting:
            path.eliciting_since_ack += 1
            if path.eliciting_since_ack >= ACK_ELICITING_THRESHOLD:
                self.acks.queue_ack(path, now)
            else:
                self.timers.arm_ack_delay()
        self.sender.pump(now)

    def _on_handshake_datagram(self, header, payload: bytes, offset: int,
                               net_path_id: int, now: float) -> None:
        conn = self.conn
        try:
            plain = conn.protection.open(payload, offset, 0,
                                         header.truncated_pn)
        except ValueError:
            self.stats.corrupted_dropped += 1
            conn.emit("drop", reason="corrupted", size=len(payload))
            return
        self.stats.packets_received += 1
        conn.last_activity_at = now
        # Mid-handshake migration: follow the observed source
        # interface so replies reach a client whose primary
        # interface died before the handshake completed.
        if net_path_id >= 0 and 0 in conn.paths \
                and conn.net_path_of.get(0) != net_path_id:
            conn.net_path_of[0] = net_path_id
        try:
            conn.on_handshake_packet(header, plain)
        except QuicError as exc:
            conn.close_on_error(exc)
        except ValueError:
            self.stats.malformed_dropped += 1
            conn.emit("drop", reason="malformed_handshake", size=len(payload))

    # ------------------------------------------------------------------
    # frame handlers: ``handler(frame, path, now)``
    # ------------------------------------------------------------------

    def on_stream_frame(self, frame: StreamFrame, _path: Path,
                        now: float) -> None:
        conn = self.conn
        stream_id = frame.stream_id
        stream = conn.recv_streams.get(stream_id) \
            or conn.ensure_recv_stream(stream_id)
        if stream is None:
            return  # a late copy of a closed stream's data
        data = frame.data
        stream.fc.check_receive(frame.offset + len(data))
        prev_high = stream.highest_received
        stream.on_data(frame.offset, data, frame.fin)
        # Connection-level FC charges only novel forward progress.
        if stream.highest_received > prev_high:
            self.total_recv_offset += stream.highest_received - prev_high
            new_limit = conn.fc_recv.maybe_advance(self.total_recv_offset)
            if new_limit:
                self.sender.queue_control(conn.active_path_id(),
                                          MaxDataFrame(maximum=new_limit))
        if conn.on_stream_data is not None:
            conn.on_stream_data(stream_id)
        if stream.final_size is not None \
                and conn.on_stream_complete is not None \
                and stream.is_complete:
            conn.on_stream_complete(stream_id)

    def on_path_challenge(self, frame: PathChallengeFrame, path: Path,
                          now: float) -> None:
        self.sender.queue_control(path.path_id,
                                  PathResponseFrame(data=frame.data))
        if path.state is PathState.PENDING:
            path.state = PathState.ACTIVE
            self.conn.path_updated(path, "challenge")

    def on_path_response(self, frame: PathResponseFrame, path: Path,
                         now: float) -> None:
        if path.challenge_data == frame.data:
            path.state = PathState.ACTIVE
            path.challenge_data = None
            self.conn.path_updated(path, "validated")

    def on_new_connection_id(self, frame: NewConnectionIdFrame, _path: Path,
                             now: float) -> None:
        self.conn.cids.register_peer(ConnectionId(
            cid=frame.cid, sequence_number=frame.sequence_number))

    def on_path_status(self, frame: PathStatusFrame, _path: Path,
                       now: float) -> None:
        """The peer retired ``frame.path_id``: drop it here too.  Standby
        and Available are decoded but change nothing."""
        path = self.conn.paths.get(frame.path_id)
        if path is not None and frame.status is PathStatus.ABANDON \
                and path.state is not PathState.ABANDONED:
            self.conn.abandon_path_locally(path)

    def on_max_data(self, frame: MaxDataFrame, _path: Path,
                    now: float) -> None:
        self.conn.fc_send.on_peer_update(frame.maximum)

    def on_max_stream_data(self, frame: MaxStreamDataFrame, _path: Path,
                           now: float) -> None:
        stream = self.conn.send_streams.get(frame.stream_id)
        if stream is not None:  # not opened yet, or closed since
            stream.fc.on_peer_update(frame.maximum)

    def on_connection_close(self, frame: ConnectionCloseFrame, _path: Path,
                            now: float) -> None:
        self.conn.closed = True
        self.conn.cancel_timers()
