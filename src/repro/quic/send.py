"""The send seam of a connection: control flush, pump, packet assembly
and the re-injection queue.

:class:`Sender` is built once per :class:`~repro.quic.connection.
Connection` and works on the state the connection owns (paths, streams,
the connection-level window, the send queue); what is private to
sending -- pending control frames, the connection-level sent offset and
the storm-guard window -- lives here, what is per stream on the stream.

Every entry point that can put a packet on the wire takes ``now``: the
caller read the clock once for the datagram, timer or API call it is
serving and hands it down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.quic.cc.base import MAX_DATAGRAM_SIZE
from repro.quic.crypto import TAG_LENGTH
from repro.quic.frames import (ACK_ELICITING, AckMpFrame, PathStatusFrame,
                               StreamFrame, encode_frames)
from repro.quic.loss_detection import SentPacket
from repro.quic.packets import encode_short_header
from repro.quic.path import Path, PathState
from repro.quic.stream import DEFAULT_FRAME_PRIORITY, SendStream

#: Usable payload per packet: datagram budget minus short header and tag.
PACKET_PAYLOAD_BUDGET = MAX_DATAGRAM_SIZE - 13 - TAG_LENGTH - 24

#: Re-injection storm guard: cap on duplicate bytes enqueued per
#: RTT-sized window.  Sized far above legitimate XLINK re-injection
#: bursts (bounded by a stuck path's cwnd), so only chaos-triggered
#: amplification ever trims.
REINJECT_BUDGET_BYTES_PER_RTT = 1_000_000

_ABANDONED = PathState.ABANDONED
_ACTIVE = PathState.ACTIVE


@dataclass(slots=True)
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


@dataclass(slots=True)
class SentFrameInfo:
    """What a sent packet carried, for ack/loss processing: a stream
    range, or (``stream_id`` -1) a control frame to send again if the
    packet is lost."""

    stream_id: int = -1
    offset: int = 0
    length: int = 0
    fin: bool = False
    kind: str = "new"
    control: object = None


class Sender:
    """Turns queued control frames and send chunks into packets."""

    def __init__(self, conn) -> None:
        self.conn = conn
        self.loop = conn.loop
        self.stats = conn.stats
        self.timers = conn.timers
        self.paths: Dict[int, Path] = conn.paths
        self.send_queue: List[SendChunk] = conn.send_queue
        self.send_streams: Dict[int, SendStream] = conn.send_streams
        #: path id -> control frames waiting for the next flush
        self.pending_control: Dict[int, List[object]] = {}
        #: highest connection-level offset charged to ``conn.fc_send``
        self.total_sent_offset = 0
        #: flow-control blocked chunks rotated to the back this pump
        self._fc_rotations = 0
        #: re-injection storm guard window state
        self._storm_window_start = conn.loop.now
        self._storm_window_bytes = 0

    # ------------------------------------------------------------------
    # control frames
    # ------------------------------------------------------------------

    def queue_control(self, path_id: int, frame: object) -> None:
        """Queue a control frame for the next flush on ``path_id``."""
        self.pending_control.setdefault(path_id, []).append(frame)

    def flush_control(self, now: float) -> None:
        """Send control frames immediately (not congestion-limited)."""
        pending = self.pending_control
        if not pending:
            return
        for path_id, frames in list(pending.items()):
            path = self.paths.get(path_id)
            if path is None or path.state is _ABANDONED:
                del pending[path_id]
                continue
            while frames:
                batch: List[object] = []
                # PATH_STATUS is the one control frame sent again when
                # lost: a lost Abandon would leave the peer on the path
                resend: Tuple[SentFrameInfo, ...] = ()
                eliciting = False
                size = 0
                while frames and size < PACKET_PAYLOAD_BUDGET - 64:
                    frame = frames[0]
                    # 48 B covers every control frame but the one that
                    # grows with the path's loss history
                    need = frame.wire_budget() \
                        if type(frame) is AckMpFrame else 48
                    if batch and size + need > PACKET_PAYLOAD_BUDGET:
                        break
                    del frames[0]
                    batch.append(frame)
                    if type(frame) is PathStatusFrame:
                        resend += (SentFrameInfo(control=frame),)
                    eliciting = eliciting or ACK_ELICITING[type(frame)]
                    size += need
                self.send_packet(path, batch, False, resend, eliciting, now)
            del pending[path_id]

    # ------------------------------------------------------------------
    # the pump
    # ------------------------------------------------------------------

    def pump(self, now: float) -> None:
        """Flush control frames, send data chunks until blocked, then arm
        the loss timer once for everything this call put in flight."""
        conn = self.conn
        self.flush_control(now)
        if conn.closed or not conn.established:
            return
        scheduler = conn.scheduler
        if scheduler is not None:
            queue = self.send_queue
            self._fc_rotations = 0
            guard = 0
            while True:
                guard += 1
                if guard > 1_000_000:
                    raise RuntimeError("send pump did not converge")
                if not queue:
                    # pkt_send_q drained: give the scheduler its
                    # re-injection opportunity (appending mode trigger).
                    scheduler.on_queue_empty(conn)
                    if not queue:
                        break
                if self._fc_rotations > len(queue):
                    break  # everything left is flow-control blocked
                chunk = queue[0]
                if not self.chunk_sendable(chunk):
                    queue.pop(0)
                    continue
                path = scheduler.select_path(conn, chunk)
                if path is None:
                    break  # all candidate paths are congestion-limited
                self.send_data_packet(path, chunk, now)
            if queue:
                # Data is waiting: if every candidate path is merely
                # pacing-blocked (not window-blocked), wake the pump at
                # the earliest token release of a paced path.
                self.timers.arm_pacing()
            else:
                # Queue drained with window to spare: mark the paced
                # paths app-limited so the quiet period cannot be read
                # as the bottleneck bandwidth.
                for p in self.paths.values():
                    if p.cc.paced and p.state is _ACTIVE:
                        loss = p.loss
                        loss.app_limited_until = \
                            loss.delivered + loss.bytes_in_flight
        self.timers.arm_loss()

    def chunk_sendable(self, chunk: SendChunk) -> bool:
        """False for chunks whose data has been fully acked meanwhile."""
        stream = self.send_streams.get(chunk.stream_id)
        if stream is None:
            return False
        if chunk.length == 0:
            return stream.fin_offset is not None and not stream.fin_acked
        return not stream.acked_ranges.covers(chunk.offset, chunk.end)

    def enqueue_stream_data(self, stream: SendStream) -> None:
        """Queue ``stream``'s not-yet-queued bytes as ``"new"`` chunks."""
        queued = stream.queued_offset
        total = stream.length
        if total <= queued and stream.fin_offset is None:
            return
        # Split the fresh region on frame-priority boundaries so higher
        # priority ranges form their own chunks (used by Fig. 4c logic).
        for seg_start, seg_end, prio in stream.priority_segments(queued,
                                                                 total):
            self.send_queue.append(SendChunk(
                stream.stream_id, seg_start, seg_end - seg_start, "new",
                stream.priority, prio))
        stream.queued_offset = total
        if total == queued and stream.fin_offset is not None:
            # FIN-only write: zero-length chunk to carry the FIN bit.
            self.send_queue.append(SendChunk(
                stream.stream_id, total, 0, "new", stream.priority,
                stream.frame_priority_at(max(total - 1, 0))))

    # ------------------------------------------------------------------
    # packet assembly
    # ------------------------------------------------------------------

    def send_data_packet(self, path: Path, chunk: SendChunk,
                         now: float) -> None:
        """Pack up to a packet's worth of ``chunk`` onto ``path``."""
        conn = self.conn
        stream_id = chunk.stream_id
        kind = chunk.kind
        stream = self.send_streams[stream_id]
        take = chunk.length
        if take > PACKET_PAYLOAD_BUDGET:
            take = PACKET_PAYLOAD_BUDGET
        if kind == "new" and take > 0:
            # Room is measured from the chunk's *current* offset: a
            # queued chunk may be larger than the remaining window and
            # still make partial progress.
            room = conn.fc_send.sendable(self.total_sent_offset)
            stream_room = stream.fc.sendable(chunk.offset)
            if stream_room < room:
                room = stream_room
            if room < take:
                take = room
            if take == 0:
                # Flow-control blocked; rotate the chunk to the back.
                # The pump stops once every queued chunk has rotated.
                self._fc_rotations += 1
                self.send_queue.pop(0)
                self.send_queue.append(chunk)
                return
        offset = chunk.offset
        fin = stream.is_fin_range(offset, take)
        frame = StreamFrame(stream_id, offset, stream.data_for(offset, take),
                            fin)
        self.send_packet(
            path, (frame,), True,
            (SentFrameInfo(stream_id, offset, take, fin, kind),), True, now)
        if kind == "new":
            self.stats.stream_bytes_new += take
            self.total_sent_offset += take
        elif kind == "rtx":
            self.stats.stream_bytes_rtx += take
        else:
            self.stats.stream_bytes_reinjected += take
        # Advance or retire the chunk.
        chunk.offset = offset + take
        chunk.length -= take
        if chunk.length <= 0:
            self.send_queue.pop(0)
            conn.scheduler.on_chunk_sent_out(conn, chunk, stream)

    def send_packet(self, path: Path, frames, in_flight: bool,
                    frames_info: tuple, eliciting: bool, now: float) -> None:
        """Seal ``frames`` into one 1-RTT packet on ``path`` and emit it.

        ``eliciting`` is the caller's: it made the frames and knows.
        """
        conn = self.conn
        payload = encode_frames(frames)
        pn = path.next_pn
        path.next_pn = pn + 1
        # encode_short_header is byte-identical to encode_header of a
        # ONE_RTT PacketHeader with this DCID and packet number.
        wire = conn.protection.seal(
            payload, encode_short_header(path.remote_cid.cid, pn),
            path.path_id, pn)
        size = len(wire)
        path.loss.on_packet_sent(
            SentPacket(pn, now, size, eliciting, in_flight, frames_info))
        if in_flight:
            path.cc.on_packet_sent(size, now)
        path.bytes_sent += size
        self.stats.packets_sent += 1
        self.send_datagram(conn.net_path_of[path.path_id], wire)

    def send_datagram(self, net_path_id: int, payload: bytes) -> None:
        """Hand a datagram to the network, telling the listeners first."""
        conn = self.conn
        if conn.listeners:
            conn.emit("datagram_sent", net_path=net_path_id, payload=payload)
        conn.transmit(net_path_id, payload)

    # ------------------------------------------------------------------
    # re-injection support (called by the XLINK scheduler)
    # ------------------------------------------------------------------

    def unacked_ranges(self, stream_id: Optional[int] = None,
                       frame_priority: Optional[int] = None,
                       wanted: Optional[Callable[[Path, float], bool]] = None,
                       wanted_oldest_first: bool = False
                       ) -> List[Tuple[SendChunk, int, float]]:
        """In-flight, not-yet-acked stream ranges (the unacked_q).

        Returns (chunk-template, path_id, sent_time) triples, oldest-
        sent first.  Filters: by stream, and/or by frame priority of
        the range start, and/or by ``wanted(path, sent_time)`` of the
        packet carrying the range (asked once per ack-eliciting packet,
        before the packet is looked up).  ``wanted_oldest_first`` says
        ``wanted`` only ever holds for the oldest-sent packets of a
        path, so the walk of that path stops at the first packet it
        rejects.  Ranges already re-injected once are skipped.

        The walk is over each path's ack-eliciting packets: stream data
        always elicits an ACK, and the ACK-only packets a receiver's
        ``sent`` mostly holds never do.
        """
        out: List[Tuple[float, SendChunk, int]] = []
        now = self.loop.now
        for path in self.paths.values():
            if path.state is _ABANDONED:
                continue
            sent = path.loss.sent
            for pn, sent_time in path.loss.eliciting_sent_time.items():
                if wanted is not None and not wanted(path, sent_time):
                    if wanted_oldest_first:
                        break  # send-time order
                    continue
                pkt = sent[pn]
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
                    last = stream.reinjected.get((info.offset, info.length))
                    # Once-only within a delivery-time window; a
                    # duplicate that is itself overdue (both copies
                    # stuck in overlapping fades) may be retried.
                    if last is not None and now - last < max(
                            self.conn.max_delivery_time(), 0.3):
                        continue
                    chunk = SendChunk(
                        info.stream_id, info.offset, info.length, "reinject",
                        stream.priority, prio, path.path_id)
                    out.append((sent_time, chunk, path.path_id))
        out.sort(key=lambda item: item[0])
        return [(chunk, pid, t) for t, chunk, pid in out]

    def enqueue_reinjection(self, chunk: SendChunk,
                            position: Optional[int] = None) -> None:
        """Insert a re-injection chunk into the send queue.

        ``position=None`` appends (traditional mode, Fig. 4a);
        otherwise the chunk is inserted at the given index (priority
        modes, Fig. 4b/4c).
        """
        conn = self.conn
        now = self.loop.now
        stream = self.send_streams.get(chunk.stream_id)
        if stream is None:
            return  # closed since the chunk was made
        key = (chunk.offset, chunk.length)
        last = stream.reinjected.get(key)
        if last is not None \
                and now - last < max(conn.max_delivery_time(), 0.3):
            return
        if not self._storm_guard_admit(chunk.length, now):
            return
        stream.reinjected[key] = now
        if position is None:
            self.send_queue.append(chunk)
        else:
            self.send_queue.insert(position, chunk)
        if conn.listeners:
            conn.emit("reinjection", stream_id=chunk.stream_id,
                      offset=chunk.offset, length=chunk.length,
                      exclude_path=chunk.exclude_path, position=position)

    def _storm_guard_admit(self, length: int, now: float) -> bool:
        """Cap duplicate bytes per RTT-sized window (storm guard).

        Chaos-grade reordering/duplication can con the re-injection
        logic into amplifying traffic; legitimate XLINK bursts are
        bounded by a stuck path's cwnd and stay far below the budget.
        """
        window = max((p.rtt.smoothed for p in self.paths.values()
                      if p.state is not _ABANDONED), default=0.1)
        window = max(window, 0.05)
        if now - self._storm_window_start >= window:
            self._storm_window_start = now
            self._storm_window_bytes = 0
        if self._storm_window_bytes + length > REINJECT_BUDGET_BYTES_PER_RTT:
            self.stats.storm_guard_trims += 1
            self.stats.storm_guard_trimmed_bytes += length
            self.conn.emit("drop", reason="storm_guard", size=length)
            return False
        self._storm_window_bytes += length
        return True
