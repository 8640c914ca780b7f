"""The ACK seam of a connection: processing the peer's ACK_MP (and the
QoE feedback riding on it) and generating our own.

:class:`AckHandler` is built once per connection.  Incoming: an ACK_MP
runs loss detection on its path, feeds congestion control, releases
acked stream ranges and re-queues lost ones.  Outgoing: an ACK_MP for a
path is built from its pending ranges, trimmed to fit one packet, given
the client's QoE signals and queued on the path the return-path policy
picks; the caller flushes.  Arming the loss timer is the pump's job,
once per datagram, not this module's.
"""

from __future__ import annotations

from typing import Optional

from repro.quic.cc import RateSample
from repro.quic.frames import ACK_MP_FIXED_MAX, AckMpFrame, QoeSignals
from repro.quic.loss_detection import SentPacket
from repro.quic.path import Path, PathState
from repro.quic.send import PACKET_PAYLOAD_BUDGET, SendChunk
from repro.quic.stream import DEFAULT_FRAME_PRIORITY
from repro.quic.varint import varint_size

_ACTIVE = PathState.ACTIVE

#: bytes an ACK_MP alone in its packet has for gap/length pairs
_ACK_PAIRS_ROOM = PACKET_PAYLOAD_BUDGET - ACK_MP_FIXED_MAX


def fit_ack_ranges(ranges: tuple, largest: int) -> tuple:
    """The newest of ``ranges`` (ascending) whose ACK_MP fits one packet.

    A path with permanent loss gaps never forgets a range, so the frame
    would outgrow the packet; the oldest ranges are the ones the peer
    has long since stopped tracking, and they go first.  Below the limit
    the tuple comes back untouched.
    """
    room = _ACK_PAIRS_ROOM
    pairs = len(ranges) - 1
    # No gap or length reaches ``largest``, so none encodes longer.
    if pairs * 16 <= room or pairs * 2 * varint_size(largest) <= room:
        return ranges
    keep = pairs
    prev_start = ranges[-1][0]
    while keep > 0:
        start, end = ranges[keep - 1]
        room -= varint_size(prev_start - end - 2) + varint_size(end - start)
        if room < 0:
            break
        keep -= 1
        prev_start = start
    return ranges[keep:]


class AckHandler:
    """ACK/credit processing and ACK generation for one connection."""

    def __init__(self, conn) -> None:
        self.conn = conn
        self.stats = conn.stats
        self.sender = conn.sender
        self.paths = conn.paths
        self.send_streams = conn.send_streams
        self.send_queue = conn.send_queue

    # ------------------------------------------------------------------
    # incoming: ACK_MP and QoE feedback
    # ------------------------------------------------------------------

    def on_ack_mp(self, frame: AckMpFrame, _path: Path, now: float) -> None:
        """Process the peer's ACK_MP for ``frame.path_id``."""
        path = self.paths.get(frame.path_id)
        if path is None:
            return
        if frame.qoe is not None:
            self.on_qoe(frame.qoe)
        acked, lost, _rtt = path.loss.on_ack_received(
            frame.ranges, frame.ack_delay_us / 1e6, now)
        cc = path.cc
        if acked:
            if cc.paced:
                self._feed_rate_samples(path, acked, now)
            smoothed = path.rtt.smoothed
            for pkt in acked:
                if pkt.in_flight:
                    cc.on_packet_acked(pkt.size, pkt.sent_time, now, smoothed)
                if pkt.frames_info:
                    self.on_frames_acked(pkt)
        for pkt in lost:
            if pkt.in_flight:
                cc.on_packets_lost(pkt.size, pkt.sent_time, now)
            self.requeue_lost(pkt)
        conn = self.conn
        if conn.listeners:
            conn.emit("ack_received", path_id=path.path_id, acked=len(acked),
                      lost=len(lost), smoothed_rtt=path.rtt.smoothed,
                      cwnd=cc.cwnd, bytes_in_flight=path.loss.bytes_in_flight)
        if conn.scheduler is not None:
            conn.scheduler.on_ack(conn, path, acked, lost)

    def on_qoe(self, qoe: QoeSignals) -> None:
        """The peer's QoE feedback: listeners, then the scheduler (Alg. 1)."""
        conn = self.conn
        if conn.listeners:
            conn.emit("feedback_received", cached_bytes=qoe.cached_bytes,
                      cached_frames=qoe.cached_frames, bps=qoe.bps,
                      fps=qoe.fps)
        if conn.scheduler is not None:
            conn.scheduler.on_qoe(conn, qoe)

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
                now=now,
                app_limited=pkt.delivered < limited_until))

    def on_frames_acked(self, pkt: SentPacket) -> None:
        """Release the stream ranges an acked packet carried."""
        for info in pkt.frames_info:
            if info.stream_id < 0:
                continue
            stream = self.send_streams.get(info.stream_id)
            if stream is not None:  # else closed: a late duplicate's ack
                if stream.reinjected:
                    stream.reinjected.pop((info.offset, info.length), None)
                if stream.on_acked(info.offset, info.length, info.fin):
                    self.conn.retire_stream(info.stream_id)

    def requeue_lost(self, pkt: SentPacket) -> None:
        """Queue retransmission chunks for lost, still-unacked ranges,
        and the lost control frames sent again, on an active path."""
        for info in pkt.frames_info:
            if info.stream_id < 0:
                if info.control is not None:
                    self.sender.queue_control(self.conn.active_path_id(),
                                              info.control)
                continue
            stream = self.send_streams.get(info.stream_id)
            if stream is None:
                continue
            if info.length == 0 and info.fin and not stream.fin_acked:
                self.send_queue.insert(0, SendChunk(
                    info.stream_id, info.offset, 0, "rtx", stream.priority,
                    DEFAULT_FRAME_PRIORITY))
                continue
            # Requeue only sub-ranges that are not yet acked.
            for start, end in stream.acked_ranges.missing_within(
                    info.offset, info.offset + info.length):
                self.send_queue.insert(0, SendChunk(
                    info.stream_id, start, end - start, "rtx",
                    stream.priority, stream.frame_priority_at(start)))

    # ------------------------------------------------------------------
    # outgoing: ACK_MP generation
    # ------------------------------------------------------------------

    def queue_ack(self, path: Path, now: float) -> None:
        """Queue an ACK_MP for ``path`` on the ACK return path; the
        caller flushes."""
        if not path.ack_pending or not path.ack_needed:
            return
        ranges, older_wire = path.ack_ranges()
        largest = ranges[-1][1]
        if len(older_wire) > _ACK_PAIRS_ROOM:
            # more gaps than a packet holds: the oldest ranges go, and
            # the encoder works the pairs out from what is left
            ranges, older_wire = fit_ack_ranges(ranges, largest), None
        provider = self.conn.qoe_provider
        ack = AckMpFrame(
            path.path_id, largest,
            int((now - path.largest_recv_time) * 1e6), ranges,
            provider() if provider is not None else None, older_wire)
        carrier = self.carrier_path(path, now)
        path.ack_needed = False
        path.eliciting_since_ack = 0
        self.stats.acks_sent += 1
        self.sender.queue_control(carrier.path_id, ack)

    def carrier_path(self, acked_path: Path, now: float) -> Path:
        """Pick the path an ACK_MP travels on (Sec. 5.3, Fig. 8).

        The fastest-path policy skips *suspect* paths (nothing received
        for several RTTs): a frozen smoothed RTT on a blacked-out path
        would otherwise keep attracting acks it can no longer carry.
        """
        if self.conn.config.ack_path_policy == "original":
            return acked_path
        usable: Optional[Path] = None
        fresh: Optional[Path] = None
        for p in self.paths.values():
            if p.state is not _ACTIVE:
                continue
            smoothed = p.rtt.smoothed
            if usable is None or smoothed < usable.rtt.smoothed:
                usable = p
            if (fresh is None or smoothed < fresh.rtt.smoothed) \
                    and not p.is_suspect(now):
                fresh = p
        if fresh is not None:
            return fresh
        return usable if usable is not None else acked_path
