"""The timer seam of a connection: loss/PTO, pacing, ack-delay, idle.

:class:`Timers` is built once per connection and owns every timer
event except the handshake retransmit (which belongs to the handshake).
The loss and pacing timers are *lazy-deadline* timers: the live
deadline may move later than the armed wakeup, which then fires stale,
re-arms and returns -- cheaper than a heap cancel+push per drift.
"""

from __future__ import annotations

from typing import Optional

from repro.quic.frames import PingFrame, StreamFrame
from repro.quic.path import Path, PathState
from repro.quic.rtt import MAX_ACK_DELAY
from repro.quic.send import PACKET_PAYLOAD_BUDGET, SentFrameInfo

_ABANDONED = PathState.ABANDONED
_ACTIVE = PathState.ACTIVE


class Timers:
    """Arms and fires the timers of one connection."""

    def __init__(self, conn) -> None:
        self.conn = conn
        self.loop = conn.loop
        #: lets a trace tell whose timer fired
        self.connection_name = conn.connection_name
        self.loss_event = None
        #: live loss-timer deadline; the armed event may lag behind it
        self.loss_deadline: Optional[float] = None
        self.pacing_event = None
        self.pacing_deadline: Optional[float] = None
        self.ack_event = None
        self.idle_event = None
        if conn.config.idle_timeout_s is not None:
            self.idle_event = self.loop.schedule_at(
                self.idle_deadline(), self.on_idle_check)

    def cancel_all(self) -> None:
        for event in (self.loss_event, self.ack_event, self.idle_event,
                      self.pacing_event):
            if event is not None:
                event.cancel()
        self.loss_event = self.ack_event = None
        self.idle_event = self.pacing_event = None

    # ------------------------------------------------------------------
    # loss / PTO
    # ------------------------------------------------------------------

    def arm_loss(self) -> None:
        """Point the loss timer at the earliest loss/PTO deadline."""
        conn = self.conn
        if conn.closed:
            return
        when: Optional[float] = None
        for path in conn.paths.values():
            if path.state is _ABANDONED:
                continue
            t = path.loss.next_timer()
            if t is not None and (when is None or t < when):
                when = t
        event = self.loss_event
        if when is None:
            self.loss_deadline = None
            if event is not None:
                event.cancel()
                self.loss_event = None
            return
        now = self.loop.now
        if when < now:
            when = now
        self.loss_deadline = when
        if event is not None:
            if event.time <= when:
                # Lazy-deadline timer: keep the armed wakeup.  If the
                # live deadline moved later, the wakeup fires stale and
                # on_loss_timer re-arms.
                return
            event.cancel()
        self.loss_event = self.loop.schedule_at(when, self.on_loss_timer)

    def on_loss_timer(self) -> None:
        self.loss_event = None
        conn = self.conn
        if conn.closed:
            return
        now = self.loop.now
        deadline = self.loss_deadline
        if deadline is not None and deadline > now + 1e-9:
            # Stale wakeup: every deadline moved later after this event
            # was armed, so no path can be due (the per-path checks
            # below use the same 1e-9 slack).  Re-arm from live loss
            # state and return *without* running loss detection or the
            # pump -- exactly what would have happened had the old
            # wakeup been cancelled eagerly.
            self.arm_loss()
            return
        for path in conn.paths.values():
            if path.state is _ABANDONED:
                continue
            loss = path.loss
            if loss.loss_time is not None and loss.loss_time <= now + 1e-9:
                lost = loss.on_loss_timer(now)
                for pkt in lost:
                    if pkt.in_flight:
                        path.cc.on_packets_lost(pkt.size, pkt.sent_time, now)
                    conn.acks.requeue_lost(pkt)
                conn.emit("loss_timer", path_id=path.path_id, lost=len(lost),
                          cwnd=path.cc.cwnd)
                continue
            deadline = loss.pto_deadline()
            if deadline is not None and deadline <= now + 1e-9:
                self.on_pto(path, now)
        conn.sender.pump(now)

    def on_pto(self, path: Path, now: float) -> None:
        """Probe timeout: retransmit the oldest unacked data on the path."""
        conn = self.conn
        path.loss.on_pto()
        conn.emit("pto", path_id=path.path_id, pto_count=path.loss.pto_count)
        oldest = path.loss.oldest_unacked()
        if oldest is None:
            return
        for info in oldest.frames_info:
            if info.stream_id < 0:
                continue
            stream = conn.send_streams.get(info.stream_id)
            if stream is None:
                continue
            for start, end in stream.acked_ranges.missing_within(
                    info.offset, info.offset + info.length):
                take = min(end - start, PACKET_PAYLOAD_BUDGET)
                fin = stream.is_fin_range(start, take)
                frame = StreamFrame(info.stream_id, start,
                                    stream.data_for(start, take), fin)
                conn.sender.send_packet(
                    path, (frame,), False,
                    (SentFrameInfo(info.stream_id, start, take, fin, "rtx"),),
                    True, now)
                conn.stats.stream_bytes_rtx += take
                return
        conn.sender.send_packet(path, (PingFrame(),), False, (), True, now)

    # ------------------------------------------------------------------
    # pacing
    # ------------------------------------------------------------------

    def arm_pacing(self) -> None:
        """Wake the pump at the earliest pacing-token release (same
        lazy-deadline discipline as the loss timer)."""
        conn = self.conn
        if conn.closed:
            return
        now = self.loop.now
        when: Optional[float] = None
        for p in conn.paths.values():
            cc = p.cc
            if not cc.paced or p.state is not _ACTIVE or not cc.can_send():
                continue
            t = cc.next_send_time(now)
            if t > now + 1e-9 and (when is None or t < when):
                when = t
        self.pacing_deadline = when
        if when is None:
            return
        event = self.pacing_event
        if event is not None:
            if event.time <= when:
                return
            event.cancel()
        self.pacing_event = self.loop.schedule_at(when, self.on_pacing_timer)

    def on_pacing_timer(self) -> None:
        self.pacing_event = None
        if self.conn.closed:
            return
        now = self.loop.now
        deadline = self.pacing_deadline
        if deadline is not None and deadline > now + 1e-9:
            # Stale wakeup: the deadline moved later after this event
            # was armed; re-arm without pumping.
            self.arm_pacing()
            return
        self.conn.sender.pump(now)

    # ------------------------------------------------------------------
    # ack delay
    # ------------------------------------------------------------------

    def arm_ack_delay(self) -> None:
        """Owe an ACK within ``MAX_ACK_DELAY`` (no-op if already armed)."""
        if self.ack_event is None:
            self.ack_event = self.loop.schedule_after(
                MAX_ACK_DELAY, self.on_ack_delay)

    def on_ack_delay(self) -> None:
        self.ack_event = None
        conn = self.conn
        now = self.loop.now
        for path in conn.paths.values():
            if path.ack_needed:
                conn.acks.queue_ack(path, now)
                conn.sender.flush_control(now)

    # ------------------------------------------------------------------
    # idle timeout
    # ------------------------------------------------------------------

    def idle_deadline(self) -> float:
        """When the idle timer would fire, PTO-backoff aware.

        RFC 9000 Sec. 10.1: the effective timeout is at least three
        probe timeouts, so a peer mid-PTO-backoff is not declared idle
        while probes are still legitimately spaced out.  The grace is
        capped at 4x the configured timeout so the exponential PTO
        ceiling (2^10) cannot defer the close by minutes.
        """
        conn = self.conn
        idle = conn.config.idle_timeout_s
        pto = 0.0
        for path in conn.paths.values():
            if path.state is _ABANDONED:
                continue
            interval = path.rtt.pto() * (2 ** path.loss.pto_count)
            pto = max(pto, interval)
        grace = min(3.0 * pto, 4.0 * idle)
        return conn.last_activity_at + max(idle, grace)

    def on_idle_check(self) -> None:
        self.idle_event = None
        conn = self.conn
        if conn.closed or conn.config.idle_timeout_s is None:
            return
        deadline = self.idle_deadline()
        if self.loop.now + 1e-9 >= deadline:
            conn.stats.idle_timeouts += 1
            conn.emit("drop", reason="idle_timeout", size=0)
            # RFC 9000 Sec. 10.1: an idle close is silent -- the peer is
            # unreachable, so sending CONNECTION_CLOSE would be pointless.
            conn.silent_close()
            return
        self.idle_event = self.loop.schedule_at(deadline, self.on_idle_check)
