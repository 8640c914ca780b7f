"""Unit tests for the batched-pump scheduling primitives.

Two layers of the run-until-blocked rework are pinned here:

- ``EventLoop.run(stop_before=...)`` and ``request_stop()`` -- the
  drain-until-blocked driver contract (the boundary event still runs,
  a stop request halts after the current callback, the flag resets).
- the lazy-deadline loss timer in ``repro.quic.timers.Timers`` -- when
  the live deadline moves *later* than an armed wakeup, the old wakeup
  is kept and must fire stale: re-check, re-arm, and return **without**
  running loss detection or the pump early.
"""

import pytest

from repro.sim import EventLoop
from tests.test_connection import build_pair, two_path_net


class TestRunStopBefore:
    def test_boundary_event_still_executes(self):
        # stop_before replicates `while loop.now < t: step()`: the
        # event that carries the clock to (or past) the boundary runs.
        loop = EventLoop()
        fired = []
        for t in (1.0, 2.0, 3.0):
            loop.schedule_at(t, lambda t=t: fired.append(t))
        loop.run(stop_before=2.0)
        assert fired == [1.0, 2.0]
        assert loop.now == 2.0
        loop.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_event_past_boundary_executes_once(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(1.0, lambda: fired.append(1.0))
        loop.schedule_at(2.5, lambda: fired.append(2.5))
        loop.schedule_at(2.7, lambda: fired.append(2.7))
        loop.run(stop_before=2.0)
        # 1.0 runs (clock 1.0 < 2.0), then 2.5 runs and carries the
        # clock past the boundary; 2.7 must wait.
        assert fired == [1.0, 2.5]
        assert loop.now == 2.5

    def test_clock_at_boundary_runs_nothing(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(1.0, lambda: fired.append(1.0))
        loop.run(stop_before=2.0)
        assert loop.now == 1.0
        loop.schedule_at(3.0, lambda: fired.append(3.0))
        loop.run(stop_before=1.0)  # clock already at the boundary
        assert fired == [1.0]
        assert loop.now == 1.0

    def test_request_stop_halts_after_current_callback(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(1.0, lambda: (fired.append(1.0),
                                       loop.request_stop()))
        loop.schedule_at(2.0, lambda: fired.append(2.0))
        loop.run()
        assert fired == [1.0]
        assert loop.now == 1.0  # later events untouched, clock held
        # The flag resets at run() entry: the next run drains normally.
        loop.run()
        assert fired == [1.0, 2.0]

    def test_request_stop_same_timestamp_burst(self):
        # A stop raised mid-burst stops between same-time events, and
        # the remainder of the burst survives for the next run.
        loop = EventLoop()
        fired = []
        loop.schedule_at(1.0, lambda: (fired.append("a"),
                                       loop.request_stop()))
        loop.schedule_at(1.0, lambda: fired.append("b"))
        loop.run()
        assert fired == ["a"]
        loop.run()
        assert fired == ["a", "b"]


class TestLazyLossTimer:
    """Stale wakeups must not fire loss detection early."""

    def _idle_pair(self):
        loop = EventLoop()
        net = two_path_net(loop)
        client, server = build_pair(loop, net)
        client.connect()
        loop.run(until=1.0)
        assert client.established
        # Quiesce: drop whatever timer the handshake left armed so the
        # test controls the schedule exactly.
        if client.timers.loss_event is not None:
            client.timers.loss_event.cancel()
            client.timers.loss_event = None
        client.timers.loss_deadline = None
        return loop, client

    def test_later_deadline_keeps_armed_event(self, monkeypatch):
        loop, client = self._idle_pair()
        path = client.paths[0]
        d1, d2 = loop.now + 0.05, loop.now + 0.15
        monkeypatch.setattr(path.loss, "next_timer", lambda: d1)
        client.timers.arm_loss()
        event = client.timers.loss_event
        assert event is not None and event.time == pytest.approx(d1)
        # Deadline drifts later: lazily keep the early wakeup instead
        # of paying a heap cancel+push.
        monkeypatch.setattr(path.loss, "next_timer", lambda: d2)
        client.timers.arm_loss()
        assert client.timers.loss_event is event
        assert client.timers.loss_deadline == pytest.approx(d2)

    def test_earlier_deadline_reschedules(self, monkeypatch):
        loop, client = self._idle_pair()
        path = client.paths[0]
        d1, d2 = loop.now + 0.15, loop.now + 0.05
        monkeypatch.setattr(path.loss, "next_timer", lambda: d1)
        client.timers.arm_loss()
        event = client.timers.loss_event
        # Deadline moves *earlier*: laziness would fire late, so the
        # old event must be cancelled and a new one scheduled.
        monkeypatch.setattr(path.loss, "next_timer", lambda: d2)
        client.timers.arm_loss()
        assert client.timers.loss_event is not event
        assert event.cancelled
        assert client.timers.loss_event.time == pytest.approx(d2)

    def test_stale_wakeup_rearms_without_firing(self, monkeypatch):
        loop, client = self._idle_pair()
        path = client.paths[0]
        d1, d2 = loop.now + 0.05, loop.now + 0.15

        pto_calls = []
        loss_calls = []
        monkeypatch.setattr(client.timers, "on_pto",
                            lambda p, now: pto_calls.append(now))
        monkeypatch.setattr(path.loss, "on_loss_timer",
                            lambda now: (loss_calls.append(now), [])[1])

        monkeypatch.setattr(path.loss, "next_timer", lambda: d1)
        client.timers.arm_loss()
        monkeypatch.setattr(path.loss, "next_timer", lambda: d2)
        client.timers.arm_loss()  # keeps the d1 wakeup, live deadline d2

        # The d1 wakeup fires stale: it must re-check the live
        # deadline, re-arm at d2 and return without loss detection.
        loop.run(until=(d1 + d2) / 2)
        assert pto_calls == [] and loss_calls == []
        assert client.timers.loss_event is not None
        assert client.timers.loss_event.time == pytest.approx(d2)

        # At the *live* deadline the timer body finally runs: the
        # path is not in loss-time state, so it takes the PTO branch.
        # next_timer now reports nothing due, so the post-fire re-arm
        # goes quiet instead of spinning a zero-delay timer.
        monkeypatch.setattr(path.loss, "pto_deadline", lambda: d2)
        monkeypatch.setattr(path.loss, "next_timer", lambda: None)
        assert path.loss.loss_time is None
        loop.run(until=d2 + 0.01)
        assert pto_calls == [pytest.approx(d2)]
        assert loss_calls == []

    def test_no_deadline_cancels_event(self, monkeypatch):
        loop, client = self._idle_pair()
        path = client.paths[0]
        monkeypatch.setattr(path.loss, "next_timer",
                            lambda: loop.now + 0.05)
        client.timers.arm_loss()
        event = client.timers.loss_event
        # All packets acked: no deadline anywhere -> eager cancel (a
        # stale no-op wakeup would be harmless but pointless).
        monkeypatch.setattr(path.loss, "next_timer", lambda: None)
        client.timers.arm_loss()
        assert client.timers.loss_event is None
        assert client.timers.loss_deadline is None
        assert event.cancelled
