"""Tests for the discrete-event engine."""

import pytest

from repro.sim import EventLoop, SimulationError, event_loop, make_rng
from repro.sim.rng import derive_seed


class TestClock:
    """``EventLoop.now`` is the only clock."""

    def test_starts_at_zero(self):
        assert EventLoop().now == 0.0

    def test_custom_start(self):
        """``run(until=)`` past a pending event starts the world later."""
        loop = EventLoop()
        loop.schedule_at(10.0, lambda: None)
        assert loop.run(until=5.0) == 5.0
        assert loop.now == 5.0
        seen = []
        loop.schedule_after(1.0, lambda: seen.append(loop.now))
        loop.run(until=7.0)
        assert seen == [6.0]

    def test_cannot_go_backwards(self):
        loop = EventLoop()
        loop.schedule_at(20.0, lambda: None)
        loop.run(until=10.0)
        with pytest.raises(ValueError):
            loop.run(until=9.0)
        assert loop.now == 10.0

    def test_cannot_go_backwards_once_drained(self):
        loop = EventLoop()
        loop.schedule_at(1.0, lambda: None)
        assert loop.run() == 1.0
        with pytest.raises(ValueError):
            loop.run(until=0.5)
        assert loop.now == 1.0

    def test_cannot_go_backwards_past_cancelled_events(self):
        loop = EventLoop()
        loop.schedule_at(1.0, lambda: None)
        loop.run()
        loop.schedule_at(3.0, lambda: None).cancel()
        with pytest.raises(ValueError):
            loop.run(until=0.5)
        assert loop.now == 1.0


class TestEventLoop:
    def test_runs_events_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule_at(2.0, lambda: order.append("b"))
        loop.schedule_at(1.0, lambda: order.append("a"))
        loop.schedule_at(3.0, lambda: order.append("c"))
        loop.run()
        assert order == ["a", "b", "c"]

    def test_ties_run_in_insertion_order(self):
        loop = EventLoop()
        order = []
        for name in "abcde":
            loop.schedule_at(1.0, lambda n=name: order.append(n))
        loop.run()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self):
        loop = EventLoop()
        seen = []
        loop.schedule_at(1.5, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [1.5]
        assert loop.now == 1.5

    def test_schedule_after_relative(self):
        loop = EventLoop()
        seen = []
        loop.schedule_at(1.0, lambda: loop.schedule_after(
            0.5, lambda: seen.append(loop.now)))
        loop.run()
        assert seen == [1.5]

    def test_cannot_schedule_in_past(self):
        loop = EventLoop()
        loop.schedule_at(1.0, lambda: None)
        loop.run()
        with pytest.raises(SimulationError):
            loop.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(SimulationError):
            loop.schedule_after(-1.0, lambda: None)

    def test_cancelled_event_skipped(self):
        loop = EventLoop()
        seen = []
        event = loop.schedule_at(1.0, lambda: seen.append("x"))
        event.cancel()
        loop.run()
        assert seen == []

    def test_run_until_stops_clock(self):
        loop = EventLoop()
        seen = []
        loop.schedule_at(1.0, lambda: seen.append(1))
        loop.schedule_at(5.0, lambda: seen.append(5))
        loop.run(until=2.0)
        assert seen == [1]
        assert loop.now == 2.0

    def test_run_until_stops_at_the_last_event_once_drained(self):
        """When the heap drains before ``until``, ``now`` stays at the
        last event: ``until`` is a horizon, not a destination."""
        loop = EventLoop()
        loop.schedule_at(1.0, lambda: None)
        assert loop.run(until=5.0) == 1.0
        assert loop.now == 1.0
        assert EventLoop().run(until=5.0) == 0.0

    def test_run_until_allows_resume(self):
        loop = EventLoop()
        seen = []
        loop.schedule_at(1.0, lambda: seen.append(1))
        loop.schedule_at(5.0, lambda: seen.append(5))
        loop.run(until=2.0)
        loop.run()
        assert seen == [1, 5]

    def test_events_scheduled_during_run_execute(self):
        loop = EventLoop()
        seen = []

        def cascade(depth):
            seen.append(depth)
            if depth < 3:
                loop.schedule_after(1.0, lambda: cascade(depth + 1))

        loop.schedule_at(0.0, lambda: cascade(0))
        loop.run()
        assert seen == [0, 1, 2, 3]

    def test_step_returns_false_when_empty(self):
        assert EventLoop().step() is False

    def test_max_events_guard(self, monkeypatch):
        monkeypatch.setattr(event_loop, "MAX_EVENTS", 100)
        loop = EventLoop()

        def forever():
            loop.schedule_after(0.001, forever)

        loop.schedule_at(0.0, forever)
        with pytest.raises(SimulationError):
            loop.run()

    def test_max_events_guard_counts_exactly(self, monkeypatch):
        """The guard allows exactly MAX_EVENTS executions (no off-by-one)."""
        monkeypatch.setattr(event_loop, "MAX_EVENTS", 100)
        loop = EventLoop()
        ran = []

        def forever():
            ran.append(loop.now)
            loop.schedule_after(0.001, forever)

        loop.schedule_at(0.0, forever)
        with pytest.raises(SimulationError):
            loop.run()
        assert len(ran) == 100

    def test_max_events_exact_queue_drains_cleanly(self, monkeypatch):
        """A queue that drains at the limit must not raise."""
        monkeypatch.setattr(event_loop, "MAX_EVENTS", 5)
        loop = EventLoop()
        seen = []
        for i in range(5):
            loop.schedule_at(float(i), lambda i=i: seen.append(i))
        loop.run()
        assert seen == [0, 1, 2, 3, 4]


class TestEventLoopEdgeCases:
    def test_event_scheduled_exactly_at_until_runs(self):
        """run(until=t) executes events at exactly t (only later ones wait)."""
        loop = EventLoop()
        seen = []
        loop.schedule_at(2.0, lambda: seen.append("at-until"))
        loop.schedule_at(2.0 + 1e-9, lambda: seen.append("after-until"))
        loop.run(until=2.0)
        assert seen == ["at-until"]
        assert loop.now == 2.0

    def test_cancel_head_event(self):
        """Cancelling the current heap head must not disturb the rest."""
        loop = EventLoop()
        seen = []
        head = loop.schedule_at(1.0, lambda: seen.append("head"))
        loop.schedule_at(2.0, lambda: seen.append("tail"))
        head.cancel()
        loop.run()
        assert seen == ["tail"]

    def test_cancel_is_idempotent(self):
        loop = EventLoop()
        event = loop.schedule_at(1.0, lambda: None)
        event.cancel()
        event.cancel()  # second cancel must not double-count
        assert loop._cancelled_pending == 1
        loop.schedule_at(2.0, lambda: None)
        assert loop.run() == 2.0

    def test_cancel_from_within_callback(self):
        """An earlier callback may cancel a pending later event."""
        loop = EventLoop()
        seen = []
        victim = loop.schedule_at(1.0, lambda: seen.append("victim"))
        loop.schedule_at(0.5, victim.cancel)
        loop.schedule_at(1.0, lambda: seen.append("survivor"))
        loop.run()
        assert seen == ["survivor"]

    def test_zero_delay_ordering_under_ties(self):
        """Zero-delay chains run strictly in scheduling order at one
        instant."""
        loop = EventLoop()
        seen = []

        def first():
            seen.append("first")
            loop.schedule_after(0.0, lambda: seen.append("nested"))

        loop.schedule_after(0.0, first)
        loop.schedule_after(0.0, lambda: seen.append("second"))
        loop.run()
        # nested was scheduled *after* second, so it runs last
        assert seen == ["first", "second", "nested"]

    def test_non_reentrancy(self):
        loop = EventLoop()
        errors = []

        def reenter():
            try:
                loop.run()
            except SimulationError as exc:
                errors.append(str(exc))

        loop.schedule_at(1.0, reenter)
        loop.run()
        assert errors and "reentrant" in errors[0]

    def test_loop_usable_after_callback_exception(self):
        """A raising callback leaves the loop resumable (not stuck running)."""
        loop = EventLoop()

        def boom():
            raise RuntimeError("boom")

        loop.schedule_at(1.0, boom)
        loop.schedule_at(2.0, lambda: None)
        with pytest.raises(RuntimeError):
            loop.run()
        loop.run()
        assert loop.now == 2.0

    def test_heavy_cancellation_compacts_heap(self):
        """Mass cancellation must not leave a graveyard in the heap."""
        loop = EventLoop()
        ran = []
        events = [loop.schedule_at(1.0 + i * 0.001, lambda: ran.append(1))
                  for i in range(1000)]
        for event in events[:900]:
            event.cancel()
        # compaction keeps the heap small; survivors all still fire
        assert len(loop._heap) <= 200
        loop.run()
        assert len(ran) == 100


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(42)
        b = make_rng(42)
        assert [a.random() for _ in range(5)] == \
            [b.random() for _ in range(5)]

    def test_labels_decorrelate(self):
        a = make_rng(42, "loss")
        b = make_rng(42, "workload")
        assert a.random() != b.random()

    def test_derive_seed_stable(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")
        assert derive_seed(1, "x") != derive_seed(1, "y")
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_rng_from_rng_derives_child(self):
        parent = make_rng(7)
        child = make_rng(parent)
        assert child.random() != parent.random()
