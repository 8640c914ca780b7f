"""Tests for the double-thresholding QoE controller (Alg. 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DoubleThresholdController, ThresholdConfig
from repro.quic.frames import QoeSignals


def qoe(seconds: float, fps: int = 25) -> QoeSignals:
    """QoE feedback representing ``seconds`` of play-time left."""
    return QoeSignals(cached_bytes=int(seconds * 2_000_000 / 8),
                      cached_frames=int(seconds * fps),
                      bps=2_000_000, fps=fps)


class TestThresholdConfig:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            ThresholdConfig(t_th1=2.0, t_th2=1.0)

    def test_always_flags_skip_ordering(self):
        ThresholdConfig(t_th1=5.0, t_th2=1.0, always_on=True)

    def test_defaults_valid(self):
        cfg = ThresholdConfig()
        assert cfg.t_th1 < cfg.t_th2


class TestDoubleThresholdController:
    def test_above_upper_threshold_off(self):
        """Alg. 1 line 2-3: plenty of buffer -> no re-injection."""
        ctrl = DoubleThresholdController(ThresholdConfig(0.5, 2.0))
        ctrl.update(qoe(5.0), now=0.0)
        assert ctrl.should_reinject(max_delivery_time=10.0, now=0.0) is False

    def test_below_lower_threshold_on(self):
        """Alg. 1 line 4-5: nearly dry -> re-inject immediately."""
        ctrl = DoubleThresholdController(ThresholdConfig(0.5, 2.0))
        ctrl.update(qoe(0.2), now=0.0)
        assert ctrl.should_reinject(max_delivery_time=0.0, now=0.0) is True

    def test_middle_band_compares_delivery_time(self):
        """Alg. 1 line 13-15: Δt vs deliverTime_max decides."""
        ctrl = DoubleThresholdController(ThresholdConfig(0.5, 2.0))
        ctrl.update(qoe(1.0), now=0.0)
        assert ctrl.should_reinject(max_delivery_time=1.5, now=0.0) is True
        assert ctrl.should_reinject(max_delivery_time=0.5, now=0.0) is False

    def test_no_feedback_defaults_on(self):
        """Start-up: no feedback yet; stay aggressive (Fig. 6d's
        re-injection right after the first frame)."""
        ctrl = DoubleThresholdController(ThresholdConfig(0.5, 2.0))
        assert ctrl.should_reinject(max_delivery_time=0.0) is True

    def test_always_on(self):
        ctrl = DoubleThresholdController(ThresholdConfig(always_on=True))
        ctrl.update(qoe(100.0), now=0.0)
        assert ctrl.should_reinject(0.0, now=0.0) is True

    def test_extrapolation_drains_buffer(self):
        """Footnote 10: Δt must be extrapolated between feedbacks."""
        ctrl = DoubleThresholdController(ThresholdConfig(0.5, 2.0))
        ctrl.update(qoe(2.5), now=0.0)
        # Immediately: 2.5 > T_th2 -> off.
        assert ctrl.should_reinject(0.0, now=0.0) is False
        # 2.2 s later the buffer has drained to ~0.3 < T_th1 -> on.
        assert ctrl.should_reinject(0.0, now=2.2) is True

    def test_play_time_left_never_negative(self):
        ctrl = DoubleThresholdController()
        ctrl.update(qoe(1.0), now=0.0)
        assert ctrl.play_time_left(now=100.0) == 0.0

    @given(st.floats(0.0, 10.0), st.floats(0.0, 3.0))
    @settings(max_examples=200)
    def test_decision_matches_algorithm_property(self, buffer_s, dt_max):
        """Property: the implementation IS Alg. 1."""
        cfg = ThresholdConfig(0.5, 2.0)
        ctrl = DoubleThresholdController(cfg)
        signals = qoe(buffer_s)
        ctrl.update(signals, now=0.0)
        decision = ctrl.should_reinject(dt_max, now=0.0)
        delta_t = signals.play_time_left()
        if delta_t > cfg.t_th2:
            expected = False
        elif delta_t < cfg.t_th1:
            expected = True
        else:
            expected = delta_t < dt_max
        assert decision == expected

    @given(st.floats(0.1, 5.0), st.floats(0.0, 5.0), st.floats(0.0, 2.0))
    @settings(max_examples=200)
    def test_monotone_in_buffer_property(self, t1_raw, extra, dt_max):
        """Property: with fixed thresholds and delivery time, turning
        the buffer *lower* never turns re-injection *off*."""
        cfg = ThresholdConfig(t_th1=0.5, t_th2=2.5)
        high, low = 0.5 + extra + 0.5, 0.5  # low buffer <= high buffer
        ctrl = DoubleThresholdController(cfg)
        ctrl.update(qoe(low), now=0.0)
        low_decision = ctrl.should_reinject(dt_max, now=0.0)
        ctrl.update(qoe(high), now=0.0)
        high_decision = ctrl.should_reinject(dt_max, now=0.0)
        # If re-injection is on at high buffer, it must be on at low.
        if high_decision:
            assert low_decision

    def test_cost_bound_structure(self):
        """Sec. 5.2.2: larger T_th1 -> more 'on' decisions (higher
        minimum cost); smaller T_th2 -> fewer 'on' decisions."""
        buffers = [i * 0.25 for i in range(20)]

        def on_fraction(cfg):
            ctrl = DoubleThresholdController(cfg)
            on = 0
            for b in buffers:
                ctrl.update(qoe(b), now=0.0)
                if ctrl.should_reinject(0.0, now=0.0):
                    on += 1
            return on / len(buffers)

        aggressive = on_fraction(ThresholdConfig(2.0, 3.0))
        conservative = on_fraction(ThresholdConfig(0.25, 3.0))
        assert aggressive > conservative
