"""Unit tests for the adaptive R-M-read conversion controller."""

import numpy as np
import pytest

from repro.core.conversion import AdaptiveConversionController


def _controller(**kwargs):
    defaults = dict(
        rng=np.random.default_rng(0), initial_t=50, window_reads=100
    )
    defaults.update(kwargs)
    return AdaptiveConversionController(**defaults)


def _feed_window(controller, untracked_fraction):
    untracked = int(controller.window_reads * untracked_fraction)
    for i in range(controller.window_reads):
        controller.record_read(untracked=i < untracked)


class TestAdjustment:
    def test_decreases_when_p_overwhelming_and_stagnant(self):
        controller = _controller(patience=2)
        _feed_window(controller, 0.95)  # first window probes upward
        t_probe = controller.t
        _feed_window(controller, 0.95)  # stagnant 1
        _feed_window(controller, 0.95)  # stagnant 2 -> decay
        assert controller.t == t_probe - 10

    def test_increases_on_strong_improvement(self):
        controller = _controller()
        _feed_window(controller, 0.4)   # first window probes upward
        t_after_first = controller.t
        _feed_window(controller, 0.1)   # P shrank 4x -> push on
        assert controller.t == t_after_first + 10

    def test_backs_off_when_p_flat_past_patience(self):
        controller = _controller(patience=3)
        _feed_window(controller, 0.3)
        t_mid = controller.t
        _feed_window(controller, 0.3)
        _feed_window(controller, 0.3)
        assert controller.t == t_mid  # still within patience
        _feed_window(controller, 0.3)
        assert controller.t == t_mid - 10

    def test_improvement_resets_patience(self):
        controller = _controller(patience=2)
        _feed_window(controller, 0.4)
        _feed_window(controller, 0.4)   # stagnant 1
        _feed_window(controller, 0.1)   # improvement resets the count
        t_now = controller.t
        _feed_window(controller, 0.1)   # stagnant 1 again (no decay yet)
        assert controller.t == t_now

    def test_step_zero_holds_t_fixed(self):
        controller = _controller(initial_t=30, step=0)
        for fraction in (0.4, 0.1, 0.95, 0.95, 0.95, 0.95):
            _feed_window(controller, fraction)
        assert controller.t == 30
        assert controller.adjustments == 0

    def test_holds_on_small_p(self):
        controller = _controller(initial_t=30)
        _feed_window(controller, 0.0)
        _feed_window(controller, 0.0)
        assert controller.t == 30  # nothing untracked, nothing to do

    def test_t_stays_in_range(self):
        controller = _controller(initial_t=10, patience=1)
        for _ in range(20):
            _feed_window(controller, 0.95)
        assert controller.t == 0
        controller2 = _controller(initial_t=90)
        _feed_window(controller2, 0.8)
        _feed_window(controller2, 0.2)
        _feed_window(controller2, 0.04)
        assert controller2.t <= 100

    def test_untracked_fraction_reported(self):
        controller = _controller()
        assert controller.untracked_fraction is None
        _feed_window(controller, 0.25)
        assert controller.untracked_fraction == pytest.approx(0.25)


class TestConversionCoin:
    def test_disabled_never_converts(self):
        controller = _controller(enabled=False, initial_t=100)
        assert not any(controller.should_convert() for _ in range(100))

    def test_t0_never_converts(self):
        controller = _controller(initial_t=0)
        assert not any(controller.should_convert() for _ in range(100))

    def test_t100_always_converts(self):
        controller = _controller(initial_t=100)
        assert all(controller.should_convert() for _ in range(100))

    def test_t50_converts_about_half(self):
        controller = _controller(initial_t=50)
        rate = sum(controller.should_convert() for _ in range(4000)) / 4000
        assert rate == pytest.approx(0.5, abs=0.05)


class TestValidation:
    def test_rejects_bad_initial_t(self):
        with pytest.raises(ValueError):
            _controller(initial_t=150)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            _controller(window_reads=0)

    def test_rejects_negative_step(self):
        with pytest.raises(ValueError):
            _controller(step=-1)
