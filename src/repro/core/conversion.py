"""Adaptive R-M-read conversion throttle (paper Section III-C).

After servicing a read with a slow R-M-read, ReadDuo-LWT may *convert* the
read into a redundant write so the next 640 s of reads to that line enjoy
fast R-sensing. Converting everything would wreck endurance, so the paper
monitors ``P`` — the percentage of reads landing on untracked lines — and
adapts the conversion ratio ``T`` in [0, 100] at steps of 10:

* if converting is paying off (an increase of ``T`` at least halved
  ``P``), keep increasing;
* if ``P`` stays above 85% the working set is too cold/large for
  conversion to catch, so back off;
* otherwise hold.

The printed description is partially garbled; this controller implements
the above reading and the experiments treat the thresholds as parameters.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["AdaptiveConversionController"]


class AdaptiveConversionController:
    """Hill-climbing controller for the conversion ratio ``T``.

    Args:
        rng: Randomness for the per-read conversion coin.
        initial_t: Starting conversion percentage.
        step: Adjustment granularity (paper: 10); 0 holds ``T`` fixed.
        window_reads: Reads per measurement window.
        high_p_threshold: ``P`` above which ``T`` is decreased.
        improvement_factor: Required ``P`` shrink factor to keep raising
            ``T`` after an increase.
        patience: Consecutive windows with no visible improvement before
            ``T`` is decreased (conversion coverage of a reuse tier takes
            several windows to build, so reacting instantly would give up
            on workloads it is about to fix).
        enabled: When False, no reads are ever converted (the Figure 14
            ablation).
    """

    def __init__(
        self,
        rng: Optional[np.random.Generator] = None,
        initial_t: int = 50,
        step: int = 10,
        window_reads: int = 512,
        high_p_threshold: float = 0.85,
        improvement_factor: float = 2.0,
        patience: int = 3,
        enabled: bool = True,
    ) -> None:
        if not 0 <= initial_t <= 100:
            raise ValueError("initial_t must be in [0, 100]")
        if step < 0:
            raise ValueError("step must be >= 0")
        if window_reads <= 0:
            raise ValueError("window_reads must be positive")
        self.rng = rng if rng is not None else np.random.default_rng()
        self.t = initial_t
        self.step = step
        self.window_reads = window_reads
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.high_p_threshold = high_p_threshold
        self.improvement_factor = improvement_factor
        self.patience = patience
        self.enabled = enabled
        self._window_total = 0
        self._window_untracked = 0
        self._prev_p: Optional[float] = None
        self._last_action = 0  # -1 decreased, 0 held, +1 increased
        self._stagnant_windows = 0
        self.adjustments = 0

    @property
    def untracked_fraction(self) -> Optional[float]:
        """``P`` of the previous completed window (None before the first)."""
        return self._prev_p

    def record_read(self, untracked: bool) -> None:
        """Feed one demand read into the monitor."""
        self._window_total += 1
        if untracked:
            self._window_untracked += 1
        if self._window_total >= self.window_reads:
            self._end_window()

    def _end_window(self) -> None:
        p = self._window_untracked / self._window_total
        self._window_total = 0
        self._window_untracked = 0
        action = 0
        if p == 0.0:
            # No untracked traffic: nothing to tune.
            self._stagnant_windows = 0
        elif self._prev_p is not None and p <= self._prev_p / self.improvement_factor:
            # Conversions are visibly retiring untracked lines: push on.
            action = +1
            self._stagnant_windows = 0
        elif self._prev_p is not None and p >= 0.9 * self._prev_p and p > 0.05:
            # No visible progress this window. Converted coverage takes a
            # while to build, so only back off after `patience` stagnant
            # windows (immediately when P is overwhelming — the cold set
            # is clearly too large to catch).
            self._stagnant_windows += 1
            if self._stagnant_windows >= self.patience:
                action = -1
                self._stagnant_windows = 0
        elif self._prev_p is None and p > 0:
            # First measurement with untracked traffic: probe upward.
            action = +1
        old_t = self.t
        self.t = int(np.clip(self.t + action * self.step, 0, 100))
        if self.t != old_t:
            self.adjustments += 1
        self._last_action = action if self.t != old_t else 0
        self._prev_p = p

    def should_convert(self) -> bool:
        """Coin flip at the current ratio for one R-M-read."""
        if not self.enabled or self.t <= 0:
            return False
        if self.t >= 100:
            return True
        return bool(self.rng.random() * 100.0 < self.t)
