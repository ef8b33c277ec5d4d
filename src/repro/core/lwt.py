"""Last-Writes-Tracking flag machinery (paper Section III-C, Figure 5).

A ReadDuo-LWT-k line carries two SLC flags:

* a **k-bit vector-flag** — bit ``x`` says a write happened in the current
  or most recent sub-interval labeled ``x``;
* a **log2(k)-bit index-flag** ``ind`` — the sub-interval of the last
  write, or 0 right after a scrub starts a new cycle.

Sub-intervals are labeled *relative to the line's own scrub time*: label 0
starts when the scrub engine visits the line, and each label spans
``S / k`` seconds. Because every line is scrubbed exactly once per
interval, the flags form a sliding window that conservatively answers
"was this line written (or scrub-rewritten) within the last S seconds?" —
the condition under which fast R-sensing is still reliable.

Two implementations are provided:

* :class:`LwtLineFlags` — the faithful per-line automaton from Figure 5,
  unit-tested against the paper's walkthrough; and
* :class:`QuantizedTracker` — the timestamp formulation the simulator
  uses at scale. Both make the same (conservative) R-vs-M decision:
  R-sensing is allowed iff the last tracked write lies fewer than ``k``
  *whole* sub-intervals in the past.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["LwtLineFlags", "QuantizedTracker", "lwt_flag_bits"]


def lwt_flag_bits(k: int) -> int:
    """SLC flag bits a ReadDuo-LWT-k line stores (k + log2 k)."""
    _validate_k(k)
    return k + int(math.log2(k))


def _validate_k(k: int) -> None:
    if k < 2 or k & (k - 1):
        raise ValueError("k must be a power of two >= 2")


@dataclass
class LwtLineFlags:
    """The Figure 5 flag automaton for a single memory line.

    Attributes:
        k: Sub-intervals per scrub interval.
        vector: The k-bit vector-flag as an integer bitmask.
        ind: The index-flag (sub-interval of the last write, or 0 after a
            scrub opens a new cycle).
    """

    k: int
    vector: int = 0
    ind: int = 0

    def __post_init__(self) -> None:
        _validate_k(self.k)
        if not 0 <= self.ind < self.k:
            raise ValueError("index-flag out of range")
        if self.vector >> self.k:
            raise ValueError("vector-flag wider than k bits")

    def _clear_range(self, lo: int, hi: int) -> None:
        """Clear bits with labels in [lo, hi)."""
        for bit in range(max(lo, 0), min(hi, self.k)):
            self.vector &= ~(1 << bit)

    def on_scrub(self, rewrote: bool) -> None:
        """A scrub visits the line, starting a new cycle.

        Only the last write's own bit survives. Bits *below* the
        index-flag are this cycle's earlier writes (paper: "clear all bits
        in [0, ind-1]"); bits *above* it cannot be from this cycle — the
        index records the latest write — so they are at least one full
        interval old and must be retired too. (The paper's prose only
        mentions the lower range; keeping stale upper bits would let a
        read two cycles after a write still certify R-sensing — the
        safety property test in ``tests/test_lwt_safety.py`` catches it.)
        Bit 0 then records whether the scrub itself refreshed the line.
        """
        if self.ind == 0:
            self.vector = 0
        else:
            self.vector &= 1 << self.ind
        if rewrote:
            self.vector |= 1
        else:
            self.vector &= ~1
        self.ind = 0

    def on_write(self, sub_interval: int) -> None:
        """A write lands in relative sub-interval ``sub_interval``.

        Stale bits between the previous last write and this one (set
        during the preceding cycle) are retired before recording the new
        write.
        """
        s = self._clamp(sub_interval)
        if s > self.ind + 1:
            self._clear_range(self.ind + 1, s)
        self.vector |= 1 << s
        self.ind = s

    def tracked_for_read(self, sub_interval: int) -> bool:
        """Whether a read in ``sub_interval`` may use R-sensing (Fig. 5).

        Case (i): a write this cycle (vector and index both non-zero).
        Case (ii): empty vector — nothing within S, use M-sensing.
        Case (iii): index 0 (fresh cycle): bits in [1, s] are from the
        previous cycle and now beyond S; only higher labels (or bit 0,
        the scrub rewrite / sub-0 write) still certify R-sensing.
        """
        s = self._clamp(sub_interval)
        if self.vector == 0:
            return False
        if self.ind != 0:
            return True
        surviving = self.vector
        for bit in range(1, s + 1):
            surviving &= ~(1 << bit)
        return surviving != 0

    def _clamp(self, sub_interval: int) -> int:
        if sub_interval < 0:
            raise ValueError("sub-interval must be non-negative")
        return min(sub_interval, self.k - 1)


class QuantizedTracker:
    """Timestamp formulation of LWT used by the large-scale simulator.

    Tracks, per line (sparsely), the absolute time of the last *tracked
    event* — demand write, conversion write, or scrub rewrite — and
    answers the same conservative question as the flag automaton: R-sensing
    is allowed iff fewer than ``k`` whole sub-intervals have elapsed since
    that event. A write at sub-interval ``w`` read at sub-interval ``r``
    satisfies ``r - w <= k - 1``, so the true age is below
    ``k * (S / k) = S`` — exactly the R-reliability window.

    Args:
        k: Sub-intervals per scrub interval.
        scrub_interval_s: The scrub interval ``S``.
    """

    def __init__(self, k: int, scrub_interval_s: float) -> None:
        _validate_k(k)
        if scrub_interval_s <= 0:
            raise ValueError("scrub interval must be positive")
        self.k = k
        self.scrub_interval_s = scrub_interval_s
        self.sub_len_s = scrub_interval_s / k
        self._last_event_s: dict = {}

    def __getattr__(self, name: str) -> dict:
        # ``_last_event_s`` handed back as arrays by a compiled run
        # (repro.memsim.fastpath) is built on its first read.
        deferred = self.__dict__.get("_deferred")
        if not deferred or name not in deferred:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        lines, values = deferred.pop(name)
        built = self.__dict__[name] = dict(zip(lines.tolist(), values.tolist()))
        return built

    def abs_sub_interval(self, t_s: float) -> int:
        """Global sub-interval index of absolute time ``t_s``."""
        return int(t_s // self.sub_len_s)

    def record_event(self, line: int, t_s: float) -> None:
        """Record a tracked write/rewrite of ``line`` at ``t_s``."""
        self._last_event_s[line] = t_s

    def last_event_s(self, line: int, default: float) -> float:
        """Time of the line's last tracked event (or ``default``)."""
        return self._last_event_s.get(line, default)

    def is_tracked(self, line: int, now_s: float, default_last_s: float) -> bool:
        """Whether a read at ``now_s`` may use R-sensing."""
        last = self._last_event_s.get(line, default_last_s)
        return self.abs_sub_interval(now_s) - self.abs_sub_interval(last) < self.k

    def __len__(self) -> int:
        return len(self._last_event_s)
