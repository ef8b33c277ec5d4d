"""Per-run fault injector consulted by the simulation engine.

One :class:`FaultInjector` exists per simulated run unit. It is created
from the run's :class:`~repro.faults.models.FaultSpec` plus the run's
content hash (:meth:`SimSpec.run_hash`), and lazily materializes a
:class:`LineFaultState` per touched line from
:func:`~repro.faults.models.line_fault_seed` — untouched lines cost
nothing, and the full fault map never has to exist in memory.

Determinism contract: every draw is a pure function of the line seed and
the *per-line* sequence number of the event (read or write). The engine
processes each line's events in simulated-time order regardless of
worker count or scheduling, so fault schedules are bit-identical across
``jobs ∈ {1, 2, 4}``, process re-execution, and cache replays.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from .models import FaultSpec, line_fault_seed

__all__ = ["FaultInjector", "LineFaultState"]

#: Draws reserved from the line hash before the sequential stream starts.
_STUCK_PROB_BYTES = slice(0, 8)
_STUCK_COUNT_BYTES = slice(8, 16)
_STREAM_SEED_BYTES = slice(16, 32)

_U64_SCALE = float(1 << 64)


class LineFaultState:
    """Lazily-built fault state for one line.

    Attributes:
        stuck: Permanent stuck-cell bit errors (never cleared).
        residual: Hard errors left by the last failed write; cleared by
            the next successful write.
        rng: The line's private PRNG stream for per-event draws (read
            noise, write failure). Consumed strictly in the line's event
            order, which the engine keeps deterministic.
    """

    __slots__ = ("stuck", "residual", "rng")

    def __init__(self, stuck: int, rng: random.Random) -> None:
        self.stuck = stuck
        self.residual = 0
        self.rng = rng

    @property
    def hard_errors(self) -> int:
        """Hard (persistent-until-rewrite) bit errors on the line now."""
        return self.stuck + self.residual


class FaultInjector:
    """Applies a :class:`FaultSpec`'s fault schedule to one run.

    Args:
        spec: The fault configuration.
        key: The owning run's identity (``SimSpec.run_hash``); fault maps
            for different runs are independent, replays of the same run
            identical.
        num_banks: Bank count used to derive each line's bank address
            (``line % num_banks``), folded into the per-line seed so the
            schedule is keyed by ``(run_hash, bank, line)``.
    """

    def __init__(self, spec: FaultSpec, key: str, num_banks: int) -> None:
        if num_banks < 1:
            raise ValueError("num_banks must be >= 1")
        self.spec = spec
        self.key = key
        self.num_banks = num_banks
        self._lines: Dict[int, LineFaultState] = {}

    # ----------------------------------------------------------- line state

    def line_state(self, line: int) -> LineFaultState:
        """The line's fault state, derived on first touch."""
        state = self._lines.get(line)
        if state is None:
            state = self._derive_line(line)
            self._lines[line] = state
        return state

    def _derive_line(self, line: int) -> LineFaultState:
        bank = line % self.num_banks
        digest = line_fault_seed(f"{self.key}:{self.spec.seed}", bank, line)
        stuck = 0
        if self.spec.stuck_line_rate > 0.0:
            prob = int.from_bytes(digest[_STUCK_PROB_BYTES], "big") / _U64_SCALE
            if prob < self.spec.stuck_line_rate:
                count_word = int.from_bytes(digest[_STUCK_COUNT_BYTES], "big")
                stuck = 1 + count_word % self.spec.stuck_cells_max
        rng = random.Random(int.from_bytes(digest[_STREAM_SEED_BYTES], "big"))
        return LineFaultState(stuck, rng)

    # --------------------------------------------------------------- events

    def read_errors(self, line: int) -> Tuple[int, int]:
        """Fault bit errors present at a read of ``line``.

        Returns:
            ``(hard, soft)`` — hard errors persist across an immediate
            re-read (stuck cells + write-failure residue); soft errors
            are this sensing's transient noise and vanish on re-read.
        """
        state = self.line_state(line)
        soft = 0
        if self.spec.read_noise_rate > 0.0:
            if state.rng.random() < self.spec.read_noise_rate:
                soft = 1
        return state.hard_errors, soft

    def record_write(self, line: int) -> int:
        """Apply a write to ``line``; returns residual errors left by it.

        A successful write clears any previous write-failure residue
        (stuck cells remain). A failed write — drawn from the line's
        stream at ``write_fail_rate`` — leaves 1..``write_fail_cells_max``
        residual hard errors until the next successful write.
        """
        state = self.line_state(line)
        state.residual = 0
        if self.spec.write_fail_rate > 0.0:
            if state.rng.random() < self.spec.write_fail_rate:
                state.residual = 1 + state.rng.randrange(
                    self.spec.write_fail_cells_max
                )
        return state.residual

    # ------------------------------------------------------------ inspection

    @property
    def lines_touched(self) -> int:
        """How many distinct lines have materialized fault state."""
        return len(self._lines)
