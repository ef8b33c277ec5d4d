"""Shared policy state plus the drift-free Ideal scheme.

:class:`PolicyContext` carries everything a policy needs about the
platform and workload; :class:`BaseDriftPolicy` holds the state common
to every scheme (error sampler, steady-state initial ages, last-write
times, the scrub-sweep clock); :class:`IdealPolicy` is the no-drift
upper bound every figure normalizes against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

#: BCH-8 correction/detection split (Section III-B); canonical home is
#: :mod:`repro.ecc.regimes`, re-exported here for the policy layer.
from ...ecc.regimes import CORRECTABLE_ERRORS, DETECTABLE_ERRORS
from ...memsim.config import DEFAULT_EPOCH_S, DEFAULT_MEMORY_CONFIG, MemoryConfig
from ...memsim.policy import ReadDecision, ReadMode, ScrubDecision, WriteDecision
from ...traces.spec import WorkloadProfile
from ..agemodel import InitialAgeModel

__all__ = [
    "R_SCRUB_INTERVAL_S",
    "M_SCRUB_INTERVAL_S",
    "CORRECTABLE_ERRORS",
    "DETECTABLE_ERRORS",
    "DATA_CELLS",
    "PolicyContext",
    "BaseDriftPolicy",
    "IdealPolicy",
]

#: Default scrub intervals chosen in the paper's Section III-A analysis.
R_SCRUB_INTERVAL_S = 8.0
M_SCRUB_INTERVAL_S = 640.0

#: Data cells per 64B line.
DATA_CELLS = 256


@dataclass
class PolicyContext:
    """Everything a policy needs about the platform and workload.

    Attributes:
        profile: Workload statistical profile (initial ages, write change
            fraction).
        config: Memory-system configuration (line count, cell counts).
        epoch_s: Absolute time of simulation start (matches the engine).
        seed: Policy RNG seed (error sampling, conversion coin).
    """

    profile: WorkloadProfile
    config: MemoryConfig = field(default_factory=lambda: DEFAULT_MEMORY_CONFIG)
    epoch_s: float = DEFAULT_EPOCH_S
    seed: int = 12345


class BaseDriftPolicy:
    """Shared state and helpers for all scheme policies."""

    name = "base"
    scrub_interval_s: Optional[float] = None

    def __init__(self, ctx: PolicyContext) -> None:
        import numpy as np

        from ..sampler import DriftErrorSampler

        self.ctx = ctx
        self.rng = np.random.default_rng(ctx.seed)
        self.sampler = DriftErrorSampler(cells_per_line=DATA_CELLS, rng=self.rng)
        self.ages = InitialAgeModel(ctx.profile, seed=ctx.seed)
        self.last_write_s: Dict[int, float] = {}
        self.full_cells = ctx.config.cells_per_line_write

    def __getattr__(self, name: str) -> dict:
        # A compiled run (repro.memsim.fastpath) hands per-line dicts back
        # as (lines, values) arrays; the dict is built on its first read.
        deferred = self.__dict__.get("_deferred")
        if not deferred or name not in deferred:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        lines, values = deferred.pop(name)
        built = self.__dict__[name] = dict(zip(lines.tolist(), values.tolist()))
        return built

    # ------------------------------------------------------------- age state

    def last_write_of(self, line: int) -> float:
        """Absolute time of the line's last (full) write."""
        cached = self.last_write_s.get(line)
        if cached is not None:
            return cached
        return self.ctx.epoch_s - self.ages.age_of(line)

    def age_of(self, line: int, now_s: float) -> float:
        """Seconds since the line's last write."""
        return max(now_s - self.last_write_of(line), 0.0)

    def record_write(self, line: int, now_s: float) -> None:
        self.last_write_s[line] = now_s

    def scrub_pass_age(self, line: int, now_s: float) -> float:
        """Seconds since the scrub sweep last visited ``line``.

        Mirrors the engine's pointer: the sweep starts at line
        ``total_lines // 2`` at the epoch and wraps every scrub interval;
        passes before the epoch are assumed (steady state).
        """
        interval = self.scrub_interval_s
        if interval is None:
            return math.inf
        total = self.ctx.config.total_lines
        frac = ((line - total // 2) % total) / total
        cycles = math.floor((now_s - self.ctx.epoch_s) / interval - frac)
        last_pass = self.ctx.epoch_s + (cycles + frac) * interval
        if last_pass > now_s:  # numerical guard
            last_pass -= interval
        return now_s - last_pass

    # ------------------------------------------------- default write handling

    def on_write(self, line: int, now_s: float) -> WriteDecision:
        """Demand writes are full-line by default (drift-safe rewrites)."""
        self.record_write(line, now_s)
        return WriteDecision(cells_written=self.full_cells, full_line=True)

    def on_conversion_write(self, line: int, now_s: float) -> WriteDecision:
        """Conversion writes are always full-line."""
        self.record_write(line, now_s)
        return WriteDecision(cells_written=self.full_cells, full_line=True)

    def on_scrub(self, line: int, now_s: float) -> ScrubDecision:
        raise NotImplementedError("scheme without scrubbing was asked to scrub")

    # --------------------------------------------------------------- helpers

    def _classify_r_read(
        self, errors: int, flag_access: bool = False, convert: bool = False
    ) -> ReadDecision:
        """Map an R-sensing error count to the hybrid read outcome."""
        if errors <= CORRECTABLE_ERRORS:
            return ReadDecision(
                mode=ReadMode.R, errors_seen=errors, flag_access=flag_access
            )
        if errors <= DETECTABLE_ERRORS:
            return ReadDecision(
                mode=ReadMode.RM,
                errors_seen=errors,
                flag_access=flag_access,
                convert_to_write=convert,
            )
        return ReadDecision(
            mode=ReadMode.R,
            errors_seen=errors,
            silent_corruption=True,
            flag_access=flag_access,
        )


class IdealPolicy(BaseDriftPolicy):
    """No resistance drift: every read is a fast, error-free R-read."""

    name = "Ideal"
    scrub_interval_s = None

    def on_read(self, line: int, now_s: float) -> ReadDecision:
        return ReadDecision(mode=ReadMode.R)
