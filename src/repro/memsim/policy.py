"""The scheme-policy interface between the simulator and ReadDuo schemes.

The event-driven engine (:mod:`repro.memsim.engine`) is scheme-agnostic:
whenever a demand read, demand write, or scrub operation reaches a bank it
asks the installed :class:`SchemePolicy` what physically happens — which
sensing mode services the read, whether a write is full-line or
differential, whether a scrub rewrites the line. Policies own all
drift-related state (last-write times, LWT flags, adaptive conversion
throttle) and perform the probabilistic error sampling; the engine only
turns decisions into latencies, energy, and wear.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Protocol, runtime_checkable

__all__ = ["ReadMode", "ReadDecision", "WriteDecision", "ScrubDecision", "SchemePolicy"]


class ReadMode(enum.Enum):
    """Sensing mode that services a read (paper Fig. 4)."""

    #: Fast current sensing only (150 ns).
    R = "R"
    #: Voltage sensing only (450 ns).
    M = "M"
    #: Failed R-sensing followed by M-sensing (600 ns).
    RM = "RM"


@dataclass(frozen=True)
class ReadDecision:
    """What happens when a line is read.

    Attributes:
        mode: Sensing mode on the critical path.
        errors_seen: Drift errors present at R-sensing time (statistics).
        convert_to_write: Re-write the line after the read (LWT's R-M-read
            conversion); the write is issued off the critical path.
        silent_corruption: Errors exceeded the ECC detection range and
            wrong data was returned without warning.
        uncorrectable: Errors exceeded correction (but were detected).
        flag_access: An SLC tracking-flag read accompanied this access.
    """

    mode: ReadMode
    errors_seen: int = 0
    convert_to_write: bool = False
    silent_corruption: bool = False
    uncorrectable: bool = False
    flag_access: bool = False


@dataclass(frozen=True)
class WriteDecision:
    """What happens when a line is written by the processor.

    Attributes:
        cells_written: MLC cells actually programmed.
        full_line: Whether this was a full-line write (False =
            selective/differential write).
        flag_update: An SLC tracking-flag update accompanied the write.
        latency_scale: Multiplier on the platform write latency — how
            write truncation [11] (stopping P&V once the slowest cells
            converge) expresses a shorter write; 1.0 = the full
            iterative write.
    """

    cells_written: int
    full_line: bool = True
    flag_update: bool = False
    latency_scale: float = 1.0


@dataclass(frozen=True)
class ScrubDecision:
    """What happens when the scrub engine visits a line.

    Attributes:
        metric: Sensing metric of the scrub read (``"R"`` or ``"M"``).
        rewrite: Whether the line is rewritten (W policy outcome).
        cells_written: Cells programmed when rewriting.
        errors_seen: Drift errors found by the scrub read.
    """

    metric: str
    rewrite: bool
    cells_written: int = 0
    errors_seen: int = 0


@runtime_checkable
class SchemePolicy(Protocol):
    """Behaviour contract a drift-mitigation scheme exposes to the engine.

    Implementations live in :mod:`repro.core.policies` (ReadDuo variants and
    baselines). All times are absolute simulation seconds; the engine's
    epoch is far from zero so steady-state ages can predate the run.
    """

    #: Scheme label used in reports.
    name: str
    #: Seconds between successive scrubs of the same line; None disables
    #: background scrubbing entirely (the Ideal and TLC baselines).
    scrub_interval_s: Optional[float]

    def on_read(self, line: int, now_s: float) -> ReadDecision:
        """Decide how a demand read to ``line`` at ``now_s`` is serviced."""
        ...

    def on_write(self, line: int, now_s: float) -> WriteDecision:
        """Record a demand write and decide its cell footprint."""
        ...

    def on_conversion_write(self, line: int, now_s: float) -> WriteDecision:
        """Record the full-line write triggered by R-M-read conversion."""
        ...

    def on_scrub(self, line: int, now_s: float) -> ScrubDecision:
        """Decide the outcome of a scrub visit to ``line``."""
        ...
