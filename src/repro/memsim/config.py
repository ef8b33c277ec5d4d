"""Memory-system configuration (paper Table VIII).

The evaluated system: 4 in-order cores at 4 GHz over an MLC PCM main
memory of one rank with 8 banks. Reads are 150 ns (R-sensing) / 450 ns
(M-sensing); an iterative P&V line write takes 1000 ns. The memory
controller gives reads priority and implements write cancellation [18].
Scrubbing walks all lines once per scrub interval and competes for banks.

The source text garbles parts of Table VIII; bank count and capacity are
set so the background scrub load reproduces the paper's reported overheads
(see DESIGN.md section 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..pcm.params import DEFAULT_ENERGY, DEFAULT_TIMING, EnergyParams, TimingParams

__all__ = ["MemoryConfig", "DEFAULT_MEMORY_CONFIG", "DEFAULT_EPOCH_S", "ENGINES"]

#: Engines selectable through :func:`repro.memsim.engine.simulate` (and
#: ``SimSpec.engine``).
ENGINES = ("batch", "event")

#: Absolute simulation start time. Deliberately *not* aligned to scrub or
#: LWT sub-interval boundaries (999830 mod 160 = 150, mod 320 = 150) so the
#: steady-state phase of tracking windows at the epoch is generic rather
#: than the measure-zero "window just opened" case — and chosen so the k=2
#: and k=4 tracking horizons (470 s vs 630 s) actually differ.
DEFAULT_EPOCH_S = 999_830.0


@dataclass(frozen=True)
class MemoryConfig:
    """Static parameters of the simulated memory system.

    Attributes:
        num_cores: In-order cores sharing the memory.
        num_banks: PCM banks in the rank (interleaved by line address).
        total_lines: 64B lines in the memory (2 GiB default).
        timing: Latency parameters (Table VIII).
        energy: Per-operation energy (Table IX).
        cells_per_line_write: Cells programmed by a full-line write
            (data + BCH-8 check cells: 296).
        write_queue_depth: Per-bank write-buffer entries.
        write_drain_watermark: Queue length that forces write drain ahead
            of scrub operations.
        cancel_threshold: A demand write may be cancelled for an arriving
            read while its progress is below this fraction.
        lines_per_scrub_op: Lines the bridge-chip scrub engine checks per
            scrub operation (one row-buffer sense covers adjacent lines).
        scrub_blocks_channel: Whether scrub operations occupy the shared
            rank channel for their full duration (the bridge chip streams
            the sensed data through its BCH logic — paper Fig. 7). When
            False, scrubbing is contention-free (an optimistic bound).
        scrub_backlog_cap: Pending scrub operations beyond which the scrub
            engine skips visits (it cannot keep pace; the reliability debt
            is reported, not modeled). Keeps an unschedulable W=0 sweep
            from starving demand entirely.
    """

    num_cores: int = 4
    num_banks: int = 16
    total_lines: int = (2 << 30) // 64
    timing: TimingParams = field(default_factory=lambda: DEFAULT_TIMING)
    energy: EnergyParams = field(default_factory=lambda: DEFAULT_ENERGY)
    cells_per_line_write: int = 296
    write_queue_depth: int = 32
    write_drain_watermark: int = 24
    cancel_threshold: float = 0.5
    lines_per_scrub_op: int = 1
    scrub_blocks_channel: bool = True
    scrub_backlog_cap: int = 4

    def __post_init__(self) -> None:
        if self.num_cores <= 0 or self.num_banks <= 0:
            raise ValueError("cores and banks must be positive")
        if self.total_lines < self.num_banks:
            raise ValueError("need at least one line per bank")
        if not 0 < self.write_drain_watermark <= self.write_queue_depth:
            raise ValueError("drain watermark must be within the queue depth")
        if not 0.0 <= self.cancel_threshold <= 1.0:
            raise ValueError("cancel_threshold must be in [0, 1]")
        if self.lines_per_scrub_op < 1:
            raise ValueError("lines_per_scrub_op must be >= 1")

    def bank_of(self, line: int) -> int:
        """Bank servicing ``line`` (low-order interleaving)."""
        return line % self.num_banks

    @property
    def lines_per_bank(self) -> int:
        return self.total_lines // self.num_banks


DEFAULT_MEMORY_CONFIG = MemoryConfig()
