"""Per-run statistics collected by the memory-system engine."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict

from ..faults.models import FaultCounters
from ..obs.metrics import (
    QUEUE_DEPTH_BUCKETS,
    READ_LATENCY_BUCKETS_NS,
    Histogram,
)
from ..pcm.endurance import WearAccount
from ..pcm.energy import EnergyAccount
from ..pcm.params import EnergyParams

__all__ = ["RunStats"]


def _read_latency_histogram() -> Histogram:
    return Histogram(READ_LATENCY_BUCKETS_NS)


def _queue_depth_histogram() -> Histogram:
    return Histogram(QUEUE_DEPTH_BUCKETS)


@dataclass
class RunStats:
    """Everything a simulation run measures.

    Attributes:
        scheme: Scheme label.
        workload: Workload/trace label.
        execution_time_ns: Wall-clock of the slowest core.
        instructions: Total instructions executed across cores.
        reads / writes: Demand requests serviced.
        reads_by_mode: Demand reads by sensing mode (``"R"/"M"/"RM"``).
        conversions: R-M-reads converted into rewrites.
        silent_corruptions: Reads that returned wrong data undetected.
        uncorrectable_reads: Reads detected as uncorrectable.
        scrub_ops: Scrub visits performed.
        scrub_rewrites: Scrub visits that rewrote the line.
        scrubs_skipped: Scrub visits dropped because the sweep could not
            keep pace with its deadline (reliability debt).
        cancelled_writes: Demand writes cancelled to service a read.
        truncated_writes: Writes the policy shortened (``latency_scale <
            1``, write truncation [11]); serialized only when nonzero.
        total_read_latency_ns: Sum of demand-read service latencies
            (queueing included), for mean-latency reporting.
        energy: Dynamic-energy account (pJ, by category).
        wear: Cell-write account (by cause).
        read_latency_hist: Per-read latency distribution (ns). Only
            populated when the engine runs with telemetry enabled;
            excluded from equality, :meth:`to_dict`, and therefore the
            sweep cache key/payload, so telemetry never perturbs cached
            or compared results.
        queue_depth_hist: Bank read-queue depth seen by each arriving
            read; same telemetry-only, compare-excluded treatment.
        fault_counters: Injected-fault accounting (``repro.faults``).
            Excluded from equality like the telemetry histograms, and
            serialized only when nonzero, so fault-free runs — and the
            pinned sweep digest — are byte-identical to a tree without
            fault injection while fault-enabled runs round-trip their
            counters through the cache.
    """

    scheme: str
    workload: str
    execution_time_ns: float = 0.0
    instructions: int = 0
    reads: int = 0
    writes: int = 0
    reads_by_mode: Dict[str, int] = field(default_factory=dict)
    conversions: int = 0
    silent_corruptions: int = 0
    uncorrectable_reads: int = 0
    scrub_ops: int = 0
    scrub_rewrites: int = 0
    scrubs_skipped: int = 0
    cancelled_writes: int = 0
    truncated_writes: int = 0
    total_read_latency_ns: float = 0.0
    energy: EnergyAccount = field(default_factory=EnergyAccount)
    wear: WearAccount = field(default_factory=WearAccount)
    read_latency_hist: Histogram = field(
        default_factory=_read_latency_histogram, compare=False, repr=False
    )
    queue_depth_hist: Histogram = field(
        default_factory=_queue_depth_histogram, compare=False, repr=False
    )
    fault_counters: FaultCounters = field(
        default_factory=FaultCounters, compare=False, repr=False
    )

    @property
    def ipc(self) -> float:
        """Aggregate instructions per nanosecond-normalized cycle."""
        if self.execution_time_ns <= 0:
            return 0.0
        return self.instructions / self.execution_time_ns

    @property
    def avg_read_latency_ns(self) -> float:
        """Mean demand-read latency including queueing."""
        return self.total_read_latency_ns / self.reads if self.reads else 0.0

    @property
    def dynamic_energy_pj(self) -> float:
        """Total dynamic energy of the run."""
        return self.energy.total_pj

    @property
    def total_cell_writes(self) -> int:
        """Endurance consumed during the run, in cell programs."""
        return self.wear.total_cells

    def mode_fraction(self, mode: str) -> float:
        """Fraction of demand reads serviced in the given mode."""
        return self.reads_by_mode.get(mode, 0) / self.reads if self.reads else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-serializable form (see :meth:`from_dict`).

        Floats survive a ``json`` round trip bit-for-bit (Python emits
        shortest-roundtrip reprs), so a reloaded run compares equal to the
        original on every metric. The telemetry histograms are deliberately
        excluded: cache payloads and cross-run comparisons must not depend
        on whether a run was traced. Fault counters appear under a
        ``"faults"`` key, and ``truncated_writes`` under its own key, only
        when nonzero, keeping other payloads (and the pinned sweep digest)
        unchanged.
        """
        payload: Dict[str, Any] = {
            "scheme": self.scheme,
            "workload": self.workload,
            "execution_time_ns": self.execution_time_ns,
            "instructions": self.instructions,
            "reads": self.reads,
            "writes": self.writes,
            "reads_by_mode": dict(self.reads_by_mode),
            "conversions": self.conversions,
            "silent_corruptions": self.silent_corruptions,
            "uncorrectable_reads": self.uncorrectable_reads,
            "scrub_ops": self.scrub_ops,
            "scrub_rewrites": self.scrub_rewrites,
            "scrubs_skipped": self.scrubs_skipped,
            "cancelled_writes": self.cancelled_writes,
            "total_read_latency_ns": self.total_read_latency_ns,
            "energy": {
                "params": dataclasses.asdict(self.energy.params),
                "data_bits": self.energy.data_bits,
                "by_category": dict(self.energy.by_category),
            },
            "wear": {
                "cells_per_line": self.wear.cells_per_line,
                "by_cause": dict(self.wear.by_cause),
            },
        }
        if self.truncated_writes:
            payload["truncated_writes"] = self.truncated_writes
        if self.fault_counters:
            payload["faults"] = self.fault_counters.as_dict()
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunStats":
        """Rebuild a run from :meth:`to_dict` output (e.g. the sweep cache)."""
        energy = EnergyAccount(
            params=EnergyParams(**data["energy"]["params"]),
            data_bits=data["energy"]["data_bits"],
            by_category=dict(data["energy"]["by_category"]),
        )
        wear = WearAccount(
            cells_per_line=data["wear"]["cells_per_line"],
            by_cause=dict(data["wear"]["by_cause"]),
        )
        faults = FaultCounters.from_dict(data.get("faults", {}))
        return cls(
            scheme=data["scheme"],
            workload=data["workload"],
            execution_time_ns=data["execution_time_ns"],
            instructions=data["instructions"],
            reads=data["reads"],
            writes=data["writes"],
            reads_by_mode=dict(data["reads_by_mode"]),
            conversions=data["conversions"],
            silent_corruptions=data["silent_corruptions"],
            uncorrectable_reads=data["uncorrectable_reads"],
            scrub_ops=data["scrub_ops"],
            scrub_rewrites=data["scrub_rewrites"],
            scrubs_skipped=data["scrubs_skipped"],
            cancelled_writes=data["cancelled_writes"],
            truncated_writes=data.get("truncated_writes", 0),
            total_read_latency_ns=data["total_read_latency_ns"],
            energy=energy,
            wear=wear,
            fault_counters=faults,
        )

    def summary(self) -> Dict[str, float]:
        """Compact dictionary for tabular reporting."""
        return {
            "scheme": self.scheme,
            "workload": self.workload,
            "exec_ms": self.execution_time_ns / 1e6,
            "ipc": self.ipc,
            "avg_read_ns": self.avg_read_latency_ns,
            "read_R": self.mode_fraction("R"),
            "read_M": self.mode_fraction("M"),
            "read_RM": self.mode_fraction("RM"),
            "conversions": self.conversions,
            "scrub_ops": self.scrub_ops,
            "scrub_rewrites": self.scrub_rewrites,
            "energy_uj": self.dynamic_energy_pj / 1e6,
            "cell_writes": self.total_cell_writes,
        }
