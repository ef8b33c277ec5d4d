"""Fault-density study: uncorrectable error rate vs injected fault density.

ReadDuo's evaluation assumes drift is the only error source; real MLC PCM
also wears out. This extension sweeps the stuck-at line density (the
endurance wear-out knob of :class:`~repro.faults.FaultSpec`) and measures
how the architectural failure rates respond under a fixed scheme and
workload: how many demand reads end detected-uncorrectable, how many go
silent, and what the fault path costs in performance.

The study rides the standard sweep machinery — each density is one
:class:`~repro.experiments.spec.SimSpec` whose content hash covers the
fault configuration, so densities are planned, deduped, cached, and
parallelized exactly like every other artifact. The zero-density point
normalizes to a fault-free spec (``faults=None``) and therefore shares
its cache entry with every other artifact simulating that same run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from ..faults import FaultSpec
from .report import ExperimentResult
from .runner import run_sweep
from .spec import SimSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..service import ExecutionService

__all__ = [
    "DEFAULT_DENSITIES",
    "fault_density_specs",
    "fault_density_study",
]

#: Stuck-line densities swept by default: a fault-free anchor plus a
#: geometric ramp into territory where multi-cell wear-out dominates.
DEFAULT_DENSITIES: Tuple[float, ...] = (0.0, 0.001, 0.004, 0.016, 0.064)


def _spec_for_density(
    density: float,
    workload_name: str,
    scheme: str,
    target_requests: int,
    seed: int,
    read_noise_rate: float,
    write_fail_rate: float,
    fault_seed: int,
) -> SimSpec:
    # Density zero is the truly fault-free anchor (noise off too): it
    # normalizes to ``faults=None`` and therefore shares its cache entry
    # and its content hash with every fault-free artifact on this run.
    faults: Optional[FaultSpec] = None
    if density > 0.0:
        faults = FaultSpec(
            stuck_line_rate=density,
            read_noise_rate=read_noise_rate,
            write_fail_rate=write_fail_rate,
            seed=fault_seed,
        )
    return SimSpec(
        schemes=(scheme,),
        workloads=(workload_name,),
        target_requests=target_requests,
        seed=seed,
        faults=faults,
    )


def fault_density_specs(
    densities: Sequence[float] = DEFAULT_DENSITIES,
    workload_name: str = "mcf",
    scheme: str = "Hybrid",
    target_requests: int = 6_000,
    seed: int = 42,
    read_noise_rate: float = 0.002,
    write_fail_rate: float = 0.01,
    fault_seed: int = 0,
) -> Tuple[SimSpec, ...]:
    """The specs the fault-density study feeds to ``run_sweep``.

    Registered in ``EXPERIMENT_SPECS`` so ``readduo run`` can prewarm
    them alongside every other artifact's run units.
    """
    return tuple(
        _spec_for_density(
            density,
            workload_name,
            scheme,
            target_requests,
            seed,
            read_noise_rate,
            write_fail_rate,
            fault_seed,
        )
        for density in densities
    )


def fault_density_study(
    densities: Sequence[float] = DEFAULT_DENSITIES,
    workload_name: str = "mcf",
    scheme: str = "Hybrid",
    target_requests: int = 6_000,
    seed: int = 42,
    read_noise_rate: float = 0.002,
    write_fail_rate: float = 0.01,
    fault_seed: int = 0,
    service: Optional[ExecutionService] = None,
) -> ExperimentResult:
    """Uncorrectable-error rate vs stuck-at fault density.

    For each density the same trace runs under the same scheme with a
    progressively more worn memory array. Reported per density:

    * ``injected`` — fault bit errors applied ahead of sensing;
    * ``uncorr rate`` — detected-uncorrectable demand reads per read (the
      artifact's headline curve);
    * ``silent rate`` — silently corrupted demand reads per read;
    * ``exec`` — execution time normalized to the fault-free run (fault
      repairs add R-M retries, conversion writes, and scrub rewrites).
    """
    if not densities:
        raise ValueError("densities must be non-empty")
    specs = fault_density_specs(
        densities,
        workload_name,
        scheme,
        target_requests,
        seed,
        read_noise_rate,
        write_fail_rate,
        fault_seed,
    )
    baseline = None
    rows = []
    for density, spec in zip(densities, specs):
        stats = run_sweep(spec, service)[workload_name][scheme]
        if baseline is None:
            baseline = stats
        reads = max(stats.reads, 1)
        fc = stats.fault_counters
        rows.append(
            [
                density,
                fc.injected,
                stats.uncorrectable_reads / reads,
                stats.silent_corruptions / reads,
                stats.execution_time_ns / max(baseline.execution_time_ns, 1.0),
            ]
        )
    return ExperimentResult(
        experiment_id="extra-fault-density",
        title=(
            f"{scheme} uncorrectable-error rate vs stuck-at fault density "
            f"on {workload_name}"
        ),
        headers=["density", "injected", "uncorr rate", "silent rate", "exec"],
        rows=rows,
        notes=(
            "Stuck lines carry 1..12 permanently broken cells, so raising "
            "the density moves more lines past BCH-8's 8-error correction "
            "bound; the M re-read clears drift but not wear-out, leaving "
            "those reads detected-uncorrectable. Nonzero densities also "
            f"carry fixed read noise ({read_noise_rate:g}/read) and write "
            f"failures ({write_fail_rate:g}/write); density 0 is the "
            "truly fault-free baseline (exec = 1)."
        ),
        extra={
            "workload": workload_name,
            "scheme": scheme,
            "read_noise_rate": read_noise_rate,
            "write_fail_rate": write_fail_rate,
        },
    )
