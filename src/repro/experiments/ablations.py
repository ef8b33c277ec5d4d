"""Ablations of this reproduction's own design choices.

Beyond the paper's sensitivity studies (Figures 12-14), DESIGN.md commits
to three modeling decisions worth isolating:

* **Scrub channel contention** — scrub operations stream through the
  bridge chip and occupy the shared rank channel. Turning that off
  (`scrub_blocks_channel=False`) gives the optimistic bound where
  scrubbing is free bandwidth-wise, which is what makes short-interval
  scrubbing look cheap in naive models.
* **Write cancellation** [18] — demand reads may cancel an in-flight
  write below a progress threshold. Disabling it exposes how much of the
  read latency tail comes from blocking behind 1000 ns writes.
* **Conversion throttle** — the adaptive T controller vs fixed-T
  extremes (always convert / never convert) on a cold-read workload.
* **Write truncation** [11] — the cited MLC write-latency optimization
  layered onto a ReadDuo scheme (complementary, per related work).

Each driver returns an :class:`~repro.experiments.report.ExperimentResult`
built from the specs its ``*_specs`` collector names.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from ..memsim.config import MemoryConfig
from .report import ExperimentResult, geometric_mean
from .runner import run_sweep
from .spec import SimSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..service import ExecutionService

__all__ = [
    "ablation_scrub_contention",
    "ablation_write_cancellation",
    "ablation_conversion_throttle",
    "ablation_write_truncation",
    "conversion_throttle_specs",
    "write_truncation_specs",
]

_DEFAULT_WORKLOADS = ("mcf", "lbm", "gcc")


def _spec_for(
    workloads: Sequence[str],
    target_requests: int,
    config: MemoryConfig,
    seed: int,
    schemes: Sequence[str] = ("Ideal",),
) -> SimSpec:
    """One validated spec per ablation design point."""
    return SimSpec(
        schemes=tuple(schemes),
        workloads=tuple(workloads),
        target_requests=target_requests,
        seed=seed,
        config=config,
    )


def scrub_contention_specs(
    target_requests: int = 8_000,
    workloads: Sequence[str] = _DEFAULT_WORKLOADS,
    scheme: str = "Scrubbing",
    seed: int = 42,
) -> tuple:
    """The two design-point specs the scrub-contention ablation sweeps.

    Exposed separately (and registered in ``EXPERIMENT_SPECS``) so the
    execution planner can union these with the figure sweeps' units up
    front; the driver itself consumes the same specs via
    :func:`~repro.experiments.runner.run_sweep`, so a planned prewarm
    makes it a pure cache read.
    """
    return tuple(
        _spec_for(
            workloads,
            target_requests,
            MemoryConfig(scrub_blocks_channel=blocks),
            seed,
            schemes=("Ideal", scheme),
        )
        for blocks in (True, False)
    )


def ablation_scrub_contention(
    target_requests: int = 8_000,
    workloads: Sequence[str] = _DEFAULT_WORKLOADS,
    scheme: str = "Scrubbing",
    seed: int = 42,
    service: Optional[ExecutionService] = None,
) -> ExperimentResult:
    """Execution-time cost of scrub traffic with/without channel blocking."""
    specs = scrub_contention_specs(target_requests, workloads, scheme, seed)
    canonical = specs[0].schemes[-1]
    grids = [run_sweep(spec, service) for spec in specs]
    rows = []
    for name in workloads:
        row = [name]
        for grid in grids:
            ideal = grid[name]["Ideal"]
            stats = grid[name][canonical]
            row.append(stats.execution_time_ns / ideal.execution_time_ns)
        rows.append(row)
    rows.append(
        ["geomean"]
        + [
            geometric_mean([row[i] for row in rows])
            for i in (1, 2)
        ]
    )
    return ExperimentResult(
        experiment_id="ablation-scrub-contention",
        title=f"{scheme}: scrub channel contention on vs off (norm. exec time)",
        headers=["workload", "contending scrub", "free scrub"],
        rows=rows,
        notes=(
            "With contention disabled the scrub engine costs nothing on "
            "the critical path — the optimistic model under which the "
            "paper's Scrubbing baseline would look (wrongly) harmless."
        ),
    )


def write_cancellation_specs(
    target_requests: int = 8_000,
    workloads: Sequence[str] = _DEFAULT_WORKLOADS,
    scheme: str = "Ideal",
    seed: int = 42,
) -> tuple:
    """The two design-point specs the write-cancellation ablation sweeps.

    Registered in ``EXPERIMENT_SPECS`` for the same planner-prewarm
    reason as :func:`scrub_contention_specs`.
    """
    return tuple(
        _spec_for(
            workloads,
            target_requests,
            MemoryConfig(cancel_threshold=threshold),
            seed,
            schemes=(scheme,),
        )
        for threshold in (0.5, 0.0)
    )


def ablation_write_cancellation(
    target_requests: int = 8_000,
    workloads: Sequence[str] = _DEFAULT_WORKLOADS,
    scheme: str = "Ideal",
    seed: int = 42,
    service: Optional[ExecutionService] = None,
) -> ExperimentResult:
    """Read-latency impact of write cancellation [18]."""
    specs = write_cancellation_specs(target_requests, workloads, scheme, seed)
    canonical = specs[0].schemes[0]
    grids = [run_sweep(spec, service) for spec in specs]
    rows = []
    for name in workloads:
        row = [name]
        for grid in grids:
            row.append(grid[name][canonical].avg_read_latency_ns)
        # cancelled_writes from the cancellation-enabled design point
        row.append(grids[0][name][canonical].cancelled_writes)
        rows.append(row)
    return ExperimentResult(
        experiment_id="ablation-write-cancellation",
        title="Write cancellation on vs off (mean read latency, ns)",
        headers=["workload", "with cancellation", "without", "writes cancelled"],
        rows=rows,
        notes=(
            "Cancellation bounds the time a read can block behind an "
            "in-flight 1000 ns write; write-heavy workloads (lbm) benefit "
            "most."
        ),
    )


def conversion_throttle_specs(
    target_requests: int = 8_000,
    workload_name: str = "sphinx3",
    seed: int = 42,
) -> tuple:
    """Ideal, adaptive LWT-4, then T frozen at 0 (``LWT-4-noconv``) and 100."""
    schemes = ("Ideal", "LWT-4", "LWT-4@T0", "LWT-4@T100")
    return (_spec_for((workload_name,), target_requests, MemoryConfig(), seed, schemes),)


def ablation_conversion_throttle(
    target_requests: int = 8_000,
    workload_name: str = "sphinx3",
    seed: int = 42,
    service: Optional[ExecutionService] = None,
) -> ExperimentResult:
    """Adaptive T vs fixed extremes on a cold-read workload."""
    (spec,) = conversion_throttle_specs(target_requests, workload_name, seed)
    grid = run_sweep(spec, service)[workload_name]
    ideal = grid["Ideal"]
    labels = ("adaptive (paper)", "never convert (T=0)", "always convert (T=100)")
    rows = []
    for label, scheme in zip(labels, spec.schemes[1:]):
        stats = grid[scheme]
        rows.append(
            [
                label,
                stats.execution_time_ns / ideal.execution_time_ns,
                stats.dynamic_energy_pj / ideal.dynamic_energy_pj,
                ideal.total_cell_writes / max(stats.total_cell_writes, 1),
                stats.conversions,
            ]
        )
    return ExperimentResult(
        experiment_id="ablation-conversion-throttle",
        title=f"Conversion throttle variants on {workload_name}",
        headers=["variant", "exec", "energy", "lifetime", "conversions"],
        rows=rows,
        notes=(
            "Always-converting is fastest but burns endurance on writes; "
            "never converting leaves every cold read on the 600 ns "
            "R-M-read path; the adaptive controller sits between, which "
            "is the paper's Section III-C design intent."
        ),
    )


def write_truncation_specs(
    target_requests: int = 8_000,
    workloads: Sequence[str] = ("lbm", "mcf", "bzip2"),
    scheme: str = "Select-4:2",
    seed: int = 42,
) -> tuple:
    """Ideal, ``scheme`` and ``scheme+trunc``."""
    schemes = ("Ideal", scheme, f"{scheme}+trunc")
    return (_spec_for(workloads, target_requests, MemoryConfig(), seed, schemes),)


def ablation_write_truncation(
    target_requests: int = 8_000,
    workloads: Sequence[str] = ("lbm", "mcf", "bzip2"),
    scheme: str = "Select-4:2",
    seed: int = 42,
    service: Optional[ExecutionService] = None,
) -> ExperimentResult:
    """Write truncation [11] layered onto a ReadDuo scheme.

    Truncating converged program-and-verify sequences shortens writes,
    which shrinks both write-queue pressure and the window in which
    demand reads block behind writes — complementary to ReadDuo, as the
    paper's related-work section suggests.
    """
    (spec,) = write_truncation_specs(target_requests, workloads, scheme, seed)
    grid = run_sweep(spec, service)
    rows = []
    for name in workloads:
        ideal = grid[name]["Ideal"]
        # The last two schemes, since ``scheme`` may itself be Ideal.
        plain, truncated = (grid[name][s] for s in spec.schemes[-2:])
        rows.append(
            [
                name,
                plain.execution_time_ns / ideal.execution_time_ns,
                truncated.execution_time_ns / ideal.execution_time_ns,
                truncated.truncated_writes,
            ]
        )
    return ExperimentResult(
        experiment_id="ablation-write-truncation",
        title=f"{scheme} with and without write truncation (norm. exec time)",
        headers=["workload", "full writes", "truncated writes", "writes truncated"],
        rows=rows,
        notes=(
            "Truncation scales each write's P&V latency by a converged "
            "fraction (~0.7 for full lines, less for differential writes "
            "that target fewer cells)."
        ),
    )
