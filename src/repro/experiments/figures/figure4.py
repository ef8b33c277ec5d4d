"""Figure 4 — read modes under R-only, M-only, and hybrid sensing.

The paper's timeline figure contrasts how the three designs service
reads. The quantitative content is the read-mode mix and the resulting
mean read latency, which this driver reports per scheme from the shared
sweep: R-only services everything in 150 ns but scrubs constantly;
M-only pays 450 ns everywhere; Hybrid services almost everything with
R-reads and falls back to R-M-reads only on detected drift.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from ..report import ExperimentResult
from ..runner import run_sweep
from ._sweep import sweep_settings

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...service import ExecutionService

__all__ = ["run"]

_SCHEMES: Sequence[str] = ("Scrubbing", "M-metric", "Hybrid", "LWT-4")


def run(
    target_requests: Optional[int] = None,
    schemes: Sequence[str] = _SCHEMES,
    workloads: Sequence[str] = (),
    service: Optional[ExecutionService] = None,
) -> ExperimentResult:
    """Reproduce Figure 4's read-mode behaviour as aggregate statistics."""
    settings = sweep_settings(target_requests, workloads)
    sweep = run_sweep(settings, service)
    rows = []
    for scheme in schemes:
        reads = r_mode = m_mode = rm_mode = 0
        latency = 0.0
        scrubs = 0
        for per_scheme in sweep.values():
            stats = per_scheme[scheme]
            reads += stats.reads
            r_mode += stats.reads_by_mode.get("R", 0)
            m_mode += stats.reads_by_mode.get("M", 0)
            rm_mode += stats.reads_by_mode.get("RM", 0)
            latency += stats.total_read_latency_ns
            scrubs += stats.scrub_ops
        rows.append(
            [
                scheme,
                r_mode / reads if reads else 0.0,
                m_mode / reads if reads else 0.0,
                rm_mode / reads if reads else 0.0,
                latency / reads if reads else 0.0,
                scrubs,
            ]
        )
    notes = (
        "R-read = 150 ns, M-read = 450 ns, R-M-read = 600 ns (plus "
        "queueing). Hybrid/LWT keep the R-read share near 1.0, which is "
        "the figure's point; the scrub column shows who keeps the banks "
        "busy doing it."
    )
    return ExperimentResult(
        experiment_id="figure4",
        title="Read modes and mean read latency per scheme",
        headers=["scheme", "R share", "M share", "R-M share",
                 "mean read latency (ns)", "scrub ops"],
        rows=rows,
        notes=notes,
    )
