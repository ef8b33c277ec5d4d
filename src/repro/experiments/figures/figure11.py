"""Figure 11 — storage density and EDAP comparison.

Left half: cells required to store one 64B line, normalized to TLC
(MLC+BCH-8 schemes need ~23% fewer cells). Right half: EDAP (energy x
delay x area), dynamic ("Product-D") and system ("Product-S") variants,
as geometric means across all workloads. Headline: Select-4:2 beats TLC
by ~37% on Product-D.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from ...metrics.edap import compute_edap
from ...pcm.area import normalized_area, scheme_cell_counts, tlc_line_budget
from ..report import ExperimentResult, geometric_mean
from ..runner import run_sweep
from ._sweep import sweep_settings

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...service import ExecutionService

__all__ = ["run", "FIGURE11_SCHEMES"]

FIGURE11_SCHEMES: Sequence[str] = (
    "TLC",
    "Scrubbing",
    "M-metric",
    "Hybrid",
    "LWT-4",
    "Select-4:2",
)


def run(
    target_requests: Optional[int] = None,
    schemes: Sequence[str] = FIGURE11_SCHEMES,
    workloads: Sequence[str] = (),
    service: Optional[ExecutionService] = None,
) -> ExperimentResult:
    """Reproduce Figure 11 (cells per line + EDAP vs TLC)."""
    settings = sweep_settings(target_requests, workloads)
    sweep = run_sweep(settings, service)
    budgets = scheme_cell_counts()
    tlc = tlc_line_budget()

    rows: List[List[object]] = []
    for scheme in schemes:
        edap_d: List[float] = []
        edap_s: List[float] = []
        for per_scheme in sweep.values():
            entries_d = compute_edap(per_scheme, reference="TLC")
            entries_s = compute_edap(
                per_scheme,
                reference="TLC",
                system_energy=True,
                total_lines=settings.config.total_lines,
            )
            edap_d.append(entries_d[scheme].edap)
            edap_s.append(entries_s[scheme].edap)
        area_key = scheme if scheme in budgets else scheme.split(":")[0]
        cells = budgets[area_key].total_cells
        rows.append(
            [
                scheme,
                cells,
                normalized_area(budgets[area_key], tlc),
                geometric_mean(edap_d),
                geometric_mean(edap_s),
            ]
        )
    notes = (
        "Cells per 64B line: TLC = 8x(72,64) SECDED words on tri-level "
        "pairs (384 cells); MLC schemes = 512 data + 80 BCH-8 bits (296 "
        "cells) plus LWT flag cells. EDAP is normalized to TLC; lower is "
        "better. Product-D uses dynamic energy, Product-S adds background "
        "energy over the run."
    )
    return ExperimentResult(
        experiment_id="figure11",
        title="Storage density and EDAP (normalized to TLC)",
        headers=["scheme", "cells/line", "area vs TLC", "EDAP-D", "EDAP-S"],
        rows=rows,
        notes=notes,
    )
