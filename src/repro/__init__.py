"""ReadDuo: reliable MLC phase-change memory through fast and robust readout.

A full reproduction of *"ReadDuo: Constructing Reliable MLC Phase Change
Memory through Fast and Robust Readout"* (R. Wang, Y. Zhang, J. Yang —
DSN 2016), built as a standalone Python library:

* :mod:`repro.pcm` — the MLC PCM device substrate (drift physics, sensing,
  cell arrays, energy/area/endurance models);
* :mod:`repro.reliability` — the analytic drift reliability math behind
  the paper's Tables III-V;
* :mod:`repro.ecc` — GF(2^m) and BCH-8 with decoupled detect/correct;
* :mod:`repro.traces` — SPEC2006-like workload profiles and trace
  generation;
* :mod:`repro.memsim` — the event-driven memory-system simulator;
* :mod:`repro.core` — the ReadDuo schemes (Hybrid, LWT-k, Select-(k:s))
  and baselines;
* :mod:`repro.metrics` — EDAP and lifetime;
* :mod:`repro.obs` — opt-in telemetry: metrics registry, event tracing
  (JSONL / Chrome trace_event), logging helpers (docs/OBSERVABILITY.md);
* :mod:`repro.experiments` — drivers regenerating every paper table and
  figure (also available as the ``readduo`` CLI).

Quickstart::

    from repro import quick_compare
    print(quick_compare("mcf"))

or see ``examples/quickstart.py`` for the full tour.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence

from ._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .memsim.config import MemoryConfig
    from .memsim.stats import RunStats

__version__ = "1.0.0"

# Public names resolve on first access: ``import repro`` (and so every
# ``readduo`` process) imports none of the numeric stack up front.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".core.readout": ("ReadDuoController", "ReadMechanism", "ReadOutcome"),
    ".core.policies": (
        "HybridPolicy",
        "IdealPolicy",
        "LwtPolicy",
        "MMetricPolicy",
        "PolicyContext",
        "ScrubbingPolicy",
        "SelectPolicy",
    ),
    ".core.registry": ("make_policy", "scheme_names"),
    ".experiments.spec": ("SimSpec", "SpecError"),
    ".memsim.config": ("DEFAULT_EPOCH_S", "MemoryConfig"),
    ".memsim.engine": ("MemorySystemSim", "simulate"),
    ".memsim.stats": ("RunStats",),
    ".obs": ("MetricsRegistry", "Telemetry", "Tracer"),
    ".pcm.params": (
        "M_METRIC",
        "R_METRIC",
        "EnergyParams",
        "MetricParams",
        "TimingParams",
    ),
    ".reliability.ler": ("ler_table", "line_failure_probability"),
    ".reliability.targets": ("DRAM_TARGET", "ReliabilityTarget"),
    ".traces.generator": ("generate_trace",),
    ".traces.spec": (
        "SPEC_WORKLOADS",
        "WorkloadProfile",
        "instructions_for_requests",
        "workload",
        "workload_names",
    ),
})


__all__ = [
    "__version__",
    "SimSpec",
    "SpecError",
    "ReadDuoController",
    "ReadMechanism",
    "ReadOutcome",
    "HybridPolicy",
    "IdealPolicy",
    "LwtPolicy",
    "MMetricPolicy",
    "PolicyContext",
    "scheme_names",
    "ScrubbingPolicy",
    "SelectPolicy",
    "make_policy",
    "DEFAULT_EPOCH_S",
    "MemoryConfig",
    "MemorySystemSim",
    "simulate",
    "RunStats",
    "Telemetry",
    "Tracer",
    "MetricsRegistry",
    "M_METRIC",
    "R_METRIC",
    "EnergyParams",
    "MetricParams",
    "TimingParams",
    "ler_table",
    "line_failure_probability",
    "DRAM_TARGET",
    "ReliabilityTarget",
    "generate_trace",
    "SPEC_WORKLOADS",
    "WorkloadProfile",
    "instructions_for_requests",
    "workload",
    "workload_names",
    "quick_compare",
]


def quick_compare(
    workload_name: str = "mcf",
    schemes: Sequence[str] = ("Ideal", "Scrubbing", "M-metric", "Hybrid",
                              "LWT-4", "Select-4:2"),
    target_requests: int = 10_000,
    seed: int = 42,
    config: Optional[MemoryConfig] = None,
) -> Dict[str, RunStats]:
    """One-call scheme comparison on a single workload.

    Generates one trace and replays it under every requested scheme —
    the smallest end-to-end use of the library.

    Args:
        workload_name: One of :func:`repro.traces.spec.workload_names`.
        schemes: Scheme names (see :func:`scheme_names`).
        target_requests: Total memory requests in the trace.
        seed: Trace/policy seed.
        config: Platform override.

    Returns:
        Scheme name -> :class:`RunStats`, all on the identical trace.
    """
    from .core.policies import PolicyContext
    from .core.registry import make_policy
    from .memsim.config import MemoryConfig
    from .memsim.engine import simulate
    from .traces.generator import generate_trace
    from .traces.spec import instructions_for_requests, workload

    config = config or MemoryConfig()
    profile = workload(workload_name)
    trace = generate_trace(
        profile,
        instructions_per_core=instructions_for_requests(
            profile, target_requests, config.num_cores
        ),
        num_cores=config.num_cores,
        seed=seed,
    )
    results: Dict[str, RunStats] = {}
    for scheme in schemes:
        policy = make_policy(
            scheme, PolicyContext(profile=profile, config=config, seed=seed)
        )
        results[scheme] = simulate(trace, policy, config)
    return results
