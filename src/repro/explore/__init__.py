"""Design-space exploration: Pareto-frontier search over scheme configs.

The explorer (ROADMAP item 4) searches the (scheme-family params x ECC
strength x scrub interval x MemoryConfig) space for the EDAP / FIT /
lifetime Pareto frontier: every candidate is scored once at the full
requested budget and the non-dominated set is kept. Candidates
materialize as ordinary :class:`~repro.experiments.spec.SimSpec`
documents and resolve through
:class:`~repro.service.ExecutionService` (or a running ``readduo
serve`` daemon), so the whole cache hierarchy applies — a killed and
restarted exploration re-simulates zero completed units, and the same
seed + space + budget produces a bit-identical frontier regardless of
jobs, workers, or topology. See docs/EXPLORE.md.
"""

from .engine import (
    ExploreResult,
    FrontierEntry,
    LocalExploreBackend,
    PrunedCandidate,
    ServeExploreBackend,
    explore,
)
from .pareto import dominates, pareto_indices
from .space import Candidate, ExploreError, ExploreSpace

__all__ = [
    "Candidate",
    "ExploreError",
    "ExploreResult",
    "ExploreSpace",
    "FrontierEntry",
    "LocalExploreBackend",
    "PrunedCandidate",
    "ServeExploreBackend",
    "dominates",
    "explore",
    "pareto_indices",
]
