"""The figure drivers' one entry point into the execution stack.

Figures 3/4/9–15, the scrub/cancellation ablations and the fault and
scrub-interval extras all read cells of the same scheme x workload grid.
:func:`run_sweep` hands a spec to the caller's
:class:`~repro.service.ExecutionService`, which resolves every run unit
through its run memo, then its run store, then simulation, so
``readduo run`` renders every driver from the units it planned up front.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

from ..memsim.stats import RunStats
from .spec import SimSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..service.execution import ExecutionService

__all__ = ["run_sweep"]


def run_sweep(
    spec: SimSpec, service: Optional["ExecutionService"] = None
) -> Mapping[str, Mapping[str, RunStats]]:
    """One spec's ``{workload: {scheme: RunStats}}`` grid.

    Args:
        spec: The grid to resolve.
        service: The service whose jobs, memo, run store and telemetry
            resolve it. ``None`` resolves on an isolated, cold service:
            serial, in-process, with an empty memo of its own and no
            persistent store, so every unit simulates. Callers that
            sweep overlapping specs pass one service to share its memo.

    Returns:
        The grid in canonical spec order. Its ``RunStats`` are shared
        with the service's memo — treat them as read-only.
    """
    if service is None:
        from ..service.execution import ExecutionService

        service = ExecutionService(cache=False)
    return service.sweep(spec)
