"""The artifact catalog: every reproducible table and figure by id.

:data:`EXPERIMENTS` maps experiment ids to driver callables
(``run(**kwargs) -> ExperimentResult``) so the CLI and the benchmark
harness can enumerate them. The ids, their order and their drivers'
locations come from :mod:`.index`, and a driver's module is imported on
the first lookup of its id: iterating the ids imports none, and
``readduo run table1`` imports only Table I's driver.
"""

import sys
from importlib import import_module
from typing import Any, Dict, Iterator, Mapping, MutableMapping, Tuple

from .index import DRIVERS, SPEC_COLLECTORS, SWEEP_EXPERIMENTS

__all__ = ["EXPERIMENTS", "EXPERIMENT_SPECS", "SWEEP_EXPERIMENTS"]


class _LazyTable(MutableMapping[str, Any]):
    """Id -> the attribute an :mod:`.index` table locates, imported on first
    lookup. Iteration follows the index's order and imports nothing; an
    id set by hand (a test's stand-in driver) shadows its location until
    the located attribute itself is set back."""

    def __init__(self, locations: Mapping[str, Tuple[str, str]]) -> None:
        self._index = dict(locations)
        self._locations: Dict[str, Any] = dict(locations)
        self._values: Dict[str, Any] = {}

    def located(self, key: str) -> bool:
        """Whether ``key`` resolves to its index location, not a value set
        by hand; answering imports nothing."""
        return self._locations.get(key) is not None

    def __getitem__(self, key: str) -> Any:
        if key not in self._values:
            module, attribute = self._locations[key]
            self._values[key] = getattr(
                import_module(f"{__package__}.{module}"), attribute
            )
        return self._values[key]

    def __setitem__(self, key: str, value: Any) -> None:
        location = self._index.get(key)
        if location is not None:
            module = sys.modules.get(f"{__package__}.{location[0]}")
            if getattr(module, location[1], None) is not value:
                location = None
        self._locations[key] = location
        self._values[key] = value

    def __delitem__(self, key: str) -> None:
        del self._locations[key]
        self._values.pop(key, None)

    def __contains__(self, key: object) -> bool:
        return key in self._locations

    def __iter__(self) -> Iterator[str]:
        return iter(self._locations)

    def __len__(self) -> int:
        return len(self._locations)


#: Experiment id -> driver, ``run(**kwargs) -> ExperimentResult``.
EXPERIMENTS = _LazyTable(DRIVERS)

#: Spec collectors: experiment id -> callable returning the SimSpecs that
#: experiment's driver will feed to run_sweep (see
#: :data:`.index.SPEC_COLLECTORS`). The CLI's planned ``readduo run``
#: unions these up front (plan -> dedupe -> execute) so overlapping
#: artifacts simulate each distinct run exactly once; the drivers, which
#: take the service as their ``service`` argument, then read the
#: prewarmed memo.
EXPERIMENT_SPECS: MutableMapping[str, Any] = _LazyTable(SPEC_COLLECTORS)
