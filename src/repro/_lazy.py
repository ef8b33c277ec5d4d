"""Lazy package re-exports (PEP 562).

A package ``__init__`` names each public attribute's defining submodule;
the first access imports that submodule and caches the value in the
package namespace, so later accesses are plain attribute lookups.
Importing a package therefore costs only the package itself:
``readduo schemes`` never pays for numpy just because :mod:`repro.pcm`
re-exports a numpy-backed cell array.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: Dict[str, Any], exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for a package re-exporting lazily.

    Args:
        namespace: The package's ``globals()``.
        exports: Relative submodule name (``".engine"``) -> the public
            names it defines.
    """
    package = namespace["__name__"]
    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner))

    return __getattr__, __dir__
