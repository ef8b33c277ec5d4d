"""Scheme registry: pluggable drift-mitigation schemes by name.

Every scheme the simulator can run — the paper's designs in
:mod:`repro.core.policies`, the TLC baseline in :mod:`repro.baselines`,
or a user-defined plugin — registers itself here with a *name pattern*,
a *parameter parser*, and a *factory*. Everything downstream (CLI
validation, :class:`~repro.experiments.spec.SimSpec`, the sweep runner
and its worker processes) resolves scheme names through this registry,
so adding a scheme is one :func:`register_scheme` call in one file with
zero edits to the CLI, runner, or parallel executor.

Two kinds of registration:

* **Fixed name** — ``@register_scheme("Hybrid")`` maps one canonical
  name to one factory (optionally with preset constructor ``params``,
  e.g. ``Scrubbing`` vs ``Scrubbing-W0``).
* **Parameterized family** — ``@register_scheme(pattern=r"LWT-(\\d+)...",
  parse=..., canonical=..., syntax="LWT-<k>[-noconv]")`` maps a whole
  regex family; ``parse`` turns a match into constructor kwargs and
  ``canonical`` renders kwargs back into the canonical spelling.

Name resolution is exact-match on canonical spellings; CLI-friendly
aliases (case-insensitive, optional ``readduo-`` prefix:
``readduo-lwt-4`` -> ``LWT-4``) resolve via
:func:`canonical_scheme_name`.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

__all__ = [
    "SchemeFamily",
    "register_scheme",
    "unregister_scheme",
    "resolve_scheme",
    "resolve_alias",
    "scheme_names",
    "scheme_catalog",
    "family_syntaxes",
    "is_scheme_name",
    "canonical_scheme_name",
    "enumerate_family",
    "make_policy",
    "format_param",
    "unknown_scheme_message",
]

#: Alias prefix stripped (case-insensitively) before alias matching.
ALIAS_PREFIX = "readduo-"

#: Constructor keyword arguments parsed out of a scheme name.
ParamDict = Dict[str, Any]


@dataclass(frozen=True)
class SchemeFamily:
    """One registry entry: a fixed scheme name or a parameterized family.

    Attributes:
        key: Unique registry key (the fixed name, or the family syntax).
        pattern: Canonical-name regex; resolution uses ``fullmatch``.
        alias_pattern: The same regex compiled case-insensitively, used
            for alias resolution after the ``readduo-`` prefix strip.
        factory: ``factory(ctx, **params) -> policy`` — usually the
            policy class itself.
        parse: Maps a ``pattern`` match to constructor ``params``;
            raises ``ValueError`` when a parameter is out of range.
        canonical: Renders ``params`` back into the canonical spelling.
        listed: Concrete names advertised in listings (CLI ``list``,
            :func:`scheme_names`); a family lists its paper variants.
        syntax: Human-readable family syntax (``LWT-<k>[-noconv]``) for
            error messages; ``None`` for fixed-name schemes.
        axes: Parameter axes of the family, in enumeration order —
            the keys :func:`enumerate_family` cross-products over
            (``("k", "s")`` for ``Select-<k>:<s>``). Empty for fixed
            names and families that opt out of enumeration.
    """

    key: str
    pattern: "re.Pattern[str]"
    alias_pattern: "re.Pattern[str]"
    factory: Callable[..., Any]
    parse: Callable[["re.Match[str]"], ParamDict]
    canonical: Callable[[ParamDict], str]
    listed: Tuple[str, ...]
    syntax: Optional[str] = None
    axes: Tuple[str, ...] = field(default=())


def format_param(value: float) -> str:
    """Lossless spelling of a numeric name parameter (``640``, ``2.5``)."""
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)


#: Registration-order registry (dicts preserve insertion order).
_FAMILIES: Dict[str, SchemeFamily] = {}


def _registry() -> Dict[str, SchemeFamily]:
    """:data:`_FAMILIES`, with the built-in schemes registered first.

    Importing :mod:`repro.core.policies` registers them in listing order,
    so a query or a plugin registration from a process that has not yet
    imported a policy still sees the built-ins, in the same order.
    """
    from . import policies  # noqa: F401

    return _FAMILIES


def register_scheme(
    name: Optional[str] = None,
    *,
    pattern: Optional[str] = None,
    parse: Optional[Callable[["re.Match[str]"], ParamDict]] = None,
    canonical: Optional[Callable[[ParamDict], str]] = None,
    listed: Optional[Tuple[str, ...]] = None,
    syntax: Optional[str] = None,
    params: Optional[ParamDict] = None,
    factory: Optional[Callable[..., Any]] = None,
    axes: Optional[Tuple[str, ...]] = None,
):
    """Class decorator (also usable as a plain call) registering a scheme.

    Exactly one of ``name`` (fixed scheme) or ``pattern`` (parameterized
    family) is required. The decorated class is the default factory and
    is returned unchanged, so registration stacks with inheritance::

        @register_scheme("Hybrid")
        class HybridPolicy(BaseDriftPolicy): ...

        register_scheme("Scrubbing-W0", params={"w": 0})(ScrubbingPolicy)

    Args:
        name: Canonical fixed name (``"Hybrid"``).
        pattern: Canonical-name regex for a family (anchored via
            ``fullmatch``); requires ``parse`` and ``canonical``.
        parse: ``match -> params`` for pattern families (raising
            ``ValueError`` rejects the name).
        canonical: ``params -> canonical name`` for pattern families.
        listed: Names to advertise in listings; defaults to ``(name,)``
            for fixed schemes and ``()`` for families.
        syntax: Family syntax shown in unknown-scheme errors.
        params: Preset constructor kwargs for fixed-name schemes.
        factory: Override factory; defaults to the decorated class.
        axes: Parameter axes (canonical-renderer keys) in enumeration
            order, enabling :func:`enumerate_family` for this family.

    Raises:
        ValueError: On a duplicate key or inconsistent arguments.
    """
    if (name is None) == (pattern is None):
        raise ValueError("provide exactly one of name= or pattern=")
    if name is not None and (parse is not None or canonical is not None):
        raise ValueError("parse=/canonical= apply only to pattern= families")
    if pattern is not None and (parse is None or canonical is None):
        raise ValueError("pattern= families need parse= and canonical=")
    if pattern is not None and params is not None:
        raise ValueError("params= applies only to fixed-name schemes")
    if name is not None and axes is not None:
        raise ValueError("axes= applies only to pattern= families")

    def decorate(cls):
        if name is not None:
            key = name
            compiled = re.compile(re.escape(name))
            alias = re.compile(re.escape(name), re.IGNORECASE)
            preset = dict(params or {})
            entry_parse: Callable[["re.Match[str]"], ParamDict] = (
                lambda match, _preset=preset: dict(_preset)
            )
            entry_canonical: Callable[[ParamDict], str] = (
                lambda _params, _name=name: _name
            )
            entry_listed = (name,) if listed is None else tuple(listed)
        else:
            key = syntax or pattern
            compiled = re.compile(pattern)
            alias = re.compile(pattern, re.IGNORECASE)
            entry_parse = parse
            entry_canonical = canonical
            entry_listed = tuple(listed or ())
        families = _registry()
        if key in families:
            raise ValueError(f"scheme {key!r} is already registered")
        families[key] = SchemeFamily(
            key=key,
            pattern=compiled,
            alias_pattern=alias,
            factory=factory if factory is not None else cls,
            parse=entry_parse,
            canonical=entry_canonical,
            listed=entry_listed,
            syntax=syntax,
            axes=tuple(axes or ()),
        )
        return cls

    return decorate


def unregister_scheme(key: str) -> bool:
    """Remove a registry entry by its key; returns whether it existed.

    Intended for tests and plugin teardown — the built-in schemes
    re-register only on a fresh interpreter.
    """
    return _registry().pop(key, None) is not None


def _parse(family: SchemeFamily, match: "re.Match[str]") -> Optional[ParamDict]:
    """``family.parse(match)``, or None when a parameter is out of range."""
    try:
        return family.parse(match)
    except ValueError:
        return None


def resolve_scheme(name: str) -> Optional[Tuple[SchemeFamily, ParamDict]]:
    """Match a canonical scheme name; None when no entry claims it."""
    for family in _registry().values():
        match = family.pattern.fullmatch(name)
        if match is not None:
            params = _parse(family, match)
            if params is not None:
                return family, params
    return None


def scheme_names() -> Tuple[str, ...]:
    """Every advertised scheme name, in registration order.

    Families list their concrete paper variants (``LWT-4`` ...); the
    full parameter space additionally accepted by :func:`make_policy` is
    described by :func:`family_syntaxes`.
    """
    return tuple(
        listed for family in _registry().values() for listed in family.listed
    )


def family_syntaxes() -> Tuple[str, ...]:
    """Syntax strings of the parameterized families (``LWT-<k>[-noconv]``)."""
    return tuple(
        family.syntax for family in _registry().values() if family.syntax
    )


def is_scheme_name(name: str) -> bool:
    """True when :func:`make_policy` would accept ``name``.

    Covers fixed names plus every parameterized-family spelling, without
    constructing a policy (callers validate before spending time on
    trace generation).
    """
    return resolve_scheme(name) is not None


def resolve_alias(name: str) -> Optional[Tuple[SchemeFamily, ParamDict]]:
    """:func:`resolve_scheme`, falling back to the alias spellings."""
    resolved = resolve_scheme(name)
    if resolved is not None:
        return resolved
    lowered = name.lower()
    if lowered.startswith(ALIAS_PREFIX):
        lowered = lowered[len(ALIAS_PREFIX):]
    for family in _registry().values():
        match = family.alias_pattern.fullmatch(lowered)
        params = _parse(family, match) if match is not None else None
        if params is not None:
            return family, params
    return None


def canonical_scheme_name(name: str) -> str:
    """Resolve CLI-friendly aliases onto canonical scheme names.

    Canonical names map to themselves (modulo parameter normalization).
    Aliases are case-insensitive with an optional ``readduo-`` prefix:
    ``readduo-hybrid`` -> ``Hybrid``, ``lwt-4`` -> ``LWT-4``,
    ``readduo-select-4:2`` -> ``Select-4:2``. Unknown names are returned
    unchanged so validation can report them.
    """
    resolved = resolve_alias(name)
    return name if resolved is None else resolved[0].canonical(resolved[1])


def enumerate_family(
    key: str, values: Mapping[str, Sequence[Any]]
) -> Tuple[str, ...]:
    """Cross-product a parameterized family into canonical scheme names.

    The design-space explorer (``readduo explore``) materializes whole
    parameter grids from a family in one call::

        enumerate_family("Select-<k>:<s>", {"k": [2, 4], "s": [1, 2]})
        # -> ("Select-2:1", "Select-2:2", "Select-4:1", "Select-4:2")

    Args:
        key: Registry key of the family — its ``syntax`` string
            (``"LWT-<k>[-noconv]"``) or the raw pattern it was
            registered under.
        values: Candidate values per axis. Axes missing from ``values``
            keep the family's canonical defaults (``conversion_enabled``
            for LWT); unknown keys raise.

    Returns:
        Canonical names in deterministic order: the cross product
        iterates the family's declared ``axes`` order, earlier axes
        outermost, values in the order given.

    Raises:
        KeyError: Unknown family key, or a family without declared axes.
        ValueError: A value key outside the family's axes, an empty
            value list, or a rendered name that fails to round-trip
            through :func:`resolve_scheme` (invalid parameter value).
    """
    family = _registry().get(key)
    if family is None:
        known = [f.key for f in _registry().values() if f.axes]
        raise KeyError(
            f"unknown scheme family {key!r}; enumerable families: "
            f"{', '.join(known) if known else '(none)'}"
        )
    if not family.axes:
        raise KeyError(f"scheme family {key!r} declares no parameter axes")
    unknown = sorted(set(values) - set(family.axes))
    if unknown:
        raise ValueError(
            f"unknown axes for {key!r}: {', '.join(map(str, unknown))}; "
            f"declared: {', '.join(family.axes)}"
        )
    active = [axis for axis in family.axes if axis in values]
    pools = []
    for axis in active:
        pool = list(values[axis])
        if not pool:
            raise ValueError(f"axis {axis!r} of {key!r} has no values")
        pools.append(pool)
    names = []
    for combo in itertools.product(*pools):
        params = dict(zip(active, combo))
        rendered = family.canonical(params)
        resolved = resolve_scheme(rendered)
        if resolved is None or resolved[0] is not family:
            raise ValueError(
                f"{key!r} cannot render {params!r}: {rendered!r} is not a "
                "valid member of the family"
            )
        names.append(rendered)
    return tuple(dict.fromkeys(names))


def scheme_catalog() -> Dict[str, Any]:
    """Machine-readable registry listing: names, aliases, family syntaxes.

    The same data :func:`unknown_scheme_message` renders as an error is
    exposed here as discovery metadata, so clients (``readduo schemes``,
    the serve daemon's ``GET /v1/schemes``) can enumerate valid
    :class:`~repro.experiments.spec.SimSpec` scheme spellings without
    trial-and-error. Per advertised name: the canonical spelling, the
    lowercase/prefixed aliases :func:`canonical_scheme_name` resolves,
    and the family it belongs to (``None`` for fixed-name schemes).
    Families additionally carry their full parameter syntax
    (``LWT-<k>[-noconv]``), which accepts spellings beyond the listed
    paper variants.
    """
    schemes = []
    families = []
    for family in _registry().values():
        if family.syntax is not None:
            families.append(
                {
                    "syntax": family.syntax,
                    "listed": list(family.listed),
                    "axes": list(family.axes),
                }
            )
        for name in family.listed:
            schemes.append(
                {
                    "name": name,
                    "aliases": sorted(
                        {name.lower(), ALIAS_PREFIX + name.lower()} - {name}
                    ),
                    "family": family.syntax,
                }
            )
    return {
        "alias_prefix": ALIAS_PREFIX,
        "schemes": schemes,
        "families": families,
    }


def unknown_scheme_message(unknown) -> str:
    """Error text listing fixed names and parameterized families."""
    if isinstance(unknown, str):
        unknown = [unknown]
    families = family_syntaxes()
    suffix = f" (plus {', '.join(families)})" if families else ""
    return (
        f"unknown schemes: {', '.join(unknown)}; "
        f"known: {', '.join(scheme_names())}{suffix}"
    )


def make_policy(name: str, ctx):
    """Instantiate a scheme policy by its canonical name.

    Args:
        name: Canonical scheme name (resolve aliases first via
            :func:`canonical_scheme_name`).
        ctx: :class:`~repro.core.policies.base.PolicyContext`.

    Raises:
        ValueError: For unregistered names; the message enumerates the
            fixed names and the parameterized families.
    """
    resolved = resolve_scheme(name)
    if resolved is None:
        raise ValueError(unknown_scheme_message(name))
    family, params = resolved
    return family.factory(ctx, **params)
