"""Scheme registry: pluggable drift-mitigation schemes by name.

Every scheme the simulator can run — the paper's designs in
:mod:`repro.core.policies`, the baselines in :mod:`repro.baselines`,
or a user-defined plugin — is registered here with a *name pattern*,
a *parameter parser*, and a *factory*. Everything downstream (CLI
validation, :class:`~repro.experiments.spec.SimSpec`, the sweep runner
and its worker processes) resolves scheme names through this registry,
so adding a scheme is one :func:`register_scheme` call (or, for a
built-in, one row of :data:`_BUILTIN_SCHEMES`) with zero edits to the
CLI, runner, or parallel executor.

The built-in schemes are declared in this module, in listing order, and
their factories are ``"module:attr"`` references that :func:`make_policy`
imports on first use. Listing, validating or canonicalizing a name
therefore imports no policy implementation; a plugin passes its factory
as a callable (the decorated class, by default).

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
import math
import re
from importlib import import_module
from typing import (
    Any,
    Callable,
    Dict,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

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
    "lwt_scheme_name",
    "precise_scheme_name",
    "unknown_scheme_message",
]

#: Alias prefix stripped (case-insensitively) before alias matching.
ALIAS_PREFIX = "readduo-"

#: Constructor keyword arguments parsed out of a scheme name.
ParamDict = Dict[str, Any]

#: A policy factory: a callable, or a ``"module:attr"`` reference to one.
Factory = Union[str, Callable[..., Any]]


class SchemeFamily(NamedTuple):
    """One registry entry: a fixed scheme name or a parameterized family.

    A named tuple rather than a dataclass: ``dataclasses`` (with
    ``inspect``) would be the largest import of ``readduo schemes``.

    Attributes:
        key: Unique registry key (the fixed name, or the family syntax).
        pattern: Canonical-name regex; resolution uses ``fullmatch``.
        alias_pattern: The same regex compiled case-insensitively, used
            for alias resolution after the ``readduo-`` prefix strip.
        factory: ``factory(ctx, **params) -> policy`` — usually the
            policy class itself — or a ``"module:attr"`` reference to
            it that :func:`make_policy` imports on first use.
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
    factory: Factory
    parse: Callable[["re.Match[str]"], ParamDict]
    canonical: Callable[[ParamDict], str]
    listed: Tuple[str, ...]
    syntax: Optional[str] = None
    axes: Tuple[str, ...] = ()


def format_param(value: float) -> str:
    """Lossless spelling of a numeric name parameter (``640``, ``2.5``)."""
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)


#: Registration-order registry (dicts preserve insertion order). The
#: built-in schemes fill it when this module is imported, so every query
#: and every plugin registration sees them first, in listing order.
_FAMILIES: Dict[str, SchemeFamily] = {}


def register_scheme(
    name: Optional[str] = None,
    *,
    pattern: Optional[str] = None,
    parse: Optional[Callable[["re.Match[str]"], ParamDict]] = None,
    canonical: Optional[Callable[[ParamDict], str]] = None,
    listed: Optional[Tuple[str, ...]] = None,
    syntax: Optional[str] = None,
    params: Optional[ParamDict] = None,
    factory: Optional[Factory] = None,
    axes: Optional[Tuple[str, ...]] = None,
):
    """Register a scheme: a plain call with ``factory=``, else a decorator.

    Exactly one of ``name`` (fixed scheme) or ``pattern`` (parameterized
    family) is required. Without ``factory`` the call returns a class
    decorator: the decorated class is the factory and is returned
    unchanged, so registration stacks with inheritance. With ``factory``
    the scheme is registered at once (the returned decorator then only
    passes its argument through)::

        @register_scheme("Hybrid")
        class HybridPolicy(BaseDriftPolicy): ...

        register_scheme("Scrubbing-W0", params={"w": 0},
                        factory="repro.core.policies.scrubbing:ScrubbingPolicy")

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
        factory: The factory, or a ``"module:attr"`` reference to it;
            defaults to the decorated class.
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
        if key in _FAMILIES:
            raise ValueError(f"scheme {key!r} is already registered")
        _FAMILIES[key] = SchemeFamily(
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

    if factory is not None:
        decorate(factory)
        return lambda cls: cls
    return decorate


def unregister_scheme(key: str) -> bool:
    """Remove a registry entry by its key; returns whether it existed.

    Intended for tests and plugin teardown — the built-in schemes
    re-register only on a fresh interpreter.
    """
    return _FAMILIES.pop(key, None) is not None


def _parse(family: SchemeFamily, match: "re.Match[str]") -> Optional[ParamDict]:
    """``family.parse(match)``, or None when a parameter is out of range."""
    try:
        return family.parse(match)
    except ValueError:
        return None


def resolve_scheme(name: str) -> Optional[Tuple[SchemeFamily, ParamDict]]:
    """Match a canonical scheme name; None when no entry claims it."""
    for family in _FAMILIES.values():
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
        listed for family in _FAMILIES.values() for listed in family.listed
    )


def family_syntaxes() -> Tuple[str, ...]:
    """Syntax strings of the parameterized families (``LWT-<k>[-noconv]``)."""
    return tuple(
        family.syntax for family in _FAMILIES.values() if family.syntax
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
    for family in _FAMILIES.values():
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
    family = _FAMILIES.get(key)
    if family is None:
        known = [f.key for f in _FAMILIES.values() if f.axes]
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
    for family in _FAMILIES.values():
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
    factory = family.factory
    if isinstance(factory, str):
        module, _, attribute = factory.partition(":")
        factory = getattr(import_module(module), attribute)
    return factory(ctx, **params)


# ------------------------------------------------------------- built-ins

#: LWT's default scrub interval, omitted from its names: the paper's
#: M-metric interval, ``repro.core.policies.base.M_SCRUB_INTERVAL_S``.
_LWT_INTERVAL_S = 640.0


def lwt_scheme_name(
    k: int = 4,
    conversion_enabled: bool = True,
    fixed_t: Optional[int] = None,
    interval_s: float = _LWT_INTERVAL_S,
) -> str:
    """Canonical ``LWT-<k>[-noconv][@T<t>][@S<s>]`` spelling (``@S640`` omitted)."""
    name = f"LWT-{k}" + ("" if conversion_enabled else "-noconv")
    if fixed_t is not None:
        name += f"@T{fixed_t}"
    if interval_s != _LWT_INTERVAL_S:
        name += f"@S{format_param(interval_s)}"
    return name


def precise_scheme_name(program_width_sigma: float) -> str:
    """Canonical ``Precise-<w>`` spelling for a programming width."""
    return f"Precise-{format_param(program_width_sigma)}"


def _parse_lwt(match: "re.Match[str]") -> ParamDict:
    from .lwt import _validate_k

    k = int(match.group("k"))
    _validate_k(k)
    params: ParamDict = {"k": k, "conversion_enabled": match.group("noconv") is None}
    if match.group("t") is not None:
        t = int(match.group("t"))
        if not 0 <= t <= 100 or not params["conversion_enabled"]:
            raise ValueError("@T<t> needs 0 <= t <= 100 and no -noconv")
        # A throttle frozen at 0 never converts: that is -noconv.
        params.update({"fixed_t": t} if t else {"conversion_enabled": False})
    if match.group("s") is not None:
        params["interval_s"] = float(match.group("s"))
        if not 0 < params["interval_s"] < math.inf:
            raise ValueError("@S<s> needs a finite s > 0")
    return params


def _parse_select(match: "re.Match[str]") -> ParamDict:
    from .lwt import _validate_k

    k, s = int(match.group("k")), int(match.group("s"))
    _validate_k(k)
    if s < 1:
        raise ValueError("s must be >= 1")
    return {"k": k, "s": s}


def _check_precise_width(width: float) -> float:
    """``width`` if ``Precise-<w>`` accepts it, else ``ValueError``."""
    from ..pcm.params import R_METRIC

    # Narrowing below the default only widens the guard band: a safe S exists.
    if not 0 < width <= R_METRIC.program_width_sigma:
        raise ValueError(
            "program width must be positive and at most the default "
            f"{R_METRIC.program_width_sigma}"
        )
    return width


def _parse_trunc(match: "re.Match[str]") -> ParamDict:
    resolved = resolve_alias(match.group("inner"))
    if resolved is None:
        raise ValueError(f"unknown inner scheme {match.group('inner')!r}")
    family, params = resolved
    return {"inner": family.canonical(params)}


#: The built-in schemes in listing order: the paper's schemes, then the
#: baselines, then the ``+trunc`` wrapper family. Each row is the keyword
#: arguments of one :func:`register_scheme` call.
_BUILTIN_SCHEMES: Tuple[Dict[str, Any], ...] = (
    {"name": "Ideal", "factory": "repro.core.policies.base:IdealPolicy"},
    {
        "name": "Scrubbing",
        "params": {"w": 1},
        "factory": "repro.core.policies.scrubbing:ScrubbingPolicy",
    },
    {
        "name": "Scrubbing-W0",
        "params": {"w": 0},
        "factory": "repro.core.policies.scrubbing:ScrubbingPolicy",
    },
    {"name": "M-metric", "factory": "repro.core.policies.mmetric:MMetricPolicy"},
    {"name": "Hybrid", "factory": "repro.core.policies.hybrid:HybridPolicy"},
    # The advertised syntax omits the ablation suffixes ``@T``/``@S``.
    {
        "pattern": (
            r"LWT-(?P<k>\d+)(?P<noconv>-noconv)?"
            r"(?:@T(?P<t>\d+))?(?:@S(?P<s>\d[\d.e+-]*))?"
        ),
        "parse": _parse_lwt,
        "canonical": lambda params: lwt_scheme_name(**params),
        "listed": ("LWT-2", "LWT-4", "LWT-4-noconv"),
        "syntax": "LWT-<k>[-noconv]",
        "axes": ("k", "conversion_enabled"),
        "factory": "repro.core.policies.lwt:LwtPolicy",
    },
    {
        "pattern": r"Select-(?P<k>\d+):(?P<s>\d+)",
        "parse": _parse_select,
        "canonical": lambda params: "Select-{}:{}".format(params["k"], params["s"]),
        "listed": ("Select-4:1", "Select-4:2"),
        "syntax": "Select-<k>:<s>",
        "axes": ("k", "s"),
        "factory": "repro.core.policies.select:SelectPolicy",
    },
    {
        "pattern": r"Precise-(?P<w>\d[\d.e+-]*)",
        "parse": lambda match: {
            "program_width_sigma": _check_precise_width(float(match.group("w")))
        },
        "canonical": lambda params: precise_scheme_name(params["program_width_sigma"]),
        "factory": "repro.baselines.precise:precise_write_policy",
    },
    {"name": "TLC", "factory": "repro.baselines.tlc:TlcPolicy"},
    {
        # One level: the inner name never contains ``+trunc``, so never
        # re-enters this family.
        "pattern": r"(?P<inner>(?:(?!\+trunc).)+)\+trunc",
        "parse": _parse_trunc,
        "canonical": lambda params: f"{params['inner']}+trunc",
        "factory": "repro.core.truncation:truncated_policy",
    },
)

for _entry in _BUILTIN_SCHEMES:
    register_scheme(**_entry)
