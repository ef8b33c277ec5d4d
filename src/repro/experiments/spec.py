"""Declarative, validated experiment specification (:class:`SimSpec`).

One frozen value object describes everything that determines a sweep's
outcome: scheme names (canonicalized against the scheme registry and
deduplicated), workload names, trace length, seed, simulation epoch, and
the full :class:`~repro.memsim.config.MemoryConfig`. The same object
flows unchanged through the whole stack — CLI → runner → parallel
workers → persistent cache — and its :meth:`SimSpec.content_hash` is the
*single* cache key, so there is exactly one definition of "the same
experiment".

Specs are constructible three ways, all validated upfront:

* programmatically — ``SimSpec(schemes=("Hybrid",), workloads=("gcc",))``;
* from a dict — :meth:`SimSpec.from_dict`, the lossless inverse of
  :meth:`SimSpec.to_dict`;
* from a JSON or TOML file — :meth:`SimSpec.from_file`, used by
  ``readduo sweep --spec experiment.toml``.

Invalid content (unknown scheme or workload, bad trace length, unknown
keys in a spec file) raises :class:`SpecError` at construction time,
before any simulation work starts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from .. import __version__
from ..core.policies import PolicyContext  # populates the scheme registry
from ..core.registry import (
    canonical_scheme_name,
    is_scheme_name,
    make_policy as _registry_make_policy,
    unknown_scheme_message,
)
from ..faults import FaultInjector, FaultSpec, FaultSpecError
from ..memsim.config import DEFAULT_EPOCH_S, ENGINES as _ENGINES, MemoryConfig
from ..pcm.params import EnergyParams, TimingParams
from ..traces.spec import (
    WorkloadProfile,
    instructions_for_requests,
    workload,
    workload_names,
)

__all__ = ["ALL_SCHEMES", "SPEC_HASH_FORMAT", "SimSpec", "SpecError"]


def generate_trace(*args: Any, **kwargs: Any):
    """:func:`repro.traces.generator.generate_trace`, imported on first use
    (numpy comes with it); :meth:`SimSpec.trace_for` calls through this name."""
    from ..traces.generator import generate_trace as generate

    return generate(*args, **kwargs)


#: Every scheme any figure needs, in presentation order.
ALL_SCHEMES: Tuple[str, ...] = (
    "Ideal",
    "Scrubbing",
    "M-metric",
    "TLC",
    "Hybrid",
    "LWT-2",
    "LWT-4",
    "LWT-4-noconv",
    "Select-4:1",
    "Select-4:2",
)

#: Bumped when the identity covered by :meth:`SimSpec.content_hash`
#: changes incompatibly (format 2 added ``epoch_s``; old cache entries
#: simply go cold and are re-simulated).
SPEC_HASH_FORMAT = 2


class SpecError(ValueError):
    """An experiment specification is invalid (bad name, value, or key)."""


def _config_from_dict(data: Mapping[str, Any]) -> MemoryConfig:
    """Build a :class:`MemoryConfig` from a (possibly partial) mapping.

    Top-level fields override the defaults; the nested ``timing`` and
    ``energy`` mappings may themselves be partial.
    """
    kwargs: Dict[str, Any] = dict(data)
    known = {f.name for f in dataclasses.fields(MemoryConfig)}
    unknown = sorted(set(kwargs) - known)
    if unknown:
        raise SpecError(
            f"unknown config keys: {', '.join(unknown)}; "
            f"known: {', '.join(sorted(known))}"
        )
    for key, cls in (("timing", TimingParams), ("energy", EnergyParams)):
        nested = kwargs.get(key)
        if isinstance(nested, cls):
            continue
        if nested is None:
            continue
        if not isinstance(nested, Mapping):
            raise SpecError(f"config {key!r} must be a mapping")
        nested_known = {f.name for f in dataclasses.fields(cls)}
        nested_unknown = sorted(set(nested) - nested_known)
        if nested_unknown:
            raise SpecError(
                f"unknown config.{key} keys: {', '.join(nested_unknown)}; "
                f"known: {', '.join(sorted(nested_known))}"
            )
        kwargs[key] = cls(**nested)
    try:
        return MemoryConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"invalid config: {exc}") from exc


@dataclass(frozen=True)
class SimSpec:
    """Parameters identifying one scheme x workload sweep.

    Scheme names are canonicalized (``readduo-lwt-4`` -> ``LWT-4``) and
    deduplicated at construction, so two specs describing the same
    experiment through different spellings compare, hash, and cache
    identically. All content is validated upfront; invalid specs raise
    :class:`SpecError` (a ``ValueError``).

    Attributes:
        schemes: Canonical scheme names to simulate.
        workloads: Benchmark names (empty tuple: all 14).
        target_requests: Total memory requests per trace (trace length
            adapts to each workload's MPKI).
        seed: Trace/policy seed; one seed keeps comparisons paired.
        config: Memory-system configuration (accepts a mapping of
            overrides, coerced via the lossless dict form).
        epoch_s: Absolute simulation start time.
        faults: Optional :class:`~repro.faults.FaultSpec` (accepts a
            mapping). ``None`` — and any all-zero-rate spec, which is
            normalized to ``None`` — means no fault injection, and the
            spec hashes exactly as it did before faults existed, so
            fault-free warm caches stay valid.
        engine: Simulation engine — ``"batch"`` (the compiled kernel,
            falling back to the event engine; the default) or
            ``"event"`` (the event-level oracle). The two
            are bit-for-bit identical, so the flag is *excluded* from
            :meth:`content_hash`: artifacts cached under one engine
            replay under the other, and the pinned sweep digest is
            engine-independent.
    """

    schemes: Tuple[str, ...] = ALL_SCHEMES
    workloads: Tuple[str, ...] = ()
    target_requests: int = 30_000
    seed: int = 42
    config: MemoryConfig = field(default_factory=MemoryConfig)
    epoch_s: float = DEFAULT_EPOCH_S
    faults: Optional[FaultSpec] = None
    engine: str = "batch"

    def __post_init__(self) -> None:
        schemes = tuple(canonical_scheme_name(str(s)) for s in self.schemes)
        schemes = tuple(dict.fromkeys(schemes))
        unknown = [s for s in schemes if not is_scheme_name(s)]
        if unknown:
            raise SpecError(unknown_scheme_message(unknown))
        object.__setattr__(self, "schemes", schemes)
        workloads = tuple(str(w) for w in self.workloads)
        known = set(workload_names())
        bad = [w for w in workloads if w not in known]
        if bad:
            raise SpecError(
                f"unknown workloads: {', '.join(bad)}; "
                f"known: {', '.join(workload_names())}"
            )
        object.__setattr__(self, "workloads", workloads)
        if not isinstance(self.target_requests, int) or isinstance(
            self.target_requests, bool
        ):
            raise SpecError("target_requests must be an int")
        if self.target_requests < 1:
            raise SpecError("target_requests must be >= 1")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise SpecError("seed must be an int")
        if isinstance(self.config, Mapping):
            object.__setattr__(self, "config", _config_from_dict(self.config))
        elif not isinstance(self.config, MemoryConfig):
            raise SpecError("config must be a MemoryConfig or a mapping")
        epoch = self.epoch_s
        if isinstance(epoch, bool) or not isinstance(epoch, (int, float)):
            raise SpecError("epoch_s must be a number")
        epoch = float(epoch)
        if not math.isfinite(epoch):
            raise SpecError("epoch_s must be finite")
        object.__setattr__(self, "epoch_s", epoch)
        faults = self.faults
        if isinstance(faults, Mapping):
            try:
                faults = FaultSpec.from_dict(faults)
            except FaultSpecError as exc:
                raise SpecError(f"invalid faults: {exc}") from exc
        elif faults is not None and not isinstance(faults, FaultSpec):
            raise SpecError("faults must be a FaultSpec, a mapping, or None")
        if faults is not None and not faults.enabled:
            # All-zero rates cannot inject anything; normalizing to None
            # keeps "no faults" a single value with a single hash.
            faults = None
        object.__setattr__(self, "faults", faults)
        engine = self.engine
        if engine not in _ENGINES:
            raise SpecError(
                f"unknown engine {engine!r}; expected one of {_ENGINES}"
            )

    # ------------------------------------------------------------ derivations

    def effective_workloads(self) -> Tuple[str, ...]:
        """The workload list with the all-workloads default expanded."""
        return self.workloads if self.workloads else workload_names()

    def quick(self, target_requests: int = 4_000) -> "SimSpec":
        """A cheaper copy for tests and smoke runs."""
        return dataclasses.replace(self, target_requests=target_requests)

    # -------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, Any]:
        """Lossless dict form; :meth:`from_dict` is the exact inverse.

        The ``faults`` key appears only when fault injection is enabled,
        so fault-free specs serialize exactly as before the subsystem
        existed.
        """
        payload: Dict[str, Any] = {
            "schemes": list(self.schemes),
            "workloads": list(self.workloads),
            "target_requests": self.target_requests,
            "seed": self.seed,
            "epoch_s": self.epoch_s,
            "config": dataclasses.asdict(self.config),
        }
        if self.faults is not None:
            payload["faults"] = self.faults.to_dict()
        if self.engine != "batch":
            # Only the non-default engine is recorded, so spec files from
            # before the flag existed round-trip unchanged.
            payload["engine"] = self.engine
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimSpec":
        """Build a spec from a dict; unknown keys raise :class:`SpecError`.

        Every key is optional and defaults like the constructor; the
        ``config`` mapping may be partial (missing fields keep their
        defaults), as may its nested ``timing``/``energy`` mappings.
        """
        if not isinstance(data, Mapping):
            raise SpecError("spec must be a mapping")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(
                f"unknown spec keys: {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}"
            )
        kwargs: Dict[str, Any] = dict(data)
        for key in ("schemes", "workloads"):
            if key in kwargs:
                value = kwargs[key]
                if isinstance(value, str) or not isinstance(value, (list, tuple)):
                    raise SpecError(f"{key} must be a list of names")
                kwargs[key] = tuple(value)
        try:
            return cls(**kwargs)
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise SpecError(str(exc)) from exc

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "SimSpec":
        """Load a spec from a JSON (default) or TOML (``.toml``) file."""
        path = Path(path)
        if path.suffix.lower() == ".toml":
            try:
                import tomllib
            except ImportError as exc:  # pragma: no cover - Python < 3.11
                raise SpecError(
                    f"cannot read {path}: TOML specs need Python 3.11+ "
                    "(tomllib); use a JSON spec instead"
                ) from exc
            try:
                with open(path, "rb") as handle:
                    data = tomllib.load(handle)
            except OSError as exc:
                raise SpecError(f"cannot read spec file {path}: {exc}") from exc
            except tomllib.TOMLDecodeError as exc:
                raise SpecError(f"invalid TOML in {path}: {exc}") from exc
        else:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    data = json.load(handle)
            except OSError as exc:
                raise SpecError(f"cannot read spec file {path}: {exc}") from exc
            except ValueError as exc:
                raise SpecError(f"invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(data)

    # --------------------------------------------------------------- identity

    def __hash__(self) -> int:
        # The dataclass hash, computed once per instance: ``plan_units`` is
        # memoized on specs, and rehashing the nested config on every
        # lookup took ~11% of a memo-hit ``service.submit``.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(tuple(getattr(self, f.name) for f in dataclasses.fields(self)))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> Dict[str, Any]:
        # String hashes are salted per process: a spec unpickled in a
        # worker recomputes its own.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def content_hash(self) -> str:
        """Canonical content hash; for a one-run sub-spec, the cache key.

        Covers schemes (canonical), *effective* workloads (an explicit
        list and the all-workloads default that expands to it hash
        identically), target_requests, seed, epoch, every nested
        :class:`MemoryConfig` field, and the package version. An enabled
        fault spec joins the identity under a ``"faults"`` key; a
        fault-free spec hashes byte-identically to the pre-faults format
        (no ``SPEC_HASH_FORMAT`` bump), so existing warm caches remain
        valid. The ``engine`` flag is deliberately *not* covered: both
        engines produce bit-identical results, so engine choice must not
        (and does not) invalidate caches or change the sweep digest.
        """
        identity = {
            "format": SPEC_HASH_FORMAT,
            "version": __version__,
            "schemes": list(self.schemes),
            "workloads": list(self.effective_workloads()),
            "target_requests": self.target_requests,
            "seed": self.seed,
            "epoch_s": self.epoch_s,
            "config": dataclasses.asdict(self.config),
        }
        if self.faults is not None:
            identity["faults"] = self.faults.to_dict()
        blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def run_subspec(self, workload_name: str, scheme: str) -> "SimSpec":
        """The single-(workload, scheme) spec identifying one run unit.

        A sweep decomposes into atomic runs — one simulation of one
        scheme on one workload's trace — and each run's identity is the
        sub-spec carrying only that pair (all other fields unchanged).
        Two sweeps that differ only in their scheme/workload *lists*
        produce equal sub-specs for every pair they share, which is what
        lets the execution planner dedupe and cache at run granularity.
        """
        return dataclasses.replace(
            self, schemes=(scheme,), workloads=(workload_name,)
        )

    def run_hash(self, workload_name: str, scheme: str) -> str:
        """Content hash of one (workload, scheme) run; the per-run cache key.

        The :meth:`content_hash` of :meth:`run_subspec` — there is
        exactly one definition of "the same simulation".
        """
        return self.run_subspec(workload_name, scheme).content_hash()

    # ------------------------------------------------------------- execution

    def fault_injector(self, workload_name: str, scheme: str) -> Optional[FaultInjector]:
        """The fault injector for one (workload, scheme) run, or ``None``.

        Keyed by :meth:`run_hash` — which is idempotent under
        :meth:`run_subspec`, so a worker handed the full sweep spec and a
        worker handed the sub-spec derive the *same* injector — plus the
        platform bank count for per-line ``(run_hash, bank, line)``
        seeding. A fresh injector is built per call: injectors carry
        mutable per-line state that must not leak between runs.
        """
        if self.faults is None:
            return None
        return FaultInjector(
            self.faults,
            key=self.run_hash(workload_name, scheme),
            num_banks=self.config.num_banks,
        )

    def trace_for(self, workload_name: str):
        """Generate the (deterministic) trace this spec implies for a workload."""
        profile = workload(workload_name)
        instructions = instructions_for_requests(
            profile, self.target_requests, self.config.num_cores
        )
        return generate_trace(
            profile,
            instructions_per_core=instructions,
            num_cores=self.config.num_cores,
            seed=self.seed,
        )

    def policy_context(self, profile: WorkloadProfile) -> PolicyContext:
        """The :class:`PolicyContext` this spec implies for a workload profile."""
        return PolicyContext(
            profile=profile, config=self.config, epoch_s=self.epoch_s, seed=self.seed
        )

    def make_policy(self, scheme: str, profile: WorkloadProfile):
        """Instantiate one of this spec's schemes for a workload profile."""
        return _registry_make_policy(scheme, self.policy_context(profile))
