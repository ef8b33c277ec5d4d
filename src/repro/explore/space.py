"""The explorable design space: candidates and their materialization.

An :class:`ExploreSpace` is the declarative input of ``readduo
explore``: scheme spellings (plus whole parameterized families via
:func:`~repro.core.registry.enumerate_family`), ECC strengths, scrub
intervals, and memory-config variants, all crossed into an ordered
:class:`Candidate` list. Candidate order is part of the contract — it
is the deterministic scoring and frontier order, and candidate ids
(``Select-4:2|E8|S640|base``) are the stable keys that tie frontier
artifacts, prune audits, and ledger records together.

Only the scheme and the memory config enter simulation (as a
:class:`~repro.experiments.spec.SimSpec`); ECC strength and scrub
interval are *analytic* scoring dimensions — the simulated policies
hard-code the paper's BCH-8 regimes, so E and S reshape the FIT and
area terms of a candidate's objectives without forking the simulation
(two candidates differing only in E/S share one run unit, which the
planner dedups for free).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Union

from ..core.policies.base import M_SCRUB_INTERVAL_S
from ..core.registry import (
    canonical_scheme_name,
    enumerate_family,
    is_scheme_name,
    unknown_scheme_message,
)
from ..experiments.spec import SimSpec, SpecError
from ..traces.spec import workload_names

__all__ = ["Candidate", "ExploreError", "ExploreSpace"]


class ExploreError(ValueError):
    """An exploration space or request is invalid."""


def _format_interval(interval_s: float) -> str:
    """Render a scrub interval for candidate ids (``640`` not ``640.0``)."""
    return f"{interval_s:g}"


@dataclass(frozen=True)
class Candidate:
    """One point of the design space.

    Attributes:
        scheme: Canonical scheme name (the simulated policy).
        ecc_strength: Correctable errors E of the analytic BCH regime.
        scrub_interval_s: Analytic scrub interval S (seconds).
        config_label: Stable label of the memory-config variant.
        config: The variant's :class:`MemoryConfig` override mapping
            (empty = defaults), exactly as a ``SimSpec`` accepts it.
    """

    scheme: str
    ecc_strength: int
    scrub_interval_s: float
    config_label: str
    config: Mapping[str, Any] = field(default_factory=dict)

    @property
    def cid(self) -> str:
        """The candidate's stable id: ``scheme|E<e>|S<s>|<config label>``."""
        return (
            f"{self.scheme}|E{self.ecc_strength}"
            f"|S{_format_interval(self.scrub_interval_s)}|{self.config_label}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.cid,
            "scheme": self.scheme,
            "ecc_strength": self.ecc_strength,
            "scrub_interval_s": self.scrub_interval_s,
            "config_label": self.config_label,
            "config": dict(self.config),
        }


#: The scheme pool explored when a space names none explicitly: the
#: paper's parameterized designs plus the Hybrid readout baseline.
DEFAULT_SCHEMES: Tuple[str, ...] = (
    "Hybrid",
    "LWT-2",
    "LWT-4",
    "Select-4:1",
    "Select-4:2",
)


@dataclass(frozen=True)
class ExploreSpace:
    """The cross-product design space one exploration searches.

    Attributes:
        schemes: Canonical scheme names (families pre-expanded; see
            :meth:`from_dict` for the ``families`` shorthand).
        ecc_strengths: Analytic BCH strengths E to score under.
        scrub_intervals_s: Analytic scrub intervals S (seconds).
        configs: ``(label, overrides)`` memory-config variants; the
            overrides mapping is passed to ``SimSpec(config=...)``.
        workload: Benchmark driving every candidate (one trace keeps
            comparisons paired, exactly like the paper's figures).
        seed: Trace/policy seed shared by every candidate.
    """

    schemes: Tuple[str, ...] = DEFAULT_SCHEMES
    ecc_strengths: Tuple[int, ...] = (8,)
    scrub_intervals_s: Tuple[float, ...] = (M_SCRUB_INTERVAL_S,)
    configs: Tuple[Tuple[str, Mapping[str, Any]], ...] = (("base", {}),)
    workload: str = "mcf"
    seed: int = 42

    def __post_init__(self) -> None:
        schemes = tuple(
            canonical_scheme_name(str(s)) for s in self.schemes
        )
        schemes = tuple(dict.fromkeys(schemes))
        if not schemes:
            raise ExploreError("the space names no schemes")
        unknown = [s for s in schemes if not is_scheme_name(s)]
        if unknown:
            raise ExploreError(unknown_scheme_message(unknown))
        object.__setattr__(self, "schemes", schemes)

        strengths: List[int] = []
        for e in self.ecc_strengths:
            if isinstance(e, bool) or not isinstance(e, int):
                raise ExploreError("ecc_strengths must be integers")
            if e < 0:
                raise ExploreError("ecc_strengths must be >= 0")
            if e not in strengths:
                strengths.append(e)
        if not strengths:
            raise ExploreError("the space names no ECC strengths")
        object.__setattr__(self, "ecc_strengths", tuple(strengths))

        intervals: List[float] = []
        for s in self.scrub_intervals_s:
            if isinstance(s, bool) or not isinstance(s, (int, float)):
                raise ExploreError("scrub_intervals_s must be numbers")
            s = float(s)
            if not (s > 0):
                raise ExploreError("scrub_intervals_s must be positive")
            if s not in intervals:
                intervals.append(s)
        if not intervals:
            raise ExploreError("the space names no scrub intervals")
        object.__setattr__(self, "scrub_intervals_s", tuple(intervals))

        configs: List[Tuple[str, Dict[str, Any]]] = []
        labels = set()
        for entry in self.configs:
            try:
                label, overrides = entry
            except (TypeError, ValueError):
                raise ExploreError(
                    "configs must be (label, overrides) pairs"
                ) from None
            label = str(label)
            if not label or "|" in label:
                raise ExploreError(
                    f"invalid config label {label!r} (non-empty, no '|')"
                )
            if label in labels:
                raise ExploreError(f"duplicate config label {label!r}")
            labels.add(label)
            if not isinstance(overrides, Mapping):
                raise ExploreError(
                    f"config {label!r} overrides must be a mapping"
                )
            overrides = dict(overrides)
            try:
                # Validate eagerly via the spec layer (one definition of
                # a valid config); the SimSpec itself is discarded.
                SimSpec(schemes=(self.schemes[0],), config=overrides)
            except SpecError as exc:
                raise ExploreError(f"config {label!r}: {exc}") from exc
            configs.append((label, overrides))
        if not configs:
            raise ExploreError("the space names no configs")
        object.__setattr__(self, "configs", tuple(configs))

        if self.workload not in workload_names():
            raise ExploreError(
                f"unknown workload {self.workload!r}; "
                f"known: {', '.join(workload_names())}"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ExploreError("seed must be an int")

    # ---------------------------------------------------------- enumeration

    def candidates(self) -> Tuple[Candidate, ...]:
        """The ordered candidate list (scheme-major, config innermost)."""
        out: List[Candidate] = []
        for scheme in self.schemes:
            for e in self.ecc_strengths:
                for s in self.scrub_intervals_s:
                    for label, overrides in self.configs:
                        out.append(
                            Candidate(
                                scheme=scheme,
                                ecc_strength=e,
                                scrub_interval_s=s,
                                config_label=label,
                                config=overrides,
                            )
                        )
        return tuple(out)

    def spec_for(self, candidate: Candidate, budget: int) -> SimSpec:
        """One candidate's :class:`SimSpec` at ``budget`` requests."""
        return SimSpec(
            schemes=(candidate.scheme,),
            workloads=(self.workload,),
            target_requests=int(budget),
            seed=self.seed,
            config=dict(candidate.config),
        )

    def baseline_spec(
        self, config: Mapping[str, Any], budget: int
    ) -> SimSpec:
        """The TLC+Ideal reference spec sharing one config variant.

        Candidates are scored against the TLC baseline (EDAP
        reference) and the Ideal baseline (wear reference) simulated
        under the *same* config and budget; one two-scheme spec per
        distinct config joins the exploration's batch.
        """
        return SimSpec(
            schemes=("TLC", "Ideal"),
            workloads=(self.workload,),
            target_requests=int(budget),
            seed=self.seed,
            config=dict(config),
        )

    # -------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, Any]:
        """Lossless dict form; :meth:`from_dict` is the inverse."""
        return {
            "schemes": list(self.schemes),
            "ecc_strengths": list(self.ecc_strengths),
            "scrub_intervals_s": list(self.scrub_intervals_s),
            "configs": {label: dict(cfg) for label, cfg in self.configs},
            "workload": self.workload,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExploreSpace":
        """Build a space from a JSON document.

        Beyond the constructor fields, the document accepts a
        ``families`` mapping — family syntax to per-axis value lists —
        expanded through the scheme registry and appended to
        ``schemes``::

            {"families": {"Select-<k>:<s>": {"k": [2, 4], "s": [1, 2]}}}

        ``configs`` may be a mapping (label -> overrides) or a list of
        override mappings (auto-labelled ``cfg0``, ``cfg1``, ...).
        """
        if not isinstance(data, Mapping):
            raise ExploreError("explore space must be a mapping")
        known = {f.name for f in dataclasses.fields(cls)} | {"families"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ExploreError(
                f"unknown space keys: {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}"
            )
        kwargs: Dict[str, Any] = {
            key: data[key]
            for key in ("workload", "seed")
            if key in data
        }
        schemes = list(data.get("schemes", ()))
        families = data.get("families", {})
        if families:
            if not isinstance(families, Mapping):
                raise ExploreError("families must be a mapping")
            for syntax, values in families.items():
                if not isinstance(values, Mapping):
                    raise ExploreError(
                        f"family {syntax!r} values must be a mapping"
                    )
                try:
                    schemes.extend(enumerate_family(syntax, values))
                except (KeyError, ValueError) as exc:
                    raise ExploreError(
                        f"cannot enumerate family {syntax!r}: "
                        f"{exc.args[0] if exc.args else exc}"
                    ) from exc
        if schemes or families:
            kwargs["schemes"] = tuple(schemes)
        if "ecc_strengths" in data:
            kwargs["ecc_strengths"] = tuple(data["ecc_strengths"])
        if "scrub_intervals_s" in data:
            kwargs["scrub_intervals_s"] = tuple(data["scrub_intervals_s"])
        if "configs" in data:
            raw = data["configs"]
            if isinstance(raw, Mapping):
                configs = tuple(
                    (str(label), dict(cfg) if isinstance(cfg, Mapping) else cfg)
                    for label, cfg in raw.items()
                )
            elif isinstance(raw, Sequence) and not isinstance(raw, str):
                configs = tuple(
                    (f"cfg{i}", dict(cfg) if isinstance(cfg, Mapping) else cfg)
                    for i, cfg in enumerate(raw)
                )
            else:
                raise ExploreError(
                    "configs must be a mapping of label -> overrides or a "
                    "list of override mappings"
                )
            kwargs["configs"] = configs
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ExploreSpace":
        """Load a space document from a JSON file."""
        path = Path(path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ExploreError(f"cannot read space file {path}: {exc}") from exc
        except ValueError as exc:
            raise ExploreError(f"invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(data)

    def describe(self) -> str:
        """One-line human summary of the space's extent."""
        n = (
            len(self.schemes)
            * len(self.ecc_strengths)
            * len(self.scrub_intervals_s)
            * len(self.configs)
        )
        return (
            f"{n} candidate(s): {len(self.schemes)} scheme(s) x "
            f"{len(self.ecc_strengths)} ECC x "
            f"{len(self.scrub_intervals_s)} interval(s) x "
            f"{len(self.configs)} config(s) on {self.workload} "
            f"(seed {self.seed})"
        )
