"""Tests for the scheme registry (repro.core.registry)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.core import policies  # noqa: F401  (registers the built-ins)
from repro.core.registry import (
    canonical_scheme_name,
    enumerate_family,
    family_syntaxes,
    is_scheme_name,
    make_policy,
    register_scheme,
    resolve_scheme,
    scheme_catalog,
    scheme_names,
    unknown_scheme_message,
    unregister_scheme,
)
from repro.core.policies import IdealPolicy, PolicyContext
from repro.traces.spec import workload


@pytest.fixture
def ctx():
    return PolicyContext(profile=workload("gcc"))


class TestBuiltinRegistrations:
    def test_scheme_names_matches_legacy_tuple(self):
        assert scheme_names() == (
            "Ideal", "Scrubbing", "Scrubbing-W0", "M-metric", "Hybrid",
            "LWT-2", "LWT-4", "LWT-4-noconv", "Select-4:1", "Select-4:2",
            "TLC",
        )

    def test_family_syntaxes(self):
        assert family_syntaxes() == ("LWT-<k>[-noconv]", "Select-<k>:<s>")

    @pytest.mark.parametrize("name", scheme_names())
    def test_every_listed_name_round_trips(self, name, ctx):
        # canonical(canonical(x)) == canonical(x) == x for listed names,
        # and make_policy produces a policy reporting that exact name.
        assert canonical_scheme_name(name) == name
        assert is_scheme_name(name)
        policy = make_policy(name, ctx)
        assert policy.name == name

    @pytest.mark.parametrize("name", scheme_names())
    def test_alias_to_canonical_to_alias_is_stable(self, name):
        for alias in (name.lower(), name.upper(), f"readduo-{name.lower()}"):
            resolved = canonical_scheme_name(alias)
            assert resolved == name
            # A second pass is a fixed point.
            assert canonical_scheme_name(resolved) == name

    @pytest.mark.parametrize(
        "alias,expected",
        [
            ("lwt-8", "LWT-8"),
            ("readduo-lwt-8-noconv", "LWT-8-noconv"),
            ("select-8:3", "Select-8:3"),
            ("readduo-select-8:3", "Select-8:3"),
        ],
    )
    def test_parameterized_aliases_beyond_listed_names(self, alias, expected):
        assert canonical_scheme_name(alias) == expected
        assert is_scheme_name(expected)

    def test_unknown_names_pass_through_unchanged(self):
        assert canonical_scheme_name("NoSuchScheme") == "NoSuchScheme"
        assert not is_scheme_name("NoSuchScheme")

    @pytest.mark.parametrize(
        "name",
        [
            "LWT-0", "LWT-1", "LWT-3", "LWT-6-noconv", "Select-3:1",
            "Select-4:0", "LWT-4@T101", "LWT-4-noconv@T50", "LWT-4@S0",
            "LWT-4@S1e400", "Precise-0", "Precise-2.75", "Precise-2.99",
            "Precise-3", "Precise-4.5", "LWT-4+trunc+trunc",
            "Nope" + "+trunc" * 40,
        ],
    )
    def test_out_of_range_parameters_are_not_names(self, name):
        """Range checks run in ``parse``: no policy is built, so a bad
        spelling fails validation instead of failing mid-execution."""
        from repro.experiments.spec import SimSpec, SpecError

        assert not is_scheme_name(name)
        assert canonical_scheme_name(name) == name
        with pytest.raises(SpecError, match="unknown schemes"):
            SimSpec(schemes=(name,))
        with pytest.raises(ValueError):
            make_policy(name, PolicyContext(profile=workload("gcc")))

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("LWT-4@T0", "LWT-4-noconv"),
            ("lwt-4@t100", "LWT-4@T100"),
            ("LWT-4@S640", "LWT-4"),
            ("LWT-4@S160.0", "LWT-4@S160"),
            ("LWT-2@T50@S2560", "LWT-2@T50@S2560"),
            ("Precise-2.0", "Precise-2"),
            ("readduo-precise-1.5", "Precise-1.5"),
            ("select-4:2+trunc", "Select-4:2+trunc"),
        ],
    )
    def test_variant_spellings_canonicalize(self, name, expected, ctx):
        assert canonical_scheme_name(name) == expected
        assert canonical_scheme_name(expected) == expected
        assert make_policy(expected, ctx).name == expected

    def test_frozen_throttle_and_interval_reach_the_policy(self, ctx):
        frozen = make_policy("LWT-4@T100@S160", ctx)
        assert (frozen.conversion.t, frozen.conversion.step) == (100, 0)
        assert frozen.conversion.enabled
        assert frozen.scrub_interval_s == 160.0
        assert make_policy("LWT-4", ctx).conversion.step == 10


class TestEnumerateFamily:
    """Parameter-space enumeration over registered family axes."""

    def test_select_cross_product_in_axis_order(self):
        names = enumerate_family(
            "Select-<k>:<s>", {"k": [2, 4], "s": [1, 2]}
        )
        assert names == (
            "Select-2:1", "Select-2:2", "Select-4:1", "Select-4:2"
        )
        assert all(is_scheme_name(name) for name in names)

    def test_single_axis_leaves_others_at_canonical_default(self):
        assert enumerate_family("LWT-<k>[-noconv]", {"k": [2, 8]}) == (
            "LWT-2",
            "LWT-8",
        )

    def test_boolean_axis_renders_suffix(self):
        names = enumerate_family(
            "LWT-<k>[-noconv]",
            {"k": [4], "conversion_enabled": [True, False]},
        )
        assert names == ("LWT-4", "LWT-4-noconv")

    def test_duplicate_values_dedup_preserving_order(self):
        assert enumerate_family("LWT-<k>[-noconv]", {"k": [4, 4, 2]}) == (
            "LWT-4",
            "LWT-2",
        )

    def test_unknown_family_lists_enumerable_ones(self):
        with pytest.raises(KeyError, match="enumerable families"):
            enumerate_family("NoSuch-<x>", {"x": [1]})

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown axes"):
            enumerate_family("Select-<k>:<s>", {"k": [2], "zz": [1]})

    def test_empty_axis_pool_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            enumerate_family("Select-<k>:<s>", {"k": []})

    def test_catalog_exposes_axes(self):
        families = {
            f["syntax"]: f for f in scheme_catalog()["families"]
        }
        assert families["Select-<k>:<s>"]["axes"] == ["k", "s"]
        assert families["LWT-<k>[-noconv]"]["axes"] == [
            "k",
            "conversion_enabled",
        ]


class TestErrors:
    def test_unknown_scheme_error_lists_names_and_families(self, ctx):
        with pytest.raises(ValueError) as excinfo:
            make_policy("FancyScheme", ctx)
        message = str(excinfo.value)
        assert "unknown schemes: FancyScheme" in message
        for name in scheme_names():
            assert name in message
        assert "LWT-<k>[-noconv]" in message
        assert "Select-<k>:<s>" in message

    def test_unknown_scheme_message_accepts_lists(self):
        message = unknown_scheme_message(["A", "B"])
        assert message.startswith("unknown schemes: A, B;")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scheme("Ideal")(IdealPolicy)

    def test_register_scheme_argument_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            register_scheme()
        with pytest.raises(ValueError, match="exactly one"):
            register_scheme("X", pattern=r"X-\d+")
        with pytest.raises(ValueError, match="parse= and canonical="):
            register_scheme(pattern=r"X-\d+")
        with pytest.raises(ValueError, match="fixed-name"):
            register_scheme(
                pattern=r"X-(?P<k>\d+)",
                parse=lambda m: {"k": int(m.group("k"))},
                canonical=lambda p: f"X-{p['k']}",
                params={"k": 1},
            )


class TestPluginScheme:
    """A new scheme is one register_scheme call in one file: no edits to
    cli.py, runner.py, or parallel.py (the PR's acceptance criterion)."""

    @pytest.fixture
    def dummy_scheme(self):
        @register_scheme("DummyTest")
        class DummyTestPolicy(IdealPolicy):
            name = "DummyTest"

        yield DummyTestPolicy
        assert unregister_scheme("DummyTest")

    def test_appears_in_scheme_names(self, dummy_scheme):
        assert "DummyTest" in scheme_names()

    def test_appears_in_cli_list(self, dummy_scheme, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        assert "DummyTest" in capsys.readouterr().out

    def test_make_policy_and_aliases_work(self, dummy_scheme, ctx):
        assert canonical_scheme_name("readduo-dummytest") == "DummyTest"
        policy = make_policy("DummyTest", ctx)
        assert isinstance(policy, dummy_scheme)

    def test_sweeps_through_runner_without_core_edits(self, dummy_scheme,
                                                      small_config):
        from repro.experiments.runner import run_sweep
        from repro.experiments.spec import SimSpec

        settings = SimSpec(
            schemes=("DummyTest",),
            workloads=("gcc",),
            target_requests=600,
            config=small_config,
        )
        grid = run_sweep(settings)
        assert grid["gcc"]["DummyTest"].scheme == "DummyTest"

    def test_unregister_restores_unknown(self):
        assert not is_scheme_name("DummyTest")
        assert not unregister_scheme("DummyTest")

    def test_resolve_scheme_returns_family_and_params(self):
        family, params = resolve_scheme("LWT-8-noconv")
        assert params == {"k": 8, "conversion_enabled": False}
        assert family.canonical(params) == "LWT-8-noconv"


_ORDER_PROBE = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
from repro.core import registry
names = registry.scheme_names()
print(json.dumps({
    "names": list(names),
    "syntaxes": list(registry.family_syntaxes()),
    "keys": list(registry._FAMILIES),
    "resolves": [registry.is_scheme_name(n) for n in ("Precise-2", "Select-4:2+trunc")],
    "numpy": "numpy" in sys.modules,
}))
"""

#: Registration order, fixed by ``repro.core.policies``: the paper's
#: schemes, then the baselines, then the ``+trunc`` wrapper family.
_REGISTRY_KEYS = [
    "Ideal",
    "Scrubbing",
    "Scrubbing-W0",
    "M-metric",
    "Hybrid",
    "LWT-<k>[-noconv]",
    "Select-<k>:<s>",
    r"Precise-(?P<w>\d[\d.e+-]*)",
    "TLC",
    r"(?P<inner>(?:(?!\+trunc).)+)\+trunc",
]


@pytest.mark.parametrize(
    "first_import",
    [
        "repro",
        "repro.core.registry",
        "repro.core.policies",
        "repro.baselines",
        "repro.baselines.tlc",
        "repro.baselines.precise",
        "repro.experiments.spec",
    ],
)
def test_registry_order_independent_of_first_import(first_import):
    # A fresh interpreter per entry point: which module is imported first
    # must not change the registry, and registering imports no numpy.
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _ORDER_PROBE, first_import],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout)
    assert probe["keys"] == _REGISTRY_KEYS
    assert probe["names"] == [
        "Ideal", "Scrubbing", "Scrubbing-W0", "M-metric", "Hybrid",
        "LWT-2", "LWT-4", "LWT-4-noconv", "Select-4:1", "Select-4:2", "TLC",
    ]
    assert probe["syntaxes"] == ["LWT-<k>[-noconv]", "Select-<k>:<s>"]
    assert probe["resolves"] == [True, True]
    assert probe["numpy"] is False
