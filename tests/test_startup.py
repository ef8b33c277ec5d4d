"""Start-up guard: the numeric stack is imported only where it is used.

The closed-form drift/ECC model (Tables III-V and the simulator's first
sampler-table build) evaluates the normal and binomial functions through
the ``scipy.special`` ufuncs that ``scipy.stats`` itself dispatches to, so
no ``readduo`` process imports ``scipy.stats`` (about a second on its
own). Commands that never evaluate the model — help, listings and fully
cached sweeps — must finish without importing any scipy module at all.

numpy follows the same rule one layer down: the package ``__init__``s
export lazily, registering a scheme imports no numeric module and
``list`` reads the artifact index without loading a driver, so
``--help``, ``list``, ``schemes`` and a fully cached ``sweep`` import no
numpy either. A warm ``run`` imports neither: the closed-form artifacts
come back from the run cache as rendered text.

One layer further down, each command imports only the modules it runs.
The registry declares the built-in schemes with lazily imported
factories, so listing or validating scheme names imports no policy
implementation; the CLI builds only the invoked command's options and
sets up logging and telemetry only where they are used; and ``run <id>``
imports only the drivers it renders. Each check runs in a fresh
interpreter, because this test process has long since imported numpy
and scipy through other tests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.pcm.params import M_METRIC, R_METRIC
from repro.reliability.ler import ler_table
from repro.reliability.scrub_analysis import ScrubSetting, table5

_SRC = str(Path(repro.__file__).resolve().parent.parent)

_CLI_MAIN = """
import contextlib, json, sys
from repro.cli import main
with contextlib.redirect_stdout(open("stdout.txt", "w")):
    try:
        main(json.loads(sys.argv[1]))
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise
"""

_MODULES_PROBE = _CLI_MAIN + """
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro."))))
"""

_CLI_PROBE = _CLI_MAIN + """
print(json.dumps({
    "numpy": any(m == "numpy" or m.startswith("numpy.") for m in sys.modules),
    "scipy": any(m == "scipy" or m.startswith("scipy.") for m in sys.modules),
    "scipy_special": "scipy.special" in sys.modules,
    "scipy_stats": "scipy.stats" in sys.modules,
}))
"""

_NO_SCIPY = {"scipy": False, "scipy_special": False, "scipy_stats": False}
_SPECIAL_ONLY = {"scipy": True, "scipy_special": True, "scipy_stats": False}
_NO_NUMERIC = {"numpy": False, **_NO_SCIPY}

_TINY_SWEEP = [
    "sweep",
    "--requests", "300",
    "--schemes", "Ideal", "Hybrid",
    "--workloads", "gcc",
    "--output", "-",
]

_ANALYTIC_RUN = ["run", "table3", "table5", "figure6", "--quick"]

#: perfbench ``cli-warm``'s warm ``run``: every table and figure.
_TABLES_AND_FIGURES_RUN = [
    "run",
    *(f"table{n}" for n in (1, 2, 3, 4, 5, 7, 8, 9, 10)),
    *(f"figure{n}" for n in (1, 2, 3, 4, 5, 6, 9, 10, 11, 12, 13, 14, 15)),
    "--quick", "--quick-requests", "300",
]

_INTERVALS = [8.0, 64.0, 640.0]
_STRENGTHS = [0, 4, 8]

_MODEL_PROBE = f"""
import json, sys
from repro.pcm.params import M_METRIC, R_METRIC
from repro.reliability.ler import ler_table
from repro.reliability.scrub_analysis import ScrubSetting, table5
before = "scipy" in sys.modules
ler = ler_table(R_METRIC, {_INTERVALS!r}, {_STRENGTHS!r}).ler.tolist()
settings = [ScrubSetting(R_METRIC, 8, 8.0, 1), ScrubSetting(M_METRIC, 8, 640.0, 1)]
rows = [[r.risk_ii, r.risk_iii] for r in table5(settings)]
print(json.dumps({{
    "before": before,
    "special": "scipy.special" in sys.modules,
    "stats": "scipy.stats" in sys.modules,
    "ler": ler,
    "table5": rows,
}}))
"""


def _run(code: str, cwd: Path, *args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    env["READDUO_SWEEP_CACHE"] = str(cwd / "cache")
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _cli(cwd: Path, argv: list) -> dict:
    return _run(_CLI_PROBE, cwd, json.dumps(argv))


def _modules_under(cwd: Path, argv: list, packages: tuple) -> list:
    """The modules under ``packages`` that ``main(argv)`` imported."""
    return [
        module
        for module in _run(_MODULES_PROBE, cwd, json.dumps(argv))
        if any(module == p or module.startswith(p + ".") for p in packages)
    ]


#: Packages the listing commands never need: the scheme implementations,
#: telemetry, and the memory and device models.
_NOT_FOR_LISTING = (
    "repro.core.policies",
    "repro.baselines",
    "repro.obs",
    "repro.memsim.config",
    "repro.pcm",
)

_POLICY_PACKAGES = ("repro.core.policies", "repro.baselines")


def _scipy(loaded: dict) -> dict:
    return {key: value for key, value in loaded.items() if key != "numpy"}


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["list"], ["schemes"], ["schemes", "--json"]],
    ids=lambda argv: " ".join(argv),
)
def test_command_does_not_import_scipy_stats(tmp_path, argv):
    assert _scipy(_cli(tmp_path, argv)) == _NO_SCIPY


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["list"], ["schemes"], ["schemes", "--json"]],
    ids=lambda argv: " ".join(argv),
)
def test_command_does_not_import_numpy(tmp_path, argv):
    assert _cli(tmp_path, argv) == _NO_NUMERIC


def test_warm_sweep_does_not_import_scipy_stats(tmp_path):
    # The cold fill simulates, so it builds sampler tables and imports
    # scipy.special, never scipy.stats.
    assert _scipy(_cli(tmp_path, _TINY_SWEEP)) == _SPECIAL_ONLY
    cold = (tmp_path / "stdout.txt").read_text()
    assert cold.startswith("{")
    assert _scipy(_cli(tmp_path, _TINY_SWEEP)) == _NO_SCIPY
    assert (tmp_path / "stdout.txt").read_text() == cold


def test_warm_sweep_does_not_import_numpy(tmp_path):
    # The cold fill simulates, which needs numpy; the warm sweep only
    # reads the disk tier and prints the same bytes.
    assert _cli(tmp_path, _TINY_SWEEP)["numpy"] is True
    cold = (tmp_path / "stdout.txt").read_text()
    assert _cli(tmp_path, _TINY_SWEEP) == _NO_NUMERIC
    assert (tmp_path / "stdout.txt").read_text() == cold


def test_warm_analytic_run_does_not_import_scipy_stats(tmp_path):
    # The cold run evaluates the model for Tables III and V and Figure 6;
    # the warm run serves their rendered text from the run cache.
    assert _scipy(_cli(tmp_path, _ANALYTIC_RUN)) == _SPECIAL_ONLY
    cold = (tmp_path / "stdout.txt").read_text()
    assert "== table3:" in cold
    assert _cli(tmp_path, _ANALYTIC_RUN) == _NO_NUMERIC
    assert (tmp_path / "stdout.txt").read_text() == cold


def test_warm_run_of_every_table_and_figure_imports_no_numeric_module(tmp_path):
    # Closed-form artifacts come back as stored text, sweep-backed ones
    # render from the run store: neither needs numpy or scipy.
    assert _cli(tmp_path, _TABLES_AND_FIGURES_RUN)["scipy_special"] is True
    cold = (tmp_path / "stdout.txt").read_bytes()
    assert cold.startswith(b"== table1:") and b"\n== figure15:" in cold
    assert _cli(tmp_path, _TABLES_AND_FIGURES_RUN) == _NO_NUMERIC
    assert (tmp_path / "stdout.txt").read_bytes() == cold


def test_first_model_call_imports_scipy_and_matches(tmp_path):
    fresh = _run(_MODEL_PROBE, tmp_path)
    assert fresh["before"] is False
    assert fresh["special"] is True
    assert fresh["stats"] is False
    settings = [ScrubSetting(R_METRIC, 8, 8.0, 1), ScrubSetting(M_METRIC, 8, 640.0, 1)]
    assert fresh["ler"] == ler_table(R_METRIC, _INTERVALS, _STRENGTHS).ler.tolist()
    assert fresh["table5"] == [[r.risk_ii, r.risk_iii] for r in table5(settings)]


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["list"], ["schemes"], ["schemes", "--json"]],
    ids=lambda argv: " ".join(argv),
)
def test_listing_imports_no_policy_telemetry_or_model(tmp_path, argv):
    assert _modules_under(tmp_path, argv, _NOT_FOR_LISTING) == []


def test_warm_sweep_imports_no_policy(tmp_path):
    # The cold fill builds policies; the warm sweep only canonicalizes
    # scheme names and reads the disk tier.
    assert _modules_under(tmp_path, _TINY_SWEEP, _POLICY_PACKAGES) != []
    cold = (tmp_path / "stdout.txt").read_text()
    assert _modules_under(tmp_path, _TINY_SWEEP, _POLICY_PACKAGES) == []
    assert (tmp_path / "stdout.txt").read_text() == cold


def test_run_imports_only_the_drivers_it_runs(tmp_path):
    drivers = (
        "repro.experiments.tables",
        "repro.experiments.figures",
        "repro.experiments.ablations",
        "repro.experiments.extras",
        "repro.experiments.faults",
    )
    assert _modules_under(tmp_path, ["run", "table1"], drivers) == [
        "repro.experiments.tables",
        "repro.experiments.tables.table1",
    ]
    assert (tmp_path / "stdout.txt").read_text().startswith("== table1:")
