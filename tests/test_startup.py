"""Start-up guard: ``scipy.stats`` is imported only by the analytic model.

``scipy.stats`` costs over a second to import, and only the closed-form
drift/ECC model (Tables III-V and the simulator's first sampler-table
build) needs it. Commands that never evaluate that model — help, listings
and fully cached sweeps — must finish without importing it. Each check
runs in a fresh interpreter, because this test process has long since
imported scipy through other tests.
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

_CLI_PROBE = """
import contextlib, json, sys
from repro.cli import main
with contextlib.redirect_stdout(open("stdout.txt", "w")):
    try:
        main(json.loads(sys.argv[1]))
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise
print(json.dumps({"scipy_stats": "scipy.stats" in sys.modules}))
"""

_TINY_SWEEP = [
    "sweep",
    "--requests", "300",
    "--schemes", "Ideal", "Hybrid",
    "--workloads", "gcc",
    "--output", "-",
]

_INTERVALS = [8.0, 64.0, 640.0]
_STRENGTHS = [0, 4, 8]

_MODEL_PROBE = f"""
import json, sys
from repro.pcm.params import M_METRIC, R_METRIC
from repro.reliability.ler import ler_table
from repro.reliability.scrub_analysis import ScrubSetting, table5
before = "scipy.stats" in sys.modules
ler = ler_table(R_METRIC, {_INTERVALS!r}, {_STRENGTHS!r}).ler.tolist()
settings = [ScrubSetting(R_METRIC, 8, 8.0, 1), ScrubSetting(M_METRIC, 8, 640.0, 1)]
rows = [[r.risk_ii, r.risk_iii] for r in table5(settings)]
print(json.dumps({{
    "before": before,
    "after": "scipy.stats" in sys.modules,
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


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["list"], ["schemes"], ["schemes", "--json"]],
    ids=lambda argv: " ".join(argv),
)
def test_command_does_not_import_scipy_stats(tmp_path, argv):
    assert _cli(tmp_path, argv) == {"scipy_stats": False}


def test_warm_sweep_does_not_import_scipy_stats(tmp_path):
    # The cold fill simulates, so it builds sampler tables and imports scipy.
    assert _cli(tmp_path, _TINY_SWEEP) == {"scipy_stats": True}
    cold = (tmp_path / "stdout.txt").read_text()
    assert cold.startswith("{")
    assert _cli(tmp_path, _TINY_SWEEP) == {"scipy_stats": False}
    assert (tmp_path / "stdout.txt").read_text() == cold


def test_first_model_call_imports_scipy_and_matches(tmp_path):
    fresh = _run(_MODEL_PROBE, tmp_path)
    assert fresh["before"] is False
    assert fresh["after"] is True
    settings = [ScrubSetting(R_METRIC, 8, 8.0, 1), ScrubSetting(M_METRIC, 8, 640.0, 1)]
    assert fresh["ler"] == ler_table(R_METRIC, _INTERVALS, _STRENGTHS).ler.tolist()
    assert fresh["table5"] == [[r.risk_ii, r.risk_iii] for r in table5(settings)]
