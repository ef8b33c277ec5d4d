"""The committed closed-form results are what ``readduo run`` prints.

``results/<id>.txt`` holds one artifact's rendering, which ``readduo run``
prints followed by one blank line. For the closed-form tables and figures
(no simulation), a cold run and a run served from the artifact store must
both reproduce the committed files byte for byte.
"""

from pathlib import Path

from repro.cli import main
from repro.experiments.index import DRIVERS, SPEC_COLLECTORS
from repro.service import ExecutionService

RESULTS = Path(__file__).resolve().parent.parent / "results"

CLOSED_FORM = [
    name
    for name in DRIVERS
    if name not in SPEC_COLLECTORS and name.startswith(("table", "figure"))
]


def _committed() -> str:
    return "".join((RESULTS / f"{name}.txt").read_text() + "\n" for name in CLOSED_FORM)


def test_closed_form_tables_and_figures_are_listed():
    assert len(CLOSED_FORM) == 13


def test_cold_and_stored_runs_print_the_committed_files(
    tmp_path, monkeypatch, capsys
):
    root = tmp_path / "cache"
    monkeypatch.setenv("READDUO_SWEEP_CACHE", str(root))
    expected = _committed()
    assert main(["run", *CLOSED_FORM]) == 0
    assert capsys.readouterr().out == expected
    assert len(list((root / "artifacts").glob("*.json"))) == len(CLOSED_FORM)


    def recompute(*_args, **_kwargs):
        raise AssertionError("a stored artifact was recomputed")

    monkeypatch.setattr(ExecutionService, "run_experiment", recompute)
    assert main(["run", *CLOSED_FORM]) == 0
    assert capsys.readouterr().out == expected
