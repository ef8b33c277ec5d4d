"""Integration tests for the sweep figures on a reduced sweep.

One small sweep (few workloads, short traces) is resolved once by a
module-wide :class:`~repro.service.ExecutionService` and shared with
every driver through its ``service`` argument, keeping the module fast
while still exercising the full simulation stack.
"""

import pytest

from repro.experiments.figures._sweep import sweep_settings
from repro.experiments.runner import run_sweep
from repro.service import ExecutionService

# A compact but representative slice: the heaviest workload, the cold-read
# outlier, and a light one.
WORKLOADS = ("mcf", "sphinx3", "gcc")
TARGET = 6_000


@pytest.fixture(scope="module")
def service():
    """The service every driver resolves through, warmed with the sweep."""
    with ExecutionService(cache=False) as shared:
        run_sweep(sweep_settings(TARGET, workloads=WORKLOADS), shared)
        yield shared


class TestFigure9:
    @pytest.fixture(scope="class")
    def result(self, service):
        from repro.experiments.figures import figure9

        return figure9.run(
            target_requests=TARGET, workloads=WORKLOADS, service=service
        )

    def _geomean(self, result, scheme):
        return result.rows[-1][result.headers.index(scheme)]

    def test_workload_rows_plus_geomean(self, result):
        assert result.rows[-1][0] == "geomean"
        assert len(result.rows) == len(WORKLOADS) + 1

    def test_all_schemes_slower_than_ideal(self, result):
        for scheme in result.headers[1:]:
            assert self._geomean(result, scheme) >= 1.0

    def test_paper_ordering(self, result):
        scrub = self._geomean(result, "Scrubbing")
        m = self._geomean(result, "M-metric")
        hybrid = self._geomean(result, "Hybrid")
        lwt = self._geomean(result, "LWT-4")
        assert m > hybrid
        assert scrub > hybrid
        assert hybrid < 1.15
        assert lwt < 1.20


class TestFigure10:
    def test_select_saves_energy(self, service):
        from repro.experiments.figures import figure10

        result = figure10.run(
            target_requests=TARGET, workloads=WORKLOADS, service=service
        )
        select = result.rows[-1][result.headers.index("Select-4:2")]
        scrub = result.rows[-1][result.headers.index("Scrubbing")]
        assert select < 1.0
        assert scrub > 1.0


class TestFigure11:
    def test_select_beats_tlc_on_edap(self, service):
        from repro.experiments.figures import figure11

        result = figure11.run(
            target_requests=TARGET, workloads=WORKLOADS, service=service
        )
        edap = {row[0]: row[3] for row in result.rows}
        assert edap["TLC"] == pytest.approx(1.0)
        assert edap["Select-4:2"] < edap["TLC"]
        assert edap["Select-4:2"] < edap["Scrubbing"]

    def test_area_column_matches_budgets(self, service):
        from repro.experiments.figures import figure11

        result = figure11.run(
            target_requests=TARGET, workloads=WORKLOADS, service=service
        )
        cells = {row[0]: row[1] for row in result.rows}
        assert cells["TLC"] == 384
        assert cells["Hybrid"] == 296
        assert cells["LWT-4"] == 302


class TestFigure12:
    def test_k4_at_least_as_good(self, service):
        from repro.experiments.figures import figure12

        result = figure12.run(
            target_requests=TARGET, workloads=WORKLOADS, service=service
        )
        k2 = result.rows[-1][result.headers.index("LWT-2")]
        k4 = result.rows[-1][result.headers.index("LWT-4")]
        assert k4 <= k2 + 1e-9

    def test_mcf_shows_largest_gap(self, service):
        from repro.experiments.figures import figure12

        result = figure12.run(
            target_requests=TARGET, workloads=WORKLOADS, service=service
        )
        gaps = {
            row[0]: row[1] - row[2]
            for row in result.rows
            if row[0] != "geomean"
        }
        assert gaps["mcf"] == max(gaps.values())


class TestFigure13:
    def test_s2_saves_energy(self, service):
        from repro.experiments.figures import figure13

        result = figure13.run(
            target_requests=TARGET, workloads=WORKLOADS, service=service
        )
        s1 = result.rows[-1][result.headers.index("Select-4:1")]
        s2 = result.rows[-1][result.headers.index("Select-4:2")]
        assert s2 <= s1


class TestFigure14:
    def test_conversion_helps_sphinx(self, service):
        from repro.experiments.figures import figure14

        result = figure14.run(
            target_requests=TARGET, workloads=WORKLOADS, service=service
        )
        row = result.row_by("workload", "sphinx3")
        noconv = row[result.headers.index("LWT-4-noconv")]
        conv = row[result.headers.index("LWT-4")]
        assert conv < noconv * 0.95  # at least a 5% gain on sphinx


class TestFigure15:
    def test_select_extends_lifetime(self, service):
        from repro.experiments.figures import figure15

        result = figure15.run(
            target_requests=TARGET, workloads=WORKLOADS, service=service
        )
        geomean = dict(zip(result.headers[1:], result.rows[-1][1:]))
        assert geomean["Select-4:2"] > 1.1
        assert geomean["Scrubbing"] < 1.0
        assert geomean["M-metric"] == pytest.approx(1.0, abs=0.05)


class TestFigure3And4:
    def test_figure3_goal_matrix(self, service):
        from repro.experiments.figures import figure3

        result = figure3.run(
            target_requests=TARGET, workloads=WORKLOADS, service=service
        )
        rows = {row[0]: row for row in result.rows}
        assert rows["TLC"][1] == pytest.approx(0.0, abs=0.02)  # no perf loss
        assert rows["TLC"][2] < 0.8  # density penalty
        assert rows["Scrubbing"][1] > 0.0

    def test_figure4_hybrid_mostly_r_reads(self, service):
        from repro.experiments.figures import figure4

        result = figure4.run(
            target_requests=TARGET, workloads=WORKLOADS, service=service
        )
        rows = {row[0]: row for row in result.rows}
        assert rows["M-metric"][2] == pytest.approx(1.0)  # all M
        assert rows["Hybrid"][1] > 0.95  # nearly all R
        assert rows["Scrubbing"][5] > rows["Hybrid"][5]  # scrub volume
