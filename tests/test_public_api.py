"""Tests for the top-level public API surface."""

import pytest

import repro
from repro import MemoryConfig, quick_compare


class TestModuleSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_scheme_names_exposed(self):
        assert "Select-4:2" in repro.scheme_names()

    def test_metric_constants(self):
        assert repro.R_METRIC.name == "R"
        assert repro.M_METRIC.name == "M"


class TestQuickCompare:
    @pytest.fixture(scope="class")
    def results(self):
        return quick_compare("gcc", target_requests=2_000)

    def test_default_scheme_set(self, results):
        assert set(results) == {
            "Ideal",
            "Scrubbing",
            "M-metric",
            "Hybrid",
            "LWT-4",
            "Select-4:2",
        }

    def test_paired_traffic(self, results):
        reads = {stats.reads for stats in results.values()}
        assert len(reads) == 1

    def test_custom_schemes(self):
        results = quick_compare(
            "gcc", schemes=("Ideal", "TLC"), target_requests=1_000
        )
        assert set(results) == {"Ideal", "TLC"}

    def test_custom_config(self):
        config = MemoryConfig(total_lines=1 << 18, num_banks=4)
        results = quick_compare(
            "gcc", schemes=("Ideal",), target_requests=1_000, config=config
        )
        assert results["Ideal"].reads > 0

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            quick_compare("quake3", target_requests=1_000)
