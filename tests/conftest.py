"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.memsim.config import MemoryConfig
from repro.traces.spec import WorkloadProfile


@pytest.fixture(autouse=True)
def _isolated_run_cache(tmp_path_factory, monkeypatch) -> None:
    """Point the default run cache at a fresh directory for every test.

    ``readduo run``/``sweep`` without ``--no-cache`` write the cache at
    ``$READDUO_SWEEP_CACHE``, else under ``./results/.sweep-cache``: a
    test that sets no location would otherwise fill the checkout's.
    Tests of the default location ``monkeypatch.delenv`` it.
    """
    monkeypatch.setenv(
        "READDUO_SWEEP_CACHE", str(tmp_path_factory.mktemp("sweep-cache"))
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic randomness for the test."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_config() -> MemoryConfig:
    """A small memory configuration for fast engine tests."""
    return MemoryConfig(total_lines=1 << 16, num_banks=4)


@pytest.fixture
def small_profile() -> WorkloadProfile:
    """A compact synthetic workload for fast trace/engine tests."""
    return WorkloadProfile(
        name="tiny",
        rpki=4.0,
        wpki=2.0,
        footprint_lines=2048,
        cold_footprint_lines=512,
        cold_read_fraction=0.1,
        hot_age_scale_s=60.0,
    )
