"""The native kernel's build key, its graceful absence, and its log10.

The compiled kernel must equal the event engine on every host, so it takes
``log10`` from numpy's own inner loop (SIMD where numpy dispatches to it,
libm elsewhere) rather than from libm, and a cached library is reused
only for the exact source, compile command and numpy it was built with.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.sampler import sampler_tables
from repro.memsim import native


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """Forget the loaded kernel and build into a private cache."""
    monkeypatch.setenv("READDUO_NATIVE_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_lib", native._UNSET)
    yield tmp_path
    monkeypatch.setattr(native, "_lib", native._UNSET)


def test_library_tag_changes_with_numpy_version(monkeypatch):
    cmd = ["cc", "-O2", "-o", native._OUT]
    before = native._library_path(b"source", cmd)
    assert native._library_path(b"source", cmd) == before
    monkeypatch.setattr(np, "__version__", np.__version__ + ".post1")
    assert native._library_path(b"source", cmd) != before


def test_library_tag_changes_with_source_and_flags():
    cmd = ["cc", "-O2", "-o", native._OUT]
    base = native._library_path(b"source", cmd)
    assert native._library_path(b"source2", cmd) != base
    assert native._library_path(b"source", cmd + ["-g"]) != base


def test_compile_command_links_numpy_random():
    cmd = native._compile_command("cc")
    if cmd is None:
        pytest.skip("numpy headers or libnpyrandom.a not shipped here")
    assert "-ffp-contract=off" in cmd
    assert any(arg.endswith("libnpyrandom.a") for arg in cmd)
    assert np.get_include() in cmd


def test_missing_numpy_headers_mean_no_kernel(fresh_loader, monkeypatch):
    monkeypatch.setattr(np, "get_include", lambda: str(fresh_loader))
    assert native.load_timeline() is None
    assert not native.native_available()


def test_missing_python_headers_mean_no_kernel(fresh_loader, monkeypatch):
    monkeypatch.setattr(
        native.sysconfig, "get_paths", lambda: {"include": str(fresh_loader)}
    )
    assert native.load_timeline() is None


def test_missing_random_library_means_no_kernel(fresh_loader, monkeypatch):
    monkeypatch.setattr(np.random, "__file__", str(fresh_loader / "__init__.py"))
    assert native.load_timeline() is None


def test_failed_compile_means_no_kernel(fresh_loader, monkeypatch):
    cmd = native._compile_command("cc")
    if cmd is None:
        pytest.skip("numpy headers or libnpyrandom.a not shipped here")
    monkeypatch.setattr(
        native, "_compile_command", lambda cc: cmd + ["-fno-such-compiler-flag"]
    )
    assert native.load_timeline() is None


def _contract_ages():
    """>= 1e5 ages across the sampler grid, plus the ages just below its
    top where ``log10`` collapses adjacent doubles onto ``xs[-1]``."""
    tables = sampler_tables()
    lo, hi = float(tables.grid[0]), float(tables.grid[-1])
    spread = np.geomspace(lo, hi, 100_000)
    near_top = [hi]
    for _ in range(2_000):
        near_top.append(math.nextafter(near_top[-1], 0.0))
    return np.concatenate([spread, np.asarray(near_top[1:])]), tables


def test_kernel_log10_is_numpy_log10_bit_for_bit():
    lib = native.load_timeline()
    if lib is None:
        pytest.skip("compiled kernel unavailable")
    ages, tables = _contract_ages()
    got = np.empty_like(ages)
    fn, data = native.log10_loop()
    lib.kernel_log10(
        fn,
        data,
        ages.ctypes.data,
        got.ctypes.data,
        len(ages),
    )
    # The sampler calls np.log10 on one Python float at a time.
    want = np.asarray([np.log10(age) for age in ages.tolist()])
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    top = float(tables.log_grid[-1])
    assert np.count_nonzero(got[len(ages) - 2_000:] == top) > 0
