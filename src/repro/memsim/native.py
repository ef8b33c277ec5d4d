"""Build and load the native timeline kernel (``_timeline.c``).

The batch engine's compiled path (:mod:`repro.memsim.fastpath`) runs a
small C kernel for the event loop and every policy decision. The kernel
is compiled on first use with the system C compiler into a per-user cache
directory and loaded through :mod:`ctypes`. It includes numpy's headers
and links numpy's shipped random-distribution library
(``numpy/random/lib/libnpyrandom.a``) so it draws from a policy's
``Generator`` exactly as numpy does, and takes ``log10`` from the C
library, as :func:`math.log10` does. When no compiler, header or library
is available :func:`load_timeline` returns ``None`` and the batch engine
transparently falls back to the event engine — slower, but bit-identical,
so the presence of a compiler can never change a result.

Compilation deliberately avoids every flag that could alter IEEE-754
semantics: ``-O2`` only, plus ``-ffp-contract=off`` so no fused
multiply-add changes a rounding against CPython's float arithmetic.

The cached library is keyed by the source, the full compile command and
``numpy.__version__``, so a numpy upgrade or a flag change rebuilds it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import sysconfig
import tempfile
from typing import List, Optional

__all__ = [
    "TimelineParams",
    "TimelineConv",
    "TimelineOut",
    "TRACE_REC_DTYPE",
    "load_timeline",
    "native_available",
]

_C_INT64 = ctypes.c_int64
_C_UINT64 = ctypes.c_uint64
_C_INT32 = ctypes.c_int32
_C_DOUBLE = ctypes.c_double
_C_VOIDP = ctypes.c_void_p


class TimelineParams(ctypes.Structure):
    """Mirror of ``Params`` in ``_timeline.c`` (field order must match);
    array fields take buffer addresses."""

    _fields_ = [
        ("n_cores", _C_INT64),
        ("core_off", _C_VOIDP),
        ("ops", _C_VOIDP),
        ("lines", _C_VOIDP),
        ("gaps_ns", _C_VOIDP),
        ("slots", _C_VOIDP),
        ("n_slots", _C_INT64),
        ("slot_lines", _C_VOIDP),
        ("op_read", _C_INT32),
        ("family", _C_INT32),
        ("num_banks", _C_INT64),
        ("write_queue_depth", _C_INT64),
        ("cancel_threshold", _C_DOUBLE),
        ("write_ns", _C_DOUBLE),
        ("bus_ns", _C_DOUBLE),
        ("read_ns", _C_DOUBLE * 3),
        ("scrub_on", _C_INT32),
        ("scrub_blocks_channel", _C_INT32),
        ("scrub_tick_ns", _C_DOUBLE),
        ("lines_per_scrub_op", _C_INT64),
        ("total_lines", _C_INT64),
        ("scrub_backlog_cap", _C_INT64),
        ("scrub_metric_read_ns", _C_DOUBLE),
        ("pj_read", _C_DOUBLE * 3),
        ("pj_scrub_read", _C_DOUBLE),
        ("pj_per_cell", _C_DOUBLE),
        ("pj_flag_read", _C_DOUBLE),
        ("pj_flag_rw", _C_DOUBLE),
        ("write_cells", _C_INT64),
        ("full_cells", _C_INT64),
        ("epoch_s", _C_DOUBLE),
        ("scrub_interval_s", _C_DOUBLE),
        ("half_lines", _C_INT64),
        ("footprint_lines", _C_INT64),
        ("cold_age_s", _C_DOUBLE),
        ("hot_age_scale_s", _C_DOUBLE),
        ("min_age_s", _C_DOUBLE),
        ("age_seed", _C_UINT64),
        ("n_grid", _C_INT64),
        ("xs", _C_VOIDP),
        ("p_r", _C_VOIDP),
        ("p_m", _C_VOIDP),
        ("slope_r", _C_VOIDP),
        ("slope_m", _C_VOIDP),
        ("lo_age", _C_DOUBLE),
        ("hi_age", _C_DOUBLE),
        ("neg_p", _C_DOUBLE),
        ("cells", _C_INT64),
        ("corr", _C_INT64),
        ("det", _C_INT64),
        ("bitgen", _C_VOIDP),
        ("surv_seed", _C_UINT64),
        ("n_cdf", _C_INT64),
        ("cdf", _C_VOIDP),
        ("hazard", _C_VOIDP),
        ("max_m", _C_INT64),
        ("w_floor", _C_INT64),
        ("sub_len_s", _C_DOUBLE),
        ("k", _C_INT64),
        ("s", _C_INT64),
        ("check_cells", _C_INT64),
        ("data_cells", _C_INT64),
        ("change_fraction", _C_DOUBLE),
        ("n_pre_lw", _C_INT64),
        ("pre_lw_lines", _C_VOIDP),
        ("pre_lw_vals", _C_VOIDP),
        ("n_pre_tr", _C_INT64),
        ("pre_tr_lines", _C_VOIDP),
        ("pre_tr_vals", _C_VOIDP),
        ("n_pre_surv", _C_INT64),
        ("pre_surv_lines", _C_VOIDP),
        ("pre_surv_vals", _C_VOIDP),
        ("tele_on", _C_INT32),
        ("trace_on", _C_INT32),
        ("n_lat_edges", _C_INT64),
        ("lat_edges", _C_VOIDP),
        ("lat_counts", _C_VOIDP),
        ("n_depth_edges", _C_INT64),
        ("depth_edges", _C_VOIDP),
        ("depth_counts", _C_VOIDP),
    ]


class TimelineConv(ctypes.Structure):
    """Mirror of ``Conv``: the adaptive conversion controller's state."""

    _fields_ = [
        ("t", _C_INT64),
        ("step", _C_INT64),
        ("window_reads", _C_INT64),
        ("window_total", _C_INT64),
        ("window_untracked", _C_INT64),
        ("last_action", _C_INT64),
        ("stagnant_windows", _C_INT64),
        ("adjustments", _C_INT64),
        ("patience", _C_INT64),
        ("prev_p", _C_DOUBLE),
        ("improvement_factor", _C_DOUBLE),
        ("has_prev_p", _C_INT32),
        ("enabled", _C_INT32),
    ]


class TimelineOut(ctypes.Structure):
    """Mirror of ``Out`` in ``_timeline.c``."""

    _fields_ = [
        ("n_reads", _C_INT64),
        ("n_writes", _C_INT64),
        ("n_cancelled", _C_INT64),
        ("n_conversions", _C_INT64),
        ("n_silent", _C_INT64),
        ("n_uncorrectable", _C_INT64),
        ("n_scrub_ops", _C_INT64),
        ("n_scrub_rewrites", _C_INT64),
        ("n_scrubs_skipped", _C_INT64),
        ("seq", _C_INT64),
        ("total_read_latency", _C_DOUBLE),
        ("exec_time_ns", _C_DOUBLE),
        ("energy", _C_DOUBLE * 6),
        ("wear", _C_INT64 * 3),
        ("reads_by_mode", _C_INT64 * 3),
        ("lat_sum", _C_DOUBLE),
        ("depth_sum", _C_DOUBLE),
        ("n_lat", _C_INT64),
        ("n_depth", _C_INT64),
        ("n_rec", _C_INT64),
        ("n_lw", _C_INT64),
        ("n_tr", _C_INT64),
        ("n_surv", _C_INT64),
        ("ecat_order", _C_INT32 * 6),
        ("n_ecat", _C_INT32),
        ("wcat_order", _C_INT32 * 3),
        ("n_wcat", _C_INT32),
        ("mode_order", _C_INT32 * 3),
        ("n_mode", _C_INT32),
        ("error", _C_INT64),
    ]


#: numpy dtype of the compact tracer record (``TraceRec`` in C); the
#: lazy materializer iterates this to build the exported dicts.
TRACE_REC_DTYPE = [
    ("f1", "<f8"),
    ("f2", "<f8"),
    ("f3", "<f8"),
    ("line", "<i8"),
    ("kind", "<i4"),
    ("a", "<i4"),
    ("b", "<i4"),
    ("c", "<i4"),
]

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_timeline.c")

#: Stand-in for the output path while the command is hashed.
_OUT = "<out>"

_UNSET = object()
_lib: object = _UNSET


def _compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        found = _which(name)
        if found:
            return found
    return None


def _which(name: str) -> Optional[str]:
    for directory in os.environ.get("PATH", "").split(os.pathsep):
        candidate = os.path.join(directory, name)
        if os.path.isfile(candidate) and os.access(candidate, os.X_OK):
            return candidate
    return None


def _cache_dir() -> str:
    override = os.environ.get("READDUO_NATIVE_CACHE")
    if override:
        return override
    uid = getattr(os, "getuid", lambda: 0)()
    return os.path.join(tempfile.gettempdir(), "readduo-native-%d" % uid)


def _compile_command(cc: str) -> Optional[List[str]]:
    """The compile command with ``_OUT`` as the output path, or ``None``
    when numpy's headers, numpy's random library or ``Python.h`` is
    missing."""
    import numpy
    import numpy.random

    np_include = numpy.get_include()
    py_include = sysconfig.get_paths().get("include") or ""
    random_lib = os.path.join(
        os.path.dirname(os.path.abspath(numpy.random.__file__)), "lib", "libnpyrandom.a"
    )
    needed = (
        os.path.join(np_include, "numpy", "random", "distributions.h"),
        os.path.join(py_include, "Python.h"),
        random_lib,
    )
    if not all(os.path.isfile(path) for path in needed):
        return None
    return [
        cc,
        "-O2",
        "-fPIC",
        "-shared",
        "-ffp-contract=off",
        "-I",
        np_include,
        "-I",
        py_include,
        "-o",
        _OUT,
        _SOURCE,
        random_lib,
        "-lm",
    ]


def _library_path(source: bytes, cmd: List[str]) -> str:
    """Cache path of the library built from ``source`` by ``cmd``: keyed
    by both plus ``numpy.__version__`` and the Python version."""
    import numpy

    digest = hashlib.sha256(source)
    digest.update("\0".join(cmd).encode())
    digest.update(b"\0numpy=" + str(numpy.__version__).encode())
    tag = digest.hexdigest()[:16]
    return os.path.join(
        _cache_dir(),
        "timeline-%s-py%d%d.so" % (tag, sys.version_info[0], sys.version_info[1]),
    )


def _build() -> Optional[str]:
    cc = _compiler()
    if cc is None:
        return None
    try:
        with open(_SOURCE, "rb") as handle:
            source = handle.read()
        cmd = _compile_command(cc)
    except (OSError, ImportError):
        return None
    if cmd is None:
        return None
    so_path = _library_path(source, cmd)
    if os.path.exists(so_path):
        return so_path
    try:
        os.makedirs(os.path.dirname(so_path), exist_ok=True)
        tmp_path = so_path + ".tmp-%d" % os.getpid()
        result = subprocess.run(
            [tmp_path if arg == _OUT else arg for arg in cmd],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=120,
        )
        if result.returncode != 0:
            return None
        os.replace(tmp_path, so_path)
        return so_path
    except (OSError, subprocess.SubprocessError):
        return None


def _bind(lib) -> None:
    """Declare the kernel's signatures."""
    lib.run_timeline.restype = _C_VOIDP
    # params, conversion controller, out, and the handle of an earlier run
    # on this thread (or None), whose buffers the run reuses.
    lib.run_timeline.argtypes = [
        ctypes.POINTER(TimelineParams),
        ctypes.POINTER(TimelineConv),
        ctypes.POINTER(TimelineOut),
        _C_VOIDP,
    ]
    lib.export_timeline.restype = None
    # handle, then the addresses of: trace records, last-write lines and
    # values, tracker lines and values, survived lines and values.
    lib.export_timeline.argtypes = [_C_VOIDP] * 8
    lib.free_timeline.restype = None
    lib.free_timeline.argtypes = [_C_VOIDP]
    lib.kernel_probability.restype = None
    lib.kernel_probability.argtypes = [
        ctypes.POINTER(TimelineParams),
        _C_INT32,
        _C_VOIDP,
        _C_VOIDP,
        _C_INT64,
    ]


def load_timeline():
    """The loaded kernel library, or ``None`` when unavailable.

    Memoized (including the failure case) so the compile/probe cost is
    paid at most once per process.
    """
    global _lib
    if _lib is not _UNSET:
        return _lib
    _lib = None
    so_path = _build()
    if so_path is None:
        return None
    try:
        lib = ctypes.CDLL(so_path)
        _bind(lib)
    except (OSError, AttributeError):
        return None
    _lib = lib
    return lib


def native_available() -> bool:
    """Whether the compiled kernel is usable in this process."""
    return load_timeline() is not None
