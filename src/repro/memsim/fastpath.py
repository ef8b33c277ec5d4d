"""Compiled exact path for the batch engine.

The event engine (:class:`repro.memsim.engine.MemorySystemSim`) steps
every event in Python. This module hands the whole run to the C kernel
(:mod:`repro.memsim.native`): the queueing network — bank queues, write
cancellation, waiter release, channel arbitration, scrub sweep — *and*
every policy decision, in event order, in one pass.

The kernel is exact, not speculative. It transcribes each eligible
policy class's hooks and draws from the policy's own ``Generator``
through numpy's shipped distribution library (``random_binomial``,
``next_double``), with probabilities taken through the C library's
``log10`` (the one :func:`math.log10` calls in the sampler) and a
bisect-lerp over the sampler's table slopes that reproduces ``np.interp``
bit for bit. It therefore consumes the random stream exactly as the
event engine does; ``tests/test_batch_equivalence.py``
checks the two against each other, every family and rare branch
included. At commit the policy's state is left as the event engine
leaves it. The conversion controller's fields are written back. The
per-line dicts (``last_write_s``, the LWT tracker's ``_last_event_s``,
Scrubbing's ``_survived``) are handed to their owners as the kernel's
``(lines, values)`` arrays in insertion order, and each owner builds the
dict on its first read, so a sweep unit's policy, discarded after its
run, never pays for them. The RNG state is shared, so it is already
current.

What a unit pays beyond its requests is built once and kept: a trace's
flattened per-core request arrays and dense line slots live with the
trace (:meth:`~repro.traces.trace.Trace.derived`), so every scheme of a
workload runs on the same arrays and they go when the trace goes; a
thread's kernel handle keeps its buffers from one run to the next.

Eligibility is by exact policy type (subclasses, and instances whose
attributes shadow a hook, take the event engine):

* ``Ideal`` / ``TLC`` without scrubbing: constant clean R-reads.
* ``ReadDuo-Hybrid`` with scrubbing: R-reads with the R-to-R+M re-read on
  9-17 errors, M-metric W=0 scrub.
* ``Scrubbing`` (W=0 and W=1) with scrubbing: R-reads; W=1 draws the
  renewal hazard per scrub visit.
* ``M-metric`` with or without scrubbing: M-reads, W>=1 rewrite-on-detect.
* ``LWT-k`` / ``Select-k:s``: the sub-interval tracker, the adaptive
  conversion controller and its coin, Select's differential writes, and
  the W=1 M-sampling scrub.

Cost on a traced ``sim-cold`` run (``python3 perfbench/run.py --workload
sim-cold --seed 205 --seconds 25 --trace 1``: gcc + mcf at 10k requests, a
2-CPU x86-64 host with AVX-512), in us per request, both columns measured
back to back. "Before" looked every line up in a hash map, scheduled
every scrub tick and channel completion on the heap, called numpy's
``log10`` loop and rebuilt the trace inputs per unit; "now" carries dense
line slots, keeps the two events in registers, calls libm's ``log10`` and
builds the inputs once per trace (docs/PERFORMANCE.md, "Per-request
kernel cost"):

==============  ======  =====
scheme          before  now
==============  ======  =====
Ideal             0.27   0.22
TLC               0.26   0.21
Hybrid            0.55   0.42
Scrubbing-W0      0.98   0.53
Scrubbing         1.08   0.69
M-metric          0.57   0.38
LWT-2             0.59   0.47
LWT-4             0.59   0.47
LWT-4-noconv      0.60   0.48
Select-4:1        0.64   0.53
Select-4:2        0.65   0.53
==============  ======  =====

Fault injection always takes the event engine: fault streams are
consumed per line inside the event loop.
"""

from __future__ import annotations

import ctypes
import threading
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..baselines.tlc import TlcPolicy
from ..core.policies.base import DATA_CELLS, IdealPolicy
from ..core.policies.hybrid import HybridPolicy
from ..core.policies.lwt import LwtPolicy
from ..core.policies.mmetric import MMetricPolicy
from ..core.policies.scrubbing import ScrubbingPolicy
from ..core.policies.select import SelectPolicy
from ..core.sampler import DriftErrorSampler
from ..ecc.regimes import CORRECTABLE_ERRORS, DETECTABLE_ERRORS
from ..faults.injector import FaultInjector
from ..obs import Telemetry
from ..obs.spans import maybe_span
from ..traces.trace import OP_READ, Trace
from .config import MemoryConfig
from .engine import _snapshot_metrics
from .native import (
    TRACE_REC_DTYPE,
    TimelineConv,
    TimelineOut,
    TimelineParams,
    load_timeline,
)
from .policy import SchemePolicy
from .stats import RunStats

__all__ = [
    "try_simulate_speculative",
    "speculation_plan",
    "kernel_cell_error_probability",
    "last_attempt",
    "last_run",
    "record_event_run",
]

#: ``(engine, outcome, reason)`` of this thread's most recent
#: :func:`repro.memsim.simulate` call, in ``_STATE.last``. ``engine`` is
#: the engine that ran: ``"batch"`` (the compiled kernel) or ``"event"``;
#: ``outcome`` is ``"speculated"`` (the run went through the kernel),
#: ``"fallback"`` or ``"no_native"``, and ``reason`` says why (``"ok"`` on
#: the kernel, ``"not_attempted"`` when the kernel was never tried). Read for
#: run-provenance records and the ``fastpath.*`` counters: a fall-back to
#: the event engine is otherwise indistinguishable from a kernel run.
#: Thread-local because the serve daemon simulates on several executor
#: threads at once and the kernel call releases the GIL.
_STATE = threading.local()

_NOT_ATTEMPTED: Tuple[Optional[str], str, str] = (None, "fallback", "not_attempted")


def last_run() -> Tuple[Optional[str], str, str]:
    """``(engine that ran, outcome, reason)`` of the most recent run on this thread."""
    return getattr(_STATE, "last", _NOT_ATTEMPTED)


def last_attempt() -> Tuple[str, str]:
    """``(outcome, reason)`` of the most recent run on this thread."""
    _engine, outcome, reason = last_run()
    return outcome, reason


def record_event_run() -> None:
    """Note a run that went straight to the event engine."""
    _STATE.last = ("event", "fallback", "not_attempted")


def _miss(reason: str) -> None:
    """Record a fall-back to the event engine; returns ``None`` for tail calls."""
    outcome = "no_native" if reason == "no_native" else "fallback"
    _STATE.last = ("event", outcome, reason)
    return None


def _hit() -> None:
    _STATE.last = ("batch", "speculated", "ok")


class _Handle:
    """This thread's kernel handle: each run reuses the buffers of the
    thread's earlier runs, and they are freed when the thread ends."""

    __slots__ = ("handle", "_free")

    def __init__(self, lib: Any) -> None:
        self.handle: Optional[int] = None
        self._free = lib.free_timeline

    def __del__(self) -> None:
        self._free(self.handle)


def _handles(lib: Any) -> _Handle:
    handles = getattr(_STATE, "handles", None)
    if handles is None:
        handles = _STATE.handles = _Handle(lib)
    return handles


_ECAT_NAMES = ("read", "write", "scrub_read", "scrub_write", "flags", "conversion")
_WCAT_NAMES = ("demand", "scrub", "conversion")
_MODE_NAMES = ("R", "M", "RM")
_CAUSE_NAMES = ("demand", "conversion")

# Scheme families (mirror of the FAM_* enum in _timeline.c).
_FAM_CONST = 0
_FAM_HYBRID = 1
_FAM_SCRUB_W0 = 2
_FAM_SCRUB_W1 = 3
_FAM_MMETRIC = 4
_FAM_LWT = 5
_FAM_SELECT = 6

class _Plan:
    """Kernel family plus the constants it needs from one policy."""

    __slots__ = ("family", "write_cells", "scrub_metric")

    def __init__(self, family: int, write_cells: int, scrub_metric: str) -> None:
        self.family = family
        self.write_cells = write_cells
        self.scrub_metric = scrub_metric


def _patched_hook(policy: SchemePolicy) -> bool:
    """Whether an instance attribute shadows a method the kernel transcribes.

    The kernel runs its own copy of each class's hooks, so an instance-
    level override (``policy.conversion.record_read = ...``) would be
    silently ignored; such runs take the event engine, which honours it.
    """
    parts = (policy, getattr(policy, "conversion", None), getattr(policy, "tracker", None))
    return any(
        callable(getattr(type(obj), name, None))
        for obj in parts
        for name in getattr(obj, "__dict__", ())
    )


def speculation_plan(policy: SchemePolicy) -> Optional[_Plan]:
    """The kernel plan for ``policy``, or ``None`` (run the event engine).

    Dispatch is on the exact type: subclasses may override any hook, and
    so may instance attributes (:func:`_patched_hook`); both take the
    event engine.
    """
    kind = type(policy)
    scrub_on = policy.scrub_interval_s is not None and policy.scrub_interval_s > 0
    rng = getattr(policy, "rng", None)
    sampler = getattr(policy, "sampler", None)
    if sampler is None or sampler.rng is not rng or _patched_hook(policy):
        return None

    if kind is IdealPolicy or kind is TlcPolicy:
        if scrub_on:
            return None
        cells = policy._write_cells if kind is TlcPolicy else policy.full_cells
        return _Plan(_FAM_CONST, cells, "R")
    if kind is HybridPolicy:
        return _Plan(_FAM_HYBRID, policy.full_cells, "M") if scrub_on else None
    if kind is ScrubbingPolicy:
        if not scrub_on:
            return None
        family = _FAM_SCRUB_W0 if policy.w == 0 else _FAM_SCRUB_W1
        return _Plan(family, policy.full_cells, "R")
    if kind is MMetricPolicy:
        return _Plan(_FAM_MMETRIC, policy.full_cells, "M")
    if kind is LwtPolicy or kind is SelectPolicy:
        if policy.conversion.rng is not rng:
            return None
        family = _FAM_SELECT if kind is SelectPolicy else _FAM_LWT
        return _Plan(family, policy.full_cells, "M")
    return None


# ----------------------------------------------------------------- tracer


def _defer_trace_records(tracer: Any, recs: np.ndarray, num_banks: int) -> None:
    """Queue lazy materialization of the kernel's compact trace records.

    The dict construction (the expensive part) runs only if someone
    reads ``tracer.records``; counts and the drop accounting are exact
    against ``max_events`` either way. ``.tolist()`` rows yield Python
    scalars, so materialized records stay JSON-serializable.
    """
    total = len(recs)
    avail = tracer.max_events - len(tracer)
    take = max(0, min(total, avail))
    dropped = total - take

    def build(records: List[Dict[str, Any]]) -> None:
        for f1, f2, f3, line, kind, a, b, c in recs[:take].tolist():
            if kind == 0:
                records.append({
                    "kind": "read",
                    "core": a,
                    "bank": line % num_banks,
                    "line": line,
                    "mode": _MODE_NAMES[c],
                    "queue_depth": b,
                    "issue_ns": f1,
                    "start_ns": f2,
                    "complete_ns": f3,
                })
            elif kind == 1:
                records.append({
                    "kind": "write",
                    "cause": _CAUSE_NAMES[c],
                    "bank": a,
                    "line": line,
                    "start_ns": f1,
                    "complete_ns": f2,
                })
            elif kind == 2:
                records.append({
                    "kind": "write_cancel",
                    "bank": a,
                    "line": line,
                    "progress": f1,
                    "time_ns": f2,
                })
            else:
                records.append({
                    "kind": "scrub",
                    "time_ns": f1,
                    "lines": a,
                    "rewrites": b,
                    "duration_ns": f2,
                    "skipped": bool(c),
                })

    tracer.defer(take, dropped, build)


# ------------------------------------------------------------------ entry


def _f64(values: Any) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64)


class _TraceInputs:
    """One trace's requests as the kernel reads them: flattened core by
    core in issue order (``offsets`` holds ``num_cores + 1`` bounds), gaps
    scaled to ns, and each request's dense line slot, the rank of its line
    among the trace's distinct lines ``slot_lines`` (ascending)."""

    __slots__ = ("offsets", "ops", "lines", "gaps", "slots", "slot_lines")

    def __init__(self, trace: Trace, num_cores: int, cycle_ns: float) -> None:
        counts = np.bincount(trace.core, minlength=num_cores)[:num_cores]
        self.offsets = np.zeros(num_cores + 1, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])
        # A stable sort by core keeps each core's requests in issue order;
        # cores at or past num_cores sort last and are left out.
        order = np.argsort(trace.core, kind="stable")[: self.offsets[-1]]
        self.ops = np.ascontiguousarray(trace.op[order], dtype=np.int8)
        self.lines = np.ascontiguousarray(trace.line[order], dtype=np.int64)
        self.gaps = _f64(trace.gap[order].astype(np.float64) * cycle_ns)
        self.slot_lines, slots = np.unique(self.lines, return_inverse=True)
        self.slots = slots.astype(np.int32)


def _trace_inputs(trace: Trace, num_cores: int, cycle_ns: float) -> _TraceInputs:
    """``trace``'s kernel inputs, built once and kept with the trace: the
    schemes of one workload share them, and they go when the trace goes."""
    return trace.derived(
        ("kernel", num_cores, cycle_ns), lambda t: _TraceInputs(t, num_cores, cycle_ns)
    )


def _sampler_params(p: TimelineParams, sampler: DriftErrorSampler, arr: Any) -> None:
    """Fill ``p``'s DriftErrorSampler fields; ``arr`` keeps each array the
    kernel points into alive and returns its address."""
    tables = sampler.tables
    p.n_grid = len(tables.log_grid)
    p.xs = arr(_f64(tables.log_grid))
    p.p_r = arr(_f64(tables.p_r))
    p.p_m = arr(_f64(tables.p_m))
    p.slope_r = arr(_f64(tables.slope_r))
    p.slope_m = arr(_f64(tables.slope_m))
    p.lo_age = float(tables.grid[0])
    p.hi_age = float(tables.grid[-1])
    p.neg_p = sampler._negligible_p
    p.cells = sampler.cells


def kernel_cell_error_probability(
    sampler: DriftErrorSampler, ages: np.ndarray, metric: str = "R"
) -> np.ndarray:
    """The kernel's per-cell error probability of ``sampler`` at each of
    ``ages``: the path each sampled read takes (``log10``, then the
    bisect-lerp), to hold against ``sampler.cell_error_probability``."""
    lib = load_timeline()
    if lib is None:
        raise RuntimeError("the native kernel is not available")
    ages = _f64(ages)
    out = np.empty_like(ages)
    keep: List[np.ndarray] = []

    def arr(values: np.ndarray) -> int:
        keep.append(values)
        return values.ctypes.data

    p = TimelineParams()
    _sampler_params(p, sampler, arr)
    lib.kernel_probability(
        ctypes.byref(p), 0 if metric == "R" else 1, ages.ctypes.data, out.ctypes.data, len(ages)
    )
    return out


#: Instance attribute under which an owner of per-line state keeps dicts
#: handed back as arrays, by attribute name; the owner's ``__getattr__``
#: (``BaseDriftPolicy``, ``QuantizedTracker``) builds each on first read.
_DEFERRED = "_deferred"

#: Value dtype of each per-line dict the kernel preloads and exports, by
#: its ``Params`` prefix, in ``export_timeline``'s argument order.
_STATE_DTYPES = {"lw": np.float64, "tr": np.float64, "surv": np.int64}

_REC_DTYPE = np.dtype(TRACE_REC_DTYPE)


def _state_arrays(owner: Any, name: str, dtype: Any) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``owner.<name>``'s entries as ``(lines, values)`` in insertion order,
    without building a dict a previous kernel run deferred."""
    state = vars(owner)
    if name not in state:
        deferred = state.get(_DEFERRED, {}).get(name)
        if deferred is not None:
            return deferred
    entries = getattr(owner, name)
    if not entries:
        return None
    keys = np.fromiter(entries.keys(), dtype=np.int64, count=len(entries))
    vals = np.fromiter(entries.values(), dtype=dtype, count=len(entries))
    return keys, vals


def _defer(owner: Any, name: str, lines: np.ndarray, values: np.ndarray) -> None:
    """Make ``(lines, values)`` the content of ``owner.<name>``.

    The kernel exports every entry of the dict, pre-run ones first, in
    first-insertion order, so the arrays replace it whole. A sweep unit's
    policy is discarded after its run; its dicts are never built.
    """
    state = vars(owner)
    state.pop(name, None)
    state.setdefault(_DEFERRED, {})[name] = (lines, values)


def try_simulate_speculative(
    trace: Trace,
    policy: SchemePolicy,
    config: MemoryConfig,
    epoch_s: float,
    telemetry: Optional[Telemetry],
    faults: Optional[FaultInjector] = None,
) -> Optional[RunStats]:
    """Run ``trace`` on the compiled kernel; ``None`` means "use the event
    engine" (fault injection, an ineligible or patched policy, no
    compiler, or a kernel error). On ``None`` all policy/RNG state is
    untouched.

    Every call records its ``(outcome, reason)`` in :func:`last_attempt`;
    every kernel attempt also emits a ``fastpath.speculate`` span carrying
    them when span tracing is active, so fall-backs are attributable."""
    if faults is not None and faults.spec.enabled:
        # Fault streams are consumed per line inside the event loop.
        return _miss("faults")
    with maybe_span(
        "fastpath.speculate", scheme=policy.name, workload=trace.name
    ) as span:
        result = _attempt(trace, policy, config, epoch_s, telemetry)
        outcome, reason = last_attempt()
        span.set_attr("outcome", outcome)
        span.set_attr("reason", reason)
        return result


def _attempt(
    trace: Trace,
    policy: SchemePolicy,
    config: MemoryConfig,
    epoch_s: float,
    telemetry: Optional[Telemetry],
) -> Optional[RunStats]:
    plan = speculation_plan(policy)
    if plan is None:
        return _miss("patched_hook" if _patched_hook(policy) else "ineligible")
    lib = load_timeline()
    if lib is None:
        return _miss("no_native")
    # The policy's closures read the scrub phase / births through its own
    # ctx; the kernel has one (config, epoch) — they must be the same.
    if policy.ctx.config is not config or policy.ctx.epoch_s != epoch_s:
        return _miss("context_mismatch")
    # Fixed-capacity queues in the kernel.
    if config.num_cores >= 64 or config.scrub_backlog_cap >= 70:
        return _miss("config_limits")

    if telemetry is not None and telemetry.enabled:
        tele: Optional[Telemetry] = telemetry
        tracer = telemetry.tracer
        tracer = tracer if (tracer is not None and tracer.enabled) else None
    else:
        tele = None
        tracer = None

    timing = config.timing
    inputs = _trace_inputs(trace, config.num_cores, timing.cycle_ns)
    if inputs.offsets[-1] == 0:
        # Empty trace: let the event engine produce the stats.
        return _miss("empty_trace")

    stats = RunStats(scheme=policy.name, workload=trace.name)
    stats.energy.params = config.energy
    stats.wear.cells_per_line = config.cells_per_line_write
    data_bits = stats.energy.data_bits
    eparams = config.energy
    ages_model = policy.ages
    profile = ages_model.profile
    mask64 = (1 << 64) - 1
    keep: List[Any] = []  # arrays the kernel points into

    def arr(values: np.ndarray) -> int:
        keep.append(values)
        return values.ctypes.data

    p = TimelineParams()
    p.n_cores = config.num_cores
    p.core_off = arr(inputs.offsets)
    p.ops = arr(inputs.ops)
    p.lines = arr(inputs.lines)
    p.gaps_ns = arr(inputs.gaps)
    p.op_read = int(OP_READ)
    p.family = plan.family
    p.num_banks = config.num_banks
    p.write_queue_depth = config.write_queue_depth
    p.cancel_threshold = config.cancel_threshold
    p.write_ns = timing.write_ns
    p.bus_ns = timing.bus_ns
    p.read_ns[:] = (timing.r_read_ns, timing.m_read_ns, timing.rm_read_ns)
    interval = policy.scrub_interval_s
    scrub_on = interval is not None and interval > 0
    if scrub_on:
        p.scrub_on = 1
        p.scrub_interval_s = interval
        p.scrub_tick_ns = interval * 1e9 / (config.total_lines / config.lines_per_scrub_op)
    p.scrub_blocks_channel = 1 if config.scrub_blocks_channel else 0
    p.lines_per_scrub_op = config.lines_per_scrub_op
    p.total_lines = config.total_lines
    p.scrub_backlog_cap = config.scrub_backlog_cap
    p.scrub_metric_read_ns = timing.r_read_ns if plan.scrub_metric == "R" else timing.m_read_ns
    p.pj_read[:] = tuple(eparams.read_energy_pj(m, data_bits) for m in _MODE_NAMES)
    p.pj_scrub_read = eparams.read_energy_pj(plan.scrub_metric, data_bits)
    p.pj_per_cell = eparams.write_pj_per_cell
    p.pj_flag_read = eparams.flag_read_pj + 0.0
    p.pj_flag_rw = eparams.flag_read_pj + eparams.flag_write_pj
    p.write_cells = plan.write_cells
    p.full_cells = policy.full_cells
    p.epoch_s = epoch_s
    p.half_lines = config.total_lines // 2
    p.footprint_lines = profile.footprint_lines
    p.cold_age_s = profile.cold_age_s
    p.hot_age_scale_s = profile.hot_age_scale_s
    p.min_age_s = ages_model.min_age_s
    p.age_seed = ages_model.seed & mask64
    _sampler_params(p, policy.sampler, arr)
    p.corr = CORRECTABLE_ERRORS
    p.det = DETECTABLE_ERRORS
    p.bitgen = policy.rng.bit_generator.ctypes.bit_generator.value

    family = plan.family
    # Owner and attribute of each per-line dict the run reads and updates.
    owners: Dict[str, Tuple[Any, str]] = {"lw": (policy, "last_write_s")}
    conv = None
    c = TimelineConv()
    if family in (_FAM_SCRUB_W0, _FAM_SCRUB_W1):
        owners["surv"] = (policy, "_survived")
        p.surv_seed = policy.ctx.seed & mask64
        p.n_cdf = len(policy._stationary_cdf)
        p.cdf = arr(_f64(policy._stationary_cdf))
        p.hazard = arr(_f64(policy._hazard))
        p.max_m = policy._MAX_INTERVALS - 1
    elif family == _FAM_MMETRIC:
        p.w_floor = max(policy.w, 1)
    elif family in (_FAM_LWT, _FAM_SELECT):
        tracker = policy.tracker
        owners["tr"] = (tracker, "_last_event_s")
        p.sub_len_s = tracker.sub_len_s
        p.k = policy.k
        if family == _FAM_SELECT:
            p.s = policy.s
            p.check_cells = policy._check_cells
            p.data_cells = DATA_CELLS
            p.change_fraction = policy.ctx.profile.write_change_fraction
        conv = policy.conversion
        c.t = conv.t
        c.step = conv.step
        c.window_reads = conv.window_reads
        c.window_total = conv._window_total
        c.window_untracked = conv._window_untracked
        c.last_action = conv._last_action
        c.stagnant_windows = conv._stagnant_windows
        c.adjustments = conv.adjustments
        c.patience = conv.patience
        c.has_prev_p = conv._prev_p is not None
        c.prev_p = conv._prev_p if conv._prev_p is not None else 0.0
        c.improvement_factor = conv.improvement_factor
        c.enabled = 1 if conv.enabled else 0
    # Dict entries from before the run (none for a fresh policy). Their
    # lines join the trace's in the dense slots.
    slot_lines, slots = inputs.slot_lines, inputs.slots
    pre_lines = []
    for prefix, (owner, name) in owners.items():
        entries = _state_arrays(owner, name, _STATE_DTYPES[prefix])
        if entries is not None:
            keys, vals = entries
            setattr(p, "n_pre_" + prefix, len(keys))
            setattr(p, "pre_%s_lines" % prefix, arr(keys))
            setattr(p, "pre_%s_vals" % prefix, arr(vals))
            pre_lines.append(keys)
    if pre_lines:
        extra = np.setdiff1d(np.concatenate(pre_lines), slot_lines)
        if extra.size:
            slot_lines = np.union1d(slot_lines, extra)
            slots = np.searchsorted(slot_lines, inputs.lines).astype(np.int32)
    p.slots = arr(slots)
    p.n_slots = len(slot_lines)
    p.slot_lines = arr(slot_lines)
    p.trace_on = 1 if tracer is not None else 0
    hists = (stats.read_latency_hist, stats.queue_depth_hist)
    if tele is not None:
        # The kernel buckets each value as Histogram.record does, into
        # the fresh stats' (all-zero) counts.
        counts = [np.zeros(len(hist.counts), dtype=np.int64) for hist in hists]
        p.tele_on = 1
        p.n_lat_edges, p.n_depth_edges = (len(hist.boundaries) for hist in hists)
        p.lat_edges, p.depth_edges = (arr(_f64(hist.boundaries)) for hist in hists)
        p.lat_counts, p.depth_counts = (arr(c) for c in counts)

    out = TimelineOut()
    bit_generator = policy.rng.bit_generator
    handles = _handles(lib)
    with maybe_span("fastpath.timeline", requests=len(inputs.ops)):
        with bit_generator.lock:
            saved_state = bit_generator.state
            handle = handles.handle = lib.run_timeline(
                ctypes.byref(p), ctypes.byref(c), ctypes.byref(out), handles.handle
            )
            if handle is None or out.error:
                # The kernel drew from the Generator; rewind it so the
                # event engine replays the run from the same stream.
                bit_generator.state = saved_state
                return _miss("kernel_error")
        recs = np.empty(out.n_rec, dtype=_REC_DTYPE)
        exported = {}
        for prefix, dtype in _STATE_DTYPES.items():
            n = getattr(out, "n_" + prefix)
            exported[prefix] = (np.empty(n, dtype=np.int64), np.empty(n, dtype=dtype))
        lib.export_timeline(
            handle,
            recs.ctypes.data,
            *(a.ctypes.data for pair in exported.values() for a in pair),
        )

    # ---- commit: policy state as the event engine leaves it, then the stats
    for prefix, (owner, name) in owners.items():
        _defer(owner, name, *exported[prefix])
    if conv is not None:
        conv.t = c.t
        conv._window_total = c.window_total
        conv._window_untracked = c.window_untracked
        conv._prev_p = c.prev_p if c.has_prev_p else None
        conv._last_action = c.last_action
        conv._stagnant_windows = c.stagnant_windows
        conv.adjustments = c.adjustments

    stats.reads = out.n_reads
    stats.writes = out.n_writes
    stats.conversions = out.n_conversions
    stats.silent_corruptions = out.n_silent
    stats.uncorrectable_reads = out.n_uncorrectable
    stats.scrub_ops = out.n_scrub_ops
    stats.scrub_rewrites = out.n_scrub_rewrites
    stats.scrubs_skipped = out.n_scrubs_skipped
    stats.cancelled_writes = out.n_cancelled
    stats.total_read_latency_ns = out.total_read_latency
    stats.execution_time_ns = out.exec_time_ns
    stats.instructions = trace.instructions()
    # Dicts are rebuilt in the kernel's first-touch order so their
    # (serialized) insertion order matches the scalar engine's.
    for i in range(out.n_mode):
        mode = out.mode_order[i]
        stats.reads_by_mode[_MODE_NAMES[mode]] = out.reads_by_mode[mode]
    by_cat = stats.energy.by_category
    for i in range(out.n_ecat):
        cat = out.ecat_order[i]
        by_cat[_ECAT_NAMES[cat]] = out.energy[cat]
    by_cause = stats.wear.by_cause
    for i in range(out.n_wcat):
        cat = out.wcat_order[i]
        by_cause[_WCAT_NAMES[cat]] = out.wear[cat]

    if tele is not None:
        for hist, bucket_counts, n, total in zip(
            hists, counts, (out.n_lat, out.n_depth), (out.lat_sum, out.depth_sum)
        ):
            hist.counts = bucket_counts.tolist()
            hist.count = n
            hist.sum = total
        if tracer is not None:
            _defer_trace_records(tracer, recs, config.num_banks)
        if tele.metrics is not None:
            _snapshot_metrics(tele.metrics, stats, int(out.seq), tracer, None)
    _hit()
    return stats
