"""Batch simulation kernel: the fast, bit-identical engine path.

This module is the performance half of the engine-flag pair described in
docs/PERFORMANCE.md. :func:`simulate_batch` replays the *same* discrete
event schedule as :class:`repro.memsim.engine.MemorySystemSim` — every
heap push, sequence number, RNG draw, and floating-point accumulation
happens in the identical order — but strips the per-event Python cost
that dominates the scalar engine:

* **Compiled policy kernels.** Each registered scheme family gets a
  closure that inlines its read/write/scrub math (age model, tracker,
  conversion controller, renewal hazard) and returns plain tuples
  instead of frozen dataclass decisions. Policies the kernel compiler
  does not recognize fall back to calling the policy object directly,
  which is always semantically exact.
* **Precomputed drift tables.** Per-cell error probabilities come from
  the shared :class:`repro.core.sampler.SamplerTables` slope arrays; the
  bisect-based linear interpolation reproduces ``np.interp`` on the same
  grid bit-for-bit (property-tested in tests/test_batch_equivalence.py).
* **Batched telemetry.** Per-read histogram/tracer recording becomes a
  ring-buffered tuple append; histogram bucket counts are flushed with
  vectorized ``searchsorted``/``bincount`` at window boundaries and the
  running sums are kept in scalar accumulators so the exported contents
  are identical to the scalar engine's, addition order included.
* **Gathered fault state.** When fault injection is active the per-line
  fault states for the whole trace footprint are derived up front
  (:meth:`repro.faults.injector.FaultInjector.prefetch_lines`) instead
  of lazily inside the hot loop. Derivation is a pure function of
  ``(run_hash, bank, line)`` so the gather cannot change the schedule.

Because the replay is exact, results are *required* to be bit-for-bit
equal to the scalar oracle — including ``sim.events_scheduled`` and the
telemetry exports — and the engine flag that selects between them stays
outside :meth:`SimSpec.content_hash`.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..ecc.regimes import CORRECTABLE_ERRORS, DETECTABLE_ERRORS
from ..faults.injector import FaultInjector
from ..obs import Telemetry
from ..traces.trace import OP_READ, Trace
from .config import DEFAULT_EPOCH_S, DEFAULT_MEMORY_CONFIG, MemoryConfig
from .policy import ReadMode, SchemePolicy
from .stats import RunStats

__all__ = ["simulate_batch", "last_fastpath", "TELEMETRY_FLUSH_WINDOW"]

#: Fastpath outcome of this process's most recent :func:`simulate_batch`
#: call — ``"speculated"`` / ``"fallback"`` / ``"no_native"`` — exposed
#: for run-provenance records (:func:`repro.memsim.engine.last_run_provenance`).
_LAST_FASTPATH: Optional[str] = None


def last_fastpath() -> Optional[str]:
    """Fastpath outcome of the most recent batch run in this process."""
    return _LAST_FASTPATH

# Event kinds — identical to the scalar engine so the heap entries (and
# therefore pop order on time ties, via the shared seq counter) match.
_EV_CORE = 0
_EV_BANK_DONE = 1
_EV_SCRUB = 2
_EV_CHANNEL_DONE = 3

_JOB_READ = 0
_JOB_WRITE = 1

# Read modes as small ints inside the kernel; the boundary back to
# strings/enums happens only in accounting.
_MODE_R = 0
_MODE_M = 1
_MODE_RM = 2
_MODE_STR = ("R", "M", "RM")
_MODE_FROM_ENUM = {ReadMode.R: _MODE_R, ReadMode.M: _MODE_M, ReadMode.RM: _MODE_RM}

#: Telemetry ring-buffer flush window (histogram bucket counts are
#: integers, so chunked flushing is exact; the float ``sum`` field is
#: accumulated per-append to preserve the scalar addition order).
TELEMETRY_FLUSH_WINDOW = 65536

# Read-decision tuples: (mode, errors, convert, silent, uncorrectable, flag).
_READ_R_CLEAN = (_MODE_R, 0, False, False, False, False)

_CORR = CORRECTABLE_ERRORS
_DET = DETECTABLE_ERRORS


class _Bank:
    __slots__ = (
        "read_q",
        "write_q",
        "busy_until",
        "job_kind",
        "job_start",
        "job_payload",
        "token",
        "waiters",
    )

    def __init__(self) -> None:
        self.read_q: deque = deque()
        self.write_q: deque = deque()
        self.busy_until = 0.0
        self.job_kind: Optional[int] = None
        self.job_start = 0.0
        self.job_payload = None
        self.token = 0
        self.waiters: deque = deque()


class _Core:
    __slots__ = ("ops", "lines", "gaps_ns", "pos", "finish_ns", "done")

    def __init__(self, ops, lines, gaps_ns) -> None:
        self.ops = ops
        self.lines = lines
        self.gaps_ns = gaps_ns
        self.pos = 0
        self.finish_ns = 0.0
        self.done = len(ops) == 0


# --------------------------------------------------------------------------
# Policy kernels
#
# A kernel bundle is (on_read, on_write, on_conversion_write, on_scrub):
#   on_read(line, now_s)  -> (mode, errors, convert, silent, uncorr, flag)
#   on_write(line, now_s) -> (cells_written, flag_update, latency_scale)
#   on_scrub(line, now_s) -> (metric, rewrite, cells_written, errors_seen)
# Kernels mutate the *policy object's own* state dicts, so a policy that
# ran under the batch engine is indistinguishable from one that ran under
# the oracle.
# --------------------------------------------------------------------------


def _last_write_fn(policy) -> Callable[[int], float]:
    """Inlined ``BaseDriftPolicy.last_write_of`` with a birth-time memo.

    ``epoch_s - ages.age_of(line)`` is a pure function of the line, so
    memoizing it is unobservable; it removes the splitmix hash + log from
    repeat reads of unwritten lines.
    """
    lw = policy.last_write_s
    lw_get = lw.get
    ages_age_of = policy.ages.age_of
    epoch = policy.ctx.epoch_s
    birth: Dict[int, float] = {}
    birth_get = birth.get

    def last_write_of(line: int) -> float:
        cached = lw_get(line)
        if cached is not None:
            return cached
        born = birth_get(line)
        if born is None:
            born = birth[line] = epoch - ages_age_of(line)
        return born

    return last_write_of


def _scrub_pass_age_fn(policy) -> Callable[[int, float], float]:
    """Inlined ``BaseDriftPolicy.scrub_pass_age`` (same float ops)."""
    interval = policy.scrub_interval_s
    total = policy.ctx.config.total_lines
    half = total // 2
    epoch = policy.ctx.epoch_s
    floor = math.floor

    def scrub_pass_age(line: int, now_s: float) -> float:
        frac = ((line - half) % total) / total
        cycles = floor((now_s - epoch) / interval - frac)
        last_pass = epoch + (cycles + frac) * interval
        if last_pass > now_s:
            last_pass -= interval
        return now_s - last_pass

    return scrub_pass_age


def _sampler_fns(sampler):
    """Fast ``sample_errors(age, metric)`` closures for one sampler.

    The probability lookup replaces ``np.interp`` with a bisect into the
    shared grid plus a precomputed per-segment slope — the arithmetic
    produces the identical double (see SamplerTables) — and the binomial
    draw calls the policy's own Generator exactly as the sampler does.
    """
    tables = sampler.tables
    xs = tables.log_grid_list
    lo_age = float(tables.grid[0])
    hi_age = float(tables.grid[-1])
    p_r = tables.p_r_list
    p_m = tables.p_m_list
    slope_r = tables.slope_r
    slope_m = tables.slope_m
    p_r_lo = p_r[0]
    p_r_hi = p_r[-1]
    p_m_lo = p_m[0]
    p_m_hi = p_m[-1]
    neg_p = sampler._negligible_p
    cells = sampler.cells
    binomial = sampler.rng.binomial
    log10 = np.log10
    br = bisect_right
    # log10 can land exactly on xs[-1] for an age still below hi_age
    # (adjacent doubles collapse in log space near the grid top);
    # np.interp returns the top table value there.
    last = len(xs) - 1

    def sample_r(age: float) -> int:
        if age <= lo_age:
            p = p_r_lo
        elif age >= hi_age:
            p = p_r_hi
        else:
            x = log10(age)
            j = br(xs, x) - 1
            p = p_r_hi if j >= last else slope_r[j] * (x - xs[j]) + p_r[j]
        if p <= neg_p:
            return 0
        return int(binomial(cells, p))

    def sample_m(age: float) -> int:
        if age <= lo_age:
            p = p_m_lo
        elif age >= hi_age:
            p = p_m_hi
        else:
            x = log10(age)
            j = br(xs, x) - 1
            p = p_m_hi if j >= last else slope_m[j] * (x - xs[j]) + p_m[j]
        if p <= neg_p:
            return 0
        return int(binomial(cells, p))

    return sample_r, sample_m


def _classify_r(errors: int, flag: bool):
    """``BaseDriftPolicy._classify_r_read`` with convert=False, as a tuple."""
    if errors <= _CORR:
        return (_MODE_R, errors, False, False, False, flag)
    if errors <= _DET:
        return (_MODE_RM, errors, False, False, False, flag)
    return (_MODE_R, errors, False, True, False, flag)


def _generic_kernels(policy):
    """Fallback: drive the policy object directly (always exact)."""
    mode_of = _MODE_FROM_ENUM

    def on_read(line: int, now_s: float):
        d = policy.on_read(line, now_s)
        return (
            mode_of[d.mode],
            d.errors_seen,
            d.convert_to_write,
            d.silent_corruption,
            d.uncorrectable,
            d.flag_access,
        )

    def on_write(line: int, now_s: float):
        d = policy.on_write(line, now_s)
        return (d.cells_written, d.flag_update, d.latency_scale)

    def on_conversion_write(line: int, now_s: float):
        d = policy.on_conversion_write(line, now_s)
        return (d.cells_written, d.flag_update, d.latency_scale)

    def on_scrub(line: int, now_s: float):
        d = policy.on_scrub(line, now_s)
        return (d.metric, d.rewrite, d.cells_written, d.errors_seen)

    return on_read, on_write, on_conversion_write, on_scrub


def _base_write_kernel(policy):
    lw = policy.last_write_s
    result = (policy.full_cells, False, 1.0)

    def on_write(line: int, now_s: float):
        lw[line] = now_s
        return result

    return on_write


def _build_kernels(policy):
    """Compile the policy into kernel closures, or fall back to generic.

    Dispatch is on the *exact* type: subclasses (e.g. plugin schemes, the
    precise-write baseline) may override any hook, so they take the
    generic path, which is exact by construction.
    """
    # Imported lazily to keep repro.memsim importable without dragging the
    # policy layer in at module-import time (and to avoid an import cycle:
    # the policy layer imports memsim.config/policy).
    from ..baselines.tlc import TlcPolicy
    from ..core.policies.base import DATA_CELLS, IdealPolicy
    from ..core.policies.hybrid import HybridPolicy
    from ..core.policies.lwt import LwtPolicy
    from ..core.policies.mmetric import MMetricPolicy
    from ..core.policies.scrubbing import ScrubbingPolicy
    from ..core.policies.select import SelectPolicy

    kind = type(policy)

    if kind is IdealPolicy or kind is TlcPolicy:

        def on_read_const(line: int, now_s: float):
            return _READ_R_CLEAN

        if kind is TlcPolicy:
            lw = policy.last_write_s
            result = (policy._write_cells, False, 1.0)

            def on_write_tlc(line: int, now_s: float):
                lw[line] = now_s
                return result

            return on_read_const, on_write_tlc, _base_write_kernel(policy), None
        base_write = _base_write_kernel(policy)
        return on_read_const, base_write, base_write, None

    if kind is HybridPolicy:
        last_write_of = _last_write_fn(policy)
        scrub_pass_age = _scrub_pass_age_fn(policy)
        sample_r, _ = _sampler_fns(policy.sampler)
        lw = policy.last_write_s
        scrub_result = ("M", True, policy.full_cells, 0)

        def on_read(line: int, now_s: float):
            age = now_s - last_write_of(line)
            if age < 0.0:
                age = 0.0
            spa = scrub_pass_age(line, now_s)
            if spa < age:
                age = spa
            return _classify_r(sample_r(age), False)

        def on_scrub(line: int, now_s: float):
            lw[line] = now_s
            return scrub_result

        base_write = _base_write_kernel(policy)
        return on_read, base_write, base_write, on_scrub

    if kind is MMetricPolicy:
        last_write_of = _last_write_fn(policy)
        _, sample_m = _sampler_fns(policy.sampler)
        lw = policy.last_write_s
        full_cells = policy.full_cells
        w_floor = max(policy.w, 1)

        def on_read(line: int, now_s: float):
            age = now_s - last_write_of(line)
            if age < 0.0:
                age = 0.0
            errors = sample_m(age)
            return (_MODE_M, errors, False, False, errors > _CORR, False)

        def on_scrub(line: int, now_s: float):
            age = now_s - last_write_of(line)
            if age < 0.0:
                age = 0.0
            errors = sample_m(age)
            rewrite = errors >= w_floor
            if rewrite:
                lw[line] = now_s
                return ("M", True, full_cells, errors)
            return ("M", False, 0, errors)

        base_write = _base_write_kernel(policy)
        return on_read, base_write, base_write, on_scrub

    if kind is ScrubbingPolicy:
        last_write_of = _last_write_fn(policy)
        sample_r, _ = _sampler_fns(policy.sampler)
        lw = policy.last_write_s
        full_cells = policy.full_cells
        surv = policy._survived
        surv_get = surv.get
        cdf = policy._stationary_cdf
        seed = policy.ctx.seed
        searchsorted = np.searchsorted
        from ..core.agemodel import _splitmix64

        def survived_of(line: int) -> int:
            cached = surv_get(line)
            if cached is None:
                u = (_splitmix64((line << 2) ^ seed ^ 0xA5A5) >> 11) / float(1 << 53)
                cached = int(searchsorted(cdf, u))
                surv[line] = cached
            return cached

        def on_write(line: int, now_s: float):
            surv[line] = 0
            lw[line] = now_s
            return (full_cells, False, 1.0)

        if policy.w == 0:
            scrub_pass_age = _scrub_pass_age_fn(policy)

            def on_read_w0(line: int, now_s: float):
                age = now_s - last_write_of(line)
                if age < 0.0:
                    age = 0.0
                spa = scrub_pass_age(line, now_s)
                if spa < age:
                    age = spa
                errors = sample_r(age)
                if errors <= _CORR:
                    return (_MODE_R, errors, False, False, False, False)
                if errors <= _DET:
                    return (_MODE_R, errors, False, False, True, False)
                return (_MODE_R, errors, False, True, False, False)

            scrub_result = ("R", True, full_cells, 0)

            def on_scrub_w0(line: int, now_s: float):
                lw[line] = now_s
                return scrub_result

            return on_read_w0, on_write, on_write, on_scrub_w0

        interval = policy.scrub_interval_s
        hazards = policy._hazard.tolist()
        max_m = policy._MAX_INTERVALS - 1
        rng_random = policy.rng.random

        def on_read_w1(line: int, now_s: float):
            age = now_s - last_write_of(line)
            if age < 0.0:
                age = 0.0
            renewal_age = (survived_of(line) + 0.5) * interval
            if renewal_age < age:
                age = renewal_age
            errors = sample_r(age)
            if errors <= _CORR:
                return (_MODE_R, errors, False, False, False, False)
            if errors <= _DET:
                return (_MODE_R, errors, False, False, True, False)
            return (_MODE_R, errors, False, True, False, False)

        def on_scrub_w1(line: int, now_s: float):
            m = survived_of(line)
            hazard = hazards[m if m < max_m else max_m]
            if rng_random() < hazard:
                surv[line] = 0
                lw[line] = now_s
                return ("R", True, full_cells, 1)
            surv[line] = m + 1
            return ("R", False, 0, 0)

        return on_read_w1, on_write, on_write, on_scrub_w1

    if kind is LwtPolicy or kind is SelectPolicy:
        last_write_of = _last_write_fn(policy)
        sample_r, sample_m = _sampler_fns(policy.sampler)
        lw = policy.last_write_s
        full_cells = policy.full_cells
        tracker = policy.tracker
        tr = tracker._last_event_s
        tr_get = tr.get
        sub_len = tracker.sub_len_s
        k = policy.k
        conv = policy.conversion
        conv_enabled = conv.enabled
        rng_random = conv.rng.random
        lwt_write = (full_cells, True, 1.0)

        def on_read(line: int, now_s: float):
            last = tr_get(line)
            if last is None:
                last = last_write_of(line)
            tracked = int(now_s // sub_len) - int(last // sub_len) < k
            # conversion.record_read(untracked=not tracked), inlined.
            conv._window_total += 1
            if not tracked:
                conv._window_untracked += 1
            if conv._window_total >= conv.window_reads:
                conv._end_window()
            age = now_s - last
            if age < 0.0:
                age = 0.0
            if tracked:
                return _classify_r(sample_r(age), True)
            errors = sample_m(age)
            # conversion.should_convert(), inlined (draw order matches:
            # the sample above precedes the coin, as in LwtPolicy.on_read).
            t = conv.t
            if not conv_enabled or t <= 0:
                convert = False
            elif t >= 100:
                convert = True
            else:
                convert = rng_random() * 100.0 < t
            return (_MODE_RM, errors, convert, False, errors > _CORR, True)

        def on_tracked_write(line: int, now_s: float):
            lw[line] = now_s
            tr[line] = now_s
            return lwt_write

        def on_scrub(line: int, now_s: float):
            age = now_s - last_write_of(line)
            if age < 0.0:
                age = 0.0
            errors = sample_m(age)
            if errors >= 1:
                lw[line] = now_s
                tr[line] = now_s
                return ("M", True, full_cells, errors)
            return ("M", False, 0, errors)

        if kind is SelectPolicy:
            s = policy.s
            check_cells = policy._check_cells
            change_fraction = policy.ctx.profile.write_change_fraction
            binomial = policy.rng.binomial

            def on_write_select(line: int, now_s: float):
                last = tr_get(line)
                if last is None:
                    last = last_write_of(line)
                if int(now_s // sub_len) - int(last // sub_len) < s:
                    changed = int(binomial(DATA_CELLS, change_fraction))
                    return (changed + check_cells, False, 1.0)
                lw[line] = now_s
                tr[line] = now_s
                return lwt_write

            return on_read, on_write_select, on_tracked_write, on_scrub

        return on_read, on_tracked_write, on_tracked_write, on_scrub

    return _generic_kernels(policy)


# --------------------------------------------------------------------------
# Fault folding on decision tuples (transcribed from MemorySystemSim).
# --------------------------------------------------------------------------


def _fault_read_tuple(faults, fc, line, rt):
    hard, soft = faults.read_errors(line)
    extra = hard + soft
    if extra == 0:
        return rt
    fc.injected += extra
    mode, errors, convert, silent, uncorr, flag = rt
    if silent:
        fc.silent += 1
        return rt
    if uncorr:
        fc.detected_uncorrectable += 1
        return rt
    total = errors + extra
    if mode == _MODE_RM:
        count = hard
    elif mode == _MODE_M:
        count = total
    else:
        count = total
        if _CORR < count <= _DET:
            # R read reports uncorrectable; the M retry clears drift and
            # soft noise, hard errors remain.
            if hard <= _CORR:
                fc.corrected += 1
                return (_MODE_RM, total, convert, False, False, flag)
            if hard <= _DET:
                fc.detected_uncorrectable += 1
                return (_MODE_RM, total, convert, False, True, flag)
            fc.silent += 1
            return (_MODE_RM, total, convert, True, False, flag)
    if count <= _CORR:
        fc.corrected += 1
        return (mode, total, convert, silent, uncorr, flag)
    if count <= _DET:
        fc.detected_uncorrectable += 1
        return (mode, total, convert, silent, True, flag)
    fc.silent += 1
    return (mode, total, convert, True, uncorr, flag)


def _fault_scrub_tuple(faults, fc, line, st, full_cells):
    hard, soft = faults.read_errors(line)
    extra = hard + soft
    if extra == 0:
        return st
    fc.injected += extra
    metric, rewrite, cells, errors = st
    total = errors + extra
    if not rewrite and total <= _DET:
        return (metric, True, full_cells, total)
    return (metric, rewrite, cells, total)


# --------------------------------------------------------------------------
# The batch run
# --------------------------------------------------------------------------


def simulate_batch(
    trace: Trace,
    policy: SchemePolicy,
    config: MemoryConfig = DEFAULT_MEMORY_CONFIG,
    epoch_s: float = DEFAULT_EPOCH_S,
    telemetry: Optional[Telemetry] = None,
    faults: Optional[FaultInjector] = None,
) -> RunStats:
    """Run one simulation on the batch kernel; bit-identical to the oracle."""
    global _LAST_FASTPATH
    faults = faults if (faults is not None and faults.spec.enabled) else None
    if faults is None:
        # Compiled exact kernel (timeline + policy decisions in C);
        # returns None when the policy is ineligible or no compiler is
        # available — then the exact-replay loop below produces the
        # identical result, just slower.
        from . import fastpath

        result = fastpath.try_simulate_speculative(
            trace, policy, config, epoch_s, telemetry
        )
        # Provenance only — never a metrics counter here: engine-level
        # telemetry must stay bit-identical to the event oracle's, and
        # the oracle never runs the kernel. The execution layer counts
        # ``fastpath.*`` per simulated run unit from this provenance.
        _LAST_FASTPATH = fastpath.last_attempt()[0]
        if result is not None:
            return result
    else:
        # Fault injection replays every decision exactly; the kernel is
        # never attempted, and the ledger records the reason.
        from . import fastpath

        fastpath._miss("faults")
        _LAST_FASTPATH = "fallback"
    if telemetry is not None and telemetry.enabled:
        tele: Optional[Telemetry] = telemetry
        tracer = telemetry.tracer
        tracer = tracer if (tracer is not None and tracer.enabled) else None
    else:
        tele = None
        tracer = None

    stats = RunStats(scheme=policy.name, workload=trace.name)
    stats.energy.params = config.energy
    stats.wear.cells_per_line = config.cells_per_line_write

    on_read_k, on_write_k, on_conv_k, on_scrub_k = _build_kernels(policy)

    timing = config.timing
    cycle_ns = timing.cycle_ns
    lat_by_mode = (timing.r_read_ns, timing.m_read_ns, timing.rm_read_ns)
    write_ns = timing.write_ns
    bus_ns = timing.bus_ns
    r_read_ns = timing.r_read_ns
    m_read_ns = timing.m_read_ns
    num_banks = config.num_banks
    write_queue_depth = config.write_queue_depth
    cancel_threshold = config.cancel_threshold
    full_cells = config.cells_per_line_write
    lines_per_scrub_op = config.lines_per_scrub_op
    total_lines = config.total_lines
    scrub_blocks_channel = config.scrub_blocks_channel
    scrub_backlog_cap = config.scrub_backlog_cap

    energy = stats.energy
    eparams = config.energy
    data_bits = energy.data_bits
    pj_read_by_mode = (
        eparams.read_energy_pj("R", data_bits),
        eparams.read_energy_pj("M", data_bits),
        eparams.read_energy_pj("RM", data_bits),
    )
    pj_scrub_read = {
        "R": eparams.read_energy_pj("R", data_bits),
        "M": eparams.read_energy_pj("M", data_bits),
    }
    pj_per_cell = eparams.write_pj_per_cell
    pj_flag_read = eparams.flag_read_pj + 0.0
    pj_flag_rw = eparams.flag_read_pj + eparams.flag_write_pj
    by_cat = energy.by_category
    by_cat_get = by_cat.get
    wear_add = stats.wear.add_cells
    fc = stats.fault_counters

    banks = [_Bank() for _ in range(num_banks)]
    heap: List[Tuple[float, int, int, int, int]] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    seq = 0

    cores: List[_Core] = []
    per_core = trace.per_core_indices()
    for c in range(config.num_cores):
        idx = per_core.get(c)
        if idx is None or len(idx) == 0:
            cores.append(_Core([], [], []))
        else:
            gaps_ns = [g * cycle_ns for g in trace.gap[idx].tolist()]
            cores.append(
                _Core(trace.op[idx].tolist(), trace.line[idx].tolist(), gaps_ns)
            )
    active_cores = sum(0 if c.done else 1 for c in cores)

    if faults is not None:
        faults.prefetch_lines(trace.line)
        faults_record_write = faults.record_write

    interval = policy.scrub_interval_s
    if interval is not None and interval > 0:
        ops_per_sweep = total_lines / lines_per_scrub_op
        scrub_tick_ns: Optional[float] = interval * 1e9 / ops_per_sweep
        scrub_pointer = total_lines // 2
    else:
        scrub_tick_ns = None
        scrub_pointer = 0

    # Channel state.
    chan_busy_until = 0.0
    chan_token = 0
    chan_active = False
    chan_demand_q: deque = deque()
    chan_scrub_q: deque = deque()
    chan_last_was_scrub = False

    # Local accumulators mirroring RunStats counters (flushed at the end;
    # addition order per accumulator matches the scalar engine's).
    n_reads = 0
    n_writes = 0
    n_conversions = 0
    n_silent = 0
    n_uncorrectable = 0
    n_scrub_ops = 0
    n_scrub_rewrites = 0
    n_scrubs_skipped = 0
    n_cancelled = 0
    total_read_latency = 0.0
    reads_by_mode = stats.reads_by_mode

    # Telemetry ring buffers.
    tele_on = tele is not None
    lat_hist = stats.read_latency_hist
    depth_hist = stats.queue_depth_hist
    lat_buf: List[float] = []
    depth_buf: List[float] = []
    lat_sum = 0.0
    depth_sum = 0.0
    trc: List[tuple] = []

    def _flush_hist(hist, buf) -> None:
        if not buf:
            return
        edges = np.asarray(hist.boundaries)
        idx = np.searchsorted(edges, np.asarray(buf), side="left")
        for bucket, count in zip(*np.unique(idx, return_counts=True)):
            hist.counts[int(bucket)] += int(count)
        hist.count += len(buf)
        buf.clear()

    epoch = epoch_s

    # ------------------------------------------------------------ helpers

    def push(time_ns: float, kind: int, a: int = 0, b: int = 0) -> None:
        nonlocal seq
        seq += 1
        heappush(heap, (time_ns, seq, kind, a, b))

    def advance_core(core_id: int, now: float) -> None:
        nonlocal active_cores, seq
        core = cores[core_id]
        core.pos += 1
        if core.finish_ns < now:
            core.finish_ns = now
        if core.pos >= len(core.ops):
            if not core.done:
                core.done = True
                active_cores -= 1
            return
        seq += 1
        heappush(heap, (now + core.gaps_ns[core.pos], seq, _EV_CORE, core_id, 0))

    def complete_write(payload) -> None:
        cause, _line, wt = payload
        cat = "conversion" if cause == "conversion" else "write"
        cells = wt[0]
        by_cat[cat] = by_cat_get(cat, 0.0) + pj_per_cell * cells
        wear_add("conversion" if cause == "conversion" else "demand", cells)

    def account_scrub(st) -> None:
        nonlocal n_scrub_ops, n_scrub_rewrites
        metric, rewrite, cells, _errors = st
        by_cat["scrub_read"] = by_cat_get("scrub_read", 0.0) + pj_scrub_read[metric]
        if rewrite:
            by_cat["scrub_write"] = by_cat_get("scrub_write", 0.0) + pj_per_cell * cells
            wear_add("scrub", cells)
            n_scrub_rewrites += 1
        n_scrub_ops += 1

    def issue_write(bank: _Bank, bank_id: int, core_id: int, line: int, now: float):
        nonlocal n_writes
        wt = on_write_k(line, epoch + now * 1e-9)
        if faults is not None:
            faults_record_write(line)
        bank.write_q.append(("demand", line, wt))
        if wt[1]:  # flag_update
            by_cat["flags"] = by_cat_get("flags", 0.0) + pj_flag_rw
        n_writes += 1
        advance_core(core_id, now)
        try_start_bank(bank, bank_id, now)

    def try_start_bank(bank: _Bank, bank_id: int, now: float) -> None:
        nonlocal seq
        if bank.busy_until > now or bank.job_kind is not None:
            return
        if bank.read_q:
            if tele_on:
                core_id, line, enq, depth = bank.read_q.popleft()
                rt = on_read_k(line, epoch + now * 1e-9)
                if faults is not None:
                    rt = _fault_read_tuple(faults, fc, line, rt)
                payload = (core_id, line, enq, rt, now, depth)
            else:
                core_id, line, enq = bank.read_q.popleft()
                rt = on_read_k(line, epoch + now * 1e-9)
                if faults is not None:
                    rt = _fault_read_tuple(faults, fc, line, rt)
                payload = (core_id, line, enq, rt)
            bank.job_kind = _JOB_READ
            bank.job_start = now
            bank.job_payload = payload
            bank.busy_until = now + lat_by_mode[rt[0]]
            bank.token += 1
            seq += 1
            heappush(
                heap, (bank.busy_until, seq, _EV_BANK_DONE, bank_id, bank.token)
            )
            return
        if bank.write_q:
            payload = bank.write_q.popleft()
            # Release one waiter now that a write-queue slot freed.
            if bank.waiters and len(bank.write_q) < write_queue_depth:
                waiter = bank.waiters.popleft()
                wcore = cores[waiter]
                issue_write(bank, bank_id, waiter, wcore.lines[wcore.pos], now)
            latency = write_ns * payload[2][2]
            bank.job_kind = _JOB_WRITE
            bank.job_start = now
            bank.job_payload = payload
            bank.busy_until = now + latency
            bank.token += 1
            seq += 1
            heappush(
                heap, (bank.busy_until, seq, _EV_BANK_DONE, bank_id, bank.token)
            )

    def try_start_channel(now: float) -> None:
        nonlocal chan_active, chan_token, chan_busy_until, chan_last_was_scrub, seq
        if chan_active or chan_busy_until > now:
            return
        demand = bool(chan_demand_q)
        scrub = bool(chan_scrub_q)
        if not demand and not scrub:
            return
        take_scrub = scrub and (not demand or not chan_last_was_scrub)
        chan_last_was_scrub = take_scrub
        chan_active = True
        chan_token += 1
        if take_scrub:
            duration, _ = chan_scrub_q[0]
            chan_busy_until = now + duration
        else:
            chan_busy_until = now + bus_ns
        seq += 1
        heappush(heap, (chan_busy_until, seq, _EV_CHANNEL_DONE, chan_token, 0))

    # ---------------------------------------------------------- event loop

    for c, core in enumerate(cores):
        if not core.done:
            push(core.gaps_ns[0], _EV_CORE, c)
    if scrub_tick_ns is not None:
        push(scrub_tick_ns, _EV_SCRUB)

    while heap and active_cores > 0:
        now, _, kind, a, b = heappop(heap)
        if kind == _EV_CORE:
            core = cores[a]
            pos = core.pos
            line = core.lines[pos]
            bank_id = line % num_banks
            bank = banks[bank_id]
            if core.ops[pos] == OP_READ:
                # -------- enqueue_read (write cancellation + queue entry)
                if bank.job_kind == _JOB_WRITE and bank.busy_until > now and write_ns > 0:
                    payload = bank.job_payload
                    write_latency = write_ns * payload[2][2]
                    progress = 1.0 - (bank.busy_until - now) / write_latency
                    if progress < cancel_threshold:
                        bank.write_q.appendleft(payload)
                        bank.token += 1
                        bank.busy_until = now
                        bank.job_kind = None
                        bank.job_payload = None
                        n_cancelled += 1
                        wasted = payload[2][0] * max(progress, 0.0)
                        by_cat["write"] = by_cat_get("write", 0.0) + pj_per_cell * int(
                            wasted
                        )
                        if tracer is not None:
                            trc.append(
                                (2, bank_id, payload[1], max(progress, 0.0), now)
                            )
                if tele_on:
                    depth = len(bank.read_q)
                    depth_buf.append(depth)
                    depth_sum += depth
                    if len(depth_buf) >= TELEMETRY_FLUSH_WINDOW:
                        _flush_hist(depth_hist, depth_buf)
                    bank.read_q.append((a, line, now, depth))
                else:
                    bank.read_q.append((a, line, now))
                try_start_bank(bank, bank_id, now)
            else:
                if len(bank.write_q) >= write_queue_depth:
                    bank.waiters.append(a)
                else:
                    issue_write(bank, bank_id, a, line, now)
        elif kind == _EV_BANK_DONE:
            bank = banks[a]
            if b != bank.token or bank.job_kind is None:
                continue
            jkind, payload = bank.job_kind, bank.job_payload
            bank.job_kind = None
            bank.job_payload = None
            if jkind == _JOB_READ:
                chan_demand_q.append(payload)
                try_start_channel(now)
            else:
                complete_write(payload)
                if tracer is not None:
                    trc.append((1, payload[0], a, payload[1], bank.job_start, now))
            try_start_bank(bank, a, now)
        elif kind == _EV_CHANNEL_DONE:
            if a != chan_token or not chan_active:
                continue
            chan_active = False
            if chan_last_was_scrub:
                _, decisions = chan_scrub_q.popleft()
                for st in decisions:
                    account_scrub(st)
            else:
                payload = chan_demand_q.popleft()
                # ---------------------------------------- complete_read
                if tele_on:
                    core_id, line, enq, rt, start_ns, depth = payload
                else:
                    core_id, line, enq, rt = payload
                mode, errors, convert, silent, uncorr, flag = rt
                n_reads += 1
                mode_str = _MODE_STR[mode]
                reads_by_mode[mode_str] = reads_by_mode.get(mode_str, 0) + 1
                latency = now - enq
                total_read_latency += latency
                by_cat["read"] = by_cat_get("read", 0.0) + pj_read_by_mode[mode]
                if tele_on:
                    lat_buf.append(latency)
                    lat_sum += latency
                    if len(lat_buf) >= TELEMETRY_FLUSH_WINDOW:
                        _flush_hist(lat_hist, lat_buf)
                    if tracer is not None:
                        trc.append(
                            (0, core_id, line, mode_str, depth, enq, start_ns, now)
                        )
                if flag:
                    by_cat["flags"] = by_cat_get("flags", 0.0) + pj_flag_read
                if silent:
                    n_silent += 1
                if uncorr:
                    n_uncorrectable += 1
                if convert:
                    wt = on_conv_k(line, epoch + now * 1e-9)
                    if faults is not None:
                        faults_record_write(line)
                    bank_id = line % num_banks
                    bank = banks[bank_id]
                    bank.write_q.append(("conversion", line, wt))
                    n_conversions += 1
                    try_start_bank(bank, bank_id, now)
                advance_core(core_id, now)
            try_start_channel(now)
        else:  # _EV_SCRUB
            now_s = epoch + now * 1e-9
            decisions = []
            duration = 0.0
            sense_metric = None
            for _i in range(lines_per_scrub_op):
                line = scrub_pointer
                scrub_pointer = (scrub_pointer + 1) % total_lines
                st = on_scrub_k(line, now_s)
                if faults is not None:
                    st = _fault_scrub_tuple(faults, fc, line, st, full_cells)
                    if st[1]:
                        faults_record_write(line)
                decisions.append(st)
                if st[1]:
                    duration += write_ns
                sense_metric = st[0]
            duration += r_read_ns if sense_metric == "R" else m_read_ns
            skipped = False
            if scrub_blocks_channel:
                if len(chan_scrub_q) >= scrub_backlog_cap:
                    n_scrubs_skipped += len(decisions)
                    skipped = True
                else:
                    chan_scrub_q.append((duration, decisions))
                    try_start_channel(now)
            else:
                for st in decisions:
                    account_scrub(st)
            if tracer is not None:
                trc.append(
                    (
                        3,
                        now,
                        len(decisions),
                        sum(1 for st in decisions if st[1]),
                        duration,
                        skipped,
                    )
                )
            push(now + scrub_tick_ns, _EV_SCRUB)

    # ------------------------------------------------------------- finish

    for bank in banks:
        if bank.job_kind == _JOB_WRITE and bank.job_payload is not None:
            complete_write(bank.job_payload)
            bank.job_kind = None
        for payload in bank.write_q:
            complete_write(payload)
        bank.write_q.clear()

    stats.reads = n_reads
    stats.writes = n_writes
    stats.conversions = n_conversions
    stats.silent_corruptions = n_silent
    stats.uncorrectable_reads = n_uncorrectable
    stats.scrub_ops = n_scrub_ops
    stats.scrub_rewrites = n_scrub_rewrites
    stats.scrubs_skipped = n_scrubs_skipped
    stats.cancelled_writes = n_cancelled
    stats.total_read_latency_ns = total_read_latency
    stats.execution_time_ns = max((c.finish_ns for c in cores), default=0.0)
    stats.instructions = int(trace.gap.sum()) + len(trace)

    if tele_on:
        _flush_hist(lat_hist, lat_buf)
        _flush_hist(depth_hist, depth_buf)
        lat_hist.sum += lat_sum
        depth_hist.sum += depth_sum
        if tracer is not None:
            _materialize_trace(tracer, trc, num_banks)
        if tele.metrics is not None:
            _snapshot_metrics(
                tele.metrics, stats, seq, tracer, faults
            )
    return stats


def _materialize_trace(tracer, trc: List[tuple], num_banks: int) -> None:
    """Expand the compact event tuples into the tracer's dict records.

    Honors the tracer's ``max_events`` cap exactly as per-event ``emit``
    calls would (records beyond the cap are counted as dropped).
    """
    records = tracer.records
    max_events = tracer.max_events
    for t in trc:
        if len(records) >= max_events:
            tracer.dropped += 1
            continue
        kind = t[0]
        if kind == 0:
            records.append({
                "kind": "read",
                "core": t[1],
                "bank": t[2] % num_banks,
                "line": t[2],
                "mode": t[3],
                "queue_depth": t[4],
                "issue_ns": t[5],
                "start_ns": t[6],
                "complete_ns": t[7],
            })
        elif kind == 1:
            records.append({
                "kind": "write",
                "cause": t[1],
                "bank": t[2],
                "line": t[3],
                "start_ns": t[4],
                "complete_ns": t[5],
            })
        elif kind == 2:
            records.append({
                "kind": "write_cancel",
                "bank": t[1],
                "line": t[2],
                "progress": t[3],
                "time_ns": t[4],
            })
        else:
            records.append({
                "kind": "scrub",
                "time_ns": t[1],
                "lines": t[2],
                "rewrites": t[3],
                "duration_ns": t[4],
                "skipped": t[5],
            })


def _snapshot_metrics(registry, stats: RunStats, seq: int, tracer, faults) -> None:
    """Publish run totals into the registry (mirrors the scalar engine)."""
    for name, value in (
        ("sim.reads", stats.reads),
        ("sim.writes", stats.writes),
        ("sim.conversions", stats.conversions),
        ("sim.cancelled_writes", stats.cancelled_writes),
        ("sim.silent_corruptions", stats.silent_corruptions),
        ("sim.uncorrectable_reads", stats.uncorrectable_reads),
        ("sim.scrub.ops", stats.scrub_ops),
        ("sim.scrub.rewrites", stats.scrub_rewrites),
        ("sim.scrub.skipped", stats.scrubs_skipped),
    ):
        registry.counter(name).inc(value)
    for mode, count in sorted(stats.reads_by_mode.items()):
        registry.counter(f"sim.reads.mode.{mode}").inc(count)
    registry.gauge("sim.execution_time_ns").set(stats.execution_time_ns)
    registry.gauge("sim.events_scheduled").set(seq)
    if tracer is not None:
        # len(tracer) counts deferred fast-path batches without
        # materializing their dict records.
        registry.counter("trace.records").inc(len(tracer))
        registry.counter("trace.dropped").inc(tracer.dropped)
    registry.adopt_histogram("sim.read_latency_ns", stats.read_latency_hist)
    registry.adopt_histogram("sim.queue_depth", stats.queue_depth_hist)
    if faults is not None:
        fc = stats.fault_counters
        for name, value in (
            ("sim.faults.injected", fc.injected),
            ("sim.faults.corrected", fc.corrected),
            ("sim.faults.detected_uncorrectable", fc.detected_uncorrectable),
            ("sim.faults.silent", fc.silent),
        ):
            registry.counter(name).inc(value)
        registry.gauge("sim.faults.lines_touched").set(faults.lines_touched)
