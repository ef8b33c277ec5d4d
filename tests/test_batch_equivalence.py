"""Batch kernel == event-level oracle, bit for bit.

The batch engine (``engine="batch"``, the default) runs the compiled
kernel and falls back to the event-stepped oracle (``engine="event"``)
for runs the kernel cannot take (fault injection, patched or unknown
policies, no compiler). It must be indistinguishable from the oracle in
every observable: statistics dicts, telemetry records and metrics,
granular cache entry bytes, and sweep grids at any worker count — and
the recorded fall-back reason must say which path ran. That identity is
what lets the engine flag stay out of :meth:`SimSpec.content_hash` (see
docs/PERFORMANCE.md).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.registry import make_policy, scheme_names
from repro.core.policies import PolicyContext
from repro.memsim.config import MemoryConfig
from repro.memsim.engine import ENGINES, simulate
from repro.traces.generator import generate_trace
from repro.traces.spec import instructions_for_requests, workload

REQUESTS = 1_500
WORKLOAD = "mcf"
SEED = 42


def _trace(name, requests, config):
    profile = workload(name)
    instructions = instructions_for_requests(profile, requests, config.num_cores)
    trace = generate_trace(
        profile,
        instructions_per_core=instructions,
        num_cores=config.num_cores,
        seed=SEED,
    )
    return trace, profile


@pytest.fixture(scope="module")
def trace_and_config():
    config = MemoryConfig()
    trace, profile = _trace(WORKLOAD, REQUESTS, config)
    return trace, config, profile


def _fresh_policy(scheme, profile, config):
    return make_policy(
        scheme, PolicyContext(profile=profile, config=config, seed=SEED)
    )


# --------------------------------------------------------- scheme sweep


@pytest.mark.parametrize("scheme", scheme_names())
def test_batch_equals_event_per_scheme(scheme, trace_and_config):
    """Every registered scheme family: identical stats dicts."""
    trace, config, profile = trace_and_config
    batch = simulate(
        trace, _fresh_policy(scheme, profile, config), config, engine="batch"
    )
    event = simulate(
        trace, _fresh_policy(scheme, profile, config), config, engine="event"
    )
    assert batch.to_dict() == event.to_dict()
    assert batch == event


@pytest.mark.parametrize("scheme", ["Hybrid", "Scrubbing", "M-metric", "Ideal"])
def test_batch_equals_event_with_faults(scheme, trace_and_config):
    """Nonzero fault density: the batch engine hands the run to the event
    engine, and says so."""
    from repro.experiments.spec import SimSpec
    from repro.memsim import fastpath

    trace, config, profile = trace_and_config
    spec = SimSpec(
        schemes=(scheme,),
        workloads=(WORKLOAD,),
        target_requests=REQUESTS,
        seed=SEED,
        faults={
            "stuck_line_rate": 0.01,
            "read_noise_rate": 0.002,
            "write_fail_rate": 0.01,
        },
    )
    results = {}
    for engine in ENGINES:
        # A fresh injector per run: injectors carry per-run draw state.
        faults = spec.fault_injector(WORKLOAD, scheme)
        assert faults is not None
        results[engine] = simulate(
            trace,
            _fresh_policy(scheme, profile, config),
            config,
            faults=faults,
            engine=engine,
        )
        if engine == "batch":
            assert fastpath.last_attempt() == ("fallback", "faults")
    assert results["batch"].to_dict() == results["event"].to_dict()


def test_batch_equals_event_telemetry(trace_and_config):
    """Tracer records, drop counts, and metric dumps match exactly."""
    from repro.obs import MetricsRegistry, Telemetry, Tracer

    trace, config, profile = trace_and_config
    captures = {}
    for engine in ENGINES:
        tele = Telemetry(tracer=Tracer(), metrics=MetricsRegistry())
        stats = simulate(
            trace,
            _fresh_policy("Hybrid", profile, config),
            config,
            telemetry=tele,
            engine=engine,
        )
        captures[engine] = (stats, tele.tracer.records, tele.tracer.dropped,
                            tele.metrics.to_dict())
    batch, event = captures["batch"], captures["event"]
    assert batch[0].to_dict() == event[0].to_dict()
    assert batch[1] == event[1]
    assert batch[2] == event[2]
    assert batch[3] == event[3]


def test_batch_equals_event_telemetry_beyond_one_record_per_request(trace_and_config):
    """Scrubbing-W0 traces one record per 8 s sweep tick, far more than the
    one per request the kernel first sizes its record buffer for: the
    records past that size still match the event engine's, in order."""
    from repro.obs import Telemetry, Tracer

    trace, config, profile = trace_and_config
    records = {}
    for engine in ENGINES:
        tele = Telemetry(tracer=Tracer(max_events=10**6))
        simulate(trace, _fresh_policy("Scrubbing-W0", profile, config), config,
                 telemetry=tele, engine=engine)
        records[engine] = tele.tracer.records
    assert len(records["event"]) > len(trace) + 1024
    assert records["batch"] == records["event"]


@pytest.mark.parametrize("scheme", scheme_names())
def test_batch_equals_fallback_without_native(scheme, trace_and_config, monkeypatch):
    """With no compiled kernel the batch engine falls back to the event
    engine: identical results, and the reason is recorded."""
    from repro.memsim import fastpath, native

    trace, config, profile = trace_and_config
    monkeypatch.setattr(native, "_lib", None)
    assert native.load_timeline() is None
    batch = simulate(
        trace, _fresh_policy(scheme, profile, config), config, engine="batch"
    )
    assert fastpath.last_attempt() == ("no_native", "no_native")
    event = simulate(
        trace, _fresh_policy(scheme, profile, config), config, engine="event"
    )
    assert batch.to_dict() == event.to_dict()


@pytest.fixture(scope="module")
def sphinx3_trace():
    config = MemoryConfig()
    trace, profile = _trace("sphinx3", 4_000, config)
    return trace, config, profile


@pytest.mark.parametrize("t", [0, 30, 50, 100])
def test_fixed_conversion_ratio_runs_exactly_on_the_kernel(t, sphinx3_trace):
    """``LWT-4@T<t>`` holds T fixed as a declared parameter (``step=0``),
    so the throttle ablation's variants stay on the kernel and equal the
    oracle."""
    from repro.memsim import fastpath
    from repro.memsim.native import native_available

    trace, config, profile = sphinx3_trace
    results = {}
    for engine in ENGINES:
        results[engine] = simulate(
            trace, _fresh_policy(f"LWT-4@T{t}", profile, config), config,
            engine=engine,
        )
        if engine == "batch" and native_available():
            assert fastpath.last_attempt() == ("speculated", "ok")
    assert results["batch"].to_dict() == results["event"].to_dict()


@pytest.mark.parametrize("scheme", ["LWT-4@T100", "LWT-4@S160", "Precise-2"])
def test_declared_variants_run_exactly_on_the_kernel(scheme, trace_and_config):
    """The ablation and extra variants are registry spellings of eligible
    policy types, so they take the kernel and equal the oracle."""
    from repro.memsim import fastpath
    from repro.memsim.native import native_available

    if not native_available():
        pytest.skip("compiled kernel unavailable")
    trace, config, profile = trace_and_config
    batch = simulate(
        trace, _fresh_policy(scheme, profile, config), config, engine="batch"
    )
    assert fastpath.last_attempt() == ("speculated", "ok")
    event = simulate(
        trace, _fresh_policy(scheme, profile, config), config, engine="event"
    )
    assert batch.to_dict() == event.to_dict()
    assert batch.scheme == scheme


def test_fastpath_provenance_is_per_thread(trace_and_config):
    """One thread's kernel run keeps its own outcome while another
    thread's ineligible run falls back (the serve daemon simulates on
    several executor threads at once)."""
    import threading

    from repro.memsim import fastpath

    trace, config, profile = trace_and_config
    a_ran, b_ran = threading.Event(), threading.Event()
    seen = {}

    def thread_a():
        simulate(trace, _fresh_policy("Ideal", profile, config), config)
        a_ran.set()
        b_ran.wait(timeout=60)
        seen["a"] = fastpath.last_attempt()

    def thread_b():
        a_ran.wait(timeout=60)
        simulate(
            trace, _fresh_policy("Select-4:2+trunc", profile, config), config
        )
        seen["b"] = fastpath.last_attempt()
        b_ran.set()

    threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == {
        "a": ("speculated", "ok"),
        "b": ("fallback", "ineligible"),
    }


def test_truncated_scheme_falls_back_as_ineligible(trace_and_config):
    """Write truncation is not in the kernel: ``+trunc`` runs take the
    event engine, say why, and count the writes they shortened."""
    from repro.memsim import fastpath

    trace, config, profile = trace_and_config
    scheme = "Select-4:2+trunc"
    batch = simulate(
        trace, _fresh_policy(scheme, profile, config), config, engine="batch"
    )
    assert fastpath.last_attempt() == ("fallback", "ineligible")
    event = simulate(
        trace, _fresh_policy(scheme, profile, config), config, engine="event"
    )
    assert batch.to_dict() == event.to_dict()
    assert batch.truncated_writes > 0


def test_frozen_zero_throttle_is_noconv(sphinx3_trace):
    """``LWT-4@T0`` resolves to ``LWT-4-noconv``: a throttle frozen at 0
    never converts, so the name builds the same policy and run."""
    from repro.core.registry import canonical_scheme_name

    assert canonical_scheme_name("LWT-4@T0") == "LWT-4-noconv"
    trace, config, profile = sphinx3_trace
    frozen = simulate(trace, _fresh_policy("LWT-4@T0", profile, config), config)
    noconv = simulate(trace, _fresh_policy("LWT-4-noconv", profile, config), config)
    assert frozen.to_dict() == noconv.to_dict()


def test_patched_hook_falls_back_to_the_event_engine(sphinx3_trace):
    """An instance-level override of a hook the kernel transcribes sends
    the run to the event engine, which honours it (the kernel would
    ignore it and convert 689 times instead of 671)."""
    from repro.memsim import fastpath

    trace, config, profile = sphinx3_trace
    results = {}
    for engine in ENGINES:
        policy = _fresh_policy("LWT-4", profile, config)
        policy.conversion.t = 50
        policy.conversion.record_read = lambda untracked: None
        results[engine] = simulate(trace, policy, config, engine=engine)
        if engine == "batch":
            assert fastpath.last_attempt() == ("fallback", "patched_hook")
    assert results["batch"].to_dict() == results["event"].to_dict()
    assert results["event"].conversions == 671


# ------------------------------------------- compiled kernel coverage


@pytest.mark.parametrize("scheme", scheme_names())
def test_every_family_runs_on_the_kernel(scheme, trace_and_config):
    """With no faults on the default config every registered family runs
    on the compiled kernel ("speculated" = ran on the kernel)."""
    from repro.memsim import fastpath
    from repro.memsim.native import native_available

    if not native_available():
        pytest.skip("compiled kernel unavailable")
    trace, config, profile = trace_and_config
    simulate(trace, _fresh_policy(scheme, profile, config), config, engine="batch")
    assert fastpath.last_attempt() == ("speculated", "ok")


def _policy_state(policy):
    """Every piece of policy state a run mutates, in dict insertion order."""
    state = {
        "last_write_s": list(policy.last_write_s.items()),
        "rng": policy.rng.bit_generator.state,
    }
    tracker = getattr(policy, "tracker", None)
    if tracker is not None:
        state["tracker"] = list(tracker._last_event_s.items())
    survived = getattr(policy, "_survived", None)
    if survived is not None:
        state["survived"] = list(survived.items())
    conv = getattr(policy, "conversion", None)
    if conv is not None:
        state["conversion"] = (
            conv.t,
            conv._window_total,
            conv._window_untracked,
            conv._prev_p,
            conv._last_action,
            conv._stagnant_windows,
            conv.adjustments,
        )
    return state


def _count_tracked_rm(policy, hits):
    """Count LWT reads that were tracked yet re-read as R+M (9-17 errors)."""
    from repro.memsim.policy import ReadMode

    on_read = policy.on_read

    def counting(line, now_s):
        tracked = policy.tracker.is_tracked(line, now_s, policy.last_write_of(line))
        decision = on_read(line, now_s)
        if tracked and decision.mode is ReadMode.RM:
            hits["tracked_rm"] += 1
        return decision

    policy.on_read = counting


def _aged(ctx, hot_age_scale_s):
    """``ctx`` with hot lines last written ~``hot_age_scale_s`` ago."""
    from dataclasses import replace

    return replace(ctx, profile=replace(ctx.profile, hot_age_scale_s=hot_age_scale_s))


def _pinned_t(policy, t):
    """Hold the conversion ratio at ``t``: no measurement window ends."""
    policy.conversion.t = t
    policy.conversion.window_reads = 10**9
    return policy


def _unscrubbed(policy):
    policy.scrub_interval_s = None
    return policy


def _branch_policies():
    from repro.core.policies.hybrid import HybridPolicy
    from repro.core.policies.lwt import LwtPolicy
    from repro.core.policies.mmetric import MMetricPolicy
    from repro.core.policies.scrubbing import ScrubbingPolicy
    from repro.core.policies.select import SelectPolicy

    full = MemoryConfig().cells_per_line_write
    return {
        # A long W=0 interval lets lines age into the 9-17 R-error band.
        "hybrid-r-to-rm": (
            lambda ctx: HybridPolicy(ctx, interval_s=1e6),
            lambda st, pol, hits: st.reads_by_mode.get("RM", 0),
        ),
        # Old hot lines inside a long tracking window: tracked R-reads
        # that see 9-17 errors.
        "lwt-tracked-r-to-rm": (
            lambda ctx: LwtPolicy(_aged(ctx, 2e5), k=4, interval_s=1e6),
            lambda st, pol, hits: hits["tracked_rm"],
        ),
        "lwt-window-controller": (
            lambda ctx: LwtPolicy(ctx, k=4),
            lambda st, pol, hits: pol.conversion.adjustments * st.conversions,
        ),
        "conversion-coin": (
            lambda ctx: _pinned_t(LwtPolicy(ctx, k=4), 30),
            lambda st, pol, hits: st.conversions
            * (st.conversions < st.reads_by_mode.get("RM", 0)),
        ),
        "conversion-t0": (
            lambda ctx: _pinned_t(LwtPolicy(ctx, k=4), 0),
            lambda st, pol, hits: st.reads_by_mode.get("RM", 0) * (st.conversions == 0),
        ),
        "conversion-t100": (
            lambda ctx: _pinned_t(LwtPolicy(ctx, k=4), 100),
            lambda st, pol, hits: st.conversions,
        ),
        "select-differential-write": (
            lambda ctx: SelectPolicy(ctx, k=4, s=2),
            lambda st, pol, hits: st.writes * full - st.wear.by_cause.get("demand", 0),
        ),
        "lwt-w1-scrub-rewrite": (
            lambda ctx: LwtPolicy(ctx, k=2),
            lambda st, pol, hits: st.scrub_rewrites,
        ),
        "scrubbing-w1-hazard-rewrite": (
            lambda ctx: ScrubbingPolicy(ctx, w=1),
            lambda st, pol, hits: st.scrub_rewrites,
        ),
        "mmetric-without-scrub": (
            lambda ctx: _unscrubbed(MMetricPolicy(ctx)),
            lambda st, pol, hits: st.reads * (st.scrub_ops == 0),
        ),
        "lwt-without-scrub": (
            lambda ctx: _unscrubbed(LwtPolicy(ctx, k=4)),
            lambda st, pol, hits: st.conversions * (st.scrub_ops == 0),
        ),
    }


@pytest.mark.parametrize("branch", sorted(_branch_policies()))
def test_kernel_post_state_equals_event_on_rare_branches(branch, trace_and_config):
    """Batch engine (the kernel where it is built) and event oracle leave
    identical policy state — last-write times, tracker, conversion
    controller, survived counts, RNG — on a config where each rare branch
    fires (its counter is non-zero, so the equality is not vacuous)."""
    from repro.memsim import fastpath
    from repro.memsim.native import native_available

    trace, config, profile = trace_and_config
    make, fired = _branch_policies()[branch]
    policies, results = {}, {}
    hits = {"tracked_rm": 0}
    for engine in ENGINES:
        policy = make(PolicyContext(profile=profile, config=config, seed=SEED))
        if engine == "event" and branch == "lwt-tracked-r-to-rm":
            _count_tracked_rm(policy, hits)
        results[engine] = simulate(trace, policy, config, engine=engine)
        if engine == "batch" and native_available():
            assert fastpath.last_attempt() == ("speculated", "ok")
        policies[engine] = policy
    assert results["batch"].to_dict() == results["event"].to_dict()
    assert _policy_state(policies["batch"]) == _policy_state(policies["event"])
    assert fired(results["event"], policies["event"], hits) > 0


@pytest.mark.parametrize("scheme", scheme_names())
def test_kernel_post_state_equals_event_per_scheme(scheme, trace_and_config):
    trace, config, profile = trace_and_config
    policies = {}
    for engine in ENGINES:
        policies[engine] = _fresh_policy(scheme, profile, config)
        simulate(trace, policies[engine], config, engine=engine)
    assert _policy_state(policies["batch"]) == _policy_state(policies["event"])


def test_kernel_continues_from_existing_policy_state(trace_and_config):
    """A policy reused for a second run starts from the state the first
    left behind, on the kernel exactly as on the oracle."""
    trace, config, profile = trace_and_config
    for scheme in ("LWT-4", "Scrubbing", "Select-4:2"):
        policies, results = {}, {}
        for engine in ENGINES:
            policy = _fresh_policy(scheme, profile, config)
            simulate(trace, policy, config, engine=engine)
            results[engine] = simulate(trace, policy, config, engine=engine)
            policies[engine] = policy
        assert results["batch"].to_dict() == results["event"].to_dict()
        assert _policy_state(policies["batch"]) == _policy_state(policies["event"])


# ------------------------------------------------ scrub window meets demand

#: Small enough that every scrub pointer wraps within the trace, so the
#: pointer reaches lines that demand and the pre-run state hold.
SMALL_LINES = 64
SMALL_SCHEMES = ("Hybrid", "Scrubbing-W0", "Scrubbing", "M-metric", "LWT-4", "Select-4:2")
#: Lines held back from demand until after both sweep periods' first pass.
LATE_LINES = (33, 34, 35)


def _small_trace(config):
    """~1,400 s of sparse traffic on ``SMALL_LINES`` lines, one request
    stream per core: a burst in the first 0.5 s, then requests every few
    seconds; ``LATE_LINES`` first appear after 700 s. Returns the trace
    and each line's first-touch time in seconds."""
    from repro.traces.trace import Trace

    rng = np.random.default_rng(SEED)
    early = np.setdiff1d(np.arange(SMALL_LINES), LATE_LINES)
    ops, cores, lines, gaps = [], [], [], []
    first_touch = {}
    for core in range(config.num_cores):
        burst = np.sort(rng.uniform(0.0, 0.5, 8))
        sparse = np.sort(rng.uniform(1.0, 1_400.0, 60))
        times = np.concatenate([burst, sparse])
        late = times > 700.0
        picks = np.where(late, rng.integers(0, SMALL_LINES, len(times)),
                         rng.choice(early, len(times)))
        picks[-len(LATE_LINES):] = LATE_LINES
        prev = 0.0
        for t, line in zip(times.tolist(), picks.tolist()):
            ops.append(int(rng.random() < 0.4))
            cores.append(core)
            lines.append(line)
            gaps.append(int((t - prev) * 1e9 / config.timing.cycle_ns))
            first_touch[line] = min(first_touch.get(line, t), t)
            prev = t
    trace = Trace(np.array(ops), np.array(cores), np.array(lines), np.array(gaps), name="mcf")
    return trace, first_touch


def _first_visit_s(line, interval_s, total_lines):
    """When the scrub pointer, starting at ``total_lines // 2``, first
    visits ``line`` (one line per tick)."""
    return ((line - total_lines // 2) % total_lines + 1) * interval_s / total_lines


@pytest.fixture(scope="module")
def small_trace_and_config():
    config = MemoryConfig(total_lines=SMALL_LINES)
    trace, first_touch = _small_trace(config)
    return trace, config, workload(WORKLOAD), first_touch


@pytest.mark.parametrize("scheme", SMALL_SCHEMES)
def test_scrub_window_meets_demand_and_preloaded_lines(scheme, small_trace_and_config):
    """The pointer wraps and reaches lines demand touched before it, lines
    demand touches after it passed, and (on a second run) lines of the
    pre-run state; the kernel equals the oracle on stats and post-state."""
    from repro.memsim import fastpath
    from repro.memsim.native import native_available

    trace, config, profile, first_touch = small_trace_and_config
    policies = {e: _fresh_policy(scheme, profile, config) for e in ENGINES}
    interval = policies["event"].scrub_interval_s
    visits = {line: _first_visit_s(line, interval, SMALL_LINES) for line in first_touch}
    assert any(first_touch[line] < visits[line] for line in first_touch)
    assert any(first_touch[line] > visits[line] for line in first_touch)
    assert max(first_touch.values()) > interval  # the pointer wraps

    for run in ("fresh", "continued"):
        if run == "continued":
            assert _policy_state(policies["event"])["last_write_s"]
        results = {}
        for engine in ENGINES:
            results[engine] = simulate(trace, policies[engine], config, engine=engine)
            if engine == "batch" and native_available():
                assert fastpath.last_attempt() == ("speculated", "ok")
        assert results["event"].scrub_ops > SMALL_LINES
        assert results["batch"].to_dict() == results["event"].to_dict()
        assert _policy_state(policies["batch"]) == _policy_state(policies["event"])


def _trace_of_lines(trace, keep):
    """The requests of ``trace`` whose line is in ``keep``, in order."""
    from repro.traces.trace import Trace

    mask = np.isin(trace.line, list(keep))
    return Trace(trace.op[mask], trace.core[mask], trace.line[mask], trace.gap[mask],
                 name=trace.name)


@pytest.mark.parametrize("scheme", scheme_names())
def test_continuation_with_pre_run_lines_outside_the_trace(scheme, small_trace_and_config):
    """A second run on half the lines starts from a state that holds lines
    its trace never touches (the first run's demand and sweep): those get
    dense slots of their own, the pointer wraps onto the trace's lines, and
    the kernel equals the oracle on stats and post-state, order included."""
    from repro.memsim import fastpath
    from repro.memsim.native import native_available

    trace, config, profile, _ = small_trace_and_config
    second = _trace_of_lines(trace, range(SMALL_LINES // 2))
    policies = {e: _fresh_policy(scheme, profile, config) for e in ENGINES}
    for engine, policy in policies.items():
        simulate(trace, policy, config, engine=engine)
    held = {line for line, _ in _policy_state(policies["event"])["last_write_s"]}
    assert held - set(second.line.tolist())
    results = {}
    for engine, policy in policies.items():
        results[engine] = simulate(second, policy, config, engine=engine)
        if engine == "batch" and native_available():
            assert fastpath.last_attempt() == ("speculated", "ok")
    if policies["event"].scrub_interval_s:
        assert results["event"].scrub_ops > SMALL_LINES
    assert results["batch"].to_dict() == results["event"].to_dict()
    assert _policy_state(policies["batch"]) == _policy_state(policies["event"])


def test_kernel_inputs_are_shared_across_schemes_and_freed_with_the_trace():
    """The flattened per-trace kernel inputs are built once per trace: the
    schemes of one workload run on the very same arrays, and they live
    exactly as long as the trace does."""
    import gc
    import weakref

    from repro.memsim import fastpath
    from repro.memsim.native import native_available

    if not native_available():
        pytest.skip("compiled kernel unavailable")
    config = MemoryConfig()
    trace, profile = _trace(WORKLOAD, 600, config)
    key = (config.num_cores, config.timing.cycle_ns)
    seen = []
    for scheme in ("Ideal", "Scrubbing", "LWT-4"):
        simulate(trace, _fresh_policy(scheme, profile, config), config, engine="batch")
        assert fastpath.last_attempt() == ("speculated", "ok")
        seen.append(fastpath._trace_inputs(trace, *key))
    assert all(inputs is seen[0] for inputs in seen)
    arrays = [weakref.ref(getattr(seen[0], name)) for name in ("ops", "lines", "gaps", "slots")]
    dead_trace = weakref.ref(trace)
    del trace, seen
    gc.collect()
    assert dead_trace() is None
    assert all(ref() is None for ref in arrays)


@pytest.mark.parametrize("scheme", SMALL_SCHEMES)
def test_event_engine_continues_a_kernel_run(scheme, small_trace_and_config):
    """Kernel then event engine on one policy equals two event-engine
    runs, on the stats of the second run and on the post-state."""
    trace, config, profile, _ = small_trace_and_config
    policies, results = {}, {}
    for first in ENGINES:
        policy = _fresh_policy(scheme, profile, config)
        simulate(trace, policy, config, engine=first)
        results[first] = simulate(trace, policy, config, engine="event")
        policies[first] = policy
    assert results["batch"].to_dict() == results["event"].to_dict()
    assert _policy_state(policies["batch"]) == _policy_state(policies["event"])


@pytest.mark.parametrize(
    "scheme, name",
    [
        ("Scrubbing-W0", "last_write_s"),
        ("Scrubbing", "_survived"),
        ("LWT-4", "_last_event_s"),
    ],
)
def test_deferred_state_reads_as_the_event_engines_dict(scheme, name, small_trace_and_config):
    """After a kernel run a per-line dict is built on its first read: that
    read gives the dict the event engine leaves, in the same order, and a
    second read returns the same object."""
    from repro.memsim.native import native_available

    trace, config, profile, _ = small_trace_and_config
    policies = {e: _fresh_policy(scheme, profile, config) for e in ENGINES}
    for engine, policy in policies.items():
        simulate(trace, policy, config, engine=engine)

    def owner(policy):
        return policy.tracker if name == "_last_event_s" else policy

    deferred = owner(policies["batch"])
    if native_available():
        assert name not in vars(deferred)
    first = getattr(deferred, name)
    assert list(first.items()) == list(getattr(owner(policies["event"]), name).items())
    assert getattr(deferred, name) is first
    assert name in vars(deferred)


# ------------------------------------------------------ sweep and cache


def _sweep_spec(engine, extra=()):
    from repro.experiments.spec import SimSpec

    return SimSpec(
        schemes=("Ideal", "Hybrid", "LWT-2", "Select-4:1") + tuple(extra),
        workloads=("mcf", "gcc"),
        target_requests=800,
        seed=SEED,
        engine=engine,
    )


def _flat(grid):
    return [
        (w, s, stats.to_dict())
        for w, per_scheme in grid.items()
        for s, stats in per_scheme.items()
    ]


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_grid_identical_across_engines(jobs, tmp_path):
    """Whole grids agree for serial and parallel execution alike."""
    from repro.experiments.runner import run_sweep
    from repro.service import ExecutionService

    grids = {}
    for engine in ENGINES:
        service = ExecutionService(jobs=jobs, cache=False)
        grids[engine] = run_sweep(_sweep_spec(engine), service)
    assert _flat(grids["batch"]) == _flat(grids["event"])


def test_granular_cache_entries_byte_identical(tmp_path):
    """Batch-produced run-cache entries are byte-identical to scalar ones.

    Cached artifacts therefore stay valid across engines, which is the
    load-bearing fact behind keeping ``engine`` out of the content hash.
    """
    from repro.experiments.runner import run_sweep
    from repro.service import ExecutionService

    dirs = {}
    for engine in ENGINES:
        run_sweep(_sweep_spec(engine), ExecutionService(cache=tmp_path / engine))
        runs_dir = tmp_path / engine / "runs"
        dirs[engine] = {
            p.name: p.read_bytes() for p in sorted(runs_dir.glob("*.json"))
        }
    assert dirs["batch"], "no granular cache entries were written"
    assert dirs["batch"].keys() == dirs["event"].keys()  # same run hashes
    assert dirs["batch"] == dirs["event"]  # same bytes

    # And a replay from the scalar-produced cache serves the batch spec.
    replayed = run_sweep(
        _sweep_spec("batch"), ExecutionService(cache=tmp_path / "event")
    )
    fresh = run_sweep(_sweep_spec("batch"))
    assert _flat(replayed) == _flat(fresh)


# ------------------------------------------------------ spec/engine flag


def test_simspec_engine_validation():
    from repro.experiments.spec import SimSpec, SpecError

    with pytest.raises(SpecError):
        SimSpec(workloads=("mcf",), engine="bogus")


def test_simspec_engine_outside_identity():
    from repro.experiments.spec import SimSpec

    batch = _sweep_spec("batch")
    event = _sweep_spec("event")
    assert batch.content_hash() == event.content_hash()
    # Only the non-default engine is serialized, so old spec files and
    # their hashes round-trip unchanged.
    assert "engine" not in batch.to_dict()
    assert event.to_dict()["engine"] == "event"
    assert SimSpec.from_dict(event.to_dict()).engine == "event"
    assert SimSpec.from_dict(batch.to_dict()).engine == "batch"


def test_simulate_rejects_unknown_engine(trace_and_config):
    trace, config, profile = trace_and_config
    with pytest.raises(ValueError, match="unknown engine"):
        simulate(
            trace, _fresh_policy("Ideal", profile, config), config,
            engine="vector",
        )


# ------------------------------------------- vectorized helper parity


def test_classify_error_counts_matches_scalar():
    from repro.ecc.regimes import (
        REGIME_BY_CODE,
        classify_error_count,
        classify_error_counts,
    )

    counts = np.arange(0, 40)
    codes = classify_error_counts(counts)
    assert codes.dtype == np.int8
    for count, code in zip(counts.tolist(), codes.tolist()):
        assert REGIME_BY_CODE[code] is classify_error_count(count)
    with pytest.raises(ValueError):
        classify_error_counts(np.asarray([3, -1]))


def test_cellarray_read_lines_matches_read_line(rng):
    from repro.pcm.array import CellArray

    array = CellArray(num_lines=32, cells_per_line=64, rng=rng)
    lines = np.asarray([0, 5, 5, 31, 2])
    now_s = 3_600.0
    for metric in ("R", "M"):
        sensed, errors = array.read_lines(lines, now_s, metric)
        assert sensed.shape == (len(lines), 64)
        for i, line in enumerate(lines.tolist()):
            single = array.read_line(line, now_s, metric)
            assert np.array_equal(sensed[i], single.sensed_levels)
            assert int(errors[i]) == single.cell_errors


def test_sense_batch_matches_sequential(rng):
    from repro.pcm.sensing import RSenseAmplifier

    values = rng.normal(3.0, 1.0, size=(7, 16))
    one = RSenseAmplifier()
    rows = np.stack([one.sense(row) for row in values])
    batched = RSenseAmplifier()
    levels = batched.sense_batch(values)
    assert np.array_equal(levels, rows)
    assert batched.reads == one.reads == 7
    assert batched.cells_sensed == one.cells_sensed == values.size
    with pytest.raises(ValueError):
        batched.sense_batch(values[0])


def test_sense_cells_at_matches_scalar(rng):
    from repro.pcm.cell import Cell, sense_cells_at
    from repro.pcm.params import R_METRIC

    cells = [Cell.program(R_METRIC, lv % 4, rng, now_s=0.0) for lv in range(12)]
    now_s = 7_200.0
    batched = sense_cells_at(R_METRIC, cells, now_s)
    assert batched.tolist() == [c.sense_at(R_METRIC, now_s) for c in cells]
    assert sense_cells_at(R_METRIC, [], now_s).shape == (0,)
