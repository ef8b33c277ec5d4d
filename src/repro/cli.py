"""Command-line front end: ``readduo`` / ``python -m repro``.

Subcommands:

* ``list`` — show every reproducible experiment.
* ``run <experiment> [...]`` — regenerate one or more tables/figures
  (``all`` runs everything; ``--quick`` shrinks the simulation sweep).
* ``simulate --workload W --scheme S`` — one simulation run with a full
  statistics dump.
* ``sweep --output FILE`` — run the scheme x workload grid and export
  every run's statistics as JSON for downstream analysis. The grid is
  either described by flags (``--schemes/--workloads/--requests/--seed``)
  or loaded whole from a JSON/TOML file with ``--spec experiment.toml``
  (see :class:`repro.experiments.spec.SimSpec`); both forms produce
  byte-identical output for equivalent content.
* ``faults`` — fault-injection study: sweep the stuck-at fault density
  under one scheme/workload and report the uncorrectable-error-rate
  curve (see :mod:`repro.experiments.faults` and docs/RESILIENCE.md).
* ``bench`` — rerun the engine benchmark scenarios (single-run
  throughput, telemetry overhead, batch-kernel speedup vs the
  event-level oracle), rewrite ``results/BENCH_sweep.json`` through
  the same code path the ``benchmarks/`` harness uses, and append one
  entry to ``results/BENCH_history.jsonl`` (see docs/PERFORMANCE.md).
  ``--serve`` load-tests the daemon instead
  (``results/BENCH_serve.json``).
* ``explore`` — design-space exploration: scores every (scheme x ECC
  strength x scrub interval x config) candidate once at the full
  budget on EDAP vs TLC, analytic FIT margin, and wear vs Ideal, and
  keeps the Pareto (non-dominated) set; writes ``results/frontier.json``
  and a frontier table. Resolves through the same execution layer as
  ``sweep`` (or a daemon with ``--via-serve URL``), so reruns and
  killed-and-resumed explorations re-simulate nothing
  (see docs/EXPLORE.md).
* ``report`` — aggregate a run-provenance ledger (``--ledger``) and/or
  metrics snapshot into cache-tier hit ratios, speculation success
  rates, slowest units, and per-worker utilization; ``report --bench``
  compares the latest two benchmark history entries and can gate on
  regressions (``--fail-on-regression``).
* ``schemes`` — the scheme-registry catalog: canonical names, accepted
  aliases, and parameterized-family syntaxes (``--json`` for the
  machine-readable form the serve daemon also exposes).
* ``serve`` — the simulation daemon: an asyncio HTTP/JSON server
  accepting :class:`~repro.experiments.spec.SimSpec` documents,
  coalescing concurrent identical requests by run hash, streaming
  per-unit progress, and applying per-client backpressure (see
  docs/SERVING.md). Its units run on its own ``--jobs`` pool, as a
  ``sweep``'s do.

The execution-shaped subcommands (``run``/``sweep``/``faults``) are thin
clients of :class:`repro.service.ExecutionService` — the same facade the
daemon serves — so local and served execution share one code path and
produce bit-for-bit identical results.

``simulate`` and ``sweep`` accept ``--engine {batch,event}``: ``batch``
(default) is the compiled kernel, falling back to the event engine for
runs it cannot take; ``event`` is the event-level scalar oracle. The two are bit-for-bit identical, so the flag never
enters result identity — it only trades speed for step-by-step
debuggability (see docs/PERFORMANCE.md).

Simulation-sweep commands accept ``--jobs N`` (process-parallel run
units, up to workloads x schemes at once) and ``--no-cache`` (skip the
persistent sweep cache under ``results/.sweep-cache/``); see README
"Performance". ``run`` additionally plans ahead: it unions the run units
of every requested artifact, dedupes them by content hash, executes each
distinct unit once, and renders all artifacts from the shared results
(:mod:`repro.experiments.planner`).

Observability (see docs/OBSERVABILITY.md): ``simulate``/``sweep``/``run``
accept ``--trace FILE`` (event trace + pipeline spans; ``.jsonl`` for raw
lines, anything else for Chrome ``trace_event`` JSON loadable in
chrome://tracing or Perfetto), ``--metrics FILE`` (counter/gauge/
histogram dump), and ``-v``/``--log-level`` (stderr diagnostics via
stdlib logging, propagated into ``--jobs`` worker processes).
``run``/``sweep``/``faults`` additionally accept ``--ledger FILE``, the
append-only run-provenance ledger ``readduo report`` summarizes. Stdout
stays reserved for command output — ``sweep --output -`` emits pure
JSON; every progress or summary line goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Container,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .core.registry import (
    canonical_scheme_name,
    is_scheme_name,
    scheme_names,
    unknown_scheme_message,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    import logging

    from .obs import Telemetry

__all__ = ["main"]

#: Commands that only print: they log nothing and show no progress line,
#: so :func:`main` sets up neither for them.
_PRINT_ONLY = ("list", "schemes")


def _log() -> logging.Logger:
    from .obs.logutil import get_logger

    return get_logger("cli")


def _cmd_list(_args: argparse.Namespace) -> int:
    # The index, not the catalog: listing ids loads no driver.
    from .experiments.index import DRIVERS, SWEEP_EXPERIMENTS
    from .traces.spec import workload_names

    print("Reproducible experiments (paper artifact -> driver):")
    for name in DRIVERS:
        marker = " [simulation sweep]" if name in SWEEP_EXPERIMENTS else ""
        print(f"  {name}{marker}")
    # Live registry query so plugin-registered schemes appear too.
    print("\nSchemes:", ", ".join(scheme_names()))
    print("Workloads:", ", ".join(workload_names()))
    return 0


def _reject_unknown_schemes(schemes: Sequence[str]) -> int:
    """Print an error and return exit code 2 on any unknown scheme name.

    Validating upfront keeps a typo from failing deep inside
    ``make_policy`` after trace generation (or mid-grid for sweeps).
    """
    unknown = [name for name in schemes if not is_scheme_name(name)]
    if unknown:
        print(unknown_scheme_message(unknown), file=sys.stderr)
        return 2
    return 0


def _build_telemetry(args: argparse.Namespace) -> Optional[Telemetry]:
    """One Telemetry bundle per command invocation, or None when all off.

    A tracer is created whenever any flag is present: ``--metrics``
    needs sweep-batch records to summarize even if no trace file is
    written, and ``--ledger`` stamps the trace id onto its records.
    """
    if not (
        getattr(args, "trace", None)
        or getattr(args, "metrics", None)
        or getattr(args, "ledger", None)
    ):
        return None
    from .obs import MetricsRegistry, Telemetry, Tracer

    ledger = None
    if getattr(args, "ledger", None):
        from .obs.ledger import RunLedger

        ledger = RunLedger(args.ledger)
    return Telemetry(
        tracer=Tracer(),
        metrics=MetricsRegistry() if args.metrics else None,
        ledger=ledger,
    )


@contextmanager
def _cli_tracker(
    args: argparse.Namespace, tele: Optional[Telemetry], command: str
) -> Iterator[None]:
    """Span tracing + telemetry export for one command invocation.

    When a tracer is attached, every span the pipeline opens (plan
    build, cache tiers, executor, fastpath) lands in the command's
    tracer under a ``cli.<command>`` root span, one trace id. On the way
    out the telemetry files are exported *after* the root span closed —
    so the written trace contains the complete, well-formed span tree
    (the export span rides along as a root-level sibling; only the trace
    file write itself is uninstrumented, necessarily).
    """
    if tele is None or tele.tracer is None or not tele.tracer.enabled:
        yield
        _write_telemetry_files(args, tele)
        return
    from .obs.spans import SpanTracker, tracker_scope

    tracker = SpanTracker(tele.tracer.emit)
    with tracker_scope(tracker):
        with tracker.span(f"cli.{command}"):
            yield
        _write_telemetry_files(args, tele)


def _write_telemetry_files(args: argparse.Namespace, tele: Optional[Telemetry]) -> None:
    """Export --trace/--metrics files, close the ledger; notes to stderr.

    The export itself is spanned (``telemetry.export``): the span closes
    — and is emitted — before the trace file is written, so the written
    trace includes its own export accounting for everything but itself.
    """
    if tele is None:
        return
    from .obs.spans import maybe_span

    with maybe_span(
        "telemetry.export",
        trace=bool(getattr(args, "trace", None)),
        metrics=bool(getattr(args, "metrics", None)),
        ledger=bool(getattr(args, "ledger", None)),
    ):
        if getattr(args, "metrics", None):
            tele.metrics.dump_json(args.metrics)
            print(f"wrote metrics {args.metrics}", file=sys.stderr)
        if tele.ledger is not None:
            tele.ledger.close()
            print(
                f"wrote ledger {args.ledger}: "
                f"{tele.ledger.records_written} record(s) appended",
                file=sys.stderr,
            )
    if getattr(args, "trace", None):
        tele.tracer.write(args.trace)
        print(
            f"wrote trace {args.trace}: {len(tele.tracer.records)} records"
            + (f" ({tele.tracer.dropped} dropped)" if tele.tracer.dropped else ""),
            file=sys.stderr,
        )


def _make_service(args: argparse.Namespace, tele: Optional[Telemetry]):
    """The :class:`~repro.service.ExecutionService` one subcommand uses.

    Every execution-shaped subcommand (``run``/``sweep``/``faults``)
    funnels through the service facade — the CLI holds no planner, pool,
    or cache wiring of its own, so the HTTP daemon and the CLI share one
    code path (and bit-for-bit identical results).
    """
    from .service import ExecutionService

    return ExecutionService(
        jobs=args.jobs, cache=not args.no_cache, telemetry=tele
    )


def _cmd_run(args: argparse.Namespace) -> int:
    from .experiments.catalog import EXPERIMENTS, SWEEP_EXPERIMENTS

    names: List[str] = args.experiments
    if "all" in names:
        names = list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    tele = _build_telemetry(args)
    service = _make_service(args, tele)
    quick_requests = args.quick_requests if args.quick else None
    with _cli_tracker(args, tele, "run"), service:
        service.prewarm(names, quick_requests=quick_requests)
        for name in names:
            kwargs = {}
            if args.quick and name in SWEEP_EXPERIMENTS:
                kwargs["target_requests"] = args.quick_requests
            started = time.perf_counter()
            print(service.render_experiment(name, **kwargs))
            print()
            _log().info("%s done in %.2fs", name, time.perf_counter() - started)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .core.policies import PolicyContext
    from .core.registry import make_policy
    from .memsim.config import MemoryConfig
    from .memsim.engine import simulate
    from .obs.spans import maybe_span
    from .traces.generator import generate_trace
    from .traces.spec import instructions_for_requests, workload

    scheme = canonical_scheme_name(args.scheme)
    code = _reject_unknown_schemes([scheme])
    if code:
        return code
    profile = workload(args.workload)
    config = MemoryConfig()
    instructions = args.instructions or instructions_for_requests(
        profile, args.requests, config.num_cores
    )
    trace = generate_trace(
        profile,
        instructions_per_core=instructions,
        num_cores=config.num_cores,
        seed=args.seed,
    )
    policy = make_policy(
        scheme, PolicyContext(profile=profile, config=config, seed=args.seed)
    )
    tele = _build_telemetry(args)
    started = time.perf_counter()
    with _cli_tracker(args, tele, "simulate"):
        with maybe_span(
            "unit.simulate", workload=args.workload, scheme=scheme
        ):
            stats = simulate(
                trace, policy, config, telemetry=tele, engine=args.engine
            )
        _log().info(
            "simulated %d requests in %.2fs",
            len(trace), time.perf_counter() - started,
        )
        print(f"workload={stats.workload} scheme={stats.scheme}")
        for key, value in stats.summary().items():
            if key in ("scheme", "workload"):
                continue
            print(f"  {key:14s} {value}")
        print("  energy by category (uJ):")
        for category, pj in sorted(stats.energy.by_category.items()):
            print(f"    {category:12s} {pj / 1e6:.3f}")
        print("  cell writes by cause:")
        for cause, cells in sorted(stats.wear.by_cause.items()):
            print(f"    {cause:12s} {cells}")
        if tele is not None:
            hist = stats.read_latency_hist
            print("  read latency percentiles (ns, bucket upper bounds):")
            for q in (50, 90, 99):
                print(f"    p{q:<10d} {hist.percentile(q):.0f}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments.spec import ALL_SCHEMES, SimSpec, SpecError
    from .service import sweep_payload

    if args.spec is not None:
        # A spec file is the whole experiment definition; mixing it with
        # per-field flags would create two sources of truth.
        conflicting = [
            flag
            for flag, value in (
                ("--schemes", args.schemes),
                ("--workloads", args.workloads),
                ("--requests", args.requests),
                ("--seed", args.seed),
            )
            if value is not None
        ]
        if conflicting:
            print(
                f"--spec conflicts with {', '.join(conflicting)}; "
                "put those values in the spec file instead",
                file=sys.stderr,
            )
            return 2
        try:
            settings = SimSpec.from_file(args.spec)
        except SpecError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    else:
        try:
            settings = SimSpec(
                schemes=tuple(args.schemes) if args.schemes else ALL_SCHEMES,
                workloads=tuple(args.workloads) if args.workloads else (),
                target_requests=(
                    args.requests if args.requests is not None else 30_000
                ),
                seed=args.seed if args.seed is not None else 42,
            )
        except SpecError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    if args.engine is not None and args.engine != settings.engine:
        # Engine choice never enters result identity (the engines are
        # bit-for-bit identical), so overriding a --spec file's engine
        # does not create a second source of truth for the content.
        import dataclasses

        settings = dataclasses.replace(settings, engine=args.engine)
    tele = _build_telemetry(args)
    service = _make_service(args, tele)
    started = time.perf_counter()
    with _cli_tracker(args, tele, "sweep"), service:
        sweep = service.sweep(settings)
        wall_s = time.perf_counter() - started
        payload = sweep_payload(settings, sweep)
        if tele is not None:
            # Only telemetry-enabled invocations get the extra key: the
            # default payload must stay byte-identical across cold and warm
            # runs (CI compares them) and with older exports.
            counters = (
                service.store.counters.as_dict()
                if service.store is not None
                else None
            )
            # One batch per workload, in order of first appearance, folded
            # from the executor's ``run_unit`` records.
            batches: Dict[str, Dict[str, Any]] = {}
            for r in tele.tracer.records:
                if r.get("kind") == "run_unit":
                    batch = batches.setdefault(
                        r["workload"],
                        {"workload": r["workload"], "schemes": 0, "seconds": 0.0},
                    )
                    batch["schemes"] += 1
                    batch["seconds"] += r["seconds"]
            payload["telemetry"] = {
                "wall_time_s": wall_s,
                "jobs": args.jobs,
                "cache": counters,
                "batches": list(batches.values()),
            }
            if tele.metrics is not None:
                m = tele.metrics
                m.gauge("sweep.cli_wall_s").set(wall_s)
                if counters:
                    for key, value in counters.items():
                        m.counter(f"sweep.cache.{key}").inc(value)
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.output == "-":
            print(text)
        else:
            with open(args.output, "w") as handle:
                handle.write(text + "\n")
            print(
                f"wrote {args.output}: {len(payload['runs'])} workloads x "
                f"{len(settings.schemes)} schemes",
                file=sys.stderr,
            )
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from .experiments.faults import fault_density_study
    from .experiments.spec import SpecError

    scheme = canonical_scheme_name(args.scheme)
    code = _reject_unknown_schemes([scheme])
    if code:
        return code
    densities = args.densities
    if any(d < 0.0 or d > 1.0 for d in densities):
        print("densities must be in [0, 1]", file=sys.stderr)
        return 2
    tele = _build_telemetry(args)
    service = _make_service(args, tele)
    started = time.perf_counter()
    with _cli_tracker(args, tele, "faults"), service:
        try:
            result = fault_density_study(
                service=service,
                densities=tuple(densities),
                workload_name=args.workload,
                scheme=scheme,
                target_requests=args.requests,
                seed=args.seed,
                read_noise_rate=args.read_noise,
                write_fail_rate=args.write_fail,
                fault_seed=args.fault_seed,
            )
        except SpecError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        _log().info(
            "fault-density study done in %.2fs", time.perf_counter() - started
        )
        payload = {
            "experiment_id": result.experiment_id,
            "title": result.title,
            "headers": result.headers,
            "rows": result.rows,
            **result.extra,
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.output == "-":
            # Pure JSON on stdout; the human-readable table moves to stderr.
            print(result.render(), file=sys.stderr)
            print(text)
        else:
            print(result.render())
            if args.output is not None:
                with open(args.output, "w") as handle:
                    handle.write(text + "\n")
                print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Aggregate ledger / metrics / benchmark history into a report.

    Exit codes: 0 on success, 2 on usage or unreadable-input errors, 3
    when ``--fail-on-regression`` is set and the benchmark comparison
    flags at least one regression.
    """
    import os

    from .experiments.bench import load_bench_history
    from .obs.report import (
        compare_bench_entries,
        last_invocation,
        parse_ledger_lines,
        render_bench_report,
        render_ledger_report,
        summarize_ledger,
        summarize_metrics,
    )

    if args.bench:
        history_path = args.history
        if not os.path.exists(history_path):
            print(f"no benchmark history at {history_path} "
                  "(run `readduo bench` to create it)", file=sys.stderr)
            return 2
        entries = load_bench_history(history_path)
        if len(entries) < 2:
            print(
                f"{history_path}: need at least 2 history entries to compare "
                f"(have {len(entries)}); run `readduo bench` again",
                file=sys.stderr,
            )
            return 2
        rows = compare_bench_entries(entries[-2], entries[-1], args.threshold)
        if args.json:
            print(json.dumps(
                {"threshold_pct": args.threshold, "comparisons": rows},
                indent=2, sort_keys=True,
            ))
        else:
            print(render_bench_report(rows, args.threshold))
        if args.fail_on_regression and any(row["regressed"] for row in rows):
            return 3
        return 0

    if not args.ledger:
        print("report needs --ledger FILE (or --bench)", file=sys.stderr)
        return 2
    try:
        with open(args.ledger, "r", encoding="utf-8") as handle:
            records = parse_ledger_lines(handle.readlines())
    except OSError as exc:
        print(f"cannot read ledger {args.ledger}: {exc}", file=sys.stderr)
        return 2
    if not records:
        print(f"{args.ledger}: no ledger records", file=sys.stderr)
        return 2
    if args.last:
        records = last_invocation(records)
    summary = summarize_ledger(records, top=args.top)
    metrics = None
    if args.metrics:
        try:
            with open(args.metrics, "r", encoding="utf-8") as handle:
                metrics = summarize_metrics(json.load(handle))
        except (OSError, ValueError) as exc:
            print(f"cannot read metrics {args.metrics}: {exc}", file=sys.stderr)
            return 2
    if args.json:
        payload = dict(summary)
        if metrics is not None:
            payload["metrics"] = metrics
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_ledger_report(summary, metrics))
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    """Full-budget Pareto exploration (see docs/EXPLORE.md)."""
    from .explore import (
        ExploreError,
        ExploreSpace,
        LocalExploreBackend,
        ServeExploreBackend,
        explore,
    )
    from .explore.engine import write_frontier

    if args.space is not None:
        conflicting = [
            flag
            for flag, value in (
                ("--schemes", args.schemes),
                ("--ecc-strengths", args.ecc_strengths),
                ("--scrub-intervals", args.scrub_intervals),
                ("--workload", args.workload),
                ("--seed", args.seed),
            )
            if value is not None
        ]
        if conflicting:
            print(
                f"--space conflicts with {', '.join(conflicting)}; "
                "put those values in the space file instead",
                file=sys.stderr,
            )
            return 2
        try:
            space = ExploreSpace.from_file(args.space)
        except (ExploreError, OSError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
    else:
        kwargs = {}
        if args.schemes is not None:
            kwargs["schemes"] = tuple(args.schemes)
        if args.ecc_strengths is not None:
            kwargs["ecc_strengths"] = tuple(args.ecc_strengths)
        if args.scrub_intervals is not None:
            kwargs["scrub_intervals_s"] = tuple(args.scrub_intervals)
        if args.workload is not None:
            kwargs["workload"] = args.workload
        if args.seed is not None:
            kwargs["seed"] = args.seed
        try:
            space = ExploreSpace(**kwargs)
        except ExploreError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    tele = _build_telemetry(args)
    _log().info("exploring %s", space.describe())
    with _cli_tracker(args, tele, "explore"):
        try:
            if args.via_serve:
                from urllib.parse import urlparse

                from .service.client import ServeClient

                parsed = urlparse(args.via_serve)
                client = ServeClient(
                    host=parsed.hostname or "127.0.0.1",
                    port=parsed.port or 8787,
                )
                result = explore(
                    space,
                    args.budget,
                    backend=ServeExploreBackend(client),
                    telemetry=tele,
                )
            else:
                service = _make_service(args, tele)
                with service:
                    result = explore(
                        space,
                        args.budget,
                        backend=LocalExploreBackend(service),
                        telemetry=tele,
                    )
        except ExploreError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if args.output == "-":
            # Pure JSON on stdout; the human-readable table moves to stderr.
            print(result.render(), file=sys.stderr)
            print(json.dumps(result.to_dict(), indent=2))
        else:
            print(result.render())
            write_frontier(result, args.output)
            print(
                f"wrote {args.output}: {len(result.frontier)} frontier "
                f"member(s), digest {result.frontier_digest()[:12]}",
                file=sys.stderr,
            )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .experiments.bench import run_bench_suite, run_serve_bench

    def say(msg: str) -> None:
        print(msg, file=sys.stderr)

    if args.serve:
        payload = run_serve_bench(
            results_dir=args.results_dir,
            requests_total=args.serve_requests,
            sim_requests=min(args.requests, 4_000),
            executor_workers=args.executor_workers,
            log=say,
        )
        serve = payload["serve"]
        say(
            f"wrote {args.results_dir}/BENCH_serve.json: "
            f"{serve['completed']} requests, "
            f"p50 {serve['latency_p50_ms']:.1f}ms / "
            f"p99 {serve['latency_p99_ms']:.1f}ms, "
            f"coalescing ratio {serve['coalescing_ratio']:.3f}"
        )
        return 0

    payload = run_bench_suite(
        results_dir=args.results_dir,
        requests=args.requests,
        log=say,
    )
    kernel = payload.get("batch_kernel", {})
    single = payload.get("single_run", {})
    say(
        f"wrote {args.results_dir}/BENCH_sweep.json: "
        f"{single.get('requests_per_s', 0.0):.0f} requests/s single run, "
        f"{kernel.get('speedup', 0.0):.1f}x batch-kernel speedup"
    )
    return 0


def _cmd_schemes(args: argparse.Namespace) -> int:
    """List scheme names, aliases, and parameter-family syntaxes."""
    from .core.registry import scheme_catalog

    catalog = scheme_catalog()
    if args.json:
        print(json.dumps(catalog, indent=2, sort_keys=True))
        return 0
    width = max(len(entry["name"]) for entry in catalog["schemes"])
    print("Schemes (canonical name, accepted aliases):")
    for entry in catalog["schemes"]:
        aliases = ", ".join(entry["aliases"])
        print(f"  {entry['name']:<{width}}  {aliases}")
    if catalog["families"]:
        print("\nParameterized families (full syntax beyond the listed "
              "variants):")
        for family in catalog["families"]:
            listed = ", ".join(family["listed"])
            print(f"  {family['syntax']}  (listed: {listed})")
    print(f"\nAliases are case-insensitive; the {catalog['alias_prefix']!r} "
          "prefix is optional.")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the simulation daemon (see docs/SERVING.md)."""
    from .service.server import ServeConfig, run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache=not args.no_cache,
        memo_capacity=args.memo_capacity,
        max_inflight_per_client=args.max_inflight,
        max_pending=args.max_pending,
        ledger=args.ledger,
        executor_workers=args.executor_workers,
    )
    print(
        f"readduo serve on http://{config.host}:{config.port} "
        f"(jobs={config.jobs}, cache={'on' if not args.no_cache else 'off'}); "
        "Ctrl-C to stop",
        file=sys.stderr,
    )
    return run_server(config)


def _run_arguments(p_run: argparse.ArgumentParser) -> None:
    p_run.add_argument("experiments", nargs="+",
                       help="experiment ids (or 'all')")
    p_run.add_argument("--quick", action="store_true",
                       help="shrink the simulation sweep for a fast pass")
    p_run.add_argument("--quick-requests", type=int, default=4000,
                       help="requests per trace in --quick mode")
    _add_sweep_execution_flags(p_run)
    _add_observability_flags(p_run, ledger=True)


def _simulate_arguments(p_sim: argparse.ArgumentParser) -> None:
    from .traces.spec import workload_names

    p_sim.add_argument("--workload", required=True, choices=workload_names())
    p_sim.add_argument("--scheme", required=True)
    p_sim.add_argument("--requests", type=int, default=30_000,
                       help="target total memory requests")
    p_sim.add_argument("--instructions", type=int, default=0,
                       help="override instructions per core")
    p_sim.add_argument("--seed", type=int, default=42)
    _add_engine_flag(p_sim, default="batch")
    _add_observability_flags(p_sim)


def _sweep_arguments(p_sweep: argparse.ArgumentParser) -> None:
    p_sweep.add_argument("--output", default="-",
                         help="output path ('-' prints to stdout)")
    p_sweep.add_argument("--spec", metavar="FILE", default=None,
                         help="load the whole experiment spec from a JSON or "
                              "TOML file (conflicts with --schemes/--workloads/"
                              "--requests/--seed)")
    p_sweep.add_argument("--requests", type=int, default=None,
                         help="target total memory requests (default: 30000)")
    p_sweep.add_argument("--seed", type=int, default=None,
                         help="trace/policy seed (default: 42)")
    p_sweep.add_argument("--schemes", nargs="*", default=None)
    p_sweep.add_argument("--workloads", nargs="*", default=None)
    # Default None so a --spec file's engine wins unless overridden.
    _add_engine_flag(p_sweep, default=None)
    _add_sweep_execution_flags(p_sweep)
    _add_observability_flags(p_sweep, ledger=True)


def _faults_arguments(p_faults: argparse.ArgumentParser) -> None:
    from .traces.spec import workload_names

    p_faults.add_argument(
        "--densities", type=float, nargs="+",
        default=[0.0, 0.001, 0.004, 0.016, 0.064], metavar="D",
        help="stuck-at line densities to sweep (fractions in [0, 1])",
    )
    p_faults.add_argument("--workload", default="mcf", choices=workload_names())
    p_faults.add_argument("--scheme", default="Hybrid")
    p_faults.add_argument("--requests", type=_positive_int, default=6_000,
                          help="target total memory requests per density")
    p_faults.add_argument("--seed", type=int, default=42,
                          help="trace/policy seed")
    p_faults.add_argument("--read-noise", type=float, default=0.002,
                          help="per-read transient bit-flip probability")
    p_faults.add_argument("--write-fail", type=float, default=0.01,
                          help="per-write residual-error probability")
    p_faults.add_argument("--fault-seed", type=int, default=0,
                          help="extra salt for the fault schedule")
    p_faults.add_argument("--output", default=None, metavar="FILE",
                          help="also write the study as JSON "
                               "('-' prints JSON to stdout)")
    _add_sweep_execution_flags(p_faults)
    _add_observability_flags(p_faults, ledger=True)


def _bench_arguments(p_bench: argparse.ArgumentParser) -> None:
    p_bench.add_argument(
        "--requests", type=_positive_int, default=30_000,
        help="requests per trace for the paper-scale scenarios",
    )
    p_bench.add_argument(
        "--results-dir", default="results", metavar="DIR",
        help="directory holding BENCH_sweep.json (default: results)",
    )
    p_bench.add_argument(
        "--serve", action="store_true",
        help="run the serve-daemon load test instead of the engine "
             "scenarios; writes results/BENCH_serve.json (p50/p99 "
             "latency, coalescing ratio)",
    )
    p_bench.add_argument(
        "--serve-requests", type=_positive_int, default=2_000, metavar="N",
        help="concurrent HTTP submits for --serve (default: 2000)",
    )
    p_bench.add_argument(
        "--executor-workers", type=_positive_int, default=4, metavar="N",
        help="daemon executor pool size for --serve (default: 4; set 1 "
             "to reproduce the pre-pool tail latency)",
    )


def _report_arguments(p_report: argparse.ArgumentParser) -> None:
    p_report.add_argument(
        "--ledger", metavar="FILE", default=None,
        help="run-provenance ledger (JSONL) written by "
             "run/sweep/faults --ledger",
    )
    p_report.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="metrics snapshot written by --metrics, summarized alongside "
             "the ledger",
    )
    p_report.add_argument(
        "--top", type=_positive_int, default=5, metavar="N",
        help="slowest-unit list length (default: 5)",
    )
    p_report.add_argument(
        "--last", action="store_true",
        help="summarize only the final CLI invocation recorded in the "
             "ledger (ledgers accumulate across runs)",
    )
    p_report.add_argument(
        "--json", action="store_true",
        help="emit the aggregation as JSON instead of text",
    )
    p_report.add_argument(
        "--bench", action="store_true",
        help="compare the latest two `readduo bench` runs from the "
             "benchmark history instead of reading a ledger",
    )
    p_report.add_argument(
        "--history", metavar="FILE", default="results/BENCH_history.jsonl",
        help="benchmark history file for --bench "
             "(default: results/BENCH_history.jsonl)",
    )
    p_report.add_argument(
        "--threshold", type=float, default=5.0, metavar="PCT",
        help="relative regression threshold for --bench, percent "
             "(default: 5.0)",
    )
    p_report.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit 3 when --bench flags a regression beyond the threshold",
    )


def _explore_arguments(p_explore: argparse.ArgumentParser) -> None:
    from .traces.spec import workload_names

    p_explore.add_argument(
        "--space", metavar="FILE", default=None,
        help="load the whole exploration space from a JSON file "
             "(conflicts with --schemes/--ecc-strengths/--scrub-intervals/"
             "--workload/--seed; supports 'families' cross-products, see "
             "docs/EXPLORE.md)",
    )
    p_explore.add_argument(
        "--schemes", nargs="*", default=None,
        help="candidate schemes (default: Hybrid LWT-2 LWT-4 "
             "Select-4:1 Select-4:2)",
    )
    p_explore.add_argument(
        "--ecc-strengths", type=_positive_int, nargs="*", default=None,
        metavar="E",
        help="analytic BCH correction strengths to score under "
             "(default: 8, the paper's regime)",
    )
    p_explore.add_argument(
        "--scrub-intervals", type=float, nargs="*", default=None,
        metavar="S",
        help="scrub intervals in seconds to score under (default: 640, "
             "the paper's M-scrub interval)",
    )
    p_explore.add_argument(
        "--workload", default=None, choices=workload_names(),
        help="workload trace candidates run on (default: mcf)",
    )
    p_explore.add_argument(
        "--seed", type=int, default=None,
        help="trace/policy seed (default: 42)",
    )
    p_explore.add_argument(
        "--budget", type=_positive_int, default=8_000,
        help="simulated requests per candidate (default: 8000); "
             "frontier members' stats are bit-identical to a direct run "
             "at this budget",
    )
    p_explore.add_argument(
        "--output", default="results/frontier.json", metavar="FILE",
        help="frontier artifact path (default: results/frontier.json; "
             "'-' prints JSON to stdout, table to stderr)",
    )
    p_explore.add_argument(
        "--via-serve", metavar="URL", default=None,
        help="resolve candidate batches through a running `readduo "
             "serve` daemon at URL instead of in-process execution "
             "(frontier is bit-identical either way)",
    )
    _add_sweep_execution_flags(p_explore)
    _add_observability_flags(p_explore, ledger=True)


def _schemes_arguments(p_schemes: argparse.ArgumentParser) -> None:
    p_schemes.add_argument(
        "--json", action="store_true",
        help="emit the catalog as JSON (the same document the serve "
             "daemon returns from GET /v1/schemes)",
    )


def _serve_arguments(p_serve: argparse.ArgumentParser) -> None:
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1; the daemon "
                              "has no auth — keep it on loopback or behind "
                              "a proxy)")
    p_serve.add_argument("--port", type=int, default=8787,
                         help="bind port (default: 8787; 0 picks a free port)")
    p_serve.add_argument(
        "--memo-capacity", type=_positive_int, default=None, metavar="N",
        help="LRU bound on the in-process run memo (default: planner "
             "default, 4096 runs)",
    )
    p_serve.add_argument(
        "--max-inflight", type=_positive_int, default=8, metavar="N",
        help="concurrent submits one client may have admitted before "
             "429 (default: 8)",
    )
    p_serve.add_argument(
        "--max-pending", type=int, default=64, metavar="N",
        help="concurrent submits admitted across all clients before "
             "429 (default: 64; 0 refuses all submits)",
    )
    p_serve.add_argument(
        "--ledger", metavar="FILE", default=None,
        help="append run-provenance records for every executed unit "
             "(JSONL; summarize with `readduo report --ledger FILE`)",
    )
    p_serve.add_argument(
        "--executor-workers", type=_positive_int, default=4, metavar="N",
        help="executor threads running owned submits concurrently "
             "(default: 4; each thread may itself fan out --jobs "
             "processes)",
    )
    _add_sweep_execution_flags(p_serve)


#: Subcommand -> (help, argument builder, handler), in ``--help`` order.
_COMMANDS: Dict[
    str,
    Tuple[str, Optional[Callable[[argparse.ArgumentParser], None]], Callable[..., int]],
] = {
    "list": ("list experiments, schemes, workloads", None, _cmd_list),
    "run": ("regenerate paper tables/figures", _run_arguments, _cmd_run),
    "simulate": (
        "run one workload under one scheme",
        _simulate_arguments,
        _cmd_simulate,
    ),
    "sweep": (
        "run the scheme x workload grid, export JSON",
        _sweep_arguments,
        _cmd_sweep,
    ),
    "faults": (
        "fault-injection study: uncorrectable error rate vs density",
        _faults_arguments,
        _cmd_faults,
    ),
    "bench": (
        "rerun engine benchmarks, rewrite results/BENCH_sweep.json",
        _bench_arguments,
        _cmd_bench,
    ),
    "report": (
        "aggregate a run-provenance ledger, metrics snapshot, or "
        "benchmark history into a summary",
        _report_arguments,
        _cmd_report,
    ),
    "explore": (
        "search the scheme/ECC/scrub design space for the "
        "EDAP / FIT / wear Pareto frontier (see docs/EXPLORE.md)",
        _explore_arguments,
        _cmd_explore,
    ),
    "schemes": (
        "list scheme names, aliases, and parameter-family syntaxes",
        _schemes_arguments,
        _cmd_schemes,
    ),
    "serve": (
        "run the simulation daemon: HTTP/JSON SimSpec submission "
        "with request coalescing (see docs/SERVING.md)",
        _serve_arguments,
        _cmd_serve,
    ),
}


def build_parser(
    commands: Optional[Container[str]] = None,
) -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for tests).

    Every subcommand is listed, but only those in ``commands`` (default:
    all) get their options. :func:`main` builds only the one it runs, so
    no command imports what another one's options need (the engine and
    workload choices).
    """
    parser = argparse.ArgumentParser(
        prog="readduo",
        description="ReadDuo (DSN 2016) reproduction: MLC PCM drift-resilient readout",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, handler) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        if add_arguments is not None and (commands is None or name in commands):
            add_arguments(command)
        command.set_defaults(func=handler)
    return parser


def _add_engine_flag(
    parser: argparse.ArgumentParser, default: Optional[str]
) -> None:
    from .memsim.config import ENGINES

    parser.add_argument(
        "--engine", choices=ENGINES, default=default,
        help="simulation engine: 'batch' (compiled kernel, default) or "
             "'event' (event-level scalar oracle); results are bit-for-bit "
             "identical either way",
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_sweep_execution_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes for the simulation run units (default: 1, "
             "serial); useful parallelism scales to workloads x schemes, "
             "not just the workload count",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="skip the persistent sweep cache (results/.sweep-cache/)",
    )


def _add_observability_flags(
    parser: argparse.ArgumentParser, ledger: bool = False
) -> None:
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write an event trace: .jsonl for raw records, otherwise "
             "Chrome trace_event JSON (chrome://tracing / Perfetto)",
    )
    parser.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="write a metrics dump (counters, gauges, latency histograms)",
    )
    if ledger:
        parser.add_argument(
            "--ledger", metavar="FILE", default=None,
            help="append one run-provenance record per planned run unit "
                 "(JSONL; summarize with `readduo report --ledger FILE`)",
        )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0, dest="verbose",
        help="log progress to stderr (-v INFO, -vv DEBUG)",
    )
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        help="explicit stderr log level (DEBUG/INFO/WARNING/ERROR); "
             "overrides -v",
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    if argv is None:
        argv = sys.argv[1:]
    # The first positional token names the command (the top-level parser
    # has no option that takes a value); ``--help`` names none.
    args = build_parser(
        [token for token in argv if not token.startswith("-")][:1]
    ).parse_args(argv)
    if args.command in _PRINT_ONLY:
        return _call(args)
    from .obs.logutil import configure_logging
    from .obs.progress import set_progress_allowed

    configure_logging(
        verbosity=getattr(args, "verbose", 0),
        level=getattr(args, "log_level", None),
    )
    # Live progress/ETA lines are an application-level opt-in: enabled
    # for interactive CLI runs, withheld when stdout is the data channel
    # (--output -) so a piped invocation stays clean end to end. The
    # progress module additionally suppresses them on non-TTY stderr.
    previous_progress = set_progress_allowed(
        getattr(args, "output", None) != "-"
    )
    try:
        return _call(args)
    finally:
        set_progress_allowed(previous_progress)


def _call(args: argparse.Namespace) -> int:
    """Run the parsed command's handler."""
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed stdout; die quietly like any
        # well-behaved pipeline member (devnull swallows the interpreter
        # shutdown flush that would otherwise print a second traceback).
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
