"""``cli-warm``: ``readduo`` invocations against a cache set-up filled cold.

The kernel does nothing here: start-up, the planner, the disk tier
(gunzip and JSON decode) and driver rendering do everything. Each timed
round runs ``readduo schemes`` (pure start-up), a warm ``readduo sweep``
and a warm ``readduo run`` of every table and figure, each as its own
process, and checks their stdout byte for byte against the cold fill's.
A round runs ``readduo schemes`` four times, so start-up, the noisiest and
most often repeated of the three, gets the most samples.

The traced run (``python -m perfbench.cli_warm``) runs the same commands
in-process through ``repro.cli.main(argv)``, with the memo tiers cleared
before each so every command reads the disk tier as a fresh process
would; start-up is measured separately by a probe process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from . import layers, metrics, procs, stats, tracer

SWEEP_REQUESTS = 2_000
RUN_REQUESTS = 1_000
SETUP_SAMPLES = 3
ARTIFACTS = (
    "table1", "table2", "table3", "table4", "table5", "table7", "table8",
    "table9", "table10", "figure1", "figure2", "figure3", "figure4",
    "figure5", "figure6", "figure9", "figure10", "figure11", "figure12",
    "figure13", "figure14", "figure15",
)
KINDS = ("schemes", "sweep", "run")
#: One timed round, in order. Whole rounds keep the mix of invocations,
#: and with it ``throughput_per_s``, the same in every run.
ROUND = ("schemes", "schemes", "sweep", "schemes", "schemes", "run")


def commands(seed: int) -> Dict[str, List[str]]:
    return {
        "schemes": ["schemes"],
        "sweep": [
            "sweep", "--seed", str(seed), "--requests", str(SWEEP_REQUESTS),
            "--schemes", *metrics.SCHEMES, "--workloads", "gcc", "mcf",
            "--output", "-",
        ],
        "run": ["run", *ARTIFACTS, "--quick", "--quick-requests", str(RUN_REQUESTS)],
    }


# ------------------------------------------------------------ orchestrator


def _fill(seed: int) -> Tuple[Path, float, Dict[str, bytes]]:
    """Cold-fill a fresh cache; set-up time runs from the first spawn."""
    cache = procs.fresh_dir("cli-warm-")
    env = procs.program_env(cache)
    argv = commands(seed)
    start = time.perf_counter()
    outputs = {
        kind: procs.run_child(procs.program(*argv[kind]), env).check(f"cold {kind}").stdout
        for kind in ("sweep", "run")
    }
    return cache, time.perf_counter() - start, outputs


def _traced(seed: int, seconds: float, cache: Path) -> Dict[str, Any]:
    finished = procs.run_child(
        [procs.PYTHON, "-m", "perfbench.cli_warm", "--seed", str(seed),
         "--seconds", repr(seconds), "--cache", str(cache)],
        procs.program_env(cache),
    ).check("cli-warm traced worker")
    return json.loads(finished.stdout.decode().strip().splitlines()[-1])


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    fills = [_fill(seed) for _ in range(1 if trace else SETUP_SAMPLES)]
    cache, _setup, cold = fills[-1]
    failed = sum(f[2] != cold for f in fills)
    if trace:
        for kind, blob in cold.items():
            (cache / f"cold-{kind}.out").write_bytes(blob)
        out = _traced(seed, seconds, cache)
        out["failed"] += failed
        out["attempted"] += len(fills)
        return out

    env = procs.program_env(cache)
    argv = commands(seed)
    walls: Dict[str, List[float]] = {kind: [] for kind in KINDS}
    peak_mb = 0.0
    attempted = len(fills)
    expected = dict(cold)
    deadline = time.perf_counter() + seconds
    while len(walls["run"]) < 2 or time.perf_counter() < deadline:
        for kind in ROUND:
            done = procs.run_child(procs.program(*argv[kind]), env)
            attempted += 1
            expected.setdefault(kind, done.stdout)
            if done.returncode != 0 or done.stdout != expected[kind]:
                failed += 1
            walls[kind].append(done.wall_s)
            peak_mb = max(peak_mb, done.maxrss_mb)
    setups = [f[1] for f in fills]
    invocations = sum(len(w) for w in walls.values())
    total = sum(sum(w) for w in walls.values())
    medians = {kind: stats.median(w) for kind, w in walls.items()}
    # The mean, not the median: on a host whose speed flips between two
    # states every few seconds, a median of a dozen invocations snaps to
    # one state or the other, while the mean follows the share of each.
    start_s = statistics.fmean(walls["schemes"])
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": stats.median(setups),
            "peak_rss_mb": peak_mb,
            "throughput_per_s": invocations / total,
            "latency_ms": start_s * 1e3,
        },
        "summary": [
            ("cli_start_s", start_s, "s", f"mean, n={len(walls['schemes'])}"),
            ("cli_start_s p50", medians["schemes"], "s", f"n={len(walls['schemes'])}"),
            ("cli_sweep_warm_s", medians["sweep"], "s", f"n={len(walls['sweep'])}"),
            ("cli_run_warm_s", medians["run"], "s", f"n={len(walls['run'])}"),
            ("setup_s", stats.median(setups), "s", f"n={len(setups)} cold fills"),
            ("peak_rss_mb", peak_mb, "MB", "largest warm child"),
        ],
        "record": {"walls": walls, "setup_s": setups},
    }


# ----------------------------------------------------------- traced worker


def worker(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.cli_warm")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--cache", type=Path, required=True)
    args = parser.parse_args(argv)
    os.environ["READDUO_SWEEP_CACHE"] = str(args.cache)

    import repro.cli

    clears = layers.memo_clears()
    argvs = commands(args.seed)
    expected = {
        kind: (args.cache / f"cold-{kind}.out").read_bytes() for kind in ("sweep", "run")
    }

    def invoke(kind: str, recorder: Any = None) -> float:
        for clear in clears:
            clear()
        buffer = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            if recorder is None:
                code = repro.cli.main(argvs[kind])
            else:
                with recorder.span(tracer.OP), recorder.span("cli.main"):
                    code = repro.cli.main(argvs[kind])
        wall = time.perf_counter() - start
        blob = buffer.getvalue().encode()
        expected.setdefault(kind, blob)
        outcomes.append(code == 0 and blob == expected[kind])
        return wall

    outcomes: List[bool] = []
    # One untimed round first: in-process, the first round also pays the
    # lazy imports a fresh process pays at start-up, which the probe measures.
    for kind in KINDS:
        invoke(kind)
    recorder, counts = tracer.Recorder(), layers.Counts()
    layers.install(recorder, counts)
    traced: List[float] = []
    deadline = time.perf_counter() + args.seconds / 2
    try:
        while len(traced) < 2 * len(KINDS) or time.perf_counter() < deadline:
            for kind in KINDS:
                recorder.op = f"{len(traced)}-{kind}"
                traced.append(invoke(kind, recorder))
    finally:
        recorder.uninstall()
    untraced = [invoke(kind) for _ in range(len(traced) // len(KINDS)) for kind in KINDS]
    result = layers.finish_trace(
        recorder, layers.program_metrics(recorder.spans, counts),
        f"cli-warm-seed{args.seed}", sum(traced), sum(untraced),
    )
    result.update(
        attempted=len(outcomes),
        failed=outcomes.count(False),
        record={"walls": {"traced": traced, "untraced": untraced}},
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(worker(sys.argv[1:]))
