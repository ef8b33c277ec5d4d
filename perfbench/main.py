"""Command line of the benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sim-cold --seed 1 --seconds 25 --trace 0

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines above
it name the same numbers with their sample counts (and, traced, print
the per-layer self-time table). The exit code is 1 when a correctness
gate failed and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional

from . import cli_warm, layers, metrics, procs, serve_mixed, sim_cold

WORKLOADS: Dict[str, Callable[[int, float, bool], Dict[str, Any]]] = {
    "sim-cold": sim_cold.run,
    "cli-warm": cli_warm.run,
    "serve-mixed": serve_mixed.run,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _metrics_document(values: Dict[str, float], trace: bool) -> Dict[str, Dict[str, Any]]:
    names: List[str] = (
        [name for name, _u, _b in metrics.PER_LAYER]
        if trace
        else [name for name, _u, _b, _bound in metrics.END_TO_END]
    )
    missing = [name for name in names if name not in values]
    if missing:
        raise procs.BenchError(f"workload did not report {', '.join(missing)}")
    return {
        name: {"value": float(values[name]), "unit": metrics.UNITS[name]}
        for name in names
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        procs.require_program()
    except procs.BenchError as exc:
        print(exc, file=sys.stderr)
        return 2
    run_dir = procs.make_run_dir()
    try:
        probe_start = procs.machine_probe()
        procs.build_program()
        result = WORKLOADS[args.workload](args.seed, args.seconds, trace)
        if trace:
            # Start-up is measured the same way on every workload: a
            # separate probe process, after the workload has finished.
            result["layer"].update(layers.startup_metrics())
        probe_end = procs.machine_probe()
        document = _metrics_document(result["layer" if trace else "metrics"], trace)
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "machine_probe_s": {"start": probe_start, "end": probe_end},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": document,
        **result["record"],
    }
    record_path = procs.WORK / "records" / (
        f"{args.workload}-seed{args.seed}-trace{int(trace)}-{time.time_ns()}.json"
    )
    record_path.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    print(f"  machine probe {probe_start:.4f} s at start, {probe_end:.4f} s at end")
    if trace:
        print(result["table"])
        print(f"  spans: {result['spans']}")
    for name, value, unit, note in result.get("summary", []):
        print(f"  {name:<28} {value:>14.4f} {unit:<6} {note}")
    for name, entry in document.items():
        print(f"  {name:<40} {entry['value']:>16.6f} {entry['unit']}")
    print(f"  raw samples: {record_path}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": document,
    }))
    return 0 if result["failed"] == 0 else 1
