"""Event tracing: in-memory recorder with JSONL and Chrome exports.

The engine (and the sweep runner) emit flat dict records into a
:class:`Tracer`; nothing is interpreted until export time. Two export
formats:

* **JSONL** (:meth:`Tracer.write_jsonl`) — one record per line, the raw
  schema below, for ad-hoc analysis (``jq``, pandas).
* **Chrome trace_event** (:meth:`Tracer.write_chrome`) — a
  ``{"traceEvents": [...]}`` JSON file loadable in ``chrome://tracing``
  or https://ui.perfetto.dev. Known record kinds map onto duration
  ("X") and instant ("i") events across four tracks: cores (pid 1),
  banks (pid 2), the scrub engine (pid 3) and the sweep (pid 4).

Record kinds produced by :class:`~repro.memsim.engine.MemorySystemSim`
(all times in simulated nanoseconds):

``read``
    ``core, bank, line, mode, queue_depth, issue_ns, start_ns,
    complete_ns`` — one demand read from issue to data transfer.
``write``
    ``cause ("demand"/"conversion"), bank, line, start_ns, complete_ns``
    — one bank write service.
``write_cancel``
    ``bank, line, progress, time_ns`` — an in-flight write cancelled by
    an arriving read.
``scrub``
    ``time_ns, lines, rewrites, duration_ns, skipped`` — one scrub
    operation (or a skipped visit when the backlog is full).

The unit executor (:func:`repro.experiments.parallel.run_units`) adds
one ``run_unit`` record (``workload, scheme, seconds, start_s``, wall
time) per simulated unit, drawn as a slice on the sweep lane; see
docs/OBSERVABILITY.md for the full schema.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Tuple, Union

__all__ = ["Tracer", "NullTracer", "chrome_trace_events"]

#: Chrome trace process ids per track (named via metadata events).
_PID_CORES = 1
_PID_BANKS = 2
_PID_SCRUB = 3
_PID_SWEEP = 4

#: Span lanes are keyed by the *real* OS pid of the emitting process,
#: offset so they can never collide with the fixed simulated tracks.
_PID_SPAN_BASE = 1_000


class Tracer:
    """Bounded in-memory event recorder.

    Args:
        max_events: Hard cap on retained records; further emits are
            counted in :attr:`dropped` instead of stored (a paper-scale
            run emits a few hundred thousand records, well under the
            default).
    """

    enabled = True

    def __init__(self, max_events: int = 2_000_000) -> None:
        self._records: List[Dict] = []
        self.max_events = max_events
        self._dropped = 0
        # Deferred record batches from the batch engine's fast path:
        # (count, dropped, builder). Builders append fully-formed dicts;
        # they run lazily on first access to :attr:`records` so runs that
        # never export a trace skip the dict construction entirely.
        self._pending: List[Tuple[int, int, Callable[[List[Dict]], None]]] = []
        self._pending_count = 0
        self._pending_dropped = 0

    @property
    def records(self) -> List[Dict]:
        """All retained records (materializes any deferred batches)."""
        self._materialize()
        return self._records

    @property
    def dropped(self) -> int:
        """Records discarded over :attr:`max_events` (lazy-batch aware)."""
        return self._dropped + self._pending_dropped

    @dropped.setter
    def dropped(self, value: int) -> None:
        self._dropped = value - self._pending_dropped

    def defer(
        self, count: int, dropped: int, builder: Callable[[List[Dict]], None]
    ) -> None:
        """Register a lazy batch of ``count`` records (+ ``dropped``).

        ``builder(records)`` must append exactly ``count`` dicts; it runs
        at most once, when (and if) the records are first read.
        """
        self._pending.append((count, dropped, builder))
        self._pending_count += count
        self._pending_dropped += dropped

    def _materialize(self) -> None:
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        self._pending_count = 0
        self._pending_dropped = 0
        for _count, dropped, builder in pending:
            builder(self._records)
            self._dropped += dropped

    def emit(self, record: Dict) -> None:
        """Append one flat dict record (must be JSON-serializable)."""
        self._materialize()  # keep record order across deferred batches
        if len(self._records) >= self.max_events:
            self._dropped += 1
            return
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records) + self._pending_count

    # ------------------------------------------------------------- export

    def write_jsonl(self, path: Union[str, "object"]) -> None:
        """One raw record per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record, sort_keys=True))
                handle.write("\n")

    def write_chrome(self, path: Union[str, "object"]) -> None:
        """Chrome ``trace_event`` JSON (open in chrome://tracing/Perfetto)."""
        payload = {
            "traceEvents": chrome_trace_events(self.records),
            "displayTimeUnit": "ns",
            "otherData": {"dropped_records": self.dropped},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.write("\n")

    def write(self, path: Union[str, "object"]) -> None:
        """Dispatch on extension: ``.jsonl`` raw lines, else Chrome JSON."""
        if str(path).endswith(".jsonl"):
            self.write_jsonl(path)
        else:
            self.write_chrome(path)


class NullTracer(Tracer):
    """Discards everything; lets shared code emit unconditionally."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(max_events=0)

    def emit(self, record: Dict) -> None:
        pass


def _x(name, cat, pid, tid, ts_ns, dur_ns, args) -> Dict:
    """One Chrome complete ("X") event; timestamps are microseconds."""
    return {
        "name": name,
        "cat": cat,
        "ph": "X",
        "pid": pid,
        "tid": tid,
        "ts": ts_ns / 1_000.0,
        "dur": max(dur_ns, 0.0) / 1_000.0,
        "args": args,
    }


def chrome_trace_events(records: List[Dict]) -> List[Dict]:
    """Map raw records onto Chrome ``trace_event`` dicts.

    Pipeline spans (``kind == "span"``, see :mod:`repro.obs.spans`) are
    rendered as duration events on one lane per emitting OS process —
    the cross-process timeline of a parallel run. Their wall-clock
    timestamps are rebased so the earliest span starts at t=0. Unknown
    kinds become instant events on the sweep track so nothing is
    silently lost.
    """
    events: List[Dict] = [
        {"name": "process_name", "ph": "M", "pid": _PID_CORES,
         "args": {"name": "cores (demand reads)"}},
        {"name": "process_name", "ph": "M", "pid": _PID_BANKS,
         "args": {"name": "banks (service + cancels)"}},
        {"name": "process_name", "ph": "M", "pid": _PID_SCRUB,
         "args": {"name": "scrub engine"}},
        {"name": "process_name", "ph": "M", "pid": _PID_SWEEP,
         "args": {"name": "sweep runner"}},
    ]
    span_pids = sorted(
        {r["pid"] for r in records if r.get("kind") == "span" and "pid" in r}
    )
    span_t0 = min(
        (r["t_s"] for r in records if r.get("kind") == "span" and "t_s" in r),
        default=0.0,
    )
    for pid in span_pids:
        events.append({
            "name": "process_name", "ph": "M", "pid": _PID_SPAN_BASE + pid,
            "args": {"name": f"pipeline spans (pid {pid})"},
        })
    for r in records:
        kind = r.get("kind")
        if kind == "span":
            args = {"trace": r.get("trace"), "span": r.get("span"),
                    "parent": r.get("parent")}
            args.update(r.get("attrs") or {})
            events.append(_x(
                r.get("name", "span"), "span",
                _PID_SPAN_BASE + r.get("pid", 0), 0,
                (r.get("t_s", span_t0) - span_t0) * 1e9,
                r.get("dur_s", 0.0) * 1e9,
                args,
            ))
        elif kind == "read":
            events.append(_x(
                f"read[{r['mode']}]", "read", _PID_CORES, r["core"],
                r["issue_ns"], r["complete_ns"] - r["issue_ns"],
                {"bank": r["bank"], "line": r["line"],
                 "queue_depth": r["queue_depth"], "mode": r["mode"],
                 "service_start_ns": r["start_ns"]},
            ))
        elif kind == "write":
            events.append(_x(
                r["cause"], "write", _PID_BANKS, r["bank"],
                r["start_ns"], r["complete_ns"] - r["start_ns"],
                {"line": r["line"]},
            ))
        elif kind == "write_cancel":
            events.append({
                "name": "write_cancel", "cat": "cancel", "ph": "i", "s": "t",
                "pid": _PID_BANKS, "tid": r["bank"],
                "ts": r["time_ns"] / 1_000.0,
                "args": {"line": r["line"], "progress": r["progress"]},
            })
        elif kind == "scrub":
            if r.get("skipped"):
                events.append({
                    "name": "scrub_skipped", "cat": "scrub", "ph": "i",
                    "s": "t", "pid": _PID_SCRUB, "tid": 0,
                    "ts": r["time_ns"] / 1_000.0,
                    "args": {"lines": r["lines"]},
                })
            else:
                events.append(_x(
                    "scrub", "scrub", _PID_SCRUB, 0,
                    r["time_ns"], r["duration_ns"],
                    {"lines": r["lines"], "rewrites": r["rewrites"]},
                ))
        elif kind == "run_unit":
            events.append(_x(
                f"{r['workload']}/{r['scheme']}", "sweep", _PID_SWEEP, 0,
                r["start_s"] * 1e9, r["seconds"] * 1e9,
                {"workload": r["workload"], "scheme": r["scheme"]},
            ))
        else:
            events.append({
                "name": str(kind), "cat": "misc", "ph": "i", "s": "t",
                "pid": _PID_SWEEP, "tid": 0,
                "ts": float(r.get("time_ns", 0.0)) / 1_000.0,
                "args": {k: v for k, v in r.items() if k != "kind"},
            })
    return events
