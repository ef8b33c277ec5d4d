"""Spans recorded from outside the program, and their per-layer fold.

:meth:`Recorder.wrap` replaces a program function at the name its caller
binds (``simulate`` as bound in ``repro.experiments.parallel``, not the
definition in ``repro.memsim.engine``) with a wrapper that opens a span
around each call. Spans are kept in memory — name, start, end, parent,
op id — and written out when the run ends.

A layer's self time is its spans' time minus the time their child spans
cover. The benchmark's own root span around each timed op maps to the
``unattributed`` row, so the layers plus ``unattributed`` always add up
to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

#: Span name of the benchmark's root span around one timed op.
OP = "op"

#: Row of the fold that holds time no wrapped layer accounts for.
UNATTRIBUTED = "unattributed"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(
        self, name: str, start: float, end: float, parent: Optional[int], op: Any
    ) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "op": self.op,
        }


SpanName = Union[str, Callable[[tuple, dict], str]]
AfterHook = Callable[[Span, tuple, dict, Any], None]


class Recorder:
    """In-memory span store plus the wrappers it installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op: Any = None
        self._local = threading.local()
        self._undo: List[tuple] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[Span]]:
        """Record a span; outside an :data:`OP` span nothing is recorded,
        so the benchmark's own checks between ops stay out of the fold."""
        stack = self._stack()
        if not stack and name != OP:
            yield None
            return
        record = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None, self.op)
        index = len(self.spans)
        self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def add(self, name: str, start: float, end: float, parent: Optional[int]) -> int:
        """Record a span whose times were taken elsewhere; returns its index."""
        self.spans.append(Span(name, start, end, parent, self.op))
        return len(self.spans) - 1

    def wrap(
        self,
        module: str,
        path: str,
        name: SpanName,
        after: Optional[AfterHook] = None,
    ) -> bool:
        """Wrap ``module.path`` (``path`` may be ``Class.method``).

        Returns ``False`` and changes nothing when the name does not
        exist, so a layer the program no longer has simply reads zero.
        """
        try:
            owner: Any = importlib.import_module(module)
        except ImportError:
            return False
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        if not hasattr(owner, attr):
            return False
        raw = (
            inspect.getattr_static(owner, attr)
            if isinstance(owner, type)
            else getattr(owner, attr)
        )
        descriptor = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if descriptor is not None else raw
        recorder = self

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_name = name if isinstance(name, str) else name(args, kwargs)
            with recorder.span(span_name) as span:
                result = func(*args, **kwargs)
            if after is not None and span is not None:
                after(span, args, kwargs, result)
            return result

        setattr(owner, attr, descriptor(wrapper) if descriptor is not None else wrapper)
        self._undo.append((owner, attr, raw))
        return True

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def dump(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def layer_of(name: str) -> str:
    """Layer of a span name: the part before the first dot."""
    if name == OP:
        return UNATTRIBUTED
    return name.split(".", 1)[0]


def self_times(spans: List[Span]) -> List[float]:
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def fold(spans: List[Span]) -> Dict[str, Any]:
    """Per-layer calls and self time; the rows add up to ``wall_s``."""
    rows: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = rows.setdefault(layer_of(span.name), {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
    rows.setdefault(UNATTRIBUTED, {"calls": 0, "self_s": 0.0})
    wall = sum(span.duration for span in spans if span.parent is None)
    return {"wall_s": wall, "layers": rows}


def render_table(title: str, folded: Dict[str, Any]) -> str:
    wall = folded["wall_s"]
    lines = [
        f"per-layer self time, {title} (traced wall {wall:.4f} s)",
        f"  {'layer':<14} {'calls':>8} {'self_s':>10} {'share':>7}",
    ]
    rows = folded["layers"]
    order = sorted(
        (k for k in rows if k != UNATTRIBUTED), key=lambda k: -rows[k]["self_s"]
    ) + [UNATTRIBUTED]
    total = 0.0
    for layer in order:
        row = rows[layer]
        total += row["self_s"]
        share = row["self_s"] / wall if wall > 0 else 0.0
        lines.append(
            f"  {layer:<14} {int(row['calls']):>8} {row['self_s']:>10.4f} {share:>7.1%}"
        )
    lines.append(f"  {'sum':<14} {'':>8} {total:>10.4f} {total / wall if wall else 0:>7.1%}")
    return "\n".join(lines)


def inclusive(spans: List[Span], name: str) -> float:
    return sum(span.duration for span in spans if span.name == name)


def own(spans: List[Span], name: str) -> float:
    return sum(t for span, t in zip(spans, self_times(spans)) if span.name == name)


def count(spans: List[Span], name: str) -> int:
    return sum(1 for span in spans if span.name == name)


# ----------------------------------------------------------- start-up probe

STARTUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import repro.cli\n"
    "t1 = time.perf_counter()\n"
    "from repro.memsim.native import load_timeline\n"
    "load_timeline()\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t1)\n"
)


def importtime_cumulative(stderr: str, package: str) -> float:
    """Seconds ``-X importtime`` charges to ``package``'s outermost imports.

    The log lists each module after its children, indented one step per
    nesting level; an entry counts when no enclosing entry is itself part
    of ``package`` (so nothing is counted twice).
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        try:
            cumulative_us = int(parts[1].strip())
        except ValueError:
            continue
        name_field = parts[2]
        level = (len(name_field) - len(name_field.lstrip(" ")) - 1) // 2
        entries.append((level, name_field.strip(), cumulative_us))

    def belongs(module: str) -> bool:
        return module == package or module.startswith(package + ".")

    total = 0
    ancestors: List[tuple] = []
    for level, module, cumulative_us in reversed(entries):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        if belongs(module) and not any(belongs(a[1]) for a in ancestors):
            total += cumulative_us
        ancestors.append((level, module))
    return total / 1e6
