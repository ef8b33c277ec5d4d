"""Memory-trace container: typed records, persistence, summary statistics.

A trace is a set of parallel numpy arrays, one entry per main-memory
request, already filtered below the cache hierarchy (RPKI/WPKI describe
post-cache traffic, as in the paper's Pin-based methodology):

* ``op`` — 0 for read, 1 for write-back.
* ``core`` — issuing core id.
* ``line`` — 64B-line address (an abstract line index).
* ``gap`` — instructions the core executes *before* issuing this request,
  counted since its previous request.

Entries are stored per-core-interleaved in issue order per core; the
simulator replays each core's subsequence independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, Union

import numpy as np

__all__ = ["OP_READ", "OP_WRITE", "Trace", "TraceStats"]

OP_READ = 0
OP_WRITE = 1


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of a trace.

    Attributes:
        requests: Total memory requests.
        reads: Read requests.
        writes: Write requests.
        instructions: Total instructions across cores (gaps + requests).
        rpki: Measured reads per kilo-instruction.
        wpki: Measured writes per kilo-instruction.
        unique_lines: Distinct line addresses touched.
    """

    requests: int
    reads: int
    writes: int
    instructions: int
    rpki: float
    wpki: float
    unique_lines: int


class Trace:
    """An immutable memory-request trace.

    Args:
        op: Request kinds (0/1), shape (N,).
        core: Core ids, shape (N,).
        line: Line addresses, shape (N,).
        gap: Pre-request instruction gaps, shape (N,).
        name: Label (usually the workload name).
    """

    def __init__(
        self,
        op: np.ndarray,
        core: np.ndarray,
        line: np.ndarray,
        gap: np.ndarray,
        name: str = "trace",
    ) -> None:
        self.op = np.asarray(op, dtype=np.uint8)
        self.core = np.asarray(core, dtype=np.uint8)
        self.line = np.asarray(line, dtype=np.int64)
        self.gap = np.asarray(gap, dtype=np.int64)
        self.name = name
        n = len(self.op)
        if not (len(self.core) == len(self.line) == len(self.gap) == n):
            raise ValueError("trace arrays must have equal length")
        if n and self.op.max() > OP_WRITE:
            raise ValueError("op values must be 0 (read) or 1 (write)")
        if n and self.gap.min() < 0:
            raise ValueError("gaps must be non-negative")
        self._derived: Dict[Hashable, Any] = {}

    def __len__(self) -> int:
        return len(self.op)

    def num_cores(self) -> int:
        """Number of distinct cores issuing requests."""
        return int(self.core.max()) + 1 if len(self) else 0

    def derived(self, key: Hashable, build: Callable[["Trace"], Any]) -> Any:
        """``build(self)``, computed once per ``key`` and kept with this
        trace, so whatever bounds the trace's lifetime bounds it too."""
        found = self._derived.get(key)
        if found is None:
            found = self._derived[key] = build(self)
        return found

    def instructions(self) -> int:
        """Total instructions across cores (gaps + requests)."""
        return self.derived("instructions", lambda t: int(t.gap.sum()) + len(t))

    def per_core_indices(self) -> Dict[int, np.ndarray]:
        """Indices of each core's requests, in issue order."""
        return {
            c: np.nonzero(self.core == c)[0] for c in range(self.num_cores())
        }

    def stats(self) -> TraceStats:
        """Compute the summary statistics of this trace."""
        reads = int(np.count_nonzero(self.op == OP_READ))
        writes = len(self) - reads
        instructions = self.instructions()
        kilo = max(instructions / 1000.0, 1e-12)
        return TraceStats(
            requests=len(self),
            reads=reads,
            writes=writes,
            instructions=instructions,
            rpki=reads / kilo,
            wpki=writes / kilo,
            unique_lines=int(np.unique(self.line).size) if len(self) else 0,
        )

    # ------------------------------------------------------------ persistence

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace as a compressed ``.npz`` file."""
        np.savez_compressed(
            Path(path),
            op=self.op,
            core=self.core,
            line=self.line,
            gap=self.gap,
            name=np.asarray(self.name),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        """Read a trace previously written by :meth:`save`."""
        with np.load(Path(path), allow_pickle=False) as data:
            return cls(
                op=data["op"],
                core=data["core"],
                line=data["line"],
                gap=data["gap"],
                name=str(data["name"]),
            )
