"""Persistent on-disk cache of simulation runs.

A run — one scheme on one workload's trace — is identified by
:meth:`~repro.experiments.spec.SimSpec.run_hash`, a content hash over
*everything* that can change its outcome: scheme, workload, trace
length, seed, epoch, every :class:`~repro.memsim.config.MemoryConfig`
field (timing and energy parameters included), and the package version.
Any change to any of those produces a new key, so stale entries are
never returned — they are merely never read again. :class:`RunCache`
keeps one file per run under ``results/.sweep-cache/runs/`` (override
the root with ``READDUO_SWEEP_CACHE``), so regenerating every figure
across processes costs zero re-simulation once each run has been
computed anywhere on the machine, and two sweeps that merely overlap
share their common runs.

The stored payload is the lossless :meth:`RunStats.to_dict` form; a
reload reproduces the original statistics bit-for-bit (Python's ``json``
emits shortest-roundtrip float reprs).
"""

from __future__ import annotations

import abc
import gzip
import json
import os
import re
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

from .. import __version__
from ..memsim.stats import RunStats
from ..obs import get_logger

__all__ = [
    "RUN_HASH",
    "CacheCounters",
    "RunStore",
    "RunCache",
    "default_cache_dir",
]

_log = get_logger("experiments.cache")

#: Environment override for the cache location.
CACHE_DIR_ENV = "READDUO_SWEEP_CACHE"

#: On-disk layout version of the granular per-run entries (RunCache).
_RUN_FORMAT = 1

#: Subdirectory (under the cache root) holding per-run entries. The
#: cache *key* schema is versioned separately by
#: :data:`repro.experiments.spec.SPEC_HASH_FORMAT`.
RUN_CACHE_SUBDIR = "runs"

#: Granular entries whose serialized payload reaches this many bytes are
#: stored gzip-compressed. RunStats payloads for full-length workloads run
#: tens of KB of highly repetitive JSON (~5x compression); tiny smoke-test
#: entries stay plain so the common debugging case remains `cat`-able.
_DEFAULT_GZIP_MIN_BYTES = 4096

#: Fixed compression level. Together with ``mtime=0`` this makes the
#: compressed bytes a pure function of the payload, so two processes
#: storing the same run produce byte-identical files and a concurrent
#: last-write-wins store rewrites the same bytes.
_GZIP_LEVEL = 6

#: gzip stream magic; entries are sniffed on read so both formats coexist.
_GZIP_MAGIC = b"\x1f\x8b"

#: A run's key: :meth:`~repro.experiments.spec.SimSpec.run_hash`, a
#: lowercase sha256 hex digest. Any other string never reaches a path.
RUN_HASH = re.compile(r"[0-9a-f]{64}")


def default_cache_dir() -> Path:
    """The cache root: ``$READDUO_SWEEP_CACHE`` or ``results/.sweep-cache``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path("results") / ".sweep-cache"


@dataclass
class CacheCounters:
    """Hit/miss accounting for one :class:`RunStore` instance.

    Counted in **runs** (one run = one (workload, scheme) pair): a cold
    sweep reports all misses, a warm rerun all hits, and runs the
    in-process memo answers never reach the store at all. ``stale``
    counts load attempts that found an entry but could not use it
    (corrupt JSON, incompatible layout); each stale load also counts as
    a miss, since the run will be re-simulated.

    Attributes:
        hits: Runs served from the store.
        misses: Runs the store could not serve.
        stale: Unusable entries encountered.
        stores: Runs written to the store.
        quarantined: Unusable granular files renamed aside (``.bad``) so
            they cannot be retried and can be inspected post-mortem;
            every quarantine is also a stale (and missed) load.
    """

    hits: int = 0
    misses: int = 0
    stale: int = 0
    stores: int = 0
    quarantined: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stale": self.stale,
            "stores": self.stores,
            "quarantined": self.quarantined,
        }


class RunStore(abc.ABC):
    """Pluggable granular run-result store: ``run_hash -> RunStats``.

    The execution planner (and the :class:`~repro.service.ExecutionService`
    built on it) resolves every run unit through a store of this shape
    before simulating anything. :class:`RunCache` is the filesystem
    backend; :class:`~repro.service.store.MemoryRunStore` keeps entries
    in-process; any other backend only needs to implement this
    interface to plug into the same cache hierarchy.

    Contract: ``load`` returns the bit-exact :class:`RunStats` previously
    passed to ``store`` under the same key, or ``None`` — never raises on
    unusable entries (backends quarantine or drop them and count the
    event in ``counters``). Keys are :meth:`SimSpec.run_hash` content
    hashes, so a store never needs invalidation — superseded entries are
    simply never asked for again.

    Attributes:
        counters: Per-instance :class:`CacheCounters`, counted in runs.
    """

    counters: CacheCounters

    @abc.abstractmethod
    def load(self, key: str) -> Optional[RunStats]:
        """Return the stored statistics for one run hash, or ``None``."""

    @abc.abstractmethod
    def store(self, key: str, stats: RunStats) -> object:
        """Persist one run's statistics; returns a backend-specific handle."""

    def entry_bytes(self, key: str) -> Optional[int]:
        """Serialized size of one entry, or ``None`` when unknown/absent.

        Purely observability (the run ledger's ``cached_bytes`` field);
        backends without a cheap answer keep the default.
        """
        return None

    def entry_raw_bytes(self, key: str) -> Optional[int]:
        """Uncompressed payload size of one entry, or ``None``.

        Equal to :meth:`entry_bytes` for backends that store entries
        plain (the default); compressing backends override this so the
        ledger can report ``cached_bytes`` before and after compression.
        """
        return self.entry_bytes(key)

    def clear(self) -> int:
        """Drop every entry; returns how many were removed."""
        return 0


class RunCache(RunStore):
    """Granular per-run persistent store: one file per (workload, scheme) run.

    Lives under ``<root>/runs/``, with one JSON file per run keyed by
    :meth:`SimSpec.run_hash` — the content hash of the single-pair
    sub-spec. Because the key covers only what the run simulates, any
    two sweeps (an ablation varying one config knob, an extras driver
    adding one scheme, two figures sharing a subset) that imply the same
    simulation share the same entry, so incremental re-exploration only
    pays for genuinely new runs.

    Entries whose serialized payload reaches ``gzip_min_bytes``
    (4 KiB; set the attribute to 0 to disable compression) are
    stored gzip-compressed with a pinned level and zeroed mtime, making
    the file bytes a deterministic function of the payload; reads sniff
    the gzip magic so plain and compressed entries coexist transparently.

    Args:
        root: The cache root (default :func:`default_cache_dir`);
            entries go in its ``runs/`` subdirectory.

    Attributes:
        root: The cache root.
        cache_dir: ``<root>/runs``, where the entries live.
        counters: Per-instance :class:`CacheCounters`, counted in runs.
        gzip_min_bytes: The compression threshold in bytes (0 = never).
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root else default_cache_dir()
        self.cache_dir = self.root / RUN_CACHE_SUBDIR
        self.counters = CacheCounters()
        self.gzip_min_bytes = _DEFAULT_GZIP_MIN_BYTES

    def path_for(self, key: str) -> Path:
        """The file one run's statistics live in."""
        return self.cache_dir / f"{key}.json"

    def entry_bytes(self, key: str) -> Optional[int]:
        """On-disk size of one entry's file, or ``None`` when absent."""
        try:
            return self.path_for(key).stat().st_size
        except OSError:
            return None

    def entry_raw_bytes(self, key: str) -> Optional[int]:
        """Uncompressed payload size of one entry, or ``None`` when absent.

        For a gzip entry this reads the ISIZE trailer (the last four
        bytes of any gzip stream: uncompressed length mod 2**32) instead
        of decompressing; plain entries report their file size.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                if handle.read(2) != _GZIP_MAGIC:
                    return path.stat().st_size
                handle.seek(-4, os.SEEK_END)
                trailer = handle.read(4)
        except OSError:
            return None
        if len(trailer) != 4:
            return None
        return int(struct.unpack("<I", trailer)[0])

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move an unusable entry aside as ``<name>.bad`` and count it.

        Renaming (rather than deleting) keeps the evidence for
        post-mortems while guaranteeing the broken file is never parsed
        again — the next store recreates the entry cleanly. A rename
        race (another process already quarantined or replaced the file)
        is benign and ignored.
        """
        self.counters.stale += 1
        self.counters.misses += 1
        self.counters.quarantined += 1
        target = path.with_name(path.name + ".bad")
        try:
            os.replace(path, target)
        except OSError:
            _log.warning(
                "%s run cache entry %s; could not quarantine, re-simulating",
                reason, path,
            )
            return
        _log.warning(
            "%s run cache entry %s; quarantined to %s, re-simulating",
            reason, path, target.name,
        )

    def load(self, key: str) -> Optional[RunStats]:
        """Return the cached statistics for one run hash, or None.

        Unusable entries — truncated or garbage JSON, an incompatible
        layout, or a payload whose recorded key disagrees with its file
        name (e.g. a file copied to the wrong hash) — are *quarantined*:
        renamed to ``<name>.bad`` and counted, never raised. The caller
        simply re-simulates, and the subsequent store writes a fresh
        entry. A key that is not a run hash is a miss that touches no
        file.
        """
        if not RUN_HASH.fullmatch(key):
            self.counters.misses += 1
            return None
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
            if blob.startswith(_GZIP_MAGIC):
                blob = gzip.decompress(blob)
            payload = json.loads(blob.decode("utf-8"))
        except FileNotFoundError:
            self.counters.misses += 1
            return None
        except (OSError, ValueError, EOFError, zlib.error):
            # OSError covers gzip.BadGzipFile; EOFError a truncated
            # stream; zlib.error a corrupt deflate body.
            self._quarantine(path, "unreadable")
            return None
        try:
            if payload["format"] != _RUN_FORMAT:
                raise KeyError("format")
            # Entries written before the key was recorded stay valid
            # (missing key defaults to a match).
            if payload.get("key", key) != key:
                self._quarantine(path, "mismatched-key")
                return None
            stats = RunStats.from_dict(payload["stats"])
        except (KeyError, TypeError):
            self._quarantine(path, "stale")
            return None
        self.counters.hits += 1
        return stats

    def store(self, key: str, stats: RunStats) -> Path:
        """Persist one run's statistics; atomic against concurrent readers."""
        path = self.path_for(key)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": _RUN_FORMAT,
            "version": __version__,
            "key": key,
            "workload": stats.workload,
            "scheme": stats.scheme,
            # No sort_keys: category/cause dicts must keep insertion
            # order so order-sensitive float sums (e.g. total dynamic
            # energy) reproduce to the last ulp after a reload.
            "stats": stats.to_dict(),
        }
        # No sort_keys (see payload comment); compact separators keep the
        # raw bytes — and therefore the compressed bytes — canonical.
        blob = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        if self.gzip_min_bytes and len(blob) >= self.gzip_min_bytes:
            # mtime=0 + fixed level: compressed bytes are a pure function
            # of the payload, so concurrent writers on any machine emit
            # byte-identical files and last-write-wins is a no-op.
            blob = gzip.compress(blob, compresslevel=_GZIP_LEVEL, mtime=0)
        # One temp name per writing thread: the serve daemon stores from
        # its event loop and its executor threads at once, and a name
        # shared by two writers lets one rename away the other's file.
        tmp = path.with_name(
            f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}"
        )
        try:
            with open(tmp, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self.counters.stores += 1
        return path

    def clear(self) -> int:
        """Delete every cached run (quarantined files included)."""
        removed = 0
        if self.cache_dir.is_dir():
            for pattern in ("*.json", "*.json.bad"):
                for entry in self.cache_dir.glob(pattern):
                    try:
                        entry.unlink()
                        removed += 1
                    except OSError:
                        pass
        return removed
