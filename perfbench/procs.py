"""Paths, program environment and child-process helpers.

The benchmark runs from the root of a source checkout and drives the
program in ``src/`` from there. Everything it writes — caches, the
compiled timeline kernel, temporary files, run records — goes under
``.perfbench-work/`` in that checkout.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
PYTHON = sys.executable

#: The CPUs this process may use, read before anything is pinned.
CPUS = sorted(os.sched_getaffinity(0))

#: Every child is killed after this long; one benchmark run must end
#: within 180 s, so no single program invocation may take longer.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed child)."""


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program sources at {SRC / 'repro'}: run from the root of "
            "a checkout"
        )


def make_run_dir() -> Path:
    """Create this run's temporary directory and point ``TMPDIR`` at it.

    Every child inherits it, so caches, daemons' stores and stderr logs
    of one run all land there; the caller removes it when the run ends.
    """
    for sub in ("tmp", "native", "records"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=WORK / "tmp")
    os.environ["TMPDIR"] = run_dir
    tempfile.tempdir = run_dir
    return Path(run_dir)


def fresh_dir(prefix: str) -> Path:
    return Path(tempfile.mkdtemp(prefix=prefix))


def program_env(cache_dir: Optional[Path] = None) -> Dict[str, str]:
    """Environment for a program process: sources on the path, every
    cache inside the work directory, no inherited ``READDUO_*`` knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("READDUO_")}
    env["PYTHONPATH"] = str(SRC)
    env["READDUO_NATIVE_CACHE"] = str(WORK / "native")
    if cache_dir is not None:
        env["READDUO_SWEEP_CACHE"] = str(cache_dir)
    return env


def use_program_in_process() -> None:
    """Make ``import repro`` in this process load the checkout's sources."""
    for key in [k for k in os.environ if k.startswith("READDUO_")]:
        del os.environ[key]
    os.environ["READDUO_NATIVE_CACHE"] = str(WORK / "native")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass
class Finished:
    """A child that has exited: its output, wall time and peak RSS."""

    returncode: int
    stdout: bytes
    wall_s: float
    maxrss_mb: float
    stderr_path: Path

    def check(self, what: str) -> "Finished":
        if self.returncode != 0:
            tail = self.stderr_path.read_text(errors="replace")[-2000:]
            raise BenchError(f"{what} exited with {self.returncode}:\n{tail}")
        return self


class Child:
    """A child process whose stdout is read here and whose rusage is kept.

    ``wait4`` reaps the child itself, so the peak RSS reported is that
    child's own, not the maximum over every child this process had.
    A timer kills the child after :data:`CHILD_TIMEOUT_S`.
    """

    def __init__(self, argv: Sequence[str], env: Dict[str, str]) -> None:
        fd, name = tempfile.mkstemp(prefix="stderr-", suffix=".txt")
        self.stderr_path = Path(name)
        self.started = time.perf_counter()
        with os.fdopen(fd, "wb") as stderr:
            self.proc = subprocess.Popen(
                list(argv), env=env, cwd=str(ROOT), stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=stderr,
            )
        self._timer = threading.Timer(CHILD_TIMEOUT_S, self.kill)
        self._timer.daemon = True
        self._timer.start()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def readline(self) -> bytes:
        assert self.proc.stdout is not None
        return self.proc.stdout.readline()

    def kill(self) -> None:
        if self.proc.returncode is None:
            try:
                self.proc.kill()
            except ProcessLookupError:
                pass

    def interrupt(self) -> None:
        if self.proc.returncode is None:
            try:
                self.proc.send_signal(signal.SIGINT)
            except ProcessLookupError:
                pass

    def finish(self) -> Finished:
        """Read the rest of stdout, reap the child and report on it."""
        assert self.proc.stdout is not None
        rest = self.proc.stdout.read()
        self.proc.stdout.close()
        _pid, status, usage = os.wait4(self.proc.pid, 0)
        wall = time.perf_counter() - self.started
        self._timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return Finished(
            returncode=self.proc.returncode,
            stdout=rest,
            wall_s=wall,
            maxrss_mb=usage.ru_maxrss / 1024.0,
            stderr_path=self.stderr_path,
        )

    def stop(self, grace_s: float = 10.0) -> Finished:
        """Interrupt the child, kill it if it lingers, and reap it."""
        self.interrupt()
        killer = threading.Timer(grace_s, self.kill)
        killer.daemon = True
        killer.start()
        try:
            return self.finish()
        finally:
            killer.cancel()


def run_child(argv: Sequence[str], env: Dict[str, str]) -> Finished:
    """Spawn, wait for exit; ``wall_s`` runs from spawn to exit."""
    return Child(argv, env).finish()


def program(*args: str) -> List[str]:
    """argv for one ``readduo`` invocation from the checkout's sources."""
    return [PYTHON, "-m", "repro", *args]


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process (``VmHWM``)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a live process."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def connections() -> int:
    """Load-generator connection bound: the number of usable CPUs."""
    return len(CPUS)


def machine_probe() -> float:
    """Seconds for a fixed pure-Python workload (median of three).

    A diagnostic recorded at the start and end of every run, never a
    metric: it tells drift of the machine apart from a program change.
    """
    def once() -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        json.dumps([str(i) for i in range(20_000)])
        return time.perf_counter() - start

    samples = sorted(once() for _ in range(3))
    return samples[1]


def build_program() -> None:
    """Byte-compile the sources and the native kernel before timing.

    The first run in a checkout pays both; later runs find them in
    ``__pycache__`` and ``.perfbench-work/native``. The import also warms
    the page cache, so the set-up samples that follow are comparable.
    """
    code = (
        "import repro.cli\n"
        "from repro.memsim.native import load_timeline\n"
        "load_timeline()\n"
    )
    run_child([PYTHON, "-c", code], program_env()).check("program build")
