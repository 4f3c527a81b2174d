"""Paths, process helpers and the host/run record shared by workloads."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: The checkout the benchmark runs in (its working directory).
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
#: Working space for generated files, cache directories and traces.
WORK = os.path.join(ROOT, ".perfbench")
#: Set-ups per process: at least SETUP_MIN, more while they have taken
#: less than SETUP_BUDGET_S, at most SETUP_MAX; setup_s is their median.
SETUP_MIN = 3
SETUP_MAX = 15
SETUP_BUDGET_S = 1.5


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def child_env() -> Dict[str, str]:
    """Environment for program subprocesses: the checkout's sources on
    the path and the program's structured logging left off."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("CHOP_LOG", None)
    return env


def workdir(*parts: str) -> str:
    path = os.path.join(WORK, *parts)
    os.makedirs(path, exist_ok=True)
    return path


def self_peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """The largest waited-for child's peak RSS."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """A live process's peak RSS (VmHWM), 0 if it has gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def proc_children(pid: int) -> List[int]:
    """Direct children of ``pid`` (from /proc/<pid>/task/*/children)."""
    out: List[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                out.extend(int(x) for x in handle.read().split())
    except OSError:
        pass
    return out


def thread_count(pid: int) -> int:
    try:
        return len(os.listdir(f"/proc/{pid}/task"))
    except OSError:
        return 0


def timed_setups(wl, seed: int, seconds: float):
    """Set up several times (cheap set-ups more often, so their median
    steadies); keep the last state, report the median time."""
    times = []
    state = None
    while len(times) < SETUP_MIN or (
        len(times) < SETUP_MAX and sum(times) < SETUP_BUDGET_S
    ):
        if state is not None:
            wl.close(state)
        t0 = time.perf_counter()
        state = wl.setup(seed, seconds)
        times.append(time.perf_counter() - t0)
    return state, statistics.median(times), times


@dataclass
class Outcome:
    """What one timed workload run measured."""

    #: Timed operations (ms) and their ``SearchResult.trials``, in
    #: completion order.
    op_ms: List[float] = field(default_factory=list)
    op_trials: List[int] = field(default_factory=list)
    #: (checks per second, trials per second) of an open loop; a closed
    #: loop's rates follow from ``op_ms`` and ``op_trials``.
    rate: Optional[Tuple[float, float]] = None
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    #: Workload-specific figures for the report (name -> (value, unit)).
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Tail records (name -> {value, pct, samples}) for the run record.
    tails: Dict[str, Any] = field(default_factory=dict)
    #: First verdict seen per workload state; a later verdict for the
    #: same state that differs lands in ``conflicts``.
    verdicts: Dict[str, Any] = field(default_factory=dict)
    conflicts: List[str] = field(default_factory=list)

    def add_op(self, seconds: float, trials: int) -> None:
        self.op_ms.append(seconds * 1e3)
        self.op_trials.append(trials)

    def record(self, key: str, doc: Dict[str, Any]) -> None:
        if self.verdicts.setdefault(key, doc) != doc:
            self.conflicts.append(key)


def host_record(seed: int, workload: str, trace: bool) -> Dict[str, Any]:
    """Where and with what the run was made."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _commit(),
        "loadavg_start": list(os.getloadavg()),
        "started_unix": time.time(),
        "platform": platform.platform(),
    }


def _commit() -> Optional[str]:
    """The checkout's commit when it is a git work tree, else None."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None
