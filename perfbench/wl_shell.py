"""``shell-loop``: a designer at the shell, one CLI process per step.

A closed loop with one client.  Each step runs
``python -m repro.cli check --disk-cache DIR file.json`` in a new
process, with a fresh DIR per run.  The files form a seeded variant
sequence: every 4th step re-runs the previous file unchanged (a
disk-cache read), the others are one move away from an earlier file (a
miss plus a write).  Interpreter start, imports, cold BAD and the disk
backend do the work; the in-memory evaluation context does none.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import inputs
import oracle
from common import Outcome, child_env, children_peak_rss_mb, workdir
from repro.io.project import load_project
from spans import NO_SPANS

NAME = "shell-loop"
#: Files in the sequence; more than a run on a fast machine gets through.
SEQUENCE = 80
STEP_TIMEOUT_S = 60.0

_dirs = itertools.count()


@dataclass
class State:
    directory: str
    docs: List[Dict[str, Any]]
    #: Per step: the file it checks (re-runs repeat the previous path).
    paths: List[str]


def setup(seed: int, seconds: float) -> State:
    directory = workdir(NAME, f"seed{seed}-{os.getpid()}-{next(_dirs)}")
    docs = inputs.shell_inputs(seed, SEQUENCE)
    paths: List[str] = []
    for index, doc in enumerate(docs):
        if index and doc is docs[index - 1]:
            paths.append(paths[-1])
            continue
        path = os.path.join(directory, f"step{index:03d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        paths.append(path)
    return State(directory, docs, paths)


def close(state: State) -> None:
    shutil.rmtree(state.directory, ignore_errors=True)


def cli_trials(stdout: str) -> int:
    """The Trials cell of the first result row of ``check``'s table."""
    for line in stdout.splitlines():
        cells = line.split()
        if len(cells) >= 6 and cells[2] in ("I", "E"):
            return int(cells[4])
    return 0


def run(state: State, seconds: float, spans: Any = NO_SPANS) -> Outcome:
    out = Outcome()
    cache = os.path.join(state.directory, f"cache-{next(_dirs)}")
    env = child_env()
    deadline = time.perf_counter() + seconds
    texts: Dict[str, str] = {}
    for step, path in enumerate(itertools.cycle(state.paths)):
        if time.perf_counter() >= deadline:
            break
        argv = [sys.executable, "-m", "repro.cli", "check", "--disk-cache",
                cache, path]
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            with spans.span("cli.check_process", rid=str(step)):
                proc = subprocess.run(
                    argv, env=env, capture_output=True, text=True,
                    timeout=STEP_TIMEOUT_S, cwd=os.getcwd(),
                )
        except (OSError, subprocess.SubprocessError):
            out.failed += 1
            continue
        elapsed = time.perf_counter() - t0
        # Exit 1 is the CLI's "no feasible implementation" verdict,
        # which the oracle checks like any other; anything else failed.
        if proc.returncode not in (0, 1):
            out.failed += 1
            continue
        out.add_op(elapsed, cli_trials(proc.stdout))
        texts[str(step)] = oracle.mask_cli(proc.stdout)
    out.peak_rss_mb = children_peak_rss_mb()
    out.extra["cli_texts"] = texts
    out.extra["cache_dir"] = cache
    return out


def expected_text(state: State, step: int,
                  library: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
    """The masked stdout the library says step ``step`` must print, and
    the library verdict behind it."""
    n = len(state.paths)
    path = state.paths[step % n]
    doc = state.docs[state.paths.index(path)]
    if path not in library:
        library[path] = load_project(doc).check()
    result = library[path]
    partitions = len(doc["partitions"])
    seen_before = step >= n or path in state.paths[:step]
    cache_line = (
        f"disk cache: hit — {partitions} partition prediction lists "
        f"seeded from <dir>"
        if seen_before
        else "disk cache: miss — predictions stored in <dir>"
    )
    text = oracle.mask_cli(oracle.render_cli(result, partitions, cache_line))
    return text, oracle.verdict(result)


def verify(state: State, out: Outcome, seed: int,
           bad: oracle.Mismatches) -> None:
    """The CLI's masked stdout must match the library's verdict rendered
    the same way, and on golden seeds the golden text and verdict."""
    golden = oracle.load_golden(NAME, seed)
    library: Dict[str, Any] = {}
    texts = out.extra["cli_texts"]
    for key in sorted(texts, key=int):
        text = texts[key]
        want, doc = expected_text(state, int(key), library)
        bad.expect(text == want,
                   f"{NAME}: step {key} CLI stdout differs from the library")
        if golden is not None and int(key) < len(state.paths):
            bad.expect(
                oracle.digest({"text": text}) == golden["cli"].get(key),
                f"{NAME}: step {key} CLI stdout differs from golden",
            )
            bad.expect(
                oracle.digest(doc) == golden["verdicts"].get(key),
                f"{NAME}: step {key} verdict differs from golden",
            )


def golden(state: State) -> Dict[str, Any]:
    library: Dict[str, Any] = {}
    cli: Dict[str, str] = {}
    verdicts: Dict[str, str] = {}
    for step in range(len(state.paths)):
        text, doc = expected_text(state, step, library)
        cli[str(step)] = oracle.digest({"text": text})
        verdicts[str(step)] = oracle.digest(doc)
    return {"cli": cli, "verdicts": verdicts}
