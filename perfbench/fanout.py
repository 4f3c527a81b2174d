"""Closed loops measured across several fresh processes.

A process keeps the speed it starts with: on a shared host two runs of
one loop in two processes differ by 15-25% while the same process stays
within ~6% (address layout and placement are fixed at start).  An
in-process workload therefore splits its measuring time over ``PARTS``
fresh processes, one after the other, and reports medians over all of
them, so one unlucky process cannot move a run.

Each part is a plain child process (``python3 perfbench/fanout.py``)
that pickles its outcome to a file; the parent waits for it to end, and
kills and reaps it on any way out, so no helper process outlives a run.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from typing import List

import common
from common import Outcome

#: Seconds a part may overrun its share before the run gives up on it.
PART_GRACE_S = 120.0


def load_workload(name: str):
    import wl_designer
    import wl_enumerate
    import wl_serve
    import wl_shell

    return {
        "designer-loop": wl_designer,
        "shell-loop": wl_shell,
        "serve-mix": wl_serve,
        "enumerate": wl_enumerate,
    }[name]


def run_part(name: str, seed: int, seconds: float, part: int,
             parts: int) -> Outcome:
    """One part, in a fresh process: set up (timed as in the parent),
    run, close."""
    sys.path.insert(0, common.SRC)
    wl = load_workload(name)
    state, setup_s, _ = common.timed_setups(wl, seed, seconds)
    try:
        out = wl.run(state, seconds, part=(part, parts))
    finally:
        wl.close(state)
    out.extra["part_setup_s"] = [setup_s]
    return out


def run_parts(wl, seed: int, seconds: float) -> Outcome:
    """``wl.PARTS`` parts of ``seconds / wl.PARTS`` each, merged."""
    outs: List[Outcome] = []
    share = seconds / wl.PARTS
    result = os.path.join(common.workdir("parts"), f"part-{os.getpid()}.pkl")
    for part in range(wl.PARTS):
        argv = [sys.executable, os.path.abspath(__file__), wl.NAME,
                str(seed), repr(share), str(part), str(wl.PARTS), result]
        # The part's stdout goes to our stderr: the last line of our
        # stdout is the result.
        proc = subprocess.Popen(argv, cwd=common.ROOT, env=common.child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=sys.stderr.fileno())
        try:
            code = proc.wait(timeout=share + PART_GRACE_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            raise RuntimeError(f"{wl.NAME} part {part} exited with {code}")
        with open(result, "rb") as handle:
            outs.append(pickle.load(handle))
        os.remove(result)
    return merge(outs)


def merge(outs: List[Outcome]) -> Outcome:
    """One outcome from several parts: operations, counts and
    list-valued extras concatenated; verdicts checked for agreement."""
    merged = Outcome()
    for out in outs:
        merged.op_ms += out.op_ms
        merged.op_trials += out.op_trials
        merged.attempted += out.attempted
        merged.failed += out.failed
        merged.peak_rss_mb = max(merged.peak_rss_mb, out.peak_rss_mb)
        merged.conflicts += out.conflicts
        for key, doc in out.verdicts.items():
            merged.record(key, doc)
        for key, value in out.extra.items():
            if isinstance(value, list):
                merged.extra.setdefault(key, []).extend(value)
            elif isinstance(value, (int, float)):
                merged.extra[key] = merged.extra.get(key, 0) + value
    return merged


def main(argv: List[str]) -> int:
    """Child entry: ``fanout.py NAME SEED SECONDS PART PARTS OUT``."""
    name, seed, seconds, part, parts, path = argv
    out = run_part(name, int(seed), float(seconds), int(part), int(parts))
    with open(path, "wb") as handle:
        pickle.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
