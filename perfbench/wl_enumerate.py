"""``enumerate``: full enumerations on warm sessions.

Set-up opens a session per generated project and computes its pruned
predictions; each timed operation is then
``session.check(heuristic="enumeration")`` with its default engine
arguments.  BAD does no work here; ``search.enumeration``, the
per-combination integration and the engine/kernels do.  The run walks
the projects round-robin and stops at the end of the cycle in which the
time ran out, so every run sees the same mix.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

import inputs
import oracle
from common import Outcome, self_peak_rss_mb
from repro.io.project import load_project
from spans import NO_SPANS

NAME = "enumerate"
#: Fresh processes a run's measuring time is split over (see fanout).
PARTS = 3

State = List[Tuple[inputs.EnumerateProject, Any]]


def setup(seed: int, seconds: float) -> State:
    state = []
    for project in inputs.enumerate_inputs(seed):
        session = load_project(project.doc)
        session.pruned_predictions()
        state.append((project, session))
    return state


def close(state: Any) -> None:
    pass


def run(state: State, seconds: float, spans: Any = NO_SPANS,
        part: Tuple[int, int] = (0, 1)) -> Outcome:
    """Whole cycles over the projects until ``seconds`` have passed;
    every part runs the same cycle."""
    out = Outcome()
    deadline = time.perf_counter() + seconds
    cycles = 0
    while time.perf_counter() < deadline:
        cycles += 1
        for index, (project, session) in enumerate(state):
            rid = f"{index}"
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                with spans.span("core.session.check", rid=rid,
                                heuristic="enumeration"):
                    result = session.check(heuristic="enumeration")
            except Exception as exc:  # counted, never fatal
                out.failed += 1
                out.extra.setdefault("errors", []).append(repr(exc))
                continue
            elapsed = time.perf_counter() - t0
            out.add_op(elapsed, result.trials)
            out.record(rid, oracle.verdict(result))
    out.peak_rss_mb = self_peak_rss_mb()
    out.extra["cycles"] = cycles
    return out


def reference(project: inputs.EnumerateProject) -> Dict[str, Any]:
    """The same enumeration through the vectorized kernel on a fresh
    session: an independent evaluation path."""
    session = load_project(project.doc)
    return oracle.verdict(
        session.check(heuristic="enumeration", kernel="vectorized")
    )


def verify(state: State, out: Outcome, seed: int,
           bad: oracle.Mismatches) -> None:
    bad.expect(not out.conflicts,
               f"{NAME}: repeated checks disagree: {out.conflicts}")
    golden = oracle.load_golden(NAME, seed)
    if golden is not None:
        oracle.check_against(bad, golden["verdicts"], out.verdicts, NAME)
    else:
        for key, doc in sorted(out.verdicts.items()):
            bad.expect(
                reference(state[int(key)][0]) == doc,
                f"{NAME}: project {key} differs from the vectorized kernel",
            )
    oracle.check_paper_tables(bad)


def golden(state: State) -> Dict[str, Any]:
    return {"verdicts": {
        str(i): oracle.digest(reference(project))
        for i, (project, _) in enumerate(state)
    }}
