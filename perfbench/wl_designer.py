"""``designer-loop``: the paper's section 2.7 loop, in process.

A closed loop with one client.  Each visit opens a fresh session from a
generated project document and checks it (the cold check), then replays
a seeded walk of legal moves; each timed step is one move plus
``session.check()`` with its defaults.  Imports, disk and HTTP do no
work here: the warm evaluation context and BAD on the two dirty
partitions do.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

import inputs
import oracle
from common import Outcome, self_peak_rss_mb
from repro.io.project import load_project
from spans import NO_SPANS

NAME = "designer-loop"
#: Fresh processes a run's measuring time is split over (see fanout).
PARTS = 3


def setup(seed: int, seconds: float) -> List[inputs.Visit]:
    return inputs.designer_inputs(seed)


def close(state: Any) -> None:
    pass


def run(visits: List[inputs.Visit], seconds: float, spans: Any = NO_SPANS,
        part: Tuple[int, int] = (0, 1)) -> Outcome:
    """Visit projects round-robin for ``seconds``; part ``(i, n)``
    starts i/n of the way through the visits."""
    out = Outcome()
    cold_ms: List[float] = []
    deadline = time.perf_counter() + seconds
    first = index = part[0] * len(visits) // part[1]
    while time.perf_counter() < deadline:
        visit_no = index % len(visits)
        visit = visits[visit_no]
        index += 1
        with spans.span("io.load_project"):
            session = load_project(visit.doc)
        ms, result = _check(session, f"{visit_no}:0", spans, out)
        if result is None:
            continue
        cold_ms.append(ms)
        for step, move in enumerate(visit.moves, start=1):
            rid = f"{visit_no}:{step}"
            t0 = time.perf_counter()
            with spans.span("step", rid=rid):
                with spans.span("core.session.move", rid=rid):
                    inputs.apply_move(session, move)
                with spans.span("core.session.check", rid=rid):
                    result = _search(session, out)
            elapsed = time.perf_counter() - t0
            if result is None:
                break
            out.add_op(elapsed, result.trials)
            out.record(rid, oracle.verdict(result))
            if time.perf_counter() >= deadline:
                break
    out.peak_rss_mb = self_peak_rss_mb()
    out.extra["cold_check_p50_ms"] = cold_ms
    out.extra["visits"] = index - first
    return out


def _search(session, out: Outcome):
    out.attempted += 1
    try:
        return session.check()
    except Exception as exc:  # counted, never fatal: one failed step
        out.failed += 1
        out.extra.setdefault("errors", []).append(repr(exc))
        return None


def _check(session, rid: str, spans: Any, out: Outcome):
    t0 = time.perf_counter()
    with spans.span("core.session.check", rid=rid, cold=True):
        result = _search(session, out)
    ms = (time.perf_counter() - t0) * 1e3
    if result is not None:
        out.record(rid, oracle.verdict(result))
    return ms, result


def reference(visits: List[inputs.Visit], key: str) -> Dict[str, Any]:
    """The verdict of state ``visit:step`` from a cold session."""
    visit_no, step = (int(x) for x in key.split(":"))
    visit = visits[visit_no]
    return oracle.verdict(inputs.replay(visit.doc, visit.moves[:step]).check())


def verify(visits: List[inputs.Visit], out: Outcome, seed: int,
           bad: oracle.Mismatches) -> None:
    """Golden seeds: every verdict against the golden.  Other seeds:
    each visit's last state reached against a cold session."""
    bad.expect(not out.conflicts,
               f"{NAME}: repeated states disagree: {out.conflicts[:5]}")
    golden = oracle.load_golden(NAME, seed)
    if golden is not None:
        oracle.check_against(bad, golden["verdicts"], out.verdicts, NAME)
    else:
        last: Dict[int, int] = {}
        for key in out.verdicts:
            visit_no, step = (int(x) for x in key.split(":"))
            last[visit_no] = max(step, last.get(visit_no, 0))
        for visit_no, step in sorted(last.items()):
            key = f"{visit_no}:{step}"
            bad.expect(
                reference(visits, key) == out.verdicts[key],
                f"{NAME}: state {key} differs from a cold session",
            )
    oracle.check_paper_tables(bad)


def golden(visits: List[inputs.Visit]) -> Dict[str, Any]:
    keys = [f"{v}:{s}" for v, visit in enumerate(visits)
            for s in range(len(visit.moves) + 1)]
    return {"verdicts": {k: oracle.digest(reference(visits, k)) for k in keys}}
