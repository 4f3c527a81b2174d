"""``serve-mix``: open-loop HTTP traffic against a two-process fleet.

Set-up starts ``python -m repro.cli serve --procs 2``, uploads a pool of
projects and checks each once, so their verdicts are cached.  The run
then offers a fixed ladder of rates over at most two persistent
connections.  Every 10th request uploads a fresh one-move variant and
checks it (a miss: the owner worker predicts in full); the rest check a
pool project (a verdict-cache hit, which the fleet forwards about half
the time).  Latency is timed from each request's due time.  Limits:
50 ms for a hit, 1000 ms for a miss (section 3.1's "under a second").
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import inputs
import oracle
from common import Outcome, child_env, workdir
from httpload import Client, Server, open_loop
from repro.io.project import load_project, project_fingerprint
from spans import NO_SPANS
from stats import (
    Request, StepReport, account_step, median, percentile,
    step_meets_limits, tail_or_max,
)

NAME = "serve-mix"
LIMITS_MS = {"hit": 50.0, "miss": 1000.0}
REFERENCE_RPS = 15.0
#: (rate multiple of the reference, share of the run); the first step
#: is the reference rate.  The top step offers more than two
#: connections sustain (about 30 req/s here), so its completion rate
#: is the server's capacity; it overruns its share by the backlog it
#: builds.
LADDER = ((1.0, 0.8), (2.0, 0.1), (8.0, 0.05))
MISS_EVERY = 10


@dataclass
class State:
    server: Server
    seed: int
    pool: List[Dict[str, Any]]
    pool_ids: List[str]
    misses: List[Dict[str, Any]]
    schedule: List[Tuple[float, float, float]] = field(default_factory=list)
    #: Which pool project each request would check if it is a hit.
    hit_targets: List[int] = field(default_factory=list)
    #: Misses already uploaded by earlier runs on this set-up.
    next_miss: int = 0


def ladder(seconds: float) -> List[Tuple[float, float, float]]:
    """(rate, start offset, duration) per step."""
    steps = []
    offset = 0.0
    for multiple, share in LADDER:
        steps.append((REFERENCE_RPS * multiple, offset, seconds * share))
        offset += seconds * share
    return steps


def miss_count(seconds: float) -> int:
    total = sum(int(rate * dur) for rate, _, dur in ladder(seconds))
    return total // MISS_EVERY + 1


#: Pool projects per fleet worker.  A pool owned half by each worker
#: makes half of all hits forwarded whichever worker a connection lands
#: on, so the forwarded share, and with it the hit latency, does not
#: depend on how the kernel spreads the connections.
POOL_PER_WORKER = 3
FLEET_PROCS = 2
POOL_DRAWS = 200


def setup(seed: int, seconds: float) -> State:
    cells = inputs.serve_cells()
    misses = inputs.variants(seed, "serve-miss", cells, miss_count(seconds))
    server = Server(procs=FLEET_PROCS)
    try:
        pool, ids = _balanced_pool(server, seed, cells)
    except BaseException:
        server.close()
        raise
    return State(server, seed, pool, ids, misses, ladder(seconds))


def _balanced_pool(server: Server, seed: int, cells):
    """Upload the cells, then one-move variants of them, keeping the
    first POOL_PER_WORKER owned by each worker; check each kept project
    once so its verdict is cached."""
    client = Client(server.port)
    kept: Dict[str, List[Tuple[Dict[str, Any], str]]] = {}
    seen = set()
    index = 0
    candidates = iter(cells)
    while sum(len(v) for v in kept.values()) < POOL_PER_WORKER * FLEET_PROCS:
        if index > POOL_DRAWS:
            raise RuntimeError("no balanced pool: one worker owns every draw")
        doc = next(candidates, None)
        if doc is None:
            doc = inputs.one_move_variant(
                seed, "serve-pool", index, cells[index % len(cells)])
            index += 1
        key = project_fingerprint(doc)
        if key in seen:
            continue
        seen.add(key)
        status, body = client.request(
            "POST", "/projects", json.dumps(doc).encode())
        if status not in (200, 201):
            raise RuntimeError(f"pool upload failed: {status} {body}")
        owned = kept.setdefault(client.last_worker or "0", [])
        if len(owned) < POOL_PER_WORKER:
            owned.append((doc, body["project_id"]))
    pool, ids = [], []
    for owner in sorted(kept):
        for doc, project_id in kept[owner]:
            status, body = client.request(
                "POST", f"/projects/{project_id}/check", b"{}")
            if status != 200:
                raise RuntimeError(f"pool check failed: {status} {body}")
            pool.append(doc)
            ids.append(project_id)
    client.close()
    return pool, ids


def close(state: State) -> None:
    state.server.close()


def build_requests(state: State) -> List[List[Request]]:
    """Per ladder step, its requests with due times relative to the
    start of the stream."""
    rng = inputs.stream(state.seed, "serve", "hits")
    steps = []
    index = 0
    for rate, offset, duration in state.schedule:
        reqs = []
        for k in range(int(rate * duration)):
            kind = "miss" if index % MISS_EVERY == MISS_EVERY - 1 else "hit"
            reqs.append(Request(index, kind, offset + k / rate))
            index += 1
        steps.append(reqs)
    # Hits walk the pool in seeded shuffled rounds, so every project is
    # checked equally often.
    targets: List[int] = []
    while len(targets) < index:
        round_ = list(range(len(state.pool)))
        rng.shuffle(round_)
        targets.extend(round_)
    state.hit_targets = targets
    return steps


def run(state: State, seconds: float, spans: Any = NO_SPANS) -> Outcome:
    out = Outcome()
    steps = build_requests(state)
    flat = [req for step in steps for req in step]
    miss_of = {}
    for req in flat:
        if req.kind == "miss":
            miss_of[req.index] = state.next_miss + len(miss_of)
    state.next_miss += len(miss_of)
    if len(state.misses) < state.next_miss:
        # A second run on one set-up (the traced run) needs fresh misses;
        # the draw is prefix-stable, so the first ones are unchanged.
        state.misses = inputs.variants(
            state.seed, "serve-miss", inputs.serve_cells(), state.next_miss)
    start = time.perf_counter() + 0.05
    for req in flat:
        req.due += start
    trials: Dict[int, int] = {}

    def action(client: Client, req: Request) -> None:
        with spans.span(f"http.{req.kind}", rid=str(req.index)):
            if req.kind == "miss":
                j = miss_of[req.index]
                key = f"miss{j}"
                upload = json.dumps(state.misses[j]).encode()
                status, body = client.request("POST", "/projects", upload)
                if status not in (200, 201):
                    req.error = f"upload {status}"
                    return
                project_id = body["project_id"]
            else:
                target = state.hit_targets[req.index]
                key = f"pool{target}"
                project_id = state.pool_ids[target]
            status, body = client.request(
                "POST", f"/projects/{project_id}/check", b"{}")
            if status != 200:
                req.error = f"check {status}"
                return
            trials[req.index] = body["result"]["trials"]
            out.record(key, oracle.verdict(body["result"]))

    counters = open_loop(state.server.port, flat, action)
    reports = [
        account_step(rate, reqs, LIMITS_MS)
        for (rate, _, _), reqs in zip(state.schedule, steps)
    ]
    ref, ref_reqs = reports[0], steps[0]
    out.attempted = len(flat)
    out.failed = sum(r.failed for r in reports)
    for req in ref_reqs:
        if req.ok:
            out.add_op(req.latency_s, trials.get(req.index, 0))
    # The rate is the top step's: offered above what two connections
    # sustain, it reads the server's capacity, while the reference
    # step would only read its own offered rate back.
    top = reports[-1]
    top_trials = [trials[r.index] for r in steps[-1] if r.ok]
    out.rate = (top.achieved_rps,
                top.achieved_rps * sum(top_trials) / max(1, len(top_trials)))
    out.peak_rss_mb = state.server.peak_rss_mb()
    _ref_figures(out, ref)
    passing = [r.rate for r in reports if step_meets_limits(r, LIMITS_MS)]
    out.extra["max_rate_rps"] = max(passing) if passing else 0.0
    out.extra["limit_miss_ratio"] = ref.limit_miss_ratio
    lags = [lag for r in reports for lag in r.lag_ms]
    out.extra["loadgen.lag_p99_ms"] = percentile(lags, 99)
    out.extra["loadgen.achieved_rps"] = ref.achieved_rps
    out.extra["connects"] = counters["connects"]
    out.extra["steps"] = [
        {"rate": r.rate, "attempted": r.attempted, "failed": r.failed,
         "limit_missed": r.limit_missed, "backlog": r.growing_backlog,
         "achieved_rps": r.achieved_rps}
        for r in reports
    ]
    out.extra["errors"] = sorted({r.error for r in flat if r.error})[:5]
    out.extra["ref_latency_ms"] = {
        kind: ref.latency_ms.get(kind, []) for kind in ("hit", "miss")}
    return out


def _ref_figures(out: Outcome, ref: StepReport) -> None:
    for kind in ("hit", "miss"):
        values = ref.latency_ms.get(kind, [])
        if not values:
            continue
        out.extra[f"{kind}_p50_ms"] = median(values)
        t = tail_or_max(values)
        out.extra[f"{kind}_tail_ms"] = t.value
        out.tails[f"{kind}_tail_ms"] = t.record()


def library(doc: Dict[str, Any]) -> Dict[str, Any]:
    return oracle.verdict(load_project(doc).check())


def verify(state: State, out: Outcome, seed: int,
           bad: oracle.Mismatches) -> None:
    """HTTP verdicts against the library (every pool project, every
    third miss) or the golden; and one pool project through the CLI."""
    bad.expect(not out.conflicts,
               f"{NAME}: repeated checks disagree: {out.conflicts[:5]}")
    golden = oracle.load_golden(NAME, seed)
    if golden is not None:
        oracle.check_against(bad, golden["verdicts"], out.verdicts, NAME)
    else:
        for key, doc in sorted(out.verdicts.items()):
            if key.startswith("miss") and int(key[4:]) % 3:
                continue
            source = (state.pool[int(key[4:])] if key.startswith("pool")
                      else state.misses[int(key[4:])])
            bad.expect(library(source) == doc,
                       f"{NAME}: {key} differs between HTTP and library")
    _cli_agrees(state, bad)


def _cli_agrees(state: State, bad: oracle.Mismatches) -> None:
    path = os.path.join(workdir(NAME), f"pool0-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(state.pool[0], handle)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "check", path], env=child_env(),
        capture_output=True, text=True, timeout=60,
    )
    os.unlink(path)
    result = load_project(state.pool[0]).check()
    want = oracle.mask_cli(oracle.render_cli(
        result, len(state.pool[0]["partitions"]), ""))
    bad.expect(oracle.mask_cli(proc.stdout) == want,
               f"{NAME}: CLI and library disagree on pool project 0")


def golden(state: State) -> Dict[str, Any]:
    verdicts = {f"pool{i}": oracle.digest(library(doc))
                for i, doc in enumerate(state.pool)}
    verdicts.update({f"miss{j}": oracle.digest(library(doc))
                     for j, doc in enumerate(state.misses)})
    return {"verdicts": verdicts}
