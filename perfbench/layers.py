"""The traced run: per-layer metrics from spans around layer calls.

``traced_run`` first runs the chosen workload twice on one set-up,
untraced and then with spans, which gives ``bench.trace_overhead_ratio``
and checks the traced verdicts.  It then runs the layer probes, the same
for every workload, each on the inputs of the workload it informs.
Every probe opens spans from this file around the public functions of
one ``src/repro`` layer; the per-layer metrics are medians of those
spans' durations and counts read at the same boundaries.  Every span's
self time (its duration minus what its children cover) must lie within
[0, duration]; the spans, with their self times, are written as JSONL
under ``.perfbench/traces/``.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import shutil
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

import inputs
import oracle
from common import Outcome, child_env, thread_count, workdir
from spans import SpanRecorder, self_times
from stats import median

#: Per-layer metric -> unit, in BENCHMARK.json order.
UNITS: Dict[str, str] = {
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "io.load_ms": "ms",
    "io.fingerprint_ms": "ms",
    "bad.predict_ms": "ms",
    "bad.designs": "count",
    "bad.partitions_predicted": "count",
    "bad.calls.modulo_usage": "count",
    "bad.calls.value_lifetimes": "count",
    "bad.calls.topological_order": "count",
    "prune.ms": "ms",
    "prune.kept_ratio": "ratio",
    "eval.hit_ratio": "ratio",
    "eval.repredicted_per_move": "count",
    "eval.taskgraph_incremental_ratio": "ratio",
    "taskgraph.ms": "ms",
    "search.iterative_ms": "ms",
    "search.iterative_trials": "count",
    "search.enumeration_ms": "ms",
    "search.combos": "count",
    "search.us_per_combo": "us",
    "search.feasible_ratio": "ratio",
    "engine.pool2_speedup": "x",
    "kernels.vectorized_speedup": "x",
    "kernels.survivor_ratio": "ratio",
    "cache.load_ms": "ms",
    "cache.store_ms": "ms",
    "cache.hit_ratio": "ratio",
    "cache.bytes_per_entry": "B",
    "service.handle_hit_ms": "ms",
    "service.handle_miss_ms": "ms",
    "service.transport_ms": "ms",
    "service.verdict_hit_ratio": "ratio",
    "service.threads_peak": "count",
    "fleet.forwarded_ratio": "ratio",
    "fleet.forward_ms": "ms",
    "obs.trace_overhead_ratio": "ratio",
    "bench.trace_overhead_ratio": "ratio",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.achieved_rps": "1/s",
}

#: BAD internals counted by the cProfile pass.
BAD_CALLS = ("modulo_usage", "value_lifetimes", "topological_order")
#: Share of --seconds each of the two workload passes gets.
WORKLOAD_SHARE = 0.3
CLI_REPEATS = 5
HTTP_STREAM_S = 3.0


def traced_run(wl, seed: int, seconds: float
               ) -> Tuple[Dict[str, float], Outcome, oracle.Mismatches]:
    spans = SpanRecorder()
    bad = oracle.Mismatches()
    m: Dict[str, float] = {}
    outcome = _workload_overhead(wl, seed, seconds, spans, bad, m)
    for probe in (_cli, _designer_layers, _bad_calls, _enumerate_layers,
                  _cache, _service, _http, _obs):
        with spans.span(f"probe.{probe.__name__.strip('_')}"):
            probe(seed, spans, m)
    selfs = self_times(spans.spans)
    for record in spans.spans:
        duration = record["end"] - record["start"]
        own = selfs[record["id"]]
        bad.expect(-1e-9 <= own <= duration + 1e-9,
                   f"span {record['name']} self time {own} outside "
                   f"[0, {duration}]")
    path = os.path.join(
        workdir("traces"), f"{wl.NAME}-seed{seed}-{os.getpid()}.jsonl")
    spans.write_jsonl(path)
    missing = sorted(set(UNITS) - set(m))
    bad.expect(not missing, f"per-layer metrics not measured: {missing}")
    return m, outcome, bad


def _workload_overhead(wl, seed, seconds, spans, bad, m) -> Outcome:
    """The workload untraced, then traced, on one set-up; the ratio of
    their median operation times is the benchmark's own overhead."""
    share = seconds * WORKLOAD_SHARE
    state = wl.setup(seed, share)
    try:
        plain = wl.run(state, share)
        with spans.span("workload", workload=wl.NAME):
            traced = wl.run(state, share, spans=spans)
        wl.verify(state, traced, seed, bad)
    finally:
        wl.close(state)
    m["bench.trace_overhead_ratio"] = (
        median(traced.op_ms) / median(plain.op_ms))
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    return traced


# ----------------------------------------------------------------------
# cli: interpreter start and imports
# ----------------------------------------------------------------------
def _cli(seed, spans, m) -> None:
    env = child_env()
    for _ in range(CLI_REPEATS):
        for name, code in (("cli.interpreter", "pass"),
                           ("cli.import", "import repro.cli")):
            with spans.span(name):
                subprocess.run([sys.executable, "-c", code], env=env,
                               check=True, timeout=60)
    interp = median(spans.durations_ms("cli.interpreter"))
    m["cli.interpreter_ms"] = interp
    m["cli.import_ms"] = median(spans.durations_ms("cli.import")) - interp


# ----------------------------------------------------------------------
# io, bad, pruning, eval, core task graph, iterative search
# ----------------------------------------------------------------------
def _designer_layers(seed, spans, m) -> None:
    from repro.core.tasks import build_task_graph
    from repro.io.project import load_project, project_fingerprint
    from repro.search.iterative import iterative_search
    from repro.search.pruning import level1_prune

    visits = inputs.designer_inputs(seed)
    first = visits[:len(inputs.DESIGNER_CELLS) + 1]
    raw_total = kept_total = 0
    designs: List[int] = []
    for visit in first:
        for _ in range(3):
            with spans.span("io.project_fingerprint"):
                project_fingerprint(visit.doc)
            with spans.span("io.load_project"):
                session = load_project(visit.doc)
        usable = session.max_usable_area_mil2()
        pruned = {}
        for name in sorted(session.partitioning().partitions):
            with spans.span("bad.predict", partition=name):
                raw = session.predict(name)
            designs.append(len(raw))
            with spans.span("search.level1_prune"):
                kept = level1_prune(raw, session.criteria, session.clocks,
                                    usable)
            raw_total += len(raw)
            kept_total += len(kept)
            pruned[name] = kept
        partitioning = session.partitioning()
        with spans.span("core.build_task_graph"):
            task_graph = build_task_graph(partitioning)
        if visit.name == "layered200":
            with spans.span("search.iterative_search") as sp:
                result = iterative_search(
                    partitioning, pruned, session.clocks, session.library,
                    session.criteria, task_graph=task_graph)
                sp["attrs"]["trials"] = result.trials
            m["search.iterative_trials"] = result.trials
    m["io.load_ms"] = median(spans.durations_ms("io.load_project"))
    m["io.fingerprint_ms"] = median(
        spans.durations_ms("io.project_fingerprint"))
    m["bad.predict_ms"] = median(spans.durations_ms("bad.predict"))
    m["bad.designs"] = sum(designs) / len(designs)
    m["prune.ms"] = median(spans.durations_ms("search.level1_prune"))
    m["prune.kept_ratio"] = kept_total / raw_total
    m["taskgraph.ms"] = median(spans.durations_ms("core.build_task_graph"))
    m["search.iterative_ms"] = median(
        spans.durations_ms("search.iterative_search"))
    _eval_deltas(first, spans, m)


def _eval_deltas(visits, spans, m) -> None:
    """Replay one visit per project with eval_stats() read around every
    check: cache hits, raw predictions added, task-graph build kinds."""
    from repro.io.project import load_project

    hits = misses = full = incremental = 0
    predicted: List[int] = []
    moved: List[int] = []
    for visit in visits:
        session = load_project(visit.doc)
        for step in range(len(visit.moves) + 1):
            if step:
                inputs.apply_move(session, visit.moves[step - 1])
            before = session.eval_stats()
            with spans.span("core.session.check", rid=f"eval:{step}"):
                session.check()
            after = session.eval_stats()
            hits += after["hits"] - before["hits"]
            misses += after["misses"] - before["misses"]
            tg_a, tg_b = after["taskgraph"], before["taskgraph"]
            full += tg_a["full_builds"] - tg_b["full_builds"]
            incremental += (tg_a["incremental_updates"]
                            - tg_b["incremental_updates"])
            added = after["entries"]["raw"] - before["entries"]["raw"]
            predicted.append(added)
            if step:
                moved.append(added)
    m["eval.hit_ratio"] = hits / (hits + misses)
    m["eval.repredicted_per_move"] = sum(moved) / len(moved)
    m["bad.partitions_predicted"] = sum(predicted) / len(predicted)
    m["eval.taskgraph_incremental_ratio"] = incremental / (full + incremental)


def _bad_calls(seed, spans, m) -> None:
    """Exact call counts of BAD internals over predict_all() on the
    one-partition experiment-2 cell."""
    from repro.experiments import experiment2_session

    session = experiment2_session(partition_count=1)
    profile = cProfile.Profile()
    with spans.span("bad.predict_all.profiled"):
        profile.enable()
        session.predict_all()
        profile.disable()
    calls = {name: 0 for name in BAD_CALLS}
    for (_, _, func), row in pstats.Stats(profile).stats.items():
        if func in calls:
            calls[func] += row[1]  # primitive + recursive call count
    for name, count in calls.items():
        m[f"bad.calls.{name}"] = count


# ----------------------------------------------------------------------
# search.enumeration, engine, kernels
# ----------------------------------------------------------------------
def _enumerate_layers(seed, spans, m) -> None:
    from repro.engine import EvaluationEngine, EvaluationProblem
    from repro.io.project import load_project
    from repro.kernels.batch import screen_block
    from repro.search.enumeration import enumeration_search

    import numpy as np

    projects = inputs.enumerate_inputs(seed)
    trials = feasible = 0
    enum_s = 0.0
    survivors = combos = 0
    sizes = []
    for project in projects:
        session = load_project(project.doc)
        pruned = session.pruned_predictions()
        partitioning = session.partitioning()
        with spans.span("search.enumeration_search") as sp:
            result = enumeration_search(
                partitioning, pruned, session.clocks, session.library,
                session.criteria)
        enum_s += sp["end"] - sp["start"]
        trials += result.trials
        feasible += len(result.feasible)
        problem = EvaluationProblem.build(
            partitioning, pruned, session.clocks, session.library,
            session.criteria)
        with spans.span("kernels.screen_block"):
            flats = np.arange(problem.combination_count(), dtype=np.int64)
            prune_kill, unintegrable, verdict, _, _ = screen_block(
                problem, problem.packed(), flats)
        survivors += int(np.count_nonzero(~(prune_kill | unintegrable
                                            | verdict)))
        combos += int(flats.shape[0])
        sizes.append((int(flats.shape[0]), project.name, project))
    m["search.enumeration_ms"] = median(
        spans.durations_ms("search.enumeration_search"))
    m["search.combos"] = trials / len(projects)
    m["search.us_per_combo"] = enum_s * 1e6 / trials
    m["search.feasible_ratio"] = feasible / trials
    m["kernels.survivor_ratio"] = survivors / combos

    # The largest draw decides where pooling and vectorizing pay.
    session = load_project(max(sizes)[2].doc)
    session.pruned_predictions()
    engine = EvaluationEngine(workers=2)
    timings: Dict[str, List[float]] = {}
    for _ in range(2):
        for label, kwargs in (("serial", {}), ("pool2", {"engine": engine}),
                              ("scalar", {"kernel": "scalar"}),
                              ("vectorized", {"kernel": "vectorized"})):
            with spans.span(f"engine.check.{label}") as sp:
                session.check(heuristic="enumeration", **kwargs)
            timings.setdefault(label, []).append(sp["end"] - sp["start"])
    m["engine.pool2_speedup"] = median(timings["serial"]) / median(
        timings["pool2"])
    m["kernels.vectorized_speedup"] = median(timings["scalar"]) / median(
        timings["vectorized"])


# ----------------------------------------------------------------------
# cache backend on the shell-loop sequence
# ----------------------------------------------------------------------
def _cache(seed, spans, m) -> None:
    from repro.cache import create_backend
    from repro.io.project import load_project, project_fingerprint

    directory = workdir("cache-probe", f"{seed}-{os.getpid()}")
    try:
        backend = create_backend("auto", directory)
        for doc in inputs.shell_inputs(seed, 24):
            session = load_project(doc)
            key = backend.key_for(project_fingerprint(doc), session.library,
                                  session.clocks)
            with spans.span("cache.load"):
                cached = backend.load(key)
            if cached is None:
                predictions = session.export_predictions()
                with spans.span("cache.store"):
                    backend.store(key, predictions)
        stats = backend.stats()
        size = sum(os.path.getsize(os.path.join(root, f))
                   for root, _, files in os.walk(directory) for f in files)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    m["cache.load_ms"] = median(spans.durations_ms("cache.load"))
    m["cache.store_ms"] = median(spans.durations_ms("cache.store"))
    m["cache.hit_ratio"] = stats["hits"] / (stats["hits"] + stats["misses"])
    m["cache.bytes_per_entry"] = size / max(1, stats["stores"])


# ----------------------------------------------------------------------
# service: in-process handle(), HTTP transport, fleet forward
# ----------------------------------------------------------------------
def _serve_stream(seed) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]],
                                 List[int]]:
    pool = inputs.serve_cells()
    misses = inputs.variants(seed, "layers-miss", pool, 6)
    rng = inputs.stream(seed, "layers", "hits")
    hits = [rng.randrange(len(pool)) for _ in range(60)]
    return pool, misses, hits


def _service(seed, spans, m) -> None:
    from repro.service import ChopService

    pool, misses, hits = _serve_stream(seed)
    service = ChopService(workers=1)
    try:
        ids = []
        for doc in pool:
            _, body, _, _ = service.handle(
                "POST", "/projects", json.dumps(doc).encode())
            ids.append(body["project_id"])
            service.handle("POST", f"/projects/{ids[-1]}/check", b"{}")
        for target in hits:
            with spans.span("service.handle", kind="hit"):
                status, _, _, _ = service.handle(
                    "POST", f"/projects/{ids[target]}/check", b"{}")
        for doc in misses:
            with spans.span("service.handle.miss", kind="miss"):
                _, body, _, _ = service.handle(
                    "POST", "/projects", json.dumps(doc).encode())
                service.handle(
                    "POST", f"/projects/{body['project_id']}/check", b"{}")
    finally:
        service.close()
    m["service.handle_hit_ms"] = median(spans.durations_ms("service.handle"))
    m["service.handle_miss_ms"] = median(
        spans.durations_ms("service.handle.miss"))


def _http(seed, spans, m) -> None:
    """The same open-loop hit stream against one process and against a
    two-process fleet."""
    from httpload import Client, Server, open_loop
    from stats import Request, achieved_rps, percentile
    from wl_serve import REFERENCE_RPS

    pool, _, hits = _serve_stream(seed)
    hit_p50: Dict[int, float] = {}
    for procs in (1, 2):
        server = Server(procs=procs)
        try:
            client = Client(server.port)
            ids = []
            for doc in pool:
                _, body = client.request(
                    "POST", "/projects", json.dumps(doc).encode())
                ids.append(body["project_id"])
                client.request("POST", f"/projects/{ids[-1]}/check", b"{}")
            before = _metrics(client)
            client.close()
            start = time.perf_counter() + 0.05
            count = int(REFERENCE_RPS * HTTP_STREAM_S)
            reqs = [Request(k, "hit", start + k / REFERENCE_RPS)
                    for k in range(count)]
            peak = [0]

            def action(conn, req, ids=ids, server=server, peak=peak):
                with spans.span(f"http.hit.procs{procs}", rid=str(req.index)):
                    status, _ = conn.request(
                        "POST",
                        f"/projects/{ids[hits[req.index % len(hits)]]}/check",
                        b"{}")
                if status != 200:
                    req.error = f"check {status}"
                peak[0] = max(peak[0], thread_count(server.proc.pid))

            open_loop(server.port, reqs, action)
            client = Client(server.port)
            after = _metrics(client)
            client.close()
        finally:
            server.close()
        latencies = [r.latency_s * 1e3 for r in reqs if r.ok]
        hit_p50[procs] = median(latencies)
        if procs == 1:
            m["service.threads_peak"] = peak[0]
            cache = after.get("cache", {})
            m["service.verdict_hit_ratio"] = cache["hits"] / (
                cache["hits"] + cache["misses"])
        else:
            forwarded = fleet_forwarded(after) - fleet_forwarded(before)
            m["fleet.forwarded_ratio"] = forwarded / len(reqs)
            lags = [r.lag_s * 1e3 for r in reqs]
            m["loadgen.lag_p99_ms"] = percentile(lags, 99)
            m["loadgen.achieved_rps"] = achieved_rps(reqs)
    m["service.transport_ms"] = hit_p50[1] - m["service.handle_hit_ms"]
    m["fleet.forward_ms"] = hit_p50[2] - hit_p50[1]


def _metrics(client) -> Dict[str, Any]:
    status, body = client.request("GET", "/metrics")
    if status != 200 or not isinstance(body, dict):
        raise RuntimeError(f"/metrics answered {status}")
    return body


def fleet_forwarded(doc: Dict[str, Any]) -> int:
    """Requests the whole fleet has forwarded, from an aggregate
    ``/metrics`` document.  Only the per-worker snapshots are summed:
    the top-level ``fleet`` block repeats the answering worker's own
    counter, and which worker answers a scrape is up to the kernel."""
    return sum(int(snapshot.get("fleet", {}).get("forwarded", 0))
               for snapshot in doc["workers"].values())


# ----------------------------------------------------------------------
# obs: the program's own tracer
# ----------------------------------------------------------------------
def _obs(seed, spans, m) -> None:
    from repro.obs.tracing import Tracer, activate

    plain: List[float] = []
    traced: List[float] = []
    for _ in range(5):
        for sink, label in ((plain, "obs.cold_check"),
                            (traced, "obs.cold_check.traced")):
            session = inputs.cell_session("e2p2")
            if sink is traced:
                with activate(Tracer()):
                    with spans.span(label) as sp:
                        session.check()
            else:
                with spans.span(label) as sp:
                    session.check()
            sink.append(sp["end"] - sp["start"])
    m["obs.trace_overhead_ratio"] = median(traced) / median(plain)
