"""BENCHMARK.json stays within its format and in step with the code."""

from __future__ import annotations

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _doc():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_top_level_keys_and_limits():
    doc = _doc()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["perfbench"]
    assert isinstance(doc["run_seconds"], int)
    assert 1 <= doc["run_seconds"] <= 60
    assert 1 <= len(doc["command"]) <= 32
    assert all(not arg.startswith("/") and ".." not in arg
               for arg in doc["command"])
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def test_names_units_and_bounds():
    doc = _doc()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    bounds = {}
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        bounds[metric["name"]] = metric["bound"]
    assert bounds["setup_s"] == max(bounds.values())
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_metrics_match_the_code():
    doc = _doc()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.UNITS


def test_fleet_forwards_are_summed_over_worker_snapshots_only():
    # An aggregate /metrics document as worker 1 of a two-process fleet
    # answers it: the top-level block repeats worker 1's own counter.
    def doc(answering, forwarded):
        workers = {str(i): {"fleet": {"index": i, "forwarded": n}}
                   for i, n in enumerate(forwarded)}
        return {"fleet": dict(workers[str(answering)]["fleet"]),
                "workers": workers}

    assert layers.fleet_forwarded(doc(1, [4, 7])) == 11
    # Scrapes answered by different workers count the same forwards.
    assert layers.fleet_forwarded(doc(0, [4, 7])) == 11
    before, after = doc(0, [4, 7]), doc(1, [9, 10])
    assert layers.fleet_forwarded(after) - layers.fleet_forwarded(before) == 8
