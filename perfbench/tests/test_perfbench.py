"""Unit tests of the benchmark's own arithmetic.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from oracle import digest, mask_cli, verdict  # noqa: E402
from spans import NO_SPANS, SpanRecorder, covered, self_times  # noqa: E402
from stats import (  # noqa: E402
    Request, account_step, achieved_rps, growing_backlog, percentile,
    step_meets_limits, tail, tail_or_max,
)


# ----------------------------------------------------------------------
# tail: the highest percentile with at least 10 samples beyond it
# ----------------------------------------------------------------------
def test_tail_leaves_exactly_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    t = tail(values)
    assert t.value == 90
    assert sum(1 for v in values if v > t.value) == 10
    assert t.pct == 90.0
    assert t.samples == 100


def test_tail_percentile_moves_with_sample_count():
    t = tail(list(range(1000)))
    assert t.pct == 99.0
    assert sum(1 for v in range(1000) if v > t.value) == 10
    small = tail(list(range(20)))
    assert small.pct == 50.0
    assert small.value == 9


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 0.0, 10.0, 11.0]
    assert tail(values).value == 1.0


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail(list(range(10)))
    assert tail(list(range(11))).value == 0


def test_short_samples_fall_back_to_the_maximum():
    t = tail_or_max([3.0, 1.0, 2.0])
    assert (t.value, t.pct, t.samples) == (3.0, 100.0, 3)
    assert tail_or_max([]) is None
    assert tail_or_max(list(range(11))).value == 0


def test_nearest_rank_percentile():
    values = list(range(1, 11))
    assert percentile(values, 50) == 5
    assert percentile(values, 99) == 10
    assert percentile(values, 0) == 1


# ----------------------------------------------------------------------
# open-loop accounting: latency from the due time
# ----------------------------------------------------------------------
def _req(index, due, sent, done, ok=True, kind="hit"):
    return Request(index, kind, due, sent=sent, done=done, ok=ok)


def test_latency_counts_from_due_not_from_send():
    req = _req(0, due=10.0, sent=10.5, done=10.6)
    assert req.latency_s == pytest.approx(0.6)
    assert req.lag_s == pytest.approx(0.5)


def test_early_send_has_no_negative_lag():
    req = _req(0, due=10.0, sent=9.999, done=10.01)
    assert req.lag_s == 0.0


def test_failed_requests_count_as_limit_misses_without_latency():
    reqs = [
        _req(0, 0.0, 0.0, 0.010),
        _req(1, 0.1, 0.1, 0.2, ok=False),
        _req(2, 0.2, 0.2, 0.300),  # 100 ms: over the 50 ms limit
    ]
    report = account_step(10.0, reqs, {"hit": 50.0})
    assert report.attempted == 3
    assert report.failed == 1
    assert report.limit_missed == 2
    assert report.limit_miss_ratio == pytest.approx(2 / 3)
    assert report.latency_ms["hit"] == pytest.approx([10.0, 100.0])
    assert not step_meets_limits(report, {"hit": 50.0})


def test_stalled_generator_shows_in_later_latencies():
    # One slow reply holds the only connection: later requests are sent
    # late, and their latency includes the wait.
    reqs = [_req(0, 0.0, 0.0, 0.5)]
    reqs += [_req(i, 0.1 * i, 0.5 + 0.01 * i, 0.51 + 0.01 * i)
             for i in range(1, 5)]
    latencies = [r.latency_s for r in reqs]
    assert latencies[1] == pytest.approx(0.42)
    assert all(r.lag_s > 0 for r in reqs[1:])


def test_achieved_rate_reads_capacity_not_the_offered_rate():
    # 20 requests offered at 100 req/s; the server answers one every
    # 50 ms, so they complete at 20 req/s.
    reqs = [_req(i, 0.01 * i, 0.05 * i, 0.05 * (i + 1)) for i in range(20)]
    assert achieved_rps(reqs) == pytest.approx(20.0)
    # Offered below capacity, the rate reads the offered rate back.
    light = [_req(i, 0.1 * i, 0.1 * i, 0.1 * i + 0.001) for i in range(11)]
    assert achieved_rps(light) == pytest.approx(11 / 1.001)
    # Failed requests do not count as completions.
    light[3].ok = False
    assert achieved_rps(light) == pytest.approx(10 / 1.001)
    assert achieved_rps([_req(0, 0.0, 0.0, 0.1, ok=False)]) == 0.0


def test_growing_backlog_detected_from_lag_trend():
    steady = [_req(i, 0.1 * i, 0.1 * i + 0.001, 0.1 * i + 0.01)
              for i in range(30)]
    assert not growing_backlog(steady)
    # Each request is sent 20 ms later relative to its due time than
    # the one before: the queue grows.
    growing = [_req(i, 0.1 * i, 0.1 * i + 0.02 * i, 0.1 * i + 0.02 * i + 0.01)
               for i in range(30)]
    assert growing_backlog(growing)


def test_unanswered_requests_count_as_backlog():
    # The server stopped answering two thirds of the way through: the
    # requests never sent lag by the whole step.
    reqs = [_req(i, 0.1 * i, 0.1 * i, 0.1 * i + 0.01) for i in range(18)]
    reqs += [Request(i, "hit", 0.1 * i) for i in range(18, 30)]
    assert growing_backlog(reqs)


# ----------------------------------------------------------------------
# spans: self time is duration minus what children cover
# ----------------------------------------------------------------------
def _span(span_id, start, end, parent=None):
    return {"id": span_id, "name": f"s{span_id}", "start": start,
            "end": end, "parent": parent}


def test_self_time_subtracts_children():
    spans = [_span(1, 0.0, 10.0), _span(2, 1.0, 3.0, 1), _span(3, 5.0, 6.0, 1)]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(7.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(1.0)


def test_overlapping_children_are_not_subtracted_twice():
    spans = [_span(1, 0.0, 10.0), _span(2, 1.0, 6.0, 1), _span(3, 4.0, 8.0, 1)]
    assert self_times(spans)[1] == pytest.approx(3.0)


def test_child_running_past_parent_is_clipped():
    spans = [_span(1, 0.0, 4.0), _span(2, 3.0, 9.0, 1)]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(3.0)
    assert 0.0 <= selfs[1] <= 4.0


def test_covered_union():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert covered([], 0, 1) == 0.0
    assert covered([(-5, 20)], 0, 1) == pytest.approx(1.0)


def test_recorder_nests_and_bounds_self_time(tmp_path):
    rec = SpanRecorder()
    with rec.span("outer", rid="r1"):
        with rec.span("inner", rid="r1"):
            pass
    by_name = {s["name"]: s for s in rec.spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["parent"] is None
    selfs = self_times(rec.spans)
    for record in rec.spans:
        assert 0.0 <= selfs[record["id"]] <= record["end"] - record["start"]
    path = tmp_path / "trace.jsonl"
    rec.write_jsonl(str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert all('"self_s"' in line and '"rid": "r1"' in line for line in lines)


def test_untraced_recorder_records_nothing():
    with NO_SPANS.span("outer", rid="r1") as record:
        pass
    assert record is None


# ----------------------------------------------------------------------
# golden masking
# ----------------------------------------------------------------------
CLI_A = """disk cache: miss — predictions stored in runs/1/cache
Partitions  Package  H  CPU s  Trials  Feasible  Initiation interval  Delay  Clock ns
-------------------------------------------------------------------------------------
2           0        I  0.01   14      4         30                   65     307
"""

CLI_B = """disk cache: miss — predictions stored in elsewhere/c2
Partitions  Package  H  CPU s   Trials  Feasible  Initiation interval  Delay  Clock ns
--------------------------------------------------------------------------------------
2           0        I  12.34   14      4         30                   65     307
"""


def test_mask_hides_cpu_column_and_cache_dir():
    assert mask_cli(CLI_A) == mask_cli(CLI_B)
    assert "<cpu>" in mask_cli(CLI_A)
    assert "<dir>" in mask_cli(CLI_A)


def test_mask_keeps_the_verdict():
    changed = CLI_A.replace("30                   65", "20                   65")
    assert mask_cli(changed) != mask_cli(CLI_A)
    fewer = CLI_A.replace("14      4", "13      4")
    assert mask_cli(fewer) != mask_cli(CLI_A)


def test_verdict_drops_only_cpu_seconds():
    doc = {"heuristic": "iterative", "trials": 3, "cpu_seconds": 0.25,
           "feasible": True}
    assert verdict(doc) == {"heuristic": "iterative", "trials": 3,
                            "feasible": True}
    other = dict(doc, cpu_seconds=9.0)
    assert digest(verdict(doc)) == digest(verdict(other))
    assert digest(verdict(doc)) != digest(verdict(dict(doc, trials=4)))
