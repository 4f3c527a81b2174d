"""Order statistics and open-loop accounting for the benchmark.

Pure functions over lists of numbers, so the unit tests in
``perfbench/tests`` can pin them down without running anything.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: A tail must leave at least this many samples above it.
TAIL_BEYOND = 10
#: A step's backlog grows when its late lag exceeds its early lag by
#: more than this.
BACKLOG_SLACK_MS = 50.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


@dataclass(frozen=True)
class Tail:
    """The highest percentile that still has ``TAIL_BEYOND`` samples
    beyond it, with the percentile and sample count it was read at."""

    value: float
    pct: float
    samples: int

    def record(self) -> Dict[str, float]:
        return {"value": self.value, "pct": self.pct, "samples": self.samples}


def tail(values: Sequence[float]) -> Tail:
    """The sample with exactly TAIL_BEYOND samples ranked above it.

    In nearest-rank terms that sample sits at percentile
    ``100 * (n - TAIL_BEYOND) / n``; any higher percentile would leave
    fewer than TAIL_BEYOND samples beyond it.  Needs at least
    ``TAIL_BEYOND + 1`` samples.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(
            f"a tail with {TAIL_BEYOND} samples beyond it needs more than "
            f"{TAIL_BEYOND} samples, got {n}"
        )
    ordered = sorted(values)
    rank = n - TAIL_BEYOND
    return Tail(
        value=ordered[rank - 1],
        pct=round(100.0 * rank / n, 2),
        samples=n,
    )


# ----------------------------------------------------------------------
# open-loop accounting
# ----------------------------------------------------------------------
@dataclass
class Request:
    """One scheduled request of an open-loop stream.

    ``due`` is when the schedule says it should be sent, ``sent`` when a
    connection actually sent it and ``done`` when its reply (or its
    failure) arrived; all are ``time.perf_counter`` readings.
    """

    index: int
    kind: str
    due: float
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    error: str = ""

    @property
    def latency_s(self) -> float:
        """Time from due to done: a stalled generator's wait counts."""
        return self.done - self.due

    @property
    def lag_s(self) -> float:
        """How late the generator sent this request."""
        return max(0.0, self.sent - self.due)


@dataclass
class StepReport:
    """Latency and backlog accounting of one offered-rate step."""

    rate: float
    attempted: int
    failed: int
    latency_ms: Dict[str, List[float]] = field(default_factory=dict)
    limit_missed: int = 0
    lag_ms: List[float] = field(default_factory=list)
    growing_backlog: bool = False
    achieved_rps: float = 0.0

    @property
    def limit_miss_ratio(self) -> float:
        return self.limit_missed / self.attempted if self.attempted else 0.0


def growing_backlog(requests: Sequence[Request]) -> bool:
    """True when the generator fell further behind across the step.

    Lag only appears once every connection is busy, so it measures the
    work still outstanding when a request came due.  The backlog grows
    when the last third's median lag exceeds the first third's by more
    than BACKLOG_SLACK_MS; a request that never got an answer counts as
    lagging by the whole step.
    """
    if not requests:
        return False
    ordered = sorted(requests, key=lambda r: r.due)
    span_ms = (ordered[-1].due - ordered[0].due) * 1e3

    def lag_ms(req: Request) -> float:
        return req.lag_s * 1e3 if req.sent else span_ms

    third = max(1, len(ordered) // 3)
    first = median([lag_ms(r) for r in ordered[:third]])
    last = median([lag_ms(r) for r in ordered[-third:]])
    return last - first > BACKLOG_SLACK_MS


def achieved_rps(requests: Sequence[Request]) -> float:
    """Completed requests per second, from the first due time to the
    last answer.  While the server keeps up, a step reads about its
    offered rate; offered more than the server and connections sustain,
    it reads their capacity.  A stall shows as a lower rate."""
    done = [r.done for r in requests if r.ok]
    if not done:
        return 0.0
    return len(done) / (max(done) - min(r.due for r in requests))


def account_step(
    rate: float,
    requests: Sequence[Request],
    limits_ms: Dict[str, float],
) -> StepReport:
    """Fold one step's requests into its report.

    A failed or refused request counts as attempted, as failed and as
    missing its latency limit; its latency is not sampled.
    """
    report = StepReport(rate=rate, attempted=len(requests), failed=0)
    for req in requests:
        report.lag_ms.append(req.lag_s * 1e3)
        if not req.ok:
            report.failed += 1
            report.limit_missed += 1
            continue
        ms = req.latency_s * 1e3
        report.latency_ms.setdefault(req.kind, []).append(ms)
        if ms > limits_ms[req.kind]:
            report.limit_missed += 1
    report.achieved_rps = achieved_rps(requests)
    report.growing_backlog = growing_backlog(requests)
    return report


def step_meets_limits(
    report: StepReport, limits_ms: Dict[str, float]
) -> bool:
    """No request failed, no backlog grew, and every kind's tail held
    its limit.  The tail is :func:`tail` where the step has enough
    samples and the maximum otherwise, so a short step is judged on its
    worst request."""
    if report.failed or report.growing_backlog:
        return False
    for kind, limit in limits_ms.items():
        worst = tail_or_max(report.latency_ms.get(kind, []))
        if worst is not None and worst.value > limit:
            return False
    return True


def tail_or_max(values: Sequence[float]) -> Optional[Tail]:
    """:func:`tail` where there are enough samples; otherwise the
    maximum, recorded at percentile 100 (None for no samples)."""
    if not values:
        return None
    if len(values) > TAIL_BEYOND:
        return tail(values)
    return Tail(value=max(values), pct=100.0, samples=len(values))
