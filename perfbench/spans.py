"""In-memory span recorder for the traced benchmark run.

Spans are opened by the benchmark's own files around each call into a
``src/repro`` layer; nothing inside the program is instrumented.  Each
span records its name, start, end, parent and request id.  Spans stay
in memory and are written as JSONL once, when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple


class SpanRecorder:
    """Collects spans; safe to use from several threads."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(
        self, name: str, rid: Optional[str] = None, **attrs: Any
    ) -> Iterator[Dict[str, Any]]:
        """Time the body as one span; yields its record for counters."""
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        record: Dict[str, Any] = {
            "id": span_id,
            "name": name,
            "parent": stack[-1] if stack else None,
            "rid": rid,
            "attrs": dict(attrs),
        }
        stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def durations_ms(self, name: str) -> List[float]:
        return [
            (s["end"] - s["start"]) * 1e3
            for s in self.spans
            if s["name"] == name
        ]

    def write_jsonl(self, path: str) -> None:
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            for record in sorted(self.spans, key=lambda s: s["start"]):
                out = dict(record)
                out["self_s"] = selfs[record["id"]]
                handle.write(json.dumps(out, sort_keys=True) + "\n")


class NoSpans:
    """The recorder of an untraced run: a span costs one call and
    records nothing, so workloads time the same code either way."""

    def span(self, name: str, rid: Optional[str] = None, **attrs: Any):
        return nullcontext()


NO_SPANS = NoSpans()


def covered(
    intervals: Sequence[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover.

    Children may overlap each other (threads) or run past their parent
    (a span closed late); the union of their intervals, clipped to the
    parent, is what gets subtracted, so the self time is never negative
    and never exceeds the duration.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for record in spans:
        parent = record.get("parent")
        if parent is not None:
            children.setdefault(parent, []).append(
                (record["start"], record["end"])
            )
    result: Dict[int, float] = {}
    for record in spans:
        lo, hi = record["start"], record["end"]
        result[record["id"]] = (hi - lo) - covered(
            children.get(record["id"], ()), lo, hi
        )
    return result
