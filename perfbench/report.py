"""The readable per-workload report: fourteen designer-facing figures.

BENCHMARK.json gates the five end-to-end metrics every workload
measures; the figures only some workloads have (cold checks, hits and
misses, the rate ladder), or that depend on the seeded inputs as much
as on the program (trials per second), are printed here by name and
unit and kept in the run record, with ``n/a`` where a workload has no
such figure.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from stats import median

#: name, unit, what it means.
FIGURES: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "median of the set-ups, over processes"),
    ("check_p50_ms", "ms", "per timed operation"),
    ("check_tail_ms", "ms", "highest pct with >= 10 samples beyond"),
    ("checks_per_s", "1/s", "per busy second; serve-mix: capacity"),
    ("cold_check_p50_ms", "ms", "first check of a fresh session"),
    ("combos_per_s", "1/s", "SearchResult.trials per busy second"),
    ("hit_p50_ms", "ms", "verdict-cache hits at the reference rate"),
    ("hit_tail_ms", "ms", "verdict-cache hits at the reference rate"),
    ("miss_p50_ms", "ms", "upload plus check at the reference rate"),
    ("miss_tail_ms", "ms", "upload plus check at the reference rate"),
    ("limit_miss_ratio", "ratio", "failed or over limit, reference rate"),
    ("max_rate_rps", "1/s", "highest ladder rate meeting both limits"),
    ("error_ratio", "ratio", "failed / attempted"),
    ("peak_rss_mb", "MB", "see BENCHMARK.json"),
]


def figures(
    metrics: Dict[str, float], outcome: Any
) -> List[Tuple[str, Optional[float], str, str]]:
    rows = []
    for name, unit, note in FIGURES:
        if name in metrics:
            value: Optional[float] = metrics[name]
        elif name == "error_ratio":
            value = outcome.failed / max(1, outcome.attempted)
        else:
            value = outcome.extra.get(name)
            if isinstance(value, list):
                # Samples (one per cold check, say): report their median.
                value = median(value) if value else None
        tail = outcome.tails.get(name)
        if tail:
            note = f"p{tail['pct']:g} of {tail['samples']} samples"
        rows.append((name, value, unit, note))
    return rows
