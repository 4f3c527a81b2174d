"""CHOP designer-path benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload designer-loop --seed 1 \\
        --seconds 15 --trace 0

Workloads: ``designer-loop``, ``shell-loop``, ``serve-mix`` and
``enumerate`` (see BENCHMARK.json for why each exists).  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` is the separate traced
run that yields the per-layer metrics.  Every verdict is checked by the
oracle (``perfbench/oracle.py``).  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a readable report and the host/run record, which is also
written to ``.perfbench/``.  Exit status: 0 measured and correct, 1 a
wrong verdict, 2 the program is missing or the arguments are wrong.

``--write-goldens`` regenerates ``perfbench/goldens`` for the default
and held-out seeds from the reference paths instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
import fanout  # noqa: E402
from report import figures  # noqa: E402
from stats import median, tail_or_max  # noqa: E402

WORKLOADS = ("designer-loop", "shell-loop", "serve-mix", "enumerate")
#: Goldens cover every input a run of up to this many seconds draws.
GOLDEN_SECONDS = 60.0

#: The end-to-end metrics every workload reports (BENCHMARK.json).
E2E_UNITS = {
    "setup_s": "s",
    "check_p50_ms": "ms",
    "check_tail_ms": "ms",
    "checks_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def end_to_end(outcome, setup_s: float):
    op_tail = tail_or_max(outcome.op_ms)
    outcome.tails["check_tail_ms"] = op_tail.record()
    if outcome.rate is not None:
        checks_per_s, combos_per_s = outcome.rate
    else:
        # A closed loop: operations and trials over the time spent in
        # them.  The ratio of totals uses every operation, so it varies
        # less across runs than a median over a run's few chunks.
        busy_s = sum(outcome.op_ms) / 1e3
        checks_per_s = len(outcome.op_ms) / busy_s
        combos_per_s = sum(outcome.op_trials) / busy_s
    # Reported, not gated: trials per check are a property of the
    # seeded inputs as much as of the program's speed.
    outcome.extra["combos_per_s"] = combos_per_s
    return {
        "setup_s": setup_s,
        "check_p50_ms": median(outcome.op_ms),
        "check_tail_ms": op_tail.value,
        "checks_per_s": checks_per_s,
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def report(workload: str, metrics, outcome) -> None:
    """The readable report: the fourteen end-to-end figures by
    name and unit (``n/a`` where the workload has no such figure)."""
    print(f"== {workload} ==")
    for name, value, unit, note in figures(metrics, outcome):
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<20} {shown:>12} {unit:<8} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-goldens", action="store_true")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through the ``finally`` blocks that stop the
    # servers and part processes this run started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not common.program_present():
        print(f"error: no program sources under {common.SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    import oracle

    wl = fanout.load_workload(args.workload)
    if args.write_goldens:
        for seed in oracle.GOLDEN_SEEDS:
            state = wl.setup(seed, GOLDEN_SECONDS)
            try:
                path = oracle.write_golden(
                    args.workload, seed, wl.golden(state))
            finally:
                wl.close(state)
            print(f"wrote {path}")
        return 0

    record = common.host_record(args.seed, args.workload, bool(args.trace))
    if args.trace:
        import layers

        metrics, outcome, bad = layers.traced_run(wl, args.seed, args.seconds)
    else:
        state, setup_s, setup_times = common.timed_setups(
            wl, args.seed, args.seconds)
        try:
            if hasattr(wl, "PARTS"):
                outcome = fanout.run_parts(wl, args.seed, args.seconds)
                # Like the timed loop, set-up keeps the speed of the
                # process it runs in: take the median over processes.
                setup_s = median([setup_s] + outcome.extra["part_setup_s"])
            else:
                outcome = wl.run(state, args.seconds)
            bad = oracle.Mismatches()
            wl.verify(state, outcome, args.seed, bad)
        finally:
            wl.close(state)
        metrics = end_to_end(outcome, setup_s)
        record["setup_runs_s"] = setup_times
        report(args.workload, metrics, outcome)

    record["tails"] = outcome.tails
    record["extra"] = outcome.extra
    record["mismatches"] = bad.items
    record["metrics"] = metrics
    path = os.path.join(
        common.workdir("runs"),
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    print("record: " + json.dumps({k: record[k] for k in (
        "nproc", "python", "numpy", "commit", "seed", "loadavg_start",
        "tails")}, default=str))
    for item in bad.items[:20]:
        print(f"MISMATCH {item}", file=sys.stderr)

    units = E2E_UNITS if not args.trace else layers.UNITS
    result = {
        "correct": not bad,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(result))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
