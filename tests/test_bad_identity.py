"""Byte-identity of BAD's raw predictions against committed digests.

Every case below runs BAD end to end and reduces its raw prediction
lists to one sha256 over canonical JSON
(``json.dumps(dataclasses.asdict(p), sort_keys=True, default=str)`` per
prediction, in list order).  The digests in ``bad_identity_digests.json``
pin the model's output: an optimisation inside ``repro.bad`` or
``repro.dfg`` must leave every one of them unchanged.  The canonical form
sorts keys, so it does not depend on dict insertion order; the
subprocess test additionally pins the *pickle* bytes of ``predict_all()``
across two ``PYTHONHASHSEED`` values, which does.

When the model itself changes on purpose, regenerate the file with
``PYTHONPATH=src python tests/test_bad_identity.py --write`` and say why
in the change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from typing import Callable, Dict, Iterable, List

import pytest

from repro.bad.predictor import BADPredictor, PredictorParameters
from repro.bad.styles import ArchitectureStyle, OperationTiming
from repro.dfg.benchmarks import ar_lattice_filter
from repro.dfg.builders import GraphBuilder, filter_chain, random_layered_dag
from repro.experiments import (
    experiment1_clocks,
    experiment1_session,
    experiment2_clocks,
    experiment2_session,
)
from repro.library.presets import extended_library, table1_library
from repro.memory.module import MemoryModule

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(HERE)
DIGEST_FILE = os.path.join(HERE, "bad_identity_digests.json")

_SINGLE = ArchitectureStyle(OperationTiming.SINGLE_CYCLE)
_MULTI = ArchitectureStyle(OperationTiming.MULTI_CYCLE)


def digest(predictions: Iterable) -> str:
    """sha256 over the canonical JSON of each prediction, in order."""
    h = hashlib.sha256()
    for p in predictions:
        h.update(
            json.dumps(
                dataclasses.asdict(p), sort_keys=True, default=str
            ).encode()
        )
        h.update(b"\n")
    return h.hexdigest()


def _session_case(make) -> Callable[[], List]:
    def run() -> List:
        out: List = []
        for name, preds in sorted(make().predict_all().items()):
            out.extend(preds)
        return out
    return run


def _predictor_case(
    graph_fn, clocks_fn, style, params=None, memories=None,
    op_ids_fn=None, arrivals_fn=None, library_fn=table1_library,
) -> Callable[[], List]:
    def run() -> List:
        graph = graph_fn()
        predictor = BADPredictor(
            library_fn(), clocks_fn(), style,
            memories=memories, params=params,
        )
        op_ids = op_ids_fn(graph) if op_ids_fn else None
        arrivals = None
        if arrivals_fn:
            arrivals = arrivals_fn(
                graph.subgraph_ops(op_ids) if op_ids else graph
            )
        return predictor.predict_partition(
            graph, op_ids, input_arrivals=arrivals
        )
    return run


def _memory_graph():
    b = GraphBuilder("mem")
    a0 = b.input("a0")
    a1 = b.input("a1")
    r0 = b.mem_read(a0, "M")
    r1 = b.mem_read(a1, "M")
    r2 = b.mem_read(a0, "N")
    s = b.add(r0, r1, name="s")
    t = b.mul(s, r2, name="t")
    u = b.add(t, a1, name="u")
    b.mem_write(u, "M")
    b.mem_write(s, "N")
    b.output(u)
    return b.build()


_MEMORIES = {
    "M": MemoryModule("M", 256, 16, ports=1, access_time_ns=200.0),
    "N": MemoryModule("N", 64, 16, ports=2, access_time_ns=700.0),
}


def _late_inputs(graph) -> Dict[str, int]:
    inputs = [v.id for v in graph.primary_inputs()]
    return {vid: 1 + (i % 3) for i, vid in enumerate(inputs[::2])}


def _first_half(graph) -> List[str]:
    order = graph.topological_order()
    return order[: len(order) // 2]


CASES: Dict[str, Callable[[], List]] = {
    **{
        f"exp1_p{k}": _session_case(
            lambda k=k: experiment1_session(partition_count=k)
        )
        for k in (1, 2, 3)
    },
    **{
        f"exp2_p{k}": _session_case(
            lambda k=k: experiment2_session(partition_count=k)
        )
        for k in (1, 2, 3)
    },
    "exp1_no_chaining": _predictor_case(
        ar_lattice_filter, experiment1_clocks, _SINGLE,
        params=PredictorParameters(enable_chaining=False),
    ),
    "exp2_scan": _predictor_case(
        ar_lattice_filter, experiment2_clocks, _MULTI,
        params=PredictorParameters(scan_design=True),
    ),
    "exp1_scan": _predictor_case(
        ar_lattice_filter, experiment1_clocks, _SINGLE,
        params=PredictorParameters(scan_design=True),
    ),
    "exp2_arrivals": _predictor_case(
        ar_lattice_filter, experiment2_clocks, _MULTI,
        arrivals_fn=_late_inputs,
    ),
    "exp1_arrivals_subset": _predictor_case(
        ar_lattice_filter, experiment1_clocks, _SINGLE,
        op_ids_fn=_first_half, arrivals_fn=_late_inputs,
    ),
    "exp2_pipelined_only": _predictor_case(
        ar_lattice_filter, experiment2_clocks,
        ArchitectureStyle(OperationTiming.MULTI_CYCLE,
                          allow_nonpipelined=False),
    ),
    "memory_multi": _predictor_case(
        _memory_graph, experiment2_clocks, _MULTI, memories=_MEMORIES,
    ),
    "memory_single": _predictor_case(
        _memory_graph, experiment1_clocks, _SINGLE, memories=_MEMORIES,
    ),
    "layered40_multi": _predictor_case(
        lambda: random_layered_dag(40, seed=3), experiment2_clocks, _MULTI,
        library_fn=extended_library,
    ),
    "chain3_single": _predictor_case(
        lambda: filter_chain(3), experiment1_clocks, _SINGLE,
        library_fn=extended_library,
    ),
}


def _load_digests() -> Dict[str, str]:
    with open(DIGEST_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def test_every_case_has_a_committed_digest():
    assert sorted(_load_digests()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_predictions_match_committed_digest(case):
    predictions = CASES[case]()
    assert predictions, case
    assert digest(predictions) == _load_digests()[case]


_PICKLE_SCRIPT = """
import hashlib, pickle, sys
from repro.experiments import experiment1_session, experiment2_session
out = []
for k in (1, 3):
    out.append(experiment1_session(partition_count=k).predict_all())
    out.append(experiment2_session(partition_count=k).predict_all())
sys.stdout.write(hashlib.sha256(pickle.dumps(out, 4)).hexdigest())
"""


def _pickle_digest(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    done = subprocess.run(
        [sys.executable, "-c", _PICKLE_SCRIPT],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return done.stdout.strip()


def test_predict_all_pickles_identically_across_hash_seeds():
    assert _pickle_digest("1") == _pickle_digest("2")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_bad_identity.py "
                 "--write")
    digests = {case: digest(CASES[case]()) for case in sorted(CASES)}
    with open(DIGEST_FILE, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {DIGEST_FILE}")
