"""Byte-identity of the default enumeration against the scalar oracle.

The enumeration walk picks its own kernel: the vectorized screen by
default, the scalar loop when a per-combination hook (``keep_all``, an
explain collector, a soft deadline) needs it.  The contract is that the
choice changes *nothing* observable: on every project shape the default
``check("enumeration")`` returns a ``SearchResult`` whose ``to_dict()``
document (timing removed) is byte-for-byte equal to the
``kernel="scalar"`` reference — same feasible designs in the same order,
same counters, same best design.  This holds because the kernels only
ever compute sound proofs of infeasibility and hand every survivor to
the unchanged scalar evaluator; these tests pin the contract end to
end, serial and pooled.  CI runs this module under both ``fork`` and
``spawn`` via ``$CHOP_START_METHOD``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings

from repro.bad.styles import ArchitectureStyle, ClockScheme, OperationTiming
from repro.chips.presets import mosis_package
from repro.core.chop import ChopSession
from repro.core.feasibility import FeasibilityCriteria
from repro.core.schemes import horizontal_cut
from repro.engine import EvaluationEngine
from repro.errors import PartitioningError
from repro.library.presets import extended_library
from repro.obs import Tracer, activate
from tests.strategies import dags

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_RELAXED = FeasibilityCriteria(performance_ns=1e9, delay_ns=1e9)
#: Criteria tight enough that the verdict screens kill combinations on
#: most generated graphs, exercising the interesting kill paths.
_TIGHT = FeasibilityCriteria(performance_ns=8_000.0, delay_ns=8_000.0)


def _session_for(graph, count=2, criteria=_RELAXED):
    session = ChopSession(
        graph=graph,
        library=extended_library(),
        clocks=ClockScheme(300.0),
        style=ArchitectureStyle(OperationTiming.MULTI_CYCLE),
        criteria=criteria,
    )
    partitions = horizontal_cut(graph, count)
    for index, partition in enumerate(partitions):
        session.add_chip(f"chip{index + 1}", mosis_package(2))
    session.set_partitions(
        partitions,
        {p.name: f"chip{i + 1}" for i, p in enumerate(partitions)},
    )
    return session


def result_bytes(result) -> bytes:
    """The canonical result document with timing jitter removed."""
    doc = result.to_dict()
    doc.pop("cpu_seconds", None)
    return json.dumps(doc, sort_keys=True).encode()


def walked_kernel(tracer) -> str:
    """The kernel the one traced enumeration walk recorded."""
    (record,) = [
        r for r in tracer.spans() if r["name"] == "search.enumeration"
    ]
    return record["attrs"]["kernel"]


def walked(session, **check_kwargs):
    """One enumeration check and the kernel its walk recorded."""
    tracer = Tracer()
    with activate(tracer):
        result = session.check("enumeration", **check_kwargs)
    return result, walked_kernel(tracer)


def assert_identical(session, **check_kwargs):
    """The default walk vectorizes and matches ``kernel="scalar"``."""
    scalar = session.check(
        "enumeration", kernel="scalar", **check_kwargs
    )
    default, kernel = walked(session, **check_kwargs)
    assert kernel == "vectorized"
    assert result_bytes(scalar) == result_bytes(default)
    return scalar


# ----------------------------------------------------------------------
# hypothesis sweep: serial path
# ----------------------------------------------------------------------
@given(dags(max_ops=14))
@settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_serial_identity_relaxed(graph):
    session = _session_for(graph, count=1)
    assert_identical(session)


@given(dags(max_ops=16))
@settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_serial_identity_two_partitions_tight(graph):
    try:
        session = _session_for(graph, count=2, criteria=_TIGHT)
    except PartitioningError:
        return  # too shallow to cut in two — fine
    assert_identical(session)


@given(dags(max_ops=14))
@settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_serial_identity_unpruned(graph):
    """prune=False keeps the hopeless predictions: the structural
    screens do real work and must still agree byte-for-byte."""
    session = _session_for(graph, count=1, criteria=_TIGHT)
    assert_identical(session, prune=False)


# ----------------------------------------------------------------------
# hypothesis sweep: pooled engine path
# ----------------------------------------------------------------------
@given(dags(max_ops=14))
@settings(
    max_examples=6, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_engine_identity(graph):
    """A default pooled run equals serial scalar, shard merge
    included."""
    try:
        session = _session_for(graph, count=2)
    except PartitioningError:
        return
    serial = session.check("enumeration", kernel="scalar")
    engine = EvaluationEngine(workers=2, min_combinations=1)
    pooled, kernel = walked(session, engine=engine)
    assert kernel == "vectorized"
    assert result_bytes(serial) == result_bytes(pooled)


# ----------------------------------------------------------------------
# fixed edge cases
# ----------------------------------------------------------------------
class TestEdgeCases:
    def test_keep_all_falls_back_to_scalar_identically(self, ar_graph):
        """keep_all needs the full design space, which only the scalar
        walk records — the default walk must still serve it."""
        session = _session_for(ar_graph, count=1)
        scalar = session.check(
            "enumeration", kernel="scalar", keep_all=True
        )
        default, kernel = walked(session, keep_all=True)
        assert kernel == "scalar"
        assert result_bytes(scalar) == result_bytes(default)
        # A pooled request with keep_all stays on the serial scalar walk.
        engine = EvaluationEngine(workers=2, min_combinations=1)
        pooled, kernel = walked(session, keep_all=True, engine=engine)
        assert kernel == "scalar"
        assert result_bytes(scalar) == result_bytes(pooled)

    def test_soft_deadline_walks_scalar_identically(self, ar_graph):
        """A soft deadline needs the per-combination stop hook; with a
        budget the walk never exhausts, the verdict is the full one."""
        session = _session_for(ar_graph, count=2)
        scalar = session.check("enumeration", kernel="scalar")
        bounded, kernel = walked(session, soft_deadline_s=600.0)
        assert kernel == "scalar"
        assert not bounded.degraded
        assert result_bytes(scalar) == result_bytes(bounded)

    def test_explain_walks_scalar_and_matches(self, ar_graph):
        """explain() attaches a collector, which only the scalar walk
        feeds; its census agrees with the reference check."""
        session = _session_for(ar_graph, count=2, criteria=_TIGHT)
        scalar = session.check("enumeration", kernel="scalar")
        tracer = Tracer()
        with activate(tracer):
            report = session.explain()
        assert walked_kernel(tracer) == "scalar"
        assert report.evaluated == scalar.trials
        assert report.feasible == len(scalar.feasible)

    def test_infeasible_everywhere(self, ar_graph):
        """Criteria nothing satisfies: both kernels report the same
        empty result and identical counters.  ``prune=False`` keeps the
        hopeless predictions alive so the search actually runs."""
        session = _session_for(
            ar_graph,
            count=1,
            criteria=FeasibilityCriteria(
                performance_ns=1.0, delay_ns=1.0
            ),
        )
        scalar = assert_identical(session, prune=False)
        assert scalar.feasible == []

    def test_iterative_heuristic_ignores_kernel(self, ar_graph):
        session = _session_for(ar_graph, count=1)
        a = session.check("iterative", kernel="scalar")
        b = session.check("iterative", kernel="vectorized")
        assert result_bytes(a) == result_bytes(b)


def test_cli_import_does_not_load_numpy():
    """numpy is imported on first use, by the kernels only, so the
    CLI's start-up never pays for it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    probe = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, repro.cli; "
            "print('numpy' in sys.modules)",
        ],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        timeout=60,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "False"
