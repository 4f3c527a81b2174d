"""Unit tests for the vectorized batch-evaluation kernels.

The load-bearing property is *bitwise agreement*: every comparison the
kernels make must reproduce the scalar reference arithmetic exactly, so
the screening masks are proofs, not approximations.  The end-to-end
byte-identity of whole search results lives in
``tests/test_kernels_identity.py``; here each kernel is pinned against
its scalar twin in isolation — the triangular CDF at every branch
breakpoint, the mixed-radix decode, the packed columns, the level-1
mask, the argmin, and the counter contract of the batch evaluator.
"""

from __future__ import annotations

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bad.prediction import DesignPrediction
from repro.bad.styles import ArchitectureStyle, ClockScheme, OperationTiming
from repro.chips.presets import mosis_package
from repro.core.chop import ChopSession
from repro.core.feasibility import (
    FeasibilityCriteria,
    prediction_possibly_feasible,
)
from repro.core.schemes import horizontal_cut
from repro.dfg.parser import parse_spec
from repro.engine import digit_weights
from repro.engine.sharding import decode_combination
from repro.engine.workers import (
    EvaluationProblem,
    chip_area_hopeless,
    evaluate_range,
)
from repro.errors import PredictionError, SearchCancelled
from repro.kernels import (
    evaluate_range_batch,
    level1_keep_mask,
    lexicographic_argmin,
    pack_problem,
)
from repro.kernels.batch import screen_block
from repro.library.presets import extended_library
from repro.obs import Tracer, activate
from repro.search.enumeration import enumeration_search
from repro.memory.module import MemoryModule
from repro.stats.batch import triangular_cdf_array
from repro.stats.distributions import triangular_cdf
from tests.strategies import triplet_parts

SPEC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples", "specs",
)


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def session_for(
    partitions: int = 3,
    spec_name: str = "moving_average.chop",
    performance_ns: float = 60_000.0,
    delay_ns: float = 60_000.0,
) -> ChopSession:
    """A ready-to-check session built from an example .chop spec."""
    with open(os.path.join(SPEC_DIR, spec_name)) as handle:
        graph = parse_spec(handle.read())
    blocks = sorted(
        {
            op.memory_block
            for op in graph
            if getattr(op, "memory_block", None)
        }
    )
    session = ChopSession(
        graph=graph,
        library=extended_library(),
        clocks=ClockScheme(300.0),
        style=ArchitectureStyle(OperationTiming.MULTI_CYCLE),
        criteria=FeasibilityCriteria(
            performance_ns=performance_ns, delay_ns=delay_ns
        ),
        memories=[
            MemoryModule(name, 256, 16, off_the_shelf=True)
            for name in blocks
        ],
    )
    parts = horizontal_cut(graph, partitions)
    assignment = {}
    for index, part in enumerate(parts):
        chip = f"chip{index + 1}"
        session.add_chip(chip, mosis_package(2))
        assignment[part.name] = chip
    session.set_partitions(parts, assignment)
    return session


def problem_for(
    session: ChopSession, prune: bool = True, raw: bool = False
) -> EvaluationProblem:
    predictions = (
        session.predict_all() if raw else session.pruned_predictions()
    )
    return EvaluationProblem.build(
        session.partitioning(), predictions, session.clocks,
        session.library, session.criteria, prune=prune,
    )


# ----------------------------------------------------------------------
# triangular CDF: bitwise equality with the scalar closed form
# ----------------------------------------------------------------------
class TestTriangularCdfArray:
    #: Supports covering every branch: degenerate point, mode at either
    #: edge, interior mode.
    SUPPORTS = [
        (0.0, 0.0, 0.0),
        (2.0, 2.0, 2.0),
        (0.0, 0.0, 2.0),   # mode at the lower edge (left == 0)
        (0.0, 2.0, 2.0),   # mode at the upper edge (right == 0)
        (0.0, 1.0, 2.0),
        (-3.0, -1.0, 4.0),
    ]
    #: Probe points at/inside/outside every breakpoint of the supports.
    PROBES = [-4.0, -3.0, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 4.0, 5.0]

    def test_bitwise_equal_at_every_breakpoint(self):
        for lb, ml, ub in self.SUPPORTS:
            for x in self.PROBES:
                scalar = triangular_cdf(x, lb, ml, ub)
                vector = triangular_cdf_array(
                    x,
                    np.array([lb]), np.array([ml]), np.array([ub]),
                )
                assert bits(scalar) == bits(float(vector[0])), (
                    x, lb, ml, ub,
                )

    def test_whole_grid_in_one_call(self):
        lbs = np.array([s[0] for s in self.SUPPORTS])
        mls = np.array([s[1] for s in self.SUPPORTS])
        ubs = np.array([s[2] for s in self.SUPPORTS])
        for x in self.PROBES:
            out = triangular_cdf_array(x, lbs, mls, ubs)
            for i, (lb, ml, ub) in enumerate(self.SUPPORTS):
                assert bits(float(out[i])) == bits(
                    triangular_cdf(x, lb, ml, ub)
                )

    @given(triplet_parts(), st.floats(
        min_value=-2e6, max_value=2e6,
        allow_nan=False, allow_infinity=False,
    ))
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_on_random_supports(self, parts, x):
        lb, ml, ub = parts
        scalar = triangular_cdf(x, lb, ml, ub)
        vector = triangular_cdf_array(
            x, np.array([lb]), np.array([ml]), np.array([ub])
        )
        assert bits(scalar) == bits(float(vector[0]))

    def test_degenerate_support_is_a_step(self):
        out = triangular_cdf_array(
            np.array([0.9, 1.0, 1.1]),
            np.array([1.0, 1.0, 1.0]),
            np.array([1.0, 1.0, 1.0]),
            np.array([1.0, 1.0, 1.0]),
        )
        assert out.tolist() == [0.0, 1.0, 1.0]


# ----------------------------------------------------------------------
# mixed-radix place values
# ----------------------------------------------------------------------
class TestDigitWeights:
    @pytest.mark.parametrize(
        "radices", [(1,), (2, 3, 4), (5, 1, 2), (7,), (2, 2, 2, 2)]
    )
    def test_closed_form_matches_decode(self, radices):
        weights = digit_weights(radices)
        total = int(np.prod(radices))
        flats = np.arange(total, dtype=np.int64)
        for position, weight in enumerate(weights):
            digits = (flats // weight) % radices[position]
            expected = [
                decode_combination(flat, radices)[position]
                for flat in range(total)
            ]
            assert digits.tolist() == expected

    def test_rejects_zero_radix(self):
        with pytest.raises(ValueError):
            digit_weights((2, 0, 3))


# ----------------------------------------------------------------------
# packing
# ----------------------------------------------------------------------
class TestPacking:
    def test_columns_mirror_the_prediction_lists(self):
        problem = problem_for(session_for())
        packed = pack_problem(problem)
        assert packed.names == problem.names
        assert packed.radices == problem.radices
        assert packed.weights == digit_weights(problem.radices)
        for position, options in enumerate(problem.lists):
            assert packed.ii[position].tolist() == [
                p.ii_main for p in options
            ]
            assert packed.latency[position].tolist() == [
                p.latency_main for p in options
            ]
            assert packed.pipelined[position].tolist() == [
                p.pipelined for p in options
            ]
            for i, p in enumerate(options):
                assert bits(packed.area_lb[position][i]) == bits(
                    p.area_total.lb
                )
                assert bits(packed.area_ml[position][i]) == bits(
                    p.area_total.ml
                )
                assert bits(packed.area_ub[position][i]) == bits(
                    p.area_total.ub
                )
                assert bits(packed.power_lb[position][i]) == bits(
                    p.power_mw.lb
                )
                label = packed.module_set_labels[
                    packed.module_set_ids[position][i]
                ]
                assert label == p.module_set.label

    def test_chip_layout_follows_scalar_iteration_order(self):
        problem = problem_for(session_for())
        packed = pack_problem(problem)
        partitioning = problem.partitioning
        assert packed.chip_names == tuple(partitioning.chips)
        for chip_index, chip_name in enumerate(packed.chip_names):
            expected = tuple(
                problem.names.index(name)
                for name in partitioning.partitions_on_chip(chip_name)
            )
            assert packed.chip_positions[chip_index] == expected
            assert packed.usable_opt[chip_index] == (
                problem.usable_area[chip_name]
            )
        assert packed.nbytes() > 0

    def test_packed_is_cached_on_the_problem(self):
        problem = problem_for(session_for())
        first = problem.packed()
        assert problem.packed() is first
        other = pack_problem(problem)
        problem.attach_packed(other)
        assert problem.packed() is other

    def test_packed_cache_survives_pickling(self):
        import pickle

        problem = problem_for(session_for())
        pack = problem.packed()
        clone = pickle.loads(pickle.dumps(problem))
        cached = clone.__dict__.get("_packed")
        assert cached is not None
        assert cached.names == pack.names


# ----------------------------------------------------------------------
# level-1 mask
# ----------------------------------------------------------------------
class TestLevel1KeepMask:
    def test_mask_equals_scalar_filter(self):
        session = session_for()
        usable = session.max_usable_area_mil2()
        for predictions in session.predict_all().values():
            mask = level1_keep_mask(
                predictions, session.criteria, session.clocks, usable
            )
            expected = [
                prediction_possibly_feasible(
                    p, session.criteria, session.clocks, usable
                )
                for p in predictions
            ]
            assert mask.tolist() == expected

    def test_level1_prune_is_kernel_invariant(self):
        """Long lists take the vectorized path; results are identical."""
        import repro.search.pruning as pruning

        session = session_for()
        usable = session.max_usable_area_mil2()
        raw = session.predict_all()
        # Repeat the list across the threshold so the vectorized path
        # actually engages (and once below it, the scalar path).
        predictions = next(iter(raw.values()))
        long_list = (
            predictions * (pruning.LEVEL1_VECTOR_THRESHOLD // max(
                1, len(predictions)
            ) + 1)
        )
        assert len(long_list) >= pruning.LEVEL1_VECTOR_THRESHOLD
        vectorized = pruning.level1_prune(
            long_list, session.criteria, session.clocks, usable
        )
        scalar = [
            p
            for p in long_list
            if prediction_possibly_feasible(
                p, session.criteria, session.clocks, usable
            )
        ]
        scalar = pruning.dominance_filter(scalar)
        scalar = sorted(scalar, key=DesignPrediction.sort_key)
        assert vectorized == scalar


# ----------------------------------------------------------------------
# argmin
# ----------------------------------------------------------------------
class TestLexicographicArgmin:
    def test_matches_python_min_with_tuple_key(self):
        ii = np.array([3, 1, 2, 1, 1], dtype=np.int64)
        lat = np.array([9, 5, 1, 4, 5], dtype=np.int64)
        expected = min(
            range(5), key=lambda i: (int(ii[i]), int(lat[i]))
        )
        assert lexicographic_argmin(ii, lat) == expected == 3

    def test_ties_resolve_to_the_lowest_index(self):
        ii = np.array([2, 2, 2], dtype=np.int64)
        lat = np.array([7, 7, 7], dtype=np.int64)
        assert lexicographic_argmin(ii, lat) == 0

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            lexicographic_argmin(np.array([], dtype=np.int64))


# ----------------------------------------------------------------------
# screens: soundness and exactness
# ----------------------------------------------------------------------
class TestScreens:
    def test_prune_mask_is_bitwise_exact(self):
        problem = problem_for(session_for(), raw=True)
        packed = problem.packed()
        total = problem.combination_count()
        flats = np.arange(total, dtype=np.int64)
        prune_kill, _, _, ii_main, latency_max = screen_block(
            problem, packed, flats
        )
        for flat in range(total):
            selection = problem.selection(flat)
            assert bool(prune_kill[flat]) == chip_area_hopeless(
                problem.partitioning, selection, problem.usable_area
            )
            assert int(ii_main[flat]) == max(
                p.ii_main for p in selection.values()
            )
            assert int(latency_max[flat]) == max(
                p.latency_main for p in selection.values()
            )

    def test_killed_combinations_are_never_feasible(self):
        """Soundness: anything any screen kills, the scalar path rejects."""
        # Tight criteria so the verdict screens actually fire.
        session = session_for(performance_ns=9_000.0, delay_ns=9_000.0)
        problem = problem_for(session, raw=True)
        packed = problem.packed()
        total = problem.combination_count()
        flats = np.arange(total, dtype=np.int64)
        prune_kill, unintegrable, verdict, _, _ = screen_block(
            problem, packed, flats
        )
        killed = flats[prune_kill | unintegrable | verdict]
        assert killed.shape[0] > 0  # the tight criteria must bite
        for flat in killed.tolist():
            scalar_feasible, _ = evaluate_range(
                problem, flat, flat + 1
            )
            assert scalar_feasible == []

    def test_counter_contract_against_scalar(self):
        problem = problem_for(session_for(), raw=True)
        total = problem.combination_count()
        scalar: dict = {}
        vector: dict = {}
        evaluate_range(problem, 0, total, counters=scalar)
        evaluate_range_batch(problem, 0, total, counters=vector)
        assert vector["combinations"] == scalar["combinations"]
        assert vector["pruned_level2"] == scalar["pruned_level2"]
        assert vector["feasible"] == scalar["feasible"]
        # A verdict-screened combination may be one the scalar path
        # classified as integration-infeasible; the split is bounded.
        assert (
            vector["integration_infeasible"]
            <= scalar["integration_infeasible"]
        )
        assert (
            vector["integration_infeasible"] + vector["screened_verdict"]
            >= scalar["integration_infeasible"]
        )

    def test_block_boundaries_do_not_matter(self):
        problem = problem_for(session_for(), raw=True)
        total = problem.combination_count()
        whole, trials = evaluate_range_batch(problem, 0, total)
        tiny, tiny_trials = evaluate_range_batch(
            problem, 0, total, block_size=7
        )
        assert trials == tiny_trials == total
        assert len(whole) == len(tiny)
        for a, b in zip(whole, tiny):
            assert a.selection == b.selection

    def test_cancellation_raises(self):
        problem = problem_for(session_for(), raw=True)
        total = problem.combination_count()
        with pytest.raises(SearchCancelled):
            evaluate_range_batch(
                problem, 0, total, cancel=lambda: True
            )


# ----------------------------------------------------------------------
# dispatch and validation
# ----------------------------------------------------------------------
class TestKernelSelection:
    def test_dispatcher_rejects_unknown_kernel(self):
        session = session_for()
        with pytest.raises(PredictionError):
            enumeration_search(
                session.partitioning(), session.pruned_predictions(),
                session.clocks, session.library, session.criteria,
                kernel="simd",
            )

    def test_session_check_rejects_unknown_kernel(self):
        with pytest.raises(PredictionError):
            session_for().check(
                heuristic="enumeration", kernel="simd"
            )

    def test_enumeration_span_records_the_kernel(self):
        """The walk picks its kernel from the hooks it must serve, and
        records the choice once, on the ``search.enumeration`` span."""
        from repro.engine import EvaluationEngine

        session = session_for()
        cases = [
            ({}, "vectorized"),
            ({"engine": EvaluationEngine(workers=1)}, "vectorized"),
            ({"kernel": "vectorized"}, "vectorized"),
            ({"kernel": "scalar"}, "scalar"),
            ({"keep_all": True}, "scalar"),
            ({"soft_deadline_s": 60.0}, "scalar"),
        ]
        for check_kwargs, expected in cases:
            tracer = Tracer()
            with activate(tracer):
                session.check(heuristic="enumeration", **check_kwargs)
            (record,) = [
                r for r in tracer.spans()
                if r["name"] == "search.enumeration"
            ]
            assert record["attrs"]["kernel"] == expected, check_kwargs
