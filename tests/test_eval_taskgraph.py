"""Incremental task-graph maintenance vs the from-scratch builder.

The identity guarantee of ``repro.eval``: whatever sequence of
section-2.7 mutations a session goes through, the incrementally
maintained task graph is byte-identical — same task dict *order*, same
edge list, same memory pin loads — to ``build_task_graph`` run fresh on
the resulting partitioning.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bad.styles import ArchitectureStyle, ClockScheme, OperationTiming
from repro.chips.presets import mosis_package
from repro.core.chop import ChopSession
from repro.core.feasibility import FeasibilityCriteria
from repro.core.schemes import horizontal_cut
from repro.core.tasks import build_task_graph
from repro.dfg.benchmarks import ar_lattice_filter
from repro.dfg.builders import GraphBuilder
from repro.errors import PartitioningError
from repro.eval import EvaluationContext, full_ingredients
from repro.experiments import experiment1_session
from repro.library.presets import table1_library
from repro.memory.module import MemoryModule


def assert_graphs_identical(actual, expected):
    """Order-sensitive equality on every TaskGraph surface."""
    assert list(actual.tasks) == list(expected.tasks)
    assert actual.tasks == expected.tasks
    assert actual.edges == expected.edges
    assert actual.memory_pin_loads == expected.memory_pin_loads


def apply_random_migration(session, rng, attempts=30):
    """Try random single-op migrations until one validates."""
    names = sorted(session._partitions)
    for _ in range(attempts):
        src, dst = rng.sample(names, 2)
        ops = sorted(session._partitions[src].op_ids)
        if len(ops) <= 1:
            continue
        try:
            session.migrate_operations(src, dst, [rng.choice(ops)])
            return True
        except PartitioningError:
            continue
    return False


def memory_session():
    """A session whose partitions access a shared memory block."""
    b = GraphBuilder("membench", default_width=16)
    addresses = [b.input(f"a{i}") for i in range(4)]
    reads = [b.mem_read(addr, "M") for addr in addresses]
    total = reads[0]
    for value in reads[1:]:
        total = b.add(total, value)
    b.output(total)
    graph = b.build()
    session = ChopSession(
        graph=graph,
        library=table1_library(),
        clocks=ClockScheme(300.0, dp_multiplier=10),
        style=ArchitectureStyle(OperationTiming.SINGLE_CYCLE),
        criteria=FeasibilityCriteria(
            performance_ns=60_000, delay_ns=60_000
        ),
        memories=[MemoryModule("M", 256, 16)],
    )
    session.add_chip("chip1", mosis_package(2))
    session.add_chip("chip2", mosis_package(2))
    # The readers land on chip1 (first levels of the horizontal cut);
    # hosting M on chip2 makes every access off-chip, so both chips
    # carry a memory interface pin load.
    session.assign_memory("M", "chip2")
    parts = horizontal_cut(graph, 2)
    session.set_partitions(parts, {"P1": "chip1", "P2": "chip2"})
    return session


class TestColdIdentity:
    @pytest.mark.parametrize("count", [1, 2, 3, 6])
    def test_first_build_matches_builder(self, count):
        session = experiment1_session(partition_count=count)
        partitioning = session.partitioning()
        assert_graphs_identical(
            session._eval.task_graph(partitioning),
            build_task_graph(partitioning),
        )

    def test_memory_pin_loads_match(self):
        session = memory_session()
        partitioning = session.partitioning()
        expected = build_task_graph(partitioning)
        assert any(
            load > 0 for load in expected.memory_pin_loads.values()
        )
        assert_graphs_identical(
            session._eval.task_graph(partitioning), expected
        )

    def test_full_ingredients_match_builder_tasks(self):
        session = experiment1_session(partition_count=3)
        partitioning = session.partitioning()
        ingredients = full_ingredients(partitioning)
        expected = build_task_graph(partitioning)
        for task in expected.tasks.values():
            if task.name.startswith("in:"):
                assert ingredients.input_bits[task.partition] == task.bits
            elif task.name.startswith("out:"):
                assert ingredients.output_bits[task.partition] == task.bits
            elif task.name.startswith("xfer:"):
                src, dst = task.name[len("xfer:"):].split("->")
                assert ingredients.pair_bits[(src, dst)] == task.bits


class TestIncrementalIdentity:
    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_random_migrations(self, seed):
        rng = random.Random(seed)
        session = experiment1_session(partition_count=4)
        # Prime the incremental state, then mutate repeatedly.
        session._eval.task_graph(session.partitioning())
        for _ in range(rng.randint(1, 4)):
            apply_random_migration(session, rng)
            partitioning = session.partitioning()
            assert_graphs_identical(
                session._eval.task_graph(partitioning),
                build_task_graph(partitioning),
            )

    def test_chip_move_reassembles_without_rederiving(self):
        session = experiment1_session(partition_count=3)
        session._eval.task_graph(session.partitioning())
        before = session.eval_stats()["taskgraph"]
        session.move_partition("P2", "chip1")
        partitioning = session.partitioning()
        assert_graphs_identical(
            session._eval.task_graph(partitioning),
            build_task_graph(partitioning),
        )
        after = session.eval_stats()["taskgraph"]
        # A placement change costs one assembly, not an ingredient
        # re-derivation (no membership changed).
        assert after["full_builds"] == before["full_builds"]
        assert (
            after["incremental_updates"] == before["incremental_updates"]
        )

    def test_memory_reassignment(self):
        session = memory_session()
        session._eval.task_graph(session.partitioning())
        session.assign_memory("M", "chip2")
        partitioning = session.partitioning()
        assert_graphs_identical(
            session._eval.task_graph(partitioning),
            build_task_graph(partitioning),
        )

    def test_repartition_via_set_partitions(self):
        session = experiment1_session(partition_count=2)
        session._eval.task_graph(session.partitioning())
        graph = session.graph
        parts = horizontal_cut(graph, 3)
        session.add_chip("chip3", mosis_package(2))
        session.set_partitions(
            parts, {"P1": "chip1", "P2": "chip2", "P3": "chip3"}
        )
        partitioning = session.partitioning()
        assert_graphs_identical(
            session._eval.task_graph(partitioning),
            build_task_graph(partitioning),
        )

    def test_unchanged_partitioning_reuses_assembly(self):
        session = experiment1_session(partition_count=3)
        partitioning = session.partitioning()
        first = session._eval.task_graph(partitioning)
        second = session._eval.task_graph(session.partitioning())
        assert second is first
        assert session.eval_stats()["taskgraph"]["reuses"] == 1

    def test_content_diff_catches_unannounced_mutation(self):
        """Even with no dirty mark, a membership change is detected."""
        session = experiment1_session(partition_count=3)
        context = session._eval
        context.task_graph(session.partitioning())
        rng = random.Random(11)
        assert apply_random_migration(session, rng)
        # Simulate a caller that mutated without telling the context.
        context._dirty.clear()
        partitioning = session.partitioning()
        assert_graphs_identical(
            context.task_graph(partitioning),
            build_task_graph(partitioning),
        )


class TestContextCaches:
    def test_lru_eviction_counter(self):
        graph = ar_lattice_filter()
        session = ChopSession(
            graph=graph,
            library=table1_library(),
            clocks=ClockScheme(300.0, dp_multiplier=10),
            style=ArchitectureStyle(OperationTiming.SINGLE_CYCLE),
            criteria=FeasibilityCriteria(
                performance_ns=30_000, delay_ns=30_000
            ),
            prediction_cache_size=2,
        )
        session.add_chip("chip1", mosis_package(2))
        session.add_chip("chip2", mosis_package(2))
        parts = horizontal_cut(graph, 2)
        session.set_partitions(parts, {"P1": "chip1", "P2": "chip2"})
        rng = random.Random(3)
        for _ in range(4):
            apply_random_migration(session, rng)
            session.predict_all()
        stats = session.eval_stats()
        assert stats["capacity"] == 2
        assert stats["entries"]["raw"] <= 2
        assert stats["evictions"] > 0
        # Bounded cache must not change answers: re-predicting after
        # evictions still works.
        assert all(session.predict_all().values())

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            EvaluationContext(
                graph=ar_lattice_filter(),
                library=table1_library(),
                clocks=ClockScheme(300.0, dp_multiplier=10),
                style=ArchitectureStyle(OperationTiming.SINGLE_CYCLE),
                criteria=FeasibilityCriteria(
                    performance_ns=1, delay_ns=1
                ),
                memories={},
                cache_capacity=0,
            )

    def test_failed_migration_leaves_session_usable(self):
        """A rejected migration restores state (transactional mutator)."""
        session = experiment1_session(partition_count=3)
        baseline = session.check()
        partitions_before = dict(session._partitions)
        rng = random.Random(5)
        rejected = 0
        names = sorted(session._partitions)
        for _ in range(50):
            src, dst = rng.sample(names, 2)
            ops = sorted(session._partitions[src].op_ids)
            try:
                session.migrate_operations(src, dst, [rng.choice(ops)])
                # Undo a successful move to keep probing failures.
                session.set_partitions(
                    list(partitions_before.values()),
                    dict(session._partition_chip),
                )
            except PartitioningError:
                rejected += 1
                assert session._partitions == partitions_before
        assert rejected > 0
        result = session.check()
        base = baseline.to_dict()
        base.pop("cpu_seconds", None)
        now = result.to_dict()
        now.pop("cpu_seconds", None)
        assert base == now
