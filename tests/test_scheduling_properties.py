"""Property-based tests for the scheduler on random graphs."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.bad.allocation import (
    partition_resource_model,
    register_bits,
    register_requirement,
    register_slots,
    value_lifetimes,
)
from repro.bad.scheduling import critical_path_cycles, list_schedule
from repro.dfg.builders import GraphBuilder
from repro.dfg.ops import OpType
from tests.strategies import _finish, dags


@given(dags(), st.integers(min_value=1, max_value=4))
@settings(max_examples=50, deadline=None)
def test_schedule_valid_under_any_allocation(graph, units):
    duration = {op_id: 1 for op_id in graph.operations}
    op_class, counts = partition_resource_model(graph)
    capacities = {cls: min(units, count) for cls, count in counts.items()}
    schedule = list_schedule(graph, duration, op_class, capacities)
    schedule.verify(graph)  # raises on precedence/resource violations


@given(dags())
@settings(max_examples=50, deadline=None)
def test_latency_bounds(graph):
    duration = {op_id: 1 for op_id in graph.operations}
    op_class, counts = partition_resource_model(graph)
    schedule = list_schedule(graph, duration, op_class, counts)
    cp = critical_path_cycles(graph, duration)
    assert cp <= schedule.latency <= sum(duration.values())
    # Unconstrained resources: latency equals the critical path.
    assert schedule.latency == cp


@given(dags(), st.integers(min_value=1, max_value=3))
@settings(max_examples=50, deadline=None)
def test_serialization_never_beats_critical_path(graph, units):
    duration = {op_id: 1 for op_id in graph.operations}
    op_class, counts = partition_resource_model(graph)
    capacities = {cls: min(units, count) for cls, count in counts.items()}
    constrained = list_schedule(graph, duration, op_class, capacities)
    unconstrained = list_schedule(graph, duration, op_class, counts)
    assert constrained.latency >= unconstrained.latency


@given(dags())
@settings(max_examples=40, deadline=None)
def test_chaining_never_increases_latency(graph):
    duration = {op_id: 1 for op_id in graph.operations}
    op_class, counts = partition_resource_model(graph)
    delays = {op_id: 50.0 for op_id in graph.operations}
    plain = list_schedule(graph, duration, op_class, counts)
    chained = list_schedule(
        graph, duration, op_class, counts,
        delay_ns=delays, cycle_ns=3000.0,
    )
    assert chained.latency <= plain.latency
    chained.verify(graph)


@given(dags(), st.integers(min_value=1, max_value=8))
@settings(max_examples=50, deadline=None)
def test_modulo_usage_conserves_work(graph, ii):
    duration = {op_id: 1 for op_id in graph.operations}
    op_class, counts = partition_resource_model(graph)
    schedule = list_schedule(graph, duration, op_class, counts)
    usage = schedule.modulo_usage(ii)
    for cls, slots in usage.items():
        assert sum(slots) == counts[cls]


# ----------------------------------------------------------------------
# Fast paths against naive references
#
# The scheduler and the register model answer from cached traversals,
# one occupancy histogram per schedule and one lifetime pass per
# interval.  Each property below recomputes the same quantity the
# direct way, in the test, and requires exact equality.
# ----------------------------------------------------------------------


@st.composite
def timed_dags(draw):
    """A dag with mixed value widths, multi-cycle durations and some
    late operation start times."""
    n_inputs = draw(st.integers(min_value=1, max_value=4))
    n_ops = draw(st.integers(min_value=1, max_value=20))
    builder = GraphBuilder(f"timed-{n_inputs}-{n_ops}")
    widths = st.integers(min_value=1, max_value=32)
    available = [
        builder.input(f"in{i}", draw(widths)) for i in range(n_inputs)
    ]
    for _ in range(n_ops):
        op_type = draw(st.sampled_from([OpType.ADD, OpType.MUL]))
        left, right = (
            available[draw(st.integers(0, len(available) - 1))]
            for _ in range(2)
        )
        available.append(
            builder.op(op_type, left, right, width=draw(widths))
        )
    graph = _finish(builder, set(available[n_inputs:]))
    duration = {
        op_id: draw(st.integers(min_value=1, max_value=3))
        for op_id in graph.operations
    }
    late = draw(st.lists(st.sampled_from(sorted(graph.operations))))
    ready = {op_id: draw(st.integers(0, 4)) for op_id in late}
    units = draw(st.integers(min_value=1, max_value=3))
    return graph, duration, ready, units


def _schedule(graph, duration, units, ready=None):
    op_class, counts = partition_resource_model(graph)
    capacities = {cls: min(units, n) for cls, n in counts.items()}
    return list_schedule(
        graph, duration, op_class, capacities, ready=ready or None
    )


def _naive_topological_order(graph):
    indegree = {op_id: 0 for op_id in graph.operations}
    for op in graph:
        for vid in op.inputs:
            if graph.value(vid).producer is not None:
                indegree[op.id] += 1
    order, ready = [], sorted(o for o, d in indegree.items() if d == 0)
    while ready:
        op_id = ready.pop(0)
        order.append(op_id)
        newly = []
        for succ in _naive_successors(graph, op_id):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                newly.append(succ)
        ready.extend(sorted(newly))
    return order


def _naive_predecessors(graph, op_id):
    result = []
    for vid in graph.operation(op_id).inputs:
        producer = graph.value(vid).producer
        if producer is not None and producer not in result:
            result.append(producer)
    return result


def _naive_successors(graph, op_id):
    out = graph.operation(op_id).output
    if out is None:
        return []
    # One entry per consuming input slot, as the graph's consumer index.
    return [op.id for op in graph for vid in op.inputs if vid == out]


def _naive_profile(schedule):
    profile = {
        cls: [0] * max(schedule.latency, 1) for cls in schedule.capacities
    }
    for op_id, begin in schedule.start.items():
        cls = schedule.resource_class[op_id]
        for cycle in range(begin, begin + schedule.duration[op_id]):
            profile[cls][cycle] += 1
    return profile


def _naive_modulo(schedule, ii):
    usage = {cls: [0] * ii for cls in schedule.capacities}
    for op_id, begin in schedule.start.items():
        cls = schedule.resource_class[op_id]
        for cycle in range(begin, begin + schedule.duration[op_id]):
            usage[cls][cycle % ii] += 1
    return usage


def _naive_registers(graph, lifetimes, ii):
    words, bits = [0] * ii, [0] * ii
    for value_id, (birth, death) in lifetimes.items():
        for cycle in range(birth, death):
            words[cycle % ii] += 1
            bits[cycle % ii] += graph.value(value_id).width
    return max(words), max(bits)


def _naive_list_schedule(graph, duration, resource_class, capacities, ready):
    """Cycle-by-cycle list scheduling with ALAP urgency: the textbook
    form of what :func:`list_schedule` does with event-driven time
    advance (no chaining)."""
    order = _naive_topological_order(graph)
    preds = {o: _naive_predecessors(graph, o) for o in order}
    succs = {o: _naive_successors(graph, o) for o in order}
    asap = {}
    for o in order:
        asap[o] = max(
            [ready.get(o, 0)] + [asap[p] + duration[p] for p in preds[o]]
        )
    deadline = max(asap[o] + duration[o] for o in order)
    alap = {}
    for o in reversed(order):
        alap[o] = min(
            [deadline - duration[o]]
            + [alap[s] - duration[o] for s in succs[o]]
        )
    start, busy = {}, {}
    remaining = {o: len(preds[o]) for o in order}
    waiting = sorted((o for o in order if not preds[o]),
                     key=lambda o: (alap[o], o))
    time = 0
    while len(start) < len(order):
        placed = True
        while placed:
            placed = False
            for o in list(waiting):
                if ready.get(o, 0) > time or any(
                    start[p] + duration[p] > time for p in preds[o]
                ):
                    continue
                cls = resource_class[o]
                span = range(time, time + duration[o])
                if all(busy.get((cls, c), 0) < capacities[cls]
                       for c in span):
                    start[o] = time
                    for c in span:
                        busy[(cls, c)] = busy.get((cls, c), 0) + 1
                    waiting.remove(o)
                    placed = True
                    for s in succs[o]:
                        remaining[s] -= 1
                        if remaining[s] == 0:
                            waiting.append(s)
            waiting.sort(key=lambda o: (alap[o], o))
        time += 1
    return start


@given(timed_dags())
@settings(max_examples=60, deadline=None)
def test_occupancy_fold_matches_per_op_loops(case):
    graph, duration, ready, units = case
    schedule = _schedule(graph, duration, units, ready)
    assert schedule.usage_profile() == _naive_profile(schedule)
    for ii in range(1, max(schedule.latency, 1) + 1):
        assert schedule.modulo_usage(ii) == _naive_modulo(schedule, ii)


@given(timed_dags())
@settings(max_examples=60, deadline=None)
def test_pipeline_feasible_agrees_with_capacities(case):
    graph, duration, ready, units = case
    schedule = _schedule(graph, duration, units, ready)
    for ii in range(1, schedule.latency + 3):
        needed = schedule.pipeline_capacities(ii)
        assert schedule.pipeline_feasible(ii) == all(
            needed[cls] <= cap for cls, cap in schedule.capacities.items()
        )


@given(timed_dags())
@settings(max_examples=60, deadline=None)
def test_one_pass_register_slots_match_separate_counts(case):
    graph, duration, ready, units = case
    schedule = _schedule(graph, duration, units, ready)
    lifetimes = value_lifetimes(graph, schedule)
    for ii in range(1, max(schedule.latency, 1) + 2):
        words, bits = register_slots(graph, lifetimes, ii)
        assert (words, bits) == _naive_registers(graph, lifetimes, ii)
        assert words == register_requirement(graph, schedule, ii)
        assert bits == register_bits(graph, schedule, ii)


@given(timed_dags())
@settings(max_examples=60, deadline=None)
def test_cached_traversal_matches_fresh_computation(case):
    graph = case[0]
    for _ in range(2):  # the second round answers from the caches
        order = graph.topological_order()
        assert order == _naive_topological_order(graph)
        order.append("scribble")  # a fresh list: the cache is untouched
        for op_id in graph.operations:
            preds = graph.predecessors(op_id)
            assert preds == _naive_predecessors(graph, op_id)
            assert graph.successors(op_id) == _naive_successors(
                graph, op_id
            )
            preds.append("scribble")


@given(timed_dags(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_list_schedule_matches_reference_with_and_without_ready(
    case, use_ready
):
    graph, duration, ready, units = case
    ready = ready if use_ready else {}
    op_class, counts = partition_resource_model(graph)
    capacities = {cls: min(units, n) for cls, n in counts.items()}
    schedule = list_schedule(
        graph, duration, op_class, capacities, ready=ready or None
    )
    assert schedule.start == _naive_list_schedule(
        graph, duration, op_class, capacities, ready
    )
