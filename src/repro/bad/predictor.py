"""The BAD predictor facade.

:class:`BADPredictor` generates the per-partition prediction lists CHOP
searches over.  For one partition it enumerates

* every module set the library offers for the partition's operation
  types (filtered by the datapath cycle under the single-cycle style),
* every allocation along the serial-parallel frontier,
* the nonpipelined design, and the tightest pipelined design each
  allocation sustains (a pipelined design run slower than its hardware
  allows is dominated by construction, so BAD does not emit it),

and predicts the full area breakdown, timing and memory bandwidth for
each, deduplicating identical design points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.bad.allocation import (
    SharingProfile,
    allocation_candidates,
    mux_count,
    partition_resource_model,
    register_slots,
    sharing_profile,
    value_lifetimes,
)
from repro.bad.controller import (
    PlaEstimate,
    PlaParameters,
    datapath_controller,
    pla_estimate,
)
from repro.bad.power import PowerParameters, power_estimate
from repro.bad.prediction import AreaBreakdown, DesignPrediction
from repro.bad.scheduling import Schedule, list_schedule
from repro.bad.styles import ArchitectureStyle, ClockScheme, OperationTiming
from repro.bad.wiring import WiringParameters, wiring_estimate
from repro.dfg.graph import DataFlowGraph, Operation
from repro.dfg.ops import MEMORY_OP_TYPES, OpType
from repro.errors import PredictionError
from repro.library.library import ComponentLibrary, ModuleSet
from repro.memory.access import memory_access_profile
from repro.memory.module import MemoryModule
from repro.obs.tracing import span as trace_span
from repro.stats import Triplet
from repro.units import ceil_div, cycles_for_delay


@dataclass(frozen=True, slots=True)
class PredictorParameters:
    """Tunable constants of the prediction model.

    The relative bounds widen each most-likely estimate into its triplet;
    functional units are known library data (narrow), registers and muxes
    depend on binding details (moderate), wiring is pre-layout (wide, set
    in :class:`~repro.bad.wiring.WiringParameters`).
    """

    max_total_units: int = 64
    functional_rel_lb: float = 0.98
    functional_rel_ub: float = 1.04
    storage_rel_lb: float = 0.92
    storage_rel_ub: float = 1.10
    #: Discount on the naive mux-tree count for binder wire sharing; see
    #: :func:`repro.bad.allocation.mux_requirement`.
    mux_sharing_factor: float = 0.55
    #: Allow dependent single-cycle operations to chain within one
    #: datapath cycle.  Off, every operation is aligned to a cycle
    #: boundary — the ablation showing why a slow datapath clock wastes
    #: fast adders.
    enable_chaining: bool = True
    pla: PlaParameters = field(default_factory=PlaParameters)
    wiring: WiringParameters = field(default_factory=WiringParameters)
    power: PowerParameters = field(default_factory=PowerParameters)
    #: Include design-for-test overhead (the paper's section-5
    #: testability extension): one scan mux per register bit, extra
    #: controller terms for scan control, and a small clock-path delay.
    scan_design: bool = False
    #: Extra product terms the scan controller needs, as a fraction of
    #: the base controller's terms.
    scan_term_fraction: float = 0.05
    #: Delay the scan mux adds in front of every register, ns.
    scan_delay_ns: float = 1.5


class BADPredictor:
    """Behavioral area-delay predictor for one library/style/clock setup."""

    def __init__(
        self,
        library: ComponentLibrary,
        clocks: ClockScheme,
        style: ArchitectureStyle,
        memories: Optional[Mapping[str, MemoryModule]] = None,
        params: Optional[PredictorParameters] = None,
    ) -> None:
        self.library = library
        self.clocks = clocks
        self.style = style
        self.memories = dict(memories or {})
        self.params = params or PredictorParameters()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def predict_partition(
        self,
        graph: DataFlowGraph,
        op_ids: Optional[Iterable[str]] = None,
        name: str = "P1",
        input_arrivals: Optional[Mapping[str, int]] = None,
    ) -> List[DesignPrediction]:
        """All predicted implementations of one partition.

        ``op_ids`` selects the partition's operations; ``None`` means the
        whole graph.  ``input_arrivals`` optionally maps primary-input
        value ids to arrival times in datapath cycles (the section-5
        extension); by default all inputs are available at cycle 0.
        Returns predictions sorted by the paper's ordering (initiation
        interval, then delay), deduplicated on the design point (module
        set, operators, II, latency, style).

        Each derivation is computed once at the scope where it stops
        changing: partition facts once per call, a schedule and what
        follows from it (lifetimes, register slots, minimum II) once per
        distinct timing and capacity vector.  The work is traced as one
        ``bad.predict_partition`` span.
        """
        with trace_span("bad.predict_partition", partition=name) as sp:
            sub = (
                graph.subgraph_ops(op_ids) if op_ids is not None else graph
            )
            if sub.op_count() == 0:
                raise PredictionError(f"partition {name!r} is empty")
            ready = self._ready_times(sub, input_arrivals)
            predictions, tally = self._enumerate(name, sub, ready)
            if sp:
                for counter, amount in tally.items():
                    sp.add(counter, amount)
            if not predictions:
                raise PredictionError(
                    f"no implementations predicted for partition {name!r}"
                )
        return sorted(predictions.values(), key=DesignPrediction.sort_key)

    def _enumerate(
        self,
        name: str,
        sub: DataFlowGraph,
        ready: Optional[Dict[str, int]],
    ) -> Tuple[Dict[Tuple, DesignPrediction], Dict[str, int]]:
        """Every design point of the partition, deduplicated, and a tally
        of the work for the trace."""
        module_sets = self._module_sets(sub)
        facts = self._partition_facts(sub)
        predictions: Dict[Tuple, DesignPrediction] = {}
        # Module sets with identical cycle counts and (when chaining)
        # identical delays produce identical schedules; cache them so a
        # rich library does not re-run the list scheduler needlessly.
        schedule_cache: Dict[Tuple, _ScheduleFacts] = {}
        allocations = ii_probes = designs = dedup_drops = 0
        for module_set in module_sets:
            duration = self._durations(sub, module_set)
            delay_ns, cycle_ns = self._chaining_model(sub, module_set)
            if duration and max(duration.values()) > 1:
                # A multi-cycle memory access forbids chaining alignment.
                delay_ns, cycle_ns = None, None
            busy_cycles: Dict[str, int] = {}
            for op_id, cycles in duration.items():
                cls = facts.op_class[op_id]
                busy_cycles[cls] = busy_cycles.get(cls, 0) + cycles
            timing_key: Tuple = (
                tuple(sorted(duration.items())),
                tuple(sorted(delay_ns.items())) if delay_ns else None,
            )
            unit_area = {
                cls: module_set.component(OpType(cls)).area_for_width(
                    facts.width
                )
                for cls in facts.counts
                if not cls.startswith("mem:")
            }
            for allocation in allocation_candidates(
                facts.counts, self.params.max_total_units,
                busy_cycles=busy_cycles,
            ):
                allocations += 1
                capacities = self._capacities(allocation)
                cache_key = (timing_key, tuple(sorted(capacities.items())))
                derived = schedule_cache.get(cache_key)
                if derived is None:
                    schedule = list_schedule(
                        sub, duration, facts.op_class, capacities,
                        delay_ns=delay_ns, cycle_ns=cycle_ns, ready=ready,
                    )
                    derived = _ScheduleFacts(schedule, busy_cycles)
                    if self.style.allow_pipelined and schedule.latency > 1:
                        derived.min_ii, probes = self._min_pipeline_ii(
                            schedule, busy_cycles
                        )
                        ii_probes += probes
                    schedule_cache[cache_key] = derived
                for prediction in self._designs_for_schedule(
                    name, sub, facts, module_set, unit_area, derived
                ):
                    designs += 1
                    key = self._dedup_key(prediction)
                    existing = predictions.get(key)
                    if existing is not None:
                        dedup_drops += 1
                    if (
                        existing is None
                        or prediction.area_total.ml < existing.area_total.ml
                    ):
                        predictions[key] = prediction
        tally = {
            "module_sets": len(module_sets),
            "allocations": allocations,
            "schedules_built": len(schedule_cache),
            "schedule_hits": allocations - len(schedule_cache),
            "ii_probes": ii_probes,
            "designs": designs,
            "dedup_drops": dedup_drops,
        }
        return predictions, tally

    # ------------------------------------------------------------------
    # enumeration helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _ready_times(
        sub: DataFlowGraph,
        input_arrivals: Optional[Mapping[str, int]],
    ) -> Optional[Dict[str, int]]:
        """Per-operation earliest starts from input arrival times."""
        if not input_arrivals:
            return None
        known = {v.id for v in sub.primary_inputs()}
        unknown = set(input_arrivals) - known
        if unknown:
            raise PredictionError(
                f"arrival times reference non-input values: "
                f"{sorted(unknown)[:5]}"
            )
        ready: Dict[str, int] = {}
        for value_id, arrival in input_arrivals.items():
            if arrival < 0:
                raise PredictionError(
                    f"input {value_id!r} has negative arrival time"
                )
            for consumer in sub.consumers(value_id):
                ready[consumer] = max(ready.get(consumer, 0), arrival)
        return ready

    def _module_sets(self, sub: DataFlowGraph) -> List[ModuleSet]:
        compute_types = sorted(
            {
                op.op_type
                for op in sub
                if op.op_type not in MEMORY_OP_TYPES
            },
            key=lambda t: t.value,
        )
        if not compute_types:
            # A pure-memory partition still needs a (trivial) module set.
            return [ModuleSet.of({})]
        max_delay = None
        if self.style.timing is OperationTiming.SINGLE_CYCLE:
            max_delay = self.clocks.dp_cycle_ns
        return self.library.module_sets(compute_types, max_delay)

    def _durations(
        self, sub: DataFlowGraph, module_set: ModuleSet
    ) -> Dict[str, int]:
        dp = self.clocks.dp_cycle_ns
        duration: Dict[str, int] = {}
        for op in sub:
            if op.op_type in MEMORY_OP_TYPES:
                module = self._memory_of(op)
                duration[op.id] = cycles_for_delay(module.access_time_ns, dp)
                continue
            component = module_set.component(op.op_type)
            if self.style.timing is OperationTiming.SINGLE_CYCLE:
                duration[op.id] = 1
            else:
                duration[op.id] = cycles_for_delay(component.delay_ns, dp)
        return duration

    def _chaining_model(
        self, sub: DataFlowGraph, module_set: ModuleSet
    ) -> Tuple[Optional[Dict[str, float]], Optional[float]]:
        """Per-operation delays for single-cycle chaining, if applicable.

        Under the single-cycle style a long datapath cycle would waste
        most of its span on a fast adder; BAD chains dependent operations
        within the cycle instead ("additional delays introduced to the
        clock cycle" are handled separately).  The multi-cycle style never
        chains — operations are aligned to cycle boundaries.
        """
        if self.style.timing is not OperationTiming.SINGLE_CYCLE:
            return None, None
        if not self.params.enable_chaining:
            return None, None
        delays: Dict[str, float] = {}
        for op in sub:
            if op.op_type in MEMORY_OP_TYPES:
                delays[op.id] = self._memory_of(op).access_time_ns
            else:
                delays[op.id] = module_set.component(op.op_type).delay_ns
        return delays, self.clocks.dp_cycle_ns

    def _memory_of(self, op: Operation) -> MemoryModule:
        module = self.memories.get(op.memory_block or "")
        if module is None:
            raise PredictionError(
                f"operation {op.id!r} accesses unknown memory block "
                f"{op.memory_block!r}"
            )
        return module

    def _partition_facts(self, sub: DataFlowGraph) -> "_PartitionFacts":
        op_class, counts = partition_resource_model(sub)
        for op in sub:
            if op.op_type in MEMORY_OP_TYPES:
                self._memory_of(op)  # name the first unknown block
        profile = memory_access_profile(sub, sub.operations)
        widths = [v.width for v in sub.values.values()]
        return _PartitionFacts(
            op_class=op_class,
            counts=counts,
            sharing=sharing_profile(sub, op_class),
            width=max(widths) if widths else 1,
            bandwidth=(
                profile.bandwidth_bits(self.memories)
                if profile.blocks else {}
            ),
            input_bits=sum(v.width for v in sub.primary_inputs()),
            output_bits=sum(v.width for v in sub.primary_outputs()),
        )

    def _capacities(self, allocation: Mapping[str, int]) -> Dict[str, int]:
        capacities: Dict[str, int] = {}
        for cls, units in allocation.items():
            if cls.startswith("mem:"):
                block = cls[len("mem:") :]
                module = self.memories.get(block)
                if module is None:
                    raise PredictionError(
                        f"unknown memory block {block!r} in allocation"
                    )
                capacities[cls] = min(units, module.ports)
            else:
                capacities[cls] = units
        return capacities

    def _designs_for_schedule(
        self,
        name: str,
        sub: DataFlowGraph,
        facts: "_PartitionFacts",
        module_set: ModuleSet,
        unit_area: Mapping[str, float],
        derived: "_ScheduleFacts",
    ) -> List[DesignPrediction]:
        designs: List[DesignPrediction] = []
        latency = max(derived.schedule.latency, 1)
        if self.style.allow_nonpipelined:
            designs.append(
                self._build_prediction(
                    name, sub, facts, module_set, unit_area, derived,
                    ii_dp=latency, pipelined=False,
                )
            )
        if derived.min_ii < latency:
            designs.append(
                self._build_prediction(
                    name, sub, facts, module_set, unit_area, derived,
                    ii_dp=derived.min_ii, pipelined=True,
                )
            )
        return designs

    @staticmethod
    def _min_pipeline_ii(
        schedule: Schedule, busy: Mapping[str, int]
    ) -> Tuple[int, int]:
        """Smallest initiation interval the allocation sustains, and how
        many intervals were probed to find it.

        Work conservation bounds the interval from below: a class with
        ``busy`` unit-cycles on ``cap`` units needs ``ceil(busy/cap)``
        cycles per iteration, so the scan starts there instead of at 1.
        Modulo feasibility is not monotone in the interval, so a bounded
        window above the bound is probed; past it the nonpipelined
        design (always emitted separately) covers the point.
        """
        latency = max(schedule.latency, 1)
        lower = max(
            (
                ceil_div(total, schedule.capacities[cls])
                for cls, total in busy.items()
            ),
            default=1,
        )
        window = 128
        probes = 0
        for ii in range(max(1, lower), min(latency, lower + window) + 1):
            probes += 1
            if schedule.pipeline_feasible(ii):
                return ii, probes
        return latency, probes

    # ------------------------------------------------------------------
    # prediction assembly
    # ------------------------------------------------------------------
    def _interval_facts(
        self,
        sub: DataFlowGraph,
        facts: "_PartitionFacts",
        derived: "_ScheduleFacts",
        ii_dp: int,
        pipelined: bool,
    ) -> "_IntervalFacts":
        """What a design on this schedule and interval charges apart
        from unit areas, computed once for all module sets sharing the
        schedule."""
        key = (pipelined, ii_dp)
        found = derived.intervals.get(key)
        if found is not None:
            return found
        params = self.params
        schedule = derived.schedule
        # Charge the units the schedule actually needs, not the raw
        # allocation: chaining and slack often leave allocated units
        # never used concurrently, and synthesis instantiates only the
        # peak (pipelined designs peak across overlapped iterations).
        if pipelined:
            effective = schedule.pipeline_capacities(ii_dp)
        else:
            effective = {
                cls: max(usage, default=0) or 1
                for cls, usage in schedule.occupancy().items()
            }
        operator_count = sum(
            units for cls, units in effective.items()
            if not cls.startswith("mem:")
        )
        interval = ii_dp if pipelined else max(schedule.latency, 1)
        if derived.lifetimes is None:
            derived.lifetimes = value_lifetimes(sub, schedule)
        reg_words, reg_bits = register_slots(
            sub, derived.lifetimes, interval
        )
        muxes = mux_count(
            facts.sharing, effective, reg_words, facts.width,
            sharing_factor=params.mux_sharing_factor,
        )
        if params.scan_design:
            # Design-for-test: a scan path threads every register bit
            # through a 2:1 mux.
            muxes += reg_bits

        controller = datapath_controller(
            latency_cycles=max(schedule.latency, 1),
            operator_count=max(operator_count, 1),
            register_words=reg_words,
            mux_count=muxes,
            value_width=facts.width,
            params=params.pla,
        )
        if params.scan_design:
            extra_terms = max(
                1,
                int(controller.product_terms * params.scan_term_fraction),
            )
            controller = pla_estimate(
                controller.inputs,
                controller.outputs + 1,  # scan-enable line
                controller.product_terms + extra_terms,
                params.pla,
            )
        found = _IntervalFacts(
            operators=effective,
            operator_count=operator_count,
            register_words=reg_words,
            register_bits=reg_bits,
            muxes=muxes,
            controller=controller,
        )
        derived.intervals[key] = found
        return found

    def _build_prediction(
        self,
        name: str,
        sub: DataFlowGraph,
        facts: "_PartitionFacts",
        module_set: ModuleSet,
        unit_area: Mapping[str, float],
        derived: "_ScheduleFacts",
        ii_dp: int,
        pipelined: bool,
    ) -> DesignPrediction:
        params = self.params
        schedule = derived.schedule
        width = facts.width
        shared = self._interval_facts(sub, facts, derived, ii_dp, pipelined)
        reg_bits = shared.register_bits
        muxes = shared.muxes
        controller = shared.controller

        functional_ml = 0.0
        for cls, units in shared.operators.items():
            if cls.startswith("mem:"):
                continue  # memory area belongs to the memory block
            functional_ml += units * unit_area[cls]
        functional = Triplet.spread(
            functional_ml, params.functional_rel_lb, params.functional_rel_ub
        )
        registers = Triplet.spread(
            self.library.register.area_for_bits(reg_bits),
            params.storage_rel_lb,
            params.storage_rel_ub,
        ) if reg_bits else Triplet.zero()
        multiplexers = Triplet.spread(
            self.library.mux.area_for_bits(muxes),
            params.storage_rel_lb,
            params.storage_rel_ub,
        ) if muxes else Triplet.zero()

        active_ml = (
            functional.ml
            + registers.ml
            + multiplexers.ml
            + controller.area_mil2.ml
        )
        cell_count = (
            max(shared.operator_count, 1)
            + shared.register_words
            + ceil_div(muxes, max(width, 1))
            + 1  # the controller
        )
        wiring = wiring_estimate(active_ml, cell_count, params.wiring)

        overhead = (
            self.library.register.delay_ns
            + (self.library.mux.delay_ns if muxes else 0.0)
            + wiring.delay_ns
            + controller.delay_ns
        )
        if params.scan_design:
            overhead += params.scan_delay_ns

        power = power_estimate(
            functional_area_by_class=unit_area,
            busy_cycles_by_class=derived.busy,
            ii_dp=ii_dp,
            dp_cycle_ns=self.clocks.dp_cycle_ns,
            register_bits=reg_bits,
            mux_count=muxes,
            controller_terms=controller.product_terms,
            active_area_mil2=active_ml,
            params=params.power,
        )

        return DesignPrediction(
            partition=name,
            module_set=module_set,
            timing=self.style.timing,
            pipelined=pipelined,
            operators=dict(shared.operators),
            ii_dp=ii_dp,
            latency_dp=max(schedule.latency, 1),
            ii_main=self.clocks.dp_cycles_to_main(ii_dp),
            latency_main=self.clocks.dp_cycles_to_main(
                max(schedule.latency, 1)
            ),
            register_bits=reg_bits,
            register_words=shared.register_words,
            mux_count=muxes,
            area=AreaBreakdown(
                functional_units=functional,
                registers=registers,
                multiplexers=multiplexers,
                controller=controller.area_mil2,
                wiring=wiring.area_mil2,
            ),
            controller=controller,
            clock_overhead_ns=overhead,
            memory_bandwidth_bits=dict(facts.bandwidth),
            input_bits=facts.input_bits,
            output_bits=facts.output_bits,
            power_mw=power.total_mw,
        )

    @staticmethod
    def _dedup_key(prediction: DesignPrediction) -> Tuple:
        return (
            prediction.module_set.label,
            tuple(sorted(prediction.operators.items())),
            prediction.ii_main,
            prediction.latency_main,
            prediction.pipelined,
        )


@dataclass(frozen=True, slots=True)
class _PartitionFacts:
    """What BAD derives from the partition alone, once per
    :meth:`BADPredictor.predict_partition` call."""

    op_class: Dict[str, str]
    counts: Dict[str, int]
    sharing: SharingProfile
    #: Dominant value width: every unit and mux is sized to it.
    width: int
    bandwidth: Dict[str, int]
    input_bits: int
    output_bits: int


class _ScheduleFacts:
    """One schedule and what follows from it, derived once.

    Every module set and allocation that reuses the schedule (through
    the schedule cache) shares its minimum pipeline II, its value
    lifetimes and, per interval, the :class:`_IntervalFacts`.  ``min_ii``
    equals the latency when no pipelined design is emitted.  Lives only
    as long as one :meth:`BADPredictor.predict_partition` call.
    """

    __slots__ = ("schedule", "busy", "min_ii", "lifetimes", "intervals")

    def __init__(
        self, schedule: Schedule, busy: Mapping[str, int]
    ) -> None:
        self.schedule = schedule
        #: Unit-cycles each class executes per iteration.
        self.busy = busy
        self.min_ii = max(schedule.latency, 1)
        self.lifetimes: Optional[Dict[str, Tuple[int, int]]] = None
        self.intervals: Dict[Tuple[bool, int], _IntervalFacts] = {}


@dataclass(frozen=True, slots=True)
class _IntervalFacts:
    """The storage, steering and control one schedule needs at one
    interval (pipelined or not); only unit areas vary by module set."""

    #: Units charged per class: the peak the schedule actually uses.
    operators: Dict[str, int]
    #: Compute units among them (memory ports excluded).
    operator_count: int
    register_words: int
    register_bits: int
    muxes: int
    controller: PlaEstimate
