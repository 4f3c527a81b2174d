"""Seeded input generation: every project, move and request of a run.

One ``--seed`` determines everything the program receives.  Each
purpose draws from its own stream (``stream(seed, "designer", ...)``),
so adding a draw to one workload never shifts another's inputs.  The
program only ever sees the generated project documents (JSON), the
moves applied to them and the HTTP requests built from them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.auto.partitioner import default_auto_session
from repro.core.schemes import horizontal_cut
from repro.dfg.builders import generate_dfg
from repro.errors import PartitioningError
from repro.experiments import experiment1_session, experiment2_session
from repro.io.project import load_project, project_fingerprint, session_to_dict

#: The paper's AR-lattice cells: (experiment, partitions), package 2.
CELLS = {
    "e1p2": (1, 2),
    "e1p3": (1, 3),
    "e2p2": (2, 2),
    "e2p3": (2, 3),
    "e2p4": (2, 4),
}

SPARE_CHIP = "spare"

#: A move: ("migrate", from_partition, to_partition, op_id) or
#: ("move", partition, chip).
Move = Tuple[str, ...]


def stream(seed: int, *purpose: str) -> random.Random:
    """An independent, reproducible random stream for one purpose."""
    return random.Random(":".join(["perfbench", str(seed), *purpose]))


def cell_session(name: str, spare: bool = False):
    experiment, partitions = CELLS[name]
    if experiment == 1:
        session = experiment1_session(
            package_number=2, partition_count=partitions
        )
    else:
        session = experiment2_session(
            partition_count=partitions, package_number=2
        )
    if spare:
        package = next(iter(session.chips.values())).package
        session.add_chip(SPARE_CHIP, package)
    return session


def layered_session(ops: int, partitions: int, graph_seed: int,
                    spare: bool = False):
    """A seeded layered DAG on the auto-partitioner's default session,
    horizontally cut, one partition per chip; with ``spare`` the last
    chip stays empty."""
    graph = generate_dfg("layered", ops, seed=graph_seed)
    session = default_auto_session(graph, partitions + (1 if spare else 0))
    parts = horizontal_cut(graph, partitions)
    session.set_partitions(
        parts, {p.name: f"chip{i + 1}" for i, p in enumerate(parts)}
    )
    return session


# ----------------------------------------------------------------------
# section 2.7 moves
# ----------------------------------------------------------------------
def candidate_moves(session) -> List[Move]:
    """Every one-step move the designer could try next: migrate one
    boundary operation to a neighbouring partition no larger than its
    own (a balancing move, so a walk stays near the cut it started
    from), or move a partition to a chip that holds none."""
    partitioning = session.partitioning()
    owner = partitioning.partition_map()
    graph = session.graph
    moves: List[Move] = []
    for name, partition in sorted(partitioning.partitions.items()):
        if len(partition) < 2:
            continue
        for op_id in sorted(partition.op_ids):
            neighbours = set(graph.predecessors(op_id))
            neighbours.update(graph.successors(op_id))
            for other in sorted({owner[n] for n in neighbours} - {name}):
                if len(partitioning.partitions[other]) <= len(partition):
                    moves.append(("migrate", name, other, op_id))
    used = set(partitioning.partition_chip.values())
    free = sorted(set(session.chips) - used)
    for name in sorted(partitioning.partitions):
        for chip in free:
            moves.append(("move", name, chip))
    return moves


def apply_move(session, move: Move) -> None:
    """Apply one move; raises PartitioningError when it is illegal
    (the session restores itself, see ChopSession)."""
    if move[0] == "migrate":
        _, src, dst, op_id = move
        session.migrate_operations(src, dst, [op_id])
    else:
        _, partition, chip = move
        session.move_partition(partition, chip)


def legal_walk(session, rng: random.Random, steps: int,
               relocate_every: int = 0) -> List[Move]:
    """Apply ``steps`` legal moves drawn from ``rng``.

    A rejected move is retried with another candidate.  An operation
    migrates at most once per walk, so no step undoes an earlier one.
    With ``relocate_every`` = k, every k-th move relocates a partition
    to a free chip and the others migrate an operation, so every walk
    has the same mix of move kinds.
    """
    applied: List[Move] = []
    migrated = set()
    while len(applied) < steps:
        candidates = [m for m in candidate_moves(session)
                      if m[0] == "move" or m[3] not in migrated]
        if relocate_every:
            kind = ("move" if len(applied) % relocate_every
                    == relocate_every - 1 else "migrate")
            candidates = [m for m in candidates if m[0] == kind]
        rng.shuffle(candidates)
        for move in candidates:
            try:
                apply_move(session, move)
            except PartitioningError:
                continue
            applied.append(move)
            if move[0] == "migrate":
                migrated.add(move[3])
            break
        else:
            break
    return applied


# ----------------------------------------------------------------------
# per-workload inputs
# ----------------------------------------------------------------------
@dataclass
class Visit:
    """One designer-loop visit: a project document and the moves the
    designer replays on a fresh session opened from it."""

    name: str
    doc: Dict[str, Any]
    moves: List[Move]


DESIGNER_CELLS = ("e1p2", "e1p3", "e2p2", "e2p3", "e2p4")
DESIGNER_LAYERED_OPS = 200
#: The layered project's seed, for its graph and its walks.  Its steps
#: are the loop's slowest and set the tail and the trial rate, so a
#: per-run draw would make runs with different seeds incomparable; the
#: run seed draws the walks on the AR-lattice cells.
DESIGNER_LAYERED_SEED = 1
DESIGNER_MOVES = 8
#: Visits per project; the run walks them round-robin across projects.
DESIGNER_VISITS = 5


def designer_inputs(seed: int) -> List[Visit]:
    """Experiment-1 and -2 cells plus a 200-op layered graph on 4
    partitions, each with a spare chip; every visit is a fresh walk of
    DESIGNER_MOVES legal moves from the project (drawn from the run
    seed on the cells, see DESIGNER_LAYERED_SEED)."""
    projects = [(name, session_to_dict(cell_session(name, spare=True)))
                for name in DESIGNER_CELLS]
    projects.append(("layered200", session_to_dict(layered_session(
        DESIGNER_LAYERED_OPS, 4, DESIGNER_LAYERED_SEED, spare=True))))
    visits: List[Visit] = []
    for round_ in range(DESIGNER_VISITS):
        for name, doc in projects:
            walker = load_project(doc)
            walk_seed = (DESIGNER_LAYERED_SEED if name == "layered200"
                         else seed)
            rng = stream(walk_seed, "designer", "walk", name, str(round_))
            visits.append(Visit(name, doc, legal_walk(
                walker, rng, DESIGNER_MOVES, relocate_every=4)))
    return visits


def replay(doc: Dict[str, Any], moves: Sequence[Move]):
    """A fresh session from ``doc`` with ``moves`` applied, unchecked."""
    session = load_project(doc)
    for move in moves:
        apply_move(session, move)
    return session


SHELL_CELLS = ("e1p2", "e1p3", "e2p2", "e2p3")


def shell_inputs(seed: int, count: int) -> List[Dict[str, Any]]:
    """The shell designer's file sequence: each step one move away from
    an earlier file, starting from the AR-lattice cells; every 4th step
    re-runs the previous file unchanged."""
    bases = [session_to_dict(cell_session(name, spare=True))
             for name in SHELL_CELLS]
    fresh = iter(variants(seed, "shell", bases, count))
    out: List[Dict[str, Any]] = []
    while len(out) < count:
        out.append(out[-1] if len(out) % 4 == 3 else next(fresh))
    return out


#: Draw budget of :func:`variants`; reaching it means the walks are stuck.
VARIANT_DRAWS_PER_PROJECT = 50

SERVE_POOL_CELLS = ("e1p2", "e1p3", "e2p2", "e2p3", "e2p4")


def serve_cells() -> List[Dict[str, Any]]:
    return [session_to_dict(cell_session(name, spare=True))
            for name in SERVE_POOL_CELLS]


def one_move_variant(seed: int, purpose: str, index: int,
                     parent: Dict[str, Any]) -> Dict[str, Any]:
    """Variant ``index`` of ``purpose``: ``parent`` after one legal
    move drawn from its own stream (so a longer run only appends)."""
    session = load_project(parent)
    legal_walk(session, stream(seed, purpose, str(index)), 1)
    return session_to_dict(session)


def variants(seed: int, purpose: str, parents: Sequence[Dict[str, Any]],
             count: int) -> List[Dict[str, Any]]:
    """``count`` distinct projects, each one move away from an earlier
    one.  Variant ``j`` extends the chain of parent ``j % len(parents)``,
    so every run sees the same mix of cells.  A chain also steps onto
    projects already drawn (without returning them again), so it walks
    out of a neighbourhood it has exhausted instead of retrying it."""
    seen = {project_fingerprint(doc) for doc in parents}
    chains = list(parents)
    out: List[Dict[str, Any]] = []
    draw = 0
    while len(out) < count:
        if draw == VARIANT_DRAWS_PER_PROJECT * count:
            raise RuntimeError(
                f"only {len(out)} of {count} distinct {purpose} variants")
        slot = len(out) % len(chains)
        doc = one_move_variant(seed, purpose, draw, chains[slot])
        draw += 1
        chains[slot] = doc
        key = project_fingerprint(doc)
        if key not in seen:
            seen.add(key)
            out.append(doc)
    return out


@dataclass
class EnumerateProject:
    name: str
    doc: Dict[str, Any]


ENUMERATE_CELLS = ("e1p3", "e2p3", "e2p4")
#: Layered graphs (operations, partitions, generator seed) spanning
#: ~560 to ~1400 pruned combinations.
ENUMERATE_GRAPHS = ((100, 3, 3), (100, 3, 5), (100, 3, 1), (100, 4, 2))


def enumerate_inputs(seed: int) -> List[EnumerateProject]:
    """The AR-lattice cells with 240-600 combinations and the layered
    graphs, in an order drawn from the seed.

    The projects themselves do not vary with the seed: one layered
    enumeration costs 0.4-2 s and even two legal moves change it by up
    to 2x, so seeded projects would make runs with different seeds
    incomparable.
    """
    out = [EnumerateProject(name, session_to_dict(cell_session(name)))
           for name in ENUMERATE_CELLS]
    for ops, partitions, graph_seed in ENUMERATE_GRAPHS:
        out.append(EnumerateProject(
            f"layered{ops}k{partitions}s{graph_seed}",
            session_to_dict(layered_session(ops, partitions, graph_seed))))
    stream(seed, "enumerate", "order").shuffle(out)
    return out
