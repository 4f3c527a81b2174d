"""repro.kernels — array-based batch evaluation of combination shards.

The scalar search loop (:func:`repro.engine.workers.evaluate_range`)
pays a full python object walk — decode, dict selection, level-2 prune,
integration — per combination.  This package packs the per-partition
prediction lists into numpy column arrays once
(:mod:`~repro.kernels.packing`) and then screens whole index blocks per
array op (:mod:`~repro.kernels.batch`): combinations that are *provably*
infeasible are killed by vectorized kernels, and only the survivors run
the unchanged scalar integration pipeline, in flat-index order.  The
feasible list — and therefore ``SearchResult.to_dict()`` — is
byte-identical to the scalar path by construction.  The enumeration walk
screens through this package unless it needs a per-combination hook;
the scalar loop stays in the tree as the reference oracle
(``check(kernel="scalar")``) and as the walk for those hooks.

See ``docs/performance.md`` for the memory layout, the kernel contracts
and the soundness argument behind each screen.
"""

from repro.kernels.batch import (
    evaluate_range_batch,
    level1_keep_mask,
    lexicographic_argmin,
)
from repro.kernels.packing import PackedPredictions, pack_problem

__all__ = [
    "PackedPredictions",
    "evaluate_range_batch",
    "level1_keep_mask",
    "lexicographic_argmin",
    "pack_problem",
]
