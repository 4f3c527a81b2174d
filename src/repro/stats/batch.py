"""Vectorized triangular-distribution kernels (numpy).

The closed forms here are element-for-element the same arithmetic as
:func:`repro.stats.distributions.triangular_cdf` — same branch
structure, same ratio-product factorisation, same operation order — so
for identical ``(x, lb, ml, ub)`` inputs the float64 results are
**bitwise equal** to the scalar path.  That is the property the
vectorized search kernels (:mod:`repro.kernels`) build their soundness
argument on, and ``tests/test_kernels.py`` asserts it at every branch
breakpoint (``x`` at/inside/outside the support, mode at either edge,
degenerate ``lb == ml == ub`` supports).

This module imports numpy eagerly; import it lazily, on first use, so
that light entry points such as ``import repro.cli`` do not load numpy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["triangular_cdf_array"]


def triangular_cdf_array(
    x: "np.ndarray | float",
    lb: np.ndarray,
    ml: np.ndarray,
    ub: np.ndarray,
) -> np.ndarray:
    """Elementwise CDF of triangular distributions with mode ``ml``.

    ``x`` may be a scalar (one limit checked against many supports) or
    an array broadcastable against the parameter arrays.  Parameters
    must satisfy ``lb <= ml <= ub`` elementwise (the :class:`Triplet`
    invariant); this is not re-validated here — the packing layer only
    ever sums valid triplets, which preserves the ordering.

    Degenerate supports (``lb == ub``) give a step function at the
    point mass, exactly as the scalar form.
    """
    lb = np.asarray(lb, dtype=np.float64)
    ml = np.asarray(ml, dtype=np.float64)
    ub = np.asarray(ub, dtype=np.float64)
    x_arr = np.asarray(x, dtype=np.float64)

    span = ub - lb
    left = ml - lb
    right = ub - ml
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Rising branch (x < ml): ((x-lb)/span) * ((x-lb)/left); with the
        # mode at the upper edge (right == 0) it covers the whole support.
        rise_num = x_arr - lb
        rising = (rise_num / span) * (rise_num / left)
        # Falling branch (x >= ml): 1 - ((ub-x)/span) * ((ub-x)/right);
        # with the mode at the lower edge (left == 0) it covers the whole
        # support.
        fall_num = ub - x_arr
        falling = 1.0 - (fall_num / span) * (fall_num / right)

    below_mode = x_arr < ml
    out = np.where(
        below_mode,
        np.where(left == 0.0, falling, rising),
        np.where(right == 0.0, rising, falling),
    )
    # Outside the support the CDF saturates; these overwrite any NaN the
    # masked-off branches produced (e.g. 0/0 on degenerate supports).
    out = np.where(x_arr <= lb, 0.0, out)
    out = np.where(x_arr >= ub, 1.0, out)
    # Degenerate point mass: a step at lb (== ub).
    out = np.where(
        span == 0.0, np.where(x_arr >= lb, 1.0, 0.0), out
    )
    return out
