"""Per-region regularized least squares with incremental inverse updates.

Each (step, region) regression keeps a design matrix
``lam = lambda*I + sum phi phi^T`` over its visits and the matching inverse,
maintained by rank-1 (Sherman-Morrison) updates. The inverse is recomputed
from scratch every ``REINVERT_EVERY`` updates to reset floating-point drift.
A 1x1 regression (d = 1) is updated in Python floats with the same roundings
as the matrix formulas: on a 1x1, numpy's per-call cost is most of the work.
"""

from __future__ import annotations

import math

import numpy as np

REINVERT_EVERY = 512


def ridge_update(lam: np.ndarray, lam_inv: np.ndarray, phi: np.ndarray, count: int) -> None:
    """Absorb one visit in place: lam += phi phi^T, with lam_inv kept its inverse.

    ``count`` is the region's visit count including this one; the inverse is
    recomputed directly whenever it is a multiple of ``REINVERT_EVERY``.
    At d = 1 every product and quotient is the one the matrix formulas round,
    computed on floats, so both paths give the same bits.
    """
    if lam.shape[0] == 1:
        p = float(phi[0])
        if not math.isfinite(p):
            raise ValueError("non-finite input to ridge update")
        lam_11 = float(lam[0, 0]) + p * p
        li = float(lam_inv[0, 0])
        u = li * p
        li -= (u * u) / (1.0 + p * u)
        if count % REINVERT_EVERY == 0:
            li = 1.0 / lam_11
        lam[0, 0] = lam_11
        lam_inv[0, 0] = li
        return
    phi = np.asarray(phi, dtype=float)
    if not np.isfinite(phi).all():
        raise ValueError("non-finite input to ridge update")
    lam += phi[:, None] * phi
    u = lam_inv @ phi
    lam_inv -= (u[:, None] * u) / (1.0 + phi @ u)
    if count % REINVERT_EVERY == 0:
        lam_inv[:] = np.linalg.inv(lam)


def mahalanobis_inv_norm(lam_inv: np.ndarray, phi: np.ndarray) -> float:
    """sqrt(phi^T lam_inv phi): the dual norm driving exploration bonuses."""
    phi = np.asarray(phi, dtype=float)
    return float(np.sqrt(max(phi @ lam_inv @ phi, 0.0)))
