"""Per-region regularized least squares with incremental inverse updates.

Each (step, region) regression keeps a design matrix
``lam = lambda*I + sum phi phi^T`` over its visits and the matching inverse,
maintained by rank-1 (Sherman-Morrison) updates. The inverse is recomputed
from scratch every ``REINVERT_EVERY`` updates to reset floating-point drift.
"""

from __future__ import annotations

import numpy as np

REINVERT_EVERY = 512


def ridge_update(lam: np.ndarray, lam_inv: np.ndarray, phi: np.ndarray, count: int) -> None:
    """Absorb one visit in place: lam += phi phi^T, with lam_inv kept its inverse.

    ``count`` is the region's visit count including this one; the inverse is
    recomputed directly whenever it is a multiple of ``REINVERT_EVERY``.
    """
    phi = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phi)):
        raise ValueError("non-finite input to ridge update")
    lam += np.outer(phi, phi)
    u = lam_inv @ phi
    denom = 1.0 + phi @ u
    lam_inv -= np.outer(u, u) / denom
    if count % REINVERT_EVERY == 0:
        lam_inv[:] = np.linalg.inv(lam)


def mahalanobis_inv_norm(lam_inv: np.ndarray, phi: np.ndarray) -> float:
    """sqrt(phi^T lam_inv phi): the dual norm driving exploration bonuses."""
    phi = np.asarray(phi, dtype=float)
    return float(np.sqrt(max(phi @ lam_inv @ phi, 0.0)))
