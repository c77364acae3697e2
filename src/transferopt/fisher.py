"""Fisher information: the analytic matrix, and the empirical one
projected onto source directions.

Every function returns a plain array. The planner never needs more than
the K x K quadratic form of the information matrix against the source
direction columns, so the empirical path computes only that projection:
the per-sample scores (``score_batch``, the same for every family) times
the direction columns, never a d x d array.
"""

import numpy as np

from .errors import UnsupportedFamilyError

__all__ = [
    "analytic_fisher",
    "projected_gram",
]


def analytic_fisher(family, theta):
    """Exact information matrix for families that have one."""
    fn = getattr(family, "analytic_fisher_matrix", None)
    if fn is None:
        raise UnsupportedFamilyError(
            f"family '{family.name}' has no analytic information matrix"
        )
    return fn(theta)


def projected_gram(family, theta, samples, directions):
    """Empirical information restricted to K direction columns: the K x K
    matrix (1/n) sum_i (Theta^T g_i)(Theta^T g_i)^T."""
    th = np.asarray(directions, dtype=float)
    if th.ndim != 2 or th.shape[0] != family.dim:
        raise ValueError(
            f"directions must be (dim, K) with dim={family.dim}, got {th.shape}"
        )
    n = family.n_samples(samples)
    if n < 1:
        raise ValueError("empirical information needs at least one sample")
    proj = family.score_batch(theta, samples) @ th
    return (proj.T @ proj) / proj.shape[0]
