"""Fisher information, analytic and empirical, plus the projected path.

Every function returns a plain array. Dense d x d matrices are only built
for moderate dimension. The planner never needs more than the K x K
quadratic form of the information matrix against the source direction
columns, so for large models only that projection is computed, one pass
over the per-sample scores, never a d x d array.
"""

import numpy as np

from .errors import UnsupportedFamilyError

__all__ = [
    "DENSE_DIM_LIMIT",
    "analytic_fisher",
    "empirical_fisher",
    "projected_gram",
]

DENSE_DIM_LIMIT = 1024


def analytic_fisher(family, theta):
    """Exact information matrix for families that have one."""
    fn = getattr(family, "analytic_fisher_matrix", None)
    if fn is None:
        raise UnsupportedFamilyError(
            f"family '{family.name}' has no analytic information matrix"
        )
    m = fn(theta)
    return 0.5 * (m + m.T)


def empirical_fisher(family, theta, samples):
    """Average of per-sample score outer products at ``theta``.

    Uses the realized observations, not model-resampled ones. Symmetric
    PSD by construction.
    """
    n = family.n_samples(samples)
    if n < 1:
        raise ValueError("empirical information needs at least one sample")
    if family.dim > DENSE_DIM_LIMIT:
        raise ValueError(
            f"dim {family.dim} exceeds the dense limit {DENSE_DIM_LIMIT}, "
            "use projected_gram"
        )
    s = family.score_batch(theta, samples)
    m = (s.T @ s) / n
    return 0.5 * (m + m.T)


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
    project = getattr(family, "score_project_batch", None)
    if project is not None:
        proj = project(theta, samples, th)
    else:
        proj = family.score_batch(theta, samples) @ th
    g = (proj.T @ proj) / proj.shape[0]
    return 0.5 * (g + g.T)  # kill roundoff asymmetry
