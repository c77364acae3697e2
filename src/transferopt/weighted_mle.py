"""Weighted maximum-likelihood estimation.

The estimator maximizes the target log likelihood plus each source block's
log likelihood multiplied by that block's nonnegative weight. Categorical
and Gaussian families have a sufficient statistic and closed forms
(weighted counts and weighted means), which ``fit_sufficient`` takes from
the blocks' statistics; every other fit, and every ridge-penalized one, is
solved by damped Newton ascent.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, UnsupportedFamilyError
from .families import Categorical, GaussianIso, INTERIOR_FLOOR

__all__ = [
    "SourceBlock",
    "WeightedDataset",
    "fit_weighted_mle",
    "fit_sufficient",
    "has_sufficient_stat",
    "weighted_loglik_grad",
]

# Newton stops once the gradient norm is at most NEWTON_TOL
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 10000


@dataclass
class SourceBlock:
    """One source dataset together with its transfer weight."""

    samples: object
    weight: float

    def __post_init__(self):
        if not 0.0 <= self.weight < np.inf:
            raise ValueError("source weights must be finite and nonnegative")


@dataclass
class WeightedDataset:
    """Target samples plus weighted source blocks."""

    target_samples: object
    source_blocks: list = field(default_factory=list)


def _active_blocks(data):
    # zero-weight blocks contribute nothing and would only add 0 * (-inf)
    # style noise at boundary samples, drop them up front
    return [b for b in data.source_blocks if b.weight > 0.0]


def has_sufficient_stat(family):
    """Whether ``family`` fits, and draws Monte Carlo trials, through a
    sufficient statistic (``sufficient_stat`` and ``stat_sampler``)."""
    return hasattr(family, "stat_sampler")


def weighted_loglik_grad(family, theta, data, ridge=0.0):
    """Gradient of the weighted log likelihood minus ``ridge * |theta|^2``."""
    g = family.score_batch(theta, data.target_samples).sum(axis=0)
    for b in _active_blocks(data):
        g = g + b.weight * family.score_batch(theta, b.samples).sum(axis=0)
    if ridge:
        g = g - 2.0 * ridge * np.asarray(theta, dtype=float)
    return g


def fit_sufficient(family, stats):
    """Closed-form weighted MLE from sufficient statistics.

    ``stats`` holds ``(statistic, count, weight)`` for the target (weight
    1) and then each source block, where ``statistic`` is
    ``family.sufficient_stat`` of ``count`` samples. Zero-weight blocks
    are skipped; the rest are pooled as ``sum(weight * statistic)`` over a
    mass of ``sum(weight * count)``.
    """
    (total, mass, _), *blocks = stats
    mass = float(mass)
    for stat, n, w in blocks:
        if w > 0.0:
            total = total + w * stat
            mass += w * n
    if isinstance(family, Categorical):
        return _closed_form_categorical(total)
    if isinstance(family, GaussianIso):
        return _closed_form_gaussian(total, mass)
    raise UnsupportedFamilyError(f"no closed form for family '{family.name}'")


def _closed_form_categorical(counts):
    p = counts / counts.sum()
    # clamp onto the interior simplex so downstream densities stay finite
    p = np.maximum(p, INTERIOR_FLOOR)
    p = p / p.sum()
    return p[:-1]


def _closed_form_gaussian(total, mass):
    return total / mass


def _newton(family, data, ridge):
    if isinstance(family, Categorical):
        # start strictly inside the simplex
        theta = np.full(family.dim, 1.0 / family.num_outcomes)
    else:
        theta = np.zeros(family.dim)
    g = weighted_loglik_grad(family, theta, data, ridge)
    for _ in range(NEWTON_MAX_ITER):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= NEWTON_TOL:
            return theta
        h = family.loglik_hessian(theta, data.target_samples)
        for b in _active_blocks(data):
            h = h + b.weight * family.loglik_hessian(theta, b.samples)
        if ridge:
            h = h - 2.0 * ridge * np.eye(family.dim)
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            step = g / max(gnorm, 1.0)
        # backtrack until the iterate is valid and the gradient norm drops
        scale = 1.0
        for _ in range(60):
            cand = theta + scale * step
            try:
                family.validate(cand)
                gc = weighted_loglik_grad(family, cand, data, ridge)
            except Exception:
                scale *= 0.5
                continue
            if float(np.linalg.norm(gc)) < gnorm or scale < 1e-12:
                theta, g = cand, gc
                break
            scale *= 0.5
        else:
            raise ConvergenceError(
                "newton line search stalled", last_iterate=theta, residual=gnorm
            )
    raise ConvergenceError(
        f"no convergence after {NEWTON_MAX_ITER} newton iterations",
        last_iterate=theta,
        residual=float(np.linalg.norm(g)),
    )


def fit_weighted_mle(family, data, ridge=0.0):
    """Maximize the weighted log likelihood minus ``ridge * |theta|^2``.

    A family with a sufficient statistic (categorical: weighted outcome
    counts; Gaussian: weighted means) is fitted in closed form when
    ``ridge`` is 0. Every other fit is damped Newton ascent, which drives
    the gradient norm to at most ``NEWTON_TOL``.
    """
    if family.n_samples(data.target_samples) < 1:
        raise ValueError("need at least one target sample")
    if has_sufficient_stat(family) and not ridge:
        blocks = [(data.target_samples, 1.0)] + [
            (b.samples, b.weight) for b in _active_blocks(data)]
        return fit_sufficient(family, [
            (family.sufficient_stat(xs), family.n_samples(xs), w)
            for xs, w in blocks])
    return _newton(family, data, ridge)
