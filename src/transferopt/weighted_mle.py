"""Weighted maximum-likelihood estimation.

The estimator maximizes the target log likelihood plus each source block's
log likelihood multiplied by that block's nonnegative weight. Every fit
and every trainer step takes its data in one form: ``target`` samples,
a sequence of ``sources`` batches and one weight per source. The weighted
sums themselves come from ``weighted_loglik`` alone, one
``loglik_and_score_sum`` call per block with positive weight; Newton's
gradient, Newton's Hessian and the trainer's pooled loss are all built
from it or from its blocks.

Categorical and Gaussian families have a sufficient statistic and closed
forms (weighted counts and weighted means), which ``fit_sufficient`` takes
from the blocks' statistics; every other fit, and every ridge-penalized
one, is solved by damped Newton ascent.
"""

import numpy as np

from .errors import ConvergenceError, UnsupportedFamilyError
from .families import Categorical, GaussianIso, INTERIOR_FLOOR

__all__ = [
    "fit_weighted_mle",
    "fit_sufficient",
    "has_sufficient_stat",
    "search_start",
    "source_weights",
    "weighted_loglik",
    "weighted_loglik_grad",
]

# Newton stops once the gradient norm is at most NEWTON_TOL
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 10000


def source_weights(weights, k):
    """``weights`` as an array of one finite nonnegative weight for each
    of ``k`` source blocks, else ValueError; every fit's weight rule."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (k,):
        raise ValueError(f"need one weight per source block: "
                         f"{k} blocks, weights of shape {w.shape}")
    if not np.all((w >= 0.0) & (w < np.inf)):
        raise ValueError("source weights must be finite and nonnegative")
    return w


def _weighted_blocks(target, sources, weights):
    """``(samples, weight)`` pairs: the target at weight 1, then each
    source whose weight is positive. A zero-weight block contributes
    nothing and is never evaluated. ``weights`` pass ``source_weights``."""
    w = source_weights(weights, len(sources))
    return [(target, 1.0)] + [(xs, float(wk))
                              for xs, wk in zip(sources, w) if wk > 0.0]


def has_sufficient_stat(family):
    """Whether ``family`` fits, and draws Monte Carlo trials, through a
    sufficient statistic (``sufficient_stat`` and ``stat_sampler``)."""
    return hasattr(family, "stat_sampler")


def weighted_loglik(family, theta, target, sources=(), weights=()):
    """The weighted log likelihood and its gradient, ``(sum w log p, sum w
    score)``, over the target at weight 1 and each source block at its
    weight; zero-weight blocks are skipped."""
    total, score = 0.0, 0.0
    for xs, w in _weighted_blocks(target, sources, weights):
        loglik, block_score = family.loglik_and_score_sum(theta, xs)
        total += w * float(loglik)
        score = score + w * block_score
    return total, score


def weighted_loglik_grad(family, theta, target, sources=(), weights=(),
                         ridge=0.0):
    """Gradient of the weighted log likelihood minus ``ridge * |theta|^2``."""
    g = weighted_loglik(family, theta, target, sources, weights)[1]
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


def search_start(family):
    """Where every parameter search starts, Newton's and the trainers':
    the uniform distribution for ``categorical``, else zeros."""
    if isinstance(family, Categorical):
        return np.full(family.dim, 1.0 / family.num_outcomes)
    return np.zeros(family.dim)


def _newton(family, target, sources, weights, ridge):
    theta = search_start(family)
    blocks = _weighted_blocks(target, sources, weights)
    g = weighted_loglik_grad(family, theta, target, sources, weights, ridge)
    rounding_floor = NEWTON_TOL * max(1.0, float(np.linalg.norm(g)))
    for _ in range(NEWTON_MAX_ITER):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= NEWTON_TOL:
            return theta
        h = sum(w * family.loglik_hessian(theta, xs) for xs, w in blocks)
        if ridge:
            h = h - 2.0 * ridge * np.eye(family.dim)
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            step = g / max(gnorm, 1.0)
        # backtrack until the iterate is valid and the gradient norm drops
        for scale in 0.5 ** np.arange(60):
            cand = theta + scale * step
            try:
                family.validate(cand)
                gc = weighted_loglik_grad(family, cand, target, sources,
                                          weights, ridge)
            except Exception:
                continue
            if float(np.linalg.norm(gc)) < gnorm:
                theta, g = cand, gc
                break
        else:
            if gnorm <= rounding_floor:
                return theta
            raise ConvergenceError("newton line search stalled",
                                   last_iterate=theta, residual=gnorm)
    raise ConvergenceError(
        f"no convergence after {NEWTON_MAX_ITER} newton iterations",
        last_iterate=theta,
        residual=float(np.linalg.norm(g)),
    )


def fit_weighted_mle(family, target, sources=(), weights=(), ridge=0.0):
    """Maximize the weighted log likelihood minus ``ridge * |theta|^2``.

    ``target`` is the target samples, ``sources`` a sequence of source
    batches and ``weights`` one finite nonnegative weight per source.
    Categorical and Gaussian fits (weighted counts, weighted means) are
    closed form when ``ridge`` is 0. Every other fit is damped Newton
    ascent. It stops at a gradient norm of at most ``NEWTON_TOL``, or at
    the rounding floor ``NEWTON_TOL * max(1, |g0|)`` (g0 at the start) when
    no halving of the step lowers it; a stall above it is ConvergenceError.
    """
    blocks = _weighted_blocks(target, sources, weights)
    if family.n_samples(target) < 1:
        raise ValueError("need at least one target sample")
    if has_sufficient_stat(family) and not ridge:
        return fit_sufficient(family, [
            (family.sufficient_stat(xs), family.n_samples(xs), w)
            for xs, w in blocks])
    return _newton(family, target, sources, weights, ridge)
