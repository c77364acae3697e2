"""Weighted maximum-likelihood estimation.

The estimator maximizes the target log likelihood plus each source block's
log likelihood multiplied by that block's nonnegative weight. Categorical
and Gaussian families have closed forms (weighted counts and weighted
means); everything else is solved by damped Newton ascent, with a gradient
fallback for very high dimension.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, UnsupportedFamilyError
from .families import Categorical, GaussianIso, INTERIOR_FLOOR

__all__ = [
    "SourceBlock",
    "WeightedDataset",
    "FitOptions",
    "MixtureDistribution",
    "fit_weighted_mle",
    "weighted_loglik",
    "weighted_loglik_grad",
    "mixture_view",
]

# Newton is practical up to this dimension; beyond it use gradient ascent.
NEWTON_DIM_LIMIT = 200


@dataclass
class SourceBlock:
    """One source dataset together with its transfer weight."""

    samples: object
    weight: float

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("source weights must be nonnegative")


@dataclass
class WeightedDataset:
    """Target samples plus weighted source blocks."""

    target_samples: object
    source_blocks: list = field(default_factory=list)

    def counts(self, family):
        n0 = family.n_samples(self.target_samples)
        if n0 < 1:
            raise ValueError("need at least one target sample")
        ns = [family.n_samples(b.samples) for b in self.source_blocks]
        return n0, ns


@dataclass
class FitOptions:
    tolerance: float = 1e-10
    max_iter: int = 10000
    ridge: float = 0.0
    method: str = "auto"  # auto | closed_form | newton | gradient
    init: object = None


@dataclass
class MixtureDistribution:
    """Convex mixture of the target and source empirical distributions."""

    component_weights: np.ndarray
    outcome_probs: np.ndarray


def _active_blocks(data):
    # zero-weight blocks contribute nothing and would only add 0 * (-inf)
    # style noise at boundary samples, drop them up front
    return [b for b in data.source_blocks if b.weight > 0.0]


def weighted_loglik(family, theta, data, ridge=0.0):
    """Weighted log likelihood, optionally with a ridge penalty subtracted."""
    total = float(np.sum(family.log_density_batch(theta, data.target_samples)))
    for b in _active_blocks(data):
        total += b.weight * float(np.sum(family.log_density_batch(theta, b.samples)))
    if ridge:
        th = np.asarray(theta, dtype=float)
        total -= ridge * float(th @ th)
    return total


def weighted_loglik_grad(family, theta, data, ridge=0.0):
    g = family.score_batch(theta, data.target_samples).sum(axis=0)
    for b in _active_blocks(data):
        g = g + b.weight * family.score_batch(theta, b.samples).sum(axis=0)
    if ridge:
        g = g - 2.0 * ridge * np.asarray(theta, dtype=float)
    return g


def _closed_form_categorical(family, data):
    counts = family.sufficient_counts(data.target_samples)
    for b in _active_blocks(data):
        counts = counts + b.weight * family.sufficient_counts(b.samples)
    p = counts / counts.sum()
    # clamp onto the interior simplex so downstream densities stay finite
    p = np.clip(p, INTERIOR_FLOOR, None)
    p = p / p.sum()
    return p[:-1]


def _closed_form_gaussian(family, data):
    target = family.check_batch(data.target_samples)
    acc = target.sum(axis=0)
    mass = float(len(target))
    for b in _active_blocks(data):
        xs = family.check_batch(b.samples)
        acc = acc + b.weight * xs.sum(axis=0)
        mass += b.weight * len(xs)
    return acc / mass


def _newton(family, data, opts):
    theta = (np.zeros(family.dim) if opts.init is None
             else np.asarray(opts.init, dtype=float).copy())
    g = weighted_loglik_grad(family, theta, data, opts.ridge)
    for it in range(opts.max_iter):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= opts.tolerance:
            return theta
        h = family.loglik_hessian(theta, data.target_samples)
        for b in _active_blocks(data):
            h = h + b.weight * family.loglik_hessian(theta, b.samples)
        if opts.ridge:
            h = h - 2.0 * opts.ridge * np.eye(family.dim)
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
                gc = weighted_loglik_grad(family, cand, data, opts.ridge)
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
        f"no convergence after {opts.max_iter} newton iterations",
        last_iterate=theta,
        residual=float(np.linalg.norm(g)),
    )


def _gradient_ascent(family, data, opts):
    theta = (np.zeros(family.dim) if opts.init is None
             else np.asarray(opts.init, dtype=float).copy())
    step = 1.0
    g = weighted_loglik_grad(family, theta, data, opts.ridge)
    f = weighted_loglik(family, theta, data, opts.ridge)
    for it in range(opts.max_iter):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= opts.tolerance:
            return theta
        while step > 1e-18:
            cand = theta + step * g
            try:
                family.validate(cand)
                fc = weighted_loglik(family, cand, data, opts.ridge)
            except Exception:
                step *= 0.5
                continue
            if fc > f:
                theta, f = cand, fc
                g = weighted_loglik_grad(family, theta, data, opts.ridge)
                step *= 1.3
                break
            step *= 0.5
        else:
            raise ConvergenceError(
                "gradient step underflow", last_iterate=theta, residual=gnorm
            )
    raise ConvergenceError(
        f"no convergence after {opts.max_iter} gradient iterations",
        last_iterate=theta,
        residual=float(np.linalg.norm(g)),
    )


def fit_weighted_mle(family, data, opts=None):
    """Maximize the weighted log likelihood.

    Closed forms are used for categorical (weighted outcome counts) and
    Gaussian (weighted means) unless another method is forced. The
    iterative paths drive the gradient norm below ``opts.tolerance``.
    """
    opts = opts or FitOptions()
    data.counts(family)  # validates the target is nonempty
    method = opts.method
    if method == "auto":
        if isinstance(family, (Categorical, GaussianIso)) and not opts.ridge:
            method = "closed_form"
        elif family.dim <= NEWTON_DIM_LIMIT:
            method = "newton"
        else:
            method = "gradient"
    if method == "closed_form":
        if isinstance(family, Categorical):
            return _closed_form_categorical(family, data)
        if isinstance(family, GaussianIso):
            return _closed_form_gaussian(family, data)
        raise UnsupportedFamilyError(
            f"no closed form for family '{family.name}'"
        )
    if method == "newton":
        if isinstance(family, Categorical) and opts.init is None:
            # start strictly inside the simplex
            opts = FitOptions(opts.tolerance, opts.max_iter, opts.ridge,
                              "newton", np.full(family.dim, 1.0 / family.num_outcomes))
        return _newton(family, data, opts)
    if method == "gradient":
        if isinstance(family, Categorical) and opts.init is None:
            opts = FitOptions(opts.tolerance, opts.max_iter, opts.ridge,
                              "gradient", np.full(family.dim, 1.0 / family.num_outcomes))
        return _gradient_ascent(family, data, opts)
    raise ValueError(f"unknown fit method '{method}'")


def mixture_view(family, data):
    """The estimator seen as an MLE against a mixture distribution.

    The target empirical distribution enters with coefficient
    ``N0 / (N0 + sum_i w_i n_i)`` and each source block with
    ``w_i n_i / (N0 + sum_i w_i n_i)``. Categorical only.
    """
    if not isinstance(family, Categorical):
        raise UnsupportedFamilyError("mixture view is defined for categorical data")
    n0, ns = data.counts(family)
    masses = [float(n0)] + [b.weight * n for b, n in zip(data.source_blocks, ns)]
    masses = np.asarray(masses, dtype=float)
    coeffs = masses / masses.sum()
    emp = [family.sufficient_counts(data.target_samples) / n0]
    for b, n in zip(data.source_blocks, ns):
        # an empty or zero-weight block contributes a zero row with zero mass
        emp.append(family.sufficient_counts(b.samples) / n if n else
                   np.zeros(family.num_outcomes))
    probs = np.einsum("i,ij->j", coeffs, np.asarray(emp))
    return MixtureDistribution(component_weights=coeffs, outcome_probs=probs)
