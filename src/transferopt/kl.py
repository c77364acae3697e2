"""The generalization measure, evaluated three ways.

1. ``kl_exact``: closed-form divergence between two members of a family.
2. ``predict_kl_multi``: the asymptotic prediction, the one risk formula,
   split into its sampling-variance and domain-shift terms, for any
   weights and quantities; ``predict_kl_single`` is its one-source case.
3. ``mc_expected_kl``: seeded Monte Carlo over repeated estimation trials,
   the oracle everything else is checked against. Its trials, like those
   of every other Monte Carlo check, run serially in ``mc_fits``, each
   drawing sufficient statistics and fitting them in closed form, so only
   the categorical and Gaussian families have Monte Carlo estimates; the
   stacked fits of an estimate are then measured in one call,
   ``mc_divergences``.

``mse_kl_bridge`` relates the measure to a Fisher-weighted mean squared
error, the quadratic approximation that underlies the predictions.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UnsupportedFamilyError
from .families import whole_count
from .fisher import analytic_fisher
from .rng import derive_rng
from .weighted_mle import fit_sufficient, has_sufficient_stat, source_weights

__all__ = [
    "KlPrediction",
    "MonteCarloEstimate",
    "kl_exact",
    "predict_kl_single",
    "predict_kl_multi",
    "mc_fits",
    "mc_divergences",
    "mc_expected_kl",
    "mse_kl_bridge",
]


@dataclass
class KlPrediction:
    """Asymptotic prediction split into its two nonnegative terms.

    ``total = (d/2) * (variance_term + bias_term)``; the terms themselves
    are dimension-free. Floats for one prediction, arrays for a stack.
    """

    variance_term: float
    bias_term: float
    total: float


@dataclass
class MonteCarloEstimate:
    mean: float
    std_error: float
    trials: int
    master_seed: int


def kl_exact(family, theta_p, theta_q):
    """Divergence from the distribution at ``theta_p`` to ``theta_q``.

    ``theta_q`` is one parameter vector, giving a float, or a ``(T, dim)``
    stack such as ``mc_fits`` returns, giving one divergence per row; the
    family checks the whole stack, and measures it, in one call.
    """
    fn = getattr(family, "kl_divergence", None)
    if fn is None:
        raise UnsupportedFamilyError(
            f"no closed-form divergence for family '{family.name}'")
    return fn(theta_p, theta_q)


def predict_kl_single(n_target, n_source, weight, t, d):
    """Asymptotic measure for one source with quantity ``n_source`` and
    weight ``weight``; ``t`` is the Fisher-scaled squared source distance
    divided by ``d``. It is the one-source call of ``predict_kl_multi``,
    with gram ``[[d t]]``.
    """
    if t < 0:
        raise ValueError("invalid prediction inputs")
    return predict_kl_multi(n_target, weights=[weight], quantities=[n_source],
                            gram=[[d * t]], d=d)


def predict_kl_multi(n_target, *, weights, quantities, gram, d):
    """Asymptotic measure for K weighted sources: the one risk formula.

    Source i enters with weight ``w_i`` and quantity ``n_i``; ``gram`` is
    the K x K form G = Theta^T J Theta of the information matrix against
    the source direction columns. With masses ``b = w n`` and ``s = sum b``
    the measure is ``(d/2) (variance_term + bias_term)``, where
    ``variance_term = (N0 + sum w^2 n)/(N0 + s)^2`` is the sampling
    variance of the target and the sources, and
    ``bias_term = b^T G b / (d (N0 + s)^2)`` is the domain shift. A source
    with zero weight or zero quantity adds nothing to either.

    ``weights`` and ``quantities`` are K-vectors or ``(R, K)`` stacks and
    broadcast against each other; a stack gives one prediction per row,
    as arrays.
    """
    n0 = float(n_target)
    w = np.asarray(weights, dtype=float)
    n = np.asarray(quantities, dtype=float)
    g = np.asarray(gram, dtype=float)
    if n0 < 1 or d < 1:
        raise ValueError("invalid prediction inputs")
    if (w < 0).any() or (n < 0).any():
        raise ValueError("weights and quantities must be nonnegative")
    b = w * n
    if b.ndim not in (1, 2) or g.shape != (b.shape[-1], b.shape[-1]):
        raise ValueError(f"need K-vectors or (R, K) stacks of weights and "
                         f"quantities against a K x K gram, got shapes "
                         f"{w.shape}, {n.shape} and {g.shape}")
    denom = (n0 + b.sum(axis=-1)) ** 2
    variance = (n0 + (w * b).sum(axis=-1)) / denom
    bias = ((b @ g) * b).sum(axis=-1) / (d * denom)
    total = 0.5 * d * (variance + bias)
    if b.ndim == 1:
        return KlPrediction(float(variance), float(bias), float(total))
    return KlPrediction(variance, bias, total)


def _trial_fit(family, target_params, n_target, sources):
    """One trial's estimate as a function of the trial's stream.

    The trial draws the target's and then each source's sufficient
    statistic directly, every source whatever its weight, and fits them in
    closed form; the parameters are checked once, here.
    """
    target = family.stat_sampler(target_params)
    draws = [(family.stat_sampler(p), n, w) for p, n, w in sources]

    def fit(rng):
        stats = [(target(n_target, rng), n_target, 1.0)]
        stats += [(draw(n, rng), n, w) for draw, n, w in draws]
        return fit_sufficient(family, stats)
    return fit


def _tag_trial(err, i):
    # tag the same object: rebuilding it would drop its attributes and
    # fails for constructors that take other arguments
    err.trial = i
    err.args = (f"trial {i}: {err}",)


def mc_fits(family, target_params, n_target, sources, trials, master_seed,
            seed_prefix=()):
    """Repeated seeded estimation, the trial loop of every Monte Carlo check.

    Trial i derives its stream from (master_seed, *seed_prefix, i), draws
    the sufficient statistic (outcome counts, sample sum) of the target's
    ``n_target`` observations and then, for each ``(params, quantity,
    weight)`` in ``sources``, that source's, and fits the weighted MLE in
    closed form. The drawn statistic has the distribution of the statistic
    of drawn samples. Trials run one after another. Returns the fits
    stacked as one ``(trials, dim)`` array; whatever measures them
    (``mc_divergences``) takes the whole stack in one call.

    A family without a sufficient statistic (``softmax_regression``) is
    rejected with UnsupportedFamilyError, the one Monte Carlo gate: every
    family with one also has a closed-form divergence and information
    matrix to measure the fits with. An ``n_target``, quantity,
    trial count or seed that is not a whole number, or weights that fail
    ``source_weights``, with ValueError, before any trial runs. A failing
    trial re-raises its own exception, with the trial index in a
    ``trial`` attribute and a ``trial i:`` prefix on the message.
    """
    if not has_sufficient_stat(family):
        raise UnsupportedFamilyError(
            f"no sufficient statistic for family '{family.name}' to draw "
            "Monte Carlo trials from")
    n_target = whole_count(n_target, "n_target")
    sources = [(p, whole_count(n, f"source {k} quantity"), float(w))
               for k, (p, n, w) in enumerate(sources)]
    source_weights([w for *_, w in sources], len(sources))
    fit = _trial_fit(family, target_params, n_target, sources)
    out = []
    for i in range(whole_count(trials, "trials")):
        rng = derive_rng(master_seed, *seed_prefix, i)
        try:
            out.append(fit(rng))
        except Exception as err:
            _tag_trial(err, i)
            raise
    return np.array(out)


def mc_divergences(family, theta_true, fits):
    """Divergence from ``theta_true`` to each of an estimate's stacked
    trial fits, checked and taken in one ``kl_exact`` call.

    A fit off the family's parameter space fails as a failing trial of
    ``mc_fits`` does: the exception names the first bad row as its
    ``trial`` and carries the ``trial i:`` prefix.
    """
    try:
        return kl_exact(family, theta_true, fits)
    except ParameterError as err:
        if err.row is not None:
            _tag_trial(err, err.row)
        raise


def mc_expected_kl(ensemble, weights, quantities, trials, master_seed,
                   seed_prefix=()):
    """Monte Carlo estimate of the expected divergence with ``weights[i]``
    and ``quantities[i]`` for source i of ``ensemble``.

    Each trial draws a fresh target dataset and fresh source datasets of
    those quantities and fits the weighted MLE with those weights; the
    trials are those of ``mc_fits``, in the ensemble's family. The stacked
    fits are then checked, and their divergences from the true target
    distribution taken, in one call (``mc_divergences``).

    Vectors without one entry per source raise ValueError, and a family
    without a sufficient statistic is rejected by ``mc_fits``, before any
    trial runs.
    """
    trials = whole_count(trials, "trials")
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard error")
    if not np.shape(weights) == np.shape(quantities) == (ensemble.k,):
        raise ValueError(f"need one weight and one quantity per source "
                         f"({ensemble.k}), got {weights} and {quantities}")
    family = ensemble.family
    th0 = ensemble.target_params
    fits = mc_fits(family, th0, ensemble.target_budget,
                   zip(ensemble.source_params, quantities, weights),
                   trials, master_seed, seed_prefix)
    values = mc_divergences(family, th0, fits)
    mean = float(values.mean())
    std_error = float(values.std(ddof=1) / np.sqrt(trials))
    return MonteCarloEstimate(mean, std_error, trials, int(master_seed))


def mse_kl_bridge(family, theta_true, estimates, divergences):
    """Mean divergence vs half the Fisher-weighted second moment.

    ``estimates`` is one ``(n, family.dim)`` array of estimates and
    ``divergences`` holds each one's ``kl_exact(theta_true, est)``.
    Returns ``(lhs, rhs)`` where lhs averages ``divergences`` and rhs is
    ``0.5 * tr(J(theta_true) Cov)`` with Cov the empirical second-moment
    matrix of the estimation errors.
    """
    ests = np.asarray(estimates, dtype=float)
    divs = np.asarray(divergences, dtype=float)
    if ests.ndim != 2 or ests.shape[1] != family.dim:
        raise ValueError(f"estimates must be an (n, {family.dim}) array, "
                         f"got shape {ests.shape}")
    if len(ests) < 2:
        raise ValueError("need at least two estimates")
    if divs.shape != (len(ests),):
        raise ValueError("need one divergence per estimate")
    lhs = float(divs.mean())
    errs = ests - np.asarray(theta_true, dtype=float)
    cov = (errs.T @ errs) / len(ests)
    j = analytic_fisher(family, theta_true)
    rhs = float(0.5 * np.trace(j @ cov))
    return lhs, rhs
