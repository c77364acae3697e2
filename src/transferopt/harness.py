"""Seeded synthetic experiments and the oracles that check the theory.

The harness builds small multi-source ensembles whose source parameters sit
at controlled distances from the target, runs Monte Carlo estimates of the
expected divergence under a plan, and hosts the brute-force machinery
(weight grids, exhaustive lattice simplex search, random-plan comparisons)
that every verification verdict rests on. Everything here is a pure
function of its inputs and master seed. Nothing here reads a config
(``config`` does); the errors raised here are ValueError, ParameterError
and RegimeError.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RegimeError
from .families import get_family, whole_count
from .kl import (mc_divergences, mc_expected_kl, mc_fits, mse_kl_bridge,
                 predict_kl_multi, predict_kl_single)
from .planner import (optimal_plan, qp_from_parameters, single_source_weight,
                      validate_sources)
from .rng import derive_rng

__all__ = [
    "TaskEnsemble",
    "SweepResult",
    "source_scalars",
    "check_source_index",
    "check_quantity_grid",
    "sweep_weight",
    "sweep_quantity",
    "brute_force_simplex",
]

# seed-path prefixes so the plan MC, the random-plan MCs, and the random
# weight draws never share a stream
_PLAN_STREAM = 0
_RANDOM_MC_STREAM = 1
_RANDOM_DRAW_STREAM = 2

_MAX_DIRECTION_DRAWS = 100


@dataclass
class TaskEnsemble:
    """One target task plus K source tasks.

    The target and every source vector pass ``family.validate``; a
    rejected source raises ParameterError naming it (``source i: ...``).
    Budgets are whole counts >= 1, stored as ints; a fractional, infinite
    or nan budget raises ParameterError naming it, never truncated.
    """

    family: object
    target_params: np.ndarray
    target_budget: int
    source_params: list
    source_budgets: np.ndarray

    def __post_init__(self):
        self.target_params = self.family.validate(self.target_params)
        self.source_params = validate_sources(self.family, self.source_params)
        self.target_budget = whole_count(self.target_budget, "target_budget",
                                         ParameterError)
        self.source_budgets = np.array(
            [whole_count(n, "source_budgets", ParameterError)
             for n in np.ravel(self.source_budgets)], dtype=int)
        if len(self.source_params) < 1:
            raise ParameterError("an ensemble needs at least one source")
        if self.target_budget < 1 or np.any(self.source_budgets < 1):
            raise ParameterError("budgets must be positive counts")

    def qp(self):
        """The ensemble's QP matrix, from ``planner.qp_from_parameters``."""
        return qp_from_parameters(self.family, self.target_params,
                                  self.source_params, self.source_budgets)

    @property
    def k(self):
        return len(self.source_params)

    @property
    def regime_constants(self):
        """Distance constants ``sqrt(N0) * ||theta_i - theta_0||``."""
        scale = np.sqrt(float(self.target_budget))
        return np.array([scale * float(np.linalg.norm(p - self.target_params))
                         for p in self.source_params])

    def to_json_dict(self):
        return {
            "family": self.family.name,
            "target_params": [float(v) for v in self.target_params],
            "n_target": int(self.target_budget),
            "source_params": [[float(v) for v in p] for p in self.source_params],
            "source_budgets": [int(n) for n in self.source_budgets],
            "regime_constants": [float(c) for c in self.regime_constants],
        }


@dataclass
class SweepResult:
    """One axis of grid values with the measured and predicted curves."""

    axis_name: str
    grid: np.ndarray
    mc_means: np.ndarray
    mc_stderrs: np.ndarray
    predicted: np.ndarray
    mc_argmin: int
    predicted_argmin: int

    def rows(self):
        values = zip(self.grid, self.mc_means, self.mc_stderrs, self.predicted)
        return [{"axis_value": g, "mc_mean": float(m), "mc_stderr": float(s),
                 "predicted": float(p)} for g, m, s, p in values]

    def to_json_dict(self):
        return {
            "axis": self.axis_name,
            "grid": [float(g) for g in self.grid],
            "mc_means": [float(v) for v in self.mc_means],
            "mc_stderrs": [float(v) for v in self.mc_stderrs],
            "predicted": [float(v) for v in self.predicted],
            "mc_argmin": int(self.mc_argmin),
            "predicted_argmin": int(self.predicted_argmin),
        }


def _draw_source_params(family, target_params, c, n_target, direction_seed,
                        master_seed):
    if c < 0:
        raise ParameterError("distance constants must be nonnegative")
    rng = derive_rng(master_seed, direction_seed)
    radius = c / np.sqrt(float(n_target))
    for _ in range(_MAX_DIRECTION_DRAWS):
        u = rng.standard_normal(family.dim)
        norm = float(np.linalg.norm(u))
        try:
            if norm > 1e-12:
                return family.validate(target_params + radius * (u / norm))
        except ParameterError:
            pass
    raise RegimeError(
        f"no valid source parameters at distance {radius} from the target "
        f"after {_MAX_DIRECTION_DRAWS} draws; the distance constant "
        f"{c} is too large for this family's parameter region"
    )


def source_scalars(ensemble):
    """Per-source scaled squared distances t_i = dir_i' J dir_i / d."""
    return np.diag(ensemble.qp().gram) / float(ensemble.family.dim)


def check_source_index(index, k):
    """``index`` as the position of one of ``k`` sources; an index that
    is not a whole count in [0, k) raises ValueError."""
    idx = whole_count(index, "source index")
    if not 0 <= idx < k:
        raise ValueError(f"source index {idx} out of range for {k} sources")
    return idx


def check_quantity_grid(grid, budget):
    """A quantity grid must stay within [0, budget]; ValueError otherwise."""
    if grid[0] < 0 or grid[-1] > budget:
        raise ValueError("quantity grid must stay within [0, source budget]")


def _sweep(axis, ensemble, grid, gram, weights, quantities, trials, seed):
    """Measured and predicted curves over a grid, where row i of the
    ``(len(grid), K)`` arrays ``weights`` and ``quantities`` holds grid
    point i.

    The predictions take one call. The grid points' estimates run
    serially; the point index enters the seed path, so each point's
    estimate is reproducible on its own, whatever else the grid holds.
    """
    preds = predict_kl_multi(ensemble.target_budget, weights=weights,
                             quantities=quantities, gram=gram,
                             d=ensemble.family.dim).total
    means = np.empty(len(grid))
    stderrs = np.empty(len(grid))
    for i in range(len(grid)):
        est = mc_expected_kl(ensemble, weights[i], quantities[i], trials, seed,
                             seed_prefix=(i,))
        means[i] = est.mean
        stderrs[i] = est.std_error
    return SweepResult(axis, grid, means, stderrs, preds,
                       int(np.argmin(means)), int(np.argmin(preds)))


def sweep_weight(ensemble, source_index, grid, trials, seed):
    """Measured and predicted divergence as one source's weight varies
    over the increasing ``grid``; every other source has weight zero. A
    negative weight raises ValueError."""
    grid = np.asarray(grid, dtype=float)
    idx = check_source_index(source_index, ensemble.k)
    weights = np.zeros((len(grid), ensemble.k))
    weights[:, idx] = grid
    quantities = np.tile(ensemble.source_budgets.astype(float), (len(grid), 1))
    return _sweep("weight", ensemble, grid, ensemble.qp().gram, weights,
                  quantities, trials, seed)


def sweep_quantity(ensemble, source_index, grid, weight_rule, trials, seed):
    """Measured and predicted divergence as one source's quantity varies
    over the increasing whole-count ``grid``, within the source's budget;
    every other source has weight zero.

    ``weight_rule`` is a fixed weight >= 0 (ValueError if negative) or
    ``"optimal"``: at every grid point the single-source closed form
    1/(1 + t*n), the best weight for that quantity.
    """
    grid = np.asarray(grid)
    idx = check_source_index(source_index, ensemble.k)
    check_quantity_grid(grid, ensemble.source_budgets[idx])
    weights = np.zeros((len(grid), ensemble.k))
    gram = ensemble.qp().gram
    if weight_rule == "optimal":
        t_i = float(gram[idx, idx]) / ensemble.family.dim
        weights[:, idx] = 1.0 / (1.0 + t_i * grid)
    else:
        weights[:, idx] = float(weight_rule)
    quantities = np.tile(ensemble.source_budgets.astype(float), (len(grid), 1))
    quantities[:, idx] = grid
    return _sweep("quantity", ensemble, grid, gram, weights, quantities,
                  trials, seed)


def brute_force_simplex(m, step):
    """Exact minimum of alpha' M alpha over the lattice simplex.

    The lattice has resolution 1/round(1/step). The first K-2 coordinates
    are enumerated outright (vectorized); for each prefix the remaining
    mass splits over the last two coordinates as a one-dimensional integer
    quadratic, whose minimum is found in closed form (rounded vertex
    clamped to the range, plus both endpoints). This keeps K=4 at step
    0.001 tractable while staying an exhaustive search.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    k = m.shape[0]
    if k > 4:
        raise ValueError(f"brute force is limited to K <= 4, got K={k}")
    if not 0.0 < step <= 0.1:
        raise ValueError("step must lie in (0, 0.1]")
    if k == 1:
        return np.array([1.0]), float(m[0, 0])

    r = int(round(1.0 / step))
    if k == 2:
        prefixes = np.zeros((1, 0), dtype=np.int64)
    elif k == 3:
        prefixes = np.arange(r + 1, dtype=np.int64)[:, None]
    else:
        idx = np.arange(r + 1, dtype=np.int64)
        pi, pj = np.meshgrid(idx, idx, indexing="ij")
        keep = (pi + pj) <= r
        prefixes = np.stack([pi[keep], pj[keep]], axis=1)
    rem = r - prefixes.sum(axis=1)

    a, b = k - 2, k - 1
    maa, mbb, mab = m[a, a], m[b, b], m[a, b]
    curve = maa + mbb - 2.0 * mab
    if k > 2:
        lin = prefixes.astype(float) @ (m[b, : k - 2] - m[a, : k - 2])
    else:
        lin = np.zeros(len(prefixes))

    splits = [np.zeros_like(rem), rem]
    if curve > 0.0:
        vertex = (lin + rem * (mbb - mab)) / curve
        splits.append(np.clip(np.rint(vertex).astype(np.int64), 0, rem))

    best_units = None
    best_val = np.inf
    for j in splits:
        units = np.concatenate(
            [prefixes, j[:, None], (rem - j)[:, None]], axis=1)
        alpha = units.astype(float) / r
        vals = np.einsum("ni,ij,nj->n", alpha, m, alpha)
        at = int(np.argmin(vals))
        if vals[at] < best_val:
            best_val = float(vals[at])
            best_units = units[at]
    return best_units.astype(float) / r, best_val


# ----------------------------------------------------------------------
# verification checks


# the noise level of every Monte Carlo comparison, in standard errors
_SIGMAS = 3.0


def _within_noise(a, b, se_a, se_b):
    """Whether the estimate ``a`` lies at most ``_SIGMAS`` combined
    standard errors above ``b``."""
    return bool(a <= b + _SIGMAS * np.hypot(se_a, se_b))


def _check_weight_optimum(ens, idx, grid, trials, seed):
    result = sweep_weight(ens, idx, grid, trials, seed)
    t_i = float(source_scalars(ens)[idx])
    w_star = single_source_weight(t_i, int(ens.source_budgets[idx]))
    star_idx = int(np.argmin(np.abs(result.grid - w_star)))
    steps_off = abs(result.mc_argmin - star_idx)
    within = steps_off <= 2
    # fallback for flat curves (t near 0): the measured curve at the
    # predicted optimum is indistinguishable from the measured minimum
    lo = result.mc_argmin
    flat = _within_noise(result.mc_means[star_idx], result.mc_means[lo],
                         result.mc_stderrs[star_idx], result.mc_stderrs[lo])
    return within or flat, ens, {
        "t": t_i,
        "w_star": w_star,
        "w_star_index": star_idx,
        "mc_argmin": result.mc_argmin,
        "predicted_argmin": result.predicted_argmin,
        "argmin_steps_off": int(steps_off),
        "argmin_within_two_steps": bool(within),
        "flat_at_optimum": flat,
        "sweep": result.to_json_dict(),
    }


def _check_quantity_monotone(ens, idx, grid, rule, trials, seed):
    result = sweep_quantity(ens, idx, grid, rule, trials, seed)
    diffs = np.diff(result.predicted)
    pred_ok = bool(np.all(diffs < -1e-12))
    means, ses = result.mc_means, result.mc_stderrs
    first_violation = next(
        (i + 1 for i in range(len(means) - 1)
         if not _within_noise(means[i + 1], means[i], ses[i + 1], ses[i])),
        None)
    mc_ok = first_violation is None
    return pred_ok and mc_ok, ens, {
        "rule": rule if isinstance(rule, str) else float(rule),
        "predicted_strictly_decreasing": pred_ok,
        "mc_decreasing_within_noise": mc_ok,
        "first_mc_violation_index": first_violation,
        "sweep": result.to_json_dict(),
    }


def _check_dimension_scaling(dims, t, n0, n1, trials, seed):
    w_star = single_source_weight(t, n1)
    totals, means, stderrs, constants = [], [], [], []
    for d in dims:
        family = get_family("gaussian_iso", {"dim": d})
        th0 = np.zeros(d)
        # equal-component displacement keeps t exact in floating point
        th1 = np.full(d, np.sqrt(t))
        ens = TaskEnsemble(family, th0, n0, [th1], np.array([n1]))
        totals.append(predict_kl_single(n0, n1, w_star, t, d).total)
        est = mc_expected_kl(ens, [w_star], [n1], trials, seed,
                             seed_prefix=(d,))
        means.append(est.mean)
        stderrs.append(est.std_error)
        constants.append(float(ens.regime_constants[0]))
    mc_ok = True
    for i in range(1, len(dims)):
        ratio = dims[i] / dims[0]
        scaled, scaled_se = ratio * means[0], ratio * stderrs[0]
        mc_ok &= (_within_noise(means[i], scaled, stderrs[i], scaled_se)
                  and _within_noise(scaled, means[i], scaled_se, stderrs[i]))
    return mc_ok, (n0, constants), {
        "dims": dims,
        "t": t,
        "w_star": w_star,
        "predicted_totals": totals,
        "mc_means": means,
        "mc_stderrs": stderrs,
        "mc_ratios_ok": mc_ok,
    }


def _check_plan_beats_random(ens, n_random, mc_top, mc_trials, weight_high,
                             trials, seed):
    qp = ens.qp()
    plan = optimal_plan(qp, n_target=ens.target_budget)
    plan_est = mc_expected_kl(ens, plan.weights, plan.quantities, trials,
                              seed, seed_prefix=(_PLAN_STREAM,))

    rng = derive_rng(seed, _RANDOM_DRAW_STREAM)
    weight_draws = rng.uniform(0.0, weight_high, size=(n_random, ens.k))
    predictions = predict_kl_multi(ens.target_budget, weights=weight_draws,
                                   quantities=qp.budgets, gram=qp.gram,
                                   d=qp.d).total
    beats_all = bool(plan_est.mean <= predictions.min())

    order = np.argsort(predictions)[:mc_top]
    top_means, top_ses = [], []
    for rank, j in enumerate(order):
        est = mc_expected_kl(ens, weight_draws[j], ens.source_budgets,
                             mc_trials, seed,
                             seed_prefix=(_RANDOM_MC_STREAM, rank))
        top_means.append(est.mean)
        top_ses.append(est.std_error)
    best = int(np.argmin(top_means))
    within = _within_noise(plan_est.mean, top_means[best],
                           plan_est.std_error, top_ses[best])
    margin = ((top_means[best] - plan_est.mean)
              / np.hypot(plan_est.std_error, top_ses[best]))
    return beats_all and within, ens, {
        "plan": plan.to_json_dict(),
        "plan_mc_mean": plan_est.mean,
        "plan_mc_stderr": plan_est.std_error,
        "random_plans": n_random,
        "weight_high": weight_high,
        "min_random_predicted": float(predictions.min()),
        "beats_all_predictions": beats_all,
        "top_mc_means": [float(v) for v in top_means],
        "top_mc_stderrs": [float(v) for v in top_ses],
        "best_random_mc": float(top_means[best]),
        "within_noise_of_best": within,
        "margin_sigmas": float(margin),
        "mc_trials": mc_trials,
    }


def _check_estimator_mean(ens, weights, trials, seed):
    estimates = mc_fits(ens.family, ens.target_params, ens.target_budget,
                        zip(ens.source_params, ens.source_budgets, weights),
                        trials, seed)

    masses = weights * ens.source_budgets
    denom = ens.target_budget + masses.sum()
    expected = ens.target_budget * ens.target_params
    for mass, p in zip(masses, ens.source_params):
        expected = expected + mass * p
    expected = expected / denom

    observed = estimates.mean(axis=0)
    ses = estimates.std(axis=0, ddof=1) / np.sqrt(len(estimates))
    sigmas = np.abs(observed - expected) / np.where(ses > 0, ses, np.inf)
    return bool(np.all(sigmas <= _SIGMAS)), ens, {
        "weights": [float(w) for w in weights],
        "expected_mean": [float(v) for v in expected],
        "observed_mean": [float(v) for v in observed],
        "stderrs": [float(v) for v in ses],
        "sigmas": [float(v) for v in sigmas],
        "max_sigma": float(sigmas.max()),
    }


def _check_kl_mse_bridge(family, th0, n0, rel_tol, trials, seed):
    fits = mc_fits(family, th0, n0, [], trials, seed)
    lhs, rhs = mse_kl_bridge(family, th0, fits,
                             mc_divergences(family, th0, fits))
    rel_gap = abs(lhs - rhs) / abs(lhs)
    return rel_gap <= rel_tol, (n0, []), {
        "mean_divergence": lhs,
        "half_fisher_mse": rhs,
        "rel_gap": float(rel_gap),
        "rel_tol": rel_tol,
    }


# Each check takes its parsed inputs, the trial count and the seed, and
# returns its pass flag, its ensemble (or target budget and distance
# constants) and its details, for ``config.verify_claim``'s verdict.
_CHECKS = {
    "weight-optimum": _check_weight_optimum,
    "quantity-monotone": _check_quantity_monotone,
    "dimension-scaling": _check_dimension_scaling,
    "plan-beats-random": _check_plan_beats_random,
    "estimator-mean": _check_estimator_mean,
    "kl-mse-bridge": _check_kl_mse_bridge,
}
