"""Seeded synthetic experiments and the oracles that check the theory.

The harness builds small multi-source ensembles whose source parameters sit
at controlled distances from the target, runs Monte Carlo estimates of the
expected divergence under a plan, and hosts the brute-force machinery
(weight grids, exhaustive lattice simplex search, random-plan comparisons)
that every verification verdict rests on. Everything here is a pure
function of its config and master seed.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS, validate_config
from .errors import ConfigError, ParameterError, RegimeError, ScaleError
from .families import get_family
from .fisher import analytic_fisher
from .kl import (kl_exact, mc_expected_kl, mc_fits, mse_kl_bridge,
                 predict_kl_multi, predict_kl_single)
from .planner import (build_qp_matrix, direction_gram, optimal_plan,
                      single_source_weight)
from .rng import derive_rng

__all__ = [
    "TaskEnsemble",
    "SweepResult",
    "PlanView",
    "generate_ensemble",
    "build_ensemble",
    "config_family",
    "config_ensemble",
    "source_scalars",
    "sweep_weight",
    "sweep_quantity",
    "brute_force_simplex",
    "verify_claim",
    "resolve_grid",
]

# seed-path prefixes so the plan MC, the random-plan MCs, and the random
# weight draws never share a stream
_PLAN_STREAM = 0
_RANDOM_MC_STREAM = 1
_RANDOM_DRAW_STREAM = 2

_MAX_DIRECTION_DRAWS = 100

# minimal stand-in carrying just what mc_expected_kl reads off a plan
PlanView = namedtuple("PlanView", ["weights", "quantities"])


@dataclass
class TaskEnsemble:
    """One target task plus K source tasks."""

    family: object
    target_params: np.ndarray
    target_budget: int
    source_params: list
    source_budgets: np.ndarray

    def __post_init__(self):
        self.target_params = np.asarray(self.target_params, dtype=float)
        self.source_params = [np.asarray(p, dtype=float) for p in self.source_params]
        self.source_budgets = np.asarray(self.source_budgets, dtype=int)
        if len(self.source_params) < 1:
            raise ParameterError("an ensemble needs at least one source")
        if self.target_budget < 1 or np.any(self.source_budgets < 1):
            raise ParameterError("budgets must be positive counts")

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
        return [
            {
                "axis_value": self.grid[i],
                "mc_mean": float(self.mc_means[i]),
                "mc_stderr": float(self.mc_stderrs[i]),
                "predicted": float(self.predicted[i]),
            }
            for i in range(len(self.grid))
        ]

    def to_json_dict(self):
        out = {
            "axis": self.axis_name,
            "grid": [float(g) for g in self.grid],
            "mc_means": [float(v) for v in self.mc_means],
            "mc_stderrs": [float(v) for v in self.mc_stderrs],
            "predicted": [float(v) for v in self.predicted],
            "mc_argmin": int(self.mc_argmin),
            "predicted_argmin": int(self.predicted_argmin),
        }
        return out


def resolve_grid(spec, integer=False):
    """Turn a config grid spec (list, or start/stop with step or count)
    into a strictly increasing array."""
    if isinstance(spec, dict):
        try:
            start = float(spec["start"])
            stop = float(spec["stop"])
        except KeyError as err:
            raise ConfigError(f"grid spec needs {err.args[0]}", field="/grid") from err
        if "step" in spec:
            step = float(spec["step"])
            if step <= 0:
                raise ConfigError("grid step must be positive", field="/grid/step")
            count = int(round((stop - start) / step)) + 1
            grid = start + step * np.arange(count)
        elif "count" in spec:
            grid = np.linspace(start, stop, int(spec["count"]))
        else:
            raise ConfigError("grid spec needs step or count", field="/grid")
    else:
        grid = np.asarray(spec, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise ConfigError("grid must be a nonempty vector", field="/grid")
    if integer:
        grid = np.rint(grid).astype(int)
    if len(grid) > 1 and np.any(np.diff(grid) <= 0):
        raise ConfigError("grid must be strictly increasing", field="/grid")
    return grid


def _unit_direction(rng, dim):
    for _ in range(_MAX_DIRECTION_DRAWS):
        u = rng.standard_normal(dim)
        norm = float(np.linalg.norm(u))
        if norm > 1e-12:
            return u / norm
    raise RegimeError("could not draw a direction vector")


def _draw_source_params(family, target_params, c, n_target, direction_seed,
                        master_seed):
    if c < 0:
        raise ParameterError("distance constants must be nonnegative")
    rng = derive_rng(master_seed, direction_seed)
    radius = c / np.sqrt(float(n_target))
    for _ in range(_MAX_DIRECTION_DRAWS):
        u = _unit_direction(rng, family.dim)
        candidate = target_params + radius * u
        try:
            return family.validate(candidate)
        except ParameterError:
            continue
    raise RegimeError(
        f"no valid source parameters at distance {radius} from the target "
        f"after {_MAX_DIRECTION_DRAWS} draws; the distance constant "
        f"{c} is too large for this family's parameter region"
    )


def generate_ensemble(family, target_params, n_target, source_specs,
                      master_seed):
    """Place each source at distance c_i / sqrt(N0) from the target.

    ``source_specs`` is a list of (c, budget, direction_seed) triples.
    Directions are uniform on the sphere in the family's free-parameter
    space; draws that land outside the valid region are retried a bounded
    number of times.
    """
    sources = [{"c": c, "budget": n, "direction_seed": dseed}
               for c, n, dseed in source_specs]
    return build_ensemble(family, {"target_params": target_params,
                                   "n_target": n_target,
                                   "sources": sources}, master_seed)


def build_ensemble(family, config, master_seed):
    """Ensemble from a config block.

    Each source entry carries a ``budget`` and either explicit ``params``
    or a (``c``, ``direction_seed``) pair for a seeded placement.
    """
    th0 = family.validate(np.asarray(config["target_params"], dtype=float))
    n0 = int(config["n_target"])
    params, budgets = [], []
    for i, src in enumerate(config["sources"]):
        n = int(src["budget"])
        if "params" in src:
            p = family.validate(np.asarray(src["params"], dtype=float))
        else:
            p = _draw_source_params(family, th0, float(src["c"]), n0,
                                    int(src.get("direction_seed", i)),
                                    int(master_seed))
        params.append(p)
        budgets.append(n)
    return TaskEnsemble(family, th0, n0, params, np.asarray(budgets))


def _ensemble_gram(ensemble):
    """K x K matrix of information-weighted inner products of the source
    displacement directions, evaluated at the target parameters."""
    j = analytic_fisher(ensemble.family, ensemble.target_params)
    dirs = np.stack([p - ensemble.target_params for p in ensemble.source_params],
                    axis=1)
    return direction_gram(j, dirs)


def source_scalars(ensemble):
    """Per-source scaled squared distances t_i = dir_i' J dir_i / d."""
    gram = _ensemble_gram(ensemble)
    return np.diag(gram) / float(ensemble.family.dim)


def _predict_under(n_target, weights, quantities, gram, d):
    """Predicted divergence for arbitrary weights and quantities.

    Sources with zero weight or zero quantity contribute nothing, so the
    matrix is rebuilt on the active set only (the inactive rows would put
    zero-count terms on the diagonal).
    """
    w = np.asarray(weights, dtype=float)
    q = np.asarray(quantities, dtype=float)
    active = np.nonzero((w > 0) & (q > 0))[0]
    if active.size == 0:
        return predict_kl_multi(n_target, np.empty(0), np.empty(0),
                                np.zeros((0, 0)), d)
    sub = gram[np.ix_(active, active)]
    m_sub = (np.diag(d / q[active]) + sub) / float(d)
    return predict_kl_multi(n_target, q[active], w[active], m_sub, d)


def _check_source_index(index, k):
    idx = int(index)
    if not 0 <= idx < k:
        raise ConfigError(f"source index {index} out of range for {k} sources",
                          field="/source_index")
    return idx


def _pinned(pinned_weights, k):
    if pinned_weights is None:
        return np.zeros(k)
    w = np.asarray(pinned_weights, dtype=float)
    if w.shape != (k,) or np.any(w < 0):
        raise ConfigError("pinned weights must be K nonnegative values",
                          field="/pinned_weights")
    return w.copy()


def _sweep(axis, ensemble, grid, gram, point, trials, seed):
    """Measured and predicted curves over a grid, where ``point(value)``
    gives the (weights, quantities) at a grid value.

    Grid points run serially. The point index enters the seed path, so
    each point's estimate is reproducible on its own, whatever else the
    grid holds.
    """
    d = ensemble.family.dim
    preds = np.empty(len(grid))
    means = np.empty(len(grid))
    stderrs = np.empty(len(grid))
    for i, value in enumerate(grid):
        wv, qv = point(value)
        preds[i] = _predict_under(ensemble.target_budget, wv, qv, gram, d).total
        est = mc_expected_kl(ensemble.family, ensemble,
                             PlanView(wv, qv.astype(int)),
                             trials, seed, seed_prefix=(i,))
        means[i] = est.mean
        stderrs[i] = est.std_error
    return SweepResult(axis, grid, means, stderrs, preds,
                       int(np.argmin(means)), int(np.argmin(preds)))


def sweep_weight(ensemble, source_index, grid, trials, seed,
                 pinned_weights=None):
    """Measured and predicted divergence as one source's weight varies."""
    grid = resolve_grid(grid)
    if np.any(grid < 0):
        raise ConfigError("weights must be nonnegative", field="/grid")
    idx = _check_source_index(source_index, ensemble.k)
    base = _pinned(pinned_weights, ensemble.k)
    budgets = ensemble.source_budgets.astype(float)

    def point(w):
        wv = base.copy()
        wv[idx] = w
        return wv, budgets

    return _sweep("weight", ensemble, grid, _ensemble_gram(ensemble), point,
                  trials, seed)


def sweep_quantity(ensemble, source_index, grid, weight_rule, trials, seed,
                   pinned_weights=None):
    """Measured and predicted divergence as one source's quantity varies.

    ``weight_rule`` is either the string ``"optimal"``, re-optimizing the
    weight 1/(1 + t*n) at every grid point, or a fixed numeric weight.
    """
    grid = resolve_grid(grid, integer=True)
    idx = _check_source_index(source_index, ensemble.k)
    if grid[0] < 0 or grid[-1] > ensemble.source_budgets[idx]:
        raise ConfigError("quantity grid must stay within [0, source budget]",
                          field="/grid")
    base = _pinned(pinned_weights, ensemble.k)
    gram = _ensemble_gram(ensemble)
    t_i = float(gram[idx, idx]) / ensemble.family.dim
    if weight_rule == "optimal":
        def rule(n):
            return 1.0 / (1.0 + t_i * n)
    else:
        fixed = float(weight_rule)
        if fixed < 0:
            raise ConfigError("fixed weight must be nonnegative", field="/rule")

        def rule(n):
            return fixed

    def point(n):
        wv = base.copy()
        wv[idx] = rule(int(n))
        qv = ensemble.source_budgets.astype(float)
        qv[idx] = float(n)
        return wv, qv

    return _sweep("quantity", ensemble, grid, gram, point, trials, seed)


def brute_force_simplex(m, step):
    """Exact minimum of alpha' M alpha over the lattice simplex.

    The lattice has resolution 1/round(1/step). The first K-2 coordinates
    are enumerated outright (vectorized); for each prefix the remaining
    mass splits over the last two coordinates as a one-dimensional integer
    quadratic, whose minimum is found in closed form (rounded vertex
    clamped to the range, plus both endpoints). This keeps K=4 at step
    0.001 tractable while staying an exhaustive search.
    """
    m = np.asarray(getattr(m, "m", m), dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    k = m.shape[0]
    if k > 4:
        raise ScaleError(f"brute force is limited to K <= 4, got K={k}")
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


def _combined_se(a, b):
    return float(np.hypot(a, b))


def _check_grid(spec, integer=False):
    """A check's grid; fewer than two points would compare nothing."""
    grid = resolve_grid(spec, integer)
    if len(grid) < 2:
        raise ConfigError("a check grid needs at least two points",
                          field="/grid")
    return grid


def config_family(config):
    """Model family named by a config's ``family`` block."""
    return get_family(**config["family"])


def config_ensemble(config, seed):
    """Family and ensemble described by a config block."""
    family = config_family(config)
    return family, build_ensemble(family, config, seed)


def _check_weight_optimum(config, seed):
    grid = _check_grid(config["grid"])
    family, ens = config_ensemble(config, seed)
    idx = int(config["source_index"])
    trials = int(config["trials"])
    result = sweep_weight(ens, idx, grid, trials, seed)
    t_i = float(source_scalars(ens)[idx])
    w_star = single_source_weight(t_i, int(ens.source_budgets[idx]))
    star_idx = int(np.argmin(np.abs(result.grid - w_star)))
    steps_off = abs(result.mc_argmin - star_idx)
    within = steps_off <= 2
    # fallback for flat curves (t near 0): the measured curve at the
    # predicted optimum is indistinguishable from the measured minimum
    se_pair = _combined_se(result.mc_stderrs[star_idx],
                           result.mc_stderrs[result.mc_argmin])
    flat = (result.mc_means[star_idx]
            <= result.mc_means[result.mc_argmin] + 3.0 * se_pair)
    return {
        "verdict": "pass" if (within or flat) else "fail",
        "n_target": int(ens.target_budget),
        "regime_constants": [float(c) for c in ens.regime_constants],
        "details": {
            "t": t_i,
            "w_star": w_star,
            "w_star_index": star_idx,
            "mc_argmin": result.mc_argmin,
            "predicted_argmin": result.predicted_argmin,
            "argmin_steps_off": int(steps_off),
            "argmin_within_two_steps": bool(within),
            "flat_at_optimum": bool(flat),
            "sweep": result.to_json_dict(),
            "trials": trials,
        },
    }


def _check_quantity_monotone(config, seed):
    grid = _check_grid(config["grid"], integer=True)
    family, ens = config_ensemble(config, seed)
    idx = int(config["source_index"])
    trials = int(config["trials"])
    rule = config["rule"]
    result = sweep_quantity(ens, idx, grid, rule, trials, seed)
    diffs = np.diff(result.predicted)
    pred_ok = bool(np.all(diffs < -1e-12))
    mc_ok = True
    first_violation = None
    for i in range(len(result.grid) - 1):
        slack = 3.0 * _combined_se(result.mc_stderrs[i], result.mc_stderrs[i + 1])
        if result.mc_means[i + 1] > result.mc_means[i] + slack:
            mc_ok = False
            first_violation = i + 1
            break
    return {
        "verdict": "pass" if (pred_ok and mc_ok) else "fail",
        "n_target": int(ens.target_budget),
        "regime_constants": [float(c) for c in ens.regime_constants],
        "details": {
            "rule": rule if isinstance(rule, str) else float(rule),
            "predicted_strictly_decreasing": pred_ok,
            "mc_decreasing_within_noise": mc_ok,
            "first_mc_violation_index": first_violation,
            "sweep": result.to_json_dict(),
            "trials": trials,
        },
    }


def _check_dimension_scaling(config, seed):
    dims = [int(v) for v in config["dims"]]
    t = float(config["t"])
    n0 = int(config["n_target"])
    n1 = int(config["n_source"])
    trials = int(config["trials"])
    w_star = single_source_weight(t, n1)
    totals, means, stderrs, constants = [], [], [], []
    for d in dims:
        family = get_family("gaussian_iso", {"dim": d})
        th0 = np.zeros(d)
        # equal-component displacement keeps t exact in floating point
        th1 = np.full(d, np.sqrt(t))
        ens = TaskEnsemble(family, th0, n0, [th1], np.array([n1]))
        totals.append(predict_kl_single(n0, n1, w_star, t, d).total)
        est = mc_expected_kl(family, ens, PlanView(np.array([w_star]),
                                                   np.array([n1])),
                             trials, seed, seed_prefix=(d,))
        means.append(est.mean)
        stderrs.append(est.std_error)
        constants.append(float(ens.regime_constants[0]))
    base = totals[0] / dims[0]
    rel_errs = [abs(tot - d * base) / tot for tot, d in zip(totals, dims)]
    pred_ok = bool(max(rel_errs) <= 1e-12)
    mc_ok = True
    for i in range(1, len(dims)):
        ratio = dims[i] / dims[0]
        slack = 3.0 * _combined_se(stderrs[i], ratio * stderrs[0])
        if abs(means[i] - ratio * means[0]) > slack:
            mc_ok = False
    return {
        "verdict": "pass" if (pred_ok and mc_ok) else "fail",
        "n_target": n0,
        "regime_constants": constants,
        "details": {
            "dims": dims,
            "t": t,
            "w_star": w_star,
            "predicted_totals": totals,
            "mc_means": means,
            "mc_stderrs": stderrs,
            "linearity_max_rel_err": float(max(rel_errs)),
            "predicted_linear": pred_ok,
            "mc_ratios_ok": mc_ok,
            "trials": trials,
        },
    }


def _check_plan_beats_random(config, seed):
    family, ens = config_ensemble(config, seed)
    trials = int(config["trials"])
    n_random = int(config["random_plans"])
    mc_top = int(config["mc_top"])
    mc_trials = int(config["mc_trials"])
    weight_high = float(config["weight_high"])
    d = family.dim
    gram = _ensemble_gram(ens)
    budgets = ens.source_budgets.astype(float)
    qp = build_qp_matrix(None, gram, budgets, d)
    plan = optimal_plan(qp, n_target=ens.target_budget)
    plan_est = mc_expected_kl(family, ens, plan, trials, seed,
                              seed_prefix=(_PLAN_STREAM,))

    rng = derive_rng(seed, _RANDOM_DRAW_STREAM)
    weight_draws = rng.uniform(0.0, weight_high, size=(n_random, ens.k))
    predictions = np.array([
        _predict_under(ens.target_budget, w, budgets, gram, d).total
        for w in weight_draws
    ])
    beats_all = bool(plan_est.mean <= predictions.min())

    order = np.argsort(predictions)[:mc_top]
    top_means, top_ses = [], []
    for rank, j in enumerate(order):
        est = mc_expected_kl(family, ens, PlanView(weight_draws[j],
                                                   ens.source_budgets),
                             mc_trials, seed,
                             seed_prefix=(_RANDOM_MC_STREAM, rank))
        top_means.append(est.mean)
        top_ses.append(est.std_error)
    best = int(np.argmin(top_means))
    slack = 3.0 * _combined_se(plan_est.std_error, top_ses[best])
    within = bool(plan_est.mean <= top_means[best] + slack)
    margin = (top_means[best] - plan_est.mean) / _combined_se(
        plan_est.std_error, top_ses[best])
    return {
        "verdict": "pass" if (beats_all and within) else "fail",
        "n_target": int(ens.target_budget),
        "regime_constants": [float(c) for c in ens.regime_constants],
        "details": {
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
            "trials": trials,
            "mc_trials": mc_trials,
        },
    }


def _check_estimator_mean(config, seed):
    family, ens = config_ensemble(config, seed)
    weights = np.asarray(config["weights"], dtype=float)
    if weights.shape != (ens.k,):
        raise ConfigError("need one weight per source", field="/weights")
    trials = int(config["trials"])
    estimates = mc_fits(family, ens.target_params, ens.target_budget,
                        zip(ens.source_params, ens.source_budgets, weights),
                        trials, seed)

    masses = weights * ens.source_budgets
    denom = ens.target_budget + masses.sum()
    expected = ens.target_budget * ens.target_params
    for mass, p in zip(masses, ens.source_params):
        expected = expected + mass * p
    expected = expected / denom

    observed = estimates.mean(axis=0)
    ses = estimates.std(axis=0, ddof=1) / np.sqrt(trials)
    sigmas = np.abs(observed - expected) / np.where(ses > 0, ses, np.inf)
    ok = sigmas <= 3.0
    return {
        "verdict": "pass" if bool(np.all(ok)) else "fail",
        "n_target": int(ens.target_budget),
        "regime_constants": [float(c) for c in ens.regime_constants],
        "details": {
            "weights": [float(w) for w in weights],
            "expected_mean": [float(v) for v in expected],
            "observed_mean": [float(v) for v in observed],
            "stderrs": [float(v) for v in ses],
            "sigmas": [float(v) for v in sigmas],
            "max_sigma": float(sigmas.max()),
            "trials": trials,
        },
    }


def _check_kl_mse_bridge(config, seed):
    family = config_family(config)
    th0 = family.validate(np.asarray(config["target_params"], dtype=float))
    n0 = int(config["n_target"])
    trials = int(config["trials"])
    rel_tol = float(config["rel_tol"])
    # both sides of the bridge need a closed form: a family without the
    # divergence or the information matrix fails here, before any trial
    kl_exact(family, th0, th0)
    analytic_fisher(family, th0)
    estimates = mc_fits(family, th0, n0, [], trials, seed)
    lhs, rhs = mse_kl_bridge(family, th0, estimates)
    rel_gap = abs(lhs - rhs) / abs(lhs)
    return {
        "verdict": "pass" if rel_gap <= rel_tol else "fail",
        "n_target": n0,
        "regime_constants": [],
        "details": {
            "mean_divergence": lhs,
            "half_fisher_mse": rhs,
            "rel_gap": float(rel_gap),
            "rel_tol": rel_tol,
            "trials": trials,
        },
    }


_CHECKS = {
    "weight-optimum": _check_weight_optimum,
    "quantity-monotone": _check_quantity_monotone,
    "dimension-scaling": _check_dimension_scaling,
    "plan-beats-random": _check_plan_beats_random,
    "estimator-mean": _check_estimator_mean,
    "kl-mse-bridge": _check_kl_mse_bridge,
}


def verify_claim(check, config, seed):
    """Run one named oracle comparison and return a structured verdict.

    Checks: weight-optimum (measured weight curve bottoms out at the
    closed form), quantity-monotone (more source data never hurts under
    the re-optimized weight), dimension-scaling (predictions linear in the
    dimension at matched distance scale), plan-beats-random (the planned
    weights beat random ones), estimator-mean (the weighted estimator
    centers on the mixture), kl-mse-bridge (divergence matches half the
    Fisher-weighted mean squared error). ``config`` is validated against
    the check's schema entry; the check's defaults fill what it leaves out.
    """
    if check not in _CHECKS:
        known = ", ".join(sorted(_CHECKS))
        raise ConfigError(f"unknown check '{check}' (known: {known})",
                          field="/check")
    validate_config(check, config)
    report = _CHECKS[check]({**DEFAULTS[check], **config}, int(seed))
    report["check"] = check
    report["seed"] = int(seed)
    return report
