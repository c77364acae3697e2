"""Simulation harness: seeded ensembles, sweep curves, the exhaustive
simplex search, and the named verification checks."""

import math

import numpy as np
import pytest

from transferopt import (
    ConfigError,
    ParameterError,
    RegimeError,
    brute_force_simplex,
    solve_simplex_qp,
    sweep_quantity,
    sweep_weight,
    verify_claim,
)
from transferopt import harness
from transferopt.config import build_ensemble, config_ensemble, config_sweep, resolve_grid
from transferopt.harness import TaskEnsemble, source_scalars
from transferopt.kl import predict_kl_single
from transferopt.planner import qp_from_parameters
from transferopt.rng import derive_rng

from helpers import (CONFIGS, active_set_oracle, load_json,
                     naive_simplex_minimum, rand_psd)


def test_zero_distance_sources_sit_on_the_target(cat3):
    ens = build_ensemble(cat3, {
        "target_params": [0.3, 0.4], "n_target": 500,
        "sources": [{"c": 0.0, "budget": 100, "direction_seed": 0},
                    {"c": 0.0, "budget": 200, "direction_seed": 1}],
    }, 9)
    for p in ens.source_params:
        assert np.array_equal(p, ens.target_params)
    assert np.array_equal(ens.regime_constants, [0.0, 0.0])


def test_ensembles_are_seed_reproducible(cat3):
    cfg = {"target_params": [0.3, 0.4], "n_target": 400,
           "sources": [{"c": 1.0, "budget": 300, "direction_seed": 0},
                       {"c": 2.5, "budget": 700, "direction_seed": 1}]}
    a = build_ensemble(cat3, cfg, 12)
    b = build_ensemble(cat3, cfg, 12)
    for pa, pb in zip(a.source_params, b.source_params):
        assert np.array_equal(pa, pb)
    c = build_ensemble(cat3, cfg, 13)
    assert not np.array_equal(a.source_params[0], c.source_params[0])


def test_distance_constant_sets_the_radius(cat3, gauss3):
    # c = 2 at N0 = 400 puts the source at euclidean distance 0.1
    for fam, th0 in [(cat3, np.array([0.3, 0.4])),
                     (gauss3, np.array([0.5, -0.5, 1.0]))]:
        ens = build_ensemble(fam, {
            "target_params": th0, "n_target": 400,
            "sources": [{"c": 2.0, "budget": 100, "direction_seed": 3}],
        }, 21)
        dist = np.linalg.norm(ens.source_params[0] - th0)
        assert abs(dist - 0.1) <= 1e-12
        assert abs(ens.regime_constants[0] - 2.0) <= 1e-10


def test_ensemble_rejects_inconsistent_record(cat3):
    th0 = np.array([0.3, 0.4])
    with pytest.raises(ParameterError):
        TaskEnsemble(cat3, th0, 0, [th0.copy()], np.array([100]))
    with pytest.raises(ParameterError, match="at least one source"):
        TaskEnsemble(cat3, th0, 100, [], np.array([], dtype=int))
    with pytest.raises(ParameterError, match="nonnegative"):
        build_ensemble(cat3, {
            "target_params": [0.3, 0.4], "n_target": 100,
            "sources": [{"c": -1.0, "budget": 50, "direction_seed": 0}],
        }, 5)


@pytest.mark.parametrize("target, budgets, message", [
    (100.7, [1200], "target_budget must be a whole count, got 100.7"),
    (100, [1200.7], "source_budgets must be a whole count, got 1200.7"),
    (100, [1200, math.inf], "source_budgets must be a whole count, got inf"),
    (math.nan, [1200], "target_budget must be a whole count, got nan"),
], ids=["fractional-target", "fractional-source", "inf", "nan"])
def test_ensemble_rejects_non_whole_budgets(cat3, target, budgets, message):
    th0 = np.array([0.3, 0.4])
    with pytest.raises(ParameterError, match=message):
        TaskEnsemble(cat3, th0, target, [th0.copy()] * len(budgets),
                     np.array(budgets))


def test_ensemble_rejects_a_target_the_family_rejects(cat3):
    """The target passes ``family.validate`` when the ensemble is built,
    as each source does (``test_plans_reject_a_source_the_family_rejects``)."""
    with pytest.raises(ParameterError, match="free probabilities"):
        TaskEnsemble(cat3, [0.3, 0.4, 0.1], 100, [[0.3, 0.4]], [100])


def test_ensemble_stores_whole_float_budgets_as_counts(cat3):
    th0 = np.array([0.3, 0.4])
    ens = TaskEnsemble(cat3, th0, 2000.0, [th0.copy()], np.array([1200.0]))
    assert type(ens.target_budget) is int and ens.target_budget == 2000
    assert ens.source_budgets.tolist() == [1200]


def test_unreachable_distance_raises_regime_error(cat3):
    # radius 10 cannot stay inside the simplex
    with pytest.raises(RegimeError):
        build_ensemble(cat3, {
            "target_params": [0.3, 0.4], "n_target": 100,
            "sources": [{"c": 100.0, "budget": 50, "direction_seed": 0}],
        }, 5)


def test_build_ensemble_accepts_explicit_params(cat3):
    cfg = {
        "target_params": [0.3, 0.4],
        "n_target": 1000,
        "sources": [{"params": [0.35, 0.3], "budget": 600},
                    {"c": 1.0, "budget": 400, "direction_seed": 0}],
    }
    ens = build_ensemble(cat3, cfg, 77)
    assert np.array_equal(ens.source_params[0], [0.35, 0.3])
    assert ens.source_budgets.tolist() == [600, 400]
    want_c = np.sqrt(1000.0) * np.linalg.norm(np.array([0.35, 0.3])
                                              - np.array([0.3, 0.4]))
    assert abs(ens.regime_constants[0] - want_c) <= 1e-10


def test_resolve_grid_forms():
    assert np.allclose(resolve_grid({"start": 0, "stop": 1, "step": 0.25}),
                       [0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(resolve_grid({"start": 0, "stop": 2, "count": 3}),
                       [0, 1, 2])
    assert np.array_equal(resolve_grid([5, 10, 20], integer=True), [5, 10, 20])
    with pytest.raises(ConfigError):
        resolve_grid([])
    with pytest.raises(ConfigError):
        resolve_grid([3, 2, 1])
    with pytest.raises(ConfigError):
        resolve_grid({"start": 0, "stop": 1, "step": -0.5})
    with pytest.raises(ConfigError):
        resolve_grid({"start": 0, "stop": 1})
    with pytest.raises(ConfigError, match="needs start"):
        resolve_grid({"stop": 1, "count": 2})


def test_a_step_grid_never_passes_stop():
    # rounding (stop - start) / step = 1.67 up would add the point 1.2
    assert np.array_equal(resolve_grid({"start": 0, "stop": 1, "step": 0.6}),
                          [0.0, 0.6])
    grid = resolve_grid({"start": 0.0, "stop": 2.0, "step": 0.3})
    assert len(grid) == 7 and grid[-1] <= 2.0
    # 0.3 / 0.1 is 2.9999999999999996: float error keeps the end point
    assert len(resolve_grid({"start": 0, "stop": 0.3, "step": 0.1})) == 4


def test_bundled_step_grids_keep_their_points():
    spec = load_json(CONFIGS / "simulate_check_weight.json")["config"]["grid"]
    grid = resolve_grid(spec)
    assert len(grid) == 21 and grid[-1] == spec["stop"]


def test_weight_sweep_at_zero_is_the_baseline(cat3):
    ens = build_ensemble(cat3, {
        "target_params": [0.3, 0.4], "n_target": 400,
        "sources": [{"c": 1.0, "budget": 500, "direction_seed": 0}],
    }, 31)
    res = sweep_weight(ens, 0, [0.0], 400, 31)
    d = cat3.dim
    assert res.predicted[0] == d / (2.0 * 400)
    assert abs(res.mc_means[0] - res.predicted[0]) <= 3.0 * res.mc_stderrs[0]
    assert res.axis_name == "weight"
    assert len(res.rows()) == 1


def test_identical_source_transfer_beats_no_transfer(gauss3):
    fam = gauss3
    th0 = np.array([0.2, -0.1, 0.4])
    ens = TaskEnsemble(fam, th0, 300, [th0.copy()], np.array([700]))
    res = sweep_weight(ens, 0, [0.0, 1.0], 600, 41)
    gap = res.mc_means[0] - res.mc_means[1]
    noise = 3.0 * float(np.hypot(res.mc_stderrs[0], res.mc_stderrs[1]))
    assert gap > noise
    assert res.mc_argmin == 1 and res.predicted_argmin == 1


def test_quantity_sweep_baseline_and_pooling_ratio(gauss3):
    th0 = np.zeros(3)
    ens = TaskEnsemble(gauss3, th0, 500, [th0.copy()], np.array([1000]))
    res0 = sweep_quantity(ens, 0, [0], 1.0, 300, 51)
    assert res0.predicted[0] == 3.0 / (2.0 * 500)
    assert abs(res0.mc_means[0] - res0.predicted[0]) <= 3.0 * res0.mc_stderrs[0]

    res = sweep_quantity(ens, 0, [0, 1000], 1.0, 300, 52)
    ratio = res.predicted[1] / res.predicted[0]
    assert abs(ratio - 500.0 / 1500.0) <= 1e-15


def test_quantity_sweep_monotone_under_optimal_rule(cat3):
    ens = build_ensemble(cat3, {
        "target_params": [0.3, 0.4], "n_target": 1000,
        "sources": [{"c": 1.0, "budget": 1000, "direction_seed": 0}],
    }, 61)
    grid = list(range(100, 1001, 100))
    res = sweep_quantity(ens, 0, grid, "optimal", 400, 61)
    assert np.all(np.diff(res.predicted) < 0)
    for i in range(len(grid) - 1):
        slack = 3.0 * float(np.hypot(res.mc_stderrs[i], res.mc_stderrs[i + 1]))
        assert res.mc_means[i + 1] <= res.mc_means[i] + slack


def test_a_sweep_gives_every_other_source_weight_zero(cat3):
    """Source 1 enters neither curve, so each prediction is the swept
    source's own, and the optimal rule is the best weight at every point."""
    ens = build_ensemble(cat3, {
        "target_params": [0.3, 0.4], "n_target": 1000,
        "sources": [{"c": 1.0, "budget": 1000, "direction_seed": 0},
                    {"c": 0.5, "budget": 2000, "direction_seed": 1}],
    }, 61)
    t0, d = float(source_scalars(ens)[0]), cat3.dim

    def alone(n, w):
        return predict_kl_single(1000, n, w, t0, d).total

    grid = [100, 500, 1000]
    res = sweep_quantity(ens, 0, grid, "optimal", 2, 61)
    for n, got in zip(grid, res.predicted):
        w_star = 1.0 / (1.0 + t0 * n)
        assert got == pytest.approx(alone(n, w_star), rel=1e-12)
        assert got < min(alone(n, 0.9 * w_star), alone(n, 1.1 * w_star))
    res = sweep_weight(ens, 0, [0.0, 0.5, 2.0], 2, 61)
    for w, got in zip([0.0, 0.5, 2.0], res.predicted):
        assert got == pytest.approx(alone(1000, w), rel=1e-12)


_SWEEP = {
    "family": {"name": "categorical", "params": {"num_outcomes": 3}},
    "target_params": [0.3, 0.4], "n_target": 200,
    "sources": [{"c": 1.0, "budget": 300, "direction_seed": 0}],
    "source_index": 0, "trials": 10, "rule": 1.0,
}


def test_sweep_argument_errors(monkeypatch):
    """A bad sweep input raises ConfigError at its field from the sweep
    config, and ValueError from the library sweep; neither runs a trial."""
    monkeypatch.setattr("transferopt.harness.mc_expected_kl", None)
    ens = config_ensemble(_SWEEP, 3)
    for axis, index, grid, rule, field in [
            ("weight", 5, [0.0, 1.0], 1.0, "/source_index"),
            ("weight", 0, [-0.5, 1.0], 1.0, "/grid"),
            ("quantity", 0, [0, 500], 1.0, "/grid"),  # past the budget
            ("quantity", 0, [0, 300], -2.0, "/rule")]:
        config = dict(_SWEEP, axis=axis, source_index=index, grid=grid,
                      rule=rule)
        with pytest.raises(ConfigError) as exc:
            config_sweep(config, 3)
        assert exc.value.field == field
        with pytest.raises(ValueError):
            if axis == "weight":
                sweep_weight(ens, index, grid, 10, 3)
            else:
                sweep_quantity(ens, index, grid, rule, 10, 3)


def test_an_ensemble_plans_through_the_parameter_qp(cat3):
    ens = build_ensemble(cat3, {
        "target_params": [0.3, 0.4], "n_target": 200,
        "sources": [{"c": 1.0, "budget": 300, "direction_seed": 0},
                    {"c": 2.0, "budget": 700, "direction_seed": 1}],
    }, 3)
    got = ens.qp()
    want = qp_from_parameters(ens.family, ens.target_params,
                              ens.source_params, ens.source_budgets)
    for name in ("gram", "budgets", "m"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.d == want.d == cat3.dim


def test_a_fractional_source_index_is_a_config_error(monkeypatch):
    """The index was cast with ``int``, so 0.5 swept source 0."""
    monkeypatch.setattr("transferopt.harness.mc_expected_kl", None)
    ens = config_ensemble(_SWEEP, 3)
    message = "source index must be a whole count"
    for index in (0.5, math.inf):
        config = dict(_SWEEP, axis="weight", source_index=index,
                      grid=[0.0, 1.0])
        with pytest.raises(ConfigError, match=message) as exc:
            config_sweep(config, 3)
        assert exc.value.field == "/source_index"
        with pytest.raises(ValueError, match=message):
            sweep_weight(ens, index, [0.0, 1.0], 10, 3)


def test_brute_force_small_cases():
    alpha, val = brute_force_simplex(np.array([[0.25]]), 0.01)
    assert np.array_equal(alpha, [1.0]) and val == 0.25

    alpha, val = brute_force_simplex(np.eye(2), 0.001)
    assert np.array_equal(alpha, [0.5, 0.5])
    assert abs(val - 0.5) <= 1e-15


def test_brute_force_equals_naive_enumeration(rng):
    for k, step in [(2, 0.1), (3, 0.1), (4, 0.1), (3, 0.05), (2, 0.02)]:
        m = rand_psd(rng, k)
        got_alpha, got_val = brute_force_simplex(m, step)
        _, want_val = naive_simplex_minimum(m, step)
        assert abs(got_val - want_val) <= 1e-15
        r = round(1.0 / step)
        units = got_alpha * r
        assert np.max(np.abs(units - np.rint(units))) <= 1e-9
        assert abs(got_alpha.sum() - 1.0) <= 1e-12


def test_brute_force_sandwiches_the_solver(rng):
    for _ in range(5):
        m = rand_psd(rng, 3)
        sol = solve_simplex_qp(m)
        step = 0.01
        _, val = brute_force_simplex(m, step)
        assert val >= sol.value - 1e-9
        assert val <= sol.value + step * float(np.linalg.norm(m)) * 10.0


def test_brute_force_limits():
    with pytest.raises(ValueError, match="K <= 4"):
        brute_force_simplex(np.eye(5), 0.1)
    with pytest.raises(ValueError):
        brute_force_simplex(np.eye(2), 0.2)
    with pytest.raises(ValueError):
        brute_force_simplex(np.eye(2), 0.0)
    with pytest.raises(ValueError, match="square"):
        brute_force_simplex(np.ones((2, 3)), 0.1)


def test_verify_rejects_unknown_check():
    with pytest.raises(ConfigError) as exc:
        verify_claim("no-such-check", {}, 1)
    assert exc.value.field == "/check"


WEIGHT_CFG = {
    "family": {"name": "categorical", "params": {"num_outcomes": 3}},
    "target_params": [0.3, 0.4],
    "n_target": 500,
    "sources": [{"c": 1.5, "budget": 500, "direction_seed": 0}],
    "grid": {"start": 0.0, "stop": 1.5, "step": 0.25},
    "trials": 300,
}


def test_weight_optimum_check_passes():
    report = verify_claim("weight-optimum", WEIGHT_CFG, 11)
    assert report["verdict"] == "pass"
    assert report["check"] == "weight-optimum" and report["seed"] == 11
    assert report["n_target"] == 500
    assert len(report["regime_constants"]) == 1
    details = report["details"]
    assert details["w_star"] == 1.0 / (1.0 + details["t"] * 500)


def test_weight_optimum_flat_fallback_at_zero_distance():
    cfg = dict(WEIGHT_CFG)
    cfg["sources"] = [{"c": 0.0, "budget": 500, "direction_seed": 0}]
    cfg["grid"] = [0.0, 0.5, 1.0]
    report = verify_claim("weight-optimum", cfg, 13)
    assert report["verdict"] == "pass"
    assert report["details"]["w_star"] == 1.0


def test_quantity_monotone_check_passes():
    cfg = {
        "family": {"name": "categorical", "params": {"num_outcomes": 3}},
        "target_params": [0.3, 0.4],
        "n_target": 1000,
        "sources": [{"c": 1.0, "budget": 1000, "direction_seed": 0}],
        "grid": [0, 250, 500, 1000],
        "trials": 300,
    }
    report = verify_claim("quantity-monotone", cfg, 17)
    assert report["verdict"] == "pass"
    assert report["details"]["predicted_strictly_decreasing"] is True
    assert report["details"]["first_mc_violation_index"] is None


def test_dimension_scaling_check_passes():
    cfg = {"dims": [1, 2], "t": 0.002, "n_target": 500, "n_source": 500,
           "trials": 400}
    report = verify_claim("dimension-scaling", cfg, 19)
    assert report["verdict"] == "pass"
    totals, dims = (report["details"][k] for k in ("predicted_totals", "dims"))
    assert max(abs(tot - dim * totals[0] / dims[0]) / tot
               for tot, dim in zip(totals, dims)) <= 1e-12


def test_plan_beats_random_check_passes():
    # one near source and two progressively farther ones along the same
    # direction; random weightings waste mass on the far pair
    cfg = {
        "family": {"name": "categorical", "params": {"num_outcomes": 3}},
        "target_params": [0.3, 0.4],
        "n_target": 4000,
        "sources": [{"params": [0.3126491106, 0.409486833], "budget": 2000},
                    {"params": [0.3442718872, 0.4332039154], "budget": 2000},
                    {"params": [0.3632455532, 0.4474341649], "budget": 2000}],
        "trials": 1000,
        "random_plans": 800,
        "mc_top": 3,
        "mc_trials": 150,
    }
    report = verify_claim("plan-beats-random", cfg, 23)
    assert report["verdict"] == "pass"
    details = report["details"]
    assert details["beats_all_predictions"] and details["within_noise_of_best"]
    assert set(details["plan"]) >= {"alpha", "weights", "quantities"}


def test_random_plan_predictions_match_one_plan_at_a_time():
    cfg = {
        "family": {"name": "categorical", "params": {"num_outcomes": 3}},
        "target_params": [0.3, 0.4],
        "n_target": 500,
        "sources": [{"c": 1.0, "budget": 300, "direction_seed": 0},
                    {"c": 3.0, "budget": 900, "direction_seed": 1},
                    {"c": 6.0, "budget": 200, "direction_seed": 2}],
        "trials": 20,
        "random_plans": 300,
        "mc_top": 2,
        "mc_trials": 10,
        "weight_high": 2.0,
    }
    report = verify_claim("plan-beats-random", cfg, 31)
    ens = config_ensemble(cfg, 31)
    gram = ens.qp().gram
    draws = derive_rng(31, harness._RANDOM_DRAW_STREAM).uniform(
        0.0, 2.0, size=(300, 3))
    want = min(active_set_oracle(500, w, ens.source_budgets, gram, 2)
               for w in draws)
    got = report["details"]["min_random_predicted"]
    assert got == pytest.approx(want, rel=1e-12)


def test_estimator_mean_check_passes_and_is_deterministic():
    cfg = {
        "family": {"name": "categorical", "params": {"num_outcomes": 3}},
        "target_params": [0.3, 0.4],
        "n_target": 200,
        "sources": [{"c": 1.0, "budget": 300, "direction_seed": 0}],
        "weights": [0.7],
        "trials": 500,
    }
    a = verify_claim("estimator-mean", cfg, 29)
    b = verify_claim("estimator-mean", cfg, 29)
    assert a == b
    assert a["verdict"] == "pass"
    assert a["details"]["max_sigma"] <= 3.0


def test_bridge_check_passes():
    cfg = {
        "family": {"name": "categorical", "params": {"num_outcomes": 3}},
        "target_params": [0.3, 0.4],
        "n_target": 2000,
        "trials": 600,
        "rel_tol": 0.1,
    }
    report = verify_claim("kl-mse-bridge", cfg, 37)
    assert report["verdict"] == "pass"
    assert report["details"]["rel_gap"] <= 0.1


def test_source_scalars_match_the_fisher_geometry(cat3):
    from transferopt import analytic_fisher

    ens = build_ensemble(cat3, {
        "target_params": [0.3, 0.4], "n_target": 400,
        "sources": [{"c": 1.0, "budget": 300, "direction_seed": 0},
                    {"c": 2.0, "budget": 500, "direction_seed": 1}],
    }, 43)
    j = analytic_fisher(cat3, ens.target_params)
    for i, p in enumerate(ens.source_params):
        u = p - ens.target_params
        want = float(u @ j @ u) / cat3.dim
        assert abs(source_scalars(ens)[i] - want) <= 1e-12
