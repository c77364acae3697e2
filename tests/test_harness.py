"""Simulation harness: seeded ensembles, sweep curves, the exhaustive
simplex search, and the named verification checks."""

import numpy as np
import pytest

from transferopt import (
    ConfigError,
    ParameterError,
    RegimeError,
    ScaleError,
    brute_force_simplex,
    generate_ensemble,
    solve_simplex_qp,
    sweep_quantity,
    sweep_weight,
    verify_claim,
)
from transferopt.harness import TaskEnsemble, build_ensemble, resolve_grid, source_scalars

from helpers import naive_simplex_minimum, rand_psd


def test_zero_distance_sources_sit_on_the_target(cat3):
    ens = generate_ensemble(cat3, np.array([0.3, 0.4]), 500,
                            [(0.0, 100, 0), (0.0, 200, 1)], 9)
    for p in ens.source_params:
        assert np.array_equal(p, ens.target_params)
    assert np.array_equal(ens.regime_constants, [0.0, 0.0])


def test_ensembles_are_seed_reproducible(cat3):
    specs = [(1.0, 300, 0), (2.5, 700, 1)]
    a = generate_ensemble(cat3, np.array([0.3, 0.4]), 400, specs, 12)
    b = generate_ensemble(cat3, np.array([0.3, 0.4]), 400, specs, 12)
    for pa, pb in zip(a.source_params, b.source_params):
        assert np.array_equal(pa, pb)
    c = generate_ensemble(cat3, np.array([0.3, 0.4]), 400, specs, 13)
    assert not np.array_equal(a.source_params[0], c.source_params[0])


def test_distance_constant_sets_the_radius(cat3, gauss3):
    # c = 2 at N0 = 400 puts the source at euclidean distance 0.1
    for fam, th0 in [(cat3, np.array([0.3, 0.4])),
                     (gauss3, np.array([0.5, -0.5, 1.0]))]:
        ens = generate_ensemble(fam, th0, 400, [(2.0, 100, 3)], 21)
        dist = np.linalg.norm(ens.source_params[0] - th0)
        assert abs(dist - 0.1) <= 1e-12
        assert abs(ens.regime_constants[0] - 2.0) <= 1e-10


def test_ensemble_rejects_inconsistent_record(cat3):
    th0 = np.array([0.3, 0.4])
    with pytest.raises(ParameterError):
        TaskEnsemble(cat3, th0, 0, [th0.copy()], np.array([100]))


def test_unreachable_distance_raises_regime_error(cat3):
    # radius 10 cannot stay inside the simplex
    with pytest.raises(RegimeError):
        generate_ensemble(cat3, np.array([0.3, 0.4]), 100, [(100.0, 50, 0)], 5)


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


def test_weight_sweep_at_zero_is_the_baseline(cat3):
    ens = generate_ensemble(cat3, np.array([0.3, 0.4]), 400,
                            [(1.0, 500, 0)], 31)
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
    ens = generate_ensemble(cat3, np.array([0.3, 0.4]), 1000,
                            [(1.0, 1000, 0)], 61)
    grid = list(range(100, 1001, 100))
    res = sweep_quantity(ens, 0, grid, "optimal", 400, 61)
    assert np.all(np.diff(res.predicted) < 0)
    for i in range(len(grid) - 1):
        slack = 3.0 * float(np.hypot(res.mc_stderrs[i], res.mc_stderrs[i + 1]))
        assert res.mc_means[i + 1] <= res.mc_means[i] + slack


def test_sweep_argument_errors(cat3):
    ens = generate_ensemble(cat3, np.array([0.3, 0.4]), 200, [(1.0, 300, 0)], 3)
    with pytest.raises(ConfigError) as exc:
        sweep_weight(ens, 5, [0.0, 1.0], 10, 3)
    assert exc.value.field == "/source_index"
    with pytest.raises(ConfigError) as exc:
        sweep_weight(ens, 0, [-0.5, 1.0], 10, 3)
    assert exc.value.field == "/grid"
    with pytest.raises(ConfigError) as exc:
        sweep_quantity(ens, 0, [0, 500], 1.0, 10, 3)  # past the budget
    assert exc.value.field == "/grid"
    with pytest.raises(ConfigError) as exc:
        sweep_quantity(ens, 0, [0, 300], -2.0, 10, 3)
    assert exc.value.field == "/rule"
    with pytest.raises(ConfigError) as exc:
        sweep_weight(ens, 0, [0.0, 1.0], 10, 3, pinned_weights=[0.1, 0.2])
    assert exc.value.field == "/pinned_weights"


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
    with pytest.raises(ScaleError):
        brute_force_simplex(np.eye(5), 0.1)
    with pytest.raises(ValueError):
        brute_force_simplex(np.eye(2), 0.2)
    with pytest.raises(ValueError):
        brute_force_simplex(np.eye(2), 0.0)


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
    assert report["details"]["linearity_max_rel_err"] <= 1e-12


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

    ens = generate_ensemble(cat3, np.array([0.3, 0.4]), 400,
                            [(1.0, 300, 0), (2.0, 500, 1)], 43)
    j = analytic_fisher(cat3, ens.target_params)
    for i, p in enumerate(ens.source_params):
        u = p - ens.target_params
        want = float(u @ j @ u) / cat3.dim
        assert abs(source_scalars(ens)[i] - want) <= 1e-12
