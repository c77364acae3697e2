"""The generalization measure: exact divergences, asymptotic predictions
against independent transcriptions, the Monte Carlo oracle, and the bridge
to Fisher-weighted squared error."""

import math

import numpy as np
import pytest

from transferopt import (
    kl_exact,
    mc_expected_kl,
    mse_kl_bridge,
    predict_kl_multi,
    predict_kl_single,
)
from transferopt.errors import ConvergenceError
from transferopt.harness import PlanView, TaskEnsemble, generate_ensemble, verify_claim
from transferopt.kl import KlPrediction
from transferopt.planner import composed_quantity_objective

from helpers import predicted_multi_oracle, predicted_single_oracle, rand_psd


def test_divergence_zero_iff_equal(cat3, gauss3, rng):
    th = np.array([0.3, 0.4])
    assert kl_exact(cat3, th, th) == 0.0
    assert kl_exact(gauss3, np.ones(3), np.ones(3)) == 0.0
    for _ in range(20):
        a = 0.8 * rng.dirichlet(np.ones(3))[:2] + 0.05
        b = 0.8 * rng.dirichlet(np.ones(3))[:2] + 0.05
        v = kl_exact(cat3, a, b)
        assert v >= 0.0
        if np.max(np.abs(a - b)) > 1e-6:
            assert v > 1e-12


def test_divergence_known_values(cat2, gauss1):
    assert kl_exact(gauss1, np.array([0.0]), np.array([1.0])) == 0.5
    got = kl_exact(cat2, np.array([0.5]), np.array([0.25]))
    want = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
    assert abs(got - want) <= 1e-15
    assert abs(got - 0.14384103622589045) <= 1e-12


def test_single_source_prediction_endpoints():
    # no transfer: pure target sampling error d / (2 N0)
    assert predict_kl_single(500, 900, 0.0, 0.7, 3).total == 3.0 / (2 * 500)
    # pooling with no shift: d / (2 (N0 + n1))
    got = predict_kl_single(500, 900, 1.0, 0.0, 3)
    assert abs(got.total - 3.0 / (2 * 1400)) <= 1e-18
    assert got.bias_term == 0.0


def test_single_source_prediction_transcription():
    got = predict_kl_single(100, 400, 0.5, 0.01, 1)
    want = predicted_single_oracle(100, 400, 0.5, 0.01, 1)
    assert abs(got.total - want) <= 1e-15 * want
    # hand arithmetic: (d/2) [(100+100)/300^2 + 0.25*160000*0.01/300^2] = 1/300
    assert abs(got.total - 1.0 / 300.0) <= 1e-12
    for n0, n1, w, t, d in [(50, 10, 0.2, 0.0, 1), (1000, 2000, 1.5, 0.004, 7),
                            (3, 1, 2.0, 1.3, 2), (800, 0, 0.9, 0.1, 4)]:
        got = predict_kl_single(n0, n1, w, t, d)
        want = predicted_single_oracle(n0, n1, w, t, d)
        assert abs(got.total - want) <= 1e-15 * max(1.0, want)
        assert got.variance_term >= 0 and got.bias_term >= 0
        assert abs(got.total - 0.5 * d * (got.variance_term + got.bias_term)) \
            <= 1e-18


def test_single_source_prediction_rejects_bad_inputs():
    for bad in [(0, 1, 0.5, 0.1, 1), (10, -1, 0.5, 0.1, 1),
                (10, 1, -0.5, 0.1, 1), (10, 1, 0.5, -0.1, 1),
                (10, 1, 0.5, 0.1, 0)]:
        with pytest.raises(ValueError):
            predict_kl_single(*bad)


def test_multi_source_prediction_transcription(rng):
    # all weights zero: back to d / (2 N0)
    z = predict_kl_multi(700, np.array([10.0, 20.0]), np.zeros(2),
                         np.eye(2), 3)
    assert z.total == 3.0 / (2 * 700)
    assert z.bias_term == 0.0

    for _ in range(25):
        k = int(rng.integers(1, 5))
        m = rand_psd(rng, k) + np.diag(rng.uniform(0.01, 0.1, k))
        budgets = rng.integers(50, 3000, k).astype(float)
        weights = rng.uniform(0.0, 2.0, k)
        d = int(rng.integers(1, 6))
        n0 = int(rng.integers(100, 5000))
        got = predict_kl_multi(n0, budgets, weights, m, d)
        b = weights * budgets
        s = b.sum()
        alpha = b / s
        t = float(alpha @ m @ alpha)
        want = predicted_multi_oracle(n0, s, t, d)
        assert abs(got.total - want) <= 1e-14 * max(1.0, want)


def test_multi_reduces_to_single_for_one_source(rng):
    """With M = [[t + 1/N1]] the two prediction routes agree on a dense
    weight grid to 1e-12, for random scales."""
    for _ in range(10):
        t_ss = float(rng.uniform(0.0, 0.05))
        n0 = int(rng.integers(50, 5000))
        n1 = int(rng.integers(10, 4000))
        d = int(rng.integers(1, 8))
        m = np.array([[t_ss + 1.0 / n1]])
        for w in np.linspace(0.0, 3.0, 100):
            single = predict_kl_single(n0, n1, w, t_ss, d).total
            multi = predict_kl_multi(n0, np.array([float(n1)]),
                                     np.array([w]), m, d).total
            assert abs(single - multi) <= 1e-12


def test_more_data_never_hurts_at_the_optimal_weight():
    # strictly decreasing over n = 1..10000 when the weight tracks n
    n0, t, d = 1000, 0.003, 2
    vals = np.array([composed_quantity_objective(n0, n, t, d)
                     for n in range(1, 10_001)])
    assert np.all(np.diff(vals) < -1e-12)
    # pooling case t = 0 decreases too
    vals0 = np.array([composed_quantity_objective(n0, n, 0.0, d)
                      for n in range(1, 2_001)])
    assert np.all(np.diff(vals0) < 0)


def test_mc_matches_pooling_closed_form(gauss1):
    """Homogeneous sources at weight 1 are just extra target samples, so
    the measured mean must sit within 3 standard errors of d/(2(N0+n))."""
    fam = gauss1
    th0 = np.array([0.7])
    ens = TaskEnsemble(fam, th0, 400, [th0.copy()], np.array([600]))
    est = mc_expected_kl(fam, ens, PlanView(np.array([1.0]), np.array([600])),
                         800, 99)
    want = 1.0 / (2 * 1000)
    assert abs(est.mean - want) <= 3.0 * est.std_error
    assert est.trials == 800 and est.master_seed == 99


def test_mc_categorical_at_planned_weight(cat3):
    ens = generate_ensemble(cat3, np.array([0.3, 0.4]), 2000,
                            [(2.0, 2000, 0)], 55)
    t = None
    from transferopt.harness import source_scalars
    from transferopt.planner import single_source_weight
    t = float(source_scalars(ens)[0])
    w = single_source_weight(t, 2000)
    est = mc_expected_kl(cat3, ens, PlanView(np.array([w]), np.array([2000])),
                         800, 56)
    pred = predict_kl_single(2000, 2000, w, t, cat3.dim).total
    assert abs(est.mean - pred) <= 3.0 * est.std_error + 0.15 * pred


def test_mc_is_deterministic_and_thread_invariant(cat3):
    ens = generate_ensemble(cat3, np.array([0.3, 0.4]), 150,
                            [(1.0, 200, 0)], 7)
    plan = PlanView(np.array([0.6]), np.array([200]))
    a = mc_expected_kl(cat3, ens, plan, 2, 42)
    b = mc_expected_kl(cat3, ens, plan, 2, 42)
    assert (a.mean, a.std_error) == (b.mean, b.std_error)
    c = mc_expected_kl(cat3, ens, plan, 50, 42)
    e = mc_expected_kl(cat3, ens, plan, 50, 43)
    assert e.mean != c.mean
    # the same trials under a different prefix form a different stream
    f = mc_expected_kl(cat3, ens, plan, 50, 42, seed_prefix=(1,))
    assert f.mean != c.mean


def test_mc_propagates_trial_failures(cat3):
    ens = generate_ensemble(cat3, np.array([0.3, 0.4]), 100,
                            [(0.5, 100, 0)], 3)
    bad = PlanView(np.array([0.5]), np.array([-5]))
    with pytest.raises(ValueError, match="trial 0"):
        mc_expected_kl(cat3, ens, bad, 4, 11)
    with pytest.raises(ValueError):
        mc_expected_kl(cat3, ens, PlanView(np.array([0.5]), np.array([100])),
                       1, 11)  # a single trial has no standard error


class _TwoArgError(ValueError):
    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")
        self.where = where


@pytest.mark.parametrize("make_error", [
    lambda: ConvergenceError("no convergence", last_iterate=np.array([0.1, 0.2]),
                             residual=0.5),
    lambda: _TwoArgError("bad fit", "block 1"),
], ids=["convergence-error", "two-argument-error"])
def test_mc_trial_failure_reraises_the_same_exception(cat3, monkeypatch,
                                                      make_error):
    ens = generate_ensemble(cat3, np.array([0.3, 0.4]), 100,
                            [(0.5, 100, 0)], 3)
    plan = PlanView(np.array([0.5]), np.array([100]))
    error = make_error()
    message = str(error)
    calls = []

    def fit_fails_on_third_trial(family, data, opts=None):
        calls.append(None)
        if len(calls) == 3:
            raise error
        return np.array([0.3, 0.4])

    monkeypatch.setattr("transferopt.kl.fit_weighted_mle",
                        fit_fails_on_third_trial)
    with pytest.raises(type(error)) as info:
        mc_expected_kl(cat3, ens, plan, 4, 11)
    err = info.value
    assert err is error
    assert err.trial == 2
    assert str(err) == f"trial 2: {message}"
    if isinstance(err, ConvergenceError):
        assert err.last_iterate.tolist() == [0.1, 0.2]
        assert err.residual == 0.5
    else:
        assert err.where == "block 1"


_CAT3 = {"name": "categorical", "params": {"num_outcomes": 3}}


@pytest.mark.parametrize("check, config", [
    ("estimator-mean", {"family": _CAT3, "target_params": [0.3, 0.4],
                        "n_target": 100, "weights": [0.5], "trials": 4,
                        "sources": [{"params": [0.32, 0.38], "budget": 100}]}),
    ("kl-mse-bridge", {"family": _CAT3, "target_params": [0.3, 0.4],
                       "n_target": 100, "trials": 4}),
], ids=["estimator-mean", "kl-mse-bridge"])
def test_check_trial_failure_reraises_the_same_exception(monkeypatch, check,
                                                         config):
    error = ConvergenceError("no convergence", last_iterate=np.array([0.1, 0.2]),
                             residual=0.5)
    calls = []

    def fit_fails_on_third_trial(family, data, opts=None):
        calls.append(None)
        if len(calls) == 3:
            raise error
        return np.array([0.3, 0.4])

    monkeypatch.setattr("transferopt.kl.fit_weighted_mle",
                        fit_fails_on_third_trial)
    with pytest.raises(ConvergenceError) as info:
        verify_claim(check, config, 11)
    err = info.value
    assert err is error
    assert err.trial == 2
    assert str(err) == "trial 2: no convergence"
    assert err.last_iterate.tolist() == [0.1, 0.2]
    assert err.residual == 0.5


def test_bridge_exact_cases(cat3):
    th0 = np.array([0.3, 0.4])
    lhs, rhs = mse_kl_bridge(cat3, th0, [th0.copy(), th0.copy()])
    assert lhs == 0.0 and rhs == 0.0

    e = np.array([0.32, 0.38])
    lhs, rhs = mse_kl_bridge(cat3, th0, [e, e])
    assert abs(lhs - kl_exact(cat3, th0, e)) <= 1e-15
    from transferopt import analytic_fisher
    j = analytic_fisher(cat3, th0)
    want = 0.5 * float((e - th0) @ j @ (e - th0))
    assert abs(rhs - want) <= 1e-15

    with pytest.raises(ValueError):
        mse_kl_bridge(cat3, th0, [e])


def test_bridge_holds_at_moderate_scale(cat3):
    """At N0 = 2000 the mean divergence and half the Fisher-weighted second
    moment agree within 10 percent over 1200 seeded fits."""
    from transferopt import WeightedDataset, fit_weighted_mle
    from transferopt.rng import derive_rng

    th0 = np.array([0.3, 0.4])
    ests = []
    for tr in range(1200):
        r = derive_rng(17, tr)
        ests.append(fit_weighted_mle(cat3, WeightedDataset(
            cat3.sample(th0, 2000, r), [])))
    lhs, rhs = mse_kl_bridge(cat3, th0, ests)
    assert abs(lhs - rhs) <= 0.10 * lhs


def test_prediction_dataclass_shape():
    p = predict_kl_single(100, 50, 0.5, 0.01, 2)
    assert isinstance(p, KlPrediction)
    assert p.total == 0.5 * 2 * (p.variance_term + p.bias_term)
