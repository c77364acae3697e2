"""The generalization measure: exact divergences, asymptotic predictions
against independent transcriptions, the Monte Carlo oracle, and the bridge
to Fisher-weighted squared error."""

import math

import numpy as np
import pytest

from transferopt import (
    analytic_fisher,
    build_qp_matrix,
    get_family,
    kl_exact,
    mc_expected_kl,
    mse_kl_bridge,
    optimal_plan,
    predict_kl_multi,
    predict_kl_single,
)
import transferopt.kl
import transferopt.weighted_mle
from transferopt.config import build_ensemble, verify_claim
from transferopt.errors import (ConvergenceError, ParameterError,
                                UnsupportedFamilyError)
from transferopt.families import Categorical
from transferopt.harness import TaskEnsemble
from transferopt.kl import KlPrediction, mc_fits
from transferopt.planner import composed_quantity_objective

from helpers import (active_set_oracle, predicted_multi_oracle,
                     predicted_single_oracle, rand_psd, sampled_fits)


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


def test_divergence_needs_a_closed_form(softmax23):
    # a Monte Carlo estimate refuses softmax in mc_fits; a direct call
    # refuses it here
    with pytest.raises(UnsupportedFamilyError, match="no closed-form "
                       "divergence for family 'softmax_regression'"):
        kl_exact(softmax23, np.zeros(6), np.zeros(6))


def test_divergence_known_values(cat2, gauss1):
    assert kl_exact(gauss1, np.array([0.0]), np.array([1.0])) == 0.5
    got = kl_exact(cat2, np.array([0.5]), np.array([0.25]))
    want = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
    assert abs(got - want) <= 1e-15
    assert abs(got - 0.14384103622589045) <= 1e-12


def _divergence_stack(family, rows, boundary, rng):
    """A target and ``rows`` stacked parameter vectors of ``family``;
    ``boundary`` puts the categorical target's first outcome at zero."""
    if isinstance(family, Categorical):
        m = family.num_outcomes
        target = rng.dirichlet(np.ones(m))
        if boundary:
            target[0] = 0.0
            target /= target.sum()
        # mixed with the uniform distribution: every row stays interior
        stack = 0.8 * rng.dirichlet(np.ones(m), size=rows) + 0.2 / m
        return target[:-1], stack[:, :-1]
    return rng.standard_normal(family.dim), rng.standard_normal((rows, family.dim))


_DIVERGENCE_CASES = (
    [("categorical", {"num_outcomes": m}, boundary)
     for m in (2, 3, 5) for boundary in (False, True)]
    + [("gaussian_iso", {"dim": d}, False) for d in range(1, 9)])


@pytest.mark.parametrize("rows", [1, 2000])
@pytest.mark.parametrize("name, params, boundary", _DIVERGENCE_CASES,
                         ids=[f"{n}-{next(iter(p.values()))}"
                              f"{'-boundary' if b else ''}"
                              for n, p, b in _DIVERGENCE_CASES])
def test_stacked_divergence_equals_per_row_divergence(name, params, boundary,
                                                      rows, rng):
    """A (T, d) stack gives, bit for bit, the divergence of each row taken
    alone, and a single row still gives a Python float."""
    family = get_family(name, params)
    target, stack = _divergence_stack(family, rows, boundary, rng)
    got = kl_exact(family, target, stack)
    want = [kl_exact(family, target, row) for row in stack]
    assert all(type(v) is float for v in want)
    assert got.shape == (rows,)
    assert got.tolist() == want
    assert np.isfinite(got).all()


@pytest.mark.parametrize("name, params", [
    ("categorical", {"num_outcomes": 3}), ("gaussian_iso", {"dim": 2})])
def test_stacked_divergence_rejects_bad_rows(name, params, rng):
    family = get_family(name, params)
    target, stack = _divergence_stack(family, 8, False, rng)
    bad_rows = [(5, [np.nan, 0.2]), (2, [0.2, np.inf])]
    if isinstance(family, Categorical):
        bad_rows += [(3, [0.7, 0.6]), (6, [-0.1, 0.3])]  # off the simplex
    for row, values in bad_rows:
        bad = stack.copy()
        bad[row] = values
        with pytest.raises(ParameterError) as info:
            kl_exact(family, target, bad)
        assert info.value.row == row
    # the first bad row is the one named
    bad = stack.copy()
    bad[[4, 6]] = [np.nan, 0.2]
    with pytest.raises(ParameterError) as info:
        kl_exact(family, target, bad)
    assert info.value.row == 4
    for shape in [(8, family.dim + 1), (8, family.dim - 1), (2, 8, family.dim)]:
        with pytest.raises(ParameterError, match="shape"):
            kl_exact(family, target, np.full(shape, 0.1))


def test_mc_bad_fit_reraises_as_its_trial(cat3, monkeypatch):
    """Every fit of an estimate is checked in one divergence call; a fit
    off the simplex still fails as its own trial."""
    ens = build_ensemble(cat3, {
        "target_params": [0.3, 0.4], "n_target": 100,
        "sources": [{"c": 0.5, "budget": 100, "direction_seed": 0}],
    }, 3)
    calls = []

    def off_simplex_on_third_trial(counts):
        calls.append(None)
        return np.array([0.7, 0.6] if len(calls) == 3 else [0.3, 0.4])

    monkeypatch.setattr("transferopt.weighted_mle._closed_form_categorical",
                        off_simplex_on_third_trial)
    with pytest.raises(ParameterError) as info:
        mc_expected_kl(ens, [0.5], [100], 5, 11)
    assert info.value.trial == 2
    assert str(info.value).startswith("trial 2: probabilities must stay")
    assert len(calls) == 5


def test_mc_takes_every_divergence_of_an_estimate_in_one_call(cat3,
                                                              monkeypatch):
    """T trials: T streams and T closed-form fits, one divergence call."""
    counts = {"kl": 0, "fit": 0, "rng": 0}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Categorical, "kl_divergence",
                        counted("kl", Categorical.kl_divergence))
    monkeypatch.setattr(
        "transferopt.weighted_mle._closed_form_categorical",
        counted("fit", transferopt.weighted_mle._closed_form_categorical))
    monkeypatch.setattr("transferopt.kl.derive_rng",
                        counted("rng", transferopt.kl.derive_rng))
    ens = build_ensemble(cat3, {
        "target_params": [0.3, 0.4], "n_target": 100,
        "sources": [{"c": 0.5, "budget": 100, "direction_seed": 0}],
    }, 3)
    est = mc_expected_kl(ens, [0.5], [100], 37, 11)
    assert est.trials == 37
    assert counts == {"kl": 1, "fit": 37, "rng": 37}


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
    z = predict_kl_multi(700, weights=np.zeros(2),
                         quantities=np.array([10.0, 20.0]), gram=np.eye(2),
                         d=3)
    assert z.total == 3.0 / (2 * 700)
    assert z.bias_term == 0.0

    for _ in range(25):
        k = int(rng.integers(1, 5))
        gram = rand_psd(rng, k) + np.diag(rng.uniform(0.01, 0.1, k))
        budgets = rng.integers(50, 3000, k).astype(float)
        weights = rng.uniform(0.0, 2.0, k)
        d = int(rng.integers(1, 6))
        n0 = int(rng.integers(100, 5000))
        got = predict_kl_multi(n0, weights=weights, quantities=budgets,
                               gram=gram, d=d)
        m = (np.diag(d / budgets) + gram) / d
        b = weights * budgets
        s = b.sum()
        alpha = b / s
        t = float(alpha @ m @ alpha)
        want = predicted_multi_oracle(n0, s, t, d)
        assert abs(got.total - want) <= 1e-14 * max(1.0, want)


def test_multi_reduces_to_single_for_one_source(rng):
    """With gram [[d t]] the two prediction routes agree on a dense
    weight grid to 1e-12, for random scales."""
    for _ in range(10):
        t_ss = float(rng.uniform(0.0, 0.05))
        n0 = int(rng.integers(50, 5000))
        n1 = int(rng.integers(10, 4000))
        d = int(rng.integers(1, 8))
        gram = np.array([[d * t_ss]])
        for w in np.linspace(0.0, 3.0, 100):
            single = predict_kl_single(n0, n1, w, t_ss, d).total
            multi = predict_kl_multi(n0, weights=np.array([w]),
                                     quantities=np.array([float(n1)]),
                                     gram=gram, d=d).total
            assert abs(single - multi) <= 1e-12


def test_one_term_split_for_every_source_count(gauss3, rng):
    """Sources on the target add sampling variance only: zero direction
    columns give a bias term of exactly 0, also at the plan. For K = 1 the
    multi-source terms are the single-source ones."""
    fisher = analytic_fisher(gauss3, np.zeros(3))
    budgets = np.array([500.0, 800.0, 1200.0])
    plan = optimal_plan(build_qp_matrix(np.zeros((3, 3)), fisher, budgets, 3),
                        n_target=1000)
    assert plan.predicted_kl.bias_term == 0.0
    assert plan.predicted_kl.variance_term > 0.0
    got = predict_kl_multi(1000, weights=[0.3, 1.0, 2.0], quantities=budgets,
                           gram=np.zeros((3, 3)), d=3)
    assert got.bias_term == 0.0
    for _ in range(50):
        n0 = int(rng.integers(1, 5000))
        n1 = int(rng.integers(0, 5000))
        w = float(rng.uniform(0.0, 3.0))
        t = float(rng.uniform(0.0, 0.05))
        d = int(rng.integers(1, 10))
        single = predict_kl_single(n0, n1, w, t, d)
        multi = predict_kl_multi(n0, weights=[w], quantities=[n1],
                                 gram=[[d * t]], d=d)
        for key in ("variance_term", "bias_term", "total"):
            assert getattr(multi, key) == pytest.approx(
                getattr(single, key), rel=1e-15, abs=0.0)


def test_stacked_predictions_match_the_oracle_row_by_row(rng):
    """An (R, K) stack gives each row's prediction, equal to the masses
    oracle on that row's active set, with idle sources among the rows."""
    for k in (1, 2, 4):
        gram = rand_psd(rng, k) * 0.01
        weights = rng.uniform(0.0, 2.0, (40, k))
        quantities = rng.integers(0, 3000, (40, k)).astype(float)
        weights[rng.random((40, k)) < 0.2] = 0.0
        quantities[rng.random((40, k)) < 0.2] = 0.0
        d = int(rng.integers(1, 6))
        got = predict_kl_multi(700, weights=weights, quantities=quantities,
                               gram=gram, d=d)
        assert got.total.shape == (40,)
        for r in range(40):
            want = active_set_oracle(700, weights[r], quantities[r], gram, d)
            assert got.total[r] == pytest.approx(want, rel=1e-13)
        # a K-vector of quantities broadcasts against the stack of weights
        row = predict_kl_multi(700, weights=weights, quantities=quantities[0],
                               gram=gram, d=d)
        for r in range(40):
            assert row.total[r] == pytest.approx(active_set_oracle(
                700, weights[r], quantities[0], gram, d), rel=1e-13)


def test_idle_source_is_the_same_as_no_source(rng):
    gram = rand_psd(rng, 3) * 0.01
    weights = np.array([0.8, 1.3, 0.4])
    quantities = np.array([400.0, 900.0, 1500.0])
    keep = [0, 2]
    dropped = predict_kl_multi(1000, weights=weights[keep],
                               quantities=quantities[keep],
                               gram=gram[np.ix_(keep, keep)], d=4)
    for w, n in [([0.8, 0.0, 0.4], quantities), (weights, [400.0, 0.0, 1500.0])]:
        idle = predict_kl_multi(1000, weights=w, quantities=n, gram=gram, d=4)
        for key in ("variance_term", "bias_term", "total"):
            assert getattr(idle, key) == pytest.approx(
                getattr(dropped, key), rel=1e-14)


def test_multi_source_prediction_is_keyword_only():
    # an old (budgets, weights, M) call cannot read M as a gram
    with pytest.raises(TypeError):
        predict_kl_multi(700, np.array([10.0, 20.0]), np.ones(2), np.eye(2), 3)
    with pytest.raises(ValueError, match="gram"):
        predict_kl_multi(700, weights=np.ones(2), quantities=np.ones(2),
                         gram=np.eye(3), d=3)
    with pytest.raises(ValueError, match="nonnegative"):
        predict_kl_multi(700, weights=[-1.0], quantities=[5.0],
                         gram=[[0.0]], d=1)


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
    est = mc_expected_kl(ens, [1.0], [600], 800, 99)
    want = 1.0 / (2 * 1000)
    assert abs(est.mean - want) <= 3.0 * est.std_error
    assert est.trials == 800 and est.master_seed == 99


# (family, params, target, sources): one active source, one at zero weight,
# one at zero quantity
@pytest.mark.parametrize("name, params, target, sources", [
    ("categorical", {"num_outcomes": 3}, [0.3, 0.4],
     [([0.4, 0.3], 150, 0.6), ([0.1, 0.1], 80, 0.0), ([0.6, 0.2], 0, 0.8)]),
    ("gaussian_iso", {"dim": 2}, [0.2, -0.1],
     [([0.6, 0.0], 150, 0.6), ([3.0, 3.0], 80, 0.0), ([-1.0, 1.0], 0, 0.8)]),
], ids=["categorical", "gaussian_iso"])
def test_statistic_draws_match_sampled_fits(name, params, target, sources):
    """mc_fits draws each dataset's sufficient statistic; fitting drawn
    samples instead gives the same distribution of estimates. The mean
    divergence and each coordinate of the mean estimate agree within 4
    combined standard errors."""
    family = get_family(name, params)
    target = np.array(target)
    trials = 1500

    def summary(fits):
        divs = np.array([kl_exact(family, target, f) for f in fits])
        cols = [divs] + [fits[:, j] for j in range(family.dim)]
        return [(c.mean(), c.std(ddof=1) / np.sqrt(trials)) for c in cols]

    drawn = summary(mc_fits(family, target, 100, sources, trials, 7))
    sampled = summary(sampled_fits(family, target, 100, sources, trials, 8))
    for (a, se_a), (b, se_b) in zip(drawn, sampled):
        assert abs(a - b) <= 4.0 * math.hypot(se_a, se_b)


def test_mc_categorical_at_planned_weight(cat3):
    ens = build_ensemble(cat3, {
        "target_params": [0.3, 0.4], "n_target": 2000,
        "sources": [{"c": 2.0, "budget": 2000, "direction_seed": 0}],
    }, 55)
    t = None
    from transferopt.harness import source_scalars
    from transferopt.planner import single_source_weight
    t = float(source_scalars(ens)[0])
    w = single_source_weight(t, 2000)
    est = mc_expected_kl(ens, [w], [2000], 800, 56)
    pred = predict_kl_single(2000, 2000, w, t, cat3.dim).total
    assert abs(est.mean - pred) <= 3.0 * est.std_error + 0.15 * pred


def test_mc_is_deterministic_and_thread_invariant(cat3):
    ens = build_ensemble(cat3, {
        "target_params": [0.3, 0.4], "n_target": 150,
        "sources": [{"c": 1.0, "budget": 200, "direction_seed": 0}],
    }, 7)
    a = mc_expected_kl(ens, [0.6], [200], 2, 42)
    b = mc_expected_kl(ens, [0.6], [200], 2, 42)
    assert (a.mean, a.std_error) == (b.mean, b.std_error)
    c = mc_expected_kl(ens, [0.6], [200], 50, 42)
    e = mc_expected_kl(ens, [0.6], [200], 50, 43)
    assert e.mean != c.mean
    # the same trials under a different prefix form a different stream
    f = mc_expected_kl(ens, [0.6], [200], 50, 42, seed_prefix=(1,))
    assert f.mean != c.mean


def test_mc_propagates_trial_failures(cat3):
    ens = build_ensemble(cat3, {
        "target_params": [0.3, 0.4], "n_target": 100,
        "sources": [{"c": 0.5, "budget": 100, "direction_seed": 0}],
    }, 3)
    with pytest.raises(ValueError, match="trial 0"):
        mc_expected_kl(ens, [0.5], [-5], 4, 11)
    with pytest.raises(ValueError):
        mc_expected_kl(ens, [0.5], [100], 1, 11)  # no standard error


@pytest.mark.parametrize("n_target, quantity, message", [
    (100.5, 100, "n_target must be a whole count, got 100.5"),
    (100, 1200.7, "source 0 quantity must be a whole count, got 1200.7"),
    (100, math.inf, "source 0 quantity must be a whole count, got inf"),
    (math.nan, 100, "n_target must be a whole count, got nan"),
], ids=["fractional-target", "fractional-quantity", "inf", "nan"])
def test_mc_rejects_non_whole_counts_before_any_trial(cat3, monkeypatch,
                                                      n_target, quantity,
                                                      message):
    """A count that is not whole was truncated: 1200.7 drew 1200 samples
    while the prediction used 1200.7."""
    streams = []
    monkeypatch.setattr("transferopt.kl.derive_rng",
                        lambda *path: streams.append(path))
    th = np.array([0.3, 0.4])
    with pytest.raises(ValueError, match=message):
        mc_fits(cat3, th, n_target, [(th, quantity, 1.0)], 5, 11)
    assert streams == []


def test_mc_takes_whole_float_counts(cat3):
    th = np.array([0.3, 0.4])
    assert np.array_equal(mc_fits(cat3, th, 100.0, [(th, 200.0, 0.5)], 3, 11),
                          mc_fits(cat3, th, 100, [(th, 200, 0.5)], 3, 11))


def test_a_bad_seed_is_not_blamed_on_a_trial(cat3):
    """The seed was first checked inside trial 0's own ``try``, so the
    error read ``trial 0: ...`` and carried ``trial`` 0."""
    with pytest.raises(ValueError, match=r"^rng path elements must be whole "
                                         r"numbers, got 3.9$") as info:
        mc_fits(cat3, [0.3, 0.4], 10, [], 3, 3.9)
    assert not hasattr(info.value, "trial")


@pytest.mark.parametrize("weight", [-1.0, math.nan, math.inf])
def test_mc_weights_follow_the_fit_weight_rule(cat3, monkeypatch, weight):
    """-1 and nan were skipped like a zero weight, so the estimate was
    exactly the zero-weight one, and inf failed as ``trial 0``; the
    weighted MLE rejects all three, and so does the estimate, before any
    trial."""
    ens = build_ensemble(cat3, {
        "target_params": [0.3, 0.4], "n_target": 100,
        "sources": [{"c": 0.5, "budget": 50, "direction_seed": 0},
                    {"c": 1.5, "budget": 50, "direction_seed": 1}],
    }, 4)
    streams = []
    monkeypatch.setattr("transferopt.kl.derive_rng",
                        lambda *path: streams.append(path))
    with pytest.raises(ValueError, match="^source weights must be finite and "
                                         "nonnegative$") as info:
        mc_expected_kl(ens, [weight, 0.0], [50, 50], 20, 7)
    assert not hasattr(info.value, "trial")
    assert streams == []


@pytest.mark.parametrize("weights, quantities", [
    ([0.5], [100, 200]),
    ([0.5, 0.2, 0.9], [100, 200]),
    ([0.5, 0.2], [100]),
    ([0.5, 0.2], [100, 200, 300]),
], ids=["one-weight", "three-weights", "one-quantity", "three-quantities"])
def test_mc_needs_one_weight_and_quantity_per_source(cat3, monkeypatch,
                                                     weights, quantities):
    """zip would pair a short plan with the first sources and drop the
    rest, or ignore a surplus entry; neither may reach a trial."""
    ens = build_ensemble(cat3, {
        "target_params": [0.3, 0.4], "n_target": 100,
        "sources": [{"c": 0.5, "budget": 100, "direction_seed": 0},
                    {"c": 1.5, "budget": 200, "direction_seed": 1}],
    }, 4)
    trials = []
    monkeypatch.setattr("transferopt.kl.mc_fits",
                        lambda *args: trials.append(args))
    with pytest.raises(ValueError, match="one weight and one quantity"):
        mc_expected_kl(ens, weights, quantities, 20, 4)
    assert trials == []


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
    ens = build_ensemble(cat3, {
        "target_params": [0.3, 0.4], "n_target": 100,
        "sources": [{"c": 0.5, "budget": 100, "direction_seed": 0}],
    }, 3)
    error = make_error()
    message = str(error)
    calls = []

    def fit_fails_on_third_trial(counts):
        calls.append(None)
        if len(calls) == 3:
            raise error
        return np.array([0.3, 0.4])

    monkeypatch.setattr("transferopt.weighted_mle._closed_form_categorical",
                        fit_fails_on_third_trial)
    with pytest.raises(type(error)) as info:
        mc_expected_kl(ens, [0.5], [100], 4, 11)
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

    def fit_fails_on_third_trial(counts):
        calls.append(None)
        if len(calls) == 3:
            raise error
        return np.array([0.3, 0.4])

    monkeypatch.setattr("transferopt.weighted_mle._closed_form_categorical",
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
    lhs, rhs = mse_kl_bridge(cat3, th0, [th0.copy(), th0.copy()], [0.0, 0.0])
    assert lhs == 0.0 and rhs == 0.0

    e = np.array([0.32, 0.38])
    div = kl_exact(cat3, th0, e)
    lhs, rhs = mse_kl_bridge(cat3, th0, [e, e], [div, div])
    assert abs(lhs - kl_exact(cat3, th0, e)) <= 1e-15
    from transferopt import analytic_fisher
    j = analytic_fisher(cat3, th0)
    want = 0.5 * float((e - th0) @ j @ (e - th0))
    assert abs(rhs - want) <= 1e-15

    with pytest.raises(ValueError):
        mse_kl_bridge(cat3, th0, [e], [div])
    # estimates one column short of d = 2 must not broadcast against th0
    with pytest.raises(ValueError, match=r"\(n, 2\).*\(2, 1\)"):
        mse_kl_bridge(cat3, th0, [[0.3], [0.3]], [div, div])
    with pytest.raises(ValueError, match="shape"):
        mse_kl_bridge(cat3, th0, np.full((2, 2, 1), 0.3), [div, div])
    with pytest.raises(ValueError, match="one divergence per estimate"):
        mse_kl_bridge(cat3, th0, [e, e], [div])


def test_bridge_holds_at_moderate_scale(cat3):
    """At N0 = 2000 the mean divergence and half the Fisher-weighted second
    moment agree within 10 percent over 1200 seeded fits."""
    from transferopt import fit_weighted_mle
    from transferopt.rng import derive_rng

    th0 = np.array([0.3, 0.4])
    ests = []
    for tr in range(1200):
        r = derive_rng(17, tr)
        ests.append(fit_weighted_mle(cat3, cat3.sample(th0, 2000, r)))
    lhs, rhs = mse_kl_bridge(cat3, th0, ests,
                             [kl_exact(cat3, th0, e) for e in ests])
    assert abs(lhs - rhs) <= 0.10 * lhs


def test_prediction_dataclass_shape():
    p = predict_kl_single(100, 50, 0.5, 0.01, 2)
    assert isinstance(p, KlPrediction)
    assert p.total == 0.5 * 2 * (p.variance_term + p.bias_term)
