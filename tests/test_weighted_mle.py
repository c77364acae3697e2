"""Weighted maximum likelihood: closed forms, iterative agreement, the
mixture interpretation, the estimator's exact mean, and Newton's line
search."""

import json

import numpy as np
import pytest

from transferopt import (ConvergenceError, ParameterError,
                         UnsupportedFamilyError, fit_weighted_mle, get_family)
from transferopt import weighted_mle
from transferopt.cli import main
from transferopt.families import SoftmaxRegression
from transferopt.rng import derive_rng
from transferopt.trainer import weighted_loss_gradient
from transferopt.weighted_mle import weighted_loglik, weighted_loglik_grad

from helpers import fd_gradient, weighted_loglik_oracle


def test_binary_half_weight_counts(cat2):
    # target counts (2,1), source (0,2) at weight 0.5 -> pooled (2,2)
    theta = fit_weighted_mle(cat2, np.array([0, 0, 1]), [np.array([1, 1])],
                             [0.5])
    assert theta.shape == (1,)
    assert theta[0] == 0.5


def test_zero_weights_reduce_to_target_mle(cat3, gauss3):
    xs = np.array([0, 1, 1, 2, 0, 0])
    assert np.array_equal(
        fit_weighted_mle(cat3, xs, [np.array([2, 2, 2, 2])], [0.0]),
        fit_weighted_mle(cat3, xs))

    ys = gauss3.sample(np.array([1.0, 0.0, -1.0]), 30, 4)
    zs = gauss3.sample(np.array([5.0, 5.0, 5.0]), 30, 5)
    assert np.array_equal(
        fit_weighted_mle(gauss3, ys, [zs], [0.0]),
        fit_weighted_mle(gauss3, ys))


def test_gaussian_weighted_mean(gauss3):
    target = gauss3.sample(np.zeros(3), 20, 1)
    s1 = gauss3.sample(np.ones(3), 35, 2)
    s2 = gauss3.sample(-np.ones(3), 15, 3)
    w1, w2 = 0.8, 0.3
    want = ((target.sum(axis=0) + w1 * s1.sum(axis=0) + w2 * s2.sum(axis=0))
            / (20 + w1 * 35 + w2 * 15))
    got = fit_weighted_mle(gauss3, target, [s1, s2], [w1, w2])
    assert np.max(np.abs(got - want)) <= 1e-10


def test_newton_agrees_with_closed_form(cat3, gauss3, rng):
    xs = cat3.sample(np.array([0.25, 0.45]), 60, 8)
    src = cat3.sample(np.array([0.5, 0.2]), 80, 9)
    closed = fit_weighted_mle(cat3, xs, [src], [0.6])
    newton = weighted_mle._newton(cat3, xs, [src], [0.6], 0.0)
    assert np.linalg.norm(closed - newton) <= 1e-8

    ys = gauss3.sample(np.array([0.2, -0.4, 1.0]), 25, 10)
    src_g = gauss3.sample(np.array([1.2, 0.1, 0.0]), 40, 11)
    closed_g = fit_weighted_mle(gauss3, ys, [src_g], [1.3])
    newton_g = weighted_mle._newton(gauss3, ys, [src_g], [1.3], 0.0)
    assert np.linalg.norm(closed_g - newton_g) <= 1e-8


def test_weight_scaling_matches_duplication(cat3):
    """Multiplying a block's weight by an integer k equals handing the
    estimator k copies of the block, exactly (counts are linear)."""
    target = np.array([0, 1, 2, 0, 1, 0])
    src = np.array([2, 2, 1, 0, 2])
    w = 0.5
    scaled = fit_weighted_mle(cat3, target, [src], [4 * w])
    duplicated = fit_weighted_mle(cat3, target, [np.tile(src, 4)], [w])
    assert np.array_equal(scaled, duplicated)


def test_single_source_interpolation_is_monotone(cat3):
    # target leans on outcome 0, source on outcome 2; every coordinate of
    # the fit should move one way as the weight grows
    target = np.array([0] * 6 + [1] * 2 + [2] * 2)
    src = np.array([2] * 7 + [1] * 2 + [0] * 1)
    grid = np.concatenate([[0.0], np.logspace(-3, 6, 40)])
    fits = np.array([
        fit_weighted_mle(cat3, target, [src], [w]) for w in grid
    ])
    target_emp = np.array([0.6, 0.2])
    source_emp = np.array([0.1, 0.2])
    assert np.max(np.abs(fits[0] - target_emp)) <= 1e-15
    assert np.max(np.abs(fits[-1] - source_emp)) <= 1e-6  # w = 1e6
    diffs = np.diff(fits, axis=0)
    for j in range(2):
        direction = np.sign(source_emp[j] - target_emp[j])
        assert np.all(direction * diffs[:, j] >= -1e-15)


def test_estimator_mean_is_the_weighted_mixture(cat3):
    """Over 2000 seeded trials the estimator's mean lands within 3 standard
    errors of (N0 th0 + w n1 th1) / (N0 + w n1), coordinate by coordinate."""
    th0 = np.array([0.3, 0.4])
    n0, n1, w, c = 200, 300, 0.7, 1.0
    u = np.array([0.8, -0.6])
    th1 = th0 + (c / np.sqrt(n0)) * u
    cat3.validate(th1)

    trials = 2000
    fits = np.empty((trials, 2))
    for tr in range(trials):
        r = derive_rng(123, tr)
        target = cat3.sample(th0, n0, r)
        fits[tr] = fit_weighted_mle(cat3, target, [cat3.sample(th1, n1, r)],
                                    [w])

    expected = (n0 * th0 + w * n1 * th1) / (n0 + w * n1)
    mean = fits.mean(axis=0)
    se = fits.std(axis=0, ddof=1) / np.sqrt(trials)
    assert np.all(np.abs(mean - expected) <= 3.0 * se)


def test_fit_agrees_with_mixture_probabilities(cat3):
    # the weighted MLE is the mixture's probability vector
    target = np.array([0, 1, 1, 2, 2, 2])
    src = np.array([0, 0, 1])
    theta = fit_weighted_mle(cat3, target, [src], [1.7])
    # target empirical (1, 2, 3)/6 at mass 6, source (2, 1, 0)/3 at 1.7 * 3
    mixture = (6.0 * np.array([1, 2, 3]) / 6.0
               + 5.1 * np.array([2, 1, 0]) / 3.0) / 11.1
    assert np.max(np.abs(theta - mixture[:-1])) <= 1e-12


def test_convergence_failure_carries_state(softmax23, rng, monkeypatch):
    data = softmax23.sample(rng.standard_normal(6), 40, 2)
    monkeypatch.setattr(weighted_mle, "NEWTON_MAX_ITER", 1)
    with pytest.raises(ConvergenceError) as exc:
        fit_weighted_mle(softmax23, data)
    err = exc.value
    assert err.last_iterate is not None and err.last_iterate.shape == (6,)
    assert err.residual > 0


def test_loglik_gradient_matches_finite_differences(softmax23, rng):
    theta = rng.standard_normal(6) * 0.4
    data = (softmax23.sample(theta, 15, 3),
            [softmax23.sample(theta + 0.2, 10, 4)], [0.9])
    g = weighted_loglik_grad(softmax23, theta, *data, ridge=0.05)
    fd = fd_gradient(
        lambda th: weighted_loglik_oracle(softmax23, th, *data, ridge=0.05),
        theta)
    assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))


def test_sufficient_statistics_need_a_closed_form_family(softmax23):
    with pytest.raises(UnsupportedFamilyError, match="softmax_regression"):
        weighted_mle.fit_sufficient(softmax23, [(np.zeros(6), 10, 1.0)])


def test_empty_target_rejected(cat3):
    with pytest.raises(ValueError):
        fit_weighted_mle(cat3, np.array([], dtype=int))
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            fit_weighted_mle(cat3, np.array([0, 1]), [np.array([0])], [bad])


@pytest.mark.parametrize("ridge", [0.0, 1e-6])
def test_softmax_fit_above_dimension_200_converges(ridge):
    # d = 225: every fit without a closed form is Newton, at any dimension
    family = SoftmaxRegression(25, 9)
    theta = 0.1 * derive_rng(31, 0).standard_normal(family.dim)
    data = family.sample(theta, 600, derive_rng(31, 1))
    fit = fit_weighted_mle(family, data, ridge=ridge)
    assert np.linalg.norm(
        weighted_loglik_grad(family, fit, data, ridge=ridge)) <= 1e-10


_FAMILIES = {
    "categorical": ("categorical", {"num_outcomes": 3}, [0.3, 0.45]),
    "gaussian_iso": ("gaussian_iso", {"dim": 2}, [0.4, -0.7]),
    "softmax_regression": ("softmax_regression",
                           {"feature_dim": 2, "num_classes": 3},
                           [0.5, -0.2, 0.1, 0.3, -0.4, 0.6]),
}


@pytest.mark.parametrize("case", list(_FAMILIES))
def test_weighted_loglik_matches_the_oracle(case):
    """The one block sum against the per-sample oracle, with a zero-weight
    block in the middle: equal value, and the score sum equals the oracle's
    finite-difference gradient."""
    name, params, theta = _FAMILIES[case]
    family = get_family(name, params)
    theta = np.asarray(theta)
    target = family.sample(theta, 30, derive_rng(41, 0))
    sources = [family.sample(theta, n, derive_rng(41, k + 1))
               for k, n in enumerate((20, 15, 25))]
    weights = [0.7, 0.0, 1.9]
    loglik, score = weighted_loglik(family, theta, target, sources, weights)
    want = weighted_loglik_oracle(family, theta, target, sources, weights)
    assert abs(loglik - want) <= 1e-12 * abs(want)
    assert score.shape == (family.dim,)
    # categorical's fd steps stay inside the simplex at h = 1e-5
    fd = fd_gradient(lambda th: weighted_loglik_oracle(
        family, th, target, sources, weights), theta)
    assert np.linalg.norm(score - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))
    # dropping the zero-weight block changes no bit
    alive = weighted_loglik(family, theta, target, [sources[0], sources[2]],
                            [0.7, 1.9])
    assert loglik == alive[0] and np.array_equal(score, alive[1])


@pytest.mark.parametrize("weights", [[], [0.5], [0.5, 0.5, 0.5],
                                     [[0.5, 0.5]]],
                         ids=["none", "one", "three", "nested"])
def test_one_weight_per_source_block(cat3, weights):
    """Two source blocks with any other number of weights were summed over
    the shorter of the two lists; the trainer's loss still divided by
    both blocks' samples (0.619 for two blocks and one weight)."""
    theta = np.array([0.3, 0.4])
    target, src = np.array([0, 1]), np.array([2, 2, 0])
    calls = [lambda: fit_weighted_mle(cat3, target, [src, src], weights),
             lambda: weighted_loglik(cat3, theta, target, [src, src], weights),
             lambda: weighted_loss_gradient(cat3, theta, target, [src, src],
                                            weights)]
    for call in calls:
        with pytest.raises(ValueError, match="one weight per source block"):
            call()


def _outcomes(counts):
    return np.repeat(np.arange(len(counts)), counts)


def _ridge_fit(family, xs, monkeypatch):
    """A ridge-1e-3 fit, with Newton capped at 100 iterations so that a
    search that creeps fails fast."""
    monkeypatch.setattr(weighted_mle, "NEWTON_MAX_ITER", 100)
    return fit_weighted_mle(family, xs, ridge=1e-3)


def test_a_fit_at_its_rounding_floor_returns(cat3, monkeypatch):
    """The optimum is reached in 8 iterations, where the 1/p terms leave a
    gradient norm of 1.04e-9, above NEWTON_TOL: no halving lowers it, and
    a step of 9e-13 used to repeat until the iteration cap."""
    xs = _outcomes([5000, 1, 1])
    theta = _ridge_fit(cat3, xs, monkeypatch)
    g0 = weighted_loglik_grad(cat3, weighted_mle.search_start(cat3), xs,
                              ridge=1e-3)
    g = weighted_loglik_grad(cat3, theta, xs, ridge=1e-3)
    assert np.linalg.norm(g) <= weighted_mle.NEWTON_TOL * np.linalg.norm(g0)


def test_a_line_search_stalled_above_its_floor_raises(cat3, monkeypatch):
    """Counts [3, 0, 0] put the optimum on the simplex's floor: every step
    toward it leaves the family, so the search stops at once."""
    with pytest.raises(ConvergenceError, match="line search stalled"):
        _ridge_fit(cat3, _outcomes([3, 0, 0]), monkeypatch)


def test_newton_halves_a_step_that_leaves_the_simplex(cat3, monkeypatch):
    """Two candidates leave the simplex and are halved back inside it."""
    rejected, family_validate = [], cat3.validate

    def validate(theta, *args):
        try:
            return family_validate(theta, *args)
        except ParameterError:
            rejected.append(theta)
            raise
    monkeypatch.setattr(cat3, "validate", validate)
    theta = _ridge_fit(cat3, _outcomes([1000, 1, 1]), monkeypatch)
    assert len(rejected) == 2
    assert theta.tolist() == [0.998003988049785, 0.0009980059741134994]


def test_train_on_a_source_at_its_rounding_floor_exits_0(tmp_path,
                                                         monkeypatch):
    """Pretraining this source's ridge fit used to creep for 98 s, then
    exit 3 with no convergence."""
    monkeypatch.setattr(weighted_mle, "NEWTON_MAX_ITER", 100)
    config = {"mode": "multi_source",
              "family": {"name": "categorical",
                         "params": {"num_outcomes": 3}},
              "target": {"params": [0.3, 0.4], "n": 100},
              "sources": [{"params": [0.999, 0.0005], "n": 5000}],
              "train": {"learning_rate": 0.001, "epochs": 2},
              "pretrain_ridge": 0.001, "seed": 0}
    path = tmp_path / "train.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["train", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 0


def test_a_singular_hessian_steps_along_the_gradient(cat3):
    """Every sample on outcome 2 leaves a rank-one Hessian at zero ridge:
    Newton steps along the gradient toward that vertex, whose optimum lies
    off the family, until no valid step lowers the gradient norm."""
    with pytest.raises(ConvergenceError, match="line search stalled") as exc:
        weighted_mle._newton(cat3, np.array([2, 2, 2]), [], [], 0.0)
    assert exc.value.last_iterate.sum() < 0.1
