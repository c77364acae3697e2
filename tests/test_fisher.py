"""Information matrices: analytic forms, empirical estimates, and the
projected gram path used when the dimension is too large to densify."""

import numpy as np
import pytest

from transferopt import (
    UnsupportedFamilyError,
    analytic_fisher,
    empirical_fisher,
    get_family,
    projected_gram,
)


def test_gaussian_information_is_identity(gauss3):
    j = analytic_fisher(gauss3, np.zeros(3))
    assert np.array_equal(j, np.eye(3))


def test_bernoulli_information(cat2):
    j = analytic_fisher(cat2, np.array([0.5]))
    # 1/p + 1/(1-p) = 4 at p = 1/2
    assert np.allclose(j, [[4.0]], atol=1e-12)


def test_analytic_vs_empirical_categorical(cat3):
    theta = np.array([0.2, 0.3])
    xs = cat3.sample(theta, 1_000_000, 31)
    emp = empirical_fisher(cat3, theta, xs)
    ana = analytic_fisher(cat3, theta)
    assert np.max(np.abs(emp - ana) / np.abs(ana)) <= 0.02


def test_empirical_zero_score_sample(gauss3):
    # the single observation sits at the mean, so the score vanishes
    xs = np.zeros((1, 3))
    assert np.array_equal(empirical_fisher(gauss3, np.zeros(3), xs),
                          np.zeros((3, 3)))


def test_empirical_identical_scores_rank_one(cat3):
    theta = np.array([0.25, 0.25])
    xs = np.zeros(7, dtype=int)  # every sample is outcome 0
    g = cat3.score_batch(theta, [0])[0]
    assert np.array_equal(empirical_fisher(cat3, theta, xs),
                          np.outer(g, g))


def test_empirical_converges_to_analytic(cat3):
    theta = np.array([0.35, 0.15])
    xs = cat3.sample(theta, 100_000, 32)
    emp = empirical_fisher(cat3, theta, xs)
    ana = analytic_fisher(cat3, theta)
    assert np.max(np.abs(emp - ana)) <= 0.05 * np.max(np.abs(ana))


def test_projected_gram_zero_direction(softmax23):
    theta = np.zeros(6)
    data = softmax23.sample(theta, 50, 33)
    got = projected_gram(softmax23, theta, data, np.zeros((6, 1)))
    assert np.array_equal(got, [[0.0]])


def test_projected_gram_basis_recovers_subblock(cat3):
    fam = get_family("categorical", {"num_outcomes": 4})
    theta = np.array([0.2, 0.3, 0.1])
    xs = fam.sample(theta, 500, 34)
    dense = empirical_fisher(fam, theta, xs)
    dirs = np.zeros((3, 2))
    dirs[0, 0] = 1.0
    dirs[2, 1] = 1.0
    got = projected_gram(fam, theta, xs, dirs)
    assert np.allclose(got, dense[np.ix_([0, 2], [0, 2])], atol=1e-12)


def test_projected_gram_matches_dense_d50(rng):
    fam = get_family("softmax_regression", {"feature_dim": 10, "num_classes": 5})
    theta = 0.3 * rng.standard_normal(50)
    data = fam.sample(theta, 400, 35)
    dirs = rng.standard_normal((50, 4))
    dense = empirical_fisher(fam, theta, data)
    want = dirs.T @ dense @ dirs
    got = projected_gram(fam, theta, data, dirs)
    assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


def test_operators_are_positive_semidefinite(cat3, softmax23, rng):
    theta_c = np.array([0.3, 0.4])
    mats = [
        analytic_fisher(cat3, theta_c),
        empirical_fisher(cat3, theta_c, cat3.sample(theta_c, 200, 36)),
        projected_gram(cat3, theta_c, cat3.sample(theta_c, 200, 36),
                       rng.standard_normal((2, 3))),
    ]
    th_s = 0.2 * rng.standard_normal(6)
    data = softmax23.sample(th_s, 150, 37)
    mats.append(projected_gram(softmax23, th_s, data,
                               rng.standard_normal((6, 2))))
    for g in mats:
        trace = float(np.trace(g))
        for _ in range(100):
            a = rng.standard_normal(g.shape[0])
            q = float(a @ g @ a)
            assert q >= -1e-10 * trace * float(a @ a)


def test_projected_gram_agrees_with_dense_route(cat3, rng):
    theta = np.array([0.28, 0.33])
    xs = cat3.sample(theta, 800, 38)
    dirs = rng.standard_normal((2, 3))
    dense = empirical_fisher(cat3, theta, xs)
    got = projected_gram(cat3, theta, xs, dirs)
    assert np.max(np.abs(got - dirs.T @ dense @ dirs)) <= 1e-10


def test_information_is_locally_stable(cat3):
    """Halving the parameter shift at the 1/sqrt(N0) scale at least halves
    the information matrix change, up to 20 percent slack."""
    theta = np.array([0.3, 0.4])
    u = np.array([0.6, -0.8])
    n0 = 400.0
    for c in (0.5, 1.0):
        r = c / np.sqrt(n0)
        full = np.linalg.norm(
            analytic_fisher(cat3, theta + r * u)
            - analytic_fisher(cat3, theta))
        half = np.linalg.norm(
            analytic_fisher(cat3, theta + 0.5 * r * u)
            - analytic_fisher(cat3, theta))
        assert half <= 0.5 * full * 1.2


def test_fisher_error_paths(softmax23, gauss3):
    with pytest.raises(UnsupportedFamilyError):
        analytic_fisher(softmax23, np.zeros(6))
    with pytest.raises(ValueError):
        empirical_fisher(gauss3, np.zeros(3), np.zeros((0, 3)))
    with pytest.raises(ValueError):
        projected_gram(gauss3, np.zeros(3), gauss3.sample(np.zeros(3), 5, 1),
                       np.zeros((2, 2)))  # direction rows mismatch the dim
