"""Parametric family contracts: densities, scores, sampling, exact forms."""

import math

import numpy as np
import pytest

from transferopt import ParameterError, SupportError, families, get_family
from transferopt.rng import derive_rng
from transferopt.weighted_mle import SourceBlock, WeightedDataset, fit_weighted_mle

from helpers import fd_gradient, softmax_hessian_oracle


def test_binary_log_density_is_log_half(cat2):
    assert cat2.log_density_batch(np.array([0.5]), [0])[0] == math.log(0.5)


def test_standard_normal_log_density_at_mean(gauss1):
    want = -0.5 * math.log(2.0 * math.pi)
    assert abs(gauss1.log_density_batch(np.array([0.0]), np.zeros((1, 1)))[0]
               - want) < 1e-15


def test_categorical_implied_outcome_density(cat3):
    # last outcome carries 1 - 0.2 - 0.3 = 0.5
    got = cat3.log_density_batch(np.array([0.2, 0.3]), [2])[0]
    assert abs(got - math.log(0.5)) < 1e-12
    assert abs(got - (-0.6931471805599453)) < 1e-12


def test_categorical_density_normalizes(cat3, rng):
    for _ in range(20):
        raw = rng.dirichlet(np.ones(3))
        theta = 0.9 * raw[:2] + 0.03  # keep well inside the simplex
        total = sum(
            math.exp(cat3.log_density_batch(theta, [x])[0]) for x in range(3)
        )
        assert abs(total - 1.0) <= 1e-12


def test_gaussian_score_is_residual(gauss1):
    got = gauss1.score_batch(np.array([0.0]), np.array([[1.0]]))
    assert got.shape == (1, 1)
    assert got[0, 0] == 1.0


def test_uniform_categorical_score_mean_is_zero(cat3):
    theta = np.array([1.0, 1.0]) / 3.0
    p = cat3.probs(theta)
    mean = sum(p[x] * cat3.score_batch(theta, [x])[0] for x in range(3))
    assert np.max(np.abs(mean)) <= 1e-12


def test_score_matches_finite_differences(cat3, gauss3, softmax23, rng):
    """Central differences of log_density_batch reproduce score_batch at
    100 random parameter/observation pairs, all families, 1e-6 relative."""
    h = 1e-5
    checked = 0

    for _ in range(34):
        theta = 0.8 * rng.dirichlet(np.ones(3))[:2] + 0.05
        x = int(rng.integers(0, 3))
        fd = fd_gradient(lambda th: cat3.log_density_batch(th, [x])[0], theta, h)
        got = cat3.score_batch(theta, [x])[0]
        assert np.linalg.norm(got - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))
        checked += 1

    for _ in range(33):
        theta = rng.standard_normal(3)
        x = theta + rng.standard_normal(3)
        fd = fd_gradient(lambda th: gauss3.log_density_batch(th, x[None])[0],
                         theta, h)
        got = gauss3.score_batch(theta, x[None])[0]
        assert np.linalg.norm(got - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))
        checked += 1

    for _ in range(33):
        theta = rng.standard_normal(softmax23.dim)
        z = rng.standard_normal(softmax23.feature_dim)
        y = int(rng.integers(0, softmax23.num_classes))
        batch = (z[None], [y])
        fd = fd_gradient(lambda th: softmax23.log_density_batch(th, batch)[0],
                         theta, h)
        got = softmax23.score_batch(theta, batch)[0]
        assert np.linalg.norm(got - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))
        checked += 1

    assert checked == 100


def test_sample_zero_returns_empty(cat3, gauss3, softmax23):
    assert len(cat3.sample(np.array([0.3, 0.4]), 0, 7)) == 0
    assert gauss3.sample(np.zeros(3), 0, 7).shape == (0, 3)
    z, y = softmax23.sample(np.zeros(softmax23.dim), 0, 7)
    assert len(y) == 0 and z.shape == (0, 2)


def test_degenerate_categorical_sampling(cat2):
    # boundary vector: valid for sampling only
    theta = np.array([1.0])
    xs = cat2.sample(theta, 5, 3)
    assert list(xs) == [0, 0, 0, 0, 0]
    with pytest.raises(ParameterError):
        cat2.validate(theta)
    cat2.validate(theta, for_sampling=True)


def test_sample_frequencies_match_probabilities(cat2):
    xs = cat2.sample(np.array([0.5]), 100_000, 11)
    freq = np.mean(xs == 0)
    assert abs(freq - 0.5) <= 0.01


def test_sampling_is_seed_reproducible(cat3, gauss3, softmax23):
    th_c = np.array([0.3, 0.4])
    assert np.array_equal(cat3.sample(th_c, 50, 9), cat3.sample(th_c, 50, 9))
    th_g = np.array([1.0, -1.0, 0.5])
    assert np.array_equal(gauss3.sample(th_g, 50, 9), gauss3.sample(th_g, 50, 9))
    th_s = np.arange(softmax23.dim, dtype=float) / 10.0
    z1, y1 = softmax23.sample(th_s, 50, 9)
    z2, y2 = softmax23.sample(th_s, 50, 9)
    assert np.array_equal(z1, z2) and np.array_equal(y1, y2)
    # a generator works too, and different seeds actually differ
    assert np.array_equal(cat3.sample(th_c, 50, derive_rng(9)),
                          cat3.sample(th_c, 50, derive_rng(9)))
    assert not np.array_equal(cat3.sample(th_c, 50, 9), cat3.sample(th_c, 50, 10))


def test_empirical_score_mean_is_small():
    """Model-drawn samples have near-zero mean score: norm of the empirical
    mean stays under 5*d/sqrt(n) at n = 1e5."""
    n = 100_000
    cases = [
        (get_family("categorical", {"num_outcomes": 4}), np.array([0.1, 0.2, 0.3])),
        (get_family("gaussian_iso", {"dim": 3}), np.array([0.5, -1.0, 2.0])),
        (get_family("softmax_regression", {"feature_dim": 2, "num_classes": 2}),
         np.array([0.4, -0.2, -0.1, 0.9])),
    ]
    for family, theta in cases:
        xs = family.sample(theta, n, 21)
        mean = family.score_batch(theta, xs).mean(axis=0)
        assert np.linalg.norm(mean) <= 5.0 * family.dim / math.sqrt(n)


def test_out_of_support_observations(cat3, gauss3, softmax23):
    with pytest.raises(SupportError):
        cat3.log_density_batch(np.array([0.3, 0.4]), [5])
    with pytest.raises(SupportError):
        cat3.score_batch(np.array([0.3, 0.4]), np.array([0, 3]))
    with pytest.raises(SupportError):
        gauss3.log_density_batch(np.zeros(3), np.zeros((1, 2)))
    with pytest.raises(SupportError):
        softmax23.log_density_batch(np.zeros(6), (np.zeros((1, 2)), [3]))
    with pytest.raises(SupportError):
        softmax23.log_density_batch(np.zeros(6), (np.zeros((1, 5)), [0]))


_CAT3 = ("categorical", {"num_outcomes": 3}, [0.3, 0.4])
_GAUSS3 = ("gaussian_iso", {"dim": 3}, [0.0, 0.0, 0.0])
_SOFTMAX23 = ("softmax_regression", {"feature_dim": 2, "num_classes": 3},
              [0.1, -0.2, 0.3, 0.0, -0.1, 0.2])

# (family, params, theta) and a batch outside that family's support
_BAD_BATCHES = {
    "categorical-outcome-past-alphabet": (*_CAT3, np.array([0, 3])),
    "categorical-negative-outcome": (*_CAT3, np.array([-1, 1])),
    "categorical-fractional-outcome": (*_CAT3, np.array([0.0, 1.5])),
    "categorical-two-dim-batch": (*_CAT3, np.array([[0, 1], [2, 2]])),
    "gaussian-one-column": (*_GAUSS3, np.zeros((4, 1))),
    "gaussian-flat-vector": (*_GAUSS3, np.zeros(3)),
    "softmax-label-minus-one": (*_SOFTMAX23, (np.zeros((2, 2)), [0, -1])),
    "softmax-label-num-classes": (*_SOFTMAX23, (np.zeros((2, 2)), [0, 3])),
    "softmax-feature-width": (*_SOFTMAX23, (np.zeros((2, 5)), [0, 1])),
    "softmax-label-count": (*_SOFTMAX23, (np.zeros((2, 2)), [0])),
    "softmax-fractional-label": (*_SOFTMAX23, (np.zeros((2, 2)), [0, 1.5])),
}


@pytest.mark.parametrize("name", sorted(families._REGISTRY))
def test_every_family_has_one_batch_observation_api(name):
    cls, _ = families._REGISTRY[name]
    for method in ("check_batch", "log_density_batch", "score_batch",
                   "loglik_hessian", "sample", "n_samples"):
        assert callable(getattr(cls, method, None)), method
    assert not hasattr(cls, "log_density")
    assert not hasattr(cls, "score")
    assert name in {case[0] for case in _BAD_BATCHES.values()}


@pytest.mark.parametrize("case", list(_BAD_BATCHES))
def test_out_of_support_batches_raise_support_error(case):
    name, params, theta, bad = _BAD_BATCHES[case]
    family = get_family(name, params)
    calls = [family.check_batch,
             lambda xs: family.log_density_batch(theta, xs),
             lambda xs: family.score_batch(theta, xs),
             lambda xs: family.loglik_hessian(theta, xs)]
    if hasattr(family, "sufficient_counts"):
        calls.append(family.sufficient_counts)
    if hasattr(family, "score_project_batch"):
        calls.append(lambda xs: family.score_project_batch(
            theta, xs, np.eye(family.dim)[:, :2]))
    for call in calls:
        with pytest.raises(SupportError):
            call(bad)
    good = family.sample(theta, 5, 1)
    with pytest.raises(SupportError):
        fit_weighted_mle(family, WeightedDataset(bad, []))
    with pytest.raises(SupportError):
        fit_weighted_mle(family, WeightedDataset(good, [SourceBlock(bad, 0.5)]))


def test_softmax_sample_labels_stay_in_range_at_the_top_of_u(softmax23):
    # u just below 1 exceeds a last cumulative probability rounded below 1
    class TopU(np.random.Generator):
        def random(self, size=None):
            return np.full(size, np.nextafter(1.0, 0.0))

    theta = np.arange(softmax23.dim) / 10.0
    zs, ys = softmax23.sample(theta, 1000, TopU(np.random.PCG64(5)))
    softmax23.check_batch((zs, ys))
    assert ys.max() == softmax23.num_classes - 1


def test_invalid_parameters(cat3, gauss3):
    with pytest.raises(ParameterError):
        cat3.validate(np.array([0.7, 0.6]))  # sums past one
    with pytest.raises(ParameterError):
        cat3.validate(np.array([0.3]))  # wrong length
    with pytest.raises(ParameterError):
        cat3.validate(np.array([np.nan, 0.4]))
    with pytest.raises(ParameterError):
        gauss3.validate(np.array([0.0, np.inf, 0.0]))
    with pytest.raises(ParameterError):
        gauss3.validate(np.zeros(2))


def test_get_family_rejects_unknown_names_and_keys():
    with pytest.raises(ParameterError, match="unknown family"):
        get_family("catgorical", {"num_outcomes": 3})
    with pytest.raises(ParameterError, match="unknown keys"):
        get_family("categorical", {"m": 3})
    with pytest.raises(ParameterError, match="missing keys"):
        get_family("softmax_regression", {"feature_dim": 2})


def test_categorical_exact_forms(cat3):
    theta = np.array([0.2, 0.3])
    J = cat3.analytic_fisher_matrix(theta)
    want = np.diag([5.0, 1.0 / 0.3]) + 2.0
    assert np.allclose(J, want, atol=1e-12)
    counts = cat3.sufficient_counts(np.array([0, 0, 2, 1]))
    assert np.array_equal(counts, [2.0, 1.0, 1.0])


def test_gaussian_exact_forms(gauss3):
    assert np.array_equal(gauss3.analytic_fisher_matrix(np.zeros(3)), np.eye(3))
    a, b = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.0])
    assert gauss3.kl_divergence(a, b) == 0.5


def test_loglik_hessian_matches_score_differences(cat3, softmax23, rng):
    # hessian of the summed log likelihood == jacobian of the summed score
    theta = np.array([0.25, 0.35])
    xs = cat3.sample(theta, 40, 5)
    h = cat3.loglik_hessian(theta, xs)
    fd = np.column_stack([
        fd_gradient(lambda th: float(cat3.score_batch(th, xs).sum(axis=0)[j]),
                    theta)
        for j in range(2)
    ])
    assert np.max(np.abs(h - fd)) <= 1e-5 * max(1.0, np.max(np.abs(fd)))

    th_s = rng.standard_normal(softmax23.dim) * 0.3
    data = softmax23.sample(th_s, 25, 6)
    hs = softmax23.loglik_hessian(th_s, data)
    fds = np.column_stack([
        fd_gradient(lambda th: float(softmax23.score_batch(th, data).sum(axis=0)[j]),
                    th_s)
        for j in range(softmax23.dim)
    ])
    assert np.max(np.abs(hs - fds)) <= 1e-5 * max(1.0, np.max(np.abs(fds)))


@pytest.mark.parametrize("n", [0, 1, 25, 2000])
@pytest.mark.parametrize("feature_dim,num_classes", [(1, 2), (2, 3), (3, 3),
                                                     (4, 5)])
def test_softmax_hessian_matches_per_sample_kron_loop(feature_dim, num_classes,
                                                      n):
    fam = get_family("softmax_regression",
                     {"feature_dim": feature_dim, "num_classes": num_classes})
    rng = np.random.default_rng(10 * feature_dim + num_classes)
    theta = 0.7 * rng.standard_normal(fam.dim)
    data = fam.sample(theta, n, 31 + n)
    got = fam.loglik_hessian(theta, data)
    want = softmax_hessian_oracle(feature_dim, num_classes, theta, data[0])
    assert got.shape == (fam.dim, fam.dim)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want),
                                                         initial=0.0)
    assert np.array_equal(got, got.T)
