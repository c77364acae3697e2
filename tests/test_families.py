"""Parametric family contracts: densities, scores, sampling, exact forms."""

import math

import numpy as np
import pytest

from transferopt import (ConfigError, ParameterError, SupportError,
                         TrainConfig, families, get_family)
from transferopt.fisher import projected_gram
from transferopt.config import build_ensemble, resolve_grid
from transferopt.kl import mc_expected_kl, mc_fits
from transferopt.planner import QpMatrix
from transferopt.rng import derive_rng
from transferopt.weighted_mle import fit_weighted_mle

from helpers import (categorical_score_oracle, fd_gradient,
                     softmax_hessian_oracle, softmax_probs_row_major,
                     softmax_sample_row_major)


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


@pytest.mark.parametrize("m", range(2, 13))
def test_categorical_score_rows_are_the_closed_form(m):
    """Every outcome's score row equals its transcription exactly."""
    family = get_family("categorical", {"num_outcomes": m})
    rng = derive_rng(23, m)
    theta = (0.5 * rng.dirichlet(np.ones(m)) + 0.5 / m)[:-1]
    got = family.score_batch(theta, np.arange(m))
    assert got.shape == (m, m - 1)
    for x in range(m):
        assert np.array_equal(got[x], categorical_score_oracle(theta, x)), x


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


@pytest.mark.parametrize("n", [10.7, math.inf, math.nan, -1, -2.0])
def test_samplers_never_truncate_a_count(cat3, gauss3, softmax23, n):
    """A count of 10.7 drew 10 samples, or the Gaussian "sum of 10.7
    samples"; it is a ValueError, as a negative count is."""
    rng = derive_rng(6)
    draws = [lambda: cat3.sample([0.3, 0.4], n, rng),
             lambda: gauss3.sample(np.zeros(3), n, rng),
             lambda: softmax23.sample(np.zeros(softmax23.dim), n, rng),
             lambda: cat3.stat_sampler([0.3, 0.4])(n, rng),
             lambda: gauss3.stat_sampler(np.zeros(3))(n, rng)]
    for draw in draws:
        with pytest.raises(ValueError, match="whole count|nonnegative"):
            draw()


def _ensemble(n_target=100, budget=250, direction_seed=1, master_seed=3):
    cat3 = families.Categorical(3)
    config = {"target_params": [0.3, 0.4], "n_target": n_target,
              "sources": [{"c": 1.0, "budget": budget,
                           "direction_seed": direction_seed}]}
    return build_ensemble(cat3, config, master_seed)


_TH = np.array([0.3, 0.4])

_NOT_WHOLE = {
    "epochs": (lambda: TrainConfig(learning_rate=1.0, epochs=5.5),
               ParameterError),
    "weight-update-period": (lambda: TrainConfig(
        learning_rate=1.0, epochs=5, weight_update_period=1.5),
        ParameterError),
    "n_target": (lambda: _ensemble(n_target=100.7), ParameterError),
    "budget": (lambda: _ensemble(budget=250.5), ParameterError),
    "direction-seed": (lambda: _ensemble(direction_seed=1.5), ValueError),
    "ensemble-seed": (lambda: _ensemble(master_seed=3.9), ValueError),
    "mc-trials": (lambda: mc_expected_kl(_ensemble(), [0.5], [250], 10.7, 3),
                  ValueError),
    "mc-seed": (lambda: mc_expected_kl(_ensemble(), [0.5], [250], 10, 3.9),
                ValueError),
    "fit-trials": (lambda: mc_fits(families.Categorical(3), _TH, 100, [],
                                   10.7, 3), ValueError),
    "sample-seed": (lambda: families.Categorical(3).sample(_TH, 10, 3.9),
                    ValueError),
    "grid-count": (lambda: resolve_grid({"start": 0, "stop": 1,
                                         "count": 2.5}), ConfigError),
    "num_outcomes": (lambda: families.Categorical(2.5), ParameterError),
    "dim": (lambda: families.GaussianIso(2.7), ParameterError),
    "feature_dim": (lambda: families.SoftmaxRegression(2.5, 3),
                    ParameterError),
    "num_classes": (lambda: families.SoftmaxRegression(2, 3.5),
                    ParameterError),
    "qp-d": (lambda: QpMatrix(np.eye(2), [100, 100], d=2.5), ValueError),
}


@pytest.mark.parametrize("case", sorted(_NOT_WHOLE))
def test_no_count_or_seed_is_truncated(case):
    """Each of these was cast with int() before any check: 10.7 trials ran
    10, dim 2.7 built dim 2, seed 3.9 drew seed 3's streams. Each module
    raises the type it raises for any other bad count."""
    call, error = _NOT_WHOLE[case]
    with pytest.raises(error, match="whole"):
        call()


@pytest.mark.parametrize("make, message", [
    (lambda: families.Categorical(1), "at least 2 outcomes"),
    (lambda: families.GaussianIso(0), "dim >= 1"),
    (lambda: families.SoftmaxRegression(0, 3), "feature_dim >= 1"),
    (lambda: families.SoftmaxRegression(2, 1), "num_classes >= 2"),
], ids=["categorical", "gaussian_iso", "softmax-features", "softmax-classes"])
def test_a_family_below_its_smallest_size_is_rejected(make, message):
    with pytest.raises(ParameterError, match=message):
        make()


@pytest.mark.parametrize("n", [2 ** 53 + 2, 2 ** 70, 1e308, 10 ** 400,
                               -(2 ** 53 + 2), -1e308],
                         ids=["2**53+2", "2**70", "1e308", "10**400",
                              "-(2**53+2)", "-1e308"])
def test_whole_count_rejects_a_count_above_2_53(n):
    """Past 2**53 floats stop being exact counts: a budget of 1e308 planned
    the wrapped quantity -2**63, trials of 2**70 ran without end, and a
    quantity grid point of -1e308 overflowed an int array."""
    with pytest.raises(ParameterError, match=r"^trials must be at most 2\*\*53"):
        families.whole_count(n, "trials", ParameterError)
    assert families.whole_count(2.0 ** 53, "trials") == 2 ** 53
    assert families.whole_count(-2.0 ** 53, "trials") == -2 ** 53


def test_a_whole_float_count_draws_what_the_int_draws(cat3, gauss3,
                                                      softmax23):
    th_s = np.arange(softmax23.dim, dtype=float) / 10.0
    for n in (0, 7):
        assert np.array_equal(cat3.sample([0.3, 0.4], float(n), 5),
                              cat3.sample([0.3, 0.4], n, 5))
        assert np.array_equal(gauss3.sample(np.ones(3), float(n), 5),
                              gauss3.sample(np.ones(3), n, 5))
        zf, yf = softmax23.sample(th_s, float(n), 5)
        zi, yi = softmax23.sample(th_s, n, 5)
        assert np.array_equal(zf, zi) and np.array_equal(yf, yi)
    for sampler in (cat3.stat_sampler([0.3, 0.4]),
                    gauss3.stat_sampler(np.ones(3))):
        assert np.array_equal(sampler(2000.0, derive_rng(5)),
                              sampler(2000, derive_rng(5)))


def test_degenerate_categorical_sampling(cat2):
    # boundary vector: valid for sampling only
    theta = np.array([1.0])
    xs = cat2.sample(theta, 5, 3)
    assert list(xs) == [0, 0, 0, 0, 0]
    with pytest.raises(ParameterError):
        cat2.validate(theta)
    cat2.validate(theta, for_sampling=True)


def test_samplers_draw_at_a_free_entry_within_roundoff_below_zero(cat3):
    """``validate(..., for_sampling=True)`` accepts a free entry down to
    -1e-15; both samplers draw from ``probs``, which clamps it to 0."""
    theta = [-1e-16, 0.5]
    p = cat3.probs(theta)
    assert p[0] == 0.0 and np.max(np.abs(p - [0.0, 0.5, 0.5])) <= 1e-15
    xs = cat3.sample(theta, 50, 1)
    assert len(xs) == 50 and 0 not in xs
    counts = cat3.stat_sampler(theta)(50, derive_rng(1))
    assert counts[0] == 0.0 and counts.sum() == 50.0


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
                   "loglik_and_score_sum", "loglik_hessian", "sample",
                   "n_samples"):
        assert callable(getattr(cls, method, None)), method
    assert not hasattr(cls, "log_density")
    assert not hasattr(cls, "score")
    assert name in {case[0] for case in _BAD_BATCHES.values()}


@pytest.mark.parametrize("family_theta, n", [(_CAT3, 2000), (_GAUSS3, 2000),
                                              (_SOFTMAX23, 2000), (_CAT3, 0),
                                              (_SOFTMAX23, 1)])
def test_loglik_and_score_sum_is_the_batch_sums(family_theta, n):
    """Exactly the summed batch forms where they are built from them
    (categorical, gaussian_iso); to rel 1e-12 for softmax, whose score sum
    is one matrix product."""
    name, params, theta = family_theta
    family = get_family(name, params)
    xs = family.sample(theta, n, derive_rng(17, n))
    loglik, score = family.loglik_and_score_sum(theta, xs)
    want_loglik = family.log_density_batch(theta, xs).sum()
    want_score = family.score_batch(theta, xs).sum(axis=0)
    assert loglik == want_loglik
    assert score.shape == (family.dim,)
    if name == "softmax_regression":
        scale = max(1.0, np.max(np.abs(want_score)))
        assert np.max(np.abs(score - want_score)) <= 1e-12 * scale
    else:
        assert np.array_equal(score, want_score)


@pytest.mark.parametrize("case", list(_BAD_BATCHES))
def test_out_of_support_batches_raise_support_error(case):
    name, params, theta, bad = _BAD_BATCHES[case]
    family = get_family(name, params)
    calls = [family.check_batch,
             lambda xs: family.log_density_batch(theta, xs),
             lambda xs: family.score_batch(theta, xs),
             lambda xs: family.loglik_and_score_sum(theta, xs),
             lambda xs: family.loglik_hessian(theta, xs)]
    if hasattr(family, "sufficient_stat"):
        calls.append(family.sufficient_stat)
    calls.append(lambda xs: projected_gram(
        family, theta, xs, np.eye(family.dim)[:, :2]))
    for call in calls:
        with pytest.raises(SupportError):
            call(bad)
    good = family.sample(theta, 5, 1)
    with pytest.raises(SupportError):
        fit_weighted_mle(family, bad)
    with pytest.raises(SupportError):
        fit_weighted_mle(family, good, [bad], [0.5])


def test_softmax_sample_labels_stay_in_range_at_the_top_of_u(softmax23):
    # u just below 1 exceeds a last cumulative probability rounded below 1
    class TopU(np.random.Generator):
        def random(self, size=None):
            return np.full(size, np.nextafter(1.0, 0.0))

    theta = np.arange(softmax23.dim) / 10.0
    zs, ys = softmax23.sample(theta, 1000, TopU(np.random.PCG64(5)))
    softmax23.check_batch((zs, ys))
    assert ys.max() == softmax23.num_classes - 1


def _wide_logit_case(n, num_classes, feature_dim):
    """A family, features and a theta scaled so the largest logit magnitude
    is 1000: past exp's overflow at 709, so the max-shift must happen."""
    fam = get_family("softmax_regression",
                     {"feature_dim": feature_dim, "num_classes": num_classes})
    rng = derive_rng(41, n, num_classes, feature_dim)
    theta = rng.standard_normal(fam.dim)
    zs = rng.standard_normal((n, feature_dim))
    logits = zs @ theta.reshape(num_classes, feature_dim).T
    theta *= 1000.0 / np.max(np.abs(logits), initial=1.0)
    return fam, theta, zs


@pytest.mark.parametrize("feature_dim", [1, 3, 50])
@pytest.mark.parametrize("num_classes", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [0, 1, 2000])
def test_class_probs_are_bit_identical_to_the_row_major_softmax(
        n, num_classes, feature_dim):
    fam, theta, zs = _wide_logit_case(n, num_classes, feature_dim)
    got = fam.class_probs(theta, zs)
    want = softmax_probs_row_major(theta, zs, num_classes)
    assert got.shape == (n, num_classes)
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)
    assert np.all(np.isfinite(got))
    zs, ys = fam.sample(theta, n, derive_rng(43, n))
    want_zs, want_ys = softmax_sample_row_major(
        theta, n, derive_rng(43, n), num_classes, feature_dim)
    assert np.array_equal(zs, want_zs)
    assert np.array_equal(ys, want_ys)


@pytest.mark.parametrize("num_classes", [8, 12])
def test_class_probs_from_eight_classes_agree_to_rounding(num_classes):
    # numpy sums a row of 8 or more pairwise, in another order than the
    # class-major sum, so the two agree only to rounding
    fam, theta, zs = _wide_logit_case(2000, num_classes, 3)
    got = fam.class_probs(theta, zs)
    want = softmax_probs_row_major(theta, zs, num_classes)
    assert got.shape == (2000, num_classes)
    assert got.flags.c_contiguous
    assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("zs", [np.zeros(2), np.zeros((4, 5)),
                                np.zeros((2, 2, 2)), np.float64(0.5)],
                         ids=["vector", "wrong-width", "three-dim", "scalar"])
def test_class_probs_reject_features_of_the_wrong_shape(softmax23, zs):
    with pytest.raises(SupportError, match=r"features must be \(n, 2\)"):
        softmax23.class_probs(np.zeros(softmax23.dim), zs)


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


def test_the_categorical_simplex_rule_names_a_row_only_for_a_stack(cat3):
    """``validate`` checks a vector through the stack check that
    ``kl_divergence`` uses, with the floor it asks for."""
    off = [0.7, 0.6]
    for for_sampling, floor in ((False, families.INTERIOR_FLOOR), (True, 0.0)):
        with pytest.raises(ParameterError, match=(
                rf"^probabilities must stay inside the simplex \(floor "
                rf"{floor}\); got \[0.7 0.6\] with implied last")) as info:
            cat3.validate(off, for_sampling=for_sampling)
        assert info.value.row is None
    assert cat3.validate([0.0, 0.4], for_sampling=True).tolist() == [0.0, 0.4]
    with pytest.raises(ParameterError, match="floor 1e-09"):
        cat3.validate([0.0, 0.4])
    with pytest.raises(ParameterError, match="must be finite") as info:
        cat3.kl_divergence([0.3, 0.4], [np.nan, 0.4])
    assert info.value.row is None
    with pytest.raises(ParameterError) as info:
        cat3.kl_divergence([0.3, 0.4], [[0.3, 0.4], off])
    assert info.value.row == 1


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
    counts = cat3.sufficient_stat(np.array([0, 0, 2, 1]))
    assert np.array_equal(counts, [2.0, 1.0, 1.0])


def test_statistic_draws_are_statistics(cat3, gauss3):
    rng = derive_rng(4)
    draw = cat3.stat_sampler(np.array([0.3, 0.4]))
    for n in (0, 1, 7, 2000, 10 ** 6):
        counts = draw(n, rng)
        assert counts.shape == (3,)
        assert counts.sum() == n
        assert np.all(counts >= 0) and np.array_equal(counts, np.floor(counts))
    # a boundary distribution can be drawn from, as it can be sampled
    assert np.array_equal(cat3.stat_sampler([1.0, 0.0])(9, rng), [9, 0, 0])
    total = gauss3.stat_sampler(np.ones(3))
    assert np.array_equal(total(0, rng), np.zeros(3))
    assert total(5, rng).shape == (3,)
    for sampler in (draw, total):
        with pytest.raises(ValueError, match="nonnegative"):
            sampler(-1, rng)
    with pytest.raises(ParameterError):
        cat3.stat_sampler([0.7, 0.6])
    with pytest.raises(ParameterError):
        gauss3.stat_sampler([0.0, np.nan, 0.0])


def test_sufficient_stat_of_samples(cat3, gauss3):
    xs = gauss3.sample(np.zeros(3), 6, 2)
    assert np.array_equal(gauss3.sufficient_stat(xs), xs.sum(axis=0))
    assert np.array_equal(cat3.sufficient_stat(np.array([], dtype=int)),
                          np.zeros(3))


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
