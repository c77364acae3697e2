"""Parametric model families on which every claim can be checked exactly.

Three families are provided:

``categorical``
    Distributions over a finite alphabet of ``m`` outcomes. The free
    parameter vector holds the first ``m - 1`` probabilities, the last one
    is implied, so the dimension is ``m - 1``. Parameters are kept on an
    interior simplex (every probability at least ``INTERIOR_FLOOR``) so the
    information matrix stays finite and invertible.

``gaussian_iso``
    Isotropic Gaussians with known unit covariance; only the mean is a
    parameter. The information matrix is the identity, which makes the
    asymptotic predictions exact rather than approximate.

``softmax_regression``
    Multinomial logistic regression over synthetic features ``z`` drawn
    from a standard normal. Only the conditional parameters are modeled;
    the feature marginal is treated as fixed. Used by the toy trainers.

Samples are represented as plain numpy data: an int array of outcomes for
categorical, an ``(n, d)`` float array for the Gaussian, and a ``(Z, y)``
pair for softmax regression. Every observation method takes a whole batch
and passes it through the family's ``check_batch`` first;
``loglik_and_score_sum`` gives a batch's summed log likelihood and score
together, which is all a gradient step needs. Every sampler takes a whole
count (``whole_count``): 10.7, inf, nan or a count above 2**53 raises
ValueError, as a negative count does, and is never truncated.

The categorical and Gaussian families depend on a batch only through a
sufficient statistic (outcome counts, the sample sum). Each offers it as
``sufficient_stat(xs)`` and ``stat_sampler(theta)``; the latter draws the
statistic of ``n`` samples directly, with the same distribution. Monte
Carlo trials draw only these statistics, so softmax regression has no
Monte Carlo estimate.
"""

import numpy as np

from .errors import ParameterError, SupportError
from .rng import derive_rng

__all__ = [
    "INTERIOR_FLOOR",
    "Categorical",
    "GaussianIso",
    "SoftmaxRegression",
    "get_family",
    "whole_count",
]

# Lower bound on categorical probabilities; keeps 1/p terms finite.
INTERIOR_FLOOR = 1e-9


def whole_count(n, name, error=ValueError):
    """``n`` as an int; a count that is not a whole number (10.7, inf,
    nan), or of magnitude above 2**53, past which floats stop being exact
    integers, raises ``error(message)`` naming ``name``, never truncated
    or wrapped; the sign is the caller's to check. 2000.0 counts as 2000."""
    if not (isinstance(n, (int, np.integer)) or float(n).is_integer()):
        raise error(f"{name} must be a whole count, got {n}")
    count = int(n)
    if abs(count) > 2 ** 53:
        size = " in magnitude" if count < 0 else ""
        raise error(f"{name} must be at most 2**53{size}, got {n}")
    return count


def _sample_count(n):
    n = whole_count(n, "sample count")
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    return n


def _as_rng(seed_or_rng):
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return derive_rng(seed_or_rng)


def _param_rows(theta, dim, what):
    """One parameter vector of length ``dim``, or a ``(T, dim)`` stack of
    them, as float rows ``(T, dim)``; ParameterError for any other shape."""
    th = np.asarray(theta, dtype=float)
    if th.ndim not in (1, 2) or th.shape[-1] != dim:
        raise ParameterError(
            f"expected {what} of length {dim}, or a stack of them, "
            f"got shape {th.shape}"
        )
    return th.reshape(-1, dim)


class _Family:
    """What the families share: a batch's size, its summed log likelihood
    and score, and the check that parameters are a finite vector of length
    ``dim``, whose message names the vector by ``vector``."""

    vector = "parameters"

    def validate(self, theta):
        th = np.asarray(theta, dtype=float)
        if th.shape != (self.dim,):
            raise ParameterError(f"expected {self.vector} of length {self.dim}")
        if not np.all(np.isfinite(th)):
            raise ParameterError("parameters must be finite")
        return th

    def n_samples(self, xs):
        return len(xs)

    def loglik_and_score_sum(self, theta, xs):
        """Summed log likelihood and summed score of a batch."""
        return (self.log_density_batch(theta, xs).sum(),
                self.score_batch(theta, xs).sum(axis=0))


class Categorical(_Family):
    """Finite distribution over ``num_outcomes`` symbols.

    Parameters
    ----------
    num_outcomes : int
        Alphabet size ``m``, at least 2. The parameter vector has length
        ``m - 1`` (the free probabilities).
    """

    name = "categorical"

    def __init__(self, num_outcomes):
        m = whole_count(num_outcomes, "num_outcomes", ParameterError)
        if m < 2:
            raise ParameterError("categorical needs at least 2 outcomes")
        self.num_outcomes = m
        self.dim = m - 1

    # -- parameters -----------------------------------------------------

    def validate(self, theta, for_sampling=False):
        """Check a parameter vector and return it as a float array.

        ``for_sampling`` relaxes the interior requirement: boundary
        distributions (some outcome probability zero) can still be sampled
        from, but densities, scores and information matrices need the
        interior.
        """
        th = np.asarray(theta, dtype=float)
        if th.shape != (self.dim,):
            raise ParameterError(
                f"categorical({self.num_outcomes}) expects {self.dim} free "
                f"probabilities, got shape {th.shape}"
            )
        self._simplex_probs(th, 0.0 if for_sampling else INTERIOR_FLOOR)
        return th

    def _prob_vector(self, theta, for_sampling=False):
        """Checked free probabilities and the implied last, unclamped."""
        th = self.validate(theta, for_sampling)
        return np.append(th, 1.0 - th.sum())

    def probs(self, theta):
        """All ``num_outcomes`` probabilities, which both samplers draw from;
        ``theta`` may sit on the boundary: clamped at 0, then normalized."""
        p = np.maximum(self._prob_vector(theta, for_sampling=True), 0.0)
        return p / p.sum()

    # -- observations -----------------------------------------------------

    def check_batch(self, xs):
        """1-D batch of integer outcomes in the alphabet, else SupportError."""
        xs = np.asarray(xs)
        if xs.ndim != 1 or xs.size and (xs.dtype.kind not in "iu"
                                        or xs.min() < 0
                                        or xs.max() >= self.num_outcomes):
            raise SupportError("outcome outside alphabet")
        return xs.astype(np.int64)

    def log_density_batch(self, theta, xs):
        """Log probability of each outcome."""
        p = self._prob_vector(theta)
        return np.log(p[self.check_batch(xs)])

    def score_batch(self, theta, xs):
        """Gradient of each log density with respect to the free parameters.

        For outcome ``j`` the score is ``e_j / p_j`` when ``j`` is free and
        ``-1/p_last`` in every coordinate when ``j`` is the implied outcome.
        """
        p = self._prob_vector(theta)
        table = np.diag(1.0 / p)[:, :-1]
        table[-1] = -1.0 / p[-1]
        return table[self.check_batch(xs)]

    # -- sampling ---------------------------------------------------------

    def sample(self, theta, n, rng):
        """Draw ``n`` outcomes. ``rng`` is an integer seed or a Generator."""
        n = _sample_count(n)
        p = self.probs(theta)
        return _as_rng(rng).choice(self.num_outcomes, size=n, p=p)

    # -- exact quantities --------------------------------------------------

    def analytic_fisher_matrix(self, theta):
        """Information matrix ``diag(1/p_j) + (1/p_last) 11^T``."""
        p = self._prob_vector(theta)
        return np.diag(1.0 / p[:-1]) + 1.0 / p[-1]

    def _simplex_probs(self, theta, floor):
        """Full probability rows ``(T, num_outcomes)`` of one parameter
        vector or a ``(T, dim)`` stack, every row checked in one pass.

        A row that is non-finite or has a probability below ``floor`` (to
        a slack of 1e-15 for roundoff in the implied entry) raises
        ParameterError; for a stack, ``row`` holds the first such row.
        """
        rows = _param_rows(theta, self.dim, f"categorical({self.num_outcomes}) "
                                            "free probabilities")
        # cumsum adds in one fixed order, so a row's value does not depend
        # on the rows stacked with it
        last = 1.0 - np.cumsum(rows, axis=1)[:, -1]
        finite = np.isfinite(rows).all(axis=1)
        lo = floor - 1e-15
        bad = ~finite | (rows.min(axis=1) < lo) | (last < lo)
        if bad.any():
            i = int(bad.argmax())
            raise ParameterError(
                "parameters must be finite" if not finite[i] else
                "probabilities must stay inside the simplex (floor "
                f"{floor}); got {rows[i]} with implied last {last[i]}",
                row=i if np.ndim(theta) == 2 else None,
            )
        return np.column_stack((rows, last))

    def kl_divergence(self, theta_p, theta_q):
        """Divergence from ``theta_p`` to ``theta_q``.

        ``theta_q`` is one parameter vector, giving a float, or a ``(T,
        dim)`` stack, giving one divergence per row; a stack is checked
        and measured in one array pass (see ``_simplex_probs``).
        ``theta_p`` may sit on the simplex boundary.
        """
        p = self._prob_vector(theta_p, for_sampling=True)
        q = self._simplex_probs(theta_q, INTERIOR_FLOOR)
        mask = p > 0
        terms = p[mask] * np.log(p[mask] / q[:, mask])
        div = np.cumsum(terms, axis=1)[:, -1]
        return float(div[0]) if np.ndim(theta_q) == 1 else div

    def sufficient_stat(self, xs):
        """Outcome counts, the sufficient statistic for this family."""
        xs = self.check_batch(xs)
        return np.bincount(xs, minlength=self.num_outcomes).astype(float)

    def stat_sampler(self, theta):
        """``draw(n, rng)``: the outcome counts of ``n`` draws at ``theta``,
        drawn as one multinomial. ``theta`` is checked here, once."""
        p = self.probs(theta)

        def draw(n, rng):
            return rng.multinomial(_sample_count(n), p).astype(float)

        return draw

    def loglik_hessian(self, theta, xs):
        """Hessian of the summed log likelihood at ``theta``."""
        p = self._prob_vector(theta)
        c = self.sufficient_stat(xs)
        h = np.full((self.dim, self.dim), -c[-1] / p[-1]**2)
        h[np.diag_indices(self.dim)] -= c[:-1] / p[:-1]**2
        return h


class GaussianIso(_Family):
    """Isotropic Gaussian with known unit covariance; the mean is the
    parameter. Scores, information and divergences are all exact."""

    name = "gaussian_iso"
    vector = "mean"

    def __init__(self, dim):
        d = whole_count(dim, "dim", ParameterError)
        if d < 1:
            raise ParameterError("gaussian_iso needs dim >= 1")
        self.dim = d

    def check_batch(self, xs):
        """Observations as an ``(n, dim)`` float array; SupportError if not."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise SupportError(f"observations must be (n, {self.dim})")
        return xs

    def log_density_batch(self, theta, xs):
        th = self.validate(theta)
        r = self.check_batch(xs) - th
        return -0.5 * self.dim * np.log(2.0 * np.pi) - 0.5 * np.einsum("ij,ij->i", r, r)

    def score_batch(self, theta, xs):
        th = self.validate(theta)
        return self.check_batch(xs) - th

    def sample(self, theta, n, rng):
        n = _sample_count(n)
        th = self.validate(theta)
        r = _as_rng(rng)
        return th + r.standard_normal((n, self.dim))

    def sufficient_stat(self, xs):
        """The sample sum, the sufficient statistic for the mean."""
        return self.check_batch(xs).sum(axis=0)

    def stat_sampler(self, theta):
        """``draw(n, rng)``: the sum of ``n`` draws at ``theta``, drawn as
        ``n theta + sqrt(n) z`` with ``z`` standard normal. ``theta`` is
        checked here, once."""
        th = self.validate(theta)

        def draw(n, rng):
            n = _sample_count(n)
            return n * th + np.sqrt(n) * rng.standard_normal(self.dim)

        return draw

    def analytic_fisher_matrix(self, theta):
        self.validate(theta)
        return np.eye(self.dim)

    def kl_divergence(self, theta_p, theta_q):
        """Divergence from ``theta_p`` to ``theta_q``, ``|p - q|^2 / 2``.

        ``theta_q`` is one mean, giving a float, or a ``(T, dim)`` stack,
        giving one divergence per row; a stack is checked and measured in
        one array pass, and a non-finite row raises ParameterError with
        the first such row's index in ``row``.
        """
        th = self.validate(theta_p)
        rows = _param_rows(theta_q, self.dim, "mean")
        bad = ~np.isfinite(rows).all(axis=1)
        if bad.any():
            raise ParameterError("parameters must be finite",
                                 row=int(bad.argmax()))
        dp = th - rows
        # one (1, d) @ (d, 1) product per row takes the same dot as dp @ dp
        div = 0.5 * np.matmul(dp[:, None, :], dp[:, :, None])[:, 0, 0]
        return float(div[0]) if np.ndim(theta_q) == 1 else div

    def loglik_hessian(self, theta, xs):
        self.validate(theta)
        return -float(len(self.check_batch(xs))) * np.eye(self.dim)


class SoftmaxRegression(_Family):
    """Multinomial logistic regression over standard-normal features.

    The parameter vector is the flattened ``(num_classes, feature_dim)``
    weight matrix, so ``dim = num_classes * feature_dim``. Densities and
    scores are conditional on the features; the feature marginal is fixed
    and never modeled. No analytic information matrix is offered, use the
    empirical path.
    """

    name = "softmax_regression"
    vector = "flattened weights"

    def __init__(self, feature_dim, num_classes):
        p = whole_count(feature_dim, "feature_dim", ParameterError)
        c = whole_count(num_classes, "num_classes", ParameterError)
        if p < 1 or c < 2:
            raise ParameterError("need feature_dim >= 1 and num_classes >= 2")
        self.feature_dim = p
        self.num_classes = c
        self.dim = p * c

    def _check_features(self, zs):
        Z = np.asarray(zs, dtype=float)
        if Z.ndim != 2 or Z.shape[1] != self.feature_dim:
            raise SupportError(f"features must be (n, {self.feature_dim}), "
                               f"got shape {Z.shape}")
        return Z

    def _probs_by_class(self, theta, Z):
        """Class probabilities of checked features, class-major ``(c, n)``."""
        weights = self.validate(theta).reshape(self.num_classes, self.feature_dim)
        logits = weights @ Z.T
        logits -= logits.max(axis=0)
        q = np.exp(logits)
        q /= q.sum(axis=0)
        return q

    def class_probs(self, theta, zs):
        """Predicted class probabilities for a feature batch, a C-contiguous
        ``(n, c)`` array; SupportError unless ``zs`` is ``(n, feature_dim)``.

        The softmax is computed class-major and then transposed, so its max
        and sum each run as c vector operations across the samples instead
        of n reductions along a c-wide axis. At n = 2000, c = 3 on a 2-vCPU
        Xeon VM that takes a call from 164 to 43 microseconds (the row-wise
        max alone took 88 and the sum 33), with bit-identical results for
        c < 8; from 8 classes numpy sums a row pairwise, so the last bits
        may differ.
        """
        return np.ascontiguousarray(
            self._probs_by_class(theta, self._check_features(zs)).T)

    def check_batch(self, xs):
        """``(n, feature_dim)`` float features and n integer labels in
        ``[0, num_classes)``; SupportError otherwise."""
        Z, y = xs
        Z = self._check_features(Z)
        y = np.asarray(y)
        if y.shape != (len(Z),):
            raise SupportError("need one label per feature row")
        if y.size and (y.dtype.kind not in "iu" or y.min() < 0
                       or y.max() >= self.num_classes):
            raise SupportError("label outside class range")
        return Z, y.astype(np.int64)

    def log_density_batch(self, theta, xs):
        Z, y = self.check_batch(xs)
        q = self.class_probs(theta, Z)
        return np.log(q[np.arange(len(y)), y])

    def score_batch(self, theta, xs):
        Z, y = self.check_batch(xs)
        r = -self.class_probs(theta, Z)
        r[np.arange(len(y)), y] += 1.0
        # score for sample i is outer(e_y_i - q_i, z_i) flattened
        return (r[:, :, None] * Z[:, None, :]).reshape(len(Z), self.dim)

    def loglik_and_score_sum(self, theta, xs):
        """Summed log likelihood and summed score of a batch from one
        evaluation of the class probabilities; the score sum is the one
        product ``(e_y - q)^T Z``."""
        Z, y = self.check_batch(xs)
        q = self.class_probs(theta, Z)
        rows = np.arange(len(y))
        r = -q
        r[rows, y] += 1.0
        return np.log(q[rows, y]).sum(), (r.T @ Z).reshape(self.dim)

    def sample(self, theta, n, rng):
        n = _sample_count(n)
        th = self.validate(theta)
        r = _as_rng(rng)
        Z = r.standard_normal((n, self.feature_dim))
        q = self._probs_by_class(th, Z)
        u = r.random(n)
        # label C-1 takes every u past the second-to-last cumulative sum, so
        # a last sum rounded below 1 cannot yield label C
        y = (u > q[:-1].cumsum(axis=0)).sum(axis=0)
        return Z, y.astype(np.int64)

    def n_samples(self, xs):
        return len(xs[1])

    def loglik_hessian(self, theta, xs):
        Z, _ = self.check_batch(xs)
        q = self.class_probs(theta, Z)
        c, p = self.num_classes, self.feature_dim
        # sum over samples of -(diag(q) - q q^T) (x) (z z^T), with (x) the
        # Kronecker product, in two terms: (q q^T) (x) (z z^T) = w w^T with
        # w = q (x) z, summed by one GEMM, minus the block diagonal
        # sum_i q_ia z_i z_i^T for each class a
        w = (q[:, :, None] * Z[:, None, :]).reshape(len(Z), self.dim)
        h = w.T @ w
        zz = Z[:, :, None] * Z[:, None, :]
        blocks = np.einsum("ia,ijk->ajk", q, zz)
        h.reshape(c, p, c, p)[np.arange(c), :, np.arange(c), :] -= blocks
        return h


_REGISTRY = {
    "categorical": (Categorical, {"num_outcomes"}),
    "gaussian_iso": (GaussianIso, {"dim"}),
    "softmax_regression": (SoftmaxRegression, {"feature_dim", "num_classes"}),
}


def get_family(name, params):
    """Build a family from its config name and parameter block.

    Unknown names and unknown or missing block keys are rejected, matching
    the strictness of the config schemas.
    """
    if name not in _REGISTRY:
        raise ParameterError(
            f"unknown family '{name}', expected one of {sorted(_REGISTRY)}"
        )
    cls, allowed = _REGISTRY[name]
    keys = set(params)
    if keys != allowed:
        extra = keys - allowed
        missing = allowed - keys
        bits = []
        if extra:
            bits.append(f"unknown keys {sorted(extra)}")
        if missing:
            bits.append(f"missing keys {sorted(missing)}")
        raise ParameterError(f"family '{name}': " + ", ".join(bits))
    return cls(**params)
