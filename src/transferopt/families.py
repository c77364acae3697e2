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
and passes it through the family's ``check_batch`` first.
"""

import numpy as np

from .errors import ParameterError, SupportError, UnsupportedFamilyError
from .rng import derive_rng

__all__ = [
    "INTERIOR_FLOOR",
    "Categorical",
    "GaussianIso",
    "SoftmaxRegression",
    "get_family",
]

# Lower bound on categorical probabilities; keeps 1/p terms finite.
INTERIOR_FLOOR = 1e-9


def _as_rng(seed_or_rng):
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return derive_rng(int(seed_or_rng))


class Categorical:
    """Finite distribution over ``num_outcomes`` symbols.

    Parameters
    ----------
    num_outcomes : int
        Alphabet size ``m``, at least 2. The parameter vector has length
        ``m - 1`` (the free probabilities).
    """

    name = "categorical"

    def __init__(self, num_outcomes):
        m = int(num_outcomes)
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
        if not np.all(np.isfinite(th)):
            raise ParameterError("parameters must be finite")
        last = 1.0 - th.sum()
        lo = 0.0 if for_sampling else INTERIOR_FLOOR
        # tiny negative slack absorbs float roundoff in the implied entry
        if np.any(th < lo - 1e-15) or last < lo - 1e-15:
            raise ParameterError(
                "probabilities must stay inside the simplex "
                f"(floor {lo}); got {th} with implied last {last}"
            )
        return th

    def probs(self, theta):
        """Full probability vector of length ``num_outcomes``."""
        th = self.validate(theta, for_sampling=True)
        return np.append(th, max(1.0 - th.sum(), 0.0))

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
        th = self.validate(theta)
        xs = self.check_batch(xs)
        p = np.append(th, 1.0 - th.sum())
        return np.log(p[xs])

    def score_batch(self, theta, xs):
        """Gradient of each log density with respect to the free parameters.

        For outcome ``j`` the score is ``e_j / p_j`` when ``j`` is free and
        ``-1/p_last`` in every coordinate when ``j`` is the implied outcome.
        """
        th = self.validate(theta)
        xs = self.check_batch(xs)
        p_last = 1.0 - th.sum()
        out = np.zeros((len(xs), self.dim))
        for j in range(self.dim):
            out[xs == j, j] = 1.0 / th[j]
        out[xs == self.dim, :] = -1.0 / p_last
        return out

    # -- sampling ---------------------------------------------------------

    def sample(self, theta, n, rng):
        """Draw ``n`` outcomes. ``rng`` is an integer seed or a Generator."""
        if n < 0:
            raise ValueError("sample count must be nonnegative")
        p = self.probs(theta)
        p = p / p.sum()
        r = _as_rng(rng)
        return r.choice(self.num_outcomes, size=int(n), p=p)

    def n_samples(self, xs):
        return len(xs)

    # -- exact quantities --------------------------------------------------

    def analytic_fisher_matrix(self, theta):
        """Information matrix ``diag(1/p_j) + (1/p_last) 11^T``."""
        th = self.validate(theta)
        p_last = 1.0 - th.sum()
        return np.diag(1.0 / th) + 1.0 / p_last

    def kl_divergence(self, theta_p, theta_q):
        th = self.validate(theta_p, for_sampling=True)
        p = np.append(th, 1.0 - np.sum(th))
        q = self.probs(self.validate(theta_q))
        mask = p > 0
        return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))

    def sufficient_counts(self, xs):
        """Outcome counts, the sufficient statistic for this family."""
        xs = self.check_batch(xs)
        return np.bincount(xs, minlength=self.num_outcomes).astype(float)

    def loglik_hessian(self, theta, xs):
        """Hessian of the summed log likelihood at ``theta``."""
        th = self.validate(theta)
        c = self.sufficient_counts(xs)
        p_last = 1.0 - th.sum()
        h = np.full((self.dim, self.dim), -c[-1] / p_last**2)
        h[np.diag_indices(self.dim)] -= c[:-1] / th**2
        return h


class GaussianIso:
    """Isotropic Gaussian with known unit covariance; the mean is the
    parameter. Scores, information and divergences are all exact."""

    name = "gaussian_iso"

    def __init__(self, dim):
        d = int(dim)
        if d < 1:
            raise ParameterError("gaussian_iso needs dim >= 1")
        self.dim = d

    def validate(self, theta, for_sampling=False):
        th = np.asarray(theta, dtype=float)
        if th.shape != (self.dim,):
            raise ParameterError(f"expected mean of length {self.dim}")
        if not np.all(np.isfinite(th)):
            raise ParameterError("parameters must be finite")
        return th

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
        if n < 0:
            raise ValueError("sample count must be nonnegative")
        th = self.validate(theta)
        r = _as_rng(rng)
        return th + r.standard_normal((int(n), self.dim))

    def n_samples(self, xs):
        return len(xs)

    def analytic_fisher_matrix(self, theta):
        self.validate(theta)
        return np.eye(self.dim)

    def kl_divergence(self, theta_p, theta_q):
        dp = self.validate(theta_p) - self.validate(theta_q)
        return float(0.5 * (dp @ dp))

    def loglik_hessian(self, theta, xs):
        self.validate(theta)
        return -float(len(self.check_batch(xs))) * np.eye(self.dim)


class SoftmaxRegression:
    """Multinomial logistic regression over standard-normal features.

    The parameter vector is the flattened ``(num_classes, feature_dim)``
    weight matrix, so ``dim = num_classes * feature_dim``. Densities and
    scores are conditional on the features; the feature marginal is fixed
    and never modeled. No analytic information matrix is offered, use the
    empirical path.
    """

    name = "softmax_regression"

    def __init__(self, feature_dim, num_classes):
        p, c = int(feature_dim), int(num_classes)
        if p < 1 or c < 2:
            raise ParameterError("need feature_dim >= 1 and num_classes >= 2")
        self.feature_dim = p
        self.num_classes = c
        self.dim = p * c

    def validate(self, theta, for_sampling=False):
        th = np.asarray(theta, dtype=float)
        if th.shape != (self.dim,):
            raise ParameterError(f"expected flattened weights of length {self.dim}")
        if not np.all(np.isfinite(th)):
            raise ParameterError("parameters must be finite")
        return th

    def class_probs(self, theta, zs):
        """Predicted class probabilities for a feature batch, ``(n, c)``."""
        weights = self.validate(theta).reshape(self.num_classes, self.feature_dim)
        logits = np.asarray(zs, dtype=float) @ weights.T
        logits -= logits.max(axis=1, keepdims=True)
        q = np.exp(logits)
        q /= q.sum(axis=1, keepdims=True)
        return q

    def check_batch(self, xs):
        """``(n, feature_dim)`` float features and n integer labels in
        ``[0, num_classes)``; SupportError otherwise."""
        Z, y = xs
        Z = np.asarray(Z, dtype=float)
        y = np.asarray(y)
        if Z.ndim != 2 or Z.shape[1] != self.feature_dim:
            raise SupportError(f"features must be (n, {self.feature_dim})")
        if y.shape != (len(Z),):
            raise SupportError("need one label per feature row")
        if y.size and (y.dtype.kind not in "iu" or y.min() < 0
                       or y.max() >= self.num_classes):
            raise SupportError("label outside class range")
        return Z, y.astype(np.int64)

    def _residuals(self, theta, xs):
        """Checked features and the per-sample class residuals ``e_y - q``."""
        Z, y = self.check_batch(xs)
        r = -self.class_probs(theta, Z)
        r[np.arange(len(y)), y] += 1.0
        return Z, r

    def log_density_batch(self, theta, xs):
        Z, y = self.check_batch(xs)
        q = self.class_probs(theta, Z)
        return np.log(q[np.arange(len(y)), y])

    def score_batch(self, theta, xs):
        Z, r = self._residuals(theta, xs)
        # score for sample i is outer(r_i, z_i) flattened
        return (r[:, :, None] * Z[:, None, :]).reshape(len(Z), self.dim)

    def score_project_batch(self, theta, xs, directions):
        """Per-sample scores projected onto direction columns, ``(n, K)``.

        Avoids materializing the ``(n, dim)`` score matrix: for direction
        ``C`` (reshaped to a weight matrix) the projection of sample ``i``
        is ``r_i . (C z_i)``.
        """
        Z, r = self._residuals(theta, xs)
        dirs = np.asarray(directions, dtype=float)
        out = np.empty((len(Z), dirs.shape[1]))
        for k in range(dirs.shape[1]):
            ck = dirs[:, k].reshape(self.num_classes, self.feature_dim)
            out[:, k] = np.einsum("ij,ij->i", r, Z @ ck.T)
        return out

    def sample(self, theta, n, rng):
        if n < 0:
            raise ValueError("sample count must be nonnegative")
        th = self.validate(theta)
        r = _as_rng(rng)
        Z = r.standard_normal((int(n), self.feature_dim))
        q = self.class_probs(th, Z)
        u = r.random(int(n))
        # label C-1 takes every u past the second-to-last cumulative sum, so
        # a last sum rounded below 1 cannot yield label C
        y = (u[:, None] > q.cumsum(axis=1)[:, :-1]).sum(axis=1)
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
