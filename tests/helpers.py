"""Independent oracles shared across the test modules.

Everything here is written from the closed forms directly, without calling
into the package, so a transcription slip in the library cannot hide. The
exceptions: ``sampled_fits`` runs the package's per-sample path as the
oracle for its sufficient-statistic draws, and ``weighted_loglik_oracle``
and ``empirical_fisher`` sum a family's own per-sample log densities and
scores. Keep these dumb and obvious.
"""

import itertools
import json
from pathlib import Path

import numpy as np

from transferopt.rng import derive_rng
from transferopt.weighted_mle import fit_weighted_mle

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"


def predicted_single_oracle(n0, n1, w, t, d):
    # independent transcription of the single-source prediction
    denom = (n0 + w * n1) ** 2
    return 0.5 * d * ((n0 + w * w * n1) / denom + w * w * n1 * n1 * t / denom)


def predicted_multi_oracle(n0, s, t, d):
    # independent transcription of the multi-source prediction at mass s
    denom = (n0 + s) ** 2
    return 0.5 * d * (n0 / denom + s * s * t / denom)


def plan_total_oracle(n0, b, m, d):
    """Objective at raw masses b_i = w_i N_i, eliminating alpha.

    alpha = b/s with s = sum(b) gives t = b'Mb / s^2, so the predicted
    total collapses to (d/2) (n0 + b'Mb) / (n0 + s)^2.
    """
    b = np.asarray(b, dtype=float)
    s = b.sum()
    if s == 0:
        return 0.5 * d / n0
    return 0.5 * d * (n0 + b @ m @ b) / (n0 + s) ** 2


def active_set_oracle(n0, w, n, gram, d):
    """``plan_total_oracle`` at weights ``w`` and quantities ``n``, on the
    sources with positive weight and quantity only, with M built there
    from the gram as (diag(d/n) + G)/d."""
    w = np.asarray(w, dtype=float)
    n = np.asarray(n, dtype=float)
    act = np.nonzero((w > 0) & (n > 0))[0]
    m = (np.diag(d / n[act]) + np.asarray(gram)[np.ix_(act, act)]) / d
    return plan_total_oracle(n0, w[act] * n[act], m, d)


def analytic_fisher_oracle(name, theta):
    """Information matrix from its closed form, entry by entry: for
    ``categorical`` in the free probabilities p_1..p_{K-1}, 1/p_i on the
    diagonal plus 1/p_K everywhere; for unit-variance ``gaussian_iso``,
    the identity."""
    th = np.asarray(theta, dtype=float)
    d = len(th)
    p_last = 1.0 - th.sum()
    j = np.zeros((d, d))
    for i in range(d):
        for k in range(d):
            if name == "categorical":
                j[i, k] = (1.0 / th[i] if i == k else 0.0) + 1.0 / p_last
            else:
                j[i, k] = 1.0 if i == k else 0.0
    return j


def categorical_score_oracle(theta, x):
    """Score of outcome ``x`` in the free probabilities p_1..p_{K-1}:
    e_x / p_x for a free outcome, -1/p_K in every coordinate for the
    implied one."""
    th = np.asarray(theta, dtype=float)
    d = len(th)
    if x == d:
        p_last = 1.0 - th.sum()
        return np.full(d, -1.0 / p_last)
    g = np.zeros(d)
    g[x] = 1.0 / th[x]
    return g


def qp_matrix_oracle(name, target, sources, budgets):
    """M = (diag(d/N) + Theta^T J Theta)/d entry by entry, the columns of
    Theta the displacements theta_i - theta_0 and J the closed-form
    information at the target."""
    th0 = np.asarray(target, dtype=float)
    cols = [np.asarray(p, dtype=float) - th0 for p in sources]
    j = analytic_fisher_oracle(name, th0)
    d, k = len(th0), len(cols)
    m = np.empty((k, k))
    for a in range(k):
        for b in range(k):
            acc = 0.0
            for i in range(d):
                for l in range(d):
                    acc += cols[a][i] * j[i, l] * cols[b][l]
            m[a, b] = ((d / budgets[a] if a == b else 0.0) + acc) / d
    return m


def rand_psd(rng, k):
    a = rng.standard_normal((k, k))
    return a.T @ a / k


def naive_simplex_minimum(m, step):
    """Plain full enumeration of the lattice simplex, no shortcuts."""
    r = int(round(1.0 / step))
    k = m.shape[0]
    best_alpha, best_val = None, np.inf
    for head in itertools.product(range(r + 1), repeat=k - 1):
        used = sum(head)
        if used > r:
            continue
        alpha = np.asarray(head + (r - used,), dtype=float) / r
        val = float(alpha @ m @ alpha)
        if val < best_val:
            best_val = val
            best_alpha = alpha
    return best_alpha, best_val


def simplex_qp_oracle(m):
    """Exact minimum of alpha' M alpha on the simplex for positive definite
    M, by support enumeration: on each support S, alpha_S is proportional
    to the solution x of M_SS x = 1, kept when x > 0; the best kept value
    is the optimum. Returns (alpha, value)."""
    k = m.shape[0]
    best_alpha, best_val = None, np.inf
    for size in range(1, k + 1):
        for support in itertools.combinations(range(k), size):
            idx = np.array(support)
            x = np.linalg.solve(m[np.ix_(idx, idx)], np.ones(size))
            if np.any(x <= 0):
                continue
            alpha = np.zeros(k)
            alpha[idx] = x / x.sum()
            val = float(alpha @ m @ alpha)
            if val < best_val:
                best_alpha, best_val = alpha, val
    return best_alpha, best_val


def fd_gradient(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def weighted_loglik_oracle(family, theta, target, sources=(), weights=(),
                           ridge=0.0):
    """Weighted log likelihood minus ``ridge * |theta|^2``, summed from the
    family's per-sample log densities block by block, every block
    evaluated whatever its weight."""
    th = np.asarray(theta, dtype=float)
    total = np.sum(family.log_density_batch(th, target))
    for xs, w in zip(sources, weights, strict=True):
        total += w * np.sum(family.log_density_batch(th, xs))
    return float(total - ridge * (th @ th))


def empirical_fisher(family, theta, samples):
    """Dense empirical information: the average outer product of the
    per-sample scores at ``theta``, symmetrized. The oracle for the
    package's projected path, ``projected_gram``."""
    s = family.score_batch(theta, samples)
    m = (s.T @ s) / len(s)
    return 0.5 * (m + m.T)


def softmax_hessian_oracle(feature_dim, num_classes, theta, zs):
    """Summed log-likelihood hessian of softmax regression, one sample at a
    time: the sum over samples of -(diag(q) - q q^T) kron (z z^T)."""
    wmat = np.asarray(theta, dtype=float).reshape(num_classes, feature_dim)
    d = num_classes * feature_dim
    h = np.zeros((d, d))
    for z in np.asarray(zs, dtype=float).reshape(-1, feature_dim):
        logits = wmat @ z
        q = np.exp(logits - logits.max())
        q /= q.sum()
        a = np.diag(q) - np.outer(q, q)
        h -= np.kron(a, np.outer(z, z))
    return h


def softmax_probs_row_major(theta, zs, num_classes):
    """Class probabilities sample-major, reducing along each ``(n, c)`` row:
    the package's former ``class_probs``, kept as the reference for its
    class-major form."""
    zs = np.asarray(zs, dtype=float)
    weights = np.asarray(theta, dtype=float).reshape(num_classes, -1)
    logits = zs @ weights.T
    logits -= logits.max(axis=1, keepdims=True)
    q = np.exp(logits)
    q /= q.sum(axis=1, keepdims=True)
    return q


def softmax_sample_row_major(theta, n, rng, num_classes, feature_dim):
    """Softmax draws as the package made them sample-major: features, then
    one uniform per row against its cumulative class probabilities."""
    zs = rng.standard_normal((n, feature_dim))
    q = softmax_probs_row_major(theta, zs, num_classes)
    u = rng.random(n)
    return zs, (u[:, None] > q.cumsum(axis=1)[:, :-1]).sum(axis=1)


def seedsequence_rng(*path):
    """The stream ``derive_rng`` is defined as, built by NumPy itself: the
    seed is the ``SeedSequence`` entropy and the tags its spawn key, two
    32-bit words per tag, low word first."""
    tags = tuple(w for q in path[1:] for w in (q % 2 ** 32, q // 2 ** 32))
    seq = np.random.SeedSequence(path[0], spawn_key=tags)
    return np.random.Generator(np.random.Philox(seq))


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def sampled_fits(family, target_params, n_target, sources, trials, seed):
    """Monte Carlo fits the long way: trial i draws every target and source
    sample from stream (seed, i) and fits the weighted MLE to the samples.
    ``sources`` holds ``(params, quantity, weight)`` triples."""
    fits = []
    for i in range(trials):
        rng = derive_rng(seed, i)
        target = family.sample(target_params, n_target, rng)
        blocks = [family.sample(p, n, rng) for p, n, _ in sources]
        fits.append(fit_weighted_mle(family, target, blocks,
                                     [w for _, _, w in sources]))
    return np.array(fits)
