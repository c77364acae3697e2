"""Choosing source weights and transfer quantities.

Single source: the optimal weight has the closed form 1/(1 + t*N1), where
t is the Fisher-scaled squared distance between source and target divided
by the dimension. Multiple sources: minimize alpha^T M alpha over the
probability simplex, where M couples per-source sampling variance (its
diagonal) with the pairwise direction geometry; the minimizing shares,
together with s* = 1/t*, give every source's weight. Quantities are always
the full budgets, using fewer source samples is never better, and a
diagnostic sub-budget curve lets users watch that monotonicity instead of
trusting it.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ParameterError
from .families import whole_count
from .fisher import analytic_fisher
from .kl import KlPrediction, predict_kl_multi, predict_kl_single

__all__ = [
    "QpMatrix",
    "QpSolution",
    "TransferPlan",
    "single_source_weight",
    "build_qp_matrix",
    "qp_from_parameters",
    "validate_sources",
    "solve_simplex_qp",
    "optimal_plan",
    "plan_from_parameters",
    "sub_budget_curve",
    "composed_quantity_objective",
    "composed_quantity_derivative",
    "project_to_simplex",
    "symmetric_psd",
]

# simplex solver: iteration cap, Frank-Wolfe gap tolerance relative to tr M
QP_MAX_ITER = 200000
QP_GAP_RTOL = 1e-12


def symmetric_psd(m, name):
    """``m`` symmetrized, after checking that it is symmetric and positive
    semi-definite to a gram's tolerances; ValueError otherwise."""
    if not np.isfinite(m).all():
        raise ValueError(f"{name} must be finite")
    if np.max(np.abs(m - m.T)) > 1e-12 * max(1.0, np.max(np.abs(m))):
        raise ValueError(f"{name} must be symmetric")
    m = 0.5 * (m + m.T)
    if np.linalg.eigvalsh(m)[0] < -1e-10 * max(float(np.trace(m)), 0.0):
        raise ValueError(f"{name} must be positive semi-definite")
    return m


@dataclass
class QpMatrix:
    """The K x K quadratic coefficient matrix M = (diag(d/N_i) + G)/d,
    derived from the direction gram G, the budgets N and the dimension d.

    The gram must be finite, symmetric and positive semi-definite (it is
    symmetrized here, the one place a gram is), every budget a whole count
    >= 1 and ``d`` a whole count; ValueError otherwise.
    """

    gram: np.ndarray
    budgets: np.ndarray
    d: int
    m: np.ndarray = field(init=False)

    def __post_init__(self):
        gram = np.asarray(self.gram, dtype=float)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise ValueError("gram must be square")
        self.gram = symmetric_psd(gram, "gram")
        budgets = np.asarray(self.budgets, dtype=float)
        if budgets.shape != (len(gram),):
            raise ValueError("need one budget per row of the gram")
        for n in budgets:
            whole_count(n, "budgets")
        if np.any(budgets < 1):
            raise ValueError(f"budgets must be >= 1, got {budgets.tolist()}")
        self.budgets = budgets
        self.d = whole_count(self.d, "d")
        self.m = (np.diag(self.d / budgets) + self.gram) / float(self.d)


@dataclass
class QpSolution:
    alpha: np.ndarray
    value: float
    iterations: int
    gap: float


@dataclass
class TransferPlan:
    """Weights and quantities for every source, with derived diagnostics."""

    weights: np.ndarray
    quantities: np.ndarray
    alpha: np.ndarray
    s: float
    t: float
    predicted_kl: KlPrediction
    solver_iterations: int = 0
    solver_gap: float = 0.0

    def to_json_dict(self):
        return {
            "alpha": [float(a) for a in self.alpha],
            "weights": [float(w) for w in self.weights],
            "quantities": [int(n) for n in self.quantities],
            "s": float(self.s),
            "t": float(self.t),
            "predicted_kl": {
                "variance_term": float(self.predicted_kl.variance_term),
                "bias_term": float(self.predicted_kl.bias_term),
                "total": float(self.predicted_kl.total),
            },
            "solver": {
                "iterations": int(self.solver_iterations),
                "gap": float(self.solver_gap),
            },
        }


def single_source_weight(t, n_source):
    """Closed-form optimal weight for a single source, 1/(1 + t*N1)."""
    if t < 0 or n_source < 1:
        raise ValueError("need t >= 0 and a positive source budget")
    return 1.0 / (1.0 + float(t) * float(n_source))


def composed_quantity_objective(n_target, n, t, d):
    """Predicted measure at quantity ``n`` with the weight re-optimized
    for that quantity. ``n`` may be any nonnegative real, so the function
    is smooth and finite-difference checks of the derivative apply.
    """
    if n < 0:
        raise ValueError("quantity must be nonnegative")
    w = 1.0 / (1.0 + float(t) * float(n))
    return predict_kl_single(n_target, n, w, t, d).total


def composed_quantity_derivative(n_target, n, t, d):
    """Exact derivative of the composed objective in the quantity.

    Substituting the optimal weight reduces the objective to
    (d/2)(1+t*n)/(N0 + n + N0*n*t), whose derivative is
    -d / (2 (N0 + n + N0*n*t)^2), strictly negative for all n >= 0.
    """
    n0 = float(n_target)
    nn = float(n)
    tt = float(t)
    denom = n0 + nn + n0 * nn * tt
    return -d / (2.0 * denom * denom)


def build_qp_matrix(directions, fisher, budgets, d):
    """QpMatrix of the direction columns Theta against the d x d
    information matrix J, whose gram is Theta^T J Theta."""
    th = np.asarray(directions, dtype=float)
    if th.ndim != 2 or th.shape[1] != np.size(budgets):
        raise ValueError(
            f"directions must have one column per source, got {th.shape}"
        )
    return QpMatrix(th.T @ fisher @ th, budgets, d)


def validate_sources(family, source_params):
    """Each source vector through ``family.validate``; a rejected one
    raises ParameterError naming it (``source i: ...``)."""
    checked = []
    for i, p in enumerate(source_params):
        try:
            checked.append(family.validate(p))
        except ParameterError as err:
            raise ParameterError(f"source {i}: {err}") from err
    return checked


def qp_from_parameters(family, target_params, source_params, budgets):
    """QpMatrix of the displacement columns theta_i - theta_0 against the
    analytic information matrix at the target: every analytic plan's. A
    source that ``family.validate`` rejects raises ParameterError naming it."""
    th0 = np.asarray(target_params, dtype=float)
    cols = [p - th0 for p in validate_sources(family, source_params)]
    return build_qp_matrix(np.stack(cols, axis=1), analytic_fisher(family, th0),
                           budgets, family.dim)


def project_to_simplex(v):
    """Euclidean projection onto the probability simplex (sort based)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > (css - 1.0))[0][-1]
    lam = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - lam, 0.0)


def solve_simplex_qp(m):
    """Minimize alpha^T M alpha over the probability simplex, M an array.

    Accelerated projected gradient with a function-value restart. The step
    is 1/(2L) with L the largest eigenvalue of M, so plans are a
    deterministic function of M alone; termination is on the Frank-Wolfe
    gap ``grad . alpha - min_i grad_i <= QP_GAP_RTOL * trace(M)``, a
    certificate of global optimality for a convex objective on the
    simplex. Past ``QP_MAX_ITER`` iterations it raises ConvergenceError.
    A non-square, empty or non-finite M raises ValueError.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"qp matrix must be square and nonempty, "
                         f"got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("qp matrix must be finite")
    k = m.shape[0]
    if k == 1:
        return QpSolution(np.array([1.0]), float(m[0, 0]), 0, 0.0)
    tol = QP_GAP_RTOL * max(float(np.trace(m)), 0.0)
    step = 1.0 / (2.0 * max(float(np.linalg.eigvalsh(m)[-1]), 1e-30))

    alpha = np.full(k, 1.0 / k)
    y = alpha.copy()
    tk = 1.0
    f_prev = float(alpha @ m @ alpha)
    gap = np.inf
    for it in range(1, QP_MAX_ITER + 1):
        grad_y = 2.0 * (m @ y)
        a_new = project_to_simplex(y - step * grad_y)
        f_new = float(a_new @ m @ a_new)
        grad = 2.0 * (m @ a_new)
        gap = float(grad @ a_new - grad.min())
        if gap <= tol:
            return QpSolution(a_new, f_new, it, gap)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        if f_new > f_prev:  # momentum overshot, restart it
            y = a_new
            tk = 1.0
        else:
            y = a_new + ((tk - 1.0) / t_next) * (a_new - alpha)
            tk = t_next
        alpha = a_new
        f_prev = f_new
    raise ConvergenceError(
        f"simplex qp did not reach tolerance in {QP_MAX_ITER} iterations",
        last_iterate=alpha,
        residual=gap,
    )


def optimal_plan(qp, n_target):
    """Full pipeline: solve for the shares, then s* = 1/t*, then weights.

    ``qp`` is a QpMatrix (an array raises ValueError); the plan uses its
    budgets and d, and quantities are always the full budgets. A solver
    value t* <= 0, impossible for a valid QpMatrix, is a ConvergenceError.
    """
    if not isinstance(qp, QpMatrix):
        raise ValueError("optimal_plan needs a QpMatrix with provenance")
    sol = solve_simplex_qp(qp.m)
    t_star = sol.value
    if t_star <= 0.0:
        raise ConvergenceError("qp value must be positive", residual=t_star)
    s_star = 1.0 / t_star
    weights = s_star * sol.alpha / qp.budgets
    quantities = qp.budgets.astype(int)
    predicted = predict_kl_multi(n_target, weights=weights,
                                 quantities=qp.budgets, gram=qp.gram, d=qp.d)
    return TransferPlan(
        weights=weights,
        quantities=quantities,
        alpha=sol.alpha,
        s=s_star,
        t=t_star,
        predicted_kl=predicted,
        solver_iterations=sol.iterations,
        solver_gap=sol.gap,
    )


def plan_from_parameters(family, target_params, source_params, budgets,
                         n_target):
    """The optimal plan of ``qp_from_parameters``."""
    return optimal_plan(qp_from_parameters(family, target_params,
                                           source_params, budgets),
                        n_target=n_target)


def sub_budget_curve(qp, n_target, fractions):
    """Predicted optimum when only a fraction of each budget may be used.

    For each fraction f the matrix is rebuilt with quantities
    ``max(1, floor(f * N_i))`` and re-solved. The resulting totals are
    nonincreasing in f, which is the observable form of the
    use-all-samples result.
    """
    if not isinstance(qp, QpMatrix):
        raise ValueError("sub_budget_curve needs a QpMatrix with provenance")
    out = []
    for f in fractions:
        if not 0.0 < f <= 1.0:
            raise ValueError("fractions must lie in (0, 1]")
        quant = np.maximum(1, np.floor(f * qp.budgets)).astype(float)
        plan = optimal_plan(QpMatrix(qp.gram, quant, qp.d), n_target=n_target)
        out.append((float(f), plan.predicted_kl.total))
    return out
