"""Planner contracts: the closed-form weight, the coefficient matrix, the
simplex solver against exhaustive search, and the assembled plans."""

import dataclasses
import time

import numpy as np
import pytest

from transferopt import (
    ConvergenceError,
    ParameterError,
    analytic_fisher,
    build_qp_matrix,
    get_family,
    optimal_plan,
    plan_from_parameters,
    single_source_weight,
    solve_simplex_qp,
)
from transferopt.harness import TaskEnsemble, brute_force_simplex
from transferopt.planner import (
    QpMatrix,
    QpSolution,
    composed_quantity_derivative,
    composed_quantity_objective,
    project_to_simplex,
    qp_from_parameters,
    sub_budget_curve,
)

from helpers import (
    plan_total_oracle,
    predicted_single_oracle,
    qp_matrix_oracle,
    rand_psd,
    simplex_qp_oracle,
)


def qp_from_gram(rng, k, budget_lo=50, budget_hi=4000):
    budgets = rng.integers(budget_lo, budget_hi, k).astype(float)
    d = int(rng.integers(1, 8))
    gram = rand_psd(rng, k) * rng.uniform(0.1, 5.0)
    return QpMatrix(gram, budgets, d)


def test_single_source_weight_closed_values():
    assert single_source_weight(0.0, 123) == 1.0
    assert single_source_weight(1.0 / 500.0, 500) == 0.5
    with pytest.raises(ValueError):
        single_source_weight(-0.1, 10)
    with pytest.raises(ValueError):
        single_source_weight(0.1, 0)


def test_single_source_weight_beats_a_dense_grid():
    """The closed form lands within one grid step of the best weight on
    {0, 0.001, ..., 3}, scored by an independent transcription of the
    prediction formula."""
    n0, n1, t, d = 1000, 500, 0.004, 1
    grid = np.arange(0.0, 3.0001, 0.001)
    vals = np.array([predicted_single_oracle(n0, n1, w, t, d) for w in grid])
    best = grid[int(np.argmin(vals))]
    w_star = single_source_weight(t, n1)
    assert abs(w_star - 1.0 / 3.0) <= 1e-15
    assert abs(best - w_star) <= 0.001 + 1e-12
    assert predicted_single_oracle(n0, n1, w_star, t, d) <= vals.min() + 1e-18


def test_composed_objective_consistency():
    # at each n the composed objective is the prediction at w = 1/(1+tn)
    n0, t, d = 800, 0.002, 3
    for n in [0, 1, 7, 100, 5000]:
        w = 1.0 / (1.0 + t * n)
        want = predicted_single_oracle(n0, n, w, t, d)
        assert abs(composed_quantity_objective(n0, n, t, d) - want) <= 1e-15
    with pytest.raises(ValueError):
        composed_quantity_objective(n0, -1, t, d)


def test_composed_derivative_matches_finite_differences():
    for n0, t, d in [(1000, 0.003, 2), (250, 0.0, 1), (4000, 0.05, 5)]:
        for n in [1.0, 10.0, 350.0, 9000.0]:
            h = 1e-3 * max(1.0, n)
            fd = (composed_quantity_objective(n0, n + h, t, d)
                  - composed_quantity_objective(n0, n - h, t, d)) / (2 * h)
            got = composed_quantity_derivative(n0, n, t, d)
            assert abs(got - fd) <= 1e-6 * abs(fd)
            assert got < 0.0


def test_qp_matrix_small_cases(gauss3):
    # no displacement, one source of 10: M = [[1/10]]
    qp = build_qp_matrix(np.zeros((3, 1)), analytic_fisher(gauss3, np.zeros(3)),
                         np.array([10.0]), 3)
    assert abs(qp.m[0, 0] - 0.1) <= 1e-16 and qp.m.shape == (1, 1)

    # orthogonal columns of norm sqrt(d) under identity information:
    # the gram is d*I so M = diag(1/N) + I exactly
    fam4 = get_family("gaussian_iso", {"dim": 4})
    cols = np.zeros((4, 2))
    cols[0, 0] = 2.0
    cols[1, 1] = 2.0
    qp = build_qp_matrix(cols, analytic_fisher(fam4, np.zeros(4)),
                         np.array([20.0, 80.0]), 4)
    want = np.diag([1 / 20.0, 1 / 80.0]) + np.eye(2)
    assert np.max(np.abs(qp.m - want)) <= 1e-16


def test_qp_matrix_hand_computed(cat3, rng):
    th0 = np.array([0.3, 0.4])
    j = analytic_fisher(cat3, th0)
    cols = 0.02 * rng.standard_normal((2, 3))
    budgets = np.array([500.0, 900.0, 1300.0])
    d = 2
    qp = build_qp_matrix(cols, analytic_fisher(cat3, th0), budgets, d)
    want = np.empty((3, 3))
    for a in range(3):
        for b in range(3):
            acc = 0.0
            for i in range(2):
                for k in range(2):
                    acc += cols[i, a] * j[i, k] * cols[k, b]
            want[a, b] = ((d / budgets[a] if a == b else 0.0) + acc) / d
    assert np.max(np.abs(qp.m - want)) <= 1e-10


_PARAMETER_ENSEMBLES = [
    ("categorical", {"num_outcomes": 3}, [0.3, 0.4],
     [[0.32, 0.37], [0.25, 0.45], [0.3, 0.4]]),
    ("gaussian_iso", {"dim": 3}, [0.1, -0.2, 0.3],
     [[0.4, 0.0, 0.3], [-0.5, 0.2, 0.1], [0.1, -0.2, 0.9]]),
]


@pytest.mark.parametrize("name, params, target, sources", _PARAMETER_ENSEMBLES,
                         ids=["categorical", "gaussian_iso"])
def test_qp_from_parameters_matches_the_closed_form(name, params, target,
                                                    sources):
    budgets = [500, 900, 1300]
    qp = qp_from_parameters(get_family(name, params), target, sources,
                            budgets)
    want = qp_matrix_oracle(name, target, sources, budgets)
    assert np.max(np.abs(qp.m - want)) <= 1e-12 * np.max(np.abs(want))
    assert qp.d == len(target) and np.array_equal(qp.budgets, budgets)


@pytest.mark.parametrize("name, params, target, sources", _PARAMETER_ENSEMBLES,
                         ids=["categorical", "gaussian_iso"])
def test_plan_from_parameters_is_the_plan_of_its_qp(name, params, target,
                                                    sources):
    family, budgets = get_family(name, params), [500, 900, 1300]
    got = plan_from_parameters(family, target, sources, budgets, 400)
    want = optimal_plan(qp_from_parameters(family, target, sources, budgets),
                        n_target=400)
    for f in dataclasses.fields(got):
        a, b = getattr(got, f.name), getattr(want, f.name)
        same = np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
        assert same, f.name


@pytest.mark.parametrize("bad", [[0.7, 0.6], [0.2, 0.3, 0.1]],
                         ids=["off-simplex", "wrong-length"])
def test_plans_reject_a_source_the_family_rejects(cat3, bad):
    """A source is checked by ``family.validate``, as the target is, both
    by a plan and when an ensemble is built; an off-simplex source used
    to plan, a wrong-length one hit numpy."""
    sources, budgets = [[0.32, 0.37], bad], [100, 100]
    with pytest.raises(ParameterError, match="^source 1: "):
        plan_from_parameters(cat3, [0.3, 0.4], sources, budgets, 100)
    with pytest.raises(ParameterError, match="^source 1: "):
        TaskEnsemble(cat3, [0.3, 0.4], 100, sources, budgets)


def test_qp_matrix_rejects_bad_inputs(gauss3):
    fop = analytic_fisher(gauss3, np.zeros(3))
    with pytest.raises(ValueError):
        build_qp_matrix(np.zeros((3, 2)), fop, np.array([10.0, 0.5]), 3)
    with pytest.raises(ValueError):
        build_qp_matrix(np.zeros((3, 1)), fop, np.array([10.0, 20.0]), 3)
    # the gram alone goes to QpMatrix: build_qp_matrix needs directions
    with pytest.raises(ValueError, match="one column per source"):
        build_qp_matrix(None, np.eye(3), np.array([10.0, 20.0]), 3)


def test_qp_matrix_type_invariants():
    budgets = np.array([10.0, 10.0])
    good = np.diag([0.2, 0.2])
    # M is derived from the gram: (diag(d/N) + G)/d
    qp = QpMatrix(np.diag([0.5, 1.0]), np.array([8.0, 4.0]), 2)
    assert np.array_equal(qp.m, np.diag([0.375, 0.75]))
    with pytest.raises(ValueError, match="symmetric"):
        QpMatrix(np.array([[0.2, 0.1], [0.0, 0.2]]), budgets, 1)
    with pytest.raises(ValueError, match="semi-definite"):
        QpMatrix(np.array([[0.3, 0.4], [0.4, 0.3]]), budgets, 1)
    # a NaN entry fails none of the comparisons above, so it is named first
    with pytest.raises(ValueError, match="finite"):
        QpMatrix(np.full((2, 2), np.nan), budgets, 1)
    with pytest.raises(ValueError, match="budget"):
        QpMatrix(good, np.array([10.0]), 1)
    with pytest.raises(ValueError, match="square"):
        QpMatrix(np.ones((2, 3)), budgets, 1)
    with pytest.raises(ValueError, match=">= 1"):
        QpMatrix(good, np.array([10.0, 0.0]), 1)
    for bad in ([1200.7, 800.0], [10.0, 0.5], [10.0, np.inf], [10.0, np.nan]):
        with pytest.raises(ValueError, match="whole count"):
            QpMatrix(good, np.array(bad), 1)


def test_fractional_budgets_are_rejected_not_truncated(gauss3):
    # a plan for budgets 1200.7 and 800.4 would report quantities 1200 and
    # 800, so w * q / s would no longer be its shares
    with pytest.raises(ValueError, match="whole count"):
        plan_from_parameters(gauss3, np.zeros(3),
                             [np.full(3, 0.05), np.full(3, -0.1)],
                             [1200.7, 800.4], 1000)


def test_project_to_simplex(rng):
    for _ in range(50):
        v = rng.standard_normal(int(rng.integers(1, 9))) * 3.0
        p = project_to_simplex(v)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p >= 0.0)
    # already on the simplex: unchanged
    q = project_to_simplex(np.array([0.2, 0.5, 0.3]))
    assert np.max(np.abs(q - [0.2, 0.5, 0.3])) <= 1e-15


def test_solver_trivial_and_diagonal_cases():
    sol = solve_simplex_qp(np.array([[0.37]]))
    assert np.array_equal(sol.alpha, [1.0]) and sol.value == 0.37

    sol = solve_simplex_qp(np.diag([1.0, 2.0]))
    assert np.max(np.abs(sol.alpha - [2 / 3, 1 / 3])) <= 1e-10
    assert abs(sol.value - 2.0 / 3.0) <= 1e-12

    # diagonal instances minimize at shares proportional to 1/M_ii
    rng = np.random.default_rng(77)
    for _ in range(10):
        dvals = rng.uniform(0.05, 3.0, int(rng.integers(2, 6)))
        want = (1.0 / dvals) / (1.0 / dvals).sum()
        got = solve_simplex_qp(np.diag(dvals)).alpha
        assert np.max(np.abs(got - want)) <= 1e-8


def test_solver_matches_brute_force(rng):
    for _ in range(20):
        m = rand_psd(rng, 4)
        sol = solve_simplex_qp(m)
        assert abs(sol.alpha.sum() - 1.0) <= 1e-10
        assert np.all(sol.alpha >= -1e-15)
        _, grid_val = brute_force_simplex(m, 1e-3)
        assert sol.value <= grid_val + 1e-6
        # the certificate: solver value can't beat the true minimum by more
        # than its own gap tolerance
        assert sol.value >= grid_val - 1e-6


def test_solver_matches_support_enumeration(rng):
    """K = 5..12 plan matrices against the exact optimum found by
    enumerating supports, two instances per K."""
    for k in list(range(5, 13)) * 2:
        m = qp_from_gram(rng, k).m
        want_alpha, want_val = simplex_qp_oracle(m)
        sol = solve_simplex_qp(m)
        assert sol.value == pytest.approx(want_val, rel=1e-10)
        assert np.max(np.abs(sol.alpha - want_alpha)) <= 1e-8


@pytest.mark.parametrize("bad, what", [
    (np.array([[1.0, np.nan], [np.nan, 1.0]]), "finite"),
    (np.array([[1.0, 0.0], [0.0, np.inf]]), "finite"),
    (np.ones((2, 3)), "square"),
    (np.ones(3), "square"),
    (np.ones((2, 2, 2)), "square"),
    (np.zeros((0, 0)), "nonempty"),
])
def test_solver_rejects_malformed_matrices(bad, what):
    with pytest.raises(ValueError, match=what):
        solve_simplex_qp(bad)


def test_solver_reports_convergence_failure(rng, monkeypatch):
    m = rand_psd(rng, 3)
    monkeypatch.setattr("transferopt.planner.QP_MAX_ITER", 1)
    with pytest.raises(ConvergenceError) as exc:
        solve_simplex_qp(m)
    err = exc.value
    assert err.last_iterate is not None
    assert abs(err.last_iterate.sum() - 1.0) <= 1e-10
    assert err.residual > 0


def test_flat_objective_is_deterministic():
    # every point of the simplex scores 1; compare objectives, not the
    # particular minimizer, and demand run-to-run identity
    m = np.ones((2, 2))
    a = solve_simplex_qp(m)
    b = solve_simplex_qp(m)
    assert abs(a.value - 1.0) <= 1e-12
    assert np.array_equal(a.alpha, b.alpha) and a.value == b.value


def test_plan_shape_invariants(rng):
    for _ in range(10):
        k = int(rng.integers(1, 6))
        qp = qp_from_gram(rng, k)
        plan = optimal_plan(qp, n_target=1000)
        assert abs(plan.alpha.sum() - 1.0) <= 1e-10
        assert np.max(np.abs(plan.weights - plan.s * plan.alpha / qp.budgets)) \
            <= 1e-10
        assert np.array_equal(plan.quantities, qp.budgets.astype(int))
        assert plan.t > 0 and plan.s == 1.0 / plan.t
        # the predicted optimum collapses to (d/2) / (N0 + 1/t*)
        want = 0.5 * qp.d / (1000.0 + plan.s)
        assert abs(plan.predicted_kl.total - want) <= 1e-12 * want


def test_plan_single_source_reduces_to_closed_form(gauss3, rng):
    # homogeneous source: t* = 1/N1, s* = N1, weight exactly 1
    plan = plan_from_parameters(gauss3, np.zeros(3), [np.zeros(3)],
                                np.array([700.0]), 900)
    assert abs(plan.t - 1.0 / 700.0) <= 1e-15
    assert abs(plan.s - 700.0) <= 1e-9
    assert abs(plan.weights[0] - 1.0) <= 1e-10

    for _ in range(50):
        n1 = int(rng.integers(5, 5000))
        shift = rng.standard_normal(3) * rng.uniform(0.0, 0.3)
        plan = plan_from_parameters(gauss3, np.zeros(3), [shift],
                                    np.array([float(n1)]), 1000)
        t_ss = float(shift @ shift) / 3.0
        want = single_source_weight(t_ss, n1)
        assert abs(plan.weights[0] - want) <= 1e-10


def test_plan_beats_random_weightings(rng):
    qp = qp_from_gram(rng, 3)
    n0 = 1500
    plan = optimal_plan(qp, n_target=n0)
    draws = rng.uniform(0.0, 3.0, size=(10_000, 3))
    masses = draws * qp.budgets
    best = min(plan_total_oracle(n0, b, qp.m, qp.d) for b in masses)
    assert plan.predicted_kl.total <= best + 1e-15


def test_plan_is_globally_optimal_on_a_dense_grid(rng):
    """Predicted total at the plan is at or below every point of a 50^K
    weight grid spanning [0, 3 w_i*] per axis, K = 2 and 3."""
    for k in (2, 3):
        qp = qp_from_gram(rng, k, budget_lo=200, budget_hi=2000)
        n0 = 1200
        plan = optimal_plan(qp, n_target=n0)
        axes = [np.linspace(0.0, 3.0 * max(w, 1e-3), 50) for w in plan.weights]
        mesh = np.meshgrid(*axes, indexing="ij")
        ws = np.stack([g.ravel() for g in mesh], axis=1)
        b = ws * qp.budgets
        s = b.sum(axis=1)
        quad = np.einsum("ni,ij,nj->n", b, qp.m, b)
        totals = 0.5 * qp.d * (n0 + quad) / (n0 + s) ** 2
        assert plan.predicted_kl.total <= totals.min() + 1e-9


def test_weight_monotone_in_distance_and_budget(gauss3):
    v = np.array([0.6, -0.8, 0.0])
    lam_weights = []
    for lam in (0.1, 0.2, 0.4, 0.8):
        plan = plan_from_parameters(gauss3, np.zeros(3), [lam * v],
                                    np.array([800.0]), 1000)
        lam_weights.append(plan.weights[0])
    assert np.all(np.diff(lam_weights) < 0)

    n_weights = []
    for n1 in (100, 500, 2000, 8000):
        plan = plan_from_parameters(gauss3, np.zeros(3), [0.2 * v],
                                    np.array([float(n1)]), 1000)
        n_weights.append(plan.weights[0])
    assert np.all(np.diff(n_weights) < 0)


def test_plan_is_permutation_equivariant(rng):
    k = 4
    gram = rand_psd(rng, k)
    budgets = rng.integers(100, 3000, k).astype(float)
    d = 3
    base = optimal_plan(QpMatrix(gram, budgets, d), n_target=2000)
    perm = rng.permutation(k)
    qp_p = QpMatrix(gram[np.ix_(perm, perm)], budgets[perm], d)
    permuted = optimal_plan(qp_p, n_target=2000)
    assert np.max(np.abs(permuted.alpha - base.alpha[perm])) <= 1e-8
    assert np.max(np.abs(permuted.weights - base.weights[perm])) <= 1e-8
    assert abs(permuted.t - base.t) <= 1e-12


def test_farther_duplicate_source_never_gets_more_share(gauss3):
    """Two sources along the same direction with equal budgets: the one at
    twice the distance must not receive a larger share."""
    u = np.array([0.5, 0.5, 0.0])
    w = np.array([0.1, -0.2, 0.3])
    for scale in (1.5, 2.0, 4.0):
        plan = plan_from_parameters(
            gauss3, np.zeros(3), [u, scale * u, w],
            np.array([1000.0, 1000.0, 1000.0]), 1500)
        assert plan.alpha[1] <= plan.alpha[0] + 1e-12


def test_qp_value_lower_bound(rng):
    # t* >= 1/(K max_i N_i) since M_ii >= 1/N_i
    for _ in range(20):
        k = int(rng.integers(1, 6))
        qp = qp_from_gram(rng, k)
        plan = optimal_plan(qp, n_target=500)
        assert plan.t >= 1.0 / (k * qp.budgets.max()) - 1e-15


def test_solver_scales_to_k64(rng):
    a = rng.standard_normal((64, 64))
    m = a.T @ a / 64 + 0.05 * np.eye(64)
    start = time.perf_counter()
    sol = solve_simplex_qp(m)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert abs(sol.alpha.sum() - 1.0) <= 1e-10


def test_optimal_plan_rejects_degenerate_value(rng, monkeypatch):
    # a bare array has no budgets or dimension to plan with
    with pytest.raises(ValueError, match="QpMatrix"):
        optimal_plan(np.zeros((2, 2)), n_target=100)
    # a valid QpMatrix has t* >= min 1/N_i > 0, so t* <= 0 is a solver fault
    monkeypatch.setattr(
        "transferopt.planner.solve_simplex_qp",
        lambda m: QpSolution(np.array([0.5, 0.5]), 0.0, 1, 0.0))
    with pytest.raises(ConvergenceError) as exc:
        optimal_plan(qp_from_gram(rng, 2), n_target=100)
    assert exc.value.residual == 0.0


def test_sub_budget_curve_is_monotone(rng):
    qp = qp_from_gram(rng, 3, budget_lo=500, budget_hi=3000)
    curve = sub_budget_curve(qp, 1000, [0.1, 0.25, 0.5, 0.75, 1.0])
    totals = [v for _, v in curve]
    assert np.all(np.diff(totals) <= 1e-12)
    with pytest.raises(ValueError):
        sub_budget_curve(qp, 1000, [0.0])
    with pytest.raises(ValueError):
        sub_budget_curve(qp.m, 1000, [0.5])


def test_full_budgets_never_lose_to_any_sub_budgets(rng):
    """Using every sample of every source is optimal: for random sub-budgets
    1 <= n_i <= N_i, not only a common fraction of every budget, the plan
    on the full budgets predicts no larger divergence."""
    for _ in range(200):
        k = int(rng.integers(1, 7))
        qp = qp_from_gram(rng, k, budget_lo=1, budget_hi=4000)
        n0 = int(rng.integers(1, 4000))
        sub = rng.integers(1, qp.budgets.astype(int) + 1)
        full = optimal_plan(qp, n0).predicted_kl.total
        part = optimal_plan(QpMatrix(qp.gram, sub, qp.d), n0)
        assert full <= part.predicted_kl.total * (1 + 1e-9)


def test_plan_json_payload_shape(rng):
    plan = optimal_plan(qp_from_gram(rng, 2), n_target=800)
    payload = plan.to_json_dict()
    assert set(payload) == {"alpha", "weights", "quantities", "s", "t",
                            "predicted_kl", "solver"}
    assert set(payload["solver"]) == {"iterations", "gap"}
    assert set(payload["predicted_kl"]) == {"variance_term", "bias_term",
                                            "total"}
