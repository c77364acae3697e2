"""Acceptance gate: twelve numbered end-to-end criteria.

Each test prints exactly one "criterion N: PASS/FAIL" line (visible with
pytest -s; the verbose test names carry the same numbering). Statistical
instances were measured across seeds before the seeds below were frozen;
every tolerance is stated inline at its assertion.
"""

import math
import time

import numpy as np

from transferopt.cli import main as cli_main
from transferopt.config import build_ensemble, verify_claim
from transferopt.families import get_family
from transferopt.fisher import analytic_fisher, projected_gram
from transferopt.harness import brute_force_simplex, source_scalars
from transferopt.kl import mc_expected_kl, predict_kl_single
from transferopt.planner import (
    QpMatrix,
    composed_quantity_derivative,
    composed_quantity_objective,
    optimal_plan,
    single_source_weight,
    solve_simplex_qp,
)
from transferopt.rng import derive_rng
from transferopt.trainer import (
    TrainConfig,
    pretrain_params,
    train_multi_source,
    train_multi_task,
)

from helpers import CONFIGS, empirical_fisher, load_json


CAT3 = {"name": "categorical", "params": {"num_outcomes": 3}}


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_weight_grid_minimum_matches_closed_form():
    start = time.perf_counter()
    rep = verify_claim("weight-optimum", {
        "family": CAT3,
        "target_params": [0.3, 0.4],
        "n_target": 2000,
        "sources": [{"c": 2.0, "budget": 2000, "direction_seed": 0}],
        "grid": {"start": 0.0, "stop": 2.0, "step": 0.05},
        "trials": 4000,
    }, seed=101)
    elapsed = time.perf_counter() - start
    d = rep["details"]
    # the measured curve must bottom out within +-2 grid steps of the
    # closed-form weight, on its own (no flat-curve fallback), in < 5 min
    ok = (rep["verdict"] == "pass" and d["argmin_within_two_steps"]
          and elapsed < 300.0)
    _report(1, ok, f"measured argmin {d['argmin_steps_off']} steps from "
                   f"w*={d['w_star']:.4f} over 41 grid points, "
                   f"4000 trials/point, {elapsed:.0f}s")


def test_criterion_02_asymptotic_fidelity_improves_with_target_size():
    fam = get_family(**CAT3)
    rows = []
    for n0 in (500, 2000, 8000):
        ens = build_ensemble(fam, {
            "target_params": [0.3, 0.4], "n_target": n0,
            "sources": [{"c": 2.0, "budget": 2000, "direction_seed": 0}],
        }, 31)
        t = float(source_scalars(ens)[0])
        w = single_source_weight(t, 2000)
        pred = predict_kl_single(n0, 2000, w, t, 2).total
        est = mc_expected_kl(ens, [w], [2000], 2000, 31)
        gap = abs(est.mean - pred)
        fidelity = gap <= 3.0 * est.std_error + 0.15 * pred
        rows.append((n0, pred, est, gap / pred, fidelity))
    fid_ok = all(r[4] for r in rows)
    trend_ok = True
    for (n0a, pa, ea, ra, _), (n0b, pb, eb, rb, _) in zip(rows, rows[1:]):
        slack = 3.0 * math.hypot(ea.std_error / pa, eb.std_error / pb)
        if rb > ra + slack:
            trend_ok = False
    gaps = ", ".join(f"N0={r[0]}: {100 * r[3]:.1f}%" for r in rows)
    _report(2, fid_ok and trend_ok,
            f"MC within 3se+15% of the prediction at the optimum and the "
            f"relative gap does not grow with the target size ({gaps})")


def test_criterion_03_more_source_data_never_hurts():
    # exact strict decrease of the re-optimized prediction, n = 1..10^4
    vals = np.array([composed_quantity_objective(1000, n, 0.003, 2)
                     for n in range(1, 10001)])
    strict = bool(np.all(np.diff(vals) < -1e-12))
    zero_t = np.array([composed_quantity_objective(1000, n, 0.0, 2)
                       for n in range(1, 2001)])
    strict = strict and bool(np.all(np.diff(zero_t) < 0))

    # analytic derivative vs central differences of the composed objective
    worst_rel = 0.0
    for n0, t, d in ((100, 0.01, 1), (500, 0.003, 2),
                     (1000, 0.0005, 3), (2000, 0.02, 4)):
        for n in (3.0, 50.0, 700.0):
            h = 1e-4 * n
            fd = (composed_quantity_objective(n0, n + h, t, d)
                  - composed_quantity_objective(n0, n - h, t, d)) / (2 * h)
            an = composed_quantity_derivative(n0, n, t, d)
            worst_rel = max(worst_rel, abs(an - fd) / abs(fd))
    deriv_ok = worst_rel <= 1e-6 and an < 0

    # measured 10-point curve decreases within 3 sigma
    rep = verify_claim("quantity-monotone", {
        "family": CAT3,
        "target_params": [0.3, 0.4],
        "n_target": 1000,
        "sources": [{"c": 1.0, "budget": 10000, "direction_seed": 0}],
        "grid": [1, 2, 5, 10, 50, 100, 500, 1000, 5000, 10000],
        "rule": "optimal",
        "trials": 1500,
    }, seed=43)
    mc_ok = (rep["verdict"] == "pass"
             and rep["details"]["predicted_strictly_decreasing"]
             and rep["details"]["mc_decreasing_within_noise"])
    _report(3, strict and deriv_ok and mc_ok,
            f"prediction strictly decreasing over n=1..10^4, derivative "
            f"matches finite differences to {worst_rel:.1e} rel, 10-point "
            f"MC curve decreasing within noise")


def test_criterion_04_solver_matches_exhaustive_grid():
    rng = np.random.default_rng(20260819)
    start = time.perf_counter()
    worst_gap = -np.inf
    worst_simplex = 0.0
    for i in range(100):
        k = (2, 3, 4)[i % 3]
        a = rng.standard_normal((k, k))
        m = a.T @ a / k
        sol = solve_simplex_qp(m)
        worst_simplex = max(worst_simplex, abs(sol.alpha.sum() - 1.0),
                            float(-sol.alpha.min()))
        _, brute_val = brute_force_simplex(m, 1e-3)
        worst_gap = max(worst_gap, sol.value - brute_val)
    solver_ok = worst_gap <= 1e-6 and worst_simplex <= 1e-10

    worst_diag = 0.0
    for _ in range(15):
        k = int(rng.integers(2, 5))
        diag = rng.uniform(0.2, 3.0, size=k)
        sol = solve_simplex_qp(np.diag(diag))
        expected = (1.0 / diag) / (1.0 / diag).sum()
        worst_diag = max(worst_diag, float(np.abs(sol.alpha - expected).max()))
    elapsed = time.perf_counter() - start
    ok = solver_ok and worst_diag <= 1e-8 and elapsed < 30.0
    _report(4, ok, f"100 random PSD instances: solver minus exhaustive "
                   f"1e-3 grid at most {worst_gap:.1e} (tol 1e-6), simplex "
                   f"residual {worst_simplex:.1e}, diagonal closed form to "
                   f"{worst_diag:.1e}, {elapsed:.1f}s")


def test_criterion_05_single_source_pipeline_reduces_to_closed_form():
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(100):
        n0 = int(rng.integers(50, 5001))
        n1 = int(rng.integers(50, 5001))
        d = int(rng.integers(1, 11))
        t = 0.0 if i % 10 == 0 else float(rng.uniform(0.0, 0.05))
        qp = QpMatrix(np.array([[t * d]]), np.array([n1]), d)
        plan = optimal_plan(qp, n_target=n0)
        closed = single_source_weight(t, n1)
        worst = max(worst, abs(float(plan.weights[0]) - closed))
        assert list(plan.quantities) == [n1]
    _report(5, worst <= 1e-10,
            f"100 single-source instances: pipeline weight matches the "
            f"closed form to {worst:.1e} (tol 1e-10)")


def test_criterion_06_planned_weights_beat_random_search():
    start = time.perf_counter()
    rep = verify_claim("plan-beats-random", {
        "family": CAT3,
        "target_params": [0.3, 0.4],
        "n_target": 4000,
        "sources": [
            {"params": [0.3126491106407421, 0.40948683298050514],
             "budget": 2000},
            {"params": [0.34427188724235731, 0.43320391543176793],
             "budget": 2000},
            {"params": [0.36324555320336754, 0.44743416490252569],
             "budget": 2000},
        ],
        "trials": 5000,
        "random_plans": 10000,
        "mc_top": 10,
        "mc_trials": 200,
    }, seed=23)
    elapsed = time.perf_counter() - start
    d = rep["details"]
    ok = (rep["verdict"] == "pass" and d["beats_all_predictions"]
          and d["within_noise_of_best"] and elapsed < 900.0)
    _report(6, ok, f"plan MC mean {d['plan_mc_mean']:.3e} beats all 10^4 "
                   f"random predictions (min {d['min_random_predicted']:.3e}) "
                   f"and the best random MC within noise "
                   f"(margin {d['margin_sigmas']:.2f} sigma), {elapsed:.0f}s")


def test_criterion_07_weighted_estimator_centers_on_mixture():
    rep = verify_claim("estimator-mean", {
        "family": CAT3,
        "target_params": [0.3, 0.4],
        "n_target": 200,
        "sources": [{"params": [0.5, 0.2], "budget": 300},
                    {"params": [0.25, 0.55], "budget": 150}],
        "weights": [0.7, 0.3],
        "trials": 2000,
    }, seed=29)
    ok = rep["verdict"] == "pass" and rep["details"]["max_sigma"] <= 3.0
    _report(7, ok, f"2000-trial estimator mean within "
                   f"{rep['details']['max_sigma']:.2f} sigma of the "
                   f"weighted mixture per coordinate (tol 3)")


def test_criterion_08_divergence_matches_fisher_mse_bridge():
    bundled = load_json(CONFIGS / "verify_bridge.json")
    rep = verify_claim(bundled["check"], bundled["config"], bundled["seed"])
    d = rep["details"]
    ok = rep["verdict"] == "pass" and d["rel_gap"] <= 0.10
    _report(8, ok, f"5000 trials at n_target=5000: mean divergence "
                   f"{d['mean_divergence']:.4e} vs half Fisher-weighted MSE "
                   f"{d['half_fisher_mse']:.4e}, gap "
                   f"{100 * d['rel_gap']:.2f}% (tol 10%)")


def test_criterion_09_predictions_scale_linearly_with_dimension():
    rep = verify_claim("dimension-scaling", {
        "dims": [1, 2, 4],
        "t": 0.002,
        "n_target": 1000,
        "n_source": 1000,
        "trials": 4000,
    }, seed=19)
    d = rep["details"]
    totals, dims = d["predicted_totals"], d["dims"]
    lin_err = max(abs(tot - dim * totals[0] / dims[0]) / tot
                  for tot, dim in zip(totals, dims))
    ok = rep["verdict"] == "pass" and lin_err <= 1e-12 and d["mc_ratios_ok"]
    _report(9, ok, f"predicted totals linear in d over {dims} to "
                   f"{lin_err:.1e} (tol 1e-12), MC ratios within 3 sigma")


def test_criterion_10_information_matrix_machinery():
    fam = get_family("categorical", {"num_outcomes": 4})
    theta = np.array([0.2, 0.35, 0.3])
    samples = fam.sample(theta, 10 ** 6, np.random.default_rng(5))
    emp = empirical_fisher(fam, theta, samples)
    ana = analytic_fisher(fam, theta)
    entry_rel = float(np.max(np.abs(emp - ana) / np.abs(ana)))
    entries_ok = entry_rel <= 0.05

    rng = np.random.default_rng(11)
    worst = 0.0
    for case in range(100):
        if case % 2 == 0:
            m = int(rng.integers(3, 41))
            probs = rng.uniform(0.5, 1.5, size=m)
            probs /= probs.sum()
            family = get_family("categorical", {"num_outcomes": m})
            th = probs[:-1]
        else:
            f, c = int(rng.integers(1, 11)), int(rng.integers(2, 6))
            family = get_family("softmax_regression",
                                {"feature_dim": f, "num_classes": c})
            th = rng.normal(0.0, 0.5, size=family.dim)
        assert family.dim <= 50
        data = family.sample(th, 300, rng)
        k = int(rng.integers(1, 5))
        dirs = rng.standard_normal((family.dim, k))
        dense = empirical_fisher(family, th, data)
        want = dirs.T @ dense @ dirs
        got = projected_gram(family, th, data, dirs)
        scale = max(1.0, float(np.abs(want).max()))
        worst = max(worst, float(np.abs(got - want).max()) / scale)
    paths_ok = worst <= 1e-10
    _report(10, entries_ok and paths_ok,
            f"10^6-sample empirical information within {100 * entry_rel:.2f}% "
            f"per entry (tol 5%); gram path vs dense path within "
            f"{worst:.1e} at scale on 100 cases (tol 1e-10)")


def test_criterion_11_dynamic_reweighting_learns_source_relevance():
    fam = get_family("softmax_regression",
                     {"feature_dim": 3, "num_classes": 3})
    th_true = np.array([0.8, -0.4, 0.2, -0.6, 0.7, -0.3, -0.2, -0.3, 0.1])
    th_off = np.array([2.0, 0.5, -0.9, -1.4, 1.7, 0.4, -0.6, -2.2, 0.5])

    cfg = TrainConfig(learning_rate=4.0, epochs=400, weight_update_period=1,
                      ridge=1e-6)

    # one matching source, one far source: reweighted training must beat
    # the target-only baseline and rank the matching source higher
    imps, ordered = [], 0
    for s in range(20):
        seed = 1000 + s
        target = fam.sample(th_true, 100, derive_rng(seed, 0))
        sources = [fam.sample(th_true, 2000, derive_rng(seed, 1)),
                   fam.sample(th_off, 2000, derive_rng(seed, 2))]
        holdout = fam.sample(th_true, 2000, derive_rng(seed, 9))
        pre = [pretrain_params(fam, d, ridge=1e-6) for d in sources]
        planned = train_multi_source(fam, target, sources, pre, cfg,
                                     holdout_data=holdout)
        baseline = train_multi_source(fam, target, [], [], cfg,
                                      holdout_data=holdout)
        imps.append(baseline.rows()[-1]["holdout_nll"]
                    - planned.rows()[-1]["holdout_nll"])
        ordered += planned.final_weights[0] > planned.final_weights[1]
    imps = np.asarray(imps)
    t1 = imps.mean() / (imps.std(ddof=1) / math.sqrt(len(imps)))
    alg1_ok = t1 >= 3.0 and ordered >= 18

    # two identical tasks: mutual transfer beats both independent baselines
    task_imps = [[], []]
    for s in range(20):
        seed = 3000 + s
        datasets = [fam.sample(th_true, 100, derive_rng(seed, k))
                    for k in range(2)]
        holdouts = [fam.sample(th_true, 2000, derive_rng(seed, 9000 + k))
                    for k in range(2)]
        traces = train_multi_task(fam, datasets, cfg,
                                  holdouts=holdouts)
        for k in range(2):
            base = train_multi_source(fam, datasets[k], [], [], cfg,
                                      holdout_data=holdouts[k])
            task_imps[k].append(base.rows()[-1]["holdout_nll"]
                                - traces[k].rows()[-1]["holdout_nll"])
    t2 = [float(np.mean(v) / (np.std(v, ddof=1) / math.sqrt(len(v))))
          for v in task_imps]
    alg2_ok = min(t2) >= 3.0
    _report(11, alg1_ok and alg2_ok,
            f"reweighted vs target-only holdout gain {t1:.1f} sigma over 20 "
            f"paired seeds (tol 3) with the matching source ranked higher "
            f"in {ordered}/20 (tol 18); mutual-task gains "
            f"{t2[0]:.1f}/{t2[1]:.1f} sigma (tol 3)")


def _run_into(out_dir, command, cfg_path, extra=()):
    out_dir.mkdir(parents=True, exist_ok=True)
    rc = cli_main([command, "--config", str(cfg_path), "--out", str(out_dir),
                   *extra])
    return rc, {p.name: p.read_bytes() for p in out_dir.iterdir()}


def test_criterion_12_cli_runs_are_byte_reproducible(tmp_path, capsys):
    import json as _json

    inline = {
        "simulate": {
            "family": CAT3, "target_params": [0.3, 0.4], "n_target": 400,
            "sources": [{"params": [0.33, 0.37], "budget": 300}],
            "weights": "optimal", "trials": 60, "seed": 7,
        },
        "sweep": {
            "axis": "weight", "family": CAT3, "target_params": [0.3, 0.4],
            "n_target": 300,
            "sources": [{"params": [0.32, 0.41], "budget": 200}],
            "grid": {"start": 0.0, "stop": 1.0, "count": 3},
            "trials": 60, "seed": 2,
        },
        "train": {
            "mode": "multi_source",
            "family": {"name": "gaussian_iso", "params": {"dim": 2}},
            "target": {"params": [0.1, -0.2], "n": 30},
            "sources": [{"params": [0.3, 0.0], "n": 60}],
            "holdout_n": 50,
            "train": {"learning_rate": 0.1, "epochs": 2,
                      "weight_update_period": 1, "ridge": 0.0},
            "seed": 5,
        },
        "verify": {
            "check": "dimension-scaling",
            "config": {"dims": [1, 2], "t": 0.002, "n_target": 300,
                       "n_source": 300, "trials": 200},
            "seed": 19,
        },
    }
    jobs = {"weights": CONFIGS / "weights_golden.json"}
    for command, cfg in inline.items():
        path = tmp_path / f"{command}.json"
        path.write_text(_json.dumps(cfg), encoding="utf-8")
        jobs[command] = path

    mismatches = []
    for command, cfg_path in jobs.items():
        runs = [_run_into(tmp_path / f"{command}_a", command, cfg_path),
                _run_into(tmp_path / f"{command}_b", command, cfg_path),
                _run_into(tmp_path / f"{command}_t1", command, cfg_path,
                          ("--threads", "1")),
                _run_into(tmp_path / f"{command}_t4", command, cfg_path,
                          ("--threads", "4"))]
        codes = {rc for rc, _ in runs}
        blobs = [files for _, files in runs]
        if codes != {0}:
            mismatches.append(f"{command}: exit codes {sorted(codes)}")
        if not all(b == blobs[0] for b in blobs[1:]):
            mismatches.append(f"{command}: outputs differ across runs")
    capsys.readouterr()  # drop the CLI chatter, keep the verdict line clean
    _report(12, not mismatches,
            "all 5 commands byte-identical across reruns and thread counts"
            if not mismatches else "; ".join(mismatches))
