"""Command line and config layer.

Runs the CLI in process via main(argv). Covers the schema gate and exit
codes, the bundled configs, output file dialects, and the reproducibility
contract (same config+seed -> byte-identical files, any thread count).
"""

import json
import math

import numpy as np
import pytest

import transferopt.cli
import transferopt.harness
import transferopt.kl
from transferopt.cli import main
from transferopt.config import COMMANDS, load_schema, validate_config
from transferopt.errors import ConfigError
from transferopt.families import Categorical, SoftmaxRegression
from transferopt.harness import verify_claim

from helpers import CONFIGS, GOLDEN, load_json, predicted_single_oracle

_BUNDLED = {
    "weights_golden.json": "weights",
    "weights_ensemble.json": "weights",
    "simulate_plan.json": "simulate",
    "simulate_check_weight.json": "simulate",
    "sweep_weight.json": "sweep",
    "sweep_quantity.json": "sweep",
    "train_two_source.json": "train",
    "train_two_task.json": "train",
    "verify_bridge.json": "verify",
}

_ENSEMBLE_CFG = {
    "family": {"name": "categorical", "params": {"num_outcomes": 3}},
    "target_params": [0.3, 0.4],
    "n_target": 2000,
    "sources": [{"c": 1.0, "budget": 1500, "direction_seed": 0}],
}


def write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------- schemas


def test_bundled_configs_validate():
    on_disk = {p.name for p in CONFIGS.glob("*.json")}
    assert on_disk == set(_BUNDLED)
    for name, command in _BUNDLED.items():
        validate_config(command, load_json(CONFIGS / name))


def test_load_schema_rejects_unknown_command():
    with pytest.raises(ValueError, match="unknown command"):
        load_schema("frobnicate")
    assert set(COMMANDS) == set(_BUNDLED.values())


_CAT3 = {"name": "categorical", "params": {"num_outcomes": 3}}
_GRID_CHECK = dict(_ENSEMBLE_CFG, grid=[0.0, 0.5, 1.0], trials=20)
_BRIDGE = {"family": _CAT3, "target_params": [0.3, 0.4], "n_target": 50}
_DIMS = {"dims": [1, 2], "t": 0.01, "n_target": 50, "n_source": 50,
         "trials": 10}
_WEIGHT_SWEEP = dict(_ENSEMBLE_CFG, axis="weight", grid=[0.0, 1.0], trials=10)
_QUANTITY_SWEEP = dict(_ENSEMBLE_CFG, axis="quantity", grid=[0, 1500],
                       trials=10)
_TRAIN = {
    "mode": "multi_source",
    "family": {"name": "gaussian_iso", "params": {"dim": 2}},
    "target": {"params": [0.1, -0.2], "n": 30},
    "sources": [{"params": [0.3, 0.0], "n": 60}],
    "train": {"learning_rate": 0.1, "epochs": 1,
              "weight_update_period": 1, "ridge": 0.0},
    "seed": 5,
}


def _check(name, config):
    return {"check": name, "config": config}


def _without(config, key):
    return {k: v for k, v in config.items() if k != key}


# (command, config, field the message starts at, words it must contain)
_MALFORMED = {
    "unknown-key": ("weights", dict(_ENSEMBLE_CFG, bogus=1), "/", ["bogus"]),
    "family-name": ("weights", dict(_ENSEMBLE_CFG, family={
        "name": "categoricl", "params": {"num_outcomes": 3}}),
        "/family/name", ["categoricl"]),
    "unknown-check": ("verify", _check("made-up-check", {}), "/check", []),
    "check-without-sources": ("verify", _check(
        "weight-optimum", _without(_GRID_CHECK, "sources")),
        "/config", ["sources"]),
    "source-with-only-budget": ("verify", _check(
        "weight-optimum", dict(_GRID_CHECK, sources=[{"budget": 500}])),
        "/config/sources/0", []),
    "misspelled-check-key": ("verify", _check(
        "kl-mse-bridge", dict(_BRIDGE, trails=20)), "/config", ["trails"]),
    "one-trial": ("verify", _check(
        "estimator-mean", dict(_ENSEMBLE_CFG, weights=[0.5], trials=1)),
        "/config/trials", []),
    "trials-not-a-number": ("verify", _check(
        "kl-mse-bridge", dict(_BRIDGE, trials="many")), "/config/trials", []),
    "no-dims": ("verify", _check("dimension-scaling", dict(_DIMS, dims=[])),
                "/config/dims", []),
    "one-dim": ("verify", _check("dimension-scaling", dict(_DIMS, dims=[3])),
                "/config/dims", []),
    "negative-t": ("verify", _check("dimension-scaling", dict(_DIMS, t=-1)),
                   "/config/t", []),
    "no-top-plans": ("verify", _check(
        "plan-beats-random", dict(_ENSEMBLE_CFG, mc_top=0, trials=10)),
        "/config/mc_top", []),
    "one-point-weight-grid": ("verify", _check(
        "weight-optimum", dict(_GRID_CHECK, grid=[0.5])), "/config/grid", []),
    "one-point-step-grid": ("verify", _check(
        "weight-optimum", dict(_GRID_CHECK, grid={
            "start": 0.0, "stop": 0.05, "step": 0.1})), "/config/grid", []),
    "check-source-index-out-of-range": ("verify", _check(
        "weight-optimum", dict(_GRID_CHECK, source_index=5)),
        "/config/source_index", ["out of range"]),
    "check-negative-weight-grid": ("verify", _check(
        "weight-optimum", dict(_GRID_CHECK, grid=[-0.5, 0.5, 1.0])),
        "/config/grid", ["nonnegative"]),
    "check-quantity-past-budget": ("simulate", _check(
        "quantity-monotone", dict(_GRID_CHECK, grid=[0, 5000])),
        "/config/grid", ["budget"]),
    "sweep-source-index-out-of-range": ("sweep", dict(
        _WEIGHT_SWEEP, source_index=5), "/source_index", ["out of range"]),
    "sweep-negative-weight": ("sweep", dict(_WEIGHT_SWEEP, grid=[-0.5, 1.0]),
                              "/grid", ["nonnegative"]),
    "sweep-quantity-past-budget": ("sweep", dict(
        _QUANTITY_SWEEP, grid=[0, 5000]), "/grid", ["budget"]),
    "sweep-pinned-weights-length": ("sweep", dict(
        _WEIGHT_SWEEP, pinned_weights=[0.1, 0.2]), "/pinned_weights", []),
    "one-point-quantity-grid": ("simulate", _check(
        "quantity-monotone", dict(_GRID_CHECK, grid=[100])),
        "/config/grid", []),
    "family-param-string": ("weights", dict(_ENSEMBLE_CFG, family={
        "name": "categorical", "params": {"num_outcomes": "3"}}),
        "/family/params/num_outcomes", []),
    "family-param-fraction": ("weights", dict(_ENSEMBLE_CFG, family={
        "name": "categorical", "params": {"num_outcomes": 3.9}}),
        "/family/params/num_outcomes", []),
    "family-dim-fraction": ("weights", dict(
        _ENSEMBLE_CFG, target_params=[0.1, 0.2],
        family={"name": "gaussian_iso", "params": {"dim": 2.7}}),
        "/family/params/dim", []),
    "seed-over-64-bits": ("weights", dict(_ENSEMBLE_CFG, seed=2 ** 64),
                          "/seed", []),
    "ragged-directions": ("weights", dict(
        load_json(CONFIGS / "weights_golden.json"),
        directions=[[0.05, 0.03], [-0.08], [0.02, -0.04]]),
        "/directions", []),
    "ragged-fisher-matrix": ("weights", dict(
        load_json(CONFIGS / "weights_golden.json"),
        fisher_matrix=[[4.2, 1.1], [1.1]]), "/fisher_matrix", []),
    "infinite-rel-tol": ("verify", _check(
        "kl-mse-bridge", dict(_BRIDGE, rel_tol=math.inf)), "/config/rel_tol",
        ["inf", "finite"]),
    "nan-learning-rate": ("train", dict(_TRAIN, train=dict(
        _TRAIN["train"], learning_rate=math.nan)), "/train/learning_rate",
        ["nan", "finite"]),
    "nan-target-param": ("weights", dict(
        _ENSEMBLE_CFG, target_params=[0.3, math.nan]), "/target_params/1",
        ["nan", "finite"]),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_config_exits_2_naming_the_field(case, tmp_path, capsys,
                                                   monkeypatch):
    command, config, field, words = _MALFORMED[case]
    trials = []
    for module, name in ((transferopt.cli, "mc_expected_kl"),
                         (transferopt.harness, "mc_expected_kl"),
                         (transferopt.harness, "mc_fits"),
                         (transferopt.kl, "mc_fits")):
        monkeypatch.setattr(module, name,
                            lambda *args, **kw: trials.append(args))
    rc, _, err = run([command, "--config", write_cfg(tmp_path, config),
                      "--out", str(tmp_path / "out")], capsys)
    assert rc == 2
    assert err.startswith(f"config error at {field}: ")
    for word in words:
        assert word in err
    assert trials == []
    assert not (tmp_path / "out" / "report.json").exists()


def test_overflowing_literal_exits_2_naming_the_field(tmp_path, capsys):
    # json.load reads 1e999 as inf; the schema's minimum would let it pass
    text = json.dumps(_check("kl-mse-bridge", dict(_BRIDGE, rel_tol="TOL")))
    path = tmp_path / "cfg.json"
    path.write_text(text.replace('"TOL"', "1e999"), encoding="utf-8")
    rc, _, err = run(["verify", "--config", str(path),
                      "--out", str(tmp_path / "out")], capsys)
    assert rc == 2
    assert err.startswith("config error at /config/rel_tol: ")
    assert not (tmp_path / "out" / "report.json").exists()


def test_verify_claim_validates_the_nested_config():
    cfg = dict(_ENSEMBLE_CFG, weights=[0.5], trials=1)
    with pytest.raises(ConfigError) as exc:
        verify_claim("estimator-mean", cfg, 1)
    assert exc.value.field == "/trials"
    with pytest.raises(ConfigError, match="trails"):
        verify_claim("kl-mse-bridge", dict(_BRIDGE, trails=20), 1)


def test_defaults_fill_a_copy_and_are_not_echoed(tmp_path, capsys):
    rc, _, _ = run(["weights", "--config", write_cfg(tmp_path, _ENSEMBLE_CFG),
                    "--out", str(tmp_path)], capsys)
    assert rc == 0
    report = load_json(tmp_path / "report.json")
    assert report["config"] == _ENSEMBLE_CFG
    assert report["seed"] == 0


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc, _, err = run(["weights", "--config", str(tmp_path / "nope.json"),
                      "--out", str(tmp_path)], capsys)
    assert rc == 2
    assert "not found" in err


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    rc, _, err = run(["weights", "--config", str(path),
                      "--out", str(tmp_path)], capsys)
    assert rc == 2
    assert "not valid JSON" in err


def test_explicit_mode_shape_errors_name_field(tmp_path, capsys):
    golden_cfg = load_json(CONFIGS / "weights_golden.json")
    bad = json.loads(json.dumps(golden_cfg))
    bad["fisher_matrix"] = np.eye(3).tolist()
    rc, _, err = run(["weights", "--config", write_cfg(tmp_path, bad),
                      "--out", str(tmp_path)], capsys)
    assert rc == 2 and "/fisher_matrix" in err

    bad = json.loads(json.dumps(golden_cfg))
    bad["budgets"] = [500, 800]
    rc, _, err = run(["weights", "--config", write_cfg(tmp_path, bad, "b.json"),
                      "--out", str(tmp_path)], capsys)
    assert rc == 2 and "/budgets" in err


def test_weights_vector_length_checked(tmp_path, capsys):
    cfg = {
        "family": {"name": "categorical", "params": {"num_outcomes": 3}},
        "target_params": [0.3, 0.4],
        "n_target": 500,
        "sources": [{"params": [0.33, 0.37], "budget": 400},
                    {"params": [0.2, 0.5], "budget": 300}],
        "weights": [0.5],
        "trials": 10,
        "seed": 3,
    }
    rc, _, err = run(["simulate", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path)], capsys)
    assert rc == 2
    assert "/weights" in err


def test_seed_and_threads_option_bounds(tmp_path, capsys):
    path = write_cfg(tmp_path, _ENSEMBLE_CFG)
    rc, _, err = run(["weights", "--config", path, "--out", str(tmp_path),
                      "--seed", str(2 ** 64)], capsys)
    assert rc == 2 and "64-bit" in err
    rc, _, err = run(["weights", "--config", path, "--out", str(tmp_path),
                      "--threads", "-2"], capsys)
    assert rc == 2 and "threads" in err


# ------------------------------------------------------------- exit 3 / 4


def test_unplaceable_source_exits_3(tmp_path, capsys):
    # c=100 cannot be realized inside the categorical parameter region
    bad = json.loads(json.dumps(_ENSEMBLE_CFG))
    bad["sources"][0]["c"] = 100.0
    out = tmp_path / "run"
    rc, _, err = run(["weights", "--config", write_cfg(tmp_path, bad),
                      "--out", str(out)], capsys)
    assert rc == 3
    assert err.startswith("numerical failure")
    assert not (out / "report.json").exists()


def test_failed_check_exits_4(tmp_path, capsys):
    # at n_target=3 the second-order bridge is nowhere near E[KL]
    cfg = {
        "check": "kl-mse-bridge",
        "config": {
            "family": {"name": "categorical", "params": {"num_outcomes": 3}},
            "target_params": [0.3, 0.4],
            "n_target": 3,
            "trials": 300,
            "rel_tol": 0.1,
        },
        "seed": 41,
    }
    out = tmp_path / "run"
    rc, stdout, _ = run(["verify", "--config", write_cfg(tmp_path, cfg),
                         "--out", str(out)], capsys)
    assert rc == 4
    assert "check kl-mse-bridge: fail" in stdout
    report = load_json(out / "report.json")
    assert report["results"]["verdict"] == "fail"
    assert report["results"]["details"]["rel_gap"] > 0.1
    lines = (out / "verdict.csv").read_text().splitlines()
    assert lines[0] == "check,verdict,n_target"
    assert lines[1].split(",")[1] == "fail"


def test_check_dispatch_through_simulate(tmp_path, capsys):
    rc, stdout, _ = run(["simulate", "--config",
                         str(CONFIGS / "simulate_check_weight.json"),
                         "--out", str(tmp_path)], capsys)
    assert rc == 0
    assert "check weight-optimum: pass" in stdout
    report = load_json(tmp_path / "report.json")
    assert report["results"]["check"] == "weight-optimum"
    assert report["results"]["verdict"] == "pass"


def test_simulate_rejects_family_without_divergence_before_sampling(
        tmp_path, capsys, monkeypatch):
    cfg = {
        "family": {"name": "softmax_regression",
                   "params": {"feature_dim": 2, "num_classes": 2}},
        "target_params": [0.3, 0.4, -0.2, 0.1],
        "n_target": 50,
        "sources": [{"params": [0.2, 0.5, -0.1, 0.0], "budget": 40}],
        "weights": [0.5],
        "trials": 10,
        "seed": 7,
    }
    sampled = []
    monkeypatch.setattr(SoftmaxRegression, "sample",
                        lambda *args: sampled.append(args))
    rc, _, err = run(["simulate", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path)], capsys)
    assert rc == 2
    assert err.startswith("config error: no closed-form divergence for "
                          "family 'softmax_regression'")
    assert "trial" not in err
    assert sampled == []


@pytest.mark.parametrize("family, target, cls, missing", [
    ({"name": "softmax_regression",
      "params": {"feature_dim": 2, "num_classes": 2}}, [0.3, 0.4, -0.2, 0.1],
     SoftmaxRegression, "no closed-form divergence for family "
                        "'softmax_regression'"),
    (_CAT3, [0.3, 0.4], Categorical,
     "family 'categorical' has no analytic information matrix"),
], ids=["no-divergence", "no-information-matrix"])
def test_bridge_rejects_family_without_closed_forms_before_sampling(
        family, target, cls, missing, tmp_path, capsys, monkeypatch):
    if cls is Categorical:
        monkeypatch.delattr(Categorical, "analytic_fisher_matrix")
    sampled = []
    monkeypatch.setattr(cls, "sample", lambda *args: sampled.append(args))
    cfg = _check("kl-mse-bridge", {"family": family, "target_params": target,
                                   "n_target": 50, "trials": 3000})
    rc, _, err = run(["verify", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path)], capsys)
    assert rc == 2
    assert err.startswith(f"config error: {missing}")
    assert "trial" not in err
    assert sampled == []


# --------------------------------------------------------- weights command


def test_identical_single_source_gets_unit_weight(tmp_path, capsys):
    cfg = {
        "family": {"name": "categorical", "params": {"num_outcomes": 3}},
        "target_params": [0.3, 0.4],
        "n_target": 900,
        "sources": [{"c": 0.0, "budget": 700}],
        "seed": 4,
    }
    rc, _, _ = run(["weights", "--config", write_cfg(tmp_path, cfg),
                    "--out", str(tmp_path)], capsys)
    assert rc == 0
    report = load_json(tmp_path / "report.json")
    results = report["results"]
    assert results["mode"] == "ensemble"
    assert results["ensemble"]["regime_constants"] == [0.0]
    assert results["plan"]["weights"] == pytest.approx([1.0], abs=1e-10)
    assert results["plan"]["quantities"] == [700]


def test_source_order_only_permutes_the_plan(tmp_path, capsys):
    base = {
        "family": {"name": "categorical", "params": {"num_outcomes": 3}},
        "target_params": [0.3, 0.4],
        "n_target": 1000,
        "sources": [{"params": [0.33, 0.37], "budget": 1200},
                    {"params": [0.2, 0.5], "budget": 800}],
        "seed": 0,
    }
    flipped = json.loads(json.dumps(base))
    flipped["sources"] = flipped["sources"][::-1]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["weights", "--config", write_cfg(tmp_path, base, "a.json"),
                "--out", str(out_a)], capsys)[0] == 0
    assert run(["weights", "--config", write_cfg(tmp_path, flipped, "b.json"),
                "--out", str(out_b)], capsys)[0] == 0
    plan_a = load_json(out_a / "report.json")["results"]["plan"]
    plan_b = load_json(out_b / "report.json")["results"]["plan"]
    assert plan_b["quantities"] == plan_a["quantities"][::-1]
    assert plan_b["alpha"] == pytest.approx(plan_a["alpha"][::-1], abs=1e-8)
    assert plan_b["weights"] == pytest.approx(plan_a["weights"][::-1], abs=1e-8)
    assert plan_b["t"] == pytest.approx(plan_a["t"], rel=1e-12)


def test_golden_plan_reproduced(tmp_path, capsys):
    rc, stdout, _ = run(["weights", "--config",
                         str(CONFIGS / "weights_golden.json"),
                         "--out", str(tmp_path)], capsys)
    assert rc == 0
    frozen = load_json(GOLDEN / "weights_plan.json")
    plan = load_json(tmp_path / "report.json")["results"]["plan"]

    want = frozen["plan"]
    assert plan["quantities"] == want["quantities"]
    assert plan["solver"]["iterations"] == want["solver"]["iterations"]
    for key in ("alpha", "weights"):
        assert plan[key] == pytest.approx(want[key], rel=1e-10)
    for key in ("s", "t"):
        assert plan[key] == pytest.approx(want[key], rel=1e-10)
    for key in ("total", "bias_term", "variance_term"):
        assert plan["predicted_kl"][key] == pytest.approx(
            want["predicted_kl"][key], rel=1e-10)
    assert plan["solver"]["gap"] == pytest.approx(want["solver"]["gap"],
                                                  rel=1e-6, abs=1e-15)

    # the frozen exhaustive grid search brackets the continuous optimum
    brute = frozen["brute_force"]
    assert plan["t"] <= brute["value"] + 1e-12
    assert plan["alpha"] == pytest.approx(brute["alpha"],
                                          abs=2 * brute["step"] + 1e-5)

    lines = (tmp_path / "plan.csv").read_text().splitlines()
    assert lines[0] == "source,alpha,weight,quantity"
    assert len(lines) == 4
    assert "predicted divergence" in stdout


def test_format_flag_selects_outputs(tmp_path, capsys):
    cfg_path = str(CONFIGS / "weights_golden.json")
    out_json = tmp_path / "json_only"
    rc, _, _ = run(["weights", "--config", cfg_path, "--out", str(out_json),
                    "--format", "json"], capsys)
    assert rc == 0
    assert (out_json / "report.json").exists()
    assert not (out_json / "plan.csv").exists()

    out_csv = tmp_path / "csv_only"
    rc, _, _ = run(["weights", "--config", cfg_path, "--out", str(out_csv),
                    "--format", "csv"], capsys)
    assert rc == 0
    assert not (out_csv / "report.json").exists()
    assert (out_csv / "plan.csv").exists()


def test_out_env_var_is_honored(tmp_path, capsys, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("TRANSFEROPT_OUT", str(target))
    rc, _, _ = run(["weights", "--config",
                    str(CONFIGS / "weights_golden.json")], capsys)
    assert rc == 0
    assert (target / "report.json").exists()
    assert (target / "plan.csv").exists()


def test_report_payload_shape(tmp_path, capsys):
    cfg_path = CONFIGS / "weights_golden.json"
    run(["weights", "--config", str(cfg_path), "--out", str(tmp_path)], capsys)
    report = load_json(tmp_path / "report.json")
    assert set(report) == {"command", "config", "seed", "versions", "results"}
    assert report["command"] == "weights"
    assert report["config"] == load_json(cfg_path)
    assert report["seed"] == 0
    assert set(report["versions"]) == {"artifact", "numpy"}


# ----------------------------------------------------------- reproducibility


def test_weights_rerun_byte_identical(tmp_path, capsys):
    cfg_path = str(CONFIGS / "weights_golden.json")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run(["weights", "--config", cfg_path, "--out", str(out)],
                   capsys)[0] == 0
    for name in ("report.json", "plan.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_simulate_rerun_and_thread_count_invariance(tmp_path, capsys):
    cfg_path = str(CONFIGS / "simulate_plan.json")
    outs = [tmp_path / n for n in ("a", "b", "c")]
    for out, extra in zip(outs, ([], ["--threads", "1"], ["--threads", "4"])):
        assert run(["simulate", "--config", cfg_path, "--out", str(out)]
                   + extra, capsys)[0] == 0
    blobs = [(o / "report.json").read_bytes() for o in outs]
    assert blobs[0] == blobs[1] == blobs[2]
    csvs = [(o / "estimate.csv").read_bytes() for o in outs]
    assert csvs[0] == csvs[1] == csvs[2]
    report = load_json(outs[0] / "report.json")
    est = report["results"]["estimate"]
    assert est["trials"] == 400
    assert est["mean"] > 0 and est["std_error"] > 0
    assert "plan" in report["results"]


def test_seed_flag_overrides_config(tmp_path, capsys):
    cfg = {
        "family": {"name": "categorical", "params": {"num_outcomes": 3}},
        "target_params": [0.3, 0.4],
        "n_target": 400,
        "sources": [{"params": [0.33, 0.37], "budget": 300}],
        "weights": [0.5],
        "trials": 40,
        "seed": 7,
    }
    path = write_cfg(tmp_path, cfg)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run(["simulate", "--config", path, "--out", str(out_a)], capsys)
    run(["simulate", "--config", path, "--out", str(out_b), "--seed", "123"],
        capsys)
    rep_a = load_json(out_a / "report.json")
    rep_b = load_json(out_b / "report.json")
    assert rep_a["seed"] == 7 and rep_b["seed"] == 123
    assert rep_a["results"]["estimate"]["mean"] != \
        rep_b["results"]["estimate"]["mean"]
    # explicit weight vector: echoed back, no plan block
    assert rep_a["results"]["weights"] == [0.5]
    assert "plan" not in rep_a["results"]


# ----------------------------------------------------------------- sweeps


def test_sweep_single_point_csv_dialect(tmp_path, capsys):
    cfg = {
        "axis": "weight",
        "family": {"name": "categorical", "params": {"num_outcomes": 3}},
        "target_params": [0.3, 0.4],
        "n_target": 300,
        "sources": [{"params": [0.32, 0.41], "budget": 200}],
        "grid": [0.5],
        "trials": 40,
        "seed": 2,
    }
    rc, stdout, _ = run(["sweep", "--config", write_cfg(tmp_path, cfg),
                         "--out", str(tmp_path), "--gnuplot"], capsys)
    assert rc == 0
    raw = (tmp_path / "sweep_weight.csv").read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "axis_value,mc_mean,mc_stderr,predicted"
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert len(cells) == 4
    assert float(cells[0]) == 0.5
    for cell in cells[1:]:
        assert "." in cell  # full-precision decimal floats, no locale commas
        float(cell)
    assert "weight sweep over 1 points" in stdout

    script = (tmp_path / "sweep_weight.gp").read_text()
    assert "sweep_weight.csv" in script
    assert 'set datafile separator ","' in script


def test_bundled_weight_sweep_predictions_recomputed(tmp_path, capsys):
    rc, _, _ = run(["sweep", "--config", str(CONFIGS / "sweep_weight.json"),
                    "--out", str(tmp_path)], capsys)
    assert rc == 0
    report = load_json(tmp_path / "report.json")
    sweep = report["results"]["sweep"]
    assert sweep["axis"] == "weight"
    assert sweep["grid"] == pytest.approx(np.linspace(0.0, 2.0, 9), abs=0)

    # recompute the predicted column from the recorded draw of the source
    ens = report["results"]["ensemble"]
    theta = np.asarray(ens["target_params"])
    probs = np.append(theta, 1.0 - theta.sum())
    j = np.diag(1.0 / probs[:-1]) + 1.0 / probs[-1]
    u = np.asarray(ens["source_params"][0]) - theta
    t = float(u @ j @ u) / 2.0
    n0, n1 = ens["n_target"], ens["source_budgets"][0]
    for w, predicted in zip(sweep["grid"], sweep["predicted"]):
        want = predicted_single_oracle(n0, n1, w, t, 2)
        assert predicted == pytest.approx(want, rel=1e-10)

    rows = (tmp_path / "sweep_weight.csv").read_text().splitlines()
    assert len(rows) == 10
    # csv column mirrors the report values exactly
    for row, predicted in zip(rows[1:], sweep["predicted"]):
        assert float(row.split(",")[3]) == predicted


def test_bundled_quantity_sweep_monotone(tmp_path, capsys):
    rc, stdout, _ = run(["sweep", "--config",
                         str(CONFIGS / "sweep_quantity.json"),
                         "--out", str(tmp_path)], capsys)
    assert rc == 0
    sweep = load_json(tmp_path / "report.json")["results"]["sweep"]
    assert sweep["axis"] == "quantity"
    assert sweep["grid"] == [0, 100, 250, 500, 750, 1000]
    predicted = np.asarray(sweep["predicted"])
    assert np.all(np.diff(predicted) < 0)
    assert sweep["predicted_argmin"] == len(sweep["grid"]) - 1
    assert (tmp_path / "sweep_quantity.csv").exists()
    assert "quantity sweep over 6 points" in stdout


def test_sweep_rerun_byte_identical(tmp_path, capsys):
    cfg = {
        "axis": "weight",
        "family": {"name": "categorical", "params": {"num_outcomes": 3}},
        "target_params": [0.3, 0.4],
        "n_target": 300,
        "sources": [{"params": [0.32, 0.41], "budget": 200}],
        "grid": {"start": 0.0, "stop": 1.0, "count": 3},
        "trials": 60,
        "seed": 21,
    }
    path = write_cfg(tmp_path, cfg)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out, threads in ((out_a, "1"), (out_b, "3")):
        assert run(["sweep", "--config", path, "--out", str(out),
                    "--threads", threads], capsys)[0] == 0
    assert (out_a / "report.json").read_bytes() == \
        (out_b / "report.json").read_bytes()
    assert (out_a / "sweep_weight.csv").read_bytes() == \
        (out_b / "sweep_weight.csv").read_bytes()


# ------------------------------------------------------------------ train


def test_train_first_epoch_is_target_only(tmp_path, capsys):
    path = write_cfg(tmp_path, _TRAIN)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run(["train", "--config", path, "--out", str(out)],
                   capsys)[0] == 0
    lines = (out_a / "trace.csv").read_text().splitlines()
    assert lines[0] == "epoch,loss,w_1,grad_norm,holdout_nll,holdout_acc"
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "1"
    assert float(cells[2]) == 0.0  # plan kicks in after the first epoch
    for name in ("report.json", "trace.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_report_is_strict_json(tmp_path, capsys):
    # no holdout set (holdout_n defaults to 0), so the holdout metrics are NaN
    assert run(["train", "--config", write_cfg(tmp_path, _TRAIN),
                "--out", str(tmp_path)], capsys)[0] == 0

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    text = (tmp_path / "report.json").read_text(encoding="utf-8")
    trace = json.loads(text, parse_constant=reject)["results"]["trace"]
    assert trace["final_holdout_nll"] is None
    assert trace["final_holdout_acc"] is None


def test_bundled_two_source_training_ranks_sources(tmp_path, capsys):
    rc, stdout, _ = run(["train", "--config",
                         str(CONFIGS / "train_two_source.json"),
                         "--out", str(tmp_path)], capsys)
    assert rc == 0
    trace = load_json(tmp_path / "report.json")["results"]["trace"]
    w_same, w_far = trace["final_weights"]
    assert w_same > w_far  # matching source ends up trusted more
    assert w_same > 0.5 and w_far < 0.2
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert len(lines) == trace["epochs_run"] + 1
    assert "final weights" in stdout


def test_bundled_two_task_training_writes_both_traces(tmp_path, capsys):
    rc, stdout, _ = run(["train", "--config",
                         str(CONFIGS / "train_two_task.json"),
                         "--out", str(tmp_path)], capsys)
    assert rc == 0
    traces = load_json(tmp_path / "report.json")["results"]["traces"]
    assert len(traces) == 2
    for k in (1, 2):
        assert (tmp_path / f"trace_task{k}.csv").exists()
        assert f"task {k}: final loss" in stdout
    # same data-generating params, so the runs end close to each other
    assert traces[0]["final_loss"] == pytest.approx(traces[1]["final_loss"],
                                                    abs=0.1)
