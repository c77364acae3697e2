"""Command line and config layer.

Runs the CLI in process via main(argv). Covers the schema gate and exit
codes, the bundled configs, output file dialects, and the reproducibility
contract (same config+seed -> byte-identical files, any thread count).
"""

import json
import math
import re

import numpy as np
import pytest

import transferopt.cli
import transferopt.harness
import transferopt.kl
import transferopt.trainer
from transferopt.cli import main
from transferopt.config import (COMMANDS, DEFAULTS, load_schema, resolve_grid,
                                validate_config, verify_claim)
from transferopt.errors import ConfigError
from transferopt.families import SoftmaxRegression
from transferopt.reporting import jsonable, write_csv

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
    "estimator-mean-weight-count": ("verify", _check(
        "estimator-mean", dict(_ENSEMBLE_CFG, weights=[0.5], trials=10,
                               sources=_ENSEMBLE_CFG["sources"] * 2)),
        "/config/weights", ["need one weight per source"]),
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
    "sweep-pinned-weights": ("sweep", dict(
        _WEIGHT_SWEEP, pinned_weights=[0.0]), "/",
        ["'pinned_weights' was unexpected"]),
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
    "short-target-params": ("weights", dict(
        _ENSEMBLE_CFG, target_params=[0.3]), "/target_params",
        ["2 free probabilities"]),
    "source-off-simplex": ("weights", dict(_ENSEMBLE_CFG, sources=[
        _ENSEMBLE_CFG["sources"][0], {"params": [0.9, 0.3], "budget": 100}]),
        "/sources/1/params", ["simplex"]),
    "check-target-off-simplex": ("verify", _check(
        "weight-optimum", dict(_GRID_CHECK, target_params=[0.7, 0.6])),
        "/config/target_params", ["simplex"]),
    "bridge-short-target-params": ("verify", _check(
        "kl-mse-bridge", dict(_BRIDGE, target_params=[0.3])),
        "/config/target_params", ["2 free probabilities"]),
    "train-short-target": ("train", dict(
        _TRAIN, target={"params": [0.1], "n": 30}), "/target/params",
        ["length 2"]),
    "train-long-source": ("train", dict(
        _TRAIN, sources=[{"params": [0.3, 0.0, 0.1], "n": 60}]),
        "/sources/0/params", ["length 2"]),
    "train-short-task": ("train", dict(
        _without(_without(_TRAIN, "target"), "sources"), mode="multi_task",
        tasks=[{"params": [0.1, -0.2], "n": 30}, {"params": [0.3], "n": 30}]),
        "/tasks/1/params", ["length 2"]),
    "asymmetric-fisher-matrix": ("weights", dict(
        load_json(CONFIGS / "weights_golden.json"),
        fisher_matrix=[[1, 0.5], [0, 1]]), "/fisher_matrix", ["symmetric"]),
    "indefinite-fisher-matrix": ("weights", dict(
        load_json(CONFIGS / "weights_golden.json"),
        fisher_matrix=[[1, 2], [2, 1]]), "/fisher_matrix", ["semi-definite"]),
    "fisher-matrix-diagonal-overflow": ("weights", dict(
        load_json(CONFIGS / "weights_golden.json"),
        fisher_matrix=[[1e308, 1.1], [1.1, 3.5]]), "/fisher_matrix",
        ["overflow"]),
    "fisher-matrix-antisymmetric-overflow": ("weights", dict(
        load_json(CONFIGS / "weights_golden.json"),
        fisher_matrix=[[4.2, 1e308], [-1e308, 3.5]]), "/fisher_matrix",
        ["overflow"]),
    "weight-sweep-rule": ("sweep", dict(_WEIGHT_SWEEP, rule=0.25), "/",
                          ["rule"]),
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


def test_a_check_config_is_validated_by_verify_claim_alone(tmp_path,
                                                          capsys):
    cfg = _check("kl-mse-bridge", dict(_BRIDGE, trials=10, bogus=1))
    validate_config("verify", cfg)  # the command's schema sees the envelope
    with pytest.raises(ConfigError, match="bogus") as exc:
        verify_claim("kl-mse-bridge", cfg["config"], 1)
    assert exc.value.field == "/"
    rc, _, err = run(["verify", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "out")], capsys)
    assert rc == 2
    assert err.startswith("config error at /config: ") and "bogus" in err


_SMALL_CHECKS = {
    "weight-optimum": _GRID_CHECK,
    "quantity-monotone": dict(_GRID_CHECK, grid=[0, 750, 1500]),
    "dimension-scaling": _DIMS,
    "plan-beats-random": dict(_ENSEMBLE_CFG, trials=10, random_plans=20,
                              mc_top=2, mc_trials=10),
    "estimator-mean": dict(_ENSEMBLE_CFG, weights=[0.5], trials=10),
    "kl-mse-bridge": dict(_BRIDGE, trials=10),
}


@pytest.mark.parametrize("check", list(_SMALL_CHECKS))
def test_every_check_report_has_the_six_envelope_keys(check):
    report = verify_claim(check, _SMALL_CHECKS[check], 7)
    assert set(report) == {"check", "seed", "verdict", "n_target",
                           "regime_constants", "details"}
    assert report["check"] == check and report["seed"] == 7
    assert report["verdict"] in ("pass", "fail")


def test_check_names_agree_across_schema_harness_and_defaults():
    defs = load_schema("verify")["$defs"]
    names = defs["check_run"]["properties"]["check"]["enum"]
    assert len(set(names)) == len(names)
    assert {k for k in defs if "-" in k} == set(names)
    assert set(transferopt.harness._CHECKS) == set(names)
    assert set(DEFAULTS) - set(COMMANDS) == set(names)
    assert set(_SMALL_CHECKS) == set(names)


@pytest.mark.parametrize("grid, point", [([0, 250.4, 500], "250.4"),
                                         ([0, 0.4, 0.6, 1000], "0.4")])
def test_a_fractional_quantity_grid_point_exits_2_naming_it(
        grid, point, tmp_path, capsys):
    sweep = dict(load_json(CONFIGS / "sweep_quantity.json"), grid=grid)
    check = _check("quantity-monotone", dict(_GRID_CHECK, grid=grid))
    for command, config, field in (("sweep", sweep, "/grid"),
                                   ("verify", check, "/config/grid")):
        rc, _, err = run([command, "--config", write_cfg(tmp_path, config),
                          "--out", str(tmp_path / "out")], capsys)
        assert rc == 2
        assert err.startswith(f"config error at {field}: ")
        assert f"got {point}\n" in err
        assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("name, change, error", [
    ("weights_golden.json", {"budgets": [1e308, 800, 1200]},
     "config error at /budgets/0: 1e+308 is greater than the maximum of "
     "9007199254740992"),
    ("simulate_plan.json", {"n_target": 1e308},
     "config error at /n_target: 1e+308 is greater than the maximum of "
     "9007199254740992"),
    ("sweep_weight.json", {"trials": 1e308},
     "config error at /trials: 1e+308 is greater than the maximum of "
     "9007199254740992"),
    ("sweep_weight.json", {"sources": [{"c": 2.0, "budget": 1e308}]},
     "config error at /sources/0/budget: 1e+308 is greater than the "
     "maximum of 9007199254740992"),
    ("train_two_source.json", {"holdout_n": 1e308},
     "config error at /holdout_n: 1e+308 is greater than the maximum of "
     "9007199254740992"),
    ("sweep_weight.json", {"grid": {"start": 0, "stop": 1e308, "step": 0.5}},
     "config error at /grid: grid point count must be a whole count, got inf"),
    ("sweep_quantity.json", {"grid": [0, 1e308]},
     "config error at /grid: quantity grid point must be at most 2**53, "
     "got 1e+308"),
    ("sweep_quantity.json", {"grid": [-1e308, 100]},
     "config error at /grid: quantity grid point must be at most 2**53 in "
     "magnitude, got -1e+308"),
    ("sweep_weight.json", {"grid": {"start": 2 ** 70, "stop": 2.0,
                                    "step": 0.1}},
     "config error at /grid: grid point count must be at most 2**53 in "
     "magnitude, got -1.180591621898003e+22"),
    ("sweep_weight.json", {"family": {"name": "categorical",
                                      "params": {"num_outcomes": 1e308}}},
     "config error at /family/params/num_outcomes: 1e+308 is greater than "
     "the maximum of 9007199254740992"),
    ("simulate_plan.json", {"family": {"name": "gaussian_iso",
                                       "params": {"dim": 2 ** 70}}},
     "config error at /family/params/dim: 1180591620717411303424 is greater "
     "than the maximum of 9007199254740992"),
    ("train_two_task.json", {"family": {
        "name": "softmax_regression",
        "params": {"feature_dim": 2 ** 70, "num_classes": 3}}},
     "config error at /family/params/feature_dim: 1180591620717411303424 is "
     "greater than the maximum of 9007199254740992"),
    ("train_two_task.json", {"family": {
        "name": "softmax_regression",
        "params": {"feature_dim": 3, "num_classes": 1e308}}},
     "config error at /family/params/num_classes: 1e+308 is greater than "
     "the maximum of 9007199254740992"),
], ids=["budget", "n_target", "trials", "source-budget", "holdout_n",
        "weight-grid", "quantity-grid", "negative-quantity-grid",
        "step-grid-start", "num_outcomes", "dim", "feature_dim",
        "num_classes"])
def test_a_count_above_2_53_exits_2(name, change, error, tmp_path, capsys):
    """Floats past 2**53 are not exact counts: the budget planned the
    wrapped quantity -2**63 and exited 0, the grids traced back with
    OverflowError or exited 2 with numpy's message and no field, and a
    family size exited 2 with no field."""
    config = dict(load_json(CONFIGS / name), **change)
    rc, _, err = run([name.split("_")[0], "--config",
                      write_cfg(tmp_path, config), "--out",
                      str(tmp_path / "out")], capsys)
    assert rc == 2
    assert err.startswith(error + "\n")
    assert not (tmp_path / "out" / "report.json").exists()


def test_a_whole_float_quantity_grid_point_runs(tmp_path, capsys):
    sweep = dict(load_json(CONFIGS / "sweep_quantity.json"),
                 grid=[0, 250.0, 500], trials=10)
    rc, _, _ = run(["sweep", "--config", write_cfg(tmp_path, sweep),
                    "--out", str(tmp_path)], capsys)
    assert rc == 0
    report = load_json(tmp_path / "report.json")
    assert report["results"]["sweep"]["grid"] == [0, 250, 500]


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


def test_config_naming_a_directory_exits_2(tmp_path, capsys):
    rc, _, err = run(["weights", "--config", str(tmp_path),
                      "--out", str(tmp_path / "out")], capsys)
    assert rc == 2
    assert "cannot read config file" in err and str(tmp_path) in err


def test_out_naming_a_file_exits_2_before_the_run(tmp_path, capsys,
                                                    monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    ran = []
    monkeypatch.setitem(transferopt.cli._HANDLERS, "weights",
                        lambda *a: ran.append(a))
    for out in (taken, taken / "sub"):
        rc, _, err = run(["weights", "--config",
                          str(CONFIGS / "weights_golden.json"),
                          "--out", str(out)], capsys)
        assert rc == 2
        assert "--out" in err and str(out) in err
    assert ran == [] and taken.read_text(encoding="utf-8") == ""


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
    assert rc == 2 and "threads must be nonnegative" in err
    rc, _, _ = run(["weights", "--config", path, "--out", str(tmp_path),
                    "--threads", "0"], capsys)
    assert rc == 0


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


@pytest.mark.parametrize("name, path, value", [
    ("train_two_source.json", ("target", "params", 0), 1e308),
    ("weights_golden.json", ("directions", 0, 0), 1e308),
    ("train_two_source.json", ("target", "n"), 2 ** 45),
], ids=["train-logit-overflow", "weights-gram-overflow",
        "train-unallocatable-count"])
def test_overflow_and_an_unallocatable_count_exit_3(name, path, value,
                                                    tmp_path, capsys):
    """A target parameter of 1e308 overflowed the softmax logits while
    the data was drawn, drew labels from NaN probabilities and exited 0
    after a numpy warning; a direction of 1e308 overflowed the gram and
    exited 2 naming no field; a target n of 2**45 traced back with
    numpy's "Unable to allocate 768. TiB"."""
    config = load_json(CONFIGS / name)
    entry = config
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    out = tmp_path / "run"
    rc, _, err = run([name.split("_")[0], "--config",
                      write_cfg(tmp_path, config), "--out", str(out)], capsys)
    assert rc == 3
    assert err.startswith("numerical failure: ")
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


# the one refusal of a Monte Carlo run on a family it cannot simulate
_NO_MONTE_CARLO = ("config error: no sufficient statistic for family "
                   "'softmax_regression' to draw Monte Carlo trials from\n")


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
    assert err.startswith(_NO_MONTE_CARLO)
    assert sampled == []


def test_estimator_mean_rejects_family_without_sufficient_stat_before_sampling(
        tmp_path, capsys, monkeypatch):
    cfg = _check("estimator-mean", {
        "family": {"name": "softmax_regression",
                   "params": {"feature_dim": 2, "num_classes": 2}},
        "target_params": [0.3, 0.4, -0.2, 0.1],
        "n_target": 50,
        "sources": [{"params": [0.2, 0.5, -0.1, 0.0], "budget": 40}],
        "weights": [0.5],
        "trials": 10,
    })
    sampled = []
    monkeypatch.setattr(SoftmaxRegression, "sample",
                        lambda *args: sampled.append(args))
    rc, _, err = run(["verify", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path)], capsys)
    assert rc == 2
    assert err.startswith("config error: no sufficient statistic for "
                          "family 'softmax_regression'")
    assert "trial 0" not in err
    assert sampled == []


def test_bridge_rejects_family_without_closed_forms_before_sampling(
        tmp_path, capsys, monkeypatch):
    # the gate sits in mc_fits itself: watch every draw and every trial's
    # stream instead
    sampled = []
    monkeypatch.setattr(SoftmaxRegression, "sample",
                        lambda *args: sampled.append(args))
    monkeypatch.setattr("transferopt.kl.derive_rng",
                        lambda *args: sampled.append(args))
    cfg = _check("kl-mse-bridge", {
        "family": {"name": "softmax_regression",
                   "params": {"feature_dim": 2, "num_classes": 2}},
        "target_params": [0.3, 0.4, -0.2, 0.1], "n_target": 50,
        "trials": 3000})
    rc, _, err = run(["verify", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path)], capsys)
    assert rc == 2
    assert err.startswith(_NO_MONTE_CARLO)
    assert sampled == []


def test_sweep_without_information_matrix_names_no_other_route(
        tmp_path, capsys):
    cfg = {
        "family": {"name": "softmax_regression",
                   "params": {"feature_dim": 2, "num_classes": 2}},
        "target_params": [0.3, 0.4, -0.2, 0.1], "n_target": 50,
        "sources": [{"params": [0.2, 0.4, -0.1, 0.1], "budget": 50}],
        "axis": "weight", "grid": [0.0, 1.0], "trials": 10,
    }
    rc, _, err = run(["sweep", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path)], capsys)
    assert rc == 2
    assert err.startswith("config error: family 'softmax_regression' has no "
                          "analytic information matrix")
    assert "empirical_fisher" not in err


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


@pytest.mark.parametrize("second", [{"b": 3.5, "a": 2}, {"a": 2},
                                    {"a": 2, "b": 3.5, "c": 0}],
                         ids=["reordered", "missing", "extra"])
def test_write_csv_rejects_a_row_whose_keys_differ_from_the_header(
        second, tmp_path):
    """The header is the first row's keys; another row's keys would shift
    its columns, so nothing is written."""
    path = tmp_path / "rows.csv"
    with pytest.raises(ValueError, match="differ from the header"):
        write_csv(path, [{"a": 1, "b": 2.5}, second])
    assert not path.exists()
    write_csv(path, [{"a": 1, "b": 2.5}, {"a": 2, "b": 3.5}])
    assert path.read_text() == "a,b\n1,2.5\n2,3.5\n"


def test_jsonable_turns_numpy_values_into_strict_json():
    got = jsonable({1: np.array([1.5, np.nan]), "n": np.int64(7),
                    "ok": np.bool_(True), "x": (np.float32(np.inf),)})
    assert got == {"1": [1.5, None], "n": 7, "ok": True, "x": [None]}
    assert [type(got[k]) for k in ("n", "ok")] == [int, bool]


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


def test_train_datasets_never_share_a_stream(tmp_path, capsys, monkeypatch):
    # every dataset has the target's parameters and size, so two datasets
    # drawn from one stream would be equal; nine sources used to put
    # source 8 on the holdout's stream
    seen = {}
    train = transferopt.cli.train_multi_source

    def record(family, target, sources, pretrained, cfg, holdout_data=None):
        seen.update(target=target, sources=sources, holdout=holdout_data)
        return train(family, target, sources, pretrained, cfg,
                     holdout_data=holdout_data)

    monkeypatch.setattr(transferopt.cli, "train_multi_source", record)
    same = {"params": [0.1, -0.2], "n": 40}
    cfg = dict(_TRAIN, target=same, sources=[same] * 9, holdout_n=40)
    assert run(["train", "--config", write_cfg(tmp_path, cfg),
                "--out", str(tmp_path)], capsys)[0] == 0
    data = [seen["target"], *seen["sources"], seen["holdout"]]
    assert len(data) == 11
    for i, a in enumerate(data):
        for b in data[i + 1:]:
            assert not np.array_equal(a, b)


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


def test_train_softmax_above_dimension_200(tmp_path, capsys):
    # d = 25 * 9 = 225: pretraining the source is a Newton fit this wide
    params = [0.1 * (i % 7 - 3) for i in range(225)]
    cfg = dict(_TRAIN,
               family={"name": "softmax_regression",
                       "params": {"feature_dim": 25, "num_classes": 9}},
               target={"params": params, "n": 100},
               sources=[{"params": params, "n": 400}],
               train=dict(_TRAIN["train"], ridge=1e-6),
               pretrain_ridge=1e-6)
    rc, _, err = run(["train", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path)], capsys)
    assert rc == 0, err
    trace = load_json(tmp_path / "report.json")["results"]["trace"]
    assert trace["epochs_run"] == 1


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


_CAT_TRAIN = {
    "mode": "multi_source",
    "family": {"name": "categorical", "params": {"num_outcomes": 3}},
    "target": {"params": [0.3, 0.4], "n": 50},
    "sources": [{"params": [0.32, 0.41], "n": 200}],
    "holdout_n": 100,
    "train": {"learning_rate": 0.1, "epochs": 20},
}

_CAT_TASKS = {
    "mode": "multi_task",
    "family": {"name": "categorical", "params": {"num_outcomes": 3}},
    "tasks": [{"params": [0.3, 0.4], "n": 50},
              {"params": [0.35, 0.4], "n": 80}],
    "holdout_n": 100,
    "train": {"learning_rate": 0.1, "epochs": 20},
}


@pytest.mark.parametrize("config", [_CAT_TRAIN, _CAT_TASKS],
                         ids=["multi_source", "multi_task"])
def test_categorical_training_runs_and_reruns_byte_identical(config, tmp_path,
                                                             capsys):
    """Training started at zeros, off the simplex: exit 2 at epoch 1."""
    path = write_cfg(tmp_path, config)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run(["train", "--config", path, "--out", str(out)],
                   capsys)[0] == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert "report.json" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_a_diverging_step_exits_3_naming_the_epoch(tmp_path, capsys):
    config = dict(_CAT_TRAIN, train={"learning_rate": 5.0, "epochs": 20})
    rc, _, err = run(["train", "--config", write_cfg(tmp_path, config),
                      "--out", str(tmp_path / "out")], capsys)
    assert rc == 3
    assert err.startswith("numerical failure: step left the parameter space "
                          "at epoch 2: probabilities must stay inside")
    assert not (tmp_path / "out" / "report.json").exists()


def test_an_overflowing_gram_exits_3_naming_the_epoch(tmp_path, capsys):
    """The gram overflowed while the iterate was still finite: a
    RuntimeWarning, then exit 2 as ``config error: gram must be finite``."""
    config = {
        "mode": "multi_source",
        "family": {"name": "gaussian_iso", "params": {"dim": 2}},
        "target": {"params": [0.1, -0.2], "n": 30},
        "sources": [{"params": [0.3, 0.0], "n": 60}],
        "holdout_n": 50,
        "train": {"learning_rate": 50, "epochs": 400},
    }
    rc, _, err = run(["train", "--config", write_cfg(tmp_path, config),
                      "--out", str(tmp_path / "out")], capsys)
    assert rc == 3
    assert re.match(r"numerical failure: plan update failed at epoch \d+: "
                    r"information gram is not finite\n", err)
    assert not (tmp_path / "out" / "report.json").exists()


def test_a_step_that_overflows_exits_3_without_a_warning(tmp_path, capsys):
    """With no source there is no re-plan: the step's own gradient and
    norms overflow on a huge finite iterate, which pytest turns into an
    error unless the step silences it and lets validate reject the next
    iterate."""
    config = {
        "mode": "multi_source",
        "family": {"name": "gaussian_iso", "params": {"dim": 2}},
        "target": {"params": [0.1, -0.2], "n": 30},
        "sources": [],
        "holdout_n": 50,
        "train": {"learning_rate": 50, "epochs": 400},
        "seed": 0,
    }
    rc, _, err = run(["train", "--config", write_cfg(tmp_path, config),
                      "--out", str(tmp_path / "out")], capsys)
    assert rc == 3
    assert err.startswith("numerical failure: step left the parameter space "
                          "at epoch 183: parameters must be finite\n")
    assert not (tmp_path / "out" / "report.json").exists()


def _count_replans(monkeypatch):
    calls = []
    real = transferopt.trainer._replan

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr("transferopt.trainer._replan", counted)
    return calls


def test_a_converged_two_source_run_replans_after_every_step_but_the_last(
        tmp_path, capsys, monkeypatch):
    calls = _count_replans(monkeypatch)
    rc, _, _ = run(["train", "--config", str(CONFIGS / "train_two_source.json"),
                    "--out", str(tmp_path), "--format", "json"], capsys)
    assert rc == 0
    trace = load_json(tmp_path / "report.json")["results"]["trace"]
    assert trace["stop_reason"] == "converged"
    assert len(calls) == trace["epochs_run"] - 1


def test_a_converged_two_task_run_replans_after_every_step_but_the_last(
        tmp_path, capsys, monkeypatch):
    """The last task also re-planned after the step that converged the
    epoch, and the loop then discarded that plan."""
    calls = _count_replans(monkeypatch)
    rc, _, _ = run(["train", "--config", str(CONFIGS / "train_two_task.json"),
                    "--out", str(tmp_path), "--format", "json"], capsys)
    assert rc == 0
    traces = load_json(tmp_path / "report.json")["results"]["traces"]
    assert {t["stop_reason"] for t in traces} == {"converged"}
    epochs_run = traces[0]["epochs_run"]
    assert {t["epochs_run"] for t in traces} == {epochs_run}
    assert len(calls) == len(traces) * epochs_run - 1


def test_whole_float_epochs_train(tmp_path, capsys):
    """The schema takes 2.0 as an integer; range() rejected it (exit 1)."""
    config = dict(_TRAIN, train=dict(_TRAIN["train"], epochs=2.0))
    rc, _, _ = run(["train", "--config", write_cfg(tmp_path, config),
                    "--out", str(tmp_path)], capsys)
    assert rc == 0
    assert load_json(tmp_path / "report.json")["results"]["trace"][
        "epochs_run"] == 2


def test_a_linalg_error_exits_3(tmp_path, capsys, monkeypatch):
    """LinAlgError is a ValueError, so it was caught as a config error."""
    def no_eigenvalues(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr("transferopt.cli.optimal_plan", no_eigenvalues)
    rc, _, err = run(["weights", "--config",
                      str(CONFIGS / "weights_golden.json"),
                      "--out", str(tmp_path)], capsys)
    assert rc == 3
    assert err.startswith("numerical failure: Eigenvalues did not converge")


def test_a_library_value_error_is_a_bug_not_a_config_error(tmp_path, capsys,
                                                           monkeypatch):
    """``ValueError`` left the config exits: every field is checked before
    the library runs, so one raised inside it traces back."""
    def broken(*args, **kwargs):
        raise ValueError("a library bug")

    monkeypatch.setattr("transferopt.cli.optimal_plan", broken)
    with pytest.raises(ValueError, match="a library bug"):
        main(["weights", "--config", str(CONFIGS / "weights_golden.json"),
               "--out", str(tmp_path)])
    capsys.readouterr()
    assert not (tmp_path / "report.json").exists()


def test_a_grid_with_step_and_count_exits_2(tmp_path, capsys):
    """``count`` was silently ignored beside ``step``."""
    grid = {"start": 0, "stop": 1, "step": 0.5, "count": 5}
    sweep = dict(load_json(CONFIGS / "sweep_weight.json"), grid=grid)
    check = load_json(CONFIGS / "simulate_check_weight.json")
    check["config"]["grid"] = grid
    for command, config, field in (("sweep", sweep, "/grid"),
                                   ("simulate", check, "/config/grid")):
        rc, _, err = run([command, "--config", write_cfg(tmp_path, config),
                          "--out", str(tmp_path / "out")], capsys)
        assert rc == 2
        assert err.startswith(f"config error at {field}: ")
        assert not (tmp_path / "out" / "report.json").exists()
    with pytest.raises(ConfigError, match="step or count, not both"):
        resolve_grid(grid)
