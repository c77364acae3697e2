"""The traced run's counters against hand counts on tiny configs."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import transferopt.cli  # noqa: E402
import transferopt.kl  # noqa: E402
from tracer import Tracer  # noqa: E402

CAT3 = {"name": "categorical", "params": {"num_outcomes": 3}}


def _traced_cli(tmp_path, command, config, *extra):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    tracer = Tracer()
    with tracer:
        code = transferopt.cli.main([command, "--config", str(path),
                                     "--out", str(out), "--format", "json",
                                     *extra])
    assert code == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    return tracer, report


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_trials_are_grid_points_times_trials(tmp_path, threads, capsys):
    original = transferopt.kl.mc_expected_kl
    tracer, _ = _traced_cli(tmp_path, "sweep", {
        "axis": "weight", "family": CAT3, "target_params": [0.3, 0.4],
        "n_target": 50, "sources": [{"params": [0.32, 0.41], "budget": 40}],
        "grid": {"start": 0.0, "stop": 1.0, "count": 3}, "trials": 5,
        "seed": 2,
    }, "--threads", threads)
    table = tracer.layer_table()
    assert table["kl.trials"] == 3 * 5
    assert table["kl.mc_expected_kl.calls"] == 3
    assert table["rng.derive_rng.calls"] >= 3 * 5
    # every span but the command itself has a parent, pool threads included
    roots = [s for s in tracer.spans if s[4] == 0]
    assert [s[1] for s in roots] == ["cli.main"]
    assert transferopt.kl.mc_expected_kl is original
    capsys.readouterr()


def test_bridge_closed_form_fits_are_trials(tmp_path, capsys):
    tracer, report = _traced_cli(tmp_path, "verify", {
        "check": "kl-mse-bridge",
        "config": {"family": CAT3, "target_params": [0.3, 0.4],
                   "n_target": 200, "trials": 7, "rel_tol": 1.0},
        "seed": 17,
    })
    table = tracer.layer_table()
    assert report["results"]["details"]["trials"] == 7
    assert table["weighted_mle.fit.closed_form.calls"] == 7
    assert table["harness.verify_claim.kl-mse-bridge.calls"] == 1
    capsys.readouterr()


def test_replans_are_epochs_run_minus_one(tmp_path, capsys):
    tracer, report = _traced_cli(tmp_path, "train", {
        "mode": "multi_source",
        "family": {"name": "gaussian_iso", "params": {"dim": 2}},
        "target": {"params": [0.1, -0.2], "n": 30},
        "sources": [{"params": [0.3, 0.0], "n": 60},
                    {"params": [0.0, 0.1], "n": 40}],
        "holdout_n": 20,
        "train": {"learning_rate": 0.1, "epochs": 6,
                  "weight_update_period": 1, "ridge": 0.0},
        "seed": 5,
    })
    table = tracer.layer_table()
    epochs_run = report["results"]["trace"]["epochs_run"]
    assert epochs_run == 6
    assert table["trainer.replans"] == epochs_run - 1
    assert table["trainer.replan.calls"] == epochs_run - 1
    assert table["planner.solve_simplex_qp.calls"] == epochs_run - 1
    capsys.readouterr()


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer()
    # parent 0..10 with children 1..4 and 3..6 on two threads, and 8..9
    tracer.spans = [(1, "p", 0.0, 10.0, 0, 1), (2, "c", 1.0, 4.0, 1, 1),
                    (3, "c", 3.0, 6.0, 1, 2), (4, "c", 8.0, 9.0, 1, 1)]
    own = tracer.self_times()
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
