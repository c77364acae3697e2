"""Batch command line front end.

Subcommands: weights | simulate | sweep | train | verify. Every run takes
a JSON config (schema-validated, unknown keys rejected), an optional seed
override, an output directory, and a format choice. Runs are serial and
reproducible: the same config and seed give byte-identical report and CSV
files. ``--threads`` is accepted for compatibility and has no effect.
Wall-clock timing goes to stderr only.

Exit codes: 0 success, 2 config error (message names the field), 3
numerical failure, 4 verification verdict failure.
"""

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (COMMANDS, DEFAULTS, config_ensemble, config_qp,
                     config_sweep, config_train, config_weights, load_config,
                     validate_config, verify_claim)
from .errors import (
    ConfigError,
    ConvergenceError,
    ParameterError,
    RegimeError,
    SupportError,
    UnsupportedFamilyError,
)
from .kl import mc_expected_kl
from .planner import optimal_plan
from .reporting import write_csv, write_json
from .rng import derive_rng
from .trainer import pretrain_params, train_multi_source, train_multi_task

_CONFIG_EXIT = (ConfigError, ParameterError, UnsupportedFamilyError)
_NUMERIC_EXIT = (ConvergenceError, RegimeError, SupportError,
                 FloatingPointError, MemoryError, np.linalg.LinAlgError)

# data-generation stream roles for the train command: dataset k of a role
# draws from (seed, role, k), so no two datasets share a stream
_TARGET_ROLE = 0
_SOURCE_ROLE = 1
_TASK_ROLE = 2
_HOLDOUT_ROLE = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="transferopt",
        description="plan source weights and quantities, simulate, sweep, "
                    "train, and verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "weights": "compute the optimal transfer plan for a config",
        "simulate": "Monte Carlo estimate of a plan, or a named check",
        "sweep": "measured and predicted curves along one axis",
        "train": "run the dynamic reweighting training loops",
        "verify": "run a named oracle check and report the verdict",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed, overrides the config")
        p.add_argument("--out", default=None,
                       help="output directory (default: $TRANSFEROPT_OUT or .)")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility and ignored; "
                            "runs are serial")
        p.add_argument("--format", choices=["json", "csv", "both"],
                       default="both")
        if name == "sweep":
            p.add_argument("--gnuplot", action="store_true",
                           help="also emit a gnuplot script for the curves")
    return parser


def _cmd_weights(config, seed):
    if "directions" in config:
        qp, n_target = config_qp(config), int(config["n_target"])
        results = {"mode": "explicit"}
    else:
        ens = config_ensemble(config, seed)
        qp, n_target = ens.qp(), ens.target_budget
        results = {"mode": "ensemble", "ensemble": ens.to_json_dict()}
    results["plan"] = plan = optimal_plan(qp, n_target=n_target).to_json_dict()
    columns = zip(plan["alpha"], plan["weights"], plan["quantities"])
    rows = [{"source": i + 1, "alpha": a, "weight": w, "quantity": n}
            for i, (a, w, n) in enumerate(columns)]
    lines = [f"weights: {plan['weights']}",
             f"predicted divergence: {plan['predicted_kl']['total']}"]
    return results, [("plan.csv", rows)], False, lines


def _cmd_verify(config, seed):
    check = config["check"]
    try:
        report = verify_claim(check, config["config"], seed)
    except ConfigError as err:
        # the check reports fields of its own config, which sits at /config;
        # the nested config's root "/" is /config itself
        if err.field:
            err.field = "/config" + err.field.rstrip("/")
        raise
    rows = [{"check": check, "verdict": report["verdict"],
             "n_target": report["n_target"]}]
    return (report, [("verdict.csv", rows)], report["verdict"] != "pass",
            [f"check {check}: {report['verdict']}"])


def _cmd_simulate(config, seed):
    if "check" in config:
        return _cmd_verify(config, seed)
    ens = config_ensemble(config, seed)
    results = {"ensemble": ens.to_json_dict()}
    if config["weights"] == "optimal":
        plan = optimal_plan(ens.qp(), n_target=ens.target_budget)
        weights = plan.weights
        results["plan"] = plan.to_json_dict()
    else:
        weights = config_weights(config["weights"], ens.k)
    # every plan's quantities are the full budgets
    est = mc_expected_kl(ens, weights, ens.source_budgets, config["trials"],
                         seed)
    results.update({
        "weights": [float(w) for w in weights],
        "quantities": [int(n) for n in ens.source_budgets],
        "estimate": {"mean": est.mean, "std_error": est.std_error,
                     "trials": est.trials},
    })
    csvs = [("estimate.csv", [results["estimate"]])]
    lines = [f"expected divergence: {est.mean} (se {est.std_error}, "
             f"{est.trials} trials)"]
    return results, csvs, False, lines


def _cmd_sweep(config, seed):
    ens, result = config_sweep(config, seed)
    axis = config["axis"]
    results = {"ensemble": ens.to_json_dict(), "sweep": result.to_json_dict()}
    csvs = [(f"sweep_{axis}.csv", result.rows())]
    lines = [
        f"{axis} sweep over {len(result.grid)} points",
        f"measured argmin at {axis}={result.grid[result.mc_argmin]}, "
        f"predicted argmin at {axis}={result.grid[result.predicted_argmin]}",
    ]
    return results, csvs, False, lines


_GNUPLOT_TEMPLATE = """set datafile separator ","
set key autotitle columnhead
set xlabel "{axis}"
set ylabel "expected divergence"
plot "{csv}" using 1:2:3 with yerrorlines title "measured", \\
     "{csv}" using 1:4 with lines title "predicted"
"""


def _cmd_train(config, seed):
    family, cfg, blocks = config_train(config)
    holdout_n = int(config["holdout_n"])

    def draw(role, k, params, n):
        return family.sample(params, n, derive_rng(seed, role, k))

    def holdout(k, params):
        return draw(_HOLDOUT_ROLE, k, params, holdout_n) if holdout_n else None

    if config["mode"] == "multi_source":
        (tp, n), *sources = blocks
        source_data = [draw(_SOURCE_ROLE, k, *source)
                       for k, source in enumerate(sources)]
        ridge = float(config["pretrain_ridge"])
        pretrained = [pretrain_params(family, data, ridge=ridge)
                      for data in source_data]
        trace = train_multi_source(family, draw(_TARGET_ROLE, 0, tp, n),
                                   source_data, pretrained, cfg,
                                   holdout_data=holdout(0, tp))
        summary = trace.to_json_dict()
        lines = [f"stopped after {summary['epochs_run']} epochs "
                 f"({summary['stop_reason']})",
                 f"final weights: {summary['final_weights']}"]
        return ({"mode": "multi_source", "trace": summary},
                [("trace.csv", trace.rows())], False, lines)
    traces = train_multi_task(
        family, [draw(_TASK_ROLE, k, *task) for k, task in enumerate(blocks)],
        cfg, holdouts=[holdout(k, tp) for k, (tp, _) in enumerate(blocks)])
    summaries = [t.to_json_dict() for t in traces]
    csvs = [(f"trace_task{k + 1}.csv", t.rows()) for k, t in enumerate(traces)]
    lines = [f"task {k + 1}: final loss {summary['final_loss']}"
             for k, summary in enumerate(summaries)]
    return {"mode": "multi_task", "traces": summaries}, csvs, False, lines


_HANDLERS = {
    "weights": _cmd_weights,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "train": _cmd_train,
    "verify": _cmd_verify,
}


def _run(args):
    config = load_config(args.config)
    validate_config(args.command, config)
    settings = {**DEFAULTS[args.command], **config}
    seed = int(settings["seed"]) if args.seed is None else args.seed
    if not 0 <= seed < 2 ** 64:
        raise ConfigError("seed must fit in an unsigned 64-bit integer")
    if args.threads is not None and args.threads < 0:
        raise ConfigError("threads must be nonnegative")
    out_dir = Path(args.out or os.environ.get("TRANSFEROPT_OUT") or ".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        source = "--out" if args.out else "$TRANSFEROPT_OUT"
        raise ConfigError(f"{source} {out_dir} is not a usable output "
                          f"directory: {err.strerror or err}") from err

    results, csvs, fail, lines = _HANDLERS[args.command](settings, seed)

    written = []
    if args.format in ("json", "both"):
        versions = {"artifact": __version__, "numpy": np.__version__}
        payload = {"command": args.command, "config": config, "seed": seed,
                   "versions": versions, "results": results}
        written.append(write_json(out_dir / "report.json", payload))
    if args.format in ("csv", "both"):
        for name, rows in csvs:
            written.append(write_csv(out_dir / name, rows))
        if args.command == "sweep" and getattr(args, "gnuplot", False):
            axis = config["axis"]
            script = _GNUPLOT_TEMPLATE.format(axis=axis,
                                              csv=f"sweep_{axis}.csv")
            gp = out_dir / f"sweep_{axis}.gp"
            gp.write_text(script, encoding="utf-8")
            written.append(gp)

    for line in lines:
        print(line)
    for path in written:
        print(f"wrote {path}")
    return 4 if fail else 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        # overflow, invalid results and division by zero exit 3, not warn
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _run(args)
    except _NUMERIC_EXIT as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except _CONFIG_EXIT as err:
        field = getattr(err, "field", None)
        where = f" at {field}" if field else ""
        print(f"config error{where}: {err}", file=sys.stderr)
        return 2
    finally:
        print(f"elapsed: {time.perf_counter() - start:.3f}s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
