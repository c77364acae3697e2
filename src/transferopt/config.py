"""Configs: loading, schema validation, and the step to library objects.

One schema file defines every command's config and every named check's
nested config. A config is validated before any computation runs (unknown
keys are rejected), defaults fill what it leaves out, and it is turned into
library objects. Only this module raises ConfigError, always with a
slash-separated field path; a field that a library check decides goes
through that check, which gets the field attached.
"""

import functools
import json
import math
from functools import partial
from importlib import resources

import numpy as np
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from . import harness
from .errors import ConfigError, ParameterError
from .families import get_family, whole_count
from .harness import (TaskEnsemble, check_quantity_grid, check_source_index,
                      sweep_quantity, sweep_weight)
from .planner import build_qp_matrix, symmetric_psd
from .trainer import TrainConfig

__all__ = [
    "COMMANDS", "DEFAULTS", "load_schema", "load_config", "validate_config",
    "config_family", "config_params", "build_ensemble",
    "config_ensemble", "config_weights", "config_qp", "resolve_grid",
    "config_sweep", "config_train", "verify_claim",
]

COMMANDS = ("weights", "simulate", "sweep", "train", "verify")

# What a config may leave out, per command and per named check; merged into
# a copy of the validated config, so a report echoes the config as written.
DEFAULTS = {
    "weights": {"seed": 0},
    "simulate": {"seed": 0, "weights": "optimal"},
    "sweep": {"seed": 0, "source_index": 0, "trials": 4000, "rule": "optimal"},
    "train": {"seed": 0, "holdout_n": 0, "pretrain_ridge": 0.0},
    "verify": {"seed": 0},
    "weight-optimum": {"source_index": 0, "trials": 4000},
    "quantity-monotone": {"source_index": 0, "trials": 4000,
                          "rule": "optimal"},
    "dimension-scaling": {"trials": 4000},
    "plan-beats-random": {"trials": 5000, "random_plans": 10000, "mc_top": 10,
                          "mc_trials": 200, "weight_high": 1.0},
    "estimator-mean": {"trials": 2000},
    "kl-mse-bridge": {"trials": 5000, "rel_tol": 0.1},
}


@functools.cache
def _definitions():
    ref = resources.files("transferopt") / "schemas" / "config.json"
    return json.loads(ref.read_text(encoding="utf-8"))["$defs"]


def load_schema(name):
    """Schema of a command's config or of a named check's nested config."""
    if name not in DEFAULTS:
        raise ValueError(f"unknown command or check '{name}'")
    return {"$ref": f"#/$defs/{name}", "$defs": _definitions()}


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError as err:
        raise ConfigError(f"config file not found: {path}") from err
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: "
                          f"{err.strerror or err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    return config


def _numbers(node, path=""):
    """Yield ``(path, value)`` for every float in a parsed config, in order."""
    if isinstance(node, float):
        yield path or "/", node
    elif isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _numbers(child, f"{path}/{key}")


def validate_config(name, config):
    """Check a config dict against its command's or check's schema.

    Raises ConfigError carrying the path of the offending field: first at
    any NaN or infinite number (``json.load`` accepts NaN, Infinity and
    1e999, and schema bounds let them through), else at the schema's
    best-matching violation.
    """
    for path, value in _numbers(config):
        if not math.isfinite(value):
            raise ConfigError(f"{value} is not a finite number", field=path)
    validator = Draft202012Validator(load_schema(name))
    errors = list(validator.iter_errors(config))
    if not errors:
        return
    err = best_match(errors)
    path = "/" + "/".join(str(p) for p in err.absolute_path)
    raise ConfigError(err.message, field=path)


def _at(field, check, *args):
    """``check(*args)``; its rejection is a ConfigError at ``field``."""
    try:
        return check(*args)
    except (ValueError, FloatingPointError, ParameterError) as err:
        raise ConfigError(str(err), field=field) from err


def config_family(config):
    """Model family named by a config's ``family`` block."""
    return get_family(**config["family"])


def config_params(family, values, field):
    """A config's parameter vector, validated for ``family``; an invalid
    one raises ConfigError naming ``field``."""
    return _at(field, family.validate, np.asarray(values, dtype=float))


def build_ensemble(family, config, master_seed):
    """Ensemble from a config block.

    Each source entry carries a ``budget`` and either explicit ``params``
    or a (``c``, ``direction_seed``) pair, placing it at distance
    c / sqrt(N0) in a seeded direction. An invalid explicit vector raises
    ConfigError at ``/target_params`` or ``/sources/i/params``.
    """
    th0 = config_params(family, config["target_params"], "/target_params")
    n0 = whole_count(config["n_target"], "n_target", ParameterError)
    params = []
    for i, src in enumerate(config["sources"]):
        if "params" in src:
            p = config_params(family, src["params"], f"/sources/{i}/params")
        else:
            p = harness._draw_source_params(
                family, th0, float(src["c"]), n0, src.get("direction_seed", i),
                master_seed)
        params.append(p)
    return TaskEnsemble(family, th0, n0, params,
                        [src["budget"] for src in config["sources"]])


def config_ensemble(config, seed):
    """Ensemble described by a config block."""
    return build_ensemble(config_family(config), config, seed)


def config_weights(values, k):
    """A config's ``weights``, one per source of ``k``."""
    weights = np.asarray(values, dtype=float)
    if weights.shape != (k,):
        raise ConfigError("need one weight per source", field="/weights")
    return weights


def config_qp(config):
    """QpMatrix of a weights config's explicit ``directions`` (one row per
    source), ``fisher_matrix`` and ``budgets``, each checked at its field;
    a fisher matrix whose symmetrization overflows is rejected too."""
    for key in ("directions", "fisher_matrix"):
        if len({len(row) for row in config[key]}) != 1:
            raise ConfigError(f"{key} rows must have equal length",
                              field=f"/{key}")
    directions = np.asarray(config["directions"], dtype=float)
    fisher = np.asarray(config["fisher_matrix"], dtype=float)
    d = directions.shape[1]
    if fisher.shape != (d, d):
        raise ConfigError(f"fisher_matrix must be {d}x{d}",
                          field="/fisher_matrix")
    if len(config["budgets"]) != len(directions):
        raise ConfigError("need one budget per direction", field="/budgets")
    with np.errstate(over="raise", invalid="raise"):
        _at("/fisher_matrix", symmetric_psd, fisher, "fisher_matrix")
    return build_qp_matrix(directions.T, fisher, config["budgets"], d)


def resolve_grid(spec, integer=False):
    """Turn a config grid spec (list, or start/stop with step or count,
    not both) into a strictly increasing array.

    A step grid holds the points start + k*step up to stop, never past it.
    An ``integer`` grid holds whole counts: a point such as 250.4 raises
    ConfigError naming it, never rounded.
    """
    at_grid = partial(ConfigError, field="/grid")
    if isinstance(spec, dict):
        try:
            start = float(spec["start"])
            stop = float(spec["stop"])
        except KeyError as err:
            raise at_grid(f"grid spec needs {err.args[0]}") from err
        if "step" in spec and "count" in spec:
            raise at_grid("grid spec takes step or count, not both")
        if "step" in spec:
            step = float(spec["step"])
            if step <= 0:
                raise ConfigError("grid step must be positive", field="/grid/step")
            # a relative slack of 1e-9 keeps an end point that float error
            # in (stop - start) / step would drop
            count = whole_count(np.floor((stop - start) / step * (1 + 1e-9))
                                + 1, "grid point count", at_grid)
            grid = start + step * np.arange(count)
        elif "count" in spec:
            count = whole_count(spec["count"], "grid count",
                                partial(ConfigError, field="/grid/count"))
            grid = np.linspace(start, stop, count)
        else:
            raise at_grid("grid spec needs step or count")
    else:
        grid = np.asarray(spec, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise at_grid("grid must be a nonempty vector")
    if integer:
        grid = np.array([whole_count(g, "quantity grid point", at_grid)
                         for g in grid], dtype=int)
    if len(grid) > 1 and np.any(np.diff(grid) <= 0):
        raise at_grid("grid must be strictly increasing")
    return grid


def _sweep_inputs(config, seed, axis, check=False):
    """Ensemble, source index and grid of a sweep along ``axis``, then on
    the quantity axis the weight rule. A check's grid needs two points;
    fewer would compare nothing."""
    quantity = axis == "quantity"
    grid = resolve_grid(config["grid"], integer=quantity)
    if check and len(grid) < 2:
        raise ConfigError("a check grid needs at least two points",
                          field="/grid")
    if not quantity and np.any(grid < 0):
        raise ConfigError("weights must be nonnegative", field="/grid")
    ens = config_ensemble(config, seed)
    idx = _at("/source_index", check_source_index, config["source_index"],
              ens.k)
    if not quantity:
        return ens, idx, grid
    _at("/grid", check_quantity_grid, grid, ens.source_budgets[idx])
    rule = config["rule"]
    if rule != "optimal" and float(rule) < 0:
        raise ConfigError("fixed weight must be nonnegative", field="/rule")
    return ens, idx, grid, rule


def config_sweep(config, seed):
    """Ensemble and sweep of a sweep config: its ensemble, ``axis``,
    ``grid``, ``source_index``, ``trials`` and quantity ``rule``."""
    ens, *inputs = _sweep_inputs(config, seed, config["axis"])
    sweep = sweep_weight if config["axis"] == "weight" else sweep_quantity
    return ens, sweep(ens, *inputs, config["trials"], seed)


def config_train(config):
    """Family, schedule and the checked ``(params, n)`` of every dataset
    of a train config: the target's then each source's, or each task's."""
    family = config_family(config)
    if config["mode"] == "multi_source":
        blocks = {"/target": config["target"]}
        blocks.update((f"/sources/{k}", source)
                      for k, source in enumerate(config["sources"]))
    else:
        blocks = {f"/tasks/{k}": t for k, t in enumerate(config["tasks"])}
    return family, TrainConfig(**config["train"]), [
        (config_params(family, b["params"], f"{path}/params"), int(b["n"]))
        for path, b in blocks.items()]


def _check_inputs(check, config, seed):
    """A check's inputs from its nested config: the arguments of its
    ``harness._CHECKS`` entry before the trial count and the seed."""
    if check in ("weight-optimum", "quantity-monotone"):
        axis = "weight" if check == "weight-optimum" else "quantity"
        return _sweep_inputs(config, seed, axis, check=True)
    if check == "dimension-scaling":
        return ([int(v) for v in config["dims"]], float(config["t"]),
                int(config["n_target"]), int(config["n_source"]))
    family = config_family(config)
    if check == "kl-mse-bridge":
        th0 = config_params(family, config["target_params"], "/target_params")
        return family, th0, int(config["n_target"]), float(config["rel_tol"])
    ens = build_ensemble(family, config, seed)
    if check == "estimator-mean":
        return ens, config_weights(config["weights"], ens.k)
    return (ens, int(config["random_plans"]), int(config["mc_top"]),
            int(config["mc_trials"]), float(config["weight_high"]))


def verify_claim(check, config, seed):
    """Run one named oracle comparison and return a structured verdict.

    Checks: weight-optimum (measured weight curve bottoms out at the
    closed form), quantity-monotone (more source data never hurts under
    the re-optimized weight), dimension-scaling (Monte Carlo divergences
    linear in the dimension at matched distance scale), plan-beats-random
    (the planned weights beat random ones), estimator-mean (the weighted
    estimator centers on the mixture), kl-mse-bridge (divergence matches
    half the Fisher-weighted mean squared error). ``config`` is validated
    against the check's schema entry, here only, with fields named
    relative to it, and the check's defaults fill what it leaves out. The
    check (``harness._CHECKS``) takes the parsed inputs; its verdict's
    envelope, with the trial count in the details, is built here."""
    if check not in harness._CHECKS:
        known = ", ".join(sorted(harness._CHECKS))
        raise ConfigError(f"unknown check '{check}' (known: {known})",
                          field="/check")
    validate_config(check, config)
    settings = {**DEFAULTS[check], **config}
    passed, scale, details = harness._CHECKS[check](
        *_check_inputs(check, settings, seed), settings["trials"], seed)
    if isinstance(scale, TaskEnsemble):
        scale = scale.target_budget, scale.regime_constants
    n_target, constants = scale
    return {
        "check": check,
        "seed": int(seed),
        "verdict": "pass" if passed else "fail",
        "n_target": int(n_target),
        "regime_constants": [float(c) for c in constants],
        "details": {**details, "trials": int(settings["trials"])},
    }
