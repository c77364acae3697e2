"""Config loading and schema validation for the command line front end.

One schema file defines every command's config and every named check's
nested config. Configs are validated before any computation runs, and
unknown keys are rejected. A check run's schema covers its envelope only;
``harness.verify_claim`` validates the nested config against the check's
own entry. Violations surface as ConfigError with a slash-separated field
path so the CLI can point at the offending entry.
"""

import functools
import json
import math
from importlib import resources

from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from .errors import ConfigError

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
