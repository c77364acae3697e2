"""Deterministic report and CSV emission.

Identical inputs must produce byte-identical files, so nothing here writes
timestamps or timings; the CLI sends wall-clock numbers to stderr instead.
JSON payloads are key-sorted; CSV uses a header row, '.' decimals, and
bare newline row endings.
"""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__


def jsonable(obj):
    """Recursively convert numpy containers and scalars for json.dumps;
    a non-finite float becomes None (null), so the output is strict JSON."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dump_json(payload):
    return json.dumps(jsonable(payload), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def write_json(path, payload):
    path = Path(path)
    path.write_text(dump_json(payload), encoding="utf-8")
    return path


def _cell(value):
    # repr keeps full float precision and always uses '.' decimals
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, fieldnames, rows):
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_cell(row[name]) for name in fieldnames])
    return path


@dataclass
class Report:
    """Reproducible run record: config echo, seed, versions, results."""

    command: str
    config: dict
    seed: int
    results: dict

    def to_payload(self):
        return {
            "command": self.command,
            "config": self.config,
            "seed": int(self.seed),
            "versions": {"artifact": __version__, "numpy": np.__version__},
            "results": self.results,
        }
