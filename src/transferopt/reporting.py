"""Deterministic report and CSV emission.

Identical inputs must produce byte-identical files, so nothing here writes
timestamps or timings; the CLI sends wall-clock numbers to stderr instead.
JSON payloads are key-sorted; CSV takes its header row from the first
row's keys and uses '.' decimals and bare newline row endings.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np


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


def write_json(path, payload):
    path = Path(path)
    path.write_text(json.dumps(jsonable(payload), sort_keys=True, indent=2,
                               allow_nan=False) + "\n", encoding="utf-8")
    return path


def _cell(value):
    # repr keeps full float precision and always uses '.' decimals
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, rows):
    """One header row, the first row's keys, then one line per row; a row
    with other keys, or the same keys in another order, raises ValueError
    before anything is written."""
    header = list(rows[0])
    for row in rows:
        if list(row) != header:
            raise ValueError(f"csv row keys {list(row)} differ from the "
                             f"header {header}")
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row.values()])
    return path
