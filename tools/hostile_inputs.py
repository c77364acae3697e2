"""Run the bundled configs with one entry made hostile at a time, and report
every run that breaks the exit-code contract.

    python3 tools/hostile_inputs.py [--config NAME ...]

NAME is a file in ``configs/``; the default is every bundled config. Each
config first has its counts cut so a run takes well under a second:
``trials`` and ``mc_trials`` to at most 20, ``epochs`` to 5,
``random_plans`` and ``holdout_n`` to 50. Then each leaf in turn is
replaced by each value of ``HOSTILE``, and each nonempty list is
shortened by one, lengthened by one (its last entry repeated) and nested
in a list of its own. Every mutant runs through ``transferopt.cli.main``
in this process, under a 10 s alarm, with numpy's ``RuntimeWarning``s
recorded.

A run keeps the contract when it exits 0, 3 or 4, or exits 2 with a
message that names its field (`` at /``), and warns nothing on the way.
The tool prints each run that breaks it, a count per category, then a
count of runs per exit code (0, 2, 3, 4), and exits 1 if any run broke
it, else 0. It uses the standard library and the code of the checkout it
sits in.
"""

import argparse
import contextlib
import copy
import io
import json
import signal
import sys
import tempfile
import traceback
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import transferopt.cli  # noqa: E402

CAPS = {"trials": 20, "mc_trials": 20, "epochs": 5, "random_plans": 50,
        "holdout_n": 50}
HOSTILE = (None, True, "x", [], {}, -1, 0, 0.5, 1.5, 1e308, -1e308, 2 ** 70,
           1e-300)
ALARM_S = 10


class _Timeout(BaseException):
    """Raised by the alarm; no handler in the package catches it."""


def _alarm(signum, frame):
    raise _Timeout


def _capped(node):
    if isinstance(node, dict):
        return {k: min(v, CAPS[k]) if k in CAPS and type(v) is int
                else _capped(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_capped(v) for v in node]
    return node


def _entries(node, path=()):
    """``(path, value)`` of every entry below ``node``, depth first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from _entries(value, path + (key,))


def _replaced(config, path, value):
    out = copy.deepcopy(config)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def mutants(config):
    """``(label, mutant)`` of every mutation of ``config``."""
    for path, value in _entries(config):
        where = "/" + "/".join(map(str, path))
        if isinstance(value, list) and value:
            for label, new in (("shortened", value[:-1]),
                               ("lengthened", value + value[-1:]),
                               ("nested", [value])):
                yield f"{where} {label}", _replaced(config, path, new)
        elif not isinstance(value, (dict, list)) or not value:
            for new in HOSTILE:
                yield f"{where}={json.dumps(new)}", _replaced(config, path, new)


def run(command, config, tmp):
    """One in-process CLI run: its exit code (None if it raised), and
    ``(category, detail)`` if it breaks the contract, else None."""
    path = tmp / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    stderr = io.StringIO()
    signal.alarm(ALARM_S)
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = transferopt.cli.main([command, "--config", str(path),
                                         "--out", str(tmp / "out")])
    except _Timeout:
        return None, ("timeout", f"did not finish in {ALARM_S} s")
    except Exception as err:
        where = traceback.extract_tb(err.__traceback__)[-1]
        return None, ("traceback", f"{type(err).__name__}: {err} "
                      f"({Path(where.filename).name}:{where.lineno})")
    finally:
        signal.alarm(0)
    message = (stderr.getvalue().splitlines() or [""])[0]
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if runtime:
        return code, ("warning", f"exit {code} after {runtime[0].message}")
    if code not in (0, 2, 3, 4):
        return code, ("exit code", f"exit {code}: {message}")
    if code == 2 and " at /" not in message:
        return code, ("unnamed config error", message)
    return code, None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", nargs="+", metavar="NAME",
                        help="bundled config files to mutate (default: all)")
    args = parser.parse_args(argv)
    paths = sorted((ROOT / "configs").glob("*.json"))
    if args.config:
        unknown = set(args.config) - {p.name for p in paths}
        if unknown:
            parser.error(f"no bundled config {', '.join(sorted(unknown))}")
        paths = [p for p in paths if p.name in args.config]
    signal.signal(signal.SIGALRM, _alarm)
    breaks, codes = Counter(), Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for path in paths:
            command = path.stem.split("_")[0]  # weights_golden -> weights
            config = _capped(json.loads(path.read_text(encoding="utf-8")))
            for label, mutant in mutants(config):
                code, broken = run(command, mutant, Path(tmp))
                codes[code] += 1
                if broken:
                    category, detail = broken
                    breaks[category] += 1
                    print(f"{path.name} {label}: {category}: {detail}")
    for category, count in sorted(breaks.items()):
        print(f"{category}: {count}")
    print("runs per exit code: "
          + ", ".join(f"{code}: {codes[code]}" for code in (0, 2, 3, 4)))
    runs = sum(codes.values())
    print(f"{runs - sum(breaks.values())} of {runs} runs kept the contract")
    return 1 if breaks else 0


if __name__ == "__main__":
    sys.exit(main())
