"""Check that two checkouts write the same outputs, run for run.

    python3 tools/same_outputs.py PARENT CHANGE

Runs, once per checkout:
- every bundled config in ``configs/`` with its own seed;
- every job that ``perfbench/workloads.py`` generates for its three
  workloads at seeds 1 and 3, with the job's seed;
- at each of those seeds, one library run that writes the plan
  (``plan_from_parameters``) of every plan-solve instance and each of the
  workload's sub-budget curves, floats at full precision and an exception
  as a value.

Each checkout runs in its own subprocess, with its own ``src`` and
``perfbench`` on ``PYTHONPATH`` and bytecode writing off, so ``perfbench/``
is only read. Every CLI run writes JSON and CSV. For each run the tool
compares every file it wrote: a CLI run's exit code, standard output,
standard error without its ``elapsed:`` timing line, ``report.json`` and
the CSVs, a library run's ``plans.json``, after replacing each side's
checkout and output directories by placeholders. It prints one line per run
that differs and exits 1 if any does, 0 if all are identical. It uses the
standard library and the checkouts' own code only.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

PERFBENCH_SEEDS = (1, 3)


def _runs(root, out):
    """``(name, run)`` of every run, bundled configs first; ``run(run_dir)``
    writes the run's files."""
    import workloads  # the checkout's perfbench/workloads.py
    from transferopt.config import COMMANDS

    runs = []
    for path in sorted((root / "configs").glob("*.json")):
        command = path.stem.split("_")[0]  # weights_golden.json -> weights
        if command not in COMMANDS:
            raise SystemExit(f"no command for bundled config {path.name}")
        runs.append((f"bundled/{path.stem}",
                     partial(_cli, [command, "--config", str(path)])))
    for seed in PERFBENCH_SEEDS:
        for name, workload in workloads.WORKLOADS.items():
            bench = workload(root, out / "perfbench" / f"{name}-{seed}", seed)
            for label, command, path, _, job_seed in bench.jobs:
                runs.append((f"{name}/seed{seed}/{label}",
                             partial(_cli, [command, "--config", str(path),
                                            "--seed", str(job_seed)])))
            if isinstance(bench, workloads.PlanSolve):
                runs.append((f"{name}/seed{seed}/plans",
                             partial(_plans, bench)))
    return runs


def _cli(argv, run_dir):
    """One CLI run: its files, exit code, stdout and stderr (less the
    ``elapsed:`` timing line)."""
    import transferopt.cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = transferopt.cli.main(
            argv + ["--out", str(run_dir / "files"), "--format", "both"])
    err = "".join(line for line in stderr.getvalue().splitlines(True)
                  if not line.startswith("elapsed: "))
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "exit_code").write_text(f"{code}\n", encoding="utf-8")
    (run_dir / "stdout").write_text(stdout.getvalue(), encoding="utf-8")
    (run_dir / "stderr").write_text(err, encoding="utf-8")


def _value(compute):
    """``compute()``, or the exception it raises, as a JSON value."""
    try:
        return compute()
    except Exception as err:
        return {"exception": f"{type(err).__name__}: {err}"}


def _plans(bench, run_dir):
    """The plan of every plan-solve instance and the workload's sub-budget
    curves, written to ``plans.json``; JSON floats keep full precision."""
    import numpy as np
    from transferopt.fisher import analytic_fisher
    from transferopt.planner import (build_qp_matrix, plan_from_parameters,
                                     sub_budget_curve)

    def plan(i):
        return plan_from_parameters(i.family, i.target, i.sources, i.budgets,
                                    i.n_target).to_json_dict()

    def curve(i):
        dirs = np.stack([s - i.target for s in i.sources], axis=1)
        qp = build_qp_matrix(dirs, analytic_fisher(i.family, i.target),
                             i.budgets, i.family.dim)
        return sub_budget_curve(qp, i.n_target, bench.CURVE_FRACTIONS)

    values = {
        "plans": [_value(partial(plan, i)) for i in bench.instances],
        "sub_budget_curves": [_value(partial(curve, i))
                              for i in bench.instances[:bench.CURVES]],
    }
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "plans.json").write_text(json.dumps(values, indent=1),
                                        encoding="utf-8")


def collect(root, out):
    """Run every run of the checkout at ``root`` in this process, writing
    each run's files under ``out/runs/<name>``; lists the names in
    ``out/runs.json``."""
    import transferopt

    src = (root / "src").resolve()
    if Path(transferopt.__file__).resolve().parent.parent != src:
        raise SystemExit(f"transferopt imported from {transferopt.__file__}, "
                         f"not from {src}")
    names = []
    for name, run in _runs(root, out):
        run(out / "runs" / name)
        names.append(name)
    (out / "runs.json").write_text(json.dumps(names), encoding="utf-8")


def _start(root, out):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(root / "src"),
                                           str(root / "perfbench")]))
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--collect",
         str(root), str(out)], env=env)


def _outputs(root, out, name):
    """A run's files as ``{relative path: normalized bytes}``."""
    run_dir = out / "runs" / name
    files = {}
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        blob = path.read_bytes()
        for where, tag in ((out, b"<OUT>"), (root, b"<CHECKOUT>")):
            blob = blob.replace(str(where).encode(), tag)
        files[str(path.relative_to(run_dir))] = blob
    return files


def compare(roots, outs):
    """Lines naming every run whose files differ between the two sides,
    and the number of runs."""
    names = [json.loads((out / "runs.json").read_text(encoding="utf-8"))
             for out in outs]
    if names[0] != names[1]:
        return [f"run lists differ: {names[0]} != {names[1]}"], 0
    diffs = []
    for name in names[0]:
        a, b = (_outputs(root, out, name) for root, out in zip(roots, outs))
        bad = sorted(f for f in set(a) | set(b) if a.get(f) != b.get(f))
        if bad:
            diffs.append(f"{name}: {', '.join(bad)} differ")
    return diffs, len(names[0])


def main(argv):
    if argv[:1] == ["--collect"]:
        collect(Path(argv[1]), Path(argv[2]))
        return 0
    if len(argv) != 2:
        print("usage: python3 tools/same_outputs.py PARENT CHANGE",
              file=sys.stderr)
        return 2
    roots = [Path(a).resolve() for a in argv]
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / "parent", Path(tmp) / "change"]
        procs = [_start(root, out) for root, out in zip(roots, outs)]
        codes = [proc.wait() for proc in procs]
        if any(codes):
            print(f"a checkout failed to run its jobs (exit codes {codes})",
                  file=sys.stderr)
            return 2
        diffs, runs = compare(roots, outs)
    for line in diffs:
        print(line)
    print(f"{runs - len(diffs)} of {runs} runs identical")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
