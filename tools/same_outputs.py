"""Check that two checkouts write the same outputs, run for run.

    python3 tools/same_outputs.py PARENT CHANGE

Runs, once per checkout:
- every bundled config in ``configs/`` with its own seed;
- every job that ``perfbench/workloads.py`` generates for its three
  workloads at seeds 1 and 3, with the job's seed;
- at each of those seeds, one library run that writes the plan
  (``plan_from_parameters``) of every plan-solve instance and each of the
  workload's sub-budget curves (``sub_budget_curve`` of
  ``qp_from_parameters``);
- one library run that writes every method of every family, the
  information matrices and the weighted fits, on seeded parameters and
  batches (``FAMILY_CASES``).

Library runs write floats at full precision and an exception as a value.

Each checkout runs in its own subprocess, with its own ``src`` and
``perfbench`` on ``PYTHONPATH`` and bytecode writing off, so ``perfbench/``
is only read. Every CLI run writes JSON and CSV. For each run the tool
compares every file it wrote: a CLI run's exit code, standard output,
standard error without its ``elapsed:`` timing line, ``report.json`` and
the CSVs, a library run's JSON file, after replacing each side's
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

# (family name, parameter block) of the family run; the categorical sizes
# span numpy's switch to pairwise sums at 8 or more terms
FAMILY_CASES = tuple(
    [("categorical", {"num_outcomes": m}) for m in (2, 3, 5, 9, 12)]
    + [("gaussian_iso", {"dim": d}) for d in (1, 3)]
    + [("softmax_regression", {"feature_dim": 3, "num_classes": 3})])
FAMILY_BATCH = 40
FIT_RIDGE = 1e-3


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
    runs.append(("library/families", _families))
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
    from transferopt.planner import (plan_from_parameters, qp_from_parameters,
                                     sub_budget_curve)

    def plan(i):
        return plan_from_parameters(i.family, i.target, i.sources, i.budgets,
                                    i.n_target).to_json_dict()

    def curve(i):
        qp = qp_from_parameters(i.family, i.target, i.sources, i.budgets)
        return sub_budget_curve(qp, i.n_target, bench.CURVE_FRACTIONS)

    values = {
        "plans": [_value(partial(plan, i)) for i in bench.instances],
        "sub_budget_curves": [_value(partial(curve, i))
                              for i in bench.instances[:bench.CURVES]],
    }
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "plans.json").write_text(json.dumps(values, indent=1),
                                        encoding="utf-8")


def _plain(x):
    """``x`` as JSON lists and numbers; a tuple or list item by item."""
    import numpy as np

    if isinstance(x, (tuple, list)):
        return [_plain(v) for v in x]
    return np.asarray(x).tolist()


def _family_params(family, rng):
    """A parameter vector well inside ``family``'s region: every
    categorical probability at least half of uniform."""
    import numpy as np

    if family.name == "categorical":
        m = family.num_outcomes
        return (0.5 * rng.dirichlet(np.ones(m)) + 0.5 / m)[:-1]
    return 0.5 * rng.standard_normal(family.dim)


def _family_values(family, rng):
    """Every method of ``family`` at seeded parameters and batches."""
    from transferopt.fisher import analytic_fisher, projected_gram
    from transferopt.weighted_mle import fit_weighted_mle

    theta, other, third = (_family_params(family, rng) for _ in range(3))
    xs, src_a, src_b = (family.sample(p, FAMILY_BATCH, rng)
                        for p in (theta, other, third))
    directions = (other - theta)[:, None]
    calls = {
        "validate": lambda: family.validate(theta),
        "sample": lambda: xs,
        "n_samples": lambda: family.n_samples(xs),
        "check_batch": lambda: family.check_batch(xs),
        "log_density_batch": lambda: family.log_density_batch(theta, xs),
        "score_batch": lambda: family.score_batch(theta, xs),
        "loglik_and_score_sum": lambda: family.loglik_and_score_sum(theta, xs),
        "loglik_hessian": lambda: family.loglik_hessian(theta, xs),
        "projected_gram": lambda: projected_gram(family, theta, xs, directions),
        "fit_ridge": lambda: fit_weighted_mle(family, xs, [src_a, src_b],
                                              [0.5, 0.25], ridge=FIT_RIDGE),
    }
    if family.name == "softmax_regression":
        calls["class_probs"] = lambda: family.class_probs(theta, xs[0])
    else:
        calls.update({
            "sufficient_stat": lambda: family.sufficient_stat(xs),
            "stat_sampler": lambda: family.stat_sampler(theta)(FAMILY_BATCH,
                                                               rng),
            "analytic_fisher_matrix": lambda: family.analytic_fisher_matrix(
                theta),
            "analytic_fisher": lambda: analytic_fisher(family, theta),
            "kl_divergence": lambda: family.kl_divergence(theta, other),
            "kl_divergence_stack": lambda: family.kl_divergence(
                theta, [other, third]),
            "fit_closed_form": lambda: fit_weighted_mle(
                family, xs, [src_a, src_b], [0.5, 0.25]),
        })
    if family.name == "categorical":
        calls["probs"] = lambda: family.probs(theta)
    return {name: _value(lambda c=c: _plain(c())) for name, c in calls.items()}


def _families(run_dir):
    """Every family method of every ``FAMILY_CASES`` entry at each seed,
    written to ``families.json``; JSON floats keep full precision."""
    from transferopt.families import get_family
    from transferopt.rng import derive_rng

    values = {}
    for seed in PERFBENCH_SEEDS:
        for i, (name, params) in enumerate(FAMILY_CASES):
            family = get_family(name, params)
            key = f"seed{seed}/{name} {json.dumps(params, sort_keys=True)}"
            values[key] = _family_values(family, derive_rng(seed, i))
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "families.json").write_text(json.dumps(values, indent=1),
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
