"""Check that two checkouts write the same outputs, run for run.

    python3 tools/same_outputs.py PARENT CHANGE

Runs, once per checkout:
- every bundled config in ``configs/`` with its own seed;
- every job that ``perfbench/workloads.py`` generates for its three
  workloads at seeds 1 and 3, with the job's seed.

Each checkout runs in its own subprocess, with its own ``src`` and
``perfbench`` on ``PYTHONPATH`` and bytecode writing off, so ``perfbench/``
is only read. Every run writes JSON and CSV. For each run the tool compares
the exit code, standard output, standard error without its ``elapsed:``
timing line, ``report.json`` and the CSVs, after replacing each side's
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
from pathlib import Path

PERFBENCH_SEEDS = (1, 3)


def _jobs(root, out):
    """``(name, argv)`` of every run, bundled configs first."""
    import workloads  # the checkout's perfbench/workloads.py
    from transferopt.config import COMMANDS

    jobs = []
    for path in sorted((root / "configs").glob("*.json")):
        command = path.stem.split("_")[0]  # weights_golden.json -> weights
        if command not in COMMANDS:
            raise SystemExit(f"no command for bundled config {path.name}")
        jobs.append((f"bundled/{path.stem}", [command, "--config", str(path)]))
    for seed in PERFBENCH_SEEDS:
        for name, workload in workloads.WORKLOADS.items():
            bench = workload(root, out / "perfbench" / f"{name}-{seed}", seed)
            for label, command, path, _, job_seed in bench.jobs:
                jobs.append((f"{name}/seed{seed}/{label}",
                             [command, "--config", str(path),
                              "--seed", str(job_seed)]))
    return jobs


def collect(root, out):
    """Run every job of the checkout at ``root`` in this process, writing
    each run's files under ``out/runs/<name>``; lists the names in
    ``out/runs.json``."""
    import transferopt.cli

    src = (root / "src").resolve()
    if Path(transferopt.__file__).resolve().parent.parent != src:
        raise SystemExit(f"transferopt imported from {transferopt.__file__}, "
                         f"not from {src}")
    names = []
    for name, argv in _jobs(root, out):
        run_dir = out / "runs" / name
        files = run_dir / "files"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = transferopt.cli.main(
                argv + ["--out", str(files), "--format", "both"])
        err = "".join(line for line in stderr.getvalue().splitlines(True)
                      if not line.startswith("elapsed: "))
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "exit_code").write_text(f"{code}\n", encoding="utf-8")
        (run_dir / "stdout").write_text(stdout.getvalue(), encoding="utf-8")
        (run_dir / "stderr").write_text(err, encoding="utf-8")
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
