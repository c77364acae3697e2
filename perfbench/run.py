"""transferopt benchmark: one workload per run, timed or traced.

    python3 perfbench/run.py --workload verify-mc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; the package is imported from its ``src``.
A timed run (``--trace 0``) first starts fresh processes that only set the
workload up (``setup_s`` is their median time to ready), then repeats full
passes of the workload until the next one would overrun ``--seconds``
(at least two, so the second pass checks byte-identical reports). A traced
run (``--trace 1``) makes a warm-up pass, an untraced pass, one at
``--threads 1`` and one with the span wrappers installed, and reports the
per-layer table.

Human-readable lines go first; the last line of standard output is the
JSON result. Result files are written under ``.perfbench_out/<workload>``.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

WORK_NAMES = {"verify-mc": "mc.trials_per_s",
              "train-replan": "train.epochs_per_s",
              "plan-solve": "plan.solves_per_s"}


def _import_package():
    """Import transferopt from this checkout's src, or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import transferopt
    except ImportError as err:
        sys.exit(f"cannot import transferopt from {src}: {err}")
    if Path(transferopt.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"transferopt imported from {transferopt.__file__}, "
                 f"not from {src}")
    sys.path.insert(0, str(Path(__file__).resolve().parent))


def _environment(seed):
    from importlib import metadata

    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "jsonschema": metadata.version("jsonschema"),
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "git_commit": commit,
        "workload_seed": seed,
    }


def _quantile(values, q):
    """Nearest-rank quantile of a nonempty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _setup_times(args):
    """Fresh-process set-up times: start to the child's "ready" line."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or line.strip() != "ready":
            sys.exit(f"set-up process failed with exit code {code}")
        times.append(ready)
    return times


def _summary(passes):
    ops = [op for p in passes for op in p.ops]
    failures = [f"{op.label}: {e}" for op in ops for e in op.errors]
    return len(ops), sum(1 for op in ops if op.errors), failures


def _timed(args, workload):
    setup = _setup_times(args)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        elapsed = time.perf_counter() - start
        if len(passes) >= 2 and elapsed + passes[-1].wall_s > args.seconds:
            break
    attempted, failed, failures = _summary(passes)
    calls = [c for p in passes for c in p.call_s]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "work_per_s": statistics.median(p.work / p.work_s for p in passes),
        "call_ms_p50": 1e3 * statistics.median(calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "setup_s_samples": setup,
        "failed_frac": failed / attempted,
        WORK_NAMES[args.workload]: metrics["work_per_s"],
        "verdicts_failed": sum(p.verdicts_failed for p in passes),
        "calls": len(calls),
    }
    if args.workload == "train-replan":
        detail["train.run_s_p50"] = metrics["call_ms_p50"] / 1e3
    if args.workload == "plan-solve":
        detail["plan.solve_ms_p50"] = metrics["call_ms_p50"]
        detail["plan.solve_ms_p99"] = 1e3 * _quantile(calls, 0.99)
    return metrics, detail, attempted, failed, failures


def _traced(args, workload):
    from tracer import Tracer

    warmup = workload.run_pass()
    untraced = workload.run_pass()
    single = workload.run_pass(threads=1)
    tracer = Tracer()
    with tracer:
        traced = workload.run_pass()
    passes = [warmup, untraced, single, traced]
    attempted, failed, failures = _summary(passes)
    metrics = tracer.layer_table()
    metrics["harness.verdicts_failed"] = traced.verdicts_failed
    metrics["kl.threads_speedup"] = single.wall_s / untraced.wall_s
    metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    detail = {"untraced_wall_s": untraced.wall_s,
              "threads1_wall_s": single.wall_s,
              "traced_wall_s": traced.wall_s,
              "spans": len(tracer.spans)}
    tracer.write_spans(workload.out / "spans.csv")
    return metrics, detail, attempted, failed, failures


def _run_all(args):
    """Run every workload in its own process and print one table."""
    from workloads import WORKLOADS

    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            code = proc.returncode
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    _import_package()
    from workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, expected one of "
                     f"{', '.join(WORKLOADS)} or all")
    out = OUT / args.workload
    workload = WORKLOADS[args.workload](ROOT, out, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    run = _traced if args.trace else _timed
    metrics, detail, attempted, failed, failures = run(args, workload)
    env = _environment(args.seed)
    record = {"workload": args.workload, "trace": args.trace,
              "environment": env, "metrics": metrics, "detail": detail,
              "attempted": attempted, "failed": failed,
              "failures": failures[:50]}
    (out / f"result_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'timed'}")
    print("environment " + json.dumps(env, sort_keys=True))
    for key, value in {**detail, **metrics}.items():
        if not isinstance(value, list):
            print(f"  {key:<45} {value:.6g} {unit_of(key)}")
    print(f"  failed {failed} of {attempted} operations")
    for line in failures[:10]:
        print(f"  FAILED {line}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def unit_of(name):
    """Unit of a metric, from its name."""
    if name in ("failed_frac", "kl.threads_speedup",
                "weighted_mle.grad_evals_per_hessian", "planner.qp_gap.max"):
        return "1"
    if name.endswith("per_s"):
        return "1/s"
    if "_ms" in name:
        return "ms"
    if name.endswith(("_s", ".s")) or "_s_" in name:
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
