"""Span tracer that wraps transferopt's public functions in place.

Only the traced benchmark run installs it; timed runs never import the
wrappers into the package. Each wrapper records one span per call: an id,
the layer name, start and end (``time.perf_counter``), the parent span id
and the thread id. Parents are tracked per thread. A span opened on a pool
thread with nothing open on that thread is parented to the innermost span
open on the thread that installed the tracer, which is the caller blocked
in ``mc_expected_kl`` while its pool runs the trials.

Spans stay in memory until ``write_spans`` saves them. Self time is a
span's duration minus the time covered by the union of its children's
intervals, so children on two threads at once are not counted twice.
"""

import csv
import functools
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict

# transferopt modules whose attributes the wrappers may replace
_MODULES = ("transferopt", "transferopt.rng", "transferopt.families",
            "transferopt.weighted_mle", "transferopt.kl", "transferopt.fisher",
            "transferopt.planner", "transferopt.harness", "transferopt.trainer",
            "transferopt.config", "transferopt.reporting", "transferopt.cli")

# (defining module, attribute, layer name); the attribute is wrapped in
# every module above that holds the same function object
_FUNCTIONS = (
    ("transferopt.rng", "derive_rng", "rng.derive_rng"),
    ("transferopt.weighted_mle", "_closed_form_categorical", "weighted_mle.fit.closed_form"),
    ("transferopt.weighted_mle", "_closed_form_gaussian", "weighted_mle.fit.closed_form"),
    ("transferopt.weighted_mle", "_newton", "weighted_mle.fit.newton"),
    ("transferopt.weighted_mle", "weighted_loglik_grad", "weighted_mle.weighted_loglik_grad"),
    ("transferopt.kl", "mc_expected_kl", "kl.mc_expected_kl"),
    ("transferopt.kl", "predict_kl_multi", "kl.predict_kl_multi"),
    ("transferopt.fisher", "analytic_fisher", "fisher.analytic_fisher"),
    ("transferopt.fisher", "projected_gram", "fisher.projected_gram"),
    ("transferopt.planner", "solve_simplex_qp", "planner.solve_simplex_qp"),
    ("transferopt.planner", "optimal_plan", "planner.optimal_plan"),
    ("transferopt.harness", "brute_force_simplex", "harness.brute_force_simplex"),
    ("transferopt.trainer", "pretrain_params", "trainer.pretrain_params"),
    ("transferopt.trainer", "train_multi_source", "trainer.train_multi_source"),
    ("transferopt.trainer", "train_multi_task", "trainer.train_multi_task"),
    ("transferopt.trainer", "_replan", "trainer.replan"),
    ("transferopt.trainer", "weighted_loss_gradient", "trainer.weighted_loss_gradient"),
    ("transferopt.trainer", "holdout_metrics", "trainer.holdout_metrics"),
    ("transferopt.config", "validate_config", "config.validate_config"),
    ("transferopt.reporting", "write_json", "reporting.write_json"),
    ("transferopt.cli", "main", "cli.main"),
)

_FAMILY_CLASSES = ("Categorical", "GaussianIso", "SoftmaxRegression")
_FAMILY_METHODS = ("sample", "kl_divergence", "loglik_hessian")

CHECKS = ("weight-optimum", "quantity-monotone", "dimension-scaling",
          "plan-beats-random", "estimator-mean", "kl-mse-bridge")

# layers reported as a call count and a self time, in report order
TIMED_LAYERS = (
    "rng.derive_rng", "families.sample", "families.kl_divergence",
    "families.loglik_hessian", "weighted_mle.fit.closed_form",
    "weighted_mle.fit.newton", "kl.mc_expected_kl", "kl.predict_kl_multi",
    "fisher.analytic_fisher", "fisher.projected_gram",
    "planner.solve_simplex_qp", "planner.optimal_plan",
    *(f"harness.verify_claim.{c}" for c in CHECKS),
    "harness.brute_force_simplex", "trainer.pretrain_params",
    "trainer.train_multi_source", "trainer.train_multi_task", "trainer.replan",
    "trainer.weighted_loss_gradient", "trainer.holdout_metrics",
    "config.validate_config", "reporting.write_json", "cli.main",
)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, thread id)
        self.trials = 0
        self.qp_iterations = []
        self.qp_gaps = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack = None
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            try:
                parent = (stack or tracer._home_stack)[-1]
            except (IndexError, TypeError):
                parent = 0
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent,
                                     threading.get_ident()))
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every traced function wherever transferopt imported it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        self._home_stack = self._stack()
        mods = [sys.modules[m] for m in _MODULES]
        hooks = {"kl.mc_expected_kl": self._count_trials,
                 "planner.solve_simplex_qp": self._record_qp}
        for home, attr, name in _FUNCTIONS:
            original = getattr(sys.modules[home], attr)
            wrapper = self.wrap(name, original, hooks.get(name))
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)
        families = sys.modules["transferopt.families"]
        for cls_name in _FAMILY_CLASSES:
            cls = getattr(families, cls_name)
            for meth in _FAMILY_METHODS:
                if meth in vars(cls):
                    self._replace(cls, meth, self.wrap(f"families.{meth}",
                                                       vars(cls)[meth]))
        checks = sys.modules["transferopt.harness"]._CHECKS
        for check in CHECKS:
            self._restore.append((checks, check, checks[check]))
            checks[check] = self.wrap(f"harness.verify_claim.{check}",
                                      checks[check])

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore = []
        self._home_stack = None

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _count_trials(self, estimate):
        self.trials += int(estimate.trials)

    def _record_qp(self, solution):
        self.qp_iterations.append(int(solution.iterations))
        self.qp_gaps.append(float(solution.gap))

    # -- analysis ------------------------------------------------------

    def self_times(self):
        """Map span id to its duration minus the union of its children."""
        children = defaultdict(list)
        for sid, _, start, end, parent, _ in self.spans:
            if parent:
                children[parent].append((start, end))
        out = {}
        for sid, _, start, end, _, _ in self.spans:
            covered = 0.0
            lo = hi = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, start), min(c_end, end)
                if c_end <= c_start:
                    continue
                if c_start > hi:
                    covered += hi - lo
                    lo = c_start
                hi = max(hi, c_end)
            covered += hi - lo
            out[sid] = (end - start) - covered
        return out

    def layer_table(self):
        """Per-layer metrics under the benchmark's names."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        own_time = self.self_times()
        for sid, name, *_ in self.spans:
            calls[name] += 1
            self_s[name] += own_time[sid]
        table = {}
        for name in TIMED_LAYERS:
            table[f"{name}.calls"] = calls[name]
            table[f"{name}.s"] = self_s[name]

        # line-search waste: gradient evaluations per Hessian evaluation,
        # both counted only where Newton itself calls them
        newton = {s[0] for s in self.spans if s[1] == "weighted_mle.fit.newton"}
        in_newton = defaultdict(int)
        for _, name, _, _, parent, _ in self.spans:
            if parent in newton:
                in_newton[name] += 1
        grads = in_newton["weighted_mle.weighted_loglik_grad"]
        hessians = in_newton["families.loglik_hessian"]
        table["weighted_mle.grad_evals_per_hessian"] = (
            grads / hessians if hessians else 0.0)
        table["kl.trials"] = self.trials
        table["trainer.replans"] = calls["trainer.replan"]
        iters = self.qp_iterations
        table["planner.qp_iterations.p50"] = statistics.median(iters) if iters else 0
        table["planner.qp_iterations.max"] = max(iters, default=0)
        table["planner.qp_gap.max"] = max(self.qp_gaps, default=0.0)
        return table

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "name", "start", "end", "parent", "thread"])
            writer.writerows(self.spans)
