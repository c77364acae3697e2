"""Training loops that re-plan source weights as the target model moves.

Multi-source mode: gradient descent on a weighted pooled loss, where after
each epoch (or each configured period) the plan is recomputed from the
displacement of each pretrained source model to the current iterate and an
empirical information gram over the target data. The first epoch always
runs target-only, since weights start at zero. Multi-task mode is the
same round-robin loop with every task a learner and the others its sources.

The loss is the negated ``weighted_loglik`` (the objective the weighted
MLE maximizes) normalized by the unweighted pooled sample count. Against
the unnormalized weighted likelihood this only rescales the gradient, so
it is a learning-rate convention, not a different objective. A step takes
the loss and its gradient together from ``weighted_loss_gradient``, one
forward pass per data block with positive weight; a zero-weight block is
not evaluated, so every source block is checked once on entry instead.
Training starts at ``weighted_mle.search_start``, as Newton does.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ParameterError, TransferOptError
from .families import whole_count
from .fisher import projected_gram
from .planner import QpMatrix, optimal_plan
from .weighted_mle import fit_weighted_mle, search_start, weighted_loglik

__all__ = [
    "TrainConfig",
    "TrainTrace",
    "weighted_loss_gradient",
    "train_multi_source",
    "train_multi_task",
    "pretrain_params",
    "holdout_metrics",
]

CONVERGENCE_NORM = 1e-8


@dataclass
class TrainConfig:
    learning_rate: float
    epochs: int
    weight_update_period: int = 1
    ridge: float = 0.0

    def __post_init__(self):
        self.epochs = whole_count(self.epochs, "epochs", ParameterError)
        self.weight_update_period = whole_count(
            self.weight_update_period, "weight update period", ParameterError)
        if self.learning_rate <= 0:
            raise ParameterError("learning rate must be positive")
        if self.epochs < 1:
            raise ParameterError("need at least one epoch")
        if self.weight_update_period < 1:
            raise ParameterError("weight update period must be >= 1")
        if self.ridge < 0:
            raise ParameterError("ridge must be nonnegative")


@dataclass
class TrainTrace:
    """Per-epoch log plus the final parameters.

    Each record holds the weights in effect during that epoch's step, the
    data loss at the step's start, the norm of the applied gradient
    (including any ridge term), and held-out metrics after the step.
    """

    records: list = field(default_factory=list)
    final_theta: np.ndarray = None
    stop_reason: str = "epochs"

    def add(self, epoch, loss, weights, grad_norm, holdout_nll, holdout_acc):
        self.records.append({
            "epoch": int(epoch),
            "loss": float(loss),
            "weights": np.asarray(weights, dtype=float).copy(),
            "grad_norm": float(grad_norm),
            "holdout_nll": float(holdout_nll),
            "holdout_acc": float(holdout_acc),
        })

    @property
    def final_weights(self):
        return self.records[-1]["weights"]

    @property
    def final_holdout_nll(self):
        return self.records[-1]["holdout_nll"]

    def rows(self):
        out = []
        for rec in self.records:
            row = {"epoch": rec["epoch"], "loss": rec["loss"]}
            for i, w in enumerate(rec["weights"]):
                row[f"w_{i + 1}"] = float(w)
            row["grad_norm"] = rec["grad_norm"]
            row["holdout_nll"] = rec["holdout_nll"]
            row["holdout_acc"] = rec["holdout_acc"]
            out.append(row)
        return out

    def to_json_dict(self):
        last = self.records[-1]
        return {
            "epochs_run": len(self.records),
            "stop_reason": self.stop_reason,
            "final_loss": last["loss"],
            "final_weights": [float(w) for w in last["weights"]],
            "final_grad_norm": last["grad_norm"],
            "final_holdout_nll": last["holdout_nll"],
            "final_holdout_acc": last["holdout_acc"],
            "final_theta": [float(v) for v in self.final_theta],
        }


def weighted_loss_gradient(family, theta, target, sources, weights,
                           ridge=0.0):
    """``(loss, gradient)``: ``weighted_loglik`` negated and divided by the
    unweighted pooled sample count, and its gradient plus
    ``2*ridge*theta`` (the loss has no ridge term)."""
    n = family.n_samples(target)
    if n == 0:
        raise ParameterError("target data must be nonempty")
    loglik, score = weighted_loglik(family, theta, target, sources, weights)
    n += sum(family.n_samples(block) for block in sources)
    g = -score / n
    if ridge:
        g = g + 2.0 * float(ridge) * np.asarray(theta, dtype=float)
    return -loglik / n, g


def holdout_metrics(family, theta, holdout_data):
    """Mean negative log likelihood and accuracy on held-out data.

    Accuracy is only defined for classifier-style families; others get NaN.
    """
    if holdout_data is None:
        return float("nan"), float("nan")
    if not hasattr(family, "class_probs"):
        nll = -float(family.log_density_batch(theta, holdout_data).mean())
        return nll, float("nan")
    zs, ys = family.check_batch(holdout_data)
    q = family.class_probs(theta, zs)
    nll = -float(np.log(q[np.arange(len(ys)), ys]).mean())
    acc = float(np.mean(np.argmax(q, axis=1) == ys))
    return nll, acc


def pretrain_params(family, samples, ridge=0.0):
    """Fit one source model on its full dataset, as plan input."""
    return fit_weighted_mle(family, samples, ridge=ridge)


def _replan(family, theta, target_data, source_params, budgets, n_target):
    """Plan weights at ``theta``; an overflowing gram is a ConvergenceError."""
    directions = np.stack([p - theta for p in source_params], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = projected_gram(family, theta, target_data, directions)
    if not np.isfinite(gram).all():
        raise ConvergenceError("information gram is not finite",
                               last_iterate=theta)
    qp = QpMatrix(gram, budgets, family.dim)
    return optimal_plan(qp, n_target=n_target).weights


def _at(epoch, task):
    return ("" if task is None else f" for task {task}") + f" at epoch {epoch}"


@contextmanager
def _replan_failure(epoch, task=None):
    """Tag a failing re-plan with its epoch (and task) in place, keeping
    attributes such as ConvergenceError.residual and ConfigError.field."""
    try:
        yield
    except TransferOptError as err:
        err.epoch = epoch
        err.args = (f"plan update failed{_at(epoch, task)}: {err}",)
        raise


def _step(family, cfg, theta, target_data, source_data, weights, holdout,
          trace, epoch, logged_weights, task=None):
    """One gradient step, recorded in ``trace`` with ``logged_weights``;
    returns the new iterate and the step's norm. An iterate off the
    parameter space raises ConvergenceError, and so does a FloatingPointError
    from the loss, gradient or holdout metrics; overflow reaching the
    iterate is silent."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            loss, grad = weighted_loss_gradient(
                family, theta, target_data, source_data, weights, cfg.ridge)
            grad_norm = float(np.linalg.norm(grad))
            new_theta = theta - cfg.learning_rate * grad
            step_norm = float(np.linalg.norm(new_theta - theta))
        try:
            family.validate(new_theta)
        except ParameterError as err:
            raise ConvergenceError(
                f"step left the parameter space{_at(epoch, task)}: {err}",
                last_iterate=theta, residual=grad_norm) from err
        nll, acc = holdout_metrics(family, new_theta, holdout)
    except FloatingPointError as err:
        raise ConvergenceError(f"step failed{_at(epoch, task)}: {err}",
                               last_iterate=theta) from err
    trace.add(epoch, loss, logged_weights, grad_norm, nll, acc)
    return new_theta, step_norm


def _round_robin(family, cfg, datasets, holdouts, sources=None):
    """One learner per dataset, each stepping on its own data in turn and
    re-planning its weights over every other pool block from the pool's
    parameters as they stand at its turn; returns the traces. The pool is
    ``sources``, fixed ``(blocks, parameters)``, or else the learners
    themselves, live. Stops right after the step that makes every step of
    an epoch small."""
    n = len(datasets)
    thetas = [search_start(family) for _ in range(n)]
    pool, params = (datasets, thetas) if sources is None else sources
    counts = np.array([family.n_samples(b) for b in pool], dtype=float)
    rows = [np.zeros(len(pool)) for _ in range(n)]
    traces = [TrainTrace() for _ in range(n)]
    for epoch in range(1, cfg.epochs + 1):
        small = 0
        for t, data in enumerate(datasets):
            task = t if n > 1 else None
            src = [j for j in range(len(pool)) if sources is not None or j != t]
            thetas[t], step_norm = _step(
                family, cfg, thetas[t], data, [pool[j] for j in src],
                rows[t][src], holdouts[t], traces[t], epoch, rows[t], task)
            small += step_norm <= CONVERGENCE_NORM
            if (small < n and src and epoch < cfg.epochs
                    and epoch % cfg.weight_update_period == 0):
                with _replan_failure(epoch, task):
                    rows[t][src] = _replan(
                        family, thetas[t], data, [params[j] for j in src],
                        counts[src], family.n_samples(data))
        if small == n:
            for trace in traces:
                trace.stop_reason = "converged"
            break
    for trace, theta in zip(traces, thetas):
        trace.final_theta = theta
    return traces


def train_multi_source(family, target_data, source_data, source_params, cfg,
                       holdout_data=None):
    """Target training with dynamically re-planned source weights.

    ``source_params`` are the pretrained per-source parameter vectors;
    they stay fixed while the target parameters move. Weights start at
    zero, so the first epoch is target-only; afterwards each period ends
    with a plan recomputation from the current displacements and an
    empirical information gram over the target data. With no sources this
    is plain regularized gradient descent, which doubles as the baseline.
    This is the one-learner case of the round-robin loop.

    A failing re-plan re-raises its own exception, with the epoch in an
    ``epoch`` attribute and a ``plan update failed at epoch N:`` prefix on
    the message; a step off the parameter space, or a re-plan whose
    information gram overflows, raises ConvergenceError.
    """
    if len(source_params) != len(source_data):
        raise ParameterError("need one parameter vector per source block")
    source_params = [family.validate(p) for p in source_params]
    if family.n_samples(target_data) == 0:
        raise ParameterError("target data must be nonempty")
    if any(family.n_samples(b) < 1 for b in source_data):
        raise ParameterError("source blocks must be nonempty")
    for block in source_data:
        # a step skips zero-weight blocks, so each is checked here, once
        family.check_batch(block)
    return _round_robin(family, cfg, [target_data], [holdout_data],
                        (source_data, source_params))[0]


def train_multi_task(family, datasets, cfg, holdouts=None):
    """Round-robin mutual transfer: every task is also a source.

    Tasks update sequentially within an outer epoch, each seeing the most
    recent parameters of the others. Each task owns a weight vector over
    all tasks (its own entry pinned at zero) and re-plans at the end of
    its turn every period. Returns one trace per task. ``holdouts`` is
    None or one holdout set (or None) per task. A failing re-plan or a
    step off the parameter space is raised as in ``train_multi_source``,
    with ``for task T`` in the message prefix.
    """
    k = len(datasets)
    if k < 2:
        raise ParameterError("multi-task training needs at least two tasks")
    if holdouts is None:
        holdouts = [None] * k
    elif len(holdouts) != k:
        raise ParameterError(f"need one holdout set (or None) per task, "
                             f"got {len(holdouts)} for {k} tasks")
    if min(family.n_samples(ds) for ds in datasets) == 0:
        raise ParameterError("every task needs data")
    return _round_robin(family, cfg, datasets, holdouts)
