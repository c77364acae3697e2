"""Training loops that re-plan source weights as the target model moves.

Multi-source mode: gradient descent on a weighted pooled loss, where after
each epoch (or each configured period) the plan is recomputed from the
displacement of each pretrained source model to the current iterate and an
empirical information gram over the target data. The first epoch always
runs target-only, since weights start at zero. Multi-task mode runs the
same loop round-robin, every task treating the others as its sources.

The loss is normalized by the unweighted pooled sample count. Against the
unnormalized weighted likelihood this only rescales the gradient, so it is
a learning-rate convention, not a different objective.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, TransferOptError
from .fisher import projected_gram
from .planner import build_qp_matrix, optimal_plan
from .weighted_mle import FitOptions, WeightedDataset, fit_weighted_mle

__all__ = [
    "TrainConfig",
    "TrainTrace",
    "weighted_loss",
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
    seed: int = 0

    def __post_init__(self):
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
    stop_reason: str = ""

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


def _pool_count(family, target_data, source_data):
    n = family.n_samples(target_data)
    for block in source_data:
        n += family.n_samples(block)
    return n


def weighted_loss(family, theta, target_data, source_data, weights):
    """Pooled negative log likelihood with per-source weights.

    Equals [sum of target losses + sum_k w_k * (sum of source-k losses)]
    divided by the unweighted pooled sample count.
    """
    if family.n_samples(target_data) == 0:
        raise ParameterError("target data must be nonempty")
    total = -float(family.log_density_batch(theta, target_data).sum())
    for w, block in zip(weights, source_data):
        total -= float(w) * float(family.log_density_batch(theta, block).sum())
    return total / _pool_count(family, target_data, source_data)


def weighted_loss_gradient(family, theta, target_data, source_data, weights,
                           ridge=0.0):
    """Gradient of the pooled weighted loss, plus ``2*ridge*theta``."""
    g = -family.score_batch(theta, target_data).sum(axis=0)
    for w, block in zip(weights, source_data):
        g -= float(w) * family.score_batch(theta, block).sum(axis=0)
    g /= _pool_count(family, target_data, source_data)
    if ridge:
        g = g + 2.0 * float(ridge) * np.asarray(theta, dtype=float)
    return g


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
    opts = FitOptions(ridge=ridge) if ridge else None
    return fit_weighted_mle(family, WeightedDataset(samples, []), opts)


def _replan(family, theta, target_data, source_params, budgets, n_target, d):
    directions = np.stack([p - theta for p in source_params], axis=1)
    gram = projected_gram(family, theta, target_data, directions)
    qp = build_qp_matrix(None, gram, budgets, d)
    return optimal_plan(qp, n_target=n_target).weights


def train_multi_source(family, target_data, source_data, source_params, cfg,
                       holdout_data=None):
    """Target training with dynamically re-planned source weights.

    ``source_params`` are the pretrained per-source parameter vectors;
    they stay fixed while the target parameters move. Weights start at
    zero, so the first epoch is target-only; afterwards each period ends
    with a plan recomputation from the current displacements and an
    empirical information gram over the target data. With no sources this
    is plain regularized gradient descent, which doubles as the baseline.

    A failing re-plan re-raises its own exception, with the epoch in an
    ``epoch`` attribute and a ``plan update failed at epoch N:`` prefix on
    the message.
    """
    k = len(source_data)
    if len(source_params) != k:
        raise ParameterError("need one parameter vector per source block")
    source_params = [family.validate(p) for p in source_params]
    n0 = family.n_samples(target_data)
    if n0 == 0:
        raise ParameterError("target data must be nonempty")
    budgets = np.array([family.n_samples(b) for b in source_data], dtype=float)
    if np.any(budgets < 1):
        raise ParameterError("source blocks must be nonempty")
    d = family.dim

    theta = np.zeros(d)
    weights = np.zeros(k)
    trace = TrainTrace()
    trace.stop_reason = "epochs"
    for epoch in range(1, cfg.epochs + 1):
        loss = weighted_loss(family, theta, target_data, source_data, weights)
        grad = weighted_loss_gradient(family, theta, target_data, source_data,
                                      weights, ridge=cfg.ridge)
        new_theta = theta - cfg.learning_rate * grad
        nll, acc = holdout_metrics(family, new_theta, holdout_data)
        trace.add(epoch, loss, weights, np.linalg.norm(grad), nll, acc)
        step_norm = float(np.linalg.norm(new_theta - theta))
        theta = new_theta
        if step_norm <= CONVERGENCE_NORM:
            trace.stop_reason = "converged"
            break
        if k > 0 and epoch < cfg.epochs and epoch % cfg.weight_update_period == 0:
            try:
                weights = _replan(family, theta, target_data, source_params,
                                  budgets, n0, d)
            except TransferOptError as err:
                # tag the same object: rebuilding it would drop attributes
                # such as ConvergenceError.residual and ConfigError.field
                err.epoch = epoch
                err.args = (f"plan update failed at epoch {epoch}: {err}",)
                raise
    trace.final_theta = theta
    return trace


def train_multi_task(family, datasets, cfg, holdouts=None):
    """Round-robin mutual transfer: every task is also a source.

    Tasks update sequentially within an outer epoch, each seeing the most
    recent parameters of the others. Each task owns a weight vector over
    all tasks (its own entry pinned at zero) and re-plans at the end of
    its turn every period. Returns one trace per task. A failing re-plan
    is re-raised as in ``train_multi_source``, with ``for task T`` in the
    message prefix.
    """
    k = len(datasets)
    if k < 2:
        raise ParameterError("multi-task training needs at least two tasks")
    if holdouts is None:
        holdouts = [None] * k
    counts = [family.n_samples(ds) for ds in datasets]
    if min(counts) == 0:
        raise ParameterError("every task needs data")
    d = family.dim

    thetas = [np.zeros(d) for _ in range(k)]
    weight_rows = [np.zeros(k) for _ in range(k)]
    traces = [TrainTrace() for _ in range(k)]
    for tr in traces:
        tr.stop_reason = "epochs"

    for epoch in range(1, cfg.epochs + 1):
        all_small = True
        for task in range(k):
            others = [j for j in range(k) if j != task]
            src_data = [datasets[j] for j in others]
            src_w = weight_rows[task][others]
            loss = weighted_loss(family, thetas[task], datasets[task],
                                 src_data, src_w)
            grad = weighted_loss_gradient(family, thetas[task], datasets[task],
                                          src_data, src_w, ridge=cfg.ridge)
            new_theta = thetas[task] - cfg.learning_rate * grad
            nll, acc = holdout_metrics(family, new_theta, holdouts[task])
            traces[task].add(epoch, loss, weight_rows[task],
                             np.linalg.norm(grad), nll, acc)
            step_norm = float(np.linalg.norm(new_theta - thetas[task]))
            thetas[task] = new_theta
            if step_norm > CONVERGENCE_NORM:
                all_small = False
            if epoch < cfg.epochs and epoch % cfg.weight_update_period == 0:
                try:
                    planned = _replan(
                        family, thetas[task], datasets[task],
                        [thetas[j] for j in others],
                        np.array([counts[j] for j in others], dtype=float),
                        counts[task], d)
                except TransferOptError as err:
                    err.epoch = epoch
                    err.args = (f"plan update failed for task {task} at "
                                f"epoch {epoch}: {err}",)
                    raise
                row = np.zeros(k)
                row[others] = planned
                weight_rows[task] = row
        if all_small:
            for tr in traces:
                tr.stop_reason = "converged"
            break

    for task in range(k):
        traces[task].final_theta = thetas[task]
    return traces
