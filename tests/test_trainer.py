"""Training loops with re-planned weights, against step-by-step replays."""

import numpy as np
import pytest

from transferopt import (
    ConfigError,
    ConvergenceError,
    ParameterError,
    SupportError,
    TrainConfig,
    fit_weighted_mle,
    get_family,
    train_multi_source,
    train_multi_task,
)
from transferopt import trainer as trainer_mod
from transferopt import weighted_mle
from transferopt.fisher import projected_gram
from transferopt.planner import QpMatrix, optimal_plan
from transferopt.rng import derive_rng
from transferopt.trainer import (
    holdout_metrics,
    pretrain_params,
    weighted_loss_gradient,
)

from helpers import fd_gradient

FAM = get_family("softmax_regression", {"feature_dim": 3, "num_classes": 3})
TH_TRUE = np.array([0.8, -0.4, 0.2, -0.6, 0.7, -0.3, -0.2, -0.3, 0.1])
TH_OFF = np.array([2.0, 0.5, -0.9, -1.4, 1.7, 0.4, -0.6, -2.2, 0.5])


def make_data(seed, n_target=100, n_source=2000, n_holdout=2000):
    target = FAM.sample(TH_TRUE, n_target, derive_rng(seed, 0))
    relevant = FAM.sample(TH_TRUE, n_source, derive_rng(seed, 1))
    irrelevant = FAM.sample(TH_OFF, n_source, derive_rng(seed, 2))
    holdout = FAM.sample(TH_TRUE, n_holdout, derive_rng(seed, 9))
    return target, relevant, irrelevant, holdout


def test_train_config_validation():
    TrainConfig(learning_rate=1.0, epochs=5)
    with pytest.raises(ParameterError):
        TrainConfig(learning_rate=0.0, epochs=5)
    with pytest.raises(ParameterError):
        TrainConfig(learning_rate=1.0, epochs=0)
    with pytest.raises(ParameterError):
        TrainConfig(learning_rate=1.0, epochs=5, weight_update_period=0)
    with pytest.raises(ParameterError):
        TrainConfig(learning_rate=1.0, epochs=5, ridge=-1e-3)


def test_weighted_loss_hand_cases(cat3):
    theta = np.array([0.3, 0.4])
    target = np.array([0, 1])
    src = np.array([2, 2, 0])
    # zero weight: target nll over the pooled count
    want0 = -(np.log(0.3) + np.log(0.4)) / 5.0
    got0 = weighted_loss_gradient(cat3, theta, target, [src], [0.0])[0]
    assert abs(got0 - want0) <= 1e-15
    # unit weight: plain pooled mean nll
    pooled = np.array([0, 1, 2, 2, 0])
    want1 = -cat3.log_density_batch(theta, pooled).mean()
    got1 = weighted_loss_gradient(cat3, theta, target, [src], [1.0])[0]
    assert abs(got1 - want1) <= 1e-15
    # half weight, by hand
    want_h = -(np.log(0.3) + np.log(0.4)
               + 0.5 * (2 * np.log(0.3) + np.log(0.3))) / 5.0
    got_h = weighted_loss_gradient(cat3, theta, target, [src], [0.5])[0]
    assert abs(got_h - want_h) <= 1e-12
    with pytest.raises(ParameterError):
        weighted_loss_gradient(cat3, theta, np.array([], dtype=int), [src],
                               [0.5])


def test_a_malformed_source_block_fails_before_the_first_step(monkeypatch):
    """Weights start at zero and a step skips zero-weight blocks, so the
    blocks are checked on entry."""
    target, relevant, _, _ = make_data(12, n_source=50)
    bad = (relevant[0], np.full(50, FAM.num_classes))

    def no_step(*args):
        raise AssertionError("a step ran before the blocks were checked")

    monkeypatch.setattr("transferopt.trainer._step", no_step)
    cfg = TrainConfig(learning_rate=2.0, epochs=3, ridge=1e-6)
    with pytest.raises(SupportError, match="label outside class range"):
        train_multi_source(FAM, target, [relevant, bad], [TH_TRUE, TH_OFF],
                           cfg)


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    theta = 0.3 * rng.standard_normal(FAM.dim)
    target = FAM.sample(TH_TRUE, 30, derive_rng(1, 0))
    src = FAM.sample(TH_OFF, 20, derive_rng(1, 1))
    g = weighted_loss_gradient(FAM, theta, target, [src], [0.8],
                               ridge=0.01)[1]
    fd = fd_gradient(
        lambda th: weighted_loss_gradient(FAM, th, target, [src], [0.8])[0]
        + 0.01 * float(th @ th), theta)
    assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))


def test_single_epoch_is_one_target_only_step():
    target, relevant, _, _ = make_data(5)
    cfg = TrainConfig(learning_rate=2.0, epochs=1, ridge=1e-6)
    pre = pretrain_params(FAM, relevant, ridge=1e-6)
    trace = train_multi_source(FAM, target, [relevant], [pre], cfg)
    assert len(trace.records) == 1
    assert np.array_equal(trace.records[0]["weights"], [0.0])
    g = weighted_loss_gradient(FAM, np.zeros(FAM.dim), target, [relevant],
                               [0.0], ridge=1e-6)[1]
    want = -2.0 * g
    assert np.array_equal(trace.final_theta, want)


def test_no_source_training_is_plain_gradient_descent():
    target, _, _, holdout = make_data(6)
    cfg = TrainConfig(learning_rate=1.5, epochs=12, ridge=1e-5)
    trace = train_multi_source(FAM, target, [], [], cfg, holdout_data=holdout)

    theta = np.zeros(FAM.dim)
    for rec in trace.records:
        loss = weighted_loss_gradient(FAM, theta, target, [], [])[0]
        assert rec["loss"] == loss
        g = weighted_loss_gradient(FAM, theta, target, [], [], ridge=1e-5)[1]
        theta = theta - 1.5 * g
    assert np.array_equal(trace.final_theta, theta)
    assert trace.stop_reason in ("epochs", "converged")


def test_replanned_weights_match_a_replay():
    """The weights recorded for epoch e are exactly the plan computed from
    the parameters after epoch e-1, replayed here with public calls."""
    target, relevant, irrelevant, _ = make_data(7)
    cfg = TrainConfig(learning_rate=2.0, epochs=5, weight_update_period=1,
                      ridge=1e-6)
    pre = [pretrain_params(FAM, relevant, ridge=1e-6),
           pretrain_params(FAM, irrelevant, ridge=1e-6)]
    trace = train_multi_source(FAM, target, [relevant, irrelevant], pre, cfg)

    theta = np.zeros(FAM.dim)
    weights = np.zeros(2)
    budgets = np.array([2000.0, 2000.0])
    for epoch, rec in enumerate(trace.records, start=1):
        assert np.array_equal(rec["weights"], weights)
        g = weighted_loss_gradient(FAM, theta, target, [relevant, irrelevant],
                                   weights, ridge=1e-6)[1]
        theta = theta - 2.0 * g
        if epoch < cfg.epochs:
            dirs = np.stack([p - theta for p in pre], axis=1)
            gram = projected_gram(FAM, theta, target, dirs)
            qp = QpMatrix(gram, budgets, FAM.dim)
            weights = optimal_plan(qp, n_target=100).weights
    assert np.array_equal(trace.final_theta, theta)


def test_relevant_source_is_upweighted_and_helps():
    target, relevant, irrelevant, holdout = make_data(1000)
    cfg = TrainConfig(learning_rate=4.0, epochs=400, weight_update_period=1,
                      ridge=1e-6)
    pre = [pretrain_params(FAM, relevant, ridge=1e-6),
           pretrain_params(FAM, irrelevant, ridge=1e-6)]
    planned = train_multi_source(FAM, target, [relevant, irrelevant], pre,
                                 cfg, holdout_data=holdout)
    baseline = train_multi_source(FAM, target, [], [], cfg,
                                  holdout_data=holdout)
    w = planned.final_weights
    assert w[0] > w[1]  # same-distribution source above the shifted one
    assert w[0] > 0.5 and w[1] < 0.2
    assert planned.final_holdout_nll < baseline.final_holdout_nll


def test_training_is_deterministic():
    target, relevant, _, holdout = make_data(8)
    cfg = TrainConfig(learning_rate=3.0, epochs=20, ridge=1e-6)
    pre = [pretrain_params(FAM, relevant, ridge=1e-6)]
    a = train_multi_source(FAM, target, [relevant], pre, cfg,
                           holdout_data=holdout)
    b = train_multi_source(FAM, target, [relevant], pre, cfg,
                           holdout_data=holdout)
    assert np.array_equal(a.final_theta, b.final_theta)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra["loss"] == rb["loss"] and ra["grad_norm"] == rb["grad_norm"]
        assert np.array_equal(ra["weights"], rb["weights"])


def test_convergence_stop_reason():
    # a generous epoch budget on an easy problem ends early
    target = FAM.sample(TH_TRUE, 200, derive_rng(9, 0))
    cfg = TrainConfig(learning_rate=1.0, epochs=100000, ridge=0.1)
    trace = train_multi_source(FAM, target, [], [], cfg)
    assert trace.stop_reason == "converged"
    assert len(trace.records) < 100000
    assert float(np.linalg.norm(
        1.0 * weighted_loss_gradient(FAM, trace.final_theta, target, [], [],
                                     ridge=0.1)[1])) <= 1e-7


def test_plan_failure_carries_the_epoch(monkeypatch):
    target, relevant, _, _ = make_data(10)
    cfg = TrainConfig(learning_rate=2.0, epochs=5, ridge=1e-6)
    pre = [pretrain_params(FAM, relevant, ridge=1e-6)]

    import transferopt.trainer as trainer_mod

    def boom(*args, **kwargs):
        raise SupportError("no usable information")

    monkeypatch.setattr(trainer_mod, "projected_gram", boom)
    with pytest.raises(SupportError, match="plan update failed at epoch 1"):
        train_multi_source(FAM, target, [relevant], pre, cfg)


def test_multi_task_needs_two_tasks():
    data = FAM.sample(TH_TRUE, 50, derive_rng(11, 0))
    with pytest.raises(ParameterError):
        train_multi_task(FAM, [data], TrainConfig(learning_rate=1.0, epochs=2))


def test_every_task_and_block_needs_data():
    data = FAM.sample(TH_TRUE, 50, derive_rng(11, 0))
    empty = FAM.sample(TH_TRUE, 0, derive_rng(11, 1))
    cfg = TrainConfig(learning_rate=1.0, epochs=2)
    with pytest.raises(ParameterError, match="one parameter vector"):
        train_multi_source(FAM, data, [data], [TH_TRUE, TH_OFF], cfg)
    with pytest.raises(ParameterError, match="target data must be nonempty"):
        train_multi_source(FAM, empty, [data], [TH_TRUE], cfg)
    with pytest.raises(ParameterError, match="source blocks must be nonempty"):
        train_multi_source(FAM, data, [empty], [TH_TRUE], cfg)
    with pytest.raises(ParameterError, match="every task needs data"):
        train_multi_task(FAM, [data, empty], cfg)


def test_multi_task_needs_one_holdout_set_per_task(monkeypatch):
    """A short list stepped task 0 and then died with an IndexError; a long
    one was silently cut."""
    d0 = FAM.sample(TH_TRUE, 50, derive_rng(11, 0))
    d1 = FAM.sample(TH_TRUE, 50, derive_rng(11, 1))
    h0 = FAM.sample(TH_TRUE, 50, derive_rng(11, 9))

    def no_step(*args):
        raise AssertionError("a step ran before the holdouts were checked")

    monkeypatch.setattr("transferopt.trainer._step", no_step)
    cfg = TrainConfig(learning_rate=1.0, epochs=2)
    for holdouts in ([h0], [h0, None, h0]):
        with pytest.raises(ParameterError,
                           match="one holdout set \\(or None\\) per task"):
            train_multi_task(FAM, [d0, d1], cfg, holdouts=holdouts)


def test_multi_task_first_epoch_matches_zero_weight_pool():
    """Epoch one runs with all cross-task weights at zero, which is the
    same step as multi-source training against a dead source block."""
    d0 = FAM.sample(TH_TRUE, 80, derive_rng(12, 0))
    d1 = FAM.sample(TH_OFF, 120, derive_rng(12, 1))
    cfg = TrainConfig(learning_rate=2.0, epochs=1, ridge=1e-6)
    traces = train_multi_task(FAM, [d0, d1], cfg)
    for tr in traces:
        assert np.array_equal(tr.records[0]["weights"], np.zeros(2))
    solo0 = train_multi_source(FAM, d0, [d1], [np.zeros(FAM.dim)], cfg)
    solo1 = train_multi_source(FAM, d1, [d0], [np.zeros(FAM.dim)], cfg)
    assert np.array_equal(traces[0].final_theta, solo0.final_theta)
    assert np.array_equal(traces[1].final_theta, solo1.final_theta)
    assert traces[0].records[0]["loss"] == solo0.records[0]["loss"]


def test_multi_task_symmetric_tasks_stay_symmetric():
    d0 = FAM.sample(TH_TRUE, 100, derive_rng(3000, 0))
    d1 = FAM.sample(TH_TRUE, 100, derive_rng(3000, 1))
    h0 = FAM.sample(TH_TRUE, 1000, derive_rng(3000, 9000))
    h1 = FAM.sample(TH_TRUE, 1000, derive_rng(3000, 9001))
    cfg = TrainConfig(learning_rate=4.0, epochs=120, weight_update_period=1,
                      ridge=1e-6)
    traces = train_multi_task(FAM, [d0, d1], cfg, holdouts=[h0, h1])
    w01 = traces[0].final_weights[1]
    w10 = traces[1].final_weights[0]
    assert traces[0].final_weights[0] == 0.0
    assert traces[1].final_weights[1] == 0.0
    assert w01 > 0.2 and w10 > 0.2
    assert abs(w01 - w10) <= 0.1 * max(w01, w10)
    assert abs(traces[0].records[-1]["loss"]
               - traces[1].records[-1]["loss"]) <= 0.05


def test_multi_task_plan_failure_names_task_and_epoch(monkeypatch):
    d0 = FAM.sample(TH_TRUE, 40, derive_rng(13, 0))
    d1 = FAM.sample(TH_TRUE, 40, derive_rng(13, 1))
    cfg = TrainConfig(learning_rate=1.0, epochs=3, ridge=1e-6)

    import transferopt.trainer as trainer_mod

    def boom(*args, **kwargs):
        raise SupportError("no usable information")

    monkeypatch.setattr(trainer_mod, "projected_gram", boom)
    with pytest.raises(SupportError, match="task 0 at epoch 1"):
        train_multi_task(FAM, [d0, d1], cfg)


@pytest.mark.parametrize("make_error", [
    lambda: ConvergenceError("qp stalled", last_iterate=np.array([0.1, 0.2]),
                             residual=0.5),
    lambda: ConfigError("bad budgets", field="/sources/0/budget"),
], ids=["convergence-error", "config-error"])
def test_replan_failure_reraises_the_same_exception(monkeypatch, make_error):
    target = FAM.sample(TH_TRUE, 40, derive_rng(18, 0))
    other = FAM.sample(TH_OFF, 40, derive_rng(18, 1))
    cfg = TrainConfig(learning_rate=1.0, epochs=5, ridge=1e-6)
    # the third re-plan is epoch 3 of one target, or task 0 in epoch 2 of two
    runs = [
        (lambda: train_multi_source(FAM, target, [other], [TH_OFF], cfg),
         3, "plan update failed at epoch 3: "),
        (lambda: train_multi_task(FAM, [target, other], cfg),
         2, "plan update failed for task 0 at epoch 2: "),
    ]
    for train, epoch, prefix in runs:
        error = make_error()
        message = str(error)
        calls = []

        def replan_fails_on_third_call(*args):
            calls.append(None)
            if len(calls) == 3:
                raise error
            return np.array([0.5])

        monkeypatch.setattr("transferopt.trainer._replan",
                            replan_fails_on_third_call)
        with pytest.raises(type(error)) as info:
            train()
        err = info.value
        assert err is error
        assert err.epoch == epoch
        assert str(err) == prefix + message
        if isinstance(err, ConvergenceError):
            assert err.last_iterate.tolist() == [0.1, 0.2]
            assert err.residual == 0.5
        else:
            assert err.field == "/sources/0/budget"


def test_pretrain_matches_direct_fit():
    from transferopt import fit_weighted_mle

    data = FAM.sample(TH_TRUE, 300, derive_rng(14, 0))
    got = pretrain_params(FAM, data, ridge=1e-6)
    want = fit_weighted_mle(FAM, data, ridge=1e-6)
    assert np.array_equal(got, want)


def test_holdout_metrics_shapes(gauss3):
    nll, acc = holdout_metrics(gauss3, np.zeros(3),
                               gauss3.sample(np.zeros(3), 50, 15))
    assert np.isfinite(nll) and np.isnan(acc)
    data = FAM.sample(TH_TRUE, 50, derive_rng(16, 0))
    nll_s, acc_s = holdout_metrics(FAM, TH_TRUE, data)
    assert np.isfinite(nll_s) and 0.0 <= acc_s <= 1.0
    nan_nll, nan_acc = holdout_metrics(FAM, TH_TRUE, None)
    assert np.isnan(nan_nll) and np.isnan(nan_acc)


def test_trace_rows_and_payload():
    target, relevant, _, holdout = make_data(17)
    cfg = TrainConfig(learning_rate=2.0, epochs=3, ridge=1e-6)
    pre = [pretrain_params(FAM, relevant, ridge=1e-6)]
    trace = train_multi_source(FAM, target, [relevant], pre, cfg,
                               holdout_data=holdout)
    rows = trace.rows()
    assert [r["epoch"] for r in rows] == [1, 2, 3]
    assert set(rows[0]) == {"epoch", "loss", "w_1", "grad_norm",
                            "holdout_nll", "holdout_acc"}
    payload = trace.to_json_dict()
    assert payload["epochs_run"] == 3
    assert payload["final_weights"] == [float(trace.final_weights[0])]
    assert len(payload["final_theta"]) == FAM.dim


def _count_loss_calls(monkeypatch):
    calls = []
    real = trainer_mod.weighted_loss_gradient

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr("transferopt.trainer.weighted_loss_gradient", counted)
    return calls


def test_every_recorded_epoch_evaluates_the_loss_once(monkeypatch):
    """The step reaches the loss through the module attribute, so a
    wrapper around ``trainer.weighted_loss_gradient`` sees every step."""
    target, relevant, irrelevant, _ = make_data(11, n_source=200)
    cfg = TrainConfig(learning_rate=2.0, epochs=4, ridge=1e-6)
    pre = [pretrain_params(FAM, relevant, ridge=1e-6)]
    calls = _count_loss_calls(monkeypatch)
    trace = train_multi_source(FAM, target, [relevant], pre, cfg)
    assert len(calls) == len(trace.records) == 4
    calls.clear()
    traces = train_multi_task(FAM, [target, relevant, irrelevant], cfg)
    assert len(calls) == sum(len(t.records) for t in traces) == 12


def test_training_starts_where_newton_starts(cat3, monkeypatch):
    """Both trainers started at zeros, off the categorical simplex, so
    every categorical run failed at its first step."""
    target = cat3.sample(np.array([0.3, 0.4]), 40, derive_rng(13, 0))
    starts = []
    real = weighted_mle.weighted_loglik_grad

    def first_point(family, theta, *args, **kwargs):
        starts.append(np.array(theta))
        return real(family, theta, *args, **kwargs)

    monkeypatch.setattr(weighted_mle, "weighted_loglik_grad", first_point)
    fit_weighted_mle(cat3, target, ridge=0.1)  # a ridge sends it to Newton
    monkeypatch.undo()
    cfg = TrainConfig(learning_rate=0.1, epochs=1)
    trace = train_multi_source(cat3, target, [], [], cfg)
    want = weighted_loss_gradient(cat3, starts[0], target, [], [])[0]
    assert trace.records[0]["loss"] == want
    assert want == pytest.approx(np.log(3.0), rel=1e-15)  # uniform start


def test_a_step_off_the_simplex_is_a_convergence_error(cat3, monkeypatch):
    """The bad iterate used to reach the holdout metrics, which raised a
    ParameterError naming neither an epoch nor a field (exit 2)."""
    target = cat3.sample(np.array([0.3, 0.4]), 50, derive_rng(21, 0))
    source = cat3.sample(np.array([0.32, 0.41]), 200, derive_rng(21, 1))
    holdout = cat3.sample(np.array([0.3, 0.4]), 100, derive_rng(21, 9))
    pre = [pretrain_params(cat3, source)]
    cfg = TrainConfig(learning_rate=5.0, epochs=20)
    evaluated = []
    real = trainer_mod.holdout_metrics
    monkeypatch.setattr(trainer_mod, "holdout_metrics",
                        lambda fam, th, data: evaluated.append(th)
                        or real(fam, th, data))
    with pytest.raises(ConvergenceError,
                       match=r"^step left the parameter space at epoch 2: "
                             r"probabilities must stay inside the simplex"
                       ) as info:
        train_multi_source(cat3, target, [source], pre, cfg,
                           holdout_data=holdout)
    assert len(evaluated) == 1
    before = train_multi_source(cat3, target, [source], pre,
                                TrainConfig(learning_rate=5.0, epochs=1))
    assert np.array_equal(info.value.last_iterate, before.final_theta)
    with pytest.raises(ConvergenceError,
                       match=r"^step left the parameter space for task 1 at "
                             r"epoch 1: ") as info:
        train_multi_task(cat3, [target, source], cfg)
    assert np.array_equal(info.value.last_iterate,
                          weighted_mle.search_start(cat3))
