import numpy as np
import pytest

from synnet.data import augment, generate_phantom, training_pairs
from synnet.model import Topology, build_model
from synnet.optim import (OptimState, TrainConfig, TrainingDivergedError,
                          sgd_step, train)
from synnet.loss import LossWeights, SsimConfig, edge_weight_map, joint_loss
from synnet.tensor import RngStream, ParameterError, UsageError


def test_sgd_two_steps_hand_computed():
    params = {"w": np.array([1.0])}
    state = OptimState(lr=0.01, momentum=0.9)
    sgd_step(params, {"w": np.array([0.1])}, state)
    assert state.velocity["w"][0] == pytest.approx(0.001, abs=1e-15)
    assert params["w"][0] == pytest.approx(0.999, abs=1e-15)
    sgd_step(params, {"w": np.array([0.1])}, state)
    assert state.velocity["w"][0] == pytest.approx(0.0019, abs=1e-15)
    assert params["w"][0] == pytest.approx(0.9971, abs=1e-15)
    assert state.iteration == 2


def test_sgd_zero_momentum_is_plain_gradient_descent():
    rng = RngStream(1)
    params = {"w": rng.uniform((2, 2, 3, 3), -1, 1, dtype="double")}
    grads = {"w": rng.uniform((2, 2, 3, 3), -1, 1, dtype="double")}
    expect = params["w"] - 0.05 * grads["w"]
    sgd_step(params, grads, OptimState(lr=0.05, momentum=0.0))
    assert np.allclose(params["w"], expect, atol=1e-15)


def test_sgd_constant_gradient_velocity_geometric_series():
    # with a constant gradient g, velocity after k steps is
    # lr * g * (1 - rho^k) / (1 - rho)
    lr, rho, g = 0.01, 0.9, 0.3
    params = {"w": np.array([0.0])}
    state = OptimState(lr=lr, momentum=rho)
    for k in range(1, 11):
        sgd_step(params, {"w": np.array([g])}, state)
        expect = lr * g * (1 - rho ** k) / (1 - rho)
        assert state.velocity["w"][0] == pytest.approx(expect, rel=1e-12)


def test_sgd_rejects_shape_mismatch():
    with pytest.raises(UsageError):
        sgd_step({"w": np.zeros(3)}, {"w": np.zeros(4)}, OptimState())


def test_sgd_converges_on_quadratic():
    # minimize 0.5 * ||w - 3||^2 by feeding grad = w - 3
    params = {"w": np.array([0.0])}
    state = OptimState(lr=0.1, momentum=0.9)
    for _ in range(500):
        sgd_step(params, {"w": params["w"] - 3.0}, state)
    assert params["w"][0] == pytest.approx(3.0, abs=1e-9)


def _toy_dataset(n=6, size=8, seed=0):
    rng = RngStream(seed)
    out = []
    for i in range(n):
        x = rng.uniform((1, 1, size, size), 0.0, 1.0, dtype="double")
        out.append(([x], [1.0 - x]))
    return out


def _toy_model(seed=0):
    topo = Topology(kind="siso", depth=1, channels=(4,), final_width=4)
    return build_model(topo, RngStream(seed).child("init"), dtype="double")


def test_train_history_row_per_iteration():
    model, params, state = _toy_model()
    cfg = TrainConfig(batch_size=2, epochs=3, seed=7, loss="l2")
    params, opt, history = train(model, params, state, _toy_dataset(), cfg)
    assert len(history) == 3 * 3                     # 6 samples / batch 2 * 3 epochs
    assert [row["iter"] for row in history] == list(range(1, 10))
    assert opt.iteration == 9 and opt.epoch == 3
    assert all(np.isfinite(row["total"]) for row in history)


def test_train_loss_decreases_on_toy_problem():
    model, params, state = _toy_model()
    cfg = TrainConfig(batch_size=6, epochs=40, seed=7, loss="l2",
                      loss_weights=LossWeights(10, 5, 0.5, 0.0))
    opt = OptimState(lr=0.1, momentum=0.9)
    params, opt, history = train(model, params, state, _toy_dataset(), cfg, opt)
    assert history[-1]["total"] < 0.25 * history[0]["total"]


def test_train_is_deterministic():
    runs = []
    for _ in range(2):
        model, params, state = _toy_model()
        cfg = TrainConfig(batch_size=2, epochs=2, seed=11, loss="weighted_l2")
        opt = OptimState(lr=0.05, momentum=0.9)
        params, opt, history = train(model, params, state, _toy_dataset(), cfg, opt)
        runs.append((params, [row["total"] for row in history]))
    assert runs[0][1] == runs[1][1]
    for name in runs[0][0]:
        assert np.array_equal(runs[0][0][name], runs[1][0][name])


def test_train_resume_matches_uninterrupted():
    dataset = _toy_dataset()

    def run(epochs, carry=None):
        model, params, state = _toy_model()
        if carry is not None:
            params, state, opt = carry
        else:
            opt = OptimState(lr=0.05, momentum=0.9)
        cfg = TrainConfig(batch_size=2, epochs=epochs, seed=13, loss="l2")
        params, opt, _ = train(model, params, state, dataset, cfg, opt)
        return params, state, opt

    full = run(4)
    half = run(2)
    resumed = run(4, carry=half)
    for name in full[0]:
        assert np.array_equal(full[0][name], resumed[0][name])
    for name in full[1]:
        assert np.array_equal(full[1][name], resumed[1][name])


def test_train_shuffle_flag_changes_visit_order():
    # with shuffle off the loss sequence must be identical across seeds
    def run(seed, shuffle):
        model, params, state = _toy_model()
        cfg = TrainConfig(batch_size=1, epochs=1, seed=seed, loss="l2",
                          shuffle=shuffle)
        _, _, history = train(model, params, state, _toy_dataset(), cfg)
        return [row["total"] for row in history]

    assert run(1, False) == run(2, False)
    assert run(1, True) != run(2, True)


def test_train_joint_loss_populates_all_terms():
    model, params, state = _toy_model()
    cfg = TrainConfig(batch_size=6, epochs=1, seed=3, loss="joint",
                      ssim=SsimConfig(mode="global"))
    _, _, history = train(model, params, state, _toy_dataset(), cfg)
    row = history[0]
    assert row["l2"] > 0 and row["ssim"] > 0 and row["tv"] > 0 and row["wd"] > 0


@pytest.mark.parametrize("kind", ["l2", "weighted_l2"])
def test_l2_kinds_ignore_ssim_and_tv_weights(kind):
    # the L2 kinds train through joint_loss with weights (1, 0, 0, lambda4),
    # whatever lambda1-lambda3 say
    runs = []
    for lam in ((10.0, 5.0, 0.5), (1.0, 0.0, 0.0)):
        model, params, state = _toy_model()
        cfg = TrainConfig(batch_size=2, epochs=2, seed=5, loss=kind,
                          loss_weights=LossWeights(*lam, 1e-3))
        runs.append(train(model, params, state, _toy_dataset(), cfg,
                          OptimState(lr=0.05, momentum=0.9)))
    (p1, o1, h1), (p2, o2, h2) = runs
    assert h1 == h2
    for name in p1:
        assert np.array_equal(p1[name], p2[name])
        assert np.array_equal(o1.velocity[name], o2.velocity[name])
    for row in h1:
        assert row["ssim"] == 0.0 and row["tv"] == 0.0
        assert row["total"] == row["l2"] + 1e-3 * row["wd"]


def test_train_divergence_guard():
    model, params, state = _toy_model()
    for name in params:                             # blow up the starting point
        params[name] = params[name] + 1e100
    cfg = TrainConfig(batch_size=6, epochs=5, seed=3, loss="l2")
    with pytest.warns(RuntimeWarning, match="overflow"), \
            pytest.raises(TrainingDivergedError,
                          match=r"^non-finite loss at iteration 1 \(epoch 0\)$"):
        train(model, params, state, _toy_dataset(), cfg)


def test_train_divergence_guard_names_the_iteration():
    # float32 parameters at +1e100 are inf, so the first prediction is not
    # finite; train must say so itself, before the loss sees it
    topo = Topology(kind="siso", depth=1, channels=(4,), final_width=4)
    model, params, state = build_model(topo, RngStream(0).child("init"), dtype="single")
    data = [([x.astype(np.float32)], [t.astype(np.float32)]) for [x], [t] in _toy_dataset()]
    cfg = TrainConfig(batch_size=6, epochs=2, seed=3, loss="l2")
    with np.errstate(all="ignore"):
        for name in params:
            params[name] = params[name] + 1e100
        assert params[name].dtype == np.float32
        with pytest.raises(TrainingDivergedError, match=r"iteration 1 \(epoch 0\)"):
            train(model, params, state, data, cfg)


@pytest.mark.parametrize("kind, param, layer", [
    ("siso", "dec.arm0.block1.conv.weight", "dec.arm0.block1"),
    ("siso", "head.arm0.conv.weight", "head.arm0"),
    ("mimo", "enc.arm1.block0.conv.weight", "enc.arm1.block0"),
    ("mimo", "dec.arm1.block0.conv.weight", "dec.arm1.block0"),
], ids=["siso-decoder", "siso-head", "mimo-encoder", "mimo-decoder-arm1"])
def test_train_divergence_guard_names_the_first_non_finite_layer(kind, param, layer):
    topo = Topology(kind=kind, depth=2, channels=(4, 6), final_width=4)
    model, params, state = build_model(topo, RngStream(0).child("init"))
    rng = RngStream(1)
    data = [([rng.uniform((1, 1, 8, 8), 0, 1) for _ in range(topo.in_arms)],
             [rng.uniform((1, 1, 8, 8), 0, 1) for _ in range(topo.out_arms)])
            for _ in range(4)]
    params[param] = params[param].copy()
    params[param].flat[0] = np.nan
    with pytest.raises(TrainingDivergedError,
                       match=rf"iteration 1 \(epoch 0\), first in {layer}$"):
        train(model, params, state, data, TrainConfig(batch_size=4, epochs=1, loss="l2"))


def test_train_scans_for_the_layer_only_when_a_prediction_is_not_finite(monkeypatch):
    from synnet.model import SynNetModel

    def no_scan(*args):
        raise AssertionError("nonfinite_layer called on a healthy step")

    monkeypatch.setattr(SynNetModel, "nonfinite_layer", no_scan)
    model, params, state = _toy_model()
    train(model, params, state, _toy_dataset(), TrainConfig(batch_size=3, epochs=1, loss="l2"))


def test_train_rejects_empty_dataset_and_bad_config():
    model, params, state = _toy_model()
    with pytest.raises(ParameterError):
        train(model, params, state, [], TrainConfig())
    with pytest.raises(ParameterError):
        TrainConfig(loss="l1")
    with pytest.raises(ParameterError):
        TrainConfig(batch_size=0)


def test_training_loss_is_taken_on_the_unpadded_image():
    # 18x18 is not a multiple of 2^depth = 4: the model pads to 20x20 and
    # crops back, so the loss sees the 18x18 image and none of the padding
    dataset = training_pairs([generate_phantom(i, 18, 18) for i in range(4)], ["m1"], ["m2"])
    model, params, state = build_model(
        Topology(depth=2, channels=(4, 6), final_width=4), RngStream(0), dtype="double")
    cfg = TrainConfig(batch_size=4, epochs=1, seed=0, shuffle=False)
    inputs = [np.concatenate([ins[0] for ins, _ in dataset])]
    targets = [np.concatenate([outs[0] for _, outs in dataset])]
    preds, _ = model.forward(params, dict(state), inputs, mode="train")
    assert preds[0].shape == targets[0].shape == (4, 1, 18, 18)
    expect = joint_loss(preds, targets, params, cfg.loss_weights, cfg.ssim,
                        maps=[edge_weight_map(targets[0], cfg.edge_beta)], tv_eps=cfg.tv_eps)
    _, _, history = train(model, params, state, dataset, cfg, OptimState())
    assert history[0]["total"] == expect.total


def test_augmented_training_on_non_square_images_keeps_every_shape():
    # an odd rot90 turns a 16x24 image into 24x16; augmentation fits it back
    dataset = training_pairs([generate_phantom(i, 16, 24) for i in range(4)], ["m1"], ["m2"])
    shapes = set()

    def augment_fn(pair, rng):
        out = augment(pair, rng)
        shapes.update(t.shape for side in out for t in side)
        return out

    model, params, state = build_model(
        Topology(depth=2, channels=(2, 2), final_width=2), RngStream(0), dtype="double")
    cfg = TrainConfig(batch_size=4, epochs=4, seed=1, loss="l2")
    _, _, history = train(model, params, state, dataset, cfg, OptimState(), augment_fn=augment_fn)
    assert len(history) == 4 and shapes == {(1, 1, 16, 24)}
