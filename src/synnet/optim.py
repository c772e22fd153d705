"""Mini-batch SGD with momentum and the training loop.

Update rule per iteration k:
    velocity = rho * velocity + lr * grad
    theta    = theta - velocity

The training loop is a pure function of (initial params, dataset order,
config seed): per-epoch shuffles are drawn from streams derived from the
config seed, so identical reruns are bit-identical and a resumed run
continues exactly where the checkpointed one stopped.

Every loss kind runs through `loss.joint_loss`: `joint` with the configured
weights, `l2` and `weighted_l2` with weights (1, 0, 0, lambda4), so their
SSIM and TV terms are not computed and report 0. Every kind but `l2`
weights its pixels by the target's edge map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import loss as loss_mod
from .loss import LossWeights, SsimConfig
from .tensor import RngStream, ParameterError, UsageError

LOSS_KINDS = ("l2", "weighted_l2", "joint")


class TrainingDivergedError(RuntimeError):
    """A prediction or the total loss became non-finite during training; for
    a prediction, the message names the first layer that did."""


@dataclass
class OptimState:
    velocity: dict = field(default_factory=dict)   # mirrors ParamSet shapes
    iteration: int = 0
    epoch: int = 0
    lr: float = 0.01
    momentum: float = 0.9

    def __post_init__(self):
        if not self.lr > 0:
            raise ParameterError(f"lr must be > 0, got {self.lr!r}")
        if not 0 <= self.momentum < 1:
            raise ParameterError(f"momentum must be in [0, 1), got {self.momentum!r}")


@dataclass
class TrainConfig:
    batch_size: int = 32
    epochs: int = 10
    seed: int = 42
    loss: str = "joint"
    loss_weights: LossWeights = field(default_factory=LossWeights)
    ssim: SsimConfig = field(default_factory=SsimConfig)
    edge_beta: float = 4.0
    shuffle: bool = True
    tv_eps: float = 1e-8

    def __post_init__(self):
        for name, low in (("batch_size", 1), ("epochs", 1), ("edge_beta", 0), ("tv_eps", 0)):
            if not getattr(self, name) >= low:
                raise ParameterError(f"{name} must be >= {low}, got {getattr(self, name)!r}")
        if self.loss not in LOSS_KINDS:
            raise ParameterError(f"loss must be one of {', '.join(LOSS_KINDS)}, "
                                 f"got {self.loss!r}")


def sgd_step(params, grads, state: OptimState):
    """One momentum update over every parameter; mutates params and state."""
    if not state.velocity:
        state.velocity = {n: np.zeros_like(p) for n, p in params.items()}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise UsageError(f"gradient shape mismatch for {name}: {g.shape} vs {p.shape}")
        v = state.velocity[name]
        v = state.momentum * v + state.lr * g.astype(v.dtype)
        state.velocity[name] = v
        params[name] = (p - v).astype(p.dtype)
    state.iteration += 1
    return params, state


def _stack(samples, side, k):
    return np.concatenate([s[side][k] for s in samples], axis=0)


def train(model, params, state, dataset, cfg: TrainConfig,
          opt_state: OptimState | None = None, augment_fn=None):
    """Run the full loop; returns (params, opt_state, history).

    `dataset` is a sequence of samples, each a pair (inputs, targets) of
    lists of (1, c, h, w) tensors matching the topology's arm counts.
    `augment_fn(sample, rng) -> sample`, when given, is applied per sample
    per epoch with a seeded stream. History holds one row per iteration.
    """
    if not dataset:
        raise ParameterError("dataset is empty")
    if opt_state is None:
        opt_state = OptimState()
    root = RngStream(cfg.seed)
    history = []
    m = len(dataset)
    weights = cfg.loss_weights
    if cfg.loss != "joint":
        weights = LossWeights(1.0, 0.0, 0.0, weights.lambda4)

    for epoch in range(opt_state.epoch, cfg.epochs):
        erng = root.child(f"epoch{epoch}")
        order = erng.permutation(m) if cfg.shuffle else np.arange(m)
        samples = [dataset[i] for i in order]
        if augment_fn is not None:
            arng = root.child(f"augment{epoch}")
            samples = [augment_fn(s, arng.child(str(j)))
                       for j, s in enumerate(samples)]
        for lo in range(0, m, cfg.batch_size):
            chunk = samples[lo:lo + cfg.batch_size]
            inputs = [_stack(chunk, 0, k) for k in range(len(chunk[0][0]))]
            targets = [_stack(chunk, 1, k) for k in range(len(chunk[0][1]))]
            preds, trace = model.forward(params, state, inputs, mode="train")
            where = f"at iteration {opt_state.iteration + 1} (epoch {epoch})"
            if not all(np.isfinite(p).all() for p in preds):
                raise TrainingDivergedError(f"non-finite prediction {where}, first in "
                                            f"{model.nonfinite_layer(trace, preds)}")
            maps = (None if cfg.loss == "l2" else
                    [loss_mod.edge_weight_map(t, cfg.edge_beta) for t in targets])
            report = loss_mod.joint_loss(preds, targets, params, weights, cfg.ssim,
                                         maps=maps, tv_eps=cfg.tv_eps)
            if not np.isfinite(report.total):
                raise TrainingDivergedError(f"non-finite loss {where}")
            grads = model.backward(params, trace, report.pred_grads)
            for name, g in report.wd_grads.items():     # the backward's own fresh arrays
                grads[name] += weights.lambda4 * g
            sgd_step(params, grads, opt_state)
            history.append({
                "iter": opt_state.iteration, "epoch": epoch,
                "l2": report.l2_term, "ssim": report.ssim_term,
                "tv": report.tv_term, "wd": report.wd_term,
                "total": report.total,
            })
        opt_state.epoch = epoch + 1
    return params, opt_state, history
