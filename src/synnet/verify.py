"""Independent oracles and the finite-difference gradient-check suite.

The oracles are deliberately naive (explicit loops, no shared code with the
fast paths) so they can gate the optimized implementations. The gradient
checks compare every analytic backward against central finite differences
of a scalar probe (sum of output times a fixed random cotangent) at double
precision, with inputs rejection-sampled away from non-differentiable sets
(pool ties, ReLU zeros, TV kinks) where a layer is checked alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import layers, loss as loss_mod
from .metrics import gaussian_kernel
from .model import SynNetModel, Topology
from .tensor import RngStream, ParameterError


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def conv_oracle(x, w, b):
    """Five-nested-loop direct cross-correlation with explicit zero padding."""
    n, in_c, h, wd = x.shape
    out_c, _, k, _ = w.shape
    p = k // 2
    out = np.zeros((n, out_c, h, wd), dtype=np.float64)
    for bi in range(n):
        for o in range(out_c):
            for i in range(h):
                for j in range(wd):
                    acc = 0.0
                    for ci in range(in_c):
                        for u in range(k):
                            for v in range(k):
                                ii, jj = i + u - p, j + v - p
                                if 0 <= ii < h and 0 <= jj < wd:
                                    acc += float(x[bi, ci, ii, jj]) * float(w[o, ci, u, v])
                    out[bi, o, i, j] = acc + float(b[o])
    return out


def maxpool_oracle(x):
    """Exhaustive 2x2 window scan; returns (pooled, offsets)."""
    n, c, h, w = x.shape
    pooled = np.zeros((n, c, h // 2, w // 2), dtype=x.dtype)
    offs = np.zeros((n, c, h // 2, w // 2), dtype=np.uint8)
    for bi in range(n):
        for ci in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    best, boff = None, 0
                    for o, (du, dv) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
                        v = x[bi, ci, 2 * i + du, 2 * j + dv]
                        if best is None or v > best:
                            best, boff = v, o
                    pooled[bi, ci, i, j] = best
                    offs[bi, ci, i, j] = boff
    return pooled, offs


def unpool_oracle(values, offsets):
    """Cell-by-cell scatter of each value to its 2x2 offset, +0.0 elsewhere.

    This is both unpooling and the max-pool input gradient.
    """
    n, c, hh, ww = values.shape
    out = np.zeros((n, c, 2 * hh, 2 * ww), dtype=values.dtype)
    for bi in range(n):
        for ci in range(c):
            for i in range(hh):
                for j in range(ww):
                    o = int(offsets[bi, ci, i, j])
                    out[bi, ci, 2 * i + o // 2, 2 * j + o % 2] = values[bi, ci, i, j]
    return out


def unpool_grad_oracle(grad, offsets):
    """Cell-by-cell gather of the gradient at each 2x2 block's offset."""
    n, c, hh, ww = offsets.shape
    out = np.zeros((n, c, hh, ww), dtype=grad.dtype)
    for bi in range(n):
        for ci in range(c):
            for i in range(hh):
                for j in range(ww):
                    o = int(offsets[bi, ci, i, j])
                    out[bi, ci, i, j] = grad[bi, ci, 2 * i + o // 2, 2 * j + o % 2]
    return out


def ssim_standard_oracle(pred, target, window=11, sigma=1.5):
    """Per-window double-loop three-factor SSIM (valid windows), for images
    in [0, 1]."""
    c1 = 0.01 ** 2
    c2 = 0.03 ** 2
    kern = gaussian_kernel(window, sigma)
    n, c, h, w = pred.shape
    vals = []
    for bi in range(n):
        for ci in range(c):
            for i in range(h - window + 1):
                for j in range(w - window + 1):
                    xw = target[bi, ci, i:i + window, j:j + window].astype(np.float64)
                    yw = pred[bi, ci, i:i + window, j:j + window].astype(np.float64)
                    mx = float((kern * xw).sum())
                    my = float((kern * yw).sum())
                    vx = float((kern * xw * xw).sum()) - mx * mx
                    vy = float((kern * yw * yw).sum()) - my * my
                    cov = float((kern * xw * yw).sum()) - mx * my
                    vals.append(((2 * mx * my + c1) * (2 * cov + c2))
                                / ((mx * mx + my * my + c1) * (vx + vy + c2)))
    return float(np.mean(vals))


def ssim_map_oracle(pred, target, cfg: loss_mod.SsimConfig):
    """Per-pixel two-factor SSIM (luminance * contrast) by explicit loops:
    per pixel over its reflect-padded uniform window in local mode, per
    image over the whole (c, h, w) in global mode."""
    c1 = 0.01 ** 2
    c2 = 0.03 ** 2
    eps = 1e-12

    def q(xw, yw):
        mx, my = float(xw.mean()), float(yw.mean())
        sx = np.sqrt(max(float((xw * xw).mean()) - mx * mx, 0.0) + eps)
        sy = np.sqrt(max(float((yw * yw).mean()) - my * my, 0.0) + eps)
        return ((2 * mx * my + c1) / (mx * mx + my * my + c1)
                * (2 * sx * sy + c2) / (sx * sx + sy * sy + c2))

    x = target.astype(np.float64)
    y = pred.astype(np.float64)
    n, c, h, w = pred.shape
    out = np.zeros((n, c, h, w), dtype=np.float64)
    k = cfg.window
    r = k // 2
    for bi in range(n):
        if cfg.mode == "global":
            out[bi] = q(x[bi], y[bi])
            continue
        for ci in range(c):
            xp = np.pad(x[bi, ci], r, mode="reflect")
            yp = np.pad(y[bi, ci], r, mode="reflect")
            for i in range(h):
                for j in range(w):
                    out[bi, ci, i, j] = q(xp[i:i + k, j:j + k], yp[i:i + k, j:j + k])
    return out


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def finite_diff(f, x, h=1e-5):
    """Central differences of a scalar function, elementwise over x."""
    if h <= 0:
        raise ParameterError("step h must be > 0")
    grad = np.zeros_like(x, dtype=np.float64)
    flat = grad.ravel()
    xf = x.ravel()
    for i in range(x.size):
        orig = xf[i]
        xf[i] = orig + h
        fp = f(x)
        xf[i] = orig - h
        fm = f(x)
        xf[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ParameterError("non-finite probe value during finite differencing")
        flat[i] = (fp - fm) / (2 * h)
    return grad


def max_rel_err(a, b):
    """max over elements of |a - b| / max(1e-12, |a| + |b|)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b) / np.maximum(1e-12, np.abs(a) + np.abs(b))))


def model_gradcheck(model, params, state, inputs, cots, h_step: float = 1e-5):
    """Max relative error, per parameter, of the train-mode backward against
    central finite differences of sum(prediction * cotangent) over the
    output arms. `state` is copied for every forward, so it is not updated."""
    def probe(trial):
        preds, _ = model.forward(trial, dict(state), inputs, mode="train")
        return sum(float((p * c).sum()) for p, c in zip(preds, cots))

    _, trace = model.forward(params, dict(state), inputs, mode="train")
    grads = model.backward(params, trace, cots)
    return {name: max_rel_err(grads[name], finite_diff(
                lambda v: probe({**params, name: v}), value.copy(), h_step))
            for name, value in params.items()}


# ---------------------------------------------------------------------------
# the gradient-check suite
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    max_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_err <= self.tol


def _u(rng, shape, lo=-1.0, hi=1.0):
    return rng.uniform(shape, lo, hi, dtype="double")


def _staircase(rng, n, c, h, w):
    """Image whose TV forward differences all have magnitude > 0.05."""
    out = np.zeros((n, c, h, w), dtype=np.float64)
    for bi in range(n):
        for ci in range(c):
            si = np.cumsum(np.where(_u(rng, (h,)) > 0, 1.0, -1.0)
                           * (0.1 + 0.2 * np.abs(_u(rng, (h,)))))
            sj = np.cumsum(np.where(_u(rng, (w,)) > 0, 1.0, -1.0)
                           * (0.1 + 0.2 * np.abs(_u(rng, (w,)))))
            out[bi, ci] = si[:, None] + sj[None, :]
    return out


# whole-model cases of the suite: (topology kind, depth, input h x w, extra
# Topology fields), by case name
MODEL_CASES = {
    "miso-arm0": ("miso", 2, (8, 8), dict(miso_index_arm=0)),
    "miso-arm1": ("miso", 2, (6, 10), dict(miso_index_arm=1)),
    "mimo-full-skips": ("mimo", 2, (8, 8), dict(mimo_arm_matched_skips=False)),
    "mimo-matched-skips": ("mimo", 2, (5, 7), dict(mimo_arm_matched_skips=True)),
    "siso-depth1": ("siso", 1, (7, 9), dict()),
}


def gradcheck_suite(seed: int = 0, h_step: float = 1e-5):
    """Run every layer and loss gradient check, on data drawn from `seed`,
    plus the whole-model check of every MODEL_CASES topology; returns a list
    of CheckResult in a fixed order."""
    rng = RngStream(seed)
    results = []

    def check(name, analytic, numeric, tol):
        results.append(CheckResult(name, max_rel_err(analytic, numeric), tol))

    # conv 3x3, widening (3 -> 4: its weight gradient stacks the input's
    # windows) and narrowing (5 -> 3: both gradients come from a stack of
    # grad_out's windows)
    x = _u(rng, (2, 3, 6, 6))
    w = _u(rng, (4, 3, 3, 3), -0.5, 0.5)
    b = _u(rng, (4,), -0.5, 0.5)
    cot = _u(rng, (2, 4, 6, 6))
    y, tape = layers.conv2d_forward(x, w, b)
    gx, gw, gb = layers.conv2d_backward(tape, cot)
    check("conv3x3/input", gx,
          finite_diff(lambda v: float((layers.conv2d_forward(v, w, b)[0] * cot).sum()), x.copy(), h_step), 1e-6)
    check("conv3x3/weight", gw,
          finite_diff(lambda v: float((layers.conv2d_forward(x, v, b)[0] * cot).sum()), w.copy(), h_step), 1e-6)
    check("conv3x3/bias", gb,
          finite_diff(lambda v: float((layers.conv2d_forward(x, w, v)[0] * cot).sum()), b.copy(), h_step), 1e-6)
    xn = _u(rng, (2, 5, 5, 7))
    wn = _u(rng, (3, 5, 3, 3), -0.5, 0.5)
    cotn = _u(rng, (2, 3, 5, 7))
    _, tapen = layers.conv2d_forward(xn, wn)
    gxn, gwn, _ = layers.conv2d_backward(tapen, cotn)
    check("conv3x3-narrow/input", gxn,
          finite_diff(lambda v: float((layers.conv2d_forward(v, wn)[0] * cotn).sum()), xn.copy(), h_step), 1e-6)
    check("conv3x3-narrow/weight", gwn,
          finite_diff(lambda v: float((layers.conv2d_forward(xn, v)[0] * cotn).sum()), wn.copy(), h_step), 1e-6)

    # conv 1x1
    w1 = _u(rng, (2, 3, 1, 1), -0.5, 0.5)
    b1 = _u(rng, (2,), -0.5, 0.5)
    cot1 = _u(rng, (2, 2, 6, 6))
    _, tape1 = layers.conv2d_forward(x, w1, b1)
    gx1, gw1, _ = layers.conv2d_backward(tape1, cot1)
    check("conv1x1/input", gx1,
          finite_diff(lambda v: float((layers.conv2d_forward(v, w1, b1)[0] * cot1).sum()), x.copy(), h_step), 1e-6)
    check("conv1x1/weight", gw1,
          finite_diff(lambda v: float((layers.conv2d_forward(x, v, b1)[0] * cot1).sum()), w1.copy(), h_step), 1e-6)

    # batchnorm and its ReLU, with no pre-activation near the ReLU's kink
    gamma = _u(rng, (2,), 0.5, 1.5)
    rm, rv = np.zeros(2), np.ones(2)
    cotb = _u(rng, (3, 2, 5, 5))
    while True:
        xb = _u(rng, (3, 2, 5, 5))
        beta = _u(rng, (2,), -0.5, 0.5)
        _, tb, _, _ = layers.batchnorm_forward(xb, gamma, beta, rm, rv)
        if np.min(np.abs(tb.x_hat * gamma[None, :, None, None]
                         + beta[None, :, None, None])) > 0.05:
            break

    def bn_probe(xv, gv, bv):
        yv, _, _, _ = layers.batchnorm_forward(xv, gv, bv, rm, rv)
        return float((yv * cotb).sum())

    gxb, gg, gbeta = layers.batchnorm_backward(tb, cotb.copy())
    check("batchnorm_relu/input", gxb,
          finite_diff(lambda v: bn_probe(v, gamma, beta), xb.copy(), h_step), 1e-6)
    check("batchnorm_relu/gamma", gg,
          finite_diff(lambda v: bn_probe(xb, v, beta), gamma.copy(), h_step), 1e-6)
    check("batchnorm_relu/beta", gbeta,
          finite_diff(lambda v: bn_probe(xb, gamma, v), beta.copy(), h_step), 1e-6)

    # maxpool on tie-free input
    xp = _u(rng, (2, 2, 6, 6))
    cotp = _u(rng, (2, 2, 3, 3))
    _, offp = layers.maxpool2x2_forward(xp)
    check("maxpool/input", layers.maxpool2x2_backward(offp, cotp),
          finite_diff(lambda v: float((layers.maxpool2x2_forward(v)[0] * cotp).sum()), xp.copy(), h_step), 1e-6)

    # unpool
    vals = _u(rng, (2, 2, 3, 3), 0.1, 1.0)
    _, offu = layers.maxpool2x2_forward(_u(rng, (2, 2, 6, 6)))
    cotu = _u(rng, (2, 2, 6, 6))
    check("unpool/input", layers.unpool2x2_backward(offu, cotu),
          finite_diff(lambda v: float((layers.unpool2x2_forward(v, offu) * cotu).sum()), vals.copy(), h_step), 1e-7)

    # each loss term alone, through joint_loss; the weighted checks weight
    # each pixel by the target's edge map
    pred = _u(rng, (2, 1, 8, 8), 0.0, 1.0)
    targ = _u(rng, (2, 1, 8, 8), 0.0, 1.0)
    xt = _staircase(rng, 2, 1, 6, 6)        # TV away from the sqrt kink
    local = loss_mod.SsimConfig(mode="local", window=5)
    whole = loss_mod.SsimConfig(mode="global")
    for name, terms, x, t, cfg, edge_beta, tol in (
            ("loss/l2", (1, 0, 0), pred, targ, whole, None, 1e-7),
            ("loss/weighted_l2", (1, 0, 0), pred, targ, whole, 4.0, 1e-7),
            ("loss/ssim_local", (0, 1, 0), pred, targ, local, 4.0, 1e-5),
            ("loss/ssim_global", (0, 1, 0), pred, targ, whole, None, 1e-5),
            ("loss/tv", (0, 0, 1), xt, xt, whole, None, 1e-4)):
        def loss(v):
            return loss_mod.joint_loss([v], [t], {}, loss_mod.LossWeights(*terms, 0),
                                       cfg, edge_beta, 1e-8)
        check(name, loss(x).pred_grads[0],
              finite_diff(lambda v: loss(v).total, x.copy(), h_step), tol)

    # whole models in double, every parameter: fusion, cross-arm skips and
    # both heads; a size that is not a multiple of 2^depth checks the pad
    # and crop.  Their draws are fixed, not seeded: ReLU and pooling make a
    # model piecewise smooth, and some draws put a kink within one
    # finite-difference step of a parameter
    for case, (kind, depth, size, extra) in MODEL_CASES.items():
        topo = Topology(kind=kind, depth=depth, channels=(2,) * depth, final_width=2, **extra)
        model = SynNetModel(topo)
        params, state = model.init_params(RngStream(15), dtype="double")
        draw = RngStream(16)
        inputs = [_u(draw, (2, 1, *size), 0.0, 1.0) for _ in range(topo.in_arms)]
        cots = [_u(draw, (2, 1, *size)) for _ in range(topo.out_arms)]
        for name, err in model_gradcheck(model, params, state, inputs, cots, h_step).items():
            results.append(CheckResult(f"model/{case}/{name}", err, 1e-5))
    return results


def format_report(results) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:32s} max_rel_err={r.max_err:.3e}  tol={r.tol:.0e}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines)
