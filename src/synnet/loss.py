"""Training cost terms with analytic gradients w.r.t. the prediction.

Terms: (optionally edge-weighted) mean squared error, the two-factor
luminance-times-contrast SSIM loss in global (whole image statistics) or
local (uniform sliding window) mode, total-variation smoothing, and an
L2 weight-decay penalty over convolution weights. `joint_loss` combines
them with the four relative weights.

All image losses are normalized by N*P (images times pixels per image) so
the default relative weights are independent of image size; the TV term is
normalized by N only. Every gradient here is validated against central
finite differences by the verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, ParameterError, check_tensor


@dataclass
class LossWeights:
    """Relative weights: weighted L2, weighted SSIM, TV, weight decay."""
    lambda1: float = 10.0
    lambda2: float = 5.0
    lambda3: float = 0.5
    lambda4: float = 0.0001

    def __post_init__(self):
        if min(self.lambda1, self.lambda2, self.lambda3, self.lambda4) < 0:
            raise ParameterError("loss weights must be >= 0")


SSIM_MODES = ("local", "global")

# SSIM stabilizers for images normalized to [0, 1] (dynamic range L = 1):
# C1 = (0.01 L)^2, C2 = (0.03 L)^2, and a floor inside the std sqrt
C1 = 0.01 ** 2
C2 = 0.03 ** 2
_VAR_EPS = 1e-12


@dataclass
class SsimConfig:
    mode: str = "local"          # local (sliding window) | global (per image)
    window: int = 7              # odd, local mode only

    def __post_init__(self):
        if self.mode not in SSIM_MODES:
            raise ParameterError(f"unknown ssim mode {self.mode!r}")
        if self.window < 1 or self.window % 2 == 0:
            raise ParameterError("ssim window must be odd and >= 1")


@dataclass
class LossReport:
    """Per-term values, their weighted total, and gradients."""
    l2_term: float
    ssim_term: float
    tv_term: float
    wd_term: float
    total: float
    pred_grads: list            # one tensor per prediction head
    wd_grads: dict              # name -> gradient (unscaled by lambda4)


def _check_pair(pred, target, weights=None):
    check_tensor(pred, "pred")
    check_tensor(target, "target")
    if pred.shape != target.shape:
        raise ShapeError(f"pred {pred.shape} != target {target.shape}")
    if weights is not None:
        n, _, h, w = pred.shape
        if weights.shape != (n, 1, h, w):
            raise ShapeError(
                f"weight map shape {weights.shape} != ({n},1,{h},{w})")
        if np.any(weights < 0):
            raise ParameterError("weight map must be nonnegative")


# ---------------------------------------------------------------------------
# L2
# ---------------------------------------------------------------------------

def l2_loss(pred, target, weights=None):
    """Mean squared error, optionally weighted per pixel.

    loss = (1/(N*P)) * sum_n sum_x w(x) * (target - pred)^2
    grad = (2/(N*P)) * w(x) * (pred - target)
    """
    _check_pair(pred, target, weights)
    n = pred.shape[0]
    p = pred[0].size
    diff = pred.astype(np.float64) - target.astype(np.float64)
    w = 1.0 if weights is None else weights
    loss = float(np.sum(w * diff * diff) / (n * p))
    grad = (2.0 / (n * p)) * (w * diff)
    return loss, grad.astype(pred.dtype)


# ---------------------------------------------------------------------------
# edge weight map
# ---------------------------------------------------------------------------

_SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float64)
_SOBEL_Y = _SOBEL_X.T


def _correlate3x3(img4, kernel):
    # reflect-padded 3x3 correlation over the spatial axes
    xp = np.pad(img4, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="reflect")
    h, w = img4.shape[2], img4.shape[3]
    out = np.zeros_like(img4, dtype=np.float64)
    for u in range(3):
        for v in range(3):
            if kernel[u, v]:
                out += kernel[u, v] * xp[:, :, u:u + h, v:v + w]
    return out


def sobel_magnitude(img4):
    """Per-pixel Sobel gradient magnitude (reflect borders)."""
    gx = _correlate3x3(img4, _SOBEL_X)
    gy = _correlate3x3(img4, _SOBEL_Y)
    return np.sqrt(gx * gx + gy * gy)


def edge_weight_map(target, beta=4.0):
    """Per-pixel weights 1 + beta * E, E the max-normalized Sobel magnitude
    of the ground-truth target (E = 0 for a constant image)."""
    check_tensor(target, "target")
    if beta < 0:
        raise ParameterError("beta must be >= 0")
    intensity = target.mean(axis=1, keepdims=True).astype(np.float64)
    e = sobel_magnitude(intensity)
    peak = e.max(axis=(1, 2, 3), keepdims=True)
    # a flat image leaves only rounding residue (~1e-16) in the Sobel
    # response; normalizing by that would turn noise into full-scale edges
    flat = peak <= 1e-12
    e = np.where(flat, 0.0, e / np.where(flat, 1.0, peak))
    return 1.0 + beta * e


# ---------------------------------------------------------------------------
# two-factor SSIM (luminance * contrast)
# ---------------------------------------------------------------------------

def _box_sum_valid(x, k):
    """Sum over every k x k window (valid positions) of the last two axes."""
    c = np.cumsum(x, axis=-2, dtype=np.float64)
    c = np.concatenate([np.zeros_like(c[..., :1, :]), c], axis=-2)
    x = c[..., k:, :] - c[..., :-k, :]
    c = np.cumsum(x, axis=-1)
    c = np.concatenate([np.zeros_like(c[..., :1]), c], axis=-1)
    return c[..., k:] - c[..., :-k]


def _box_mean_valid(x, k):
    return _box_sum_valid(x, k) / (k * k)


def _box_mean_adjoint(g, k):
    """Adjoint of _box_mean_valid: scatter each window mean's gradient back."""
    pad = k - 1
    gz = np.pad(g, [(0, 0)] * (g.ndim - 2) + [(pad, pad), (pad, pad)])
    return _box_sum_valid(gz, k) / (k * k)


def _reflect_pad(x, r):
    return np.pad(x, ((0, 0), (0, 0), (r, r), (r, r)), mode="reflect")


def _reflect_pad_adjoint(g_padded, h, w, r):
    """Fold gradients at reflected border positions back onto their sources."""
    idx = np.pad(np.arange(h * w).reshape(h, w), r, mode="reflect").ravel()
    lead = g_padded.shape[:2]
    flat = g_padded.reshape(lead[0] * lead[1], -1)
    acc = np.zeros((flat.shape[0], h * w), dtype=np.float64)
    np.add.at(acc, (np.arange(flat.shape[0])[:, None], idx[None, :]), flat)
    return acc.reshape(lead[0], lead[1], h, w)


def _ssim_stats(pred, target, cfg: SsimConfig):
    """Window (or whole-image) statistics and the l, c factor maps."""
    x = target.astype(np.float64)
    y = pred.astype(np.float64)
    if cfg.mode == "global":
        ax = (1, 2, 3)
        mux = x.mean(axis=ax, keepdims=True)
        muy = y.mean(axis=ax, keepdims=True)
        vx = (x * x).mean(axis=ax, keepdims=True) - mux * mux
        vy = (y * y).mean(axis=ax, keepdims=True) - muy * muy
        yp = None
    else:
        k = cfg.window
        if k > min(pred.shape[2], pred.shape[3]):
            raise ParameterError(
                f"ssim window {k} exceeds image size {pred.shape[2]}x{pred.shape[3]}")
        r = k // 2
        xp, yp = _reflect_pad(x, r), _reflect_pad(y, r)
        mux, muy = _box_mean_valid(xp, k), _box_mean_valid(yp, k)
        vx = _box_mean_valid(xp * xp, k) - mux * mux
        vy = _box_mean_valid(yp * yp, k) - muy * muy
    sx = np.sqrt(np.maximum(vx, 0.0) + _VAR_EPS)
    sy = np.sqrt(np.maximum(vy, 0.0) + _VAR_EPS)
    lum = (2 * mux * muy + C1) / (mux * mux + muy * muy + C1)
    con = (2 * sx * sy + C2) / (sx * sx + sy * sy + C2)
    return {"mux": mux, "muy": muy, "vy": vy, "sx": sx, "sy": sy,
            "lum": lum, "con": con, "yp": yp}


def ssim_map(pred, target, cfg: SsimConfig):
    """Per-pixel map of the two-factor SSIM Q = l * c.

    Global mode computes one Q per image from whole-image statistics and
    broadcasts it; local mode uses uniform sliding windows with reflected
    borders so the map covers every pixel.
    """
    _check_pair(pred, target)
    st = _ssim_stats(pred, target, cfg)
    q = st["lum"] * st["con"]
    if cfg.mode == "global":
        q = np.broadcast_to(q, pred.shape).copy()
    return q


def ssim_loss(pred, target, cfg: SsimConfig, weights=None):
    """Mean (optionally weighted) of 1 - Q, with the analytic gradient.

    The gradient applies the product rule through both factors and through
    the window mean and standard deviation of the prediction.
    """
    _check_pair(pred, target, weights)
    n = pred.shape[0]
    p = pred[0].size
    st = _ssim_stats(pred, target, cfg)
    mux, muy, sx, sy = st["mux"], st["muy"], st["sx"], st["sy"]
    lum, con, vy = st["lum"], st["con"], st["vy"]
    q = lum * con
    w = 1.0 if weights is None else weights.astype(np.float64)

    dl_dmuy = (2 * mux - lum * 2 * muy) / (mux * mux + muy * muy + C1)
    dc_dsy = (2 * sx - con * 2 * sy) / (sx * sx + sy * sy + C2)
    dsy_dvy = np.where(vy > 0, 0.5 / sy, 0.0)

    if cfg.mode == "global":
        loss = float(np.sum(w * (1.0 - q) * np.ones_like(pred, dtype=np.float64)) / (n * p))
        wsum = np.sum(w * np.ones_like(pred, dtype=np.float64), axis=(1, 2, 3), keepdims=True)
        scale = -wsum / (n * p)
        y = pred.astype(np.float64)
        dq_dmuy = con * dl_dmuy + lum * dc_dsy * dsy_dvy * (-2 * muy)
        dq_dm2 = lum * dc_dsy * dsy_dvy
        grad = scale * (dq_dmuy / p + dq_dm2 * (2 * y) / p)
    else:
        loss = float(np.sum(w * (1.0 - q)) / (n * p))
        g = -(w * np.ones_like(q)) / (n * p)
        coef_mu = g * (con * dl_dmuy + lum * dc_dsy * dsy_dvy * (-2 * muy))
        coef_m2 = g * (lum * dc_dsy * dsy_dvy)
        k, r = cfg.window, cfg.window // 2
        gyp = _box_mean_adjoint(coef_mu, k) + _box_mean_adjoint(coef_m2, k) * (2 * st["yp"])
        grad = _reflect_pad_adjoint(gyp, pred.shape[2], pred.shape[3], r)
    return loss, grad.astype(pred.dtype)


# ---------------------------------------------------------------------------
# total variation
# ---------------------------------------------------------------------------

def tv_loss(pred, eps=1e-8):
    """Isotropic total variation with one-sided forward differences.

    loss = (1/N) * sum over valid (i, j) of sqrt(p^2 + q^2 + eps) with
    p, q the vertical/horizontal forward differences; the last row and
    column are excluded. eps smooths the sqrt kink.
    """
    check_tensor(pred, "pred")
    if eps < 0:
        raise ParameterError("eps must be >= 0")
    n = pred.shape[0]
    y = pred.astype(np.float64)
    p = y[:, :, 1:, :-1] - y[:, :, :-1, :-1]
    q = y[:, :, :-1, 1:] - y[:, :, :-1, :-1]
    t = np.sqrt(p * p + q * q + eps)
    loss = float(t.sum() / n)
    grad = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(t > 0, 1.0 / t, 0.0)
    grad[:, :, :-1, :-1] += (-p - q) * inv
    grad[:, :, 1:, :-1] += p * inv
    grad[:, :, :-1, 1:] += q * inv
    return loss, (grad / n).astype(pred.dtype)


# ---------------------------------------------------------------------------
# weight decay and the joint loss
# ---------------------------------------------------------------------------

def weight_decay(params):
    """0.5 * sum of squares over convolution weights only; grad = w."""
    total = 0.0
    grads = {}
    for name, w in params.items():
        if name.endswith(".conv.weight"):
            w64 = w.astype(np.float64)
            total += 0.5 * float(np.sum(w64 * w64))
            grads[name] = w.copy()
    return total, grads


def joint_loss(preds, targets, params, weights: LossWeights, cfg: SsimConfig,
               maps=None, tv_eps=1e-8) -> LossReport:
    """Weighted combination of all terms over one or two prediction heads.

    Per-head L2 / SSIM / TV values are averaged across heads; `maps` is an
    optional list of per-head edge weight maps. Weight-decay gradients are
    returned unscaled (they act on the parameters, not the predictions).
    """
    if len(preds) != len(targets) or not preds:
        raise ParameterError("preds and targets must be nonempty equal-length lists")
    if maps is not None and len(maps) != len(preds):
        raise ParameterError("one weight map per head required")
    nh = len(preds)
    l2_term = ssim_term = tv_term = 0.0
    pred_grads = []
    for h in range(nh):
        wmap = None if maps is None else maps[h]
        l2_v, l2_g = l2_loss(preds[h], targets[h], wmap)
        ss_v, ss_g = ssim_loss(preds[h], targets[h], cfg, wmap)
        tv_v, tv_g = tv_loss(preds[h], tv_eps)
        l2_term += l2_v / nh
        ssim_term += ss_v / nh
        tv_term += tv_v / nh
        g = (weights.lambda1 * l2_g.astype(np.float64)
             + weights.lambda2 * ss_g.astype(np.float64)
             + weights.lambda3 * tv_g.astype(np.float64)) / nh
        pred_grads.append(g.astype(preds[h].dtype))
    wd_term, wd_grads = weight_decay(params)
    total = (weights.lambda1 * l2_term + weights.lambda2 * ssim_term
             + weights.lambda3 * tv_term + weights.lambda4 * wd_term)
    return LossReport(l2_term, ssim_term, tv_term, wd_term, total,
                      pred_grads, wd_grads)
