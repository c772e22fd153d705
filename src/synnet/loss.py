"""Training cost terms with analytic gradients w.r.t. the prediction.

Terms: (optionally edge-weighted) mean squared error, the two-factor
luminance-times-contrast SSIM loss, total-variation smoothing, and an L2
weight-decay penalty over convolution weights. `joint_loss` combines them
with the four relative weights.

The SSIM statistics go through one linear window operator, and its
gradient through that operator's adjoint. `SsimConfig.mode` picks the
operator: local mode is a uniform k x k window with reflected borders,
filtered as R @ a @ C.T with (h, h) and (w, w) band matrices R and C (the
reflect padding folded into the bands); global mode is the mean over each
image's (c, h, w), broadcast back, and is its own adjoint.

The edge weight map's Sobel pair goes through one 3x3 stencil over images
padded by one on each side (`_correlate_padded`), which the phantoms of
`data` share for their edge and box-blur modalities.

All image losses are normalized by N*P (images times pixels per image) so
the default relative weights are independent of image size; the TV term is
normalized by N only. Every gradient here is validated against central
finite differences by the verification suite.
"""

from __future__ import annotations

import math
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
        for name in ("lambda1", "lambda2", "lambda3", "lambda4"):
            if not getattr(self, name) >= 0:
                raise ParameterError(f"{name} must be >= 0, got {getattr(self, name)!r}")


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
            raise ParameterError(f"ssim_mode must be one of {', '.join(SSIM_MODES)}, "
                                 f"got {self.mode!r}")
        if self.window < 1 or self.window % 2 == 0:
            raise ParameterError(f"ssim_window must be odd and >= 1, got {self.window!r}")


@dataclass
class LossReport:
    """Per-term values, their weighted total, and gradients."""
    l2_term: float
    ssim_term: float
    tv_term: float
    wd_term: float
    total: float
    pred_grads: list            # one tensor per prediction head
    wd_grads: dict              # name -> the weight itself, its gradient unscaled by lambda4


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


# bytes of one float64 map over a chunk of images: SSIM and TV keep about
# twenty such maps live at once, so their temporaries fit in L2 at any batch
_CHUNK_BYTES = 32 << 10


def _image_chunks(shape):
    """Slices over the images of an (n, ...) `shape`, each as many as fit one
    float64 map of _CHUNK_BYTES, and at least one."""
    step = max(1, _CHUNK_BYTES // (math.prod(shape[1:]) * 8))
    return [slice(lo, lo + step) for lo in range(0, shape[0], step)]


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


def _correlate_padded(xp, kernel):
    """The 3x3 correlation of float64 images padded by one on each side.

    xp is (..., h + 2, w + 2). Returns a float64 array of xp's shape whose
    [..., :h, :w] corner is the result; each image's last two rows and
    columns are junk. Over xp flattened, the window of tap (u, v) is the
    contiguous run that starts u * (w + 2) + v elements in, and an image's
    valid outputs read only its own padded rows, so each tap is one pass
    over one run, whatever the leading axes. The nonzero taps are added to a
    zero accumulator in row-major order, one of weight 1 or -1 without its
    multiply, which IEEE arithmetic makes exact (1 * x == x,
    a + (-1 * x) == a - x): a pixel's value is the same float operations in
    the same order whatever the batch, so the same bits on the same NumPy
    and CPU."""
    wp = xp.shape[-1]
    flat = xp.reshape(-1)
    out = np.zeros(xp.shape)
    span = flat.size - 2 * wp - 2
    acc, tap = out.reshape(-1)[:span], np.empty(span)
    for u, row in enumerate(kernel.tolist()):
        for v, k in enumerate(row):
            window = flat[u * wp + v:u * wp + v + span]
            if k == 1.0:
                acc += window
            elif k == -1.0:
                acc -= window
            elif k:
                acc += np.multiply(k, window, out=tap)
    return out


def _sobel_padded(xp):
    """Sobel gradient magnitude of float64 images padded by one on each
    side, (..., h, w): the pair of `_correlate_padded`, squared and summed in
    place."""
    gx = _correlate_padded(xp, _SOBEL_X)
    gy = _correlate_padded(xp, _SOBEL_Y)
    gx *= gx
    gy *= gy
    gx += gy
    return np.sqrt(gx[..., :-2, :-2])


def sobel_magnitude(img4):
    """Per-pixel Sobel gradient magnitude (reflect borders), in float64."""
    return _sobel_padded(np.pad(img4.astype(np.float64, copy=False),
                                ((0, 0), (0, 0), (1, 1), (1, 1)), mode="reflect"))


def edge_weight_map(target, beta=4.0):
    """Per-pixel weights 1 + beta * E, E the max-normalized Sobel magnitude
    of the ground-truth target (E = 0 for a constant image)."""
    check_tensor(target, "target")
    if not beta >= 0:
        raise ParameterError(f"beta must be >= 0, got {beta!r}")
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

def _band(n: int, g: np.ndarray) -> np.ndarray:
    """(n-k+1, n) matrix whose row i holds g at columns i..i+k-1."""
    i = np.arange(n - g.size + 1)[:, None]
    band = np.zeros((i.size, n))
    band[i, i + np.arange(g.size)] = g
    return band


def _reflect_box(n: int, k: int) -> np.ndarray:
    """(n, n) k-wide uniform mean with reflected borders: the valid band over
    the reflect-padded axis, the padding folded in as a row selection."""
    reflect = np.eye(n)[np.pad(np.arange(n), k // 2, mode="reflect")]
    return _band(n + k - 1, np.full(k, 1.0 / k)) @ reflect


def _window(shape, cfg: SsimConfig):
    """The SSIM window mean on stacks of (n, c, h, w) images, and its adjoint:
    R @ a @ C.T and R.T @ g @ C in local mode, the per-image mean (its own
    adjoint) in global mode."""
    h, w = shape[-2:]
    if cfg.mode == "global":
        def mean(a):
            return np.broadcast_to(a.mean(axis=(-3, -2, -1), keepdims=True), a.shape)
        return mean, mean
    k = cfg.window
    if k > min(h, w):
        raise ParameterError(f"ssim window {k} exceeds image size {h}x{w}")
    rows, cols = _reflect_box(h, k), _reflect_box(w, k)
    return (lambda a: rows @ a @ cols.T), (lambda g: rows.T @ g @ cols)


def _ssim_stats(x, y, filt):
    """Window statistics of target x and prediction y and the l, c factors."""
    mux, muy, mxx, myy = filt(np.stack([x, y, x * x, y * y]))
    vx = mxx - mux * mux
    vy = myy - muy * muy
    sx = np.sqrt(np.maximum(vx, 0.0) + _VAR_EPS)
    sy = np.sqrt(np.maximum(vy, 0.0) + _VAR_EPS)
    lum = (2 * mux * muy + C1) / (mux * mux + muy * muy + C1)
    con = (2 * sx * sy + C2) / (sx * sx + sy * sy + C2)
    return mux, muy, vy, sx, sy, lum, con


def ssim_loss(pred, target, cfg: SsimConfig, weights=None):
    """Mean (optionally weighted) of 1 - Q, with the analytic gradient.

    The gradient applies the product rule through both factors and through
    the window mean and standard deviation of the prediction, then maps the
    coefficients of the window mean of y and of y^2 back through the
    window's adjoint.

    Both windows act on each image alone, so the terms are formed a chunk
    of images at a time, by the same float ops as over the whole batch; the
    per-pixel terms are summed once, over the whole batch.
    """
    _check_pair(pred, target, weights)
    n = pred.shape[0]
    p = pred[0].size
    filt, adjoint = _window(pred.shape, cfg)
    per_pixel = np.empty(pred.shape)            # w * (1 - Q)
    grad = np.empty(pred.shape, dtype=pred.dtype)
    for sl in _image_chunks(pred.shape):
        y = pred[sl].astype(np.float64)
        mux, muy, vy, sx, sy, lum, con = _ssim_stats(target[sl].astype(np.float64), y, filt)
        q = lum * con
        w = 1.0 if weights is None else weights[sl].astype(np.float64)
        np.multiply(w, 1.0 - q, out=per_pixel[sl])

        dl_dmuy = (2 * mux - lum * 2 * muy) / (mux * mux + muy * muy + C1)
        dc_dsy = (2 * sx - con * 2 * sy) / (sx * sx + sy * sy + C2)
        dsy_dvy = np.where(vy > 0, 0.5 / sy, 0.0)
        g = -(w * np.ones_like(q)) / (n * p)
        coef_mu = g * (con * dl_dmuy + lum * dc_dsy * dsy_dvy * (-2 * muy))
        coef_m2 = g * (lum * dc_dsy * dsy_dvy)
        g_mu, g_m2 = adjoint(np.stack([coef_mu, coef_m2]))
        grad[sl] = g_mu + g_m2 * (2 * y)
    return float(np.sum(per_pixel) / (n * p)), grad


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
    if not eps >= 0:
        raise ParameterError(f"eps must be >= 0, got {eps!r}")
    n, c, h, w = pred.shape
    t = np.empty((n, c, h - 1, w - 1))
    grad = np.empty(pred.shape, dtype=pred.dtype)
    # each image's terms alone, a chunk of images at a time; t is summed
    # once, over the whole batch
    for sl in _image_chunks(pred.shape):
        y = pred[sl].astype(np.float64)
        p = y[:, :, 1:, :-1] - y[:, :, :-1, :-1]
        q = y[:, :, :-1, 1:] - y[:, :, :-1, :-1]
        ts = np.sqrt(p * p + q * q + eps, out=t[sl])
        g = np.zeros_like(y)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = np.where(ts > 0, 1.0 / ts, 0.0)
        g[:, :, :-1, :-1] += (-p - q) * inv
        g[:, :, 1:, :-1] += p * inv
        g[:, :, :-1, 1:] += q * inv
        grad[sl] = g / n
    return float(t.sum() / n), grad


# ---------------------------------------------------------------------------
# weight decay and the joint loss
# ---------------------------------------------------------------------------

def weight_decay(params):
    """0.5 * sum of squares over convolution weights only; grad = w.

    Each gradient is the weight array itself, not a copy: callers must not
    write into it."""
    total = 0.0
    grads = {}
    for name, w in params.items():
        if name.endswith(".conv.weight"):
            w64 = w.astype(np.float64)
            total += 0.5 * float(np.sum(w64 * w64))
            grads[name] = w
    return total, grads


def joint_loss(preds, targets, params, weights: LossWeights, cfg: SsimConfig,
               maps=None, tv_eps=1e-8) -> LossReport:
    """Weighted combination of all terms over one or two prediction heads.

    Per-head L2 / SSIM / TV values are averaged across heads; `maps` is an
    optional list of per-head edge weight maps. An SSIM or TV term weighted
    0 is not computed and reports 0, so weights (1, 0, 0, lambda4) give the
    plain (or, with maps, edge-weighted) L2 loss. Weight-decay gradients
    are returned unscaled (they act on the parameters, not the predictions),
    as the weight arrays themselves, which callers must not write into.
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
        l2_term += l2_v / nh
        g = weights.lambda1 * l2_g.astype(np.float64)
        if weights.lambda2:
            ss_v, ss_g = ssim_loss(preds[h], targets[h], cfg, wmap)
            ssim_term += ss_v / nh
            g += weights.lambda2 * ss_g.astype(np.float64)
        if weights.lambda3:
            tv_v, tv_g = tv_loss(preds[h], tv_eps)
            tv_term += tv_v / nh
            g += weights.lambda3 * tv_g.astype(np.float64)
        pred_grads.append((g / nh).astype(preds[h].dtype))
    wd_term, wd_grads = weight_decay(params)
    total = (weights.lambda1 * l2_term + weights.lambda2 * ssim_term
             + weights.lambda3 * tv_term + weights.lambda4 * wd_term)
    return LossReport(l2_term, ssim_term, tv_term, wd_term, total,
                      pred_grads, wd_grads)
