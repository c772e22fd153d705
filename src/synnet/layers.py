"""Layer primitives with hand-written forward and backward passes.

Conventions fixed here (the network blocks are assembled in `model`):
  - convolution is cross-correlation (no kernel flip), "same" zero padding;
  - max pooling is non-overlapping 2x2 / stride 2 with first-occurrence
    tie-break in row-major window order;
  - unpooling scatters each value to the argmax position recorded by the
    matched pool and leaves exact zeros elsewhere;
  - ReLU subgradient at exactly 0 is 0.

Every forward returns a tape carrying exactly what its backward needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, ParameterError, check_tensor


class UsageError(RuntimeError):
    """A tape was used with the wrong call or in the wrong mode."""


# ---------------------------------------------------------------------------
# convolution (3x3 same-padded or 1x1), via flattened-shift GEMMs
#
# The input is padded once and each image's rows are flattened with the
# padded row width wp.  The window of kernel offset (u, v) is then the
# contiguous slice starting at u*wp + v, so a correlation is a sum of k*k
# GEMMs over shifted views, with no im2col copy.  The result has wp columns
# per output row; the last 2p of them are junk and are dropped.
# ---------------------------------------------------------------------------

@dataclass
class ConvTape:
    x_flat: np.ndarray     # zero-padded input, rows flattened: (n, in_c, (h+2p)*(w+2p))
    weights: np.ndarray
    in_shape: tuple
    has_bias: bool


def _check_conv_params(w: np.ndarray, b: np.ndarray | None):
    if w.ndim != 4:
        raise ShapeError(f"conv weights must be 4-D (out,in,kh,kw), got {w.shape}")
    out_c, in_c, kh, kw = w.shape
    if kh != kw or kh not in (1, 3):
        raise ShapeError(f"kernel must be square 1x1 or 3x3, got {kh}x{kw}")
    if b is not None and b.shape != (out_c,):
        raise ShapeError(f"bias shape {b.shape} != ({out_c},)")
    return out_c, in_c, kh


def _pad_flat(x: np.ndarray, p: int) -> np.ndarray:
    n, c, h, w = x.shape
    return np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))).reshape(n, c, -1)


def _shifted(flat: np.ndarray, k: int, wp: int, span: int):
    """The k*k shifted views of a padded flat input, offsets in row-major order."""
    return [flat[:, :, u * wp + v:u * wp + v + span] for u in range(k) for v in range(k)]


def _correlate(flat: np.ndarray, w: np.ndarray, h: int, wd: int) -> np.ndarray:
    """Same-padded cross-correlation of a padded flat input (n, in_c, (h+2p)*(wd+2p)).

    Returns an (n, out_c, h, wd) view that skips the junk columns.
    """
    n = flat.shape[0]
    out_c, in_c, k, _ = w.shape
    wp = wd + k - 1
    span = h * wp - (k - 1)
    y = np.empty((n, out_c, h * wp), dtype=flat.dtype)
    head = y[:, :, :span]
    views = _shifted(flat, k, wp, span)
    if in_c < out_c:
        # one GEMM over the stacked views: copying in_c*k*k rows costs less
        # than k*k passes over out_c accumulator rows
        np.matmul(w.reshape(out_c, -1), np.stack(views, axis=2).reshape(n, -1, span), out=head)
    else:
        # contiguous per-offset weights: a strided one makes matmul slower
        taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(k * k, out_c, in_c)
        np.matmul(taps[0], views[0], out=head)
        part = np.empty_like(head)
        for tap, view in zip(taps[1:], views[1:]):
            head += np.matmul(tap, view, out=part)
    return y.reshape(n, out_c, h, wp)[..., :wd]


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None):
    """Same-padded cross-correlation plus an optional per-output-channel bias."""
    check_tensor(x, "x")
    out_c, in_c, k = _check_conv_params(w, b)
    n, c, h, wd = x.shape
    if c != in_c:
        raise ShapeError(f"input has {c} channels, kernel expects {in_c}")
    flat = _pad_flat(x, k // 2)
    # channel-major memory, (out_c, n, h, w): batchnorm reduces per channel
    y = np.empty((out_c, n, h, wd), dtype=x.dtype).transpose(1, 0, 2, 3)
    corr = _correlate(flat, w.astype(x.dtype, copy=False), h, wd)
    if b is None:
        np.copyto(y, corr)
    else:
        np.add(corr, b.astype(x.dtype)[None, :, None, None], out=y)
    return y, ConvTape(flat, w, x.shape, b is not None)


def conv2d_backward(tape: ConvTape, grad_out: np.ndarray):
    """Gradients w.r.t. input, weights and bias (None if the forward had none)."""
    w = tape.weights
    out_c, in_c, k, _ = w.shape
    n, c, h, wd = tape.in_shape
    if grad_out.shape != (n, out_c, h, wd):
        raise ShapeError(
            f"grad_out shape {grad_out.shape} != forward output ({n},{out_c},{h},{wd})"
        )
    p, wp = k // 2, wd + k - 1
    span = h * wp - (k - 1)
    # grad_out padded like the input: row width wp, zeros in the junk columns
    gflat = _pad_flat(grad_out, p)
    g = gflat[:, :, p * wp + p:p * wp + p + span]
    grad_w = np.stack([np.matmul(g, view.transpose(0, 2, 1)).sum(axis=0)
                       for view in _shifted(tape.x_flat, k, wp, span)], axis=-1)
    grad_b = grad_out.sum(axis=(0, 2, 3)).astype(w.dtype) if tape.has_bias else None
    # the input gradient is the same correlation of the padded grad_out with
    # the kernel rotated 180 degrees and its in/out channels swapped
    w_rot = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).astype(gflat.dtype, copy=False)
    grad_in = _correlate(gflat, w_rot, h, wd)
    return grad_in, grad_w.reshape(w.shape).astype(w.dtype), grad_b


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

@dataclass
class BatchNormTape:
    x_hat: np.ndarray | None
    inv_std: np.ndarray | None   # per channel
    gamma: np.ndarray
    train: bool


def batchnorm_forward(x, gamma, beta, running_mean, running_var, eps=1e-5,
                      stat_momentum=0.9, mode="train"):
    """Per-channel batch normalization.

    Train mode normalizes by the batch mean / biased variance over (n,h,w)
    and returns updated running statistics; infer mode uses the running
    statistics and produces an empty tape.
    Returns (y, tape, new_running_mean, new_running_var).
    """
    check_tensor(x, "x")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"gamma/beta must have shape ({c},)")
    if mode == "train":
        n, _, h, w = x.shape
        if n * h * w == 1:
            raise ParameterError("batchnorm train mode needs more than one value per channel")
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))          # biased
        inv_std = 1.0 / np.sqrt(var + eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        y = gamma[None, :, None, None] * x_hat + beta[None, :, None, None]
        new_mean = stat_momentum * running_mean + (1.0 - stat_momentum) * mean
        new_var = stat_momentum * running_var + (1.0 - stat_momentum) * var
        tape = BatchNormTape(x_hat, inv_std, gamma, True)
        return (y.astype(x.dtype, copy=False), tape, new_mean.astype(running_mean.dtype),
                new_var.astype(running_var.dtype))
    elif mode == "infer":
        inv_std = 1.0 / np.sqrt(running_var + eps)
        x_hat = (x - running_mean[None, :, None, None]) * inv_std[None, :, None, None]
        y = gamma[None, :, None, None] * x_hat + beta[None, :, None, None]
        return (y.astype(x.dtype, copy=False), BatchNormTape(None, None, gamma, False),
                running_mean, running_var)
    raise ParameterError(f"unknown batchnorm mode {mode!r}")


def batchnorm_backward(tape: BatchNormTape, grad_out: np.ndarray):
    """Full batch-norm backward (gradients through mean and variance)."""
    if not tape.train:
        raise UsageError("batchnorm_backward requires a train-mode tape")
    x_hat, inv_std, gamma = tape.x_hat, tape.inv_std, tape.gamma
    if grad_out.shape != x_hat.shape:
        raise ShapeError("grad_out shape mismatch with batchnorm tape")
    m = grad_out.shape[0] * grad_out.shape[2] * grad_out.shape[3]
    grad_gamma = (grad_out * x_hat).sum(axis=(0, 2, 3))
    grad_beta = grad_out.sum(axis=(0, 2, 3))
    g = grad_out * gamma[None, :, None, None]
    sum_g = g.sum(axis=(0, 2, 3), keepdims=True)
    sum_gx = (g * x_hat).sum(axis=(0, 2, 3), keepdims=True)
    grad_in = (inv_std[None, :, None, None] / m) * (m * g - sum_g - x_hat * sum_gx)
    return (grad_in.astype(x_hat.dtype, copy=False), grad_gamma.astype(gamma.dtype),
            grad_beta.astype(gamma.dtype))


# ---------------------------------------------------------------------------
# ReLU
# ---------------------------------------------------------------------------

@dataclass
class ReluTape:
    mask: np.ndarray


def relu_forward(x: np.ndarray):
    mask = x > 0
    return np.maximum(x, 0), ReluTape(mask)


def relu_backward(tape: ReluTape, grad_out: np.ndarray):
    if grad_out.shape != tape.mask.shape:
        raise ShapeError("grad_out shape mismatch with relu tape")
    return grad_out * tape.mask


# ---------------------------------------------------------------------------
# 2x2 max pooling with stored argmax indices, and index-based unpooling
# ---------------------------------------------------------------------------

@dataclass
class PoolIndices:
    """Per-output-cell argmax offset 0..3 within its 2x2 window (row-major)."""
    shape: tuple                 # pooled (n, c, hh, ww)
    offsets: np.ndarray          # uint8, same shape


@dataclass
class PoolTape:
    idx: PoolIndices
    in_shape: tuple


def _windows_2x2(x: np.ndarray) -> np.ndarray:
    n, c, h, w = x.shape
    return x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5) \
            .reshape(n, c, h // 2, w // 2, 4)


def maxpool2x2_forward(x: np.ndarray):
    check_tensor(x, "x")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2 needs even spatial dims, got {h}x{w}")
    win = _windows_2x2(x)
    off = win.argmax(axis=-1)                    # first occurrence on ties
    pooled = np.take_along_axis(win, off[..., None], axis=-1)[..., 0]
    idx = PoolIndices(pooled.shape, off.astype(np.uint8))
    return pooled.astype(x.dtype, copy=False), idx, PoolTape(idx, x.shape)


def _scatter_2x2(values: np.ndarray, idx: PoolIndices) -> np.ndarray:
    n, c, hh, ww = values.shape
    out_win = np.zeros((n, c, hh, ww, 4), dtype=values.dtype)
    np.put_along_axis(out_win, idx.offsets[..., None].astype(np.int64), values[..., None], axis=-1)
    return out_win.reshape(n, c, hh, ww, 2, 2).transpose(0, 1, 2, 4, 3, 5) \
                  .reshape(n, c, hh * 2, ww * 2)


def _gather_2x2(x: np.ndarray, idx: PoolIndices) -> np.ndarray:
    win = _windows_2x2(x)
    return np.take_along_axis(win, idx.offsets[..., None].astype(np.int64), axis=-1)[..., 0]


def maxpool2x2_backward(tape: PoolTape, grad_out: np.ndarray):
    if grad_out.shape != tape.idx.shape:
        raise ShapeError(
            f"grad_out shape {grad_out.shape} != pooled shape {tape.idx.shape}"
        )
    return _scatter_2x2(grad_out, tape.idx)


@dataclass
class UnpoolTape:
    idx: PoolIndices


def unpool2x2_forward(v: np.ndarray, idx: PoolIndices):
    check_tensor(v, "v")
    if v.shape != idx.shape:
        raise ShapeError(f"values shape {v.shape} != indices shape {idx.shape}")
    return _scatter_2x2(v, idx), UnpoolTape(idx)


def unpool2x2_backward(tape: UnpoolTape, grad_out: np.ndarray):
    n, c, hh, ww = tape.idx.shape
    if grad_out.shape != (n, c, hh * 2, ww * 2):
        raise ShapeError(
            f"grad_out shape {grad_out.shape} != unpooled shape {(n, c, hh*2, ww*2)}"
        )
    return _gather_2x2(grad_out, tape.idx)
