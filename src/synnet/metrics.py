"""Evaluation metrics: PSNR and the standard three-factor SSIM.

The evaluation SSIM deliberately differs from the two-factor SSIM used in
the training loss: it includes the covariance (structure) term and uses
Gaussian-weighted sliding windows, so reported numbers are comparable with
the wider literature.

The 2-D Gaussian window is the outer product of a 1-D Gaussian, so the
window statistics are filtered separably. A banded matrix R of shape
(h-k+1, h) filters along the height and a banded C of shape (w-k+1, w) along
the width; each row of a band holds the 1-D Gaussian shifted by one place, so
it is a valid-mode 1-D filter, built by the same `loss._band` that the
training SSIM's window uses. All five statistics are stacked and filtered by
one expression, R @ stack @ C.T.
"""

from __future__ import annotations

import numpy as np

from .loss import C1, C2, _band
from .tensor import ShapeError, ParameterError, check_tensor


def psnr(pred, target, max_value=1.0):
    """Peak signal-to-noise ratio in dB; inf when the images are identical."""
    check_tensor(pred, "pred")
    check_tensor(target, "target")
    if pred.shape != target.shape:
        raise ShapeError(f"pred {pred.shape} != target {target.shape}")
    if not max_value > 0:
        raise ParameterError(f"max_value must be > 0, got {max_value!r}")
    diff = pred.astype(np.float64) - target.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(max_value * max_value / mse))


def _gaussian_1d(window: int, sigma: float) -> np.ndarray:
    ax = np.arange(window, dtype=np.float64) - (window - 1) / 2.0
    g = np.exp(-(ax * ax) / (2.0 * sigma * sigma))
    return g / g.sum()


def gaussian_kernel(window: int, sigma: float) -> np.ndarray:
    """Normalized 2-D Gaussian window, the outer product of the 1-D one
    that `ssim_standard` filters with."""
    g = _gaussian_1d(window, sigma)
    return np.outer(g, g)


def ssim_standard(pred, target, window=11, sigma=1.5):
    """Mean three-factor SSIM over Gaussian-weighted valid windows.

    Per window: ((2 mx my + C1)(2 cov + C2)) / ((mx^2 + my^2 + C1)
    (vx + vy + C2)), C1 = (0.01 L)^2, C2 = (0.03 L)^2 for images in [0, 1]
    (dynamic range L = 1).
    """
    check_tensor(pred, "pred")
    check_tensor(target, "target")
    if pred.shape != target.shape:
        raise ShapeError(f"pred {pred.shape} != target {target.shape}")
    if window > min(pred.shape[2], pred.shape[3]):
        raise ParameterError(
            f"window {window} exceeds image size {pred.shape[2]}x{pred.shape[3]}")
    x = target.astype(np.float64)
    y = pred.astype(np.float64)
    g = _gaussian_1d(window, sigma)
    rows, cols = _band(x.shape[2], g), _band(x.shape[3], g)
    mx, my, sxx, syy, sxy = rows @ np.stack([x, y, x * x, y * y, x * y]) @ cols.T
    vx = sxx - mx * mx
    vy = syy - my * my
    cov = sxy - mx * my
    num = (2 * mx * my + C1) * (2 * cov + C2)
    den = (mx * mx + my * my + C1) * (vx + vy + C2)
    return float(np.mean(num / den))
