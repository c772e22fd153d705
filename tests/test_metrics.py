import numpy as np
import pytest

from synnet.metrics import psnr, gaussian_kernel, ssim_standard
from synnet.tensor import RngStream, ShapeError, ParameterError
from synnet.verify import ssim_standard_oracle


def test_psnr_known_mse():
    target = np.zeros((1, 1, 10, 10))
    pred = np.full((1, 1, 10, 10), 0.1)              # MSE = 0.01
    assert psnr(pred, target) == pytest.approx(20.0, abs=1e-9)


def test_psnr_identical_images_is_inf():
    x = RngStream(1).uniform((1, 1, 8, 8), 0, 1, dtype="double")
    assert psnr(x, x) == float("inf")


def test_psnr_is_symmetric():
    rng = RngStream(2)
    a = rng.uniform((1, 1, 8, 8), 0, 1, dtype="double")
    b = rng.uniform((1, 1, 8, 8), 0, 1, dtype="double")
    assert psnr(a, b) == pytest.approx(psnr(b, a))


def test_psnr_strictly_decreases_with_noise():
    rng = RngStream(3)
    target = rng.uniform((1, 1, 16, 16), 0, 1, dtype="double")
    noise = np.random.default_rng(3).standard_normal((1, 1, 16, 16))
    vals = [psnr(target + s * noise, target) for s in (0.01, 0.02, 0.05, 0.1)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_psnr_max_value_shift():
    target = np.zeros((1, 1, 4, 4))
    pred = np.full((1, 1, 4, 4), 0.1)
    # doubling the peak adds 20*log10(2) dB
    assert psnr(pred, target, max_value=2.0) - psnr(pred, target) \
        == pytest.approx(20.0 * np.log10(2.0))


def test_psnr_validation():
    with pytest.raises(ShapeError):
        psnr(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 4, 5)))
    with pytest.raises(ParameterError):
        psnr(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 4, 4)), max_value=0.0)


def test_gaussian_kernel_normalized_and_symmetric():
    k = gaussian_kernel(11, 1.5)
    assert k.shape == (11, 11)
    assert k.sum() == pytest.approx(1.0)
    assert np.allclose(k, k.T)
    assert np.allclose(k, k[::-1, ::-1])
    assert k[5, 5] == k.max()


def test_ssim_standard_identical_images_is_exactly_one():
    x = RngStream(4).uniform((1, 1, 16, 16), 0, 1, dtype="double")
    assert ssim_standard(x, x) == 1.0


def test_ssim_standard_symmetric():
    rng = RngStream(5)
    a = rng.uniform((1, 1, 16, 16), 0, 1, dtype="double")
    b = rng.uniform((1, 1, 16, 16), 0, 1, dtype="double")
    assert ssim_standard(a, b) == pytest.approx(ssim_standard(b, a), abs=1e-12)


def test_ssim_standard_penalizes_inversion():
    x = RngStream(6).uniform((1, 1, 16, 16), 0, 1, dtype="double")
    assert ssim_standard(1.0 - x, x) < 0.5


def test_ssim_standard_decreases_with_blur():
    rng = RngStream(7)
    x = rng.uniform((1, 1, 20, 20), 0, 1, dtype="double")
    blurred = x.copy()
    for _ in range(3):
        blurred = (np.roll(blurred, 1, axis=3) + blurred
                   + np.roll(blurred, -1, axis=3)) / 3.0
    assert ssim_standard(blurred, x) < ssim_standard(x, x)


@pytest.mark.parametrize("shape, dtype, window, sigma", [
    ((1, 1, 15, 15), "double", 11, 1.5),
    ((1, 1, 15, 23), "double", 11, 1.5),      # non-square: a swapped band fails
    ((1, 1, 23, 15), "double", 11, 1.5),
    ((2, 3, 17, 19), "double", 11, 1.5),      # batch and channels
    ((1, 1, 16, 16), "single", 11, 1.5),
    ((1, 1, 12, 13), "double", 7, 1.0),
    ((1, 1, 11, 20), "double", 11, 1.5),      # window == short side: one valid row
], ids=["15x15", "15x23", "23x15", "batch2x3", "float32", "window7", "one-row"])
def test_ssim_standard_matches_bruteforce_oracle(shape, dtype, window, sigma):
    rng = RngStream(8)
    pred = rng.uniform(shape, 0, 1, dtype=dtype)
    targ = rng.uniform(shape, 0, 1, dtype=dtype)
    fast = ssim_standard(pred, targ, window=window, sigma=sigma)
    slow = ssim_standard_oracle(pred, targ, window=window, sigma=sigma)
    assert abs(fast - slow) < 1e-10


def test_ssim_standard_identical_float32_64x64_is_exactly_one():
    x = RngStream(10).uniform((1, 1, 64, 64), 0, 1, dtype="single")
    assert ssim_standard(x, x) == 1.0


def test_ssim_standard_window_must_fit():
    with pytest.raises(ParameterError):
        ssim_standard(np.zeros((1, 1, 8, 8)), np.zeros((1, 1, 8, 8)), window=11)
