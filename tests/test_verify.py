import numpy as np
import pytest

from synnet.layers import (conv2d_forward, maxpool2x2_forward, maxpool2x2_backward,
                           unpool2x2_forward, unpool2x2_backward)
from synnet import loss as loss_mod
from synnet.loss import SsimConfig
from synnet.tensor import RngStream, ParameterError
from synnet.verify import (conv_oracle, maxpool_oracle, ssim_standard_oracle,
                           ssim_map_oracle, unpool_oracle, unpool_grad_oracle,
                           finite_diff, max_rel_err, format_report)


def test_conv_oracle_agrees_with_fast_path():
    # in_c < out_c takes the stacked-views GEMM, in_c >= out_c the GEMM per
    # kernel offset; non-square inputs check the padded row pitch
    rng = RngStream(1)
    for n, k, in_c, out_c, h, wd in ((2, 3, 2, 3, 5, 5), (2, 1, 3, 2, 5, 5),
                                     (1, 3, 1, 4, 6, 10), (2, 3, 6, 2, 6, 10),
                                     (1, 3, 4, 4, 10, 6), (2, 1, 2, 5, 6, 10),
                                     (1, 1, 5, 3, 4, 7)):
        x = rng.uniform((n, in_c, h, wd), -1, 1, dtype="double")
        w = rng.uniform((out_c, in_c, k, k), -1, 1, dtype="double")
        b = rng.uniform((out_c,), -1, 1, dtype="double")
        fast, _ = conv2d_forward(x, w, b)
        assert max_rel_err(fast, conv_oracle(x, w, b)) < 1e-12


def _same_bits(a, b):
    # array_equal calls +0.0 and -0.0 equal; the bit patterns do not
    return a.dtype == b.dtype and np.array_equal(a.view(f"i{a.itemsize}"),
                                                 b.view(f"i{b.itemsize}"))


def _pool_cases():
    """Pool inputs: random double, channel-major float32 with ties on every
    offset, a +0.0/-0.0 tie in every order, and a non-square 6x10."""
    rng = RngStream(2)
    yield rng.uniform((2, 3, 6, 6), -1, 1, dtype="double")
    # the conv's (c, n, h, w) memory seen as (n, c, h, w); three levels make
    # two- to four-way ties, so the max falls on every offset
    levels = np.floor(rng.uniform((4, 3, 8, 8), 0, 3, dtype="single"))
    yield levels.transpose(1, 0, 2, 3)
    zeros = np.zeros((1, 4, 2, 2), dtype=np.float32)
    zeros[0, 0, 0, 0] = -0.0                  # -0.0 first, then +0.0
    zeros[0, 1, 0, 1] = -0.0                  # +0.0 first, then -0.0
    zeros[0, 2] = -0.0                        # all -0.0
    zeros[0, 3] = -1.0
    zeros[0, 3, 1, 0] = -0.0                  # a lone -0.0 above negatives
    yield zeros
    yield np.round(rng.uniform((2, 2, 6, 10), -2, 2, dtype="double"))


def test_maxpool_oracle_agrees_with_fast_path():
    offsets_seen = set()
    for x in _pool_cases():
        pooled, offsets = maxpool2x2_forward(x)
        opooled, ooffs = maxpool_oracle(x)
        assert _same_bits(pooled, opooled)
        assert np.array_equal(offsets, ooffs)
        offsets_seen.update(np.unique(ooffs).tolist())
    assert offsets_seen == {0, 1, 2, 3}


def test_unpool_and_pool_gradient_agree_with_oracles():
    # the scatter serves unpool forward and the pool gradient, the gather
    # the unpool gradient; non-argmax cells must hold +0.0, not -0.0
    rng = RngStream(7)
    for x in _pool_cases():
        _, offsets = maxpool2x2_forward(x)
        n, c, hh, ww = offsets.shape
        values = rng.uniform((n, c, hh, ww), -1, 1, dtype="double").astype(x.dtype)
        values.flat[::3] = -0.0
        grad = rng.uniform((n, c, 2 * hh, 2 * ww), -1, 1, dtype="double").astype(x.dtype)
        grad.flat[::5] = -0.0
        up = unpool2x2_forward(values, offsets)
        assert _same_bits(up, unpool_oracle(values, offsets))
        assert _same_bits(maxpool2x2_backward(offsets, values),
                          unpool_oracle(values, offsets))
        assert _same_bits(unpool2x2_backward(offsets, grad),
                          unpool_grad_oracle(grad, offsets))


def test_maxpool_oracle_tie_break():
    x = np.full((1, 1, 2, 2), 3.0)
    _, ooffs = maxpool_oracle(x)
    assert ooffs[0, 0, 0, 0] == 0


def test_ssim_oracle_is_one_for_identical():
    x = RngStream(3).uniform((1, 1, 12, 12), 0, 1, dtype="double")
    assert ssim_standard_oracle(x, x) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("mode", ["local", "global"])
@pytest.mark.parametrize("shape,window,dtype", [
    ((1, 1, 9, 9), 5, "double"),
    ((1, 1, 9, 13), 7, "double"),
    ((1, 1, 13, 9), 3, "double"),
    ((2, 3, 9, 13), 5, "double"),
    ((2, 1, 9, 9), 5, "single"),
    ((1, 1, 9, 13), 1, "double"),
    ((1, 2, 9, 13), 9, "double"),
    ((1, 1, 13, 9), 9, "double"),
])
def test_ssim_map_oracle_agrees_with_fast_path(mode, shape, window, dtype):
    rng = RngStream(4)
    pred = rng.uniform(shape, 0, 1, dtype=dtype)
    target = rng.uniform(shape, 0, 1, dtype=dtype)
    cfg = SsimConfig(mode=mode, window=window)
    # the per-pixel Q = l * c that `loss.ssim_loss` averages
    filt, _ = loss_mod._window(shape, cfg)
    *_, lum, con = loss_mod._ssim_stats(target.astype(np.float64), pred.astype(np.float64), filt)
    fast = lum * con
    assert fast.shape == shape
    assert np.max(np.abs(fast - ssim_map_oracle(pred, target, cfg))) <= 1e-10


def test_finite_diff_linear_function():
    c = RngStream(4).uniform((2, 3), -1, 1, dtype="double")
    g = finite_diff(lambda v: float((c * v).sum()),
                    np.zeros((2, 3)), h=1e-5)
    assert np.allclose(g, c, atol=1e-9)


def test_finite_diff_quadratic():
    x = RngStream(5).uniform((4,), -1, 1, dtype="double")
    g = finite_diff(lambda v: float((v * v).sum()), x.copy(), h=1e-5)
    assert np.allclose(g, 2 * x, atol=1e-9)


def test_finite_diff_rejects_bad_step_and_nonfinite():
    with pytest.raises(ParameterError):
        finite_diff(lambda v: 0.0, np.zeros(2), h=0.0)
    with pytest.raises(ParameterError):
        finite_diff(lambda v: float("nan"), np.zeros(2))


def test_max_rel_err_basics():
    assert max_rel_err(np.ones(3), np.ones(3)) == 0.0
    assert max_rel_err(np.array([1.0]), np.array([1.1])) \
        == pytest.approx(0.1 / 2.1)
    # denominator floor prevents division by zero
    assert max_rel_err(np.array([1e-13]), np.array([0.0])) \
        == pytest.approx(1e-13 / 1e-12)


def test_gradcheck_suite_all_pass(suite_results):
    results = suite_results(0)
    assert len(results) >= 12
    failed = [r.name for r in results if not r.passed]
    assert failed == []


def test_gradcheck_suite_detects_perturbed_gradient():
    # a deliberately corrupted analytic gradient must be flagged
    rng = RngStream(6)
    x = rng.uniform((2, 2, 5, 5), -1, 1, dtype="double")
    w = rng.uniform((2, 2, 3, 3), -0.5, 0.5, dtype="double")
    b = rng.uniform((2,), -0.5, 0.5, dtype="double")
    cot = rng.uniform((2, 2, 5, 5), -1, 1, dtype="double")
    from synnet.layers import conv2d_backward
    _, tape = conv2d_forward(x, w, b)
    gx, _, _ = conv2d_backward(tape, cot)
    numeric = finite_diff(
        lambda v: float((conv2d_forward(v, w, b)[0] * cot).sum()), x.copy())
    assert max_rel_err(gx, numeric) < 1e-6
    assert max_rel_err(gx * 1.01, numeric) > 1e-3   # 1% perturbation caught


def test_format_report_layout(suite_results):
    results = suite_results(1)
    text = format_report(results)
    lines = text.splitlines()
    assert len(lines) == len(results) + 1
    assert all(line.startswith(("PASS", "FAIL")) for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_gradcheck_suite_seed_changes_data_not_verdict(suite_results):
    for seed in (0, 1):
        assert all(r.passed for r in suite_results(seed))
    errs = [{r.name: r.max_err for r in suite_results(seed)} for seed in (0, 1)]
    assert errs[0]["conv3x3/input"] != errs[1]["conv3x3/input"]
