import numpy as np
import pytest

from synnet.layers import (BN_EPS, conv2d_forward, conv2d_backward, zero_padded,
                           batchnorm_forward, batchnorm_backward, batchnorm_fold,
                           batchnorm_output,
                           maxpool2x2_forward, maxpool2x2_backward,
                           unpool2x2_forward, unpool2x2_backward)
from synnet.tensor import RngStream, ShapeError, ParameterError, UsageError
from synnet.verify import finite_diff, max_rel_err


def _img(rows):
    return np.asarray(rows, dtype=np.float64)[None, None]


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def test_conv3x3_ones_kernel_border_behaviour():
    x = _img([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    w = np.ones((1, 1, 3, 3))
    b = np.zeros(1)
    y, _ = conv2d_forward(x, w, b)
    assert y.shape == x.shape
    # center cell sees the whole image; corner sees its 2x2 neighbourhood
    assert y[0, 0, 1, 1] == pytest.approx(45.0)
    assert y[0, 0, 0, 0] == pytest.approx(1 + 2 + 4 + 5)
    assert y[0, 0, 2, 2] == pytest.approx(5 + 6 + 8 + 9)


def test_conv3x3_delta_kernel_is_identity():
    x = np.arange(32, dtype=np.float64).reshape(1, 2, 4, 4)
    w = np.zeros((2, 2, 3, 3))
    w[0, 0, 1, 1] = 1.0
    w[1, 1, 1, 1] = 1.0
    y, _ = conv2d_forward(x, w, np.zeros(2))
    assert np.allclose(y, x)


def test_conv_bias_only():
    x = np.zeros((1, 1, 4, 4))
    w = np.zeros((3, 1, 3, 3))
    b = np.array([1.0, -2.0, 0.5])
    y, _ = conv2d_forward(x, w, b)
    for c in range(3):
        assert np.all(y[0, c] == b[c])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_without_bias_equals_zero_bias(dtype):
    rng = RngStream(21)
    x = rng.uniform((2, 3, 6, 10), -1, 1).astype(dtype)
    w = rng.uniform((5, 3, 3, 3), -1, 1).astype(dtype)
    y, _ = conv2d_forward(x, w)
    y0, _ = conv2d_forward(x, w, np.zeros(5, dtype=dtype))
    assert y.dtype == dtype and y.shape == (2, 5, 6, 10)
    assert np.array_equal(y, y0)
    # channel-major memory, as batchnorm expects
    assert y.transpose(1, 0, 2, 3).flags.c_contiguous


def test_conv1x1_mixes_channels_pointwise():
    x = np.stack([np.full((4, 4), 2.0), np.full((4, 4), 3.0)])[None]
    w = np.array([[[[1.0]], [[10.0]]]])          # (1, 2, 1, 1)
    y, _ = conv2d_forward(x, w, np.array([0.5]))
    assert np.all(y == 2.0 + 30.0 + 0.5)


def test_conv_rejects_even_kernel_and_channel_mismatch():
    x = np.zeros((1, 2, 4, 4))
    with pytest.raises(ShapeError):
        conv2d_forward(x, np.zeros((1, 2, 2, 2)), np.zeros(1))
    with pytest.raises(ShapeError):
        conv2d_forward(x, np.zeros((1, 3, 3, 3)), np.zeros(1))


def test_conv_backward_bias_grad_is_sum():
    rng = RngStream(5)
    x = rng.uniform((2, 2, 4, 4), -1, 1, dtype="double")
    w = rng.uniform((3, 2, 3, 3), -1, 1, dtype="double")
    g = rng.uniform((2, 3, 4, 4), -1, 1, dtype="double")
    _, tape = conv2d_forward(x, w, np.zeros(3))
    _, _, gb = conv2d_backward(tape, g)
    assert np.allclose(gb, g.sum(axis=(0, 2, 3)))


def test_conv_backward_without_bias_gives_no_bias_grad():
    rng = RngStream(5)
    x = rng.uniform((2, 2, 4, 4), -1, 1, dtype="double")
    w = rng.uniform((3, 2, 3, 3), -1, 1, dtype="double")
    g = rng.uniform((2, 3, 4, 4), -1, 1, dtype="double")
    _, tape = conv2d_forward(x, w)
    gx, gw, gb = conv2d_backward(tape, g)
    assert gb is None
    _, tape_b = conv2d_forward(x, w, np.zeros(3))
    gx_b, gw_b, _ = conv2d_backward(tape_b, g)
    assert np.array_equal(gx, gx_b) and np.array_equal(gw, gw_b)


def test_conv_backward_rejects_wrong_grad_shape():
    x = np.zeros((1, 1, 4, 4))
    _, tape = conv2d_forward(x, np.zeros((2, 1, 3, 3)), np.zeros(2))
    with pytest.raises(ShapeError):
        conv2d_backward(tape, np.zeros((1, 2, 5, 5)))


@pytest.mark.parametrize("in_c,out_c", [(10, 4), (4, 10)])
def test_conv_backward_wide_nonsquare_matches_finite_diff(in_c, out_c):
    rng = RngStream(12)
    x = rng.uniform((2, in_c, 5, 7), -1, 1, dtype="double")
    w = rng.uniform((out_c, in_c, 3, 3), -1, 1, dtype="double")
    b = rng.uniform((out_c,), -1, 1, dtype="double")
    cot = rng.uniform((2, out_c, 5, 7), -1, 1, dtype="double")
    _, tape = conv2d_forward(x, w, b)
    gx, gw, _ = conv2d_backward(tape, cot)
    num_x = finite_diff(lambda v: float((conv2d_forward(v, w, b)[0] * cot).sum()), x.copy())
    num_w = finite_diff(lambda v: float((conv2d_forward(x, v, b)[0] * cot).sum()), w.copy())
    assert max_rel_err(gx, num_x) < 1e-7
    assert max_rel_err(gw, num_w) < 1e-7


def _grad_w_oracle(x, cot, k):
    """Direct sums over images and positions of cot times the explicitly
    zero-padded input's window at each kernel offset, in double."""
    p, (h, wd) = k // 2, x.shape[2:]
    xp = np.pad(np.asarray(x, np.float64), ((0, 0), (0, 0), (p, p), (p, p)))
    return np.stack([np.einsum("nohw,nihw->oi", np.asarray(cot, np.float64),
                               xp[:, :, u:u + h, v:v + wd])
                     for u in range(k) for v in range(k)], axis=-1).reshape(
        cot.shape[1], x.shape[1], k, k)


def _check_conv_chunkings(monkeypatch, x, w, cot, per_images):
    """Run one conv forward and backward with layers._L2_BYTES set for chunks
    of 1, of 2 + a ragged last one, and of all images, by each per-image size
    in turn; where that is less than one image's backward stack, the
    backward runs over column bands of one image instead.  The forward and
    the input gradient must be bit-equal across chunkings and bands; grad_w
    sums unit partials, so it agrees to the dtype's rounding.  In double all
    three match the oracles to 1e-12."""
    import synnet.layers as layers
    from synnet.verify import conv_oracle
    runs = []
    for per_image in per_images:
        for images in (1, 2, len(x)):
            monkeypatch.setattr(layers, "_L2_BYTES", images * per_image)
            y, tape = conv2d_forward(x, w)
            gx, gw, _ = conv2d_backward(tape, cot)
            runs.append((y, gx, gw))
    y0, gx0, gw0 = runs[0]
    tol = 1e-6 if x.dtype == np.float32 else 1e-12
    for y, gx, gw in runs[1:]:
        assert _same_bits(y, y0) and _same_bits(gx, gx0)
        assert np.max(np.abs(gw - gw0)) <= tol * np.max(np.abs(gw0))
    if x.dtype == np.float64:
        zero = np.zeros(w.shape[0])
        w_rot = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        gw_ref = _grad_w_oracle(x, cot, w.shape[-1])
        assert max_rel_err(y0, conv_oracle(x, w, zero)) < 1e-12
        assert max_rel_err(gx0, conv_oracle(cot, w_rot, np.zeros(w.shape[1]))) < 1e-12
        for _, _, gw in runs:
            assert max_rel_err(gw, gw_ref) < 1e-12


def test_conv_per_offset_chunks_are_bit_equal(monkeypatch):
    # in_c == out_c puts the forward on the per-offset path, which runs its
    # GEMMs over chunks of images sized by layers._L2_BYTES, and the backward
    # on a stack of grad_out's 9 windows, which runs over units of whole
    # images or, where one image's stack does not fit, over column bands
    n, c, h, wd = 5, 3, 6, 10
    rng = RngStream(13)
    x = rng.uniform((n, c, h, wd), -1, 1, dtype="double")
    w = rng.uniform((c, c, 3, 3), -1, 1, dtype="double")
    cot = rng.uniform((n, c, h, wd), -1, 1, dtype="double")
    span = h * (wd + 2) - 2
    for dtype in (np.float64, np.float32):
        size = np.dtype(dtype).itemsize
        per_offset = (2 * c + c) * h * (wd + 2) * size
        grad_w = (c + c) * span * size            # both force bands
        stack = 9 * c * span * size               # one image's grad_out stack
        _check_conv_chunkings(monkeypatch, x.astype(dtype), w.astype(dtype),
                              cot.astype(dtype), (per_offset, grad_w, stack))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_conv_stacked_chunks_are_bit_equal(dtype, monkeypatch):
    # in_c < out_c puts the forward on the stacked path, one GEMM per chunk
    # of images over a stack of the 9 shifted views, sized by _L2_BYTES, and
    # the weight gradient on a stack of the input's 9 windows, over units of
    # whole images or column bands
    n, in_c, out_c, h, wd = 5, 2, 5, 6, 10
    rng = RngStream(14)
    x = rng.uniform((n, in_c, h, wd), -1, 1).astype(dtype)
    w = rng.uniform((out_c, in_c, 3, 3), -1, 1).astype(dtype)
    cot = rng.uniform((n, out_c, h, wd), -1, 1).astype(dtype)
    span = h * (wd + 2) - 2
    stacked = (9 * in_c + out_c) * span * x.itemsize
    grad_w = (in_c + out_c) * span * x.itemsize   # forces bands
    stack = 9 * in_c * span * x.itemsize          # one image's input stack
    _check_conv_chunkings(monkeypatch, x, w, cot, (stacked, grad_w, stack))


@pytest.mark.parametrize("k, out_c", [(1, 1)], ids=["1x1-head"])
def test_conv_backward_frees_its_input_before_the_input_gradient(k, out_c, monkeypatch):
    import weakref
    import synnet.layers as layers
    rng = RngStream(15)
    x = rng.uniform((3, 4, 6, 10), -1, 1)
    _, tape = conv2d_forward(x, rng.uniform((out_c, 4, k, k), -1, 1))
    buf = tape.x_flat
    while isinstance(buf.base, np.ndarray):     # a 1x1 tape's x_flat is a view of x
        buf = buf.base
    held = weakref.ref(buf)
    del x, buf
    correlate, calls = layers._correlate, []

    def check_freed(*args):
        assert held() is None, "the tape's input is alive at the input gradient"
        calls.append(1)
        return correlate(*args)

    monkeypatch.setattr(layers, "_correlate", check_freed)
    gx, _, _ = conv2d_backward(tape, rng.uniform((3, out_c, 6, 10), -1, 1))
    assert calls and gx.shape == (3, 4, 6, 10)


def test_conv_backward_can_skip_the_input_gradient():
    # the stacked side follows the channel counts alone, so grad_w is the
    # same with or without the input gradient: the input's windows for
    # 1 -> 4, grad_out's for 5 -> 3
    rng = RngStream(16)
    for in_c, out_c in ((1, 4), (5, 3)):
        x = rng.uniform((2, in_c, 6, 8), -1, 1)
        w = rng.uniform((out_c, in_c, 3, 3), -1, 1)
        g = rng.uniform((2, out_c, 6, 8), -1, 1)
        _, gw, _ = conv2d_backward(conv2d_forward(x, w)[1], g)
        _, tape = conv2d_forward(x, w)
        gx, gw_only, _ = conv2d_backward(tape, g, grad_input=False)
        assert gx is None and _same_bits(gw_only, gw) and tape.x_flat is None


def test_conv3x3_backward_writes_its_input_gradient_over_the_spent_input(monkeypatch):
    # in_c >= out_c: both gradients come from one stack of grad_out's 9
    # windows, and the input gradient goes over the tape's padded input, so
    # the backward allocates one stack unit, grad_w and small change (within
    # a page), and not even one image's input gradient.  One image's stack
    # does not fit here, so the units are 128-column bands, and their
    # results are those of whole images
    import tracemalloc
    import synnet.layers as layers
    n, in_c, out_c, h, wd = 3, 2, 1, 32, 48
    rng = RngStream(19)
    x = rng.uniform((n, in_c, h, wd), -1, 1)
    w = rng.uniform((out_c, in_c, 3, 3), -1, 1)
    g = rng.uniform((n, out_c, h, wd), -1, 1)
    gflat, inner = _in_buffer(g, 3)
    want = conv2d_backward(conv2d_forward(x, w)[1], g)
    unit = 9 * out_c * 128 * x.itemsize
    monkeypatch.setattr(layers, "_L2_BYTES", unit)
    conv2d_backward(conv2d_forward(x, w)[1], inner, padded=gflat)  # first-call allocations
    _, tape = conv2d_forward(x, w)
    spent = tape.x_flat
    tracemalloc.start()
    try:
        gx, gw, _ = conv2d_backward(tape, inner, padded=gflat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(gx, spent) and tape.x_flat is None
    assert unit + gw.nbytes + 4096 < gx[0].nbytes
    assert peak <= unit + gw.nbytes + 4096
    assert _same_bits(gx, want[0])
    assert np.max(np.abs(gw - want[1])) <= 1e-6 * np.max(np.abs(want[1]))


@pytest.mark.parametrize("k, in_c, out_c", [(1, 4, 2), (1, 2, 4), (3, 4, 2), (3, 2, 4)])
def test_conv_backward_leaves_the_callers_input_as_it_was(k, in_c, out_c):
    # a 1x1 tape references the caller's input and a 3x3 tape a padded copy
    # of it, which the backward writes over; either way the input is intact
    rng = RngStream(20)
    x = rng.uniform((2, in_c, 5, 7), -1, 1)
    kept = x.copy()
    _, tape = conv2d_forward(x, rng.uniform((out_c, in_c, k, k), -1, 1), np.zeros(out_c))
    gx, _, _ = conv2d_backward(tape, rng.uniform((2, out_c, 5, 7), -1, 1))
    assert _same_bits(x, kept) and not np.shares_memory(gx, x)


@pytest.mark.parametrize("in_c, out_c", [(2, 5), (5, 5)], ids=["stacked", "per-offset"])
def test_conv_forward_writes_its_output_chunk_by_chunk(in_c, out_c, monkeypatch):
    # with one image per chunk, the forward allocates its output and one
    # chunk's working rows, not a whole-batch correlation buffer to copy from
    import tracemalloc
    import synnet.layers as layers
    n, h, wd = 16, 8, 12
    rng = RngStream(17)
    w = rng.uniform((out_c, in_c, 3, 3), -1, 1)
    flat, x = zero_padded((n, in_c, h, wd), 3, np.float32)
    x[...] = rng.uniform(x.shape, -1, 1)
    monkeypatch.setattr(layers, "_L2_BYTES", 1)
    conv2d_forward(x, w, padded=flat)          # first-call allocations stay out
    tracemalloc.start()
    try:
        y, _ = conv2d_forward(x, w, padded=flat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk = (9 * in_c + 2 * out_c) * h * (wd + 2) * 4 + 4096
    assert y.nbytes + chunk < 2 * y.nbytes
    assert peak <= y.nbytes + chunk


def test_conv_tape_without_input_takes_the_rebuilt_one():
    rng = RngStream(18)
    x = rng.uniform((2, 3, 6, 8), -1, 1)
    w = rng.uniform((4, 3, 3, 3), -1, 1)
    g = rng.uniform((2, 4, 6, 8), -1, 1)
    y, tape = conv2d_forward(x, w)
    want = conv2d_backward(tape, g)
    y_bare, bare = conv2d_forward(x, w, keep_input=False)
    assert bare.x_flat is None and _same_bits(y_bare, y)
    with pytest.raises(UsageError, match="not rebuilt"):
        conv2d_backward(bare, g)
    bare.x_flat = np.zeros((2, 3, 7 * 10), np.float32)
    with pytest.raises(ShapeError, match="tape input"):
        conv2d_backward(bare, g)
    flat, inner = zero_padded(x.shape, 3, x.dtype)
    inner[...] = x
    bare.x_flat = flat
    for got, ref in zip(conv2d_backward(bare, g), want):
        assert (got is None and ref is None) or _same_bits(got, ref)
    assert bare.x_flat is None


def test_conv_forward_linearity_in_input():
    rng = RngStream(11)
    x1 = rng.uniform((1, 2, 6, 6), -1, 1, dtype="double")
    x2 = rng.uniform((1, 2, 6, 6), -1, 1, dtype="double")
    w = rng.uniform((3, 2, 3, 3), -1, 1, dtype="double")
    b = np.zeros(3)
    y12, _ = conv2d_forward(x1 + x2, w, b)
    y1, _ = conv2d_forward(x1, w, b)
    y2, _ = conv2d_forward(x2, w, b)
    assert np.allclose(y12, y1 + y2, atol=1e-12)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

def test_batchnorm_two_value_channel():
    # normalised to (-1, 1), then ReLU; gamma -1 flips which value survives
    x = np.array([1.0, 3.0, 1.0, 3.0]).reshape(1, 2, 1, 2)
    y, _, _, _ = batchnorm_forward(x, np.array([1.0, -1.0]), np.zeros(2),
                                   np.zeros(2), np.ones(2))
    assert np.allclose(y[0, :, 0], [[0.0, 1.0], [1.0, 0.0]], atol=1e-5)


def test_batchnorm_constant_channel_maps_to_beta():
    x = np.full((1, 1, 2, 2), 7.0)
    beta = np.array([0.25])
    y, _, _, _ = batchnorm_forward(x, np.ones(1), beta,
                                   np.zeros(1), np.ones(1))
    assert np.allclose(y, 0.25, atol=1e-12)


def test_batchnorm_output_moments():
    rng = RngStream(3)
    x = rng.uniform((4, 3, 8, 8), -2, 5, dtype="double")
    # beta 4 lifts every normalised value above the ReLU's 0
    y, _, _, _ = batchnorm_forward(x, np.ones(3), np.full(3, 4.0),
                                   np.zeros(3), np.ones(3))
    assert y.min() > 0
    mean = y.mean(axis=(0, 2, 3))
    var = y.var(axis=(0, 2, 3))
    assert np.allclose(mean, 4, atol=1e-12)
    assert np.allclose(var, 1, atol=1e-4)   # shrunk slightly by eps


def test_batchnorm_running_stats_update():
    rng = RngStream(4)
    x = rng.uniform((2, 1, 4, 4), 0, 1, dtype="double")
    rm, rv = np.array([0.5]), np.array([2.0])
    _, _, nrm, nrv = batchnorm_forward(x, np.ones(1), np.zeros(1), rm, rv)
    assert nrm[0] == pytest.approx(0.9 * 0.5 + 0.1 * x.mean())
    assert nrv[0] == pytest.approx(0.9 * 2.0 + 0.1 * x.var())
    # inputs untouched (functional update)
    assert rm[0] == 0.5 and rv[0] == 2.0


@pytest.mark.parametrize("in_c, out_c", [(2, 5), (6, 3)], ids=["stacked", "per-offset"])
def test_batchnorm_fold_matches_conv_then_running_stats(in_c, out_c):
    # in_c < out_c and in_c >= out_c take the two correlation paths
    rng = RngStream(31)
    x = rng.uniform((3, in_c, 6, 7), -1, 1, dtype="double")
    w = rng.uniform((out_c, in_c, 3, 3), -1, 1, dtype="double")
    gamma = rng.uniform((out_c,), 0.5, 1.5, dtype="double")
    beta = rng.uniform((out_c,), -0.5, 0.5, dtype="double")
    mean = rng.uniform((out_c,), -0.5, 0.5, dtype="double")
    var = rng.uniform((out_c,), 0.2, 3.0, dtype="double")
    y, _ = conv2d_forward(x, w)

    def per_channel(v):
        return v[None, :, None, None]

    expect = (y - per_channel(mean)) * per_channel(gamma / np.sqrt(var + BN_EPS)) \
        + per_channel(beta)
    folded, _ = conv2d_forward(x, *batchnorm_fold(w, gamma, beta, mean, var))
    assert np.max(np.abs(folded - expect)) <= 1e-12


def test_batchnorm_train_rejects_single_value_channel():
    with pytest.raises(ParameterError):
        batchnorm_forward(np.ones((1, 3, 1, 1)), np.ones(3), np.zeros(3),
                          np.zeros(3), np.ones(3))


def test_batchnorm_backward_grad_sums_to_zero():
    # the normalized output is mean-free per channel, so input gradients
    # must sum to zero per channel for any upstream gradient, ReLU or not
    rng = RngStream(8)
    x = rng.uniform((3, 2, 4, 4), -1, 1, dtype="double")
    g = rng.uniform((3, 2, 4, 4), -1, 1, dtype="double")
    y, tape, _, _ = batchnorm_forward(x, np.array([1.5, 0.5]), np.zeros(2),
                                      np.zeros(2), np.ones(2))
    passed = g * (y > 0)
    gx, _, gbeta = batchnorm_backward(tape, g.copy())
    assert np.allclose(gx.sum(axis=(0, 2, 3)), 0, atol=1e-12)
    assert np.allclose(gbeta, passed.sum(axis=(0, 2, 3)))


def _exact_zeros_case(dtype):
    """(x, gamma, beta) whose gamma * x_hat + beta is exactly 0 at [0, :, 0, 0]
    and [1, :, 2, 3] in the forward's op order, and random elsewhere."""
    rng = RngStream(51)
    x = rng.uniform((4, 3, 6, 5), -1, 1).astype(dtype)
    x[1, :, 2, 3] = x[0, :, 0, 0]
    gamma = np.array([0.7, -1.3, 1.1], dtype=dtype)
    _, tape, _, _ = batchnorm_forward(x, gamma, np.zeros(3, dtype), np.zeros(3), np.ones(3))
    beta = -(tape.x_hat[0, :, 0, 0] * gamma)          # x_hat does not depend on beta
    return x, gamma, beta


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batchnorm_relu_mask_is_rebuilt_bit_for_bit(dtype):
    x, gamma, beta = _exact_zeros_case(dtype)
    y, tape, _, _ = batchnorm_forward(x, gamma, beta, np.zeros(3), np.ones(3))
    # the forward's pre-activation, in its op order, is exactly 0 there
    pre = tape.x_hat * gamma[None, :, None, None]
    pre += beta[None, :, None, None]
    assert not pre[0, :, 0, 0].any() and not pre[1, :, 2, 3].any()
    assert np.array_equal(y, np.maximum(pre, 0))
    g = np.ones_like(x)
    batchnorm_backward(tape, g)
    # grad_out is masked in place by the rebuilt mask: the ReLU's y > 0, and
    # subgradient 0 where the pre-activation is exactly 0
    assert _same_bits(g, (y > 0).astype(dtype))
    assert not g[0, :, 0, 0].any() and not g[1, :, 2, 3].any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batchnorm_output_rebuilds_y_bit_for_bit(dtype):
    x, gamma, beta = _exact_zeros_case(dtype)
    y, tape, _, _ = batchnorm_forward(x, gamma, beta, np.zeros(3), np.ones(3))
    assert _same_bits(batchnorm_output(tape), y)
    # into a strided view of a larger buffer, as a decoder's skip slot
    buf = np.full((x.shape[0], 5, *x.shape[2:]), np.nan, dtype)
    batchnorm_output(tape, out=buf[:, 1:4])
    assert _same_bits(buf[:, 1:4], y) and np.isnan(buf[:, [0, 4]]).all()
    # the tape is not consumed
    assert tape.x_hat is not None
    with pytest.raises(ShapeError):
        batchnorm_output(tape, out=buf)
    batchnorm_backward(tape, np.ones_like(x))
    with pytest.raises(UsageError, match="consumed"):
        batchnorm_output(tape)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batchnorm_relu_backward_matches_textbook_formula(dtype):
    x, gamma, beta = _exact_zeros_case(dtype)
    rng = RngStream(52)
    g = rng.uniform(x.shape, -1, 1).astype(dtype)
    y, tape, _, _ = batchnorm_forward(x, gamma, beta, np.zeros(3), np.ones(3))
    x_hat, inv_std = tape.x_hat.astype(np.float64), tape.inv_std
    passed = g * (y > 0)
    m = x.size // 3
    expect_gamma = (passed * x_hat).sum(axis=(0, 2, 3))
    expect_beta = passed.sum(axis=(0, 2, 3))
    expect = (gamma * inv_std)[None, :, None, None] * (
        passed - (expect_beta / m)[None, :, None, None]
        - x_hat * (expect_gamma / m)[None, :, None, None])
    gx, gg, gb = batchnorm_backward(tape, g)
    tol = 1e-5 if dtype == np.float32 else 1e-12
    assert gx.dtype == dtype and gg.dtype == gamma.dtype
    assert max_rel_err(gg, expect_gamma) < tol and max_rel_err(gb, expect_beta) < tol
    assert np.max(np.abs(gx - expect)) < tol * np.max(np.abs(expect))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batchnorm_backward_chunks(dtype, monkeypatch):
    # the backward runs over chunks of images sized by layers._L2_BYTES: the
    # mask is bit-equal for any chunking; the per-channel sums add chunk
    # partials, so they, and grad_in through them, agree to the dtype's
    # rounding only
    import synnet.layers as layers
    x, gamma, beta = _exact_zeros_case(dtype)
    g = RngStream(53).uniform(x.shape, -1, 1).astype(dtype)
    per_image = x[0].size * (3 * x.itemsize + 1)
    runs = []
    for images in (len(x), 1, 3):                  # one chunk, chunks of 1, 3 + ragged 1
        monkeypatch.setattr(layers, "_L2_BYTES", images * per_image)
        _, tape, _, _ = batchnorm_forward(x, gamma, beta, np.zeros(3), np.ones(3))
        masked = g.copy()
        runs.append((masked, *batchnorm_backward(tape, masked)))
    tol = 1e-6 if dtype == np.float32 else 1e-14
    for masked, gx, gg, gb in runs[1:]:
        assert _same_bits(masked, runs[0][0])
        for got, ref in ((gx, runs[0][1]), (gg, runs[0][2]), (gb, runs[0][3])):
            assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))


def test_backward_consumes_conv_and_batchnorm_tapes():
    rng = RngStream(54)
    x = rng.uniform((2, 3, 4, 6), -1, 1)
    y, ctape = conv2d_forward(x, rng.uniform((4, 3, 3, 3), -1, 1))
    g = rng.uniform(y.shape, -1, 1)
    conv2d_backward(ctape, g)
    assert ctape.x_flat is None
    with pytest.raises(UsageError, match="consumed"):
        conv2d_backward(ctape, g)
    _, btape, _, _ = batchnorm_forward(y, np.ones(4), np.zeros(4), np.zeros(4), np.ones(4))
    batchnorm_backward(btape, g)
    with pytest.raises(UsageError, match="consumed"):
        batchnorm_backward(btape, g)


# ---------------------------------------------------------------------------
# pooling / unpooling
# ---------------------------------------------------------------------------

def test_maxpool_values_and_offsets():
    x = _img([[1, 2, 5, 6],
              [3, 4, 8, 7],
              [9, 1, 1, 1],
              [2, 3, 1, 2]])
    pooled, offsets = maxpool2x2_forward(x)
    assert np.array_equal(pooled[0, 0], [[4, 8], [9, 2]])
    # row-major window offsets: 4 at (1,1)->3, 8 at (1,0)->2, 9 at (0,0)->0
    assert np.array_equal(offsets[0, 0], [[3, 2], [0, 3]])


def test_maxpool_tie_break_first_occurrence():
    x = _img([[5, 5], [5, 5]])
    pooled, offsets = maxpool2x2_forward(x)
    assert pooled[0, 0, 0, 0] == 5
    assert offsets[0, 0, 0, 0] == 0


def test_maxpool_rejects_odd_dims():
    with pytest.raises(ShapeError):
        maxpool2x2_forward(np.zeros((1, 1, 3, 4)))


def test_maxpool_backward_routes_to_argmax():
    x = _img([[1, 2], [3, 4]])
    _, offsets = maxpool2x2_forward(x)
    g = maxpool2x2_backward(offsets, np.ones((1, 1, 1, 1)))
    assert np.array_equal(g[0, 0], [[0, 0], [0, 1]])


def test_unpool_places_values_and_exact_zeros():
    x = _img([[1, 2, 5, 6],
              [3, 4, 8, 7],
              [9, 1, 1, 1],
              [2, 3, 1, 2]])
    _, offsets = maxpool2x2_forward(x)
    v = _img([[10, 20], [30, 40]])
    up = unpool2x2_forward(v, offsets)
    expect = _img([[0, 0, 0, 0],
                   [0, 10, 20, 0],
                   [30, 0, 0, 0],
                   [0, 0, 0, 40]])
    assert np.array_equal(up, expect)
    assert np.count_nonzero(up) == 4


def test_pool_unpool_roundtrip_recovers_values():
    rng = RngStream(21)
    x = rng.uniform((2, 3, 8, 8), 0, 1, dtype="double")
    pooled, offsets = maxpool2x2_forward(x)
    up = unpool2x2_forward(pooled, offsets)
    re_pooled, _ = maxpool2x2_forward(up)
    assert np.array_equal(re_pooled, pooled)


def test_unpool_backward_gathers_at_indices():
    x = _img([[1, 2], [3, 4]])
    _, offsets = maxpool2x2_forward(x)           # argmax at offset 3
    v = _img([[7.0]])
    unpool2x2_forward(v, offsets)
    g_out = _img([[10, 20], [30, 40]])
    g_in = unpool2x2_backward(offsets, g_out)
    assert g_in[0, 0, 0, 0] == 40


def test_unpool_rejects_mismatched_indices():
    x = np.zeros((1, 2, 4, 4))
    _, offsets = maxpool2x2_forward(x)
    with pytest.raises(ShapeError):
        unpool2x2_forward(np.zeros((1, 3, 2, 2)), offsets)


# ---------------------------------------------------------------------------
# buffers handed in: `padded=` and `out=` give the copying path's bits
# ---------------------------------------------------------------------------

def _same_bits(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def _in_buffer(x, k):
    flat, inner = zero_padded(x.shape, k, x.dtype)
    inner[...] = x
    return flat, inner


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("in_c, out_c, k", [(2, 5, 3), (6, 3, 3), (6, 3, 1)],
                         ids=["stacked", "per-offset", "pointwise"])
def test_conv_padded_buffer_is_bit_equal_to_copying_path(in_c, out_c, k, dtype):
    rng = RngStream(41)
    x = rng.uniform((3, in_c, 6, 10), -1, 1).astype(dtype)
    w = rng.uniform((out_c, in_c, k, k), -1, 1).astype(dtype)
    g = rng.uniform((3, out_c, 6, 10), -1, 1).astype(dtype)
    y, tape = conv2d_forward(x, w)
    flat, inner = _in_buffer(x, k)
    y_buf, tape_buf = conv2d_forward(inner, w, padded=flat)
    assert tape_buf.x_flat is flat
    assert _same_bits(y, y_buf) and _same_bits(tape.x_flat, flat)
    gx, gw, _ = conv2d_backward(tape, g)
    gflat, ginner = _in_buffer(g, k)
    gx_buf, gw_buf, _ = conv2d_backward(tape_buf, ginner, padded=gflat)
    assert _same_bits(gx, gx_buf) and _same_bits(gw, gw_buf)


def test_zero_padded_interior_is_a_view_of_the_zeroed_buffer():
    flat, inner = zero_padded((2, 3, 4, 5), 3, np.float32)
    assert flat.shape == (2, 3, 6 * 7) and not flat.any()
    assert inner.shape == (2, 3, 4, 5) and np.shares_memory(flat, inner)
    inner[...] = 1
    assert flat.sum() == inner.size


@pytest.mark.parametrize("channel_major", [False, True])
def test_conv1x1_tape_references_its_input(channel_major):
    rng = RngStream(42)
    x = rng.uniform((3, 4, 5, 6), -1, 1)
    if channel_major:   # the layout of a conv's output, as the head sees it
        x = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    _, tape = conv2d_forward(x, rng.uniform((2, 4, 1, 1), -1, 1), np.zeros(2))
    assert np.shares_memory(tape.x_flat, x)


@pytest.mark.parametrize("k", [3, 1])
def test_conv_rejects_padded_buffer_whose_interior_is_not_x(k):
    rng = RngStream(43)
    x = rng.uniform((2, 3, 4, 6), -1, 1)
    w = rng.uniform((4, 3, k, k), -1, 1)
    flat, inner = _in_buffer(x, k)          # same values, other memory
    with pytest.raises(ShapeError, match="interior"):
        conv2d_forward(x, w, padded=flat)
    with pytest.raises(ShapeError, match="interior"):
        conv2d_forward(inner[:, :, :, ::-1], w, padded=flat)
    with pytest.raises(ShapeError):        # wrong size, wrong dtype
        conv2d_forward(inner, w, padded=flat[:1])
    with pytest.raises(ShapeError):
        conv2d_forward(inner, w, padded=flat.astype(np.float32))
    _, tape = conv2d_forward(inner, w, padded=flat)
    g = rng.uniform((2, 4, 4, 6), -1, 1)
    gflat, _ = _in_buffer(g, k)
    with pytest.raises(ShapeError, match="interior"):
        conv2d_backward(tape, g, padded=gflat)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_unpool_and_batchnorm_out_are_bit_equal(dtype):
    rng = RngStream(44)
    # a conv output, channel-major as in the model, with exact zeros and -0.0
    x, _ = conv2d_forward(rng.uniform((2, 3, 8, 8), -1, 1).astype(dtype),
                          rng.uniform((4, 3, 3, 3), -1, 1).astype(dtype))
    x[0, 0, :2] = 0.0
    x[0, 1, :2] = -0.0
    pooled, offsets = maxpool2x2_forward(x)
    up = unpool2x2_forward(pooled, offsets)
    flat, inner = zero_padded((2, 6, 8, 8), 3, dtype)
    up_out = unpool2x2_forward(pooled, offsets, out=inner[:, 2:])
    assert np.shares_memory(up_out, flat)
    assert _same_bits(up, up_out) and not inner[:, :2].any()
    with pytest.raises(ShapeError):
        unpool2x2_forward(pooled, offsets, out=inner[:, 1:])

    # batchnorm centres x in place when handed it as `out`, as the model does
    gamma = rng.uniform((4,), 0.5, 1.5).astype(dtype)
    beta = rng.uniform((4,), -0.5, 0.5).astype(dtype)
    y, btape, rm, rv = batchnorm_forward(x, gamma, beta, np.zeros(4), np.ones(4))
    x_in = x.copy(order="K")
    y_out, btape_out, rm_out, rv_out = batchnorm_forward(x_in, gamma, beta, np.zeros(4),
                                                         np.ones(4), out=x_in)
    assert btape_out.x_hat is x_in
    assert _same_bits(y, y_out) and _same_bits(btape.x_hat, btape_out.x_hat)
    assert _same_bits(rm, rm_out) and _same_bits(rv, rv_out)


# ---------------------------------------------------------------------------
# the kept per-thread scratch: chunk arrays from it give the fresh arrays' bits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("in_c, out_c, k", [(2, 5, 3), (6, 3, 3), (6, 3, 1), (1, 4, 1)],
                         ids=["stacked", "per-offset", "pointwise", "K=1"])
def test_conv_kept_scratch_is_bit_equal_to_fresh_buffers(in_c, out_c, k, dtype, monkeypatch):
    import synnet.layers as layers
    rng = RngStream(45)
    x = rng.uniform((5, in_c, 6, 10), -1, 1).astype(dtype)
    w = rng.uniform((out_c, in_c, k, k), -1, 1).astype(dtype)
    b = rng.uniform((out_c,), -1, 1).astype(dtype)
    # a larger conv first grows the buffer, which is then filled with NaN
    # bits, so a chunk value read before it is written would show
    conv2d_forward(rng.uniform((4, 8, 12, 12), -1, 1), rng.uniform((16, 8, 3, 3), -1, 1))
    layers._thread_scratch.buf[...] = 0xFF
    # one chunk of all images, and chunks of 2 with a ragged last one
    span, wp = 6 * (10 + k - 1) - (k - 1), 10 + k - 1
    per_image = ((k * k * in_c + out_c) * span if in_c < out_c
                 else (2 * out_c + in_c) * 6 * wp) * x.itemsize
    for l2 in (layers._L2_BYTES, 2 * per_image):
        monkeypatch.setattr(layers, "_L2_BYTES", l2)
        y_kept, _ = conv2d_forward(x, w, b)
        assert not np.shares_memory(y_kept, layers._thread_scratch.buf)
        with monkeypatch.context() as m:
            m.setattr(layers, "_SCRATCH_BYTES", 0)      # every request fresh
            y, _ = conv2d_forward(x, w, b)
        assert _same_bits(y, y_kept)


def test_scratch_request_over_the_bound_gets_fresh_arrays():
    import synnet.layers as layers
    f32 = np.dtype(np.float32)
    small = layers._scratch(f32, [(3, 4), (5,)])
    buf = layers._thread_scratch.buf
    assert all(np.shares_memory(a, buf) for a in small)
    assert not np.shares_memory(*small)
    # one float32 more than the bound: fresh arrays, and the kept buffer
    # neither grows nor is replaced
    big = layers._scratch(f32, [(layers._SCRATCH_BYTES // 4 - 10,), (11,)])
    assert not any(np.shares_memory(a, buf) for a in big)
    assert layers._thread_scratch.buf is buf


# ---------------------------------------------------------------------------
# the training workspace: blocks handed out again only once free
# ---------------------------------------------------------------------------

def _address(a):
    return a.__array_interface__["data"][0]


def test_workspace_hands_a_block_out_again_only_once_no_view_of_it_is_left():
    from synnet.layers import Workspace
    ws = Workspace()
    a = ws.empty((64, 32), np.float32)
    first = _address(a)
    view = a[3:].T[5:]      # a view of a view still holds the block
    del a
    b = ws.empty((64, 32), np.float32)
    assert not np.shares_memory(b, view)
    del view
    c = ws.empty((64, 32), np.float32)
    assert _address(c) == first and not np.shares_memory(b, c)


def test_workspace_merges_free_neighbours_and_reuses_them_for_any_size():
    from synnet.layers import Workspace
    ws = Workspace()
    a, b = ws.empty((1000,), np.float32), ws.empty((1000,), np.float64)
    keep = ws.empty((10,), np.uint8)
    held = ws.nbytes
    start = _address(a)
    del a, b
    # one block as large as both freed ones, of another dtype, in their place
    c = ws.arrays(np.float64, [(500,), (998,)])
    assert _address(c[0]) == start and ws.nbytes == held
    assert not np.shares_memory(c[1], keep)


def test_zero_padded_from_a_workspace_zeroes_a_reused_border():
    from synnet.layers import Workspace
    ws = Workspace()
    flat, inner = zero_padded((2, 3, 4, 5), 3, np.float32, ws)
    flat.view(np.uint32)[...] = 0xFFFFFFFF          # NaN bits everywhere
    address = _address(flat)
    del flat, inner
    flat, inner = zero_padded((2, 3, 4, 5), 3, np.float32, ws)
    assert _address(flat) == address
    inner[...] = 1
    assert flat.sum() == inner.size and np.isfinite(flat).all()
