import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synnet import loss as loss_mod
from synnet.loss import (LossWeights, SsimConfig, edge_weight_map, sobel_magnitude,
                         weight_decay, joint_loss)
from synnet.metrics import psnr
from synnet.tensor import RngStream, ShapeError, ParameterError
from synnet.verify import finite_diff, max_rel_err

from stencil_oracle import _oracle_sobel_magnitude


def _img(rows):
    return np.asarray(rows, dtype=np.float64)[None, None]


def ssim_map(pred, target, cfg):
    """Per-pixel two-factor SSIM Q = l * c, from the loss's window operator."""
    filt, _ = loss_mod._window(pred.shape, cfg)
    *_, lum, con = loss_mod._ssim_stats(target.astype(np.float64), pred.astype(np.float64), filt)
    return lum * con


def _term(kind, pred, target, cfg=SsimConfig(), edge_beta=None, eps=1e-8):
    """One term's value and gradient: joint_loss with that term's weight 1
    and the others' 0."""
    onehot = [float(kind == k) for k in ("l2", "ssim", "tv")]
    rep = joint_loss([pred], [target], {}, LossWeights(*onehot, 0.0), cfg, edge_beta, eps)
    return getattr(rep, f"{kind}_term"), rep.pred_grads[0]


# ---------------------------------------------------------------------------
# L2
# ---------------------------------------------------------------------------

def test_l2_single_pixel_error():
    target = _img([[1, 2], [3, 4]])
    pred = _img([[1, 2], [3, 6]])
    loss, grad = _term("l2", pred, target)
    assert loss == pytest.approx(4.0 / 4.0)          # one squared error of 4, P=4
    expect = np.zeros((1, 1, 2, 2))
    expect[0, 0, 1, 1] = 2.0 / 4.0 * 2.0
    assert np.allclose(grad, expect)


def test_l2_zero_on_identical_inputs():
    x = RngStream(1).uniform((2, 1, 4, 4), 0, 1, dtype="double")
    loss, grad = _term("l2", x, x)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_l2_weights_each_pixel_by_the_target_edge_map():
    rng = RngStream(2)
    pred = rng.uniform((2, 2, 6, 6), 0, 1, dtype="double")
    targ = rng.uniform((2, 2, 6, 6), 0, 1, dtype="double")
    w = edge_weight_map(targ, 4.0)
    loss, grad = _term("l2", pred, targ, edge_beta=4.0)
    assert loss == pytest.approx(np.mean(w * (pred - targ) ** 2))
    assert np.allclose(grad, 2.0 * w * (pred - targ) / pred.size)
    # a flat target has no edges, so its weights are all 1
    flat = np.full_like(targ, 0.3)
    assert _term("l2", pred, flat, edge_beta=4.0)[0] == _term("l2", pred, flat)[0]


def test_l2_batch_normalization_by_images_times_pixels():
    pred = np.zeros((4, 1, 2, 2))
    targ = np.ones((4, 1, 2, 2))
    loss, _ = _term("l2", pred, targ)
    assert loss == pytest.approx(1.0)                # every pixel error 1


def test_l2_rejects_mismatches():
    with pytest.raises(ShapeError):
        _term("l2", np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 2, 3)))
    with pytest.raises(ShapeError):
        _term("l2", np.zeros((1, 1, 2, 2)), np.zeros((2, 1, 2, 2)), edge_beta=4.0)


# ---------------------------------------------------------------------------
# edge weight map
# ---------------------------------------------------------------------------

def test_edge_weight_map_constant_image_is_all_ones():
    w = edge_weight_map(np.full((2, 1, 8, 8), 0.3), beta=4.0)
    assert np.all(w == 1.0)


def test_edge_weight_map_step_edge_peaks_at_one_plus_beta():
    img = np.zeros((1, 1, 8, 8))
    img[:, :, :, 4:] = 1.0
    w = edge_weight_map(img, beta=4.0)
    assert w.shape == (1, 1, 8, 8)
    assert w.max() == pytest.approx(5.0)
    assert w.min() >= 1.0


def test_edge_weight_map_normalized_per_image():
    a = np.zeros((1, 1, 8, 8))
    a[:, :, :, 4:] = 1.0
    b = 0.1 * a                                       # weaker edge, same shape
    w = edge_weight_map(np.concatenate([a, b]), beta=2.0)
    assert w[0].max() == pytest.approx(w[1].max())    # each peaks at 1 + beta


def test_sobel_magnitude_zero_inside_flat_region():
    img = np.full((1, 1, 6, 6), 0.7)
    assert np.allclose(sobel_magnitude(img), 0.0)


# The edge weight map on the np.pad stencil of `stencil_oracle`, kept
# verbatim as the oracle of `edge_weight_map`'s bit-identity contract
# (compared here, never against stored digests).

def _oracle_edge_weight_map(target, beta=4.0):
    intensity = target.mean(axis=1, keepdims=True).astype(np.float64)
    e = _oracle_sobel_magnitude(intensity)
    peak = e.max(axis=(1, 2, 3), keepdims=True)
    flat = peak <= 1e-12
    e = np.where(flat, 0.0, e / np.where(flat, 1.0, peak))
    return 1.0 + beta * e


def _stencil_batches(dtype):
    rng = RngStream(11)
    vstep, hstep = np.zeros((2, 1, 1, 9, 12))
    vstep[:, :, :, 5:] = 1.0
    hstep[:, :, 4:, :] = 1.0
    yield rng.uniform((4, 1, 16, 16), 0, 1, dtype=dtype)
    yield rng.uniform((2, 3, 17, 9), -1, 1, dtype=dtype)
    yield rng.uniform((3, 1, 2, 5), 0, 1, dtype=dtype)
    yield np.full((2, 1, 7, 7), 0.3).astype(dtype)
    yield np.concatenate([vstep, 0.25 * vstep, hstep, np.zeros_like(vstep)]).astype(dtype)


@pytest.mark.parametrize("dtype", ["single", "double"])
def test_sobel_and_edge_weight_map_match_pad_oracle_bit_for_bit(dtype):
    for img in _stencil_batches(dtype):
        got = sobel_magnitude(img)
        want = _oracle_sobel_magnitude(img)
        assert got.shape == want.shape and got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        for beta in (4.0, 0.5):
            got = edge_weight_map(img, beta=beta)
            want = _oracle_edge_weight_map(img, beta=beta)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# two-factor SSIM
# ---------------------------------------------------------------------------

def test_ssim_identical_images_score_one():
    x = RngStream(3).uniform((2, 1, 12, 12), 0, 1, dtype="double")
    for mode in ("local", "global"):
        cfg = SsimConfig(mode=mode, window=7)
        q = ssim_map(x, x, cfg)
        assert np.allclose(q, 1.0)
        loss, grad = _term("ssim", x, x, cfg)
        assert loss == pytest.approx(0.0, abs=1e-12)


def test_ssim_global_constant_images():
    pred = np.ones((1, 1, 8, 8))
    targ = np.zeros((1, 1, 8, 8))
    cfg = SsimConfig(mode="global")
    q = ssim_map(pred, targ, cfg)
    # luminance (0 + C1)/(1 + C1) with C1 = 1e-4; contrast factor is 1
    assert np.allclose(q, 1e-4 / (1.0 + 1e-4))


def test_ssim_map_bounded_above_by_one():
    rng = RngStream(4)
    pred = rng.uniform((2, 1, 10, 10), 0, 1, dtype="double")
    targ = rng.uniform((2, 1, 10, 10), 0, 1, dtype="double")
    for mode in ("local", "global"):
        q = ssim_map(pred, targ, SsimConfig(mode=mode, window=5))
        assert q.max() <= 1.0 + 1e-12
        assert q.shape == pred.shape or mode == "global"


def test_ssim_local_map_covers_every_pixel():
    rng = RngStream(5)
    pred = rng.uniform((1, 1, 9, 9), 0, 1, dtype="double")
    targ = rng.uniform((1, 1, 9, 9), 0, 1, dtype="double")
    q = ssim_map(pred, targ, SsimConfig(mode="local", window=5))
    assert q.shape == (1, 1, 9, 9)


def test_ssim_loss_decreases_as_pred_approaches_target():
    rng = RngStream(6)
    targ = rng.uniform((1, 1, 12, 12), 0, 1, dtype="double")
    noise = rng.uniform((1, 1, 12, 12), -1, 1, dtype="double")
    cfg = SsimConfig(mode="local", window=7)
    losses = [_term("ssim", targ + a * noise, targ, cfg)[0] for a in (0.3, 0.1, 0.0)]
    assert losses[0] > losses[1] > losses[2]


@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
@pytest.mark.parametrize("mode", ["local", "global"])
def test_ssim_loss_gradient_matches_finite_differences(mode, weighted):
    rng = RngStream(9)
    pred = rng.uniform((2, 2, 9, 13), 0, 1, dtype="double")
    targ = rng.uniform((2, 2, 9, 13), 0, 1, dtype="double")
    edge_beta = 4.0 if weighted else None
    cfg = SsimConfig(mode=mode, window=5)
    _, grad = _term("ssim", pred, targ, cfg, edge_beta)
    numeric = finite_diff(lambda v: _term("ssim", v, targ, cfg, edge_beta)[0], pred.copy())
    assert max_rel_err(grad, numeric) <= 1e-5


def test_ssim_window_must_fit():
    with pytest.raises(ParameterError):
        _term("ssim", np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 4, 4)),
              SsimConfig(mode="local", window=7))
    with pytest.raises(ParameterError):
        SsimConfig(mode="local", window=4)


# ---------------------------------------------------------------------------
# total variation
# ---------------------------------------------------------------------------

def test_tv_two_by_two_step():
    loss, _ = _term("tv", *[_img([[0, 1], [0, 1]])] * 2, eps=0.0)
    assert loss == pytest.approx(1.0)


def test_tv_constant_image_is_zero():
    loss, grad = _term("tv", *[np.full((2, 1, 5, 5), 0.4)] * 2, eps=0.0)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_tv_diagonal_ramp():
    # p = q = 1 at every interior position -> each term sqrt(2)
    yy, xx = np.mgrid[0:4, 0:4].astype(np.float64)
    loss, _ = _term("tv", *[(yy + xx)[None, None]] * 2, eps=0.0)
    assert loss == pytest.approx(9 * np.sqrt(2.0))


def test_tv_normalized_by_batch_only():
    img = _img([[0, 1], [0, 1]])
    single, _ = _term("tv", img, img, eps=0.0)
    double_batch, _ = _term("tv", *[np.concatenate([img, img])] * 2, eps=0.0)
    assert double_batch == pytest.approx(single)


@settings(max_examples=20, deadline=None)
@given(shift=st.floats(-5, 5), seed=st.integers(0, 100))
def test_tv_invariant_under_constant_shift(shift, seed):
    x = RngStream(seed).uniform((1, 1, 6, 6), 0, 1, dtype="double")
    a, _ = _term("tv", x, x)
    b, _ = _term("tv", x + shift, x + shift)
    assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# weight decay and joint loss
# ---------------------------------------------------------------------------

def test_weight_decay_single_weight():
    params = {"enc.arm0.block0.conv.weight": np.full((1, 1, 1, 1), 2.0),
              "enc.arm0.block0.conv.bias": np.full((1,), 100.0),
              "enc.arm0.block0.bn.gamma": np.full((1,), 100.0)}
    total, grads = weight_decay(params)
    assert total == pytest.approx(2.0)               # 0.5 * 2^2
    assert list(grads) == ["enc.arm0.block0.conv.weight"]
    assert grads["enc.arm0.block0.conv.weight"].item() == pytest.approx(2.0)


def test_joint_loss_recomposition():
    rng = RngStream(7)
    pred = rng.uniform((2, 1, 12, 12), 0, 1, dtype="double")
    targ = rng.uniform((2, 1, 12, 12), 0, 1, dtype="double")
    params = {"a.conv.weight": rng.uniform((2, 1, 3, 3), -1, 1, dtype="double")}
    lw = LossWeights(10.0, 5.0, 0.5, 0.0001)
    cfg = SsimConfig(mode="local", window=7)

    rep = joint_loss([pred], [targ], params, lw, cfg, 4.0, 1e-8)
    l2_v, l2_g = _term("l2", pred, targ, cfg, 4.0)
    ss_v, ss_g = _term("ssim", pred, targ, cfg, 4.0)
    tv_v, tv_g = _term("tv", pred, targ, cfg, 4.0)
    wd_v, _ = weight_decay(params)
    # each term's value is the same whatever the weights of the others
    assert (rep.l2_term, rep.ssim_term, rep.tv_term) == (l2_v, ss_v, tv_v)
    assert rep.total == pytest.approx(
        lw.lambda1 * l2_v + lw.lambda2 * ss_v + lw.lambda3 * tv_v
        + lw.lambda4 * wd_v)
    assert np.allclose(rep.pred_grads[0],
                       lw.lambda1 * l2_g + lw.lambda2 * ss_g + lw.lambda3 * tv_g)


def test_joint_loss_averages_over_heads():
    rng = RngStream(8)
    p1 = rng.uniform((1, 1, 8, 8), 0, 1, dtype="double")
    p2 = rng.uniform((1, 1, 8, 8), 0, 1, dtype="double")
    t1 = rng.uniform((1, 1, 8, 8), 0, 1, dtype="double")
    t2 = rng.uniform((1, 1, 8, 8), 0, 1, dtype="double")
    lw = LossWeights(1.0, 1.0, 1.0, 0.0)
    cfg = SsimConfig(mode="global")
    two = joint_loss([p1, p2], [t1, t2], {}, lw, cfg, None, 1e-8)
    a = joint_loss([p1], [t1], {}, lw, cfg, None, 1e-8)
    b = joint_loss([p2], [t2], {}, lw, cfg, None, 1e-8)
    assert two.total == pytest.approx((a.total + b.total) / 2.0)
    assert np.allclose(two.pred_grads[0], a.pred_grads[0] / 2.0)


def test_joint_loss_validates_heads():
    x = np.zeros((1, 1, 8, 8))
    lw = LossWeights()
    cfg = SsimConfig(mode="global")
    with pytest.raises(ParameterError):
        joint_loss([], [], {}, lw, cfg, None, 1e-8)
    with pytest.raises(ParameterError):
        joint_loss([x], [x, x], {}, lw, cfg, None, 1e-8)


@pytest.mark.parametrize("call", [
    lambda: edge_weight_map(np.zeros((1, 1, 4, 4)), beta=float("nan")),
    lambda: _term("tv", np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 4, 4)), eps=float("nan")),
    lambda: psnr(np.zeros((1, 1, 4, 4)), np.ones((1, 1, 4, 4)), max_value=float("nan")),
], ids=["edge_weight_map-beta", "joint_loss-tv_eps", "psnr-max_value"])
def test_nan_parameter_fails_by_name(call):
    with pytest.raises(ParameterError, match="nan"):
        call()


def test_loss_weights_reject_negative():
    with pytest.raises(ParameterError):
        LossWeights(lambda2=-1.0)


def _loss_bits(rep):
    return ([float(v).hex() for v in (rep.l2_term, rep.ssim_term, rep.tv_term, rep.total)],
            [(g.dtype, g.tobytes()) for g in rep.pred_grads])


@pytest.mark.parametrize("mode", ["local", "global"])
@pytest.mark.parametrize("edge_beta", [None, 4.0], ids=["plain", "edge"])
@pytest.mark.parametrize("dtype", ["single", "double"])
@pytest.mark.parametrize("heads", [1, 2])
def test_joint_loss_bits_do_not_depend_on_chunk_size(monkeypatch, heads, dtype, edge_beta, mode):
    rng = RngStream(12)
    preds = [rng.uniform((5, 2, 10, 12), 0, 1, dtype=dtype) for _ in range(heads)]
    targets = [rng.uniform((5, 2, 10, 12), 0, 1, dtype=dtype) for _ in range(heads)]
    params = {"a.conv.weight": rng.uniform((2, 2, 3, 3), -1, 1, dtype=dtype)}
    per_image = 2 * 10 * 12 * 8
    reports = []
    # one image per chunk, two (the last chunk one short), the whole batch
    for chunk_bytes in (per_image, 2 * per_image, 5 * per_image):
        monkeypatch.setattr(loss_mod, "_CHUNK_BYTES", chunk_bytes)
        reports.append(_loss_bits(joint_loss(preds, targets, params, LossWeights(),
                                             SsimConfig(mode=mode, window=5), edge_beta, 1e-8)))
    assert reports[0] == reports[1] == reports[2]
