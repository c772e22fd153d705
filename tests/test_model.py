import numpy as np
import pytest

from synnet import layers
from synnet.model import Topology, SynNetModel, build_model
from synnet.tensor import RngStream, ShapeError, ParameterError, UsageError
from synnet.verify import MODEL_CASES


def _tiny(kind, **kw):
    defaults = dict(kind=kind, depth=2, channels=(4, 6), final_width=4)
    defaults.update(kw)
    return Topology(**defaults)


def test_topology_validation():
    with pytest.raises(ParameterError):
        Topology(kind="simo")
    with pytest.raises(ParameterError):
        Topology(depth=3, channels=(8, 8))
    with pytest.raises(ParameterError):
        Topology(kind="miso", depth=1, channels=(4,), miso_index_arm=2)


def test_topology_arm_counts():
    assert (_tiny("siso").in_arms, _tiny("siso").out_arms) == (1, 1)
    assert (_tiny("miso").in_arms, _tiny("miso").out_arms) == (2, 1)
    assert (_tiny("mimo").in_arms, _tiny("mimo").out_arms) == (2, 2)


def test_param_count_matches_shape_tally():
    topo = _tiny("siso")
    model = SynNetModel(topo)
    shapes = model.param_shapes()
    # independent tally: encoder convs 1->4->6, decoder convs consume
    # (prev + skip) channels, head is 1x1 from final_width; block convs
    # feed batchnorm and have no bias, the head conv has one
    expect = 0
    expect += 4 * 1 * 9 + 2 * 4              # enc block0 conv + bn
    expect += 6 * 4 * 9 + 2 * 6              # enc block1
    expect += 4 * (6 + 6) * 9 + 2 * 4        # dec block1 -> channels[0]=4
    expect += 4 * (4 + 4) * 9 + 2 * 4        # dec block0 -> final_width=4
    expect += 1 * 4 * 1 + 1                  # head
    assert expect == sum(int(np.prod(s)) for s in shapes.values())


def test_init_params_statistics():
    model = SynNetModel(_tiny("siso"))
    params, state = model.init_params(RngStream(0), dtype="double")
    for name, p in params.items():
        if name.endswith("conv.weight"):
            _, in_c, kh, kw = p.shape
            assert np.abs(p).max() <= np.sqrt(1.0 / (in_c * kh * kw))
        elif name.endswith("bn.gamma"):
            assert np.all(p == 1.0)
        else:
            assert np.all(p == 0.0)
    for name, s in state.items():
        assert np.all(s == (1.0 if name.endswith("running_var") else 0.0))


@pytest.mark.parametrize("kind", ["siso", "miso", "mimo"])
def test_forward_shapes_all_topologies(kind):
    topo = _tiny(kind)
    model, params, state = build_model(topo, RngStream(1), dtype="double")
    rng = RngStream(2)
    inputs = [rng.uniform((3, 1, 8, 8), 0, 1, dtype="double")
              for _ in range(topo.in_arms)]
    preds, trace = model.forward(params, state, inputs, mode="train")
    assert len(preds) == topo.out_arms
    for p in preds:
        assert p.shape == (3, 1, 8, 8)
    grads = model.backward(params, trace, [np.ones_like(p) for p in preds])
    assert set(grads) == set(params)
    for name, g in grads.items():
        assert g.shape == params[name].shape
        assert np.all(np.isfinite(g))


def test_forward_rejects_bad_arm_count_and_size():
    topo = _tiny("siso")
    model, params, state = build_model(topo, RngStream(1), dtype="double")
    x = np.zeros((1, 1, 8, 8))
    with pytest.raises(UsageError):
        model.forward(params, state, [x, x])
    # any size: 6x8 is padded to 8x8 inside, and the prediction cropped back
    preds, _ = model.forward(params, state, [np.zeros((1, 1, 6, 8))])
    assert preds[0].shape == (1, 1, 6, 8)
    miso, mparams, mstate = build_model(_tiny("miso"), RngStream(1), dtype="double")
    with pytest.raises(ShapeError):
        miso.forward(mparams, mstate, [x, np.zeros((1, 1, 6, 8))])
    with pytest.raises(ParameterError):
        model.forward(params, state, [x], mode="eval")


def test_zero_weights_predict_head_bias():
    topo = _tiny("siso")
    model, params, state = build_model(topo, RngStream(1), dtype="double")
    for name in params:
        if name.endswith("conv.weight"):
            params[name] = np.zeros_like(params[name])
    params["head.arm0.conv.bias"] = np.array([0.75])
    x = RngStream(2).uniform((2, 1, 8, 8), 0, 1, dtype="double")
    preds, _ = model.forward(params, state, [x], mode="infer")
    assert np.allclose(preds[0], 0.75)


def test_infer_mode_is_batch_independent():
    topo = _tiny("siso")
    model, params, state = build_model(topo, RngStream(3), dtype="double")
    rng = RngStream(4)
    a = rng.uniform((1, 1, 8, 8), 0, 1, dtype="double")
    b = rng.uniform((1, 1, 8, 8), 0, 1, dtype="double")
    solo, _ = model.forward(params, state, [a], mode="infer")
    both, _ = model.forward(params, state, [np.concatenate([a, b])], mode="infer")
    assert np.array_equal(solo[0], both[0][:1])


@pytest.mark.parametrize("kind", ["siso", "miso", "mimo"])
def test_infer_mode_folds_batchnorm_into_the_conv(kind, monkeypatch):
    topo = _tiny(kind)
    model, params, state = build_model(topo, RngStream(17), dtype="double")
    rng = RngStream(18)
    inputs = [rng.uniform((2, 1, 8, 8), 0, 1, dtype="double")
              for _ in range(topo.in_arms)]

    def no_batchnorm(*args, **kwargs):
        raise AssertionError("batchnorm_forward called")

    monkeypatch.setattr(layers, "batchnorm_forward", no_batchnorm)
    preds, trace = model.forward(params, state, inputs, mode="infer")
    assert trace is None and len(preds) == topo.out_arms
    with pytest.raises(AssertionError, match="batchnorm_forward called"):
        model.forward(params, state, inputs, mode="train")


def test_infer_mode_leaves_state_untouched():
    topo = _tiny("siso")
    model, params, state = build_model(topo, RngStream(5), dtype="double")
    before = {k: v.copy() for k, v in state.items()}
    x = RngStream(6).uniform((2, 1, 8, 8), 0, 1, dtype="double")
    preds, trace = model.forward(params, state, [x], mode="infer")
    assert trace is None
    for k in state:
        assert np.array_equal(state[k], before[k])


def test_train_mode_updates_running_stats():
    topo = _tiny("siso")
    model, params, state = build_model(topo, RngStream(5), dtype="double")
    before = {k: v.copy() for k, v in state.items()}
    x = RngStream(6).uniform((2, 1, 8, 8), 0, 1, dtype="double")
    model.forward(params, state, [x], mode="train")
    changed = sum(not np.array_equal(state[k], before[k]) for k in state)
    assert changed == len(state)


def test_trace_is_single_use():
    topo = _tiny("siso")
    model, params, state = build_model(topo, RngStream(7), dtype="double")
    x = RngStream(8).uniform((2, 1, 8, 8), 0, 1, dtype="double")
    preds, trace = model.forward(params, state, [x], mode="train")
    g = [np.ones_like(preds[0])]
    model.backward(params, trace, g)
    with pytest.raises(UsageError):
        model.backward(params, trace, g)


def test_mimo_heads_differ_and_matched_skip_flag_changes_shapes():
    topo = _tiny("mimo")
    model, params, state = build_model(topo, RngStream(9), dtype="double")
    rng = RngStream(10)
    inputs = [rng.uniform((1, 1, 8, 8), 0, 1, dtype="double") for _ in range(2)]
    preds, _ = model.forward(params, state, inputs, mode="infer")
    assert np.any(preds[0] != preds[1])

    matched = SynNetModel(_tiny("mimo", mimo_arm_matched_skips=True))
    full = model.param_shapes()
    slim = matched.param_shapes()
    # matched skips halve the skip channels entering every decoder conv
    assert slim["dec.arm0.block1.conv.weight"][1] < full["dec.arm0.block1.conv.weight"][1]


def test_miso_index_arm_affects_output():
    rng_in = RngStream(11)
    inputs = [rng_in.uniform((1, 1, 8, 8), 0, 1, dtype="double") for _ in range(2)]
    outs = []
    for arm in (0, 1):
        topo = _tiny("miso", miso_index_arm=arm)
        model, params, state = build_model(topo, RngStream(12), dtype="double")
        preds, _ = model.forward(params, state, inputs, mode="infer")
        outs.append(preds[0])
    assert np.any(outs[0] != outs[1])


def test_backward_grad_count_validation():
    topo = _tiny("mimo")
    model, params, state = build_model(topo, RngStream(13), dtype="double")
    rng = RngStream(14)
    inputs = [rng.uniform((1, 1, 8, 8), 0, 1, dtype="double") for _ in range(2)]
    preds, trace = model.forward(params, state, inputs, mode="train")
    with pytest.raises(UsageError):
        model.backward(params, trace, [np.ones_like(preds[0])])


@pytest.mark.parametrize("case", list(MODEL_CASES))
def test_backward_matches_finite_differences_at_depth_2(case, suite_results):
    # fusion, cross-arm skips and both heads, in double, for every parameter,
    # as checked by the gradcheck suite
    results = [r for r in suite_results(0) if r.name.startswith(f"model/{case}/")]
    kind, depth, _, extra = MODEL_CASES[case]
    topo = Topology(kind=kind, depth=depth, channels=(2,) * depth, final_width=2, **extra)
    assert len(results) == len(SynNetModel(topo).param_shapes())
    assert [r.name for r in results if not (r.passed and r.tol == 1e-5)] == []


@pytest.mark.parametrize("kind", ["siso", "miso", "mimo"])
def test_train_forward_keeps_no_decoder_or_head_conv_input(kind):
    topo = _tiny(kind)
    model, params, state = build_model(topo, RngStream(19))
    rng = RngStream(20)
    inputs = [rng.uniform((2, 1, 8, 8), 0, 1) for _ in range(topo.in_arms)]
    _, trace = model.forward(params, state, inputs, mode="train")
    for arm in trace.dec_tapes:
        for _, _, _, (ct, _) in arm:
            assert ct.x_flat is None
    assert all(ht.x_flat is None for ht in trace.head_tapes)
    # encoder and fuse convs keep theirs
    assert all(ct.x_flat is not None for arm in trace.enc_tapes for (ct, _), _ in arm)
    assert all(ft is None or ft.x_flat is not None for ft in trace.fuse_tapes)


@pytest.mark.parametrize("mode", ["train", "infer"])
@pytest.mark.parametrize("kind", ["miso", "mimo"])
def test_every_block_forward_goes_through_block(kind, mode, monkeypatch):
    # each block is run once, by `_block`, and every 3x3 conv and batchnorm
    # of a forward runs inside it
    from synnet import model as model_mod
    topo = _tiny(kind)
    model, params, state = build_model(topo, RngStream(25))
    rng = RngStream(26)
    inputs = [rng.uniform((2, 1, 8, 8), 0, 1) for _ in range(topo.in_arms)]
    block, conv, batchnorm = model_mod._block, layers.conv2d_forward, layers.batchnorm_forward
    blocks, outside = [], []

    def record_block(params, state, prefix, *args, **kwargs):
        blocks.append(prefix)
        try:
            return block(params, state, prefix, *args, **kwargs)
        finally:
            blocks.append(None)

    def inside(fn, name):
        def run(*args, **kwargs):
            if (name == "batchnorm" or args[1].shape[-1] == 3) and blocks[-1:] in ([], [None]):
                outside.append(name)
            return fn(*args, **kwargs)
        return run

    monkeypatch.setattr(model_mod, "_block", record_block)
    monkeypatch.setattr(layers, "conv2d_forward", inside(conv, "conv3x3"))
    monkeypatch.setattr(layers, "batchnorm_forward", inside(batchnorm, "batchnorm"))
    model.forward(params, state, inputs, mode=mode)
    want = [n[:-len(".bn.gamma")] for n in model.param_shapes() if n.endswith(".bn.gamma")]
    assert sorted(p for p in blocks if p is not None) == sorted(want)
    assert outside == []


@pytest.mark.parametrize("kind", ["siso", "mimo"])
def test_decoder_conv_input_is_freed_before_its_batchnorm(kind, monkeypatch):
    # the train forward's tape keeps no decoder conv input, so its padded
    # buffer is dead before batchnorm allocates
    import weakref
    from synnet import model as model_mod
    topo = _tiny(kind)
    model, params, state = build_model(topo, RngStream(27))
    rng = RngStream(28)
    inputs = [rng.uniform((2, 1, 8, 8), 0, 1) for _ in range(topo.in_arms)]
    decoder_input, batchnorm = model_mod._decoder_input, layers.batchnorm_forward
    buffers, alive = [], []

    def record(*args):
        flat, cat = decoder_input(*args)
        buffers.append(weakref.ref(flat))
        return flat, cat

    def check(*args, **kwargs):
        alive.extend(ref() is not None for ref in buffers)
        return batchnorm(*args, **kwargs)

    monkeypatch.setattr(model_mod, "_decoder_input", record)
    monkeypatch.setattr(layers, "batchnorm_forward", check)
    model.forward(params, state, inputs, mode="train")
    assert len(buffers) == topo.out_arms * topo.depth
    # each decoder batchnorm sees every buffer built so far, its own included
    assert len(alive) > 0 and not any(alive)


@pytest.mark.parametrize("kind", ["mimo", "miso", "siso"],
                         ids=["mimo-full-skips", "miso", "siso"])
def test_backward_rebuilds_each_conv_input_byte_equal(kind, monkeypatch):
    # every decoder and head conv input the backward rebuilds is, byte for
    # byte, the zero-padded input the forward convolved
    topo = _tiny(kind)
    model, params, state = build_model(topo, RngStream(21))
    rng = RngStream(22)
    inputs = [rng.uniform((3, 1, 8, 8), 0, 1) for _ in range(topo.in_arms)]
    forward, backward = layers.conv2d_forward, layers.conv2d_backward
    convolved, rebuilt = {}, []

    def record(x, w, b=None, padded=None, keep_input=True, **kwargs):
        if not keep_input:
            flat = padded if padded is not None else x.reshape(*x.shape[:2], -1)
            convolved[id(w)] = flat.copy()
        return forward(x, w, b, padded=padded, keep_input=keep_input, **kwargs)

    def compare(tape, grad_out, **kwargs):
        if id(tape.weights) in convolved:
            want = convolved.pop(id(tape.weights))
            assert tape.x_flat.dtype == want.dtype and tape.x_flat.shape == want.shape
            assert tape.x_flat.tobytes() == want.tobytes()
            rebuilt.append(tape.weights.shape)
        return backward(tape, grad_out, **kwargs)

    monkeypatch.setattr(layers, "conv2d_forward", record)
    monkeypatch.setattr(layers, "conv2d_backward", compare)
    preds, trace = model.forward(params, state, inputs, mode="train")
    model.backward(params, trace, [rng.uniform(p.shape, -1, 1) for p in preds])
    assert len(rebuilt) == topo.out_arms * (topo.depth + 1) and not convolved


@pytest.mark.parametrize("kind", ["siso", "mimo"])
def test_backward_frees_each_decoder_input_gradient_before_the_encoder(kind, monkeypatch):
    # each decoder block's skip gradients are copied out of its conv's input
    # gradient, so no view keeps that buffer alive into the encoder backward
    import weakref
    topo = _tiny(kind)
    model, params, state = build_model(topo, RngStream(23))
    rng = RngStream(24)
    inputs = [rng.uniform((2, 1, 8, 8), 0, 1) for _ in range(topo.in_arms)]
    conv_backward, pool_backward = layers.conv2d_backward, layers.maxpool2x2_backward
    decoder_grads, checked = [], []

    def record(tape, grad_out, **kwargs):
        gx, gw, gb = conv_backward(tape, grad_out, **kwargs)
        if gx is not None and tape.weights.shape[-1] == 3 and not checked:
            buf = gx
            while isinstance(buf.base, np.ndarray):
                buf = buf.base
            decoder_grads.append(weakref.ref(buf))
        return gx, gw, gb

    def check(tape, grad_out, **kwargs):
        if not checked:
            checked.append([ref() is None for ref in decoder_grads])
        return pool_backward(tape, grad_out, **kwargs)

    monkeypatch.setattr(layers, "conv2d_backward", record)
    monkeypatch.setattr(layers, "maxpool2x2_backward", check)
    preds, trace = model.forward(params, state, inputs, mode="train")
    model.backward(params, trace, [rng.uniform(p.shape, -1, 1) for p in preds])
    assert len(decoder_grads) == topo.out_arms * topo.depth
    assert checked == [[True] * len(decoder_grads)]


def test_paper_scale_training_step_peak_memory():
    # memory of one paper-scale SISO step (depth 3, channels 32/64/64, batch
    # 8, 64x64, joint loss), in units of one 64-channel activation: the
    # bytes the model's workspace holds resident, which the step's large
    # buffers come from, plus the tracemalloc peak of the second one-step
    # `optim.train` call, so first-call allocations stay out.  Building
    # each decoder input and each block conv's input gradient in its
    # zero-padded buffer, and freeing each block tape once used, took it
    # from 9.2 to 7.7; batchnorm and ReLU in place without a mask, and
    # freeing each conv input and skip map at its last use, to 6.0;
    # rebuilding the decoder and head conv inputs in the backward instead of
    # keeping them on the tape, and writing each conv output chunk by chunk,
    # to 4.1.  Writing each 3x3 conv's input gradient over its input, with
    # an L2-sized stack on top, took it to 4.3.  The workspace read 4.44:
    # 3.92 held and 0.52 traced, most of it the optimizer's and the loss's;
    # weight decay that returns the weights, not copies, took it to 4.35
    # (0.42 traced).
    import tracemalloc
    from synnet import optim
    from synnet.loss import LossWeights
    n, size = 8, 64
    activation = n * 64 * size * size * 4
    model, params, state = build_model(
        Topology(kind="siso", depth=3, channels=(32, 64, 64), final_width=64), RngStream(0))
    rng = RngStream(1)
    dataset = [([rng.uniform((1, 1, size, size), 0, 1)], [rng.uniform((1, 1, size, size), 0, 1)])
               for _ in range(n)]
    cfg = optim.TrainConfig(batch_size=n, epochs=1, seed=0, loss="joint",
                            loss_weights=LossWeights(10.0, 5.0, 0.0005, 0.0001))
    for traced in (False, True):
        if traced:
            tracemalloc.start()
        try:
            params, _, _ = optim.train(model, params, state, dataset, cfg,
                                       optim.OptimState(lr=0.005))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    held = model.workspace.nbytes
    assert held + peak <= 4.5 * activation, \
        f"{held / activation:.2f} held + {peak / activation:.2f} traced activations"


# ---------------------------------------------------------------------------
# the model's training workspace
# ---------------------------------------------------------------------------

def _pairs(topo, count, size, seed):
    rng = RngStream(seed)
    return [([rng.uniform((1, 1, size, size), 0, 1) for _ in range(topo.in_arms)],
             [rng.uniform((1, 1, size, size), 0, 1) for _ in range(topo.out_arms)])
            for _ in range(count)]


def _train_cfg(batch):
    from synnet import optim
    from synnet.loss import LossWeights
    return optim.TrainConfig(batch_size=batch, epochs=2, seed=3, loss="joint",
                             loss_weights=LossWeights(10.0, 5.0, 0.0005, 0.0001))


class _FreshModelEachStep:
    """A model whose every train-mode forward is a new SynNetModel's, so no
    step finds a buffer an earlier one used."""

    def __init__(self, topology):
        self.topology = topology

    def forward(self, params, state, inputs, mode="train"):
        self.model = SynNetModel(self.topology)
        return self.model.forward(params, state, inputs, mode)

    def backward(self, params, trace, grad_preds):
        return self.model.backward(params, trace, grad_preds)


@pytest.mark.parametrize("kind", ["siso", "mimo"])
def test_a_second_step_takes_no_new_workspace_memory(kind):
    from synnet import optim
    topo = _tiny(kind)
    model, params, state = build_model(topo, RngStream(40))
    data, cfg = _pairs(topo, 6, 16, 41), _train_cfg(6)
    cfg.epochs = 1
    params, _, _ = optim.train(model, params, state, data, cfg, optim.OptimState(lr=0.005))
    ws = model.workspace
    held = (len(ws._reserved), ws.nbytes)
    assert held[1] > 0
    optim.train(model, params, state, data, cfg, optim.OptimState(lr=0.005))
    assert (len(ws._reserved), ws.nbytes) == held


@pytest.mark.parametrize("kind", ["siso", "mimo"])
def test_a_model_stepped_again_and_again_gives_the_bits_of_fresh_models(kind):
    # 40 samples in batches of 32 end each epoch on a partial batch of 8,
    # and the same model then goes on at another image size
    from synnet import optim
    topo = _tiny(kind, channels=(4, 8))
    runs = []
    for model in (SynNetModel(topo), _FreshModelEachStep(topo)):
        params, state = SynNetModel(topo).init_params(RngStream(42))
        opt = optim.OptimState(lr=0.005)
        history = []
        for size in (64, 48):
            opt.epoch = 0
            params, opt, rows = optim.train(model, params, state, _pairs(topo, 40, size, size),
                                            _train_cfg(32), opt)
            history += rows
        runs.append((history, params, state))
    (h0, p0, s0), (h1, p1, s1) = runs
    assert len(h0) == 8 and h0 == h1
    for name in p0:
        assert p0[name].tobytes() == p1[name].tobytes(), name
    for name in s0:
        assert s0[name].tobytes() == s1[name].tobytes(), name


def _warm_workspace_filled_with_nan(kind):
    """A double-precision model whose workspace a larger step has warmed
    and whose memory is then NaN bits everywhere, and a smaller batch: a
    border left unzeroed, or a value read before it is written, would show
    in the gradients."""
    topo = _tiny(kind)
    model, params, state = build_model(topo, RngStream(43), dtype="double")
    rng = RngStream(44)
    warm = [rng.uniform((3, 1, 12, 16), 0, 1, dtype="double") for _ in range(topo.in_arms)]
    preds, trace = model.forward(params, dict(state), warm, mode="train")
    model.backward(params, trace, [rng.uniform(p.shape, -1, 1, dtype="double") for p in preds])
    del preds, trace
    ws = model.workspace
    for reserved, reached in zip(ws._reserved, ws._reached):
        reserved[:reached] = 0xFF
    inputs = [rng.uniform((2, 1, 8, 8), 0, 1, dtype="double") for _ in range(topo.in_arms)]
    cots = [rng.uniform((2, 1, 8, 8), -1, 1, dtype="double") for _ in range(topo.out_arms)]
    return model, params, state, inputs, cots


@pytest.mark.parametrize("kind", ["siso", "mimo"])
def test_gradients_on_a_warm_workspace_are_a_fresh_models_bits(kind):
    model, params, state, inputs, cots = _warm_workspace_filled_with_nan(kind)
    fresh = SynNetModel(model.topology)
    _, trace = fresh.forward(params, dict(state), inputs, mode="train")
    want = fresh.backward(params, trace, cots)
    _, trace = model.forward(params, dict(state), inputs, mode="train")
    got = model.backward(params, trace, cots)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


def test_gradients_on_a_warm_workspace_match_finite_differences():
    from synnet.verify import model_gradcheck
    model, params, state, inputs, cots = _warm_workspace_filled_with_nan("siso")
    errors = model_gradcheck(model, params, state, inputs, cots)
    assert max(errors.values()) <= 1e-5, errors


# ---------------------------------------------------------------------------
# the per-thread scratch kept by the convs
# ---------------------------------------------------------------------------

def _in_thread(fn):
    """fn() run in a new thread, whose layers scratch starts unmade."""
    import threading
    out = []
    t = threading.Thread(target=lambda: out.append(fn()))
    t.start()
    t.join(timeout=60)
    assert not t.is_alive() and len(out) == 1
    return out[0]


def _scratch_buffer():
    """(address, bytes) of the calling thread's kept scratch, None if unmade."""
    buf = getattr(layers._thread_scratch, "buf", None)
    if buf is None:
        return None
    return buf.__array_interface__["data"][0], buf.nbytes


def test_second_infer_forward_reuses_the_threads_scratch():
    model, params, state = build_model(_tiny("mimo", channels=(8, 16)), RngStream(30))
    inputs = [RngStream(31 + a).uniform((2, 1, 16, 12), 0, 1) for a in range(2)]

    def twice():
        model.forward(params, state, inputs, mode="infer")
        first = _scratch_buffer()
        model.forward(params, state, inputs, mode="infer")
        return first, _scratch_buffer()

    first, second = _in_thread(twice)
    assert first is not None and first[1] > 0
    assert second == first


def test_training_takes_no_chunk_arrays_from_the_threads_scratch():
    # a train step's correlations take their chunk arrays from the model's
    # workspace, so the thread's scratch is never made
    from synnet import optim
    topo = _tiny("mimo", channels=(8, 16))
    model, params, state = build_model(topo, RngStream(32))
    cfg = _train_cfg(4)
    cfg.epochs = 1

    def step():
        optim.train(model, params, state, _pairs(topo, 4, 16, 33), cfg,
                    optim.OptimState(lr=0.005))
        return _scratch_buffer(), model.workspace.nbytes

    scratch, held = _in_thread(step)
    assert scratch is None and held > 0


def test_concurrent_infer_forwards_give_the_sequential_bits():
    # three threads on a two-core host, each with its own inputs and a short
    # switch interval: a scratch shared between threads would mix their chunks
    import sys
    import threading
    model, params, state = build_model(
        Topology(kind="siso", depth=2, channels=(8, 16), final_width=8), RngStream(34))
    threads, calls = 3, 20
    inputs = [[RngStream(100 * t + i).uniform((2, 1, 16, 16), 0, 1) for i in range(calls)]
              for t in range(threads)]

    def run(t):
        return [model.forward(params, state, [x], mode="infer")[0][0] for x in inputs[t]]

    expected = [run(t) for t in range(threads)]
    results = [None] * threads
    start = threading.Barrier(threads)

    def worker(t):
        start.wait(timeout=30)
        results[t] = run(t)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for t in range(threads):
        assert results[t] is not None
        for got, want in zip(results[t], expected[t]):
            assert got.tobytes() == want.tobytes()
