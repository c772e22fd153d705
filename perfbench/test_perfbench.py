"""Self-tests of the benchmark harness.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

import sys
import types
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from synnet import layers, model, optim  # noqa: E402
from synnet.model import SynNetModel, Topology  # noqa: E402
from synnet.tensor import RngStream  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, 0.0]


# -- self time ----------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = [_span("root", 0.0, 10.0, -1),
             _span("a", 1.0, 4.0, 0),
             _span("a.inner", 2.0, 3.0, 1),
             _span("b", 5.0, 6.0, 0)]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [_span("root", 0.0, 10.0, -1),
             _span("a", 1.0, 4.0, 0),
             _span("b", 3.0, 5.0, 0),       # overlaps a by 1
             _span("c", 9.0, 12.0, 0)]      # runs past the parent's end
    assert tracing.self_times(spans)[0] == 10.0 - 4.0 - 1.0


def test_layer_metrics_partition_self_time_per_operation():
    spans = [_span("optim.train", 0.0, 1.0, -1),
             _span("layers.conv2d_forward.stem", 0.1, 0.3, 0),
             _span("layers.conv2d_backward.body", 0.4, 0.8, 0)]
    spans[1][5], spans[2][5] = 2e9, 4e9
    m = tracing.layer_metrics(spans, n_ops=2)
    assert abs(m["optim.loop_self_ms"] - 200.0) < 1e-9
    assert abs(m["layers.conv_fwd_ms.stem"] - 100.0) < 1e-9
    assert abs(m["layers.conv_bwd_ms.body"] - 200.0) < 1e-9
    assert m["layers.conv_calls"] == 1.0
    assert abs(m["layers.conv_gflop_per_s"] - 6.0 / 0.6) < 1e-9


# -- percentiles ----------------------------------------------------------------

def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(9) is None
    assert run.tail_percentile(39) is None
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(99) == 75
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(128) == 90
    assert run.tail_percentile(200) == 95
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(10000) == 99.9


# -- wrappers -------------------------------------------------------------------

def test_install_wraps_public_functions_and_uninstall_restores_them():
    mod = types.ModuleType("fake")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    def _private(x):
        return x

    for f in (inner, outer, _private):
        f.__module__ = "fake"
        setattr(mod, f.__name__, f)
    tracer = tracing.Tracer()
    tracer.install({"fake": mod})
    try:
        assert mod.outer(1) == 4
        assert mod._private is _private
    finally:
        tracer.uninstall()
    assert mod.inner is inner and mod.outer is outer
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("fake.outer", -1), ("fake.inner", 0)]


def test_traced_training_step_matches_untraced_and_classifies_convs():
    topo = Topology(kind="siso", depth=1, channels=(4,), final_width=4)
    m = SynNetModel(topo)
    p0, s0 = m.init_params(RngStream(3).child("init"))
    rng = RngStream(4)
    dataset = [([rng.uniform((1, 1, 8, 8), 0, 1)], [rng.uniform((1, 1, 8, 8), 0, 1)])
               for _ in range(4)]
    cfg = optim.TrainConfig(batch_size=4, epochs=1, seed=5, loss="joint",
                            loss_weights=workloads.LOSS_WEIGHTS)

    def step():
        params = {k: v.copy() for k, v in p0.items()}
        state = {k: v.copy() for k, v in s0.items()}
        _, _, hist = optim.train(m, params, state, dataset, cfg,
                                 optim.OptimState(lr=0.005))
        return hist, workloads.checksum(params, state)

    plain = step()
    original = layers.conv2d_forward
    tracer = tracing.Tracer()
    tracer.install({"layers": layers, "model": model, "optim": optim},
                   special={"layers.conv2d_forward": (tracing.classify_conv_forward, None),
                            "layers.conv2d_backward": (tracing.classify_conv_backward, None)})
    try:
        traced = step()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert layers.conv2d_forward is original
    names = {s[0] for s in tracer.spans}
    assert {"layers.conv2d_forward.stem", "layers.conv2d_forward.body",
            "layers.conv2d_forward.pointwise", "layers.conv2d_backward.stem",
            "model.SynNetModel.forward", "optim.train"} <= names


# -- tape memory ----------------------------------------------------------------

def test_tape_bytes_counts_shared_buffers_once_and_skips_parameters():
    from dataclasses import dataclass

    @dataclass
    class Tape:
        a: object
        b: object
        w: object

    buf = np.zeros((10, 10), dtype=np.float32)
    w = np.ones((3, 3), dtype=np.float32)
    trace = [Tape(buf, buf[2:5], w), (Tape(buf, np.zeros(7, np.uint8), w),)]
    assert tracing.tape_bytes(trace, {"w": w}) == 400 + 7


def test_tape_bytes_on_depth_one_model():
    n, c, f, h, w = 2, 3, 5, 8, 8
    topo = Topology(kind="siso", depth=1, channels=(c,), final_width=f)
    m = SynNetModel(topo)
    params, state = m.init_params(RngStream(0).child("init"))
    x = RngStream(1).uniform((n, 1, h, w), 0, 1)
    _, trace = m.forward(params, state, [x], mode="train")
    f32, u8, hp, wp = 4, 1, h + 2, w + 2
    expected = (
        n * 1 * hp * wp * f32                            # encoder conv padded input
        + n * c * h * w * f32 + c * f32                  # encoder bn x_hat, inv_std
        + n * c * h * w * u8                             # encoder relu mask
        + n * c * (h // 2) * (w // 2) * u8               # pool offsets (shared with unpool)
        + n * (c + c) * hp * wp * f32                    # decoder conv padded input
        + n * f * h * w * f32 + f * f32                  # decoder bn
        + n * f * h * w * u8                             # decoder relu mask
        + n * f * h * w * f32                            # head 1x1 conv input copy
    )
    assert tracing.tape_bytes(trace, params) == expected


# -- output checks ----------------------------------------------------------------

def test_pgm_size_reads_header_and_checks_payload(tmp_path):
    good = tmp_path / "a.pgm"
    good.write_bytes(b"P5\n# c\n3 2\n255\n" + bytes([32, 10, 9, 13, 0, 255]))
    assert workloads.pgm_size(good) == (2, 3)
    short = tmp_path / "b.pgm"
    short.write_bytes(b"P5\n3 2\n255\n" + bytes(5))
    assert workloads.pgm_size(short) is None
    wrong = tmp_path / "c.pgm"
    wrong.write_bytes(b"P6\n3 2\n255\n" + bytes(6))
    assert workloads.pgm_size(wrong) is None
