import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from synnet import persist
from synnet.model import SynNetModel, Topology, build_model
from synnet.optim import OptimState, TrainConfig
from synnet.persist import (RunConfig, ConfigError, CheckpointError,
                            parse_config, format_config, topology_from_config,
                            train_config_from_config, Checkpoint,
                            save_checkpoint, load_checkpoint,
                            pack_training, unpack_training)
from synnet.tensor import RngStream


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_empty_config_gives_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert cfg.lambda1 == 10.0 and cfg.lambda2 == 5.0
    assert cfg.lambda3 == 0.5 and cfg.lambda4 == 0.0001
    assert cfg.lr == 0.01 and cfg.momentum == 0.9
    assert cfg.batch_size == 32 and cfg.channels == (32, 64, 64)


def test_parse_config_overrides_and_comments():
    cfg = parse_config("""
# training setup
lr = 0.2            # aggressive
epochs = 5
channels = 8,16,16
topology = miso
input_modalities = t1, t2
loss = l2
augment = yes
""")
    assert cfg.lr == 0.2
    assert cfg.epochs == 5
    assert cfg.channels == (8, 16, 16)
    assert cfg.input_modalities == ("t1", "t2")
    assert cfg.loss == "l2"
    assert cfg.augment is True


def test_parse_config_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("lr = 0.1\nnot a setting\n")
    with pytest.raises(ConfigError, match="line 1.*unknown key"):
        parse_config("learning_rate = 0.1\n")
    with pytest.raises(ConfigError, match="line 3.*cannot parse"):
        parse_config("lr = 0.1\nepochs = 2\nbatch_size = many\n")


@pytest.mark.parametrize("line, message", [
    ("dtype = half", "dtype must be one of single, double"),
    ("loss = l1", "loss must be one of l2, weighted_l2, joint"),
    ("topology = simo", "topology must be one of siso, miso, mimo"),
    ("ssim_mode = fast", "ssim_mode must be one of local, global"),
    ("train_frac = 0", r"train_frac must be in \(0, 1\]"),
    ("train_frac = 1.5", r"train_frac must be in \(0, 1\]"),
    ("lr = -1", "lr must be > 0"),
    ("lr = 0", "lr must be > 0"),
    ("momentum = 1", r"momentum must be in \[0, 1\)"),
    ("batch_size = 0", "batch_size must be >= 1, got 0"),
    ("epochs = 0", "epochs must be >= 1, got 0"),
    ("lambda3 = -1", "lambda3 must be >= 0, got -1.0"),
    ("lambda1 = nan", "lambda1 must be >= 0, got nan"),
    ("depth = 2", "channels list length 3 != depth 2"),
    ("channels = 4,8", "channels list length 2 != depth 3"),
    ("miso_index_arm = 2", "miso_index_arm must be 0 or 1, got 2"),
    ("ssim_window = 4", "ssim_window must be odd and >= 1, got 4"),
    ("final_width = 0", "final_width must be >= 1, got 0"),
    ("channels = 0,4,8", r"channels must be >= 1, got \(0, 4, 8\)"),
    ("edge_beta = -1", "edge_beta must be >= 0, got -1.0"),
    ("tv_eps = -1", "tv_eps must be >= 0, got -1.0"),
    ("seed = -1", "seed must be >= 0, got -1"),
    # an infinite value would parse, then surface only in training
    *[(f"{key} = {value}", f"{key} must be finite, got inf") for key, value in (
        ("lr", "inf"), ("lambda1", "inf"), ("lambda2", "inf"), ("lambda3", "inf"),
        ("lambda4", "inf"), ("lambda4", "1e400"), ("edge_beta", "inf"), ("tv_eps", "inf"))],
], ids=["dtype", "loss", "topology", "ssim_mode", "train_frac-0", "train_frac-1.5",
        "lr-negative", "lr-0", "momentum-1", "batch_size-0", "epochs-0", "lambda3-negative",
        "lambda1-nan", "depth-2", "channels-4-8", "miso_index_arm-2", "ssim_window-4",
        "final_width-0", "channels-zero", "edge_beta-negative", "tv_eps-negative",
        "seed-negative", "lr-inf", "lambda1-inf", "lambda2-inf", "lambda3-inf", "lambda4-inf",
        "lambda4-1e400", "edge_beta-inf", "tv_eps-inf"])
def test_parse_config_rejects_values_outside_allowed_set(line, message):
    with pytest.raises(ConfigError, match=f"line 2: {message}"):
        parse_config(f"lr = 0.1\n{line}\n")


@pytest.mark.parametrize("text", ["depth = 2\nchannels = 4,8\n",
                                  "channels = 4,8\ndepth = 2\n"], ids=["depth-first", "channels-first"])
def test_parse_config_topology_keys_agree_in_either_order(text):
    cfg = parse_config(text)
    assert (cfg.depth, cfg.channels) == (2, (4, 8))


def test_parse_config_topology_error_names_every_topology_line():
    with pytest.raises(ConfigError, match=r"^lines 1, 3: channels list length 3 != depth 2"):
        parse_config("depth = 2\nlr = 0.1\ntopology = miso\n")


def test_parse_config_names_the_line_of_an_unknown_modality():
    with pytest.raises(ConfigError, match=r"^line 2: unknown modality 'xyz'"):
        parse_config("lr = 0.1\ninput_modalities = xyz\n")


@pytest.mark.parametrize("text, message", [
    ("lr = 0.1\ntopology = miso\n", "^line 2: miso needs 2 input_modalities, got 1"),
    ("topology = miso\nlr = 0.1\ninput_modalities = m1\n",
     "^lines 1, 3: miso needs 2 input_modalities, got 1"),
    ("output_modalities = m2,m3\n", "^line 1: siso needs 1 output_modalities, got 2"),
], ids=["miso-one-input", "miso-one-input-set", "siso-two-outputs"])
def test_parse_config_modality_count_must_fit_the_topology(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


def test_parse_config_accepts_every_allowed_value():
    text = "dtype = double\nloss = weighted_l2\ntopology = mimo\n" \
           "ssim_mode = global\ntrain_frac = 1\n" \
           "input_modalities = m1,m3\noutput_modalities = m2,m4\n"
    cfg = parse_config(text)
    assert (cfg.dtype, cfg.loss, cfg.topology, cfg.ssim_mode, cfg.train_frac) == \
        ("double", "weighted_l2", "mimo", "global", 1.0)


def test_run_config_defaults_are_the_library_defaults():
    cfg = RunConfig()
    assert topology_from_config(cfg) == Topology()
    assert train_config_from_config(cfg) == TrainConfig()
    assert (cfg.lr, cfg.momentum) == (OptimState().lr, OptimState().momentum)


def test_readme_config_example_lists_every_key_at_its_default():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    keys = [line.split("=")[0].strip() for line in example.splitlines()
            if "=" in line.split("#")[0]]
    assert sorted(keys) == sorted(f.name for f in dataclasses.fields(RunConfig))
    assert parse_config(example) == RunConfig()


def test_config_format_parse_roundtrip():
    cfg = RunConfig(lr=0.05, channels=(4, 8), depth=2, augment=True, topology="miso",
                    input_modalities=("m1", "m3"), ssim_mode="global")
    assert parse_config(format_config(cfg)) == cfg


def _names(count):
    return st.lists(st.sampled_from(["m1", "m2", "m3", "m4", "t1", "flair"]),
                    min_size=count, max_size=count).map(tuple)


_nonneg = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@st.composite
def _valid_configs(draw):
    depth = draw(st.integers(1, 4))
    topo = Topology(kind=draw(st.sampled_from(["siso", "miso", "mimo"])))
    return RunConfig(
        lambda1=draw(_nonneg), lambda2=draw(_nonneg), lambda3=draw(_nonneg),
        lambda4=draw(_nonneg),
        lr=draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        momentum=draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
        batch_size=draw(st.integers(1, 512)), epochs=draw(st.integers(1, 1000)),
        seed=draw(st.integers(0, 2 ** 32)),
        loss=draw(st.sampled_from(["l2", "weighted_l2", "joint"])),
        topology=topo.kind, depth=depth,
        channels=tuple(draw(st.lists(st.integers(1, 256), min_size=depth, max_size=depth))),
        final_width=draw(st.integers(1, 256)),
        ssim_mode=draw(st.sampled_from(["local", "global"])),
        ssim_window=draw(st.integers(0, 7)) * 2 + 1,
        edge_beta=draw(_nonneg), tv_eps=draw(_nonneg),
        input_modalities=draw(_names(topo.in_arms)),
        output_modalities=draw(_names(topo.out_arms)),
        augment=draw(st.booleans()), shuffle=draw(st.booleans()),
        miso_index_arm=draw(st.integers(0, 1)), mimo_arm_matched_skips=draw(st.booleans()),
        dtype=draw(st.sampled_from(["single", "double"])),
        train_frac=draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True)))


@settings(max_examples=60, deadline=None)
@given(_valid_configs())
def test_config_format_parse_roundtrip_over_valid_configs(cfg):
    assert parse_config(format_config(cfg)) == cfg


def test_topology_and_train_config_from_config():
    cfg = parse_config("topology = miso\ndepth = 2\nchannels = 4,8\n"
                       "final_width = 8\nmiso_index_arm = 1\nlambda3 = 0.1\n"
                       "input_modalities = m1,m3\n")
    topo = topology_from_config(cfg)
    assert topo.kind == "miso" and topo.depth == 2
    assert topo.channels == (4, 8) and topo.miso_index_arm == 1
    tcfg = train_config_from_config(cfg)
    assert tcfg.loss_weights.lambda3 == 0.1
    assert tcfg.ssim.mode == "local" and tcfg.ssim.window == 7


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _ckpt(dtype):
    topo = Topology(kind="siso", depth=2, channels=(4, 6), final_width=4)
    rng = RngStream(1)
    tensors = {
        "param.w": rng.uniform((4, 1, 3, 3), -1, 1, dtype=dtype),
        "param.b": rng.uniform((4,), -1, 1, dtype=dtype),
        "state.rm": rng.uniform((6,), -1, 1, dtype=dtype),
    }
    return Checkpoint(topo, tensors, config_text="lr = 0.05\n")


@pytest.mark.parametrize("dtype", ["single", "double"])
def test_checkpoint_roundtrip_bit_exact(tmp_path, dtype):
    cp = _ckpt(dtype)
    path = str(tmp_path / "a.ckpt")
    save_checkpoint(path, cp)
    back = load_checkpoint(path)
    assert back.topology == cp.topology
    assert back.config_text == cp.config_text
    assert list(back.tensors) == list(cp.tensors)
    for name in cp.tensors:
        assert back.tensors[name].dtype == cp.tensors[name].dtype
        assert np.array_equal(back.tensors[name], cp.tensors[name])


@pytest.mark.parametrize("dtype", ["single", "double"])
def test_loaded_tensors_own_their_data(tmp_path, dtype):
    # an SGD step after --resume updates these arrays in place, so none may
    # be a view of the bytes the file was read into
    path = str(tmp_path / "a.ckpt")
    save_checkpoint(path, _ckpt(dtype))
    for name, t in load_checkpoint(path).tensors.items():
        assert t.base is None and t.flags.owndata and t.flags.writeable, name
        t += 1


def test_checkpoint_save_twice_byte_identical(tmp_path):
    cp = _ckpt("single")
    p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
    save_checkpoint(p1, cp)
    save_checkpoint(p2, cp)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_checkpoint_bad_magic(tmp_path):
    path = str(tmp_path / "bad")
    with open(path, "wb") as f:
        f.write(b"NOTACKPT" + bytes(64))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_error_starts_with_its_path(tmp_path):
    path = str(tmp_path / "bad")
    with open(path, "wb") as f:
        f.write(b"SYNNETCK" + bytes(2))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert str(exc.value) == f"{path}: truncated checkpoint while reading version"


def test_checkpoint_with_trailing_bytes_fails_by_their_count(tmp_path):
    path = str(tmp_path / "t")
    save_checkpoint(path, _ckpt("single"))
    with open(path, "ab") as f:
        f.write(bytes(9))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert str(exc.value) == f"{path}: 9 trailing bytes after the config text"


def test_checkpoint_truncation_names_missing_field(tmp_path):
    path = str(tmp_path / "t")
    save_checkpoint(path, _ckpt("single"))
    raw = open(path, "rb").read()
    with open(path, "wb") as f:
        f.write(raw[:len(raw) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def _corrupt(path, edit):
    raw = bytearray(Path(path).read_bytes())
    edit(raw)
    Path(path).write_bytes(bytes(raw))


def _set_ndim(raw):
    # the first tensor's ndim follows its name length, name and dtype tag
    start = raw.index(b"param.w") + len("param.w") + 1
    raw[start:start + 4] = (33).to_bytes(4, "little")


@pytest.mark.parametrize("edit, field", [
    (lambda raw: raw.__setitem__(raw.index(b"param.w"), 0xFF), "tensor 0 name"),
    (lambda raw: raw.__setitem__(raw.index(b"lr = "), 0xC3), "config text"),
    (_set_ndim, "ndim 33"),
], ids=["name", "config-text", "ndim"])
def test_checkpoint_corrupt_field_is_named(tmp_path, edit, field):
    path = str(tmp_path / "c")
    save_checkpoint(path, _ckpt("single"))
    _corrupt(path, edit)
    with pytest.raises(CheckpointError, match=field):
        load_checkpoint(path)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(min_value=0, max_value=8 * 4096))
def test_checkpoint_single_bit_flip_fails_by_name_or_loads(tmp_path, bit):
    # any other exception fails the test
    path = str(tmp_path / "flip")
    save_checkpoint(path, _ckpt("single"))

    def flip(raw):
        b = bit % (8 * len(raw))
        raw[b // 8] ^= 1 << b % 8

    _corrupt(path, flip)
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


def test_checkpoint_rejects_unsupported_version(tmp_path):
    path = str(tmp_path / "v")
    save_checkpoint(path, _ckpt("single"))
    raw = bytearray(open(path, "rb").read())
    raw[8:12] = (99).to_bytes(4, "little")
    open(path, "wb").write(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_rejects_version_1(tmp_path):
    # v1 kept part of the topology only in the config echo and stored a
    # bias for every block conv
    path = str(tmp_path / "v1")
    save_checkpoint(path, _ckpt("single"))
    raw = bytearray(open(path, "rb").read())
    assert raw[8:12] == (2).to_bytes(4, "little")
    raw[8:12] = (1).to_bytes(4, "little")
    open(path, "wb").write(bytes(raw))
    with pytest.raises(CheckpointError, match="unsupported version 1"):
        load_checkpoint(path)


@pytest.mark.parametrize("topo", [
    Topology(kind="siso", depth=3, channels=(8, 16, 16), final_width=16),
    Topology(kind="miso", depth=2, channels=(4, 6), final_width=8, miso_index_arm=1),
    Topology(kind="mimo", depth=1, channels=(4,), final_width=6, in_channels=2,
             out_channels=3, mimo_arm_matched_skips=True),
], ids=["slim-siso", "miso-arm1", "mimo-matched"])
@pytest.mark.parametrize("echo", ["seed = 1\n", "this echo does not parse\n", ""],
                         ids=["seed-echo", "bad-echo", "no-echo"])
def test_checkpoint_header_carries_the_whole_topology(tmp_path, topo, echo):
    # an echo that omits the topology or does not parse must not change it
    _, params, state = build_model(topo, RngStream(5))
    path = str(tmp_path / "t.ckpt")
    save_checkpoint(path, pack_training(topo, params, state, OptimState(), echo))
    back = load_checkpoint(path)
    assert back.topology == topo
    assert back.config_text == echo
    p2, s2, _ = unpack_training(back, 0.01, 0.9)
    assert all(np.array_equal(p2[n], params[n]) for n in params)
    assert all(np.array_equal(s2[n], state[n]) for n in state)


def test_checkpoint_rejects_topology_the_model_cannot_build(tmp_path):
    path = str(tmp_path / "arm")
    save_checkpoint(path, Checkpoint(Topology(kind="miso", depth=1, channels=(4,)), {}))
    raw = bytearray(open(path, "rb").read())
    # magic, version, kind, depth, channel count, 1 channel, 3 widths
    arm = 8 + 4 + 1 + 4 + 4 + 4 + 12
    assert raw[arm] == 0
    raw[arm] = 2
    open(path, "wb").write(bytes(raw))
    with pytest.raises(CheckpointError, match="bad topology: miso_index_arm"):
        load_checkpoint(path)


def test_checkpoint_rejects_zero_width(tmp_path):
    path = str(tmp_path / "width")
    save_checkpoint(path, Checkpoint(Topology(kind="siso", depth=1, channels=(4,)), {}))
    raw = bytearray(open(path, "rb").read())
    # magic, version, kind, depth, channel count, 1 channel, in and out widths
    final = 8 + 4 + 1 + 4 + 4 + 4 + 8
    assert raw[final:final + 4] == (64).to_bytes(4, "little")
    raw[final:final + 4] = bytes(4)
    open(path, "wb").write(bytes(raw))
    with pytest.raises(CheckpointError, match="bad topology: final_width must be >= 1, got 0"):
        load_checkpoint(path)


def _packed():
    topo = Topology(kind="siso", depth=1, channels=(4,), final_width=4)
    _, params, state = build_model(topo, RngStream(6))
    return pack_training(topo, params, state, OptimState(), "")


def test_check_resume_names_each_differing_key():
    # _ckpt is a single-precision siso checkpoint with channels 4,6 and
    # final_width 4, the config file defaults
    base = "depth = 2\nchannels = 4,6\nfinal_width = 4\n"
    persist.check_resume(parse_config(base), _ckpt("single"), "a.cfg")
    cfg = parse_config(base + "topology = miso\ninput_modalities = m1,m2\n"
                       "dtype = double\nfinal_width = 3\n")
    with pytest.raises(ConfigError) as exc:
        persist.check_resume(cfg, _ckpt("single"), "a.cfg")
    assert str(exc.value) == ("a.cfg: does not match the checkpoint it resumes: "
                              "topology = miso, checkpoint siso; final_width = 3, "
                              "checkpoint 4; dtype = double, checkpoint single")
    cp = _ckpt("single")
    cp.topology = dataclasses.replace(cp.topology, in_channels=3)
    with pytest.raises(ConfigError, match="in_channels = 1, checkpoint 3$"):
        persist.check_resume(parse_config(base), cp, "a.cfg")


def test_unpack_rejects_missing_tensor():
    cp = _packed()
    del cp.tensors["param.head.arm0.conv.weight"]
    with pytest.raises(CheckpointError, match=r"missing tensor param\.head\.arm0\.conv\.weight"):
        unpack_training(cp, 0.01, 0.9)


def test_unpack_rejects_wrong_shape():
    cp = _packed()
    cp.tensors["state.dec.arm0.block0.bn.running_var"] = np.ones(5, np.float32)
    with pytest.raises(CheckpointError,
                       match=r"tensor state\.dec\.arm0\.block0\.bn\.running_var has shape \(5,\)"):
        unpack_training(cp, 0.01, 0.9)


def test_unpack_rejects_block_conv_bias():
    # a block conv bias, as version 1 stored, is not part of the model
    cp = _packed()
    cp.tensors["param.enc.arm0.block0.conv.bias"] = np.zeros(4, np.float32)
    with pytest.raises(CheckpointError,
                       match=r"unexpected tensor param\.enc\.arm0\.block0\.conv\.bias"):
        unpack_training(cp, 0.01, 0.9)


def test_unpack_rejects_missing_optimizer_counter():
    cp = _packed()
    del cp.tensors["optim.epoch"]
    with pytest.raises(CheckpointError, match=r"optim\.epoch"):
        unpack_training(cp, 0.01, 0.9)


@pytest.mark.parametrize("name", ["optim.iteration", "optim.epoch"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -3.0, 2.5], ids=["nan", "inf", "negative", "fraction"])
def test_unpack_rejects_counter_that_is_not_a_whole_number(name, value):
    cp = _packed()
    cp.tensors[name] = np.array([value])
    with pytest.raises(CheckpointError, match=rf"tensor {re.escape(name)} holds"):
        unpack_training(cp, 0.01, 0.9)


def test_pack_unpack_training_roundtrip(tmp_path):
    topo = Topology(kind="siso", depth=1, channels=(4,), final_width=4)
    model, params, state = build_model(topo, RngStream(2), dtype="single")
    opt = OptimState(velocity={n: np.full_like(p, 0.5) for n, p in params.items()},
                     iteration=37, epoch=4, lr=0.01, momentum=0.9)
    cp = pack_training(topo, params, state, opt, "seed = 9\n")
    path = str(tmp_path / "train.ckpt")
    save_checkpoint(path, cp)
    p2, s2, o2 = unpack_training(load_checkpoint(path), lr=0.01, momentum=0.9)
    assert set(p2) == set(params) and set(s2) == set(state)
    for n in params:
        assert np.array_equal(p2[n], params[n])
        assert np.array_equal(o2.velocity[n], opt.velocity[n])
    for n in state:
        assert np.array_equal(s2[n], state[n])
    assert o2.iteration == 37 and o2.epoch == 4


def test_loaded_checkpoint_reproduces_predictions(tmp_path):
    topo = Topology(kind="miso", depth=2, channels=(4, 6), final_width=4,
                    miso_index_arm=1)
    model, params, state = build_model(topo, RngStream(3), dtype="double")
    rng = RngStream(4)
    inputs = [rng.uniform((2, 1, 8, 8), 0, 1, dtype="double") for _ in range(2)]
    before, _ = model.forward(params, state, inputs, mode="infer")

    cfg = RunConfig(topology="miso", depth=2, channels=(4, 6), final_width=4,
                    miso_index_arm=1)
    cp = pack_training(topo, params, state, OptimState(), format_config(cfg))
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, cp)
    loaded = load_checkpoint(path)
    assert loaded.topology.miso_index_arm == 1
    p2, s2, _ = unpack_training(loaded, 0.01, 0.9)
    from synnet.model import SynNetModel
    after, _ = SynNetModel(loaded.topology).forward(p2, s2, inputs, mode="infer")
    assert np.array_equal(before[0], after[0])
