"""Checkpoint serialization and plain-text run configuration.

Checkpoint binary layout (all integers little-endian):
  magic "SYNNETCK" | u32 version=2
  | topology: u8 kind (0 siso, 1 miso, 2 mimo), u32 depth, u32 channel
    count, u32 channels..., u32 in_channels, u32 out_channels,
    u32 final_width, u8 miso_index_arm, u8 mimo_arm_matched_skips
  | u32 tensor count, then per tensor: u32 name length, UTF-8 name,
    u8 dtype (0 single, 1 double), u32 ndim, u32 dims..., raw scalars
  | u32 config-text length, UTF-8 config echo.

The header alone fixes the topology; the config echo carries the run
settings (dtype, optimizer) and is never read for the model's shape.
Version 1 files, which kept part of the topology only in the echo and
stored a bias for every block conv, are rejected.

Checkpoints, like every file synnet writes, are saved by `tensor.write_file`:
written to a temporary file beside the target, then renamed over it.

Config files are `key = value` lines; `#` comments and blank lines are
allowed; unknown keys are rejected. A setting that mirrors a field of a
library class (Topology, TrainConfig, LossWeights, SsimConfig, OptimState)
takes its default from that class, and the class checks its range, so a bad
value fails with the line that set it. Modality names are checked at their
line by `data.canonical_modality`, and their counts against the topology's
arm counts after the last line. An SSIM or TV weight (lambda2,
lambda3) of 0 switches that term off: `joint_loss` does not compute it and
reports it as 0.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, fields as dc_fields, is_dataclass

import numpy as np

from .data import canonical_modality
from .loss import LossWeights, SsimConfig
from .model import TOPOLOGY_KINDS, SynNetModel, Topology
from .optim import OptimState, TrainConfig
from .tensor import DTYPES, ParameterError, write_file

_MAGIC = b"SYNNETCK"
_VERSION = 2
_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPES = {0: np.float32, 1: np.float64}
_MAX_NDIM = 32    # NumPy 1 allows 32 dims; the model's tensors have at most 4


class CheckpointError(ValueError):
    pass


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

def _parse_bool(v: str) -> bool:
    if v.lower() in ("true", "1", "yes"):
        return True
    if v.lower() in ("false", "0", "no"):
        return False
    raise ValueError(v)


def _parse_str_tuple(v: str):
    return tuple(s.strip() for s in v.split(",") if s.strip())


def _parse_int_tuple(v: str):
    return tuple(int(s) for s in v.split(",") if s.strip())


def _owned(owner, attr: str):
    """A RunConfig field mirroring `owner.attr`: it takes that default, and
    `owner` checks its range."""
    return field(default=getattr(owner, attr), metadata={"owner": owner, "attr": attr})


@dataclass
class RunConfig:
    """Flat run settings; each one that mirrors a library class names it once."""
    lambda1: float = _owned(LossWeights, "lambda1")
    lambda2: float = _owned(LossWeights, "lambda2")
    lambda3: float = _owned(LossWeights, "lambda3")
    lambda4: float = _owned(LossWeights, "lambda4")
    lr: float = _owned(OptimState, "lr")
    momentum: float = _owned(OptimState, "momentum")
    batch_size: int = _owned(TrainConfig, "batch_size")
    epochs: int = _owned(TrainConfig, "epochs")
    seed: int = _owned(TrainConfig, "seed")
    loss: str = _owned(TrainConfig, "loss")
    topology: str = _owned(Topology, "kind")
    depth: int = _owned(Topology, "depth")
    channels: tuple = _owned(Topology, "channels")
    final_width: int = _owned(Topology, "final_width")
    ssim_mode: str = _owned(SsimConfig, "mode")
    ssim_window: int = _owned(SsimConfig, "window")
    edge_beta: float = _owned(TrainConfig, "edge_beta")
    tv_eps: float = _owned(TrainConfig, "tv_eps")
    input_modalities: tuple = ("m1",)
    output_modalities: tuple = ("m2",)
    augment: bool = False
    shuffle: bool = _owned(TrainConfig, "shuffle")
    miso_index_arm: int = _owned(Topology, "miso_index_arm")
    mimo_arm_matched_skips: bool = _owned(Topology, "mimo_arm_matched_skips")
    dtype: str = "single"
    train_frac: float = 0.8


_TUPLE_FIELDS = {
    "channels": _parse_int_tuple,
    "input_modalities": _parse_str_tuple,
    "output_modalities": _parse_str_tuple,
}

# modality list -> the Topology property its length must equal
_MODALITY_ARMS = {"input_modalities": "in_arms", "output_modalities": "out_arms"}


def parse_config(text: str) -> RunConfig:
    """Parse `key = value` lines into a RunConfig; missing keys keep defaults.

    Each value is checked at its line by building its owner class from that
    one field; each modality name is checked at its line too. The Topology
    keys must agree with each other (depth and channels), and the modality
    counts with the topology's arm counts, so these are checked once, after
    the last line, and the error names every line that set one of the keys
    involved.
    """
    cfg = RunConfig()
    known = {f.name: f for f in dc_fields(RunConfig)}
    set_at = {}   # key -> the lines that set it
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        current = getattr(cfg, key)
        try:
            if key in _TUPLE_FIELDS:
                parsed = _TUPLE_FIELDS[key](value)
            elif isinstance(current, bool):
                parsed = _parse_bool(value)
            else:
                parsed = type(current)(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: cannot parse value {value!r} for {key!r}")
        if key == "dtype" and parsed not in DTYPES:
            raise ConfigError(f"line {lineno}: dtype must be one of "
                              f"{', '.join(DTYPES)}, got {value!r}")
        if key == "train_frac" and not 0 < parsed <= 1:
            raise ConfigError(f"line {lineno}: train_frac must be in (0, 1], got {value!r}")
        owner = known[key].metadata.get("owner")
        try:
            if key in _MODALITY_ARMS:
                for name in parsed:
                    canonical_modality(name)
            elif owner is not None and owner is not Topology:
                owner(**{known[key].metadata["attr"]: parsed})
        except ParameterError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        set_at.setdefault(key, []).append(lineno)
        setattr(cfg, key, parsed)

    def fail(keys, message):
        lines = sorted(n for k in keys for n in set_at.get(k, ()))
        where = "line" if len(lines) == 1 else "lines"
        raise ConfigError(f"{where} {', '.join(map(str, lines))}: {message}") from None

    # the defaults agree, so a failure below has a line that set a key in it
    try:
        topo = _build(cfg, Topology)
    except ParameterError as exc:
        fail([k for k, f in known.items() if f.metadata.get("owner") is Topology], exc)
    for key, arms in _MODALITY_ARMS.items():
        want, got = getattr(topo, arms), len(getattr(cfg, key))
        if got != want:
            fail(("topology", key), f"{topo.kind} needs {want} {key}, got {got}")
    return cfg


def _value_text(v) -> str:
    """A setting's value as a config line writes it."""
    return ",".join(str(x) for x in v) if isinstance(v, tuple) else str(v)


def format_config(cfg: RunConfig) -> str:
    return "".join(f"{f.name} = {_value_text(getattr(cfg, f.name))}\n"
                   for f in dc_fields(RunConfig))


def _build(cfg: RunConfig, owner):
    """`owner` built from the RunConfig fields that name it; a dataclass
    field of `owner` (TrainConfig's loss weights and SSIM settings) is
    built the same way."""
    kwargs = {f.metadata["attr"]: getattr(cfg, f.name)
              for f in dc_fields(RunConfig) if f.metadata.get("owner") is owner}
    kwargs.update({f.name: _build(cfg, f.default_factory) for f in dc_fields(owner)
                   if is_dataclass(f.default_factory)})
    return owner(**kwargs)


def topology_from_config(cfg: RunConfig) -> Topology:
    return _build(cfg, Topology)


def train_config_from_config(cfg: RunConfig) -> TrainConfig:
    return _build(cfg, TrainConfig)


# ---------------------------------------------------------------------------
# checkpoint
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    topology: Topology
    tensors: dict              # ordered name -> ndarray
    config_text: str = ""
    version: int = _VERSION


def save_checkpoint(path: str, cp: Checkpoint):
    t = cp.topology
    out = bytearray()
    out += _MAGIC
    out += struct.pack("<I", _VERSION)
    out += struct.pack("<B", TOPOLOGY_KINDS.index(t.kind))
    out += struct.pack("<I", t.depth)
    out += struct.pack("<I", len(t.channels))
    out += struct.pack(f"<{len(t.channels)}I", *t.channels)
    out += struct.pack("<3I", t.in_channels, t.out_channels, t.final_width)
    out += struct.pack("<2B", t.miso_index_arm, t.mimo_arm_matched_skips)
    out += struct.pack("<I", len(cp.tensors))
    for name, arr in cp.tensors.items():
        if arr.dtype not in _DTYPE_TAGS:
            raise CheckpointError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
        nb = name.encode()
        out += struct.pack("<I", len(nb)) + nb
        out += struct.pack("<B", _DTYPE_TAGS[arr.dtype])
        out += struct.pack("<I", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes()
    cb = cp.config_text.encode()
    out += struct.pack("<I", len(cb)) + cb
    write_file(path, out)


class _Reader:
    """Reads fields in order from a checkpoint's bytes, through a memoryview
    so that a taken slice is not a copy."""

    def __init__(self, raw: bytes):
        self.raw = memoryview(raw)
        self.pos = 0

    def take(self, n: int, what: str) -> memoryview:
        if self.pos + n > len(self.raw):
            raise CheckpointError(f"truncated checkpoint while reading {what}")
        b = self.raw[self.pos:self.pos + n]
        self.pos += n
        return b

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def text(self, n: int, what: str) -> str:
        try:
            return bytes(self.take(n, what)).decode()
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{what} is not UTF-8: {exc.reason} at byte {exc.start}") from None


def load_checkpoint(path: str) -> Checkpoint:
    """The checkpoint at `path`; its CheckpointErrors start with the path."""
    with open(path, "rb") as f:
        r = _Reader(f.read())
    try:
        return _parse_checkpoint(r)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


def _parse_checkpoint(r: _Reader) -> Checkpoint:
    if r.take(8, "magic") != _MAGIC:
        raise CheckpointError("bad magic")
    version = r.u32("version")
    if version != _VERSION:
        raise CheckpointError(f"unsupported version {version}")
    kind_tag = r.u8("topology kind")
    if kind_tag >= len(TOPOLOGY_KINDS):
        raise CheckpointError(f"bad topology kind tag {kind_tag}")
    depth = r.u32("depth")
    n_ch = r.u32("channel count")
    channels = struct.unpack(f"<{n_ch}I", r.take(4 * n_ch, "channels"))
    in_c, out_c, final_width = struct.unpack("<3I", r.take(12, "topology widths"))
    miso_arm, matched = r.take(2, "topology flags")
    try:
        topo = Topology(kind=TOPOLOGY_KINDS[kind_tag], depth=depth, channels=channels,
                        in_channels=in_c, out_channels=out_c, final_width=final_width,
                        miso_index_arm=miso_arm, mimo_arm_matched_skips=bool(matched))
    except ParameterError as exc:
        raise CheckpointError(f"bad topology: {exc}") from None
    count = r.u32("tensor count")
    tensors = {}
    for i in range(count):
        nlen = r.u32(f"tensor {i} name length")
        name = r.text(nlen, f"tensor {i} name")
        tag = r.u8(f"tensor {name!r} dtype")
        if tag not in _TAG_DTYPES:
            raise CheckpointError(f"tensor {name!r}: bad dtype tag {tag}")
        ndim = r.u32(f"tensor {name!r} ndim")
        if ndim > _MAX_NDIM:
            raise CheckpointError(f"tensor {name!r}: ndim {ndim} is above {_MAX_NDIM}")
        dims = struct.unpack(f"<{ndim}I", r.take(4 * ndim, f"tensor {name!r} dims"))
        dtype = np.dtype(_TAG_DTYPES[tag]).newbyteorder("<")
        # exact integers: a product of corrupt dims must not wrap around
        arr = np.frombuffer(r.take(math.prod(dims) * dtype.itemsize, f"tensor {name!r} data"),
                            dtype=dtype)
        try:
            arr = arr.reshape(dims)
        except ValueError as exc:    # no data, but dims too large for NumPy
            raise CheckpointError(f"tensor {name!r}: dims {dims}: {exc}") from None
        # astype copies, so the tensor owns its data, apart from the file bytes
        tensors[name] = arr.astype(_TAG_DTYPES[tag])
    clen = r.u32("config length")
    config_text = r.text(clen, "config text")
    trailing = len(r.raw) - r.pos
    if trailing:
        raise CheckpointError(f"{trailing} trailing bytes after the config text")
    return Checkpoint(topo, tensors, config_text, version)


# ---------------------------------------------------------------------------
# packing training state into checkpoint tensors
# ---------------------------------------------------------------------------

def pack_training(topology: Topology, params, state, opt_state: OptimState,
                  config_text: str) -> Checkpoint:
    tensors = {}
    for name, arr in params.items():
        tensors[f"param.{name}"] = arr
    for name, arr in state.items():
        tensors[f"state.{name}"] = arr
    for name, arr in opt_state.velocity.items():
        tensors[f"velocity.{name}"] = arr
    tensors["optim.iteration"] = np.array([opt_state.iteration], dtype=np.float64)
    tensors["optim.epoch"] = np.array([opt_state.epoch], dtype=np.float64)
    return Checkpoint(topology, tensors, config_text)


def check_resume(cfg: RunConfig, cp: Checkpoint, path: str):
    """Raise ConfigError naming the config file `path`, each differing key and
    both values, unless `cfg` has the topology and dtype of the checkpoint `cp`."""
    keys = {f.metadata["attr"]: f.name for f in dc_fields(RunConfig)
            if f.metadata.get("owner") is Topology}
    topo = topology_from_config(cfg)
    diffs = [(keys.get(f.name, f.name), getattr(topo, f.name), getattr(cp.topology, f.name))
             for f in dc_fields(Topology) if getattr(topo, f.name) != getattr(cp.topology, f.name)]
    names = {np.dtype(t): name for name, t in DTYPES.items()}
    stored = ",".join(sorted({names[a.dtype] for n, a in cp.tensors.items()
                              if n.startswith("param.")}))
    if stored not in ("", cfg.dtype):
        diffs.append(("dtype", cfg.dtype, stored))
    if diffs:
        raise ConfigError(f"{path}: does not match the checkpoint it resumes: " + "; ".join(
            f"{key} = {_value_text(mine)}, checkpoint {_value_text(theirs)}"
            for key, mine, theirs in diffs))


def _check_tensors(group: str, got: dict, want: dict):
    """Raise CheckpointError naming the first tensor that is missing, has
    the wrong shape, or is not expected."""
    for name, shape in want.items():
        if name not in got:
            raise CheckpointError(f"missing tensor {group}.{name}")
        if got[name].shape != shape:
            raise CheckpointError(f"tensor {group}.{name} has shape {got[name].shape}, "
                                  f"the topology needs {shape}")
    for name in got:
        if name not in want:
            raise CheckpointError(f"unexpected tensor {group}.{name}")


def unpack_training(cp: Checkpoint, lr: float, momentum: float):
    """(params, state, opt_state) from a packed checkpoint, checked against
    the tensors its topology needs."""
    counters = ("optim.iteration", "optim.epoch")
    params, state, velocity = {}, {}, {}
    for name, arr in cp.tensors.items():
        if name.startswith("param."):
            params[name[len("param."):]] = arr
        elif name.startswith("state."):
            state[name[len("state."):]] = arr
        elif name.startswith("velocity."):
            velocity[name[len("velocity."):]] = arr
        elif name not in counters:
            raise CheckpointError(f"unexpected tensor {name}")
    model = SynNetModel(cp.topology)
    param_shapes = model.param_shapes()
    _check_tensors("param", params, param_shapes)
    _check_tensors("state", state, model.state_shapes())
    if velocity:  # empty until the first SGD step
        _check_tensors("velocity", velocity, param_shapes)
    iteration, epoch = (_counter(cp.tensors, name) for name in counters)
    opt = OptimState(velocity=velocity, iteration=iteration, epoch=epoch,
                     lr=lr, momentum=momentum)
    return params, state, opt


def _counter(tensors: dict, name: str) -> int:
    """The whole number >= 0 held by the one-element tensor `name`."""
    t = tensors.get(name, np.empty(0))
    if t.shape != (1,):
        raise CheckpointError(f"missing or malformed tensor {name}")
    v = float(t[0])
    if not (v >= 0 and v.is_integer()):     # also false for NaN and inf
        raise CheckpointError(f"tensor {name} holds {v!r}, not a whole number >= 0")
    return int(v)
