"""In-memory span tracing around calls into synnet's public functions.

The tracer wraps the public functions of the traced modules (and the
public methods of the classes they define) by replacing module and class
attributes. synnet looks these up by attribute at call time
(`layers.conv2d_forward`, `loss_mod.joint_loss`, `model.forward`, ...), so
the wrappers see every call without any change to the program. Names a
module imported by value (`tensor.check_tensor` inside `layers`) are not
wrapped; their cost stays in the caller's self time.

A span is (name, start, end, parent, op, flops): `parent` is the index of
the enclosing span (-1 at the root), `op` the index of the benchmark
operation it belongs to, `flops` the arithmetic a convolution call does.
Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import json
import time

import numpy as np

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, op, flops]
        self._stack = []
        self._patches = []       # (owner, attr, original), in install order
        self.op = -1
        self.tape_bytes = []     # one entry per train-mode forward

    # -- spans ----------------------------------------------------------------

    def _open(self, name, flops=0.0):
        parent = self._stack[-1] if self._stack else NO_PARENT
        span = [name, time.perf_counter(), 0.0, parent, self.op, flops]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def begin_op(self, kind):
        """Root span of benchmark operation number `self.op + 1`."""
        self.op += 1
        span = self._open(f"op.{kind}")
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name, classify=None, after=None):
        """Return `fn` wrapped in a span called `name`.

        `classify(args) -> (suffix, flops)` refines the name per call;
        `after(result, args)` runs once the call returns, inside a
        `trace.hook` span so its time is not charged to the caller.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label, flops = name, 0.0
            if classify is not None:
                suffix, flops = classify(args)
                label = f"{name}.{suffix}"
            span = self._open(label, flops)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                hook = self._open("trace.hook")
                try:
                    after(result, args)
                finally:
                    self._close(hook)
            return result

        return traced

    # -- installing and removing wrappers ------------------------------------

    def patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, modules, special=None):
        """Wrap every public function and public method defined in `modules`.

        `modules` maps a short prefix ("layers") to the module object;
        `special` maps a full span name to `(classify, after)` hooks.
        """
        special = special or {}
        for prefix, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{prefix}.{attr}"
                    self.patch(mod, attr, self.wrap(obj, name, *special.get(name, (None, None))))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for mattr, meth in list(vars(obj).items()):
                        if mattr.startswith("_") or not inspect.isfunction(meth):
                            continue
                        name = f"{prefix}.{attr}.{mattr}"
                        self.patch(obj, mattr, self.wrap(meth, name, *special.get(name, (None, None))))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "flops"],
                       "spans": self.spans}, f)


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def self_times(spans):
    """Per-span self time: duration minus the part its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] != NO_PARENT:
            children[s[3]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[1], s[2]
        covered, reach = 0.0, start
        for j in sorted(children[i], key=lambda j: spans[j][1]):
            lo, hi = max(spans[j][1], reach), min(spans[j][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


# ---------------------------------------------------------------------------
# convolution classification and tape memory
# ---------------------------------------------------------------------------

def conv_kind(weight_shape):
    """stem: 3x3 on a one-channel image; pointwise: 1x1; body: other 3x3."""
    in_c, k = weight_shape[1], weight_shape[2]
    if k == 1:
        return "pointwise"
    return "stem" if in_c == 1 else "body"


def conv_flops(x_shape, weight_shape):
    n, _, h, w = x_shape
    out_c, in_c, kh, kw = weight_shape
    return 2.0 * n * h * w * out_c * in_c * kh * kw


def classify_conv_forward(args):
    try:
        x, w = args[0], args[1]
        return conv_kind(w.shape), conv_flops(x.shape, w.shape)
    except (AttributeError, IndexError, TypeError, ValueError):
        return "other", 0.0


def classify_conv_backward(args):
    # weight gradient and input gradient each cost one forward's arithmetic
    try:
        tape = args[0]
        w = tape.weights
        return conv_kind(w.shape), 2.0 * conv_flops(tape.in_shape, w.shape)
    except (AttributeError, IndexError, TypeError, ValueError):
        return "other", 0.0


def _root(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def tape_arrays(trace, params):
    """Distinct array buffers a forward trace keeps alive, by id.

    Views are followed to the buffer they keep alive; buffers that belong
    to a parameter (referenced by conv and batchnorm tapes) are skipped.
    """
    skip = {id(_root(p)) for p in params.values()}
    found, seen = {}, set()

    def visit(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            root = _root(obj)
            if id(root) not in skip:
                found[id(root)] = root
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            for f in dataclasses.fields(obj):
                visit(getattr(obj, f.name))
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                visit(item)
        elif isinstance(obj, dict):
            for item in obj.values():
                visit(item)

    visit(trace)
    return found


def tape_bytes(trace, params):
    return sum(a.nbytes for a in tape_arrays(trace, params).values())


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# metric -> span names whose self time it sums. Every span name belongs to
# at most one metric, so the metrics partition the traced time.
SELF_TIME_METRICS = {
    **{f"layers.conv_{d}_ms.{kind}": [f"layers.conv2d_{full}.{kind}"]
       for d, full in (("fwd", "forward"), ("bwd", "backward"))
       for kind in ("stem", "body", "pointwise")},
    "layers.bn_fwd_ms": ["layers.batchnorm_forward"],
    "layers.bn_bwd_ms": ["layers.batchnorm_backward"],
    "layers.relu_fwd_ms": ["layers.relu_forward"],
    "layers.relu_bwd_ms": ["layers.relu_backward"],
    "layers.pool_fwd_ms": ["layers.maxpool2x2_forward"],
    "layers.pool_bwd_ms": ["layers.maxpool2x2_backward"],
    "layers.unpool_fwd_ms": ["layers.unpool2x2_forward"],
    "layers.unpool_bwd_ms": ["layers.unpool2x2_backward"],
    "model.forward_self_ms": ["model.SynNetModel.forward"],
    "model.backward_self_ms": ["model.SynNetModel.backward"],
    "loss.joint_ms": ["loss.joint_loss", "loss.l2_loss", "loss.weight_decay"],
    "loss.ssim_ms": ["loss.ssim_loss", "loss.ssim_map"],
    "loss.edge_map_ms": ["loss.edge_weight_map", "loss.sobel_magnitude"],
    "loss.tv_ms": ["loss.tv_loss"],
    "optim.sgd_ms": ["optim.sgd_step"],
    "optim.loop_self_ms": ["optim.train"],
    "data.augment_ms": ["data.augment", "data.draw_transform",
                        "data.apply_transform", "data.bilinear_resize"],
    "metrics.ssim_ms": ["metrics.ssim_standard", "metrics.gaussian_kernel"],
    "metrics.psnr_ms": ["metrics.psnr"],
    "data.pgm_load_ms": ["data.load_pgm"],
    "data.pgm_save_ms": ["data.save_pgm"],
    "persist.ckpt_load_ms": ["persist.load_checkpoint", "persist.parse_config",
                             "persist.unpack_training"],
}


def layer_metrics(spans, n_ops):
    """Self time per operation (ms) for each metric above, plus conv counts.

    `cli.self_ms` sums every `cli.*` span; `layers.conv_calls` counts conv
    forward and backward calls per operation; `layers.conv_gflop_per_s`
    divides the arithmetic of every conv call by their summed self time.
    """
    own = self_times(spans)
    by_name = {}
    for s, t in zip(spans, own):
        by_name[s[0]] = by_name.get(s[0], 0.0) + t
    out = {m: 1e3 * sum(by_name.get(n, 0.0) for n in names) / n_ops
           for m, names in SELF_TIME_METRICS.items()}
    out["cli.self_ms"] = 1e3 * sum(t for n, t in by_name.items()
                                   if n.startswith("cli.")) / n_ops
    conv = [(s[5], t) for s, t in zip(spans, own)
            if s[0].startswith(("layers.conv2d_forward.", "layers.conv2d_backward."))]
    out["layers.conv_calls"] = len(conv) / n_ops
    conv_s = sum(t for _, t in conv)
    out["layers.conv_gflop_per_s"] = (sum(f for f, _ in conv) / conv_s / 1e9
                                      if conv_s > 0 else 0.0)
    return out
