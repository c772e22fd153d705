"""SynNet graph assembly: encoder arms, decoder arms, synthesis heads.

Image size:     any h x w. The forward zero-pads every input arm to a
                multiple of 2^depth (`data.pad_to_multiple`), so that each
                pool halves an even size, and crops every prediction back to
                h x w (`data.crop_back`); the backward zero-pads each
                prediction gradient back onto the padded frame.
Block:          conv3x3 -> batchnorm -> ReLU, every one run by `_block`
                in both modes, where `layers.batchnorm_forward` includes
                the ReLU and centres the conv output in place; at inference
                batchnorm is folded into the conv (`layers.batchnorm_fold`).
Encoder stage:  block -> maxpool2x2 (argmax offsets kept).
Decoder stage:  unpool (matched encoder offsets) -> concat matched encoder
                pre-pool feature maps -> block.  `_decoder_input` writes the
                unpool and the skip maps straight into the block conv's
                zero-padded input buffer (`layers.zero_padded`).  In
                training each skip map is rebuilt there from its encoder
                block's batchnorm tape, so the encoder frees its output once
                pooled; at inference each is freed after its copy into the
                last decoder arm that reads it.
Synthesis head: conv1x1 with bias, linear output.

Trace:          per block, its conv tape and batchnorm tape (x_hat, gamma,
                beta; no ReLU mask); per pool, its uint8 argmax offsets,
                which the matched decoder's entry shares; per fuse conv,
                its input.  An encoder block's conv tape keeps its padded
                input.  A decoder block's and a head's conv tape keep
                none, since the backward rebuilds each bit for bit just
                before its conv backward: a decoder input by `_decoder_input`
                from the unpool source, which the decoder tape keeps (a
                quarter of the unpooled size), and the skip maps, each
                max(x_hat*gamma + beta, 0) of its encoder block's batchnorm
                tape (`layers.batchnorm_output`); a head's input from the
                last decoder block's batchnorm tape, before that block's
                backward writes over its x_hat.  This is the
                recompute-instead-of-store trade of Chen et al. (2016,
                arXiv:1604.06174).  `backward` pops each tape as it goes
                and each layer backward consumes its tape, so a trace is
                used once and the backward frees the tape behind it.  A
                block's 3x3 conv backward writes its input gradient over
                the padded input it was handed (kept or rebuilt), so the
                backward copies each decoder block's skip gradients out of
                that buffer, which is freed once the unpool gradient has
                been gathered from it.

Buffers:        in train mode every large array of the forward and the
                backward, tapes and the backward's transients alike, is a
                block of the model's `layers.Workspace` (`self.workspace`),
                made empty with the model and freed with it.  A block goes
                back to the workspace once the last array that references
                it is gone, and the next request of any size takes its
                place, later in the step or in the next one.  The
                predictions, which outlive the step, the concatenated
                bottlenecks and the parameter gradients are NumPy's.  Infer
                mode uses no workspace, since `predict` builds a model per
                call.

Block convs have no bias: batchnorm subtracts the per-channel mean, so a
bias in front of it has an exactly zero gradient and never learns. The
head and fuse convs keep theirs.

Topologies:
  SISO  1 encoder arm, 1 decoder arm.
  MISO  2 encoder arms; bottlenecks concatenated and reduced by a 1x1 conv,
        one decoder arm whose skips concatenate both arms' matched maps.
  MIMO  2 encoder arms (shared trunk), 2 decoder arms; each decoder starts
        from its own 1x1 fusion of both bottlenecks and by default receives
        skips from both encoders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data, layers
from .tensor import RngStream, ShapeError, ParameterError, UsageError, DTYPES, check_tensor


TOPOLOGY_KINDS = ("siso", "miso", "mimo")


@dataclass
class Topology:
    kind: str = "siso"                     # one of TOPOLOGY_KINDS
    depth: int = 3
    channels: tuple = (32, 64, 64)
    in_channels: int = 1                   # channels per input image
    out_channels: int = 1                  # channels per synthesized image
    final_width: int = 64                  # feature width fed to each head
    miso_index_arm: int = 0                # whose pool indices drive the MISO decoder
    mimo_arm_matched_skips: bool = False   # True: decoder d only sees encoder d's skips

    def __post_init__(self):
        self.channels = tuple(int(c) for c in self.channels)
        if self.kind not in TOPOLOGY_KINDS:
            raise ParameterError(f"topology must be one of {', '.join(TOPOLOGY_KINDS)}, "
                                 f"got {self.kind!r}")
        for name in ("depth", "in_channels", "out_channels", "final_width"):
            if not getattr(self, name) >= 1:
                raise ParameterError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if len(self.channels) != self.depth:
            raise ParameterError(
                f"channels list length {len(self.channels)} != depth {self.depth}"
            )
        if min(self.channels) < 1:
            raise ParameterError(f"channels must be >= 1, got {self.channels}")
        if self.miso_index_arm not in (0, 1):
            raise ParameterError(f"miso_index_arm must be 0 or 1, got {self.miso_index_arm!r}")

    @property
    def in_arms(self) -> int:
        return 1 if self.kind == "siso" else 2

    @property
    def out_arms(self) -> int:
        return 2 if self.kind == "mimo" else 1

    def decoder_width(self, level: int) -> int:
        # stage `level` feeds the unpool at level-1, whose stored indices
        # have channels[level-1] channels; the last stage emits final_width
        return self.channels[level - 1] if level > 0 else self.final_width

    def skip_arms(self, dec_arm: int) -> list[int]:
        if self.kind == "siso":
            return [0]
        if self.kind == "mimo" and self.mimo_arm_matched_skips:
            return [dec_arm]
        return [0, 1]

    def index_arm(self, dec_arm: int) -> int:
        if self.kind == "siso":
            return 0
        if self.kind == "miso":
            return self.miso_index_arm
        return dec_arm


@dataclass
class ForwardTrace:
    """Tapes of one train-mode forward; `backward` pops them, so it is used once."""
    enc_tapes: list          # [arm][level] -> (block tapes, pool offsets)
    fuse_tapes: list         # per decoder arm (or [None] for siso)
    dec_tapes: list          # [arm][k] -> (unpool source, pool offsets, split, block tapes)
    head_tapes: list
    crop: data.CropRecord    # where the predictions sit in the padded frame
    consumed: bool = False


class SynNetModel:
    """Assembled computation graph; parameters live in an external ParamSet."""

    def __init__(self, topology: Topology):
        self.topology = topology
        # the large buffers of train-mode forwards and backwards
        self.workspace = layers.Workspace()

    # -- parameter construction -------------------------------------------

    def param_shapes(self):
        """Ordered (name -> shape) map of every learnable tensor."""
        t = self.topology
        shapes = {}

        def add_pointwise(prefix, out_c, in_c):
            shapes[f"{prefix}.conv.weight"] = (out_c, in_c, 1, 1)
            shapes[f"{prefix}.conv.bias"] = (out_c,)

        def add_block(prefix, out_c, in_c):
            shapes[f"{prefix}.conv.weight"] = (out_c, in_c, 3, 3)
            shapes[f"{prefix}.bn.gamma"] = (out_c,)
            shapes[f"{prefix}.bn.beta"] = (out_c,)

        for a in range(t.in_arms):
            in_c = t.in_channels
            for i in range(t.depth):
                add_block(f"enc.arm{a}.block{i}", t.channels[i], in_c)
                in_c = t.channels[i]
        bott = t.channels[-1]
        if t.kind == "miso":
            add_pointwise("fuse", bott, 2 * bott)
        elif t.kind == "mimo":
            for d in range(t.out_arms):
                add_pointwise(f"fuse.arm{d}", bott, 2 * bott)
        for d in range(t.out_arms):
            prev_c = bott
            for i in reversed(range(t.depth)):
                skip_c = len(t.skip_arms(d)) * t.channels[i]
                out_c = t.decoder_width(i)
                add_block(f"dec.arm{d}.block{i}", out_c, prev_c + skip_c)
                prev_c = out_c
            add_pointwise(f"head.arm{d}", t.out_channels, t.final_width)
        return shapes

    def state_shapes(self):
        """Ordered (name -> shape) map of the batchnorm running statistics."""
        shapes = {}
        for name, shape in self.param_shapes().items():
            if name.endswith("bn.gamma"):
                prefix = name[: -len(".gamma")]
                shapes[f"{prefix}.running_mean"] = shape
                shapes[f"{prefix}.running_var"] = shape
        return shapes

    def init_params(self, rng: RngStream, dtype: str = "single"):
        """Fresh (params, state): uniform conv weights, identity batchnorm."""
        np_dtype = DTYPES[dtype]
        params = {}
        for name, shape in self.param_shapes().items():
            if name.endswith("conv.weight"):
                _, in_c, kh, kw = shape
                s = float(np.sqrt(1.0 / (in_c * kh * kw)))
                params[name] = rng.uniform(shape, -s, s, dtype=dtype)
            elif name.endswith("bn.gamma"):
                params[name] = np.ones(shape, dtype=np_dtype)
            else:  # conv bias, bn beta
                params[name] = np.zeros(shape, dtype=np_dtype)
        state = {}
        for name, shape in self.state_shapes().items():
            fill = np.ones if name.endswith("running_var") else np.zeros
            state[name] = fill(shape, dtype=np_dtype)
        return params, state

    # -- forward ------------------------------------------------------------

    def forward(self, params, state, inputs, mode="train"):
        """Whole-graph forward. Returns (predictions, trace).

        `inputs` is a list of (n, in_channels, h, w) tensors, one per arm,
        all of one (n, h, w) for any h and w; each prediction is
        (n, out_channels, h, w). Train mode updates batchnorm running
        statistics in `state` and returns a trace for `backward`; infer mode
        folds batchnorm into the block convs and keeps no tapes (trace is
        None).
        """
        t = self.topology
        if mode not in ("train", "infer"):
            raise ParameterError(f"unknown mode {mode!r}")
        if len(inputs) != t.in_arms:
            raise UsageError(
                f"{t.kind} expects {t.in_arms} input(s), got {len(inputs)}")
        # the one finiteness scan of a forward; the layers only check shapes
        for a, x in enumerate(inputs):
            check_tensor(x, f"input {a}")
        sizes = [(x.shape[0], *x.shape[2:]) for x in inputs]
        if len(set(sizes)) > 1:
            raise ShapeError(f"input arms must share one (n, h, w), got {sizes}")
        padded = [data.pad_to_multiple(x, 2 ** t.depth) for x in inputs]
        crop = padded[0][1]
        keep = mode == "train"
        ws = self.workspace if keep else None

        enc_tapes, skips, bottlenecks = [], [], []
        for a in range(t.in_arms):
            flat, x = None, padded[a][0]
            arm_tapes, arm_skips = [], []
            for i in range(t.depth):
                x, bt = _block(params, state, f"enc.arm{a}.block{i}", lambda: (flat, x), ws)
                # in training the decoders rebuild the skip map from the tape,
                # as the backward does, so the output is freed once pooled
                arm_skips.append(x if bt is None else bt[1])
                flat, out = None, None
                if ws is not None and i < t.depth - 1:
                    # pooled straight into the next block's zero-padded input
                    n, c, h, w = x.shape
                    flat, out = layers.zero_padded((n, c, h // 2, w // 2), 3, x.dtype, ws)
                x, offsets = layers.maxpool2x2_forward(x, out=out, ws=ws)
                del out
                arm_tapes.append((bt, offsets))     # bt is None in infer mode
            enc_tapes.append(arm_tapes)
            skips.append(arm_skips)
            bottlenecks.append(x)

        fuse_tapes, dec_tapes, head_tapes, preds = [], [], [], []
        # the decoder arm that copies each encoder arm's skip maps last
        last_reader = {a: d for d in range(t.out_arms) for a in t.skip_arms(d)}
        for d in range(t.out_arms):
            if t.kind == "siso":
                x, ft = bottlenecks[0], None
            else:
                name = "fuse" if t.kind == "miso" else f"fuse.arm{d}"
                cat = np.concatenate(bottlenecks, axis=1)
                x, ft = layers.conv2d_forward(
                    cat, params[f"{name}.conv.weight"], params[f"{name}.conv.bias"], ws=ws)
            fuse_tapes.append(ft if keep else None)

            arm_dec = []
            iarm = t.index_arm(d)
            for i in reversed(range(t.depth)):
                offsets = enc_tapes[iarm][i][1]
                split = [offsets.shape[1]] + [t.channels[i]] * len(t.skip_arms(d))

                def conv_input():
                    maps = [skips[a][i] for a in t.skip_arms(d)]
                    for a in t.skip_arms(d):
                        if last_reader[a] == d:
                            skips[a][i] = None   # copied for the last time: free it
                    return _decoder_input(x, offsets, maps, split, ws)

                # a kept output is taken before the input buffer, so that the
                # input, freed once convolved, leaves no hole below it; but
                # the last block's after, as the backward rebuilds that
                # block's input, a little larger, over the output's place
                out = None
                if ws is not None and i > 0:
                    n, _, hh, ww = offsets.shape
                    out = ws.empty((t.decoder_width(i), n, 2 * hh, 2 * ww),
                                   x.dtype).transpose(1, 0, 2, 3)
                # the backward rebuilds the input, so the tape keeps none
                y, bt = _block(params, state, f"dec.arm{d}.block{i}", conv_input, ws,
                               keep_input=False, out=out)
                del out
                arm_dec.append((x, offsets, split, bt) if keep else None)
                x = y
            dec_tapes.append(arm_dec)

            # the backward rebuilds the head's input from the last block's
            # tape; the prediction outlives the step, so it is not in `ws`
            n, _, h, w = x.shape
            y, ht = layers.conv2d_forward(
                x, params[f"head.arm{d}.conv.weight"], params[f"head.arm{d}.conv.bias"],
                keep_input=False, ws=ws,
                out=np.empty((t.out_channels, n, h, w), x.dtype).transpose(1, 0, 2, 3))
            del x
            preds.append(data.crop_back(y, crop))
            head_tapes.append(ht if keep else None)

        if not keep:
            return preds, None
        return preds, ForwardTrace(enc_tapes, fuse_tapes, dec_tapes, head_tapes, crop)

    def nonfinite_layer(self, trace: ForwardTrace, preds):
        """Where a train-mode forward first went non-finite: the first block,
        in forward order, whose batchnorm x_hat on `trace` holds a non-finite
        value, else the first head whose prediction does; None if none does.
        It scans the whole tape, so call it once a prediction is found
        non-finite, before the backward."""
        t = self.topology
        if trace is None or trace.consumed:
            raise UsageError("nonfinite_layer needs a fresh train-mode trace")
        for a in range(t.in_arms):
            for i, ((_, bt), _) in enumerate(trace.enc_tapes[a]):
                if not np.isfinite(bt.x_hat).all():
                    return f"enc.arm{a}.block{i}"
        for d in range(t.out_arms):
            for i, (_, _, _, (_, bt)) in zip(reversed(range(t.depth)), trace.dec_tapes[d]):
                if not np.isfinite(bt.x_hat).all():
                    return f"dec.arm{d}.block{i}"
            if not np.isfinite(preds[d]).all():
                return f"head.arm{d}"
        return None

    # -- backward -----------------------------------------------------------

    def backward(self, params, trace: ForwardTrace, grad_preds):
        """Whole-graph backward; returns gradients for every ParamSet entry."""
        t = self.topology
        if trace is None or trace.consumed:
            raise UsageError("backward needs a fresh train-mode trace")
        trace.consumed = True
        if len(grad_preds) != t.out_arms:
            raise UsageError(
                f"expected {t.out_arms} prediction gradient(s), got {len(grad_preds)}")

        ws = self.workspace
        grads = {name: np.zeros(p.shape, dtype=p.dtype) for name, p in params.items()}
        # skip_grads[a][i] accumulates decoder-side gradient into encoder maps
        skip_grads = [[None] * t.depth for _ in range(t.in_arms)]
        bott_grads = [None] * t.in_arms

        def add(name, g):
            grads[name] += g.astype(grads[name].dtype)

        def acc(store, key, g):
            store[key] = g if store[key] is None else store[key] + g

        # popping each tape frees it as the backward goes; a block's incoming
        # gradient is handed over on its tape stack, so that this frame does
        # not keep it alive through `_block_backward`
        for d in range(t.out_arms):
            g, crop = data.pad_to_multiple(grad_preds[d], 2 ** t.depth)
            if crop != trace.crop:
                raise ShapeError(f"prediction gradient {d} is {crop.height}x{crop.width}, "
                                 f"the predictions are {trace.crop.height}x{trace.crop.width}")
            # the head's input is the last block's output, rebuilt before that
            # block's batchnorm backward writes over its x_hat
            ht = trace.head_tapes.pop(0)
            _, _, _, (_, last_bn) = trace.dec_tapes[d][-1]
            x = layers.batchnorm_output(last_bn, ws=ws)
            ht.x_flat = x.reshape(x.shape[0], x.shape[1], -1)
            del x
            g, gw, gb = layers.conv2d_backward(ht, g, ws=ws)
            add(f"head.arm{d}.conv.weight", gw)
            add(f"head.arm{d}.conv.bias", gb)

            for i in range(t.depth):  # reverse of forward order
                src, offsets, split, tapes = trace.dec_tapes[d].pop()
                # the skip maps are rebuilt from the encoder blocks' tapes
                skip_tapes = [trace.enc_tapes[a][i][0][1] for a in t.skip_arms(d)]
                tapes.append(g)
                del g
                g = _block_backward(
                    tapes, add, f"dec.arm{d}.block{i}", ws,
                    conv_input=lambda: _decoder_input(src, offsets, skip_tapes, split, ws))
                # split concat gradient: unpooled path first, then skip maps.
                # g is the interior of the conv's padded input buffer, so each
                # skip gradient is copied (or summed) out, and no view keeps
                # that buffer alive until the encoder block that takes it
                up, *skips = np.split(g, np.cumsum(split)[:-1], axis=1)
                for a, piece in zip(t.skip_arms(d), skips):
                    if skip_grads[a][i] is None:
                        skip_grads[a][i] = ws.empty(piece.shape, piece.dtype)
                        np.copyto(skip_grads[a][i], piece)
                    else:
                        skip_grads[a][i] += piece
                g = layers.unpool2x2_backward(offsets, up, ws=ws)
                del up, skips, piece

            fuse_tape = trace.fuse_tapes.pop(0)
            if t.kind == "siso":
                acc(bott_grads, 0, g)
            else:
                name = "fuse" if t.kind == "miso" else f"fuse.arm{d}"
                g, gw, gb = layers.conv2d_backward(fuse_tape, g, ws=ws)
                add(f"{name}.conv.weight", gw)
                add(f"{name}.conv.bias", gb)
                cb = t.channels[-1]
                for a in range(t.in_arms):
                    acc(bott_grads, a, g[:, a * cb:(a + 1) * cb])

        for a in range(t.in_arms):
            g = bott_grads[a]
            for i in reversed(range(t.depth)):
                tapes, offsets = trace.enc_tapes[a].pop()
                g = layers.maxpool2x2_backward(offsets, g, ws=ws)
                if skip_grads[a][i] is not None:
                    g += skip_grads[a][i]
                tapes.append(g)
                del g
                # nothing reads the input gradient of an arm's first block
                g = _block_backward(tapes, add, f"enc.arm{a}.block{i}", ws, grad_input=i > 0)

        return grads


def _block(params, state, prefix, conv_input, ws, keep_input=True, out=None):
    """conv3x3 -> batchnorm -> ReLU, every block's forward; returns (y, [conv,
    batchnorm] tapes).  `conv_input` returns (x's zero-padded buffer, or None
    for the conv to pad a copy, and x).  `ws` is the model's workspace in
    train mode, from which the buffers come, and None in infer mode.  Train
    mode updates the running statistics in `state`; with `keep_input` False
    the conv tape keeps no input, and the buffer is dropped before batchnorm
    allocates; the conv writes into `out` if given.  Infer mode runs one
    conv with batchnorm folded in and returns tapes None."""
    padded, x = conv_input()
    w = params[f"{prefix}.conv.weight"]
    gamma, beta = params[f"{prefix}.bn.gamma"], params[f"{prefix}.bn.beta"]
    mean, var = f"{prefix}.bn.running_mean", f"{prefix}.bn.running_var"
    if ws is None:
        y, _ = layers.conv2d_forward(
            x, *layers.batchnorm_fold(w, gamma, beta, state[mean], state[var]), padded=padded)
        return np.maximum(y, 0, out=y), None
    y, ct = layers.conv2d_forward(x, w, padded=padded, keep_input=keep_input, ws=ws, out=out)
    del padded, x
    y, bt, state[mean], state[var] = layers.batchnorm_forward(
        y, gamma, beta, state[mean], state[var], out=y, ws=ws)
    return y, [ct, bt]


def _decoder_input(src, offsets, skips, split, ws):
    """A decoder block conv's input, built in its zero-padded buffer from
    `ws` (None for a fresh one): src unpooled by the pool's argmax offsets,
    then each skip map; `split` gives the channel widths.  A skip is an
    encoder block's output, or that block's batchnorm tape, from which the
    output is rebuilt bit for bit.  Returns (buffer, interior)."""
    n, _, hh, ww = offsets.shape
    bounds = np.cumsum(split)
    flat, cat = layers.zero_padded((n, bounds[-1], 2 * hh, 2 * ww), 3, src.dtype, ws)
    layers.unpool2x2_forward(src, offsets, out=cat[:, :split[0]])
    for skip, lo, hi in zip(skips, bounds[:-1], bounds[1:]):
        if isinstance(skip, layers.BatchNormTape):
            layers.batchnorm_output(skip, out=cat[:, lo:hi])
        else:
            cat[:, lo:hi] = skip
    return flat, cat


def _block_backward(tapes, add, prefix, ws, grad_input=True, conv_input=None):
    """Backward of `_block`; adds the parameter gradients, returns the input's
    (None if `grad_input` is False).
    `tapes` is the block's [conv, batchnorm] tapes with the gradient of the
    block's output pushed on top. Each is popped and freed once used, so the
    incoming gradient is gone before the conv's zero-padded gradient buffer,
    into which batchnorm's input gradient is copied, is allocated.
    `conv_input`, for a conv tape that kept no input, rebuilds that input
    as `_block`'s does; it is called once batchnorm's input gradient is
    freed.  The conv backward writes the input gradient over the padded
    buffer (or the kept one) and returns its interior, so it allocates no
    full-size array.  Its buffers come from `ws`, the model's workspace."""
    g = tapes.pop()
    g, grad_gamma, grad_beta = layers.batchnorm_backward(tapes.pop(), g, ws)
    add(f"{prefix}.bn.gamma", grad_gamma)
    add(f"{prefix}.bn.beta", grad_beta)
    ct = tapes.pop()
    gflat, inner = layers.zero_padded(g.shape, ct.weights.shape[-1], g.dtype, ws)
    inner[...] = g
    del g
    if conv_input is not None:
        ct.x_flat = conv_input()[0]
    g, grad_w, _ = layers.conv2d_backward(ct, inner, padded=gflat, grad_input=grad_input,
                                          ws=ws)
    add(f"{prefix}.conv.weight", grad_w)
    return g


def build_model(topology: Topology, rng: RngStream, dtype: str = "single"):
    """Convenience constructor: (model, params, state)."""
    model = SynNetModel(topology)
    params, state = model.init_params(rng, dtype=dtype)
    return model, params, state
