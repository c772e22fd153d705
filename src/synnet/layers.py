"""Layer primitives with hand-written forward and backward passes.

Conventions fixed here (the network blocks are assembled in `model`):
  - convolution is cross-correlation (no kernel flip), "same" zero padding;
    both of its forward GEMM paths run over chunks of images that fit in
    one core's L2, each chunk's result written straight into the output,
    and its backward forms both gradients from one L2-sized stack of
    shifted windows at a time (see the convolution section);
  - batchnorm has one mode, by the batch statistics, and includes the
    block's ReLU: the forward applies it in place and keeps no mask, and
    the backward rebuilds the mask from x_hat, gamma and beta.  At
    inference `batchnorm_fold` folds the running statistics into the conv
    before it;
  - max pooling is non-overlapping 2x2 / stride 2 with first-occurrence
    tie-break in row-major window order.  It works on the four strided
    corners x[:, :, u::2, v::2], offset 2u+v: the pooled value is the
    value at the recorded offset, bit for bit, so a +0.0/-0.0 tie keeps
    the earlier corner's zero, as `verify.maxpool_oracle` does;
  - unpooling scatters each value to the argmax position recorded by the
    matched pool and leaves +0.0 elsewhere; the pool gradient is the same
    scatter and the unpool gradient the matching four-corner gather;
  - ReLU subgradient at exactly 0 is 0.

Layers check shapes but do not scan for non-finite values: the model
checks its inputs once, and training checks its predictions.

Every forward returns a tape carrying exactly what its backward needs:
  - conv: its zero-padded input, rows flattened (`x_flat`); a 1x1 conv's
    tape references its input rather than a copy, so that input must not
    change until the backward has run.  With `keep_input=False` the tape
    keeps no input, and the caller sets the rebuilt one as `x_flat` before
    the backward (the model does so for decoder and head convs);
  - batchnorm: x_hat, the per-channel 1/std, gamma and beta, from which
    `batchnorm_output` rebuilds the forward's output bit for bit;
  - pool and unpool: the pool's argmax offsets, a bare uint8 array of the
    pooled shape returned beside its output, which nothing writes over.
Conv and batchnorm tapes are consumed by their backward, which reuses or
frees the buffers they hold: a 3x3 conv backward writes the input gradient
over its padded input and returns the interior view, a 1x1 one drops its
input (the caller's) before it allocates the input gradient, and the
batchnorm backward masks its grad_out in place and writes the input
gradient over x_hat.  A second backward on a consumed tape raises
UsageError.

Buffers handed in (`out=`, `padded=`) are written or kept as they are.  A
conv takes `padded=flat` from `zero_padded`, the zero-padded flat buffer
whose interior is its input, and keeps it as its tape's `x_flat` (forward;
a 3x3 backward writes the input gradient over it) or reads it as the
padded grad_out (backward) instead of padding a copy; the producer of that
input writes straight into the interior.
`out=` writes a result into the given array; batchnorm's forward writes
x_hat there.  The model hands over only buffers that nothing reads
afterwards.

Who owns each large buffer:
  - in training, the model's `Workspace` (`ws=`): conv and batchnorm
    outputs, padded inputs and gradients, pool, unpool and gradient
    outputs, the backward's stacks and weight-gradient products, and the
    chunk arrays of the correlation and of the batchnorm backward.  Each is
    a block cut from address space the workspace keeps; once nothing
    references a block, its range serves the next request of any size, in
    this step and the next, so a step faults in almost no fresh pages.  A
    padded buffer taken from it gets its border zeroed and its interior
    left for the producer to write;
  - with no workspace (`ws=None`: inference, and callers of the layers
    alone), each call allocates its outputs, and a correlation takes its
    chunk arrays from a buffer that each thread keeps between calls
    (`_scratch`), up to twice _L2_BYTES, so that a forward per image does
    not fault in fresh pages each time.
Every value a buffer holds is written before it is read, and every float
op runs in the same order whichever buffer it writes, so results are
bit-equal either way.
"""

from __future__ import annotations

import bisect
import math
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, ParameterError, UsageError, check_4d


# ---------------------------------------------------------------------------
# convolution (3x3 same-padded or 1x1), via flattened-shift GEMMs
#
# The input is padded once and each image's rows are flattened with the
# padded row width wp.  The window of kernel offset (u, v) is then the
# contiguous slice starting at u*wp + v, so a correlation is a sum of k*k
# GEMMs over shifted views, with no im2col copy.  The result has wp columns
# per output row; the last 2p of them are junk and are dropped.
#
# When in_c < out_c the k*k views are copied into one stack of k*k*in_c
# rows and one GEMM runs over it; otherwise the k*k partial products are
# summed into an accumulator, one tap at a time.  Over a whole paper-scale
# batch that stack or accumulator is tens of MB, and each tap streams it
# from memory again.  So both paths run over chunks of images instead, each
# chunk as many images as fit their working rows (the stack and the output,
# or the accumulator, partial product and input) into _L2_BYTES.  Small
# layers fit the whole batch in one chunk: a loop over single images made
# them several times slower.  Each image's GEMMs and tap order do not
# depend on the chunk, so neither does a correlation's result.
# Each chunk's rows, junk columns and all, are then written into the output
# without them (adding the bias in the same pass), so no whole-batch
# correlation buffer is formed and copied.
#
# The backward is the same trick on the gradient side (Chellapilla et al.,
# 2006): it stacks the k*k windows of one side and runs each gradient as one
# GEMM over the stack.  Tap t = (u, v) pairs grad_out at q + p(wp+1) with the
# input at q + u*wp + v.  When in_c >= out_c the windows of the padded
# grad_out are stacked, window t starting at 2p(wp+1) - (u*wp + v), so that
# grad_w gets stack @ x_centre^T, x_centre the input's window at p(wp+1);
# and the input gradient is W_st @ stack, W_st the weights as (in_c, k*k*out_c)
# in (tap, out) order, written over x_centre, which no later unit reads.
# When in_c < out_c the input's windows are stacked against grad_out's
# centre window for grad_w, and the input gradient is the correlation of
# grad_out with the rotated kernel (`_correlate`).  The side follows the
# channel counts alone, so grad_w does not depend on whether the input
# gradient is formed.  A unit of work is a chunk of whole images when one
# image's stack fits _L2_BYTES, else a band of one image as wide as a
# multiple of 64 columns; bands keep each column's place in the GEMM
# kernel's column blocks, so the input gradient is bit-equal however it is
# cut.  grad_w's sum over a unit's images is taken in the input's dtype, and
# the unit sums are added in double and rounded once.  A layer that fits
# one unit rounds its one partial sum back exactly, so its result is that
# of one sum over the batch.
# ---------------------------------------------------------------------------

_L2_BYTES = 2 << 20     # 2 MiB, one core's private L2 on the benchmark host


# per thread: two threads that shared one buffer would write into each
# other's chunks.  Not owned by the model, since `predict` builds one per call
_thread_scratch = threading.local()
# A chunk of several images asks for at most _L2_BYTES, a chunk of one image
# whose rows alone overflow L2 for more, without bound (135 MB for the paper
# config at 512x512).  Twice L2 keeps its largest at 64x64, 2.2 MB.
_SCRATCH_BYTES = 2 * _L2_BYTES


def _scratch(dtype, shapes):
    """Uninitialised arrays of `shapes` in `dtype`, valid until the calling
    thread's next call.  Up to _SCRATCH_BYTES in all they are laid end to
    end in a byte buffer that the thread keeps between calls, so that a
    forward per image does not fault in fresh pages each time; the buffer
    grows to the largest such request and never shrinks, so it stays at or
    below _SCRATCH_BYTES.  Larger requests get fresh arrays."""
    sizes = [math.prod(s) * dtype.itemsize for s in shapes]
    if sum(sizes) > _SCRATCH_BYTES:
        return [np.empty(s, dtype=dtype) for s in shapes]
    buf = getattr(_thread_scratch, "buf", None)
    if buf is None or buf.nbytes < sum(sizes):
        buf = _thread_scratch.buf = np.empty(sum(sizes), dtype=np.uint8)
    return _laid_out(buf, dtype, shapes, sizes)


def _laid_out(buf: np.ndarray, dtype, shapes, sizes):
    """Arrays of `shapes` laid end to end in the byte buffer `buf`."""
    starts = np.cumsum([0] + sizes)
    return [buf[lo:lo + size].view(dtype).reshape(shape)
            for lo, size, shape in zip(starts, sizes, shapes)]


_ALIGN = 64                 # every block starts on a cache line
_RESERVE_BYTES = 1 << 30    # the least address space a workspace reserves at once


class Workspace:
    """The large buffers of one model's training steps: blocks cut from
    address space that the workspace keeps, and handed out again once free.

    It reserves address space in byte arrays of at least _RESERVE_BYTES, and
    at least as much as it has reserved already, so that a step's blocks
    share one reservation and its free ranges merge.  Pages are mapped only
    when first written, so a reservation holds resident memory only as far
    up as blocks have reached (`nbytes`); tracemalloc counts the whole
    reservation.  A request takes the lowest free range that fits it.
    Every array made from a block references it, so a block is freed once
    the last of them is gone; its range then goes back, merged with free
    neighbours, at the next request.  So memory that one layer frees serves
    the next request of any size, and the next step finds every block it
    needs already mapped.  Whole buffers reused only by size served the
    step's mix of sizes badly: they held 141-151 MiB for the paper step.

    Not for concurrent use: a model's train-mode calls run one at a time.
    """

    def __init__(self):
        self._reserved = []    # byte arrays of address space
        self._free = []        # per reservation, its sorted free [start, stop) ranges
        self._reached = []     # per reservation, the highest stop handed out
        self._freed = []       # (reservation, start, stop) of blocks freed since

    @property
    def nbytes(self) -> int:
        """Bytes up to which blocks have reached in each reservation: the
        most the workspace holds resident."""
        return sum(self._reached)

    def _release(self, r: int, lo: int, hi: int):
        free = self._free[r]
        i = bisect.bisect(free, [lo, hi])
        if i < len(free) and free[i][0] == hi:
            hi = free.pop(i)[1]
        if i and free[i - 1][1] == lo:
            free[i - 1][1] = hi
        else:
            free.insert(i, [lo, hi])

    def _take(self, nbytes: int) -> np.ndarray:
        size = max(_ALIGN, -(-nbytes // _ALIGN) * _ALIGN)
        # a block can be freed at any point, by the garbage collector too, so
        # its range waits in _freed until here
        while self._freed:
            self._release(*self._freed.pop())
        fit = next(((r, span) for r, free in enumerate(self._free) for span in free
                    if span[1] - span[0] >= size), None)
        if fit is None:
            reserve = max(size, _RESERVE_BYTES, sum(a.nbytes for a in self._reserved))
            try:
                self._reserved.append(np.empty(reserve, dtype=np.uint8))
            except MemoryError:     # address space is limited: reserve the request
                reserve = size
                self._reserved.append(np.empty(reserve, dtype=np.uint8))
            self._free.append([[0, reserve]])
            self._reached.append(0)
            fit = len(self._free) - 1, self._free[-1][0]
        r, span = fit
        lo = span[0]
        span[0] += size
        if span[0] == span[1]:
            self._free[r].remove(span)
        self._reached[r] = max(self._reached[r], lo + size)
        # an array over a memoryview, not a view of the reservation, so that
        # the arrays made from it reference it and not the reservation
        blk = np.frombuffer(memoryview(self._reserved[r])[lo:lo + nbytes], dtype=np.uint8)
        weakref.finalize(blk, self._freed.append, (r, lo, lo + size))
        return blk

    def arrays(self, dtype, shapes):
        """Uninitialised arrays of `shapes` in `dtype`, laid end to end in
        one block; the same call as `_scratch`."""
        dtype = np.dtype(dtype)
        sizes = [math.prod(s) * dtype.itemsize for s in shapes]
        return _laid_out(self._take(sum(sizes)), dtype, shapes, sizes)

    def empty(self, shape, dtype) -> np.ndarray:
        return self.arrays(dtype, [shape])[0]


def _arrays(dtype, shapes, ws: Workspace | None):
    if ws is None:
        return [np.empty(s, dtype=dtype) for s in shapes]
    return ws.arrays(dtype, shapes)


def _empty(shape, dtype, ws: Workspace | None) -> np.ndarray:
    return _arrays(dtype, [shape], ws)[0]


def _empty_like(a: np.ndarray, ws: Workspace | None, dtype=None) -> np.ndarray:
    """An uninitialised array shaped and laid out in memory as `a`."""
    dtype = a.dtype if dtype is None else dtype
    if ws is None:
        return np.empty_like(a, dtype=dtype)
    # the axes from the outermost in memory, as np.empty_like orders them
    order = sorted(range(a.ndim), key=lambda i: -a.strides[i])
    buf = ws.empty([a.shape[i] for i in order], dtype)
    return buf.transpose(np.argsort(order))


def _image_chunks(n: int, per_image: int):
    """Slices of at most as many of n images as fit per_image bytes each
    into _L2_BYTES, and at least one."""
    chunk = min(n, max(1, _L2_BYTES // per_image))
    return [slice(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


@dataclass
class ConvTape:
    x_flat: np.ndarray | None  # zero-padded input, rows flattened: (n, in_c, (h+2p)*(w+2p));
                               # for 1x1 a view of the input itself; None once consumed,
                               # when a 3x3 backward has written the input gradient over it
    weights: np.ndarray
    in_shape: tuple
    has_bias: bool


def _check_conv_params(w: np.ndarray, b: np.ndarray | None):
    if w.ndim != 4:
        raise ShapeError(f"conv weights must be 4-D (out,in,kh,kw), got {w.shape}")
    out_c, in_c, kh, kw = w.shape
    if kh != kw or kh not in (1, 3):
        raise ShapeError(f"kernel must be square 1x1 or 3x3, got {kh}x{kw}")
    if b is not None and b.shape != (out_c,):
        raise ShapeError(f"bias shape {b.shape} != ({out_c},)")
    return out_c, in_c, kh


def _interior(flat: np.ndarray, h: int, w: int, p: int) -> np.ndarray:
    """The (n, c, h, w) view of a padded flat buffer without its border."""
    n, c, _ = flat.shape
    return flat.reshape(n, c, h + 2 * p, w + 2 * p)[:, :, p:p + h, p:p + w]


def zero_padded(shape: tuple, k: int, dtype, ws: Workspace | None = None):
    """A flat buffer for a k x k conv's input of `shape`, padded by k // 2 on
    each side with zeros, and its interior view of `shape`.  Without a
    workspace the interior is zero too; from one, it is left for the caller
    to write whole.

    Write the conv input into the interior, then pass the flat buffer as
    `padded=` to `conv2d_forward` or `conv2d_backward`.
    """
    n, c, h, w = shape
    p = k // 2
    hp, wp = h + 2 * p, w + 2 * p
    if ws is None:
        flat = np.zeros((n, c, hp * wp), dtype=dtype)
        return flat, _interior(flat, h, w, p)
    flat = ws.empty((n, c, hp * wp), dtype)
    if p:
        # a reused buffer may hold anything there, a 3x3 backward's input
        # gradient among it
        grid = flat.reshape(n, c, hp, wp)
        for edge in (grid[:, :, :p], grid[:, :, hp - p:],
                     grid[:, :, p:hp - p, :p], grid[:, :, p:hp - p, wp - p:]):
            edge.fill(0)
    return flat, _interior(flat, h, w, p)


def _pad_flat(x: np.ndarray, p: int, ws: Workspace | None) -> np.ndarray:
    n, c, h, w = x.shape
    if p == 0:
        return x.reshape(n, c, -1)   # a view when each image's rows are contiguous
    flat, inner = zero_padded(x.shape, 2 * p + 1, x.dtype, ws)
    inner[...] = x
    return flat


def _padded_input(x: np.ndarray, p: int, padded: np.ndarray | None,
                  ws: Workspace | None = None) -> np.ndarray:
    """`padded` once checked to be x's zero-padded flat buffer, or a new one."""
    if padded is None:
        return _pad_flat(x, p, ws)
    n, c, h, w = x.shape
    if padded.shape != (n, c, (h + 2 * p) * (w + 2 * p)) or padded.dtype != x.dtype:
        raise ShapeError(f"padded buffer {padded.shape} {padded.dtype} does not fit "
                         f"{x.shape} {x.dtype} padded by {p}")
    inner = _interior(padded, h, w, p)
    if inner.strides != x.strides or \
            inner.__array_interface__["data"][0] != x.__array_interface__["data"][0]:
        raise ShapeError("the padded buffer's interior is not the array it pads")
    return padded


def _shifted(flat: np.ndarray, k: int, wp: int, span: int):
    """The k*k shifted views of a padded flat input, offsets in row-major order."""
    return [flat[:, :, u * wp + v:u * wp + v + span] for u in range(k) for v in range(k)]


def _correlate(flat: np.ndarray, w: np.ndarray, out: np.ndarray, bias=None,
               ws: Workspace | None = None) -> np.ndarray:
    """Same-padded cross-correlation of a padded flat input (n, in_c, (h+2p)*(wd+2p))
    into `out`, an (n, out_c, h, wd) array of any strides, plus `bias` (broadcast
    per output channel) if given; returns out.

    Each chunk of images is correlated into a chunk-sized buffer of wp columns
    per row, then written into out without its junk columns, adding the bias in
    the same pass.  The chunk buffers come from `ws`, else from the thread's
    kept `_scratch`.
    """
    n, out_c, h, wd = out.shape
    in_c, k = w.shape[1], w.shape[2]
    wp = wd + k - 1
    span = h * wp - (k - 1)
    take = _scratch if ws is None else ws.arrays

    def emit(sl, rows):
        rows = rows.reshape(len(rows), out_c, h, wp)[..., :wd]
        if bias is None:
            np.copyto(out[sl], rows)
        else:
            np.add(rows, bias, out=out[sl])

    if k * in_c == 1:
        # K = 1: the GEMM is an outer product, which multiply forms faster
        np.multiply(w.reshape(1, out_c, 1, 1), flat.reshape(n, 1, h, wd), out=out)
        if bias is not None:
            out += bias
    elif in_c < out_c:
        # one GEMM over the stacked views: copying in_c*k*k rows costs less
        # than k*k passes over out_c accumulator rows
        kk = k * k
        # stack and output rows of one chunk fit in L2
        chunks = _image_chunks(n, (kk * in_c + out_c) * span * flat.itemsize)
        stack, rows = take(flat.dtype, [(chunks[0].stop, in_c, kk, span),
                                        (chunks[0].stop, out_c, h * wp)])
        w_rows = w.reshape(out_c, -1)
        for sl in chunks:
            st, r = stack[:sl.stop - sl.start], rows[:sl.stop - sl.start]
            for t, view in enumerate(_shifted(flat[sl], k, wp, span)):
                st[:, :, t] = view
            np.matmul(w_rows, st.reshape(len(st), -1, span), out=r[:, :, :span])
            emit(sl, r)
    else:
        # contiguous per-offset weights: a strided one makes matmul slower
        taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(k * k, out_c, in_c)
        # accumulator, partial product and input rows of one chunk fit in L2
        chunks = _image_chunks(n, (2 * out_c + in_c) * h * wp * flat.itemsize)
        rows, part = take(flat.dtype, [(chunks[0].stop, out_c, h * wp),
                                       (chunks[0].stop, out_c, span)])
        for sl in chunks:
            r = rows[:sl.stop - sl.start]
            head = r[:, :, :span]
            views = _shifted(flat[sl], k, wp, span)
            np.matmul(taps[0], views[0], out=head)
            for tap, view in zip(taps[1:], views[1:]):
                head += np.matmul(tap, view, out=part[:len(head)])
            emit(sl, r)
    return out


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None,
                   padded: np.ndarray | None = None, keep_input: bool = True,
                   ws: Workspace | None = None, out: np.ndarray | None = None):
    """Same-padded cross-correlation plus an optional per-output-channel bias.

    `padded` is x's buffer from `zero_padded` (x its interior), kept as the
    tape's `x_flat` instead of a padded copy.  With `keep_input` False the
    tape keeps no input: the caller rebuilds it bit for bit and sets it as
    the tape's `x_flat` before the backward.  The output goes into `out`
    if given, laid out channel-major as batchnorm needs it (an (out_c, n,
    h, w) array transposed); it, a padded copy and the chunk arrays come
    from `ws` if given.
    """
    check_4d(x, "x")
    out_c, in_c, k = _check_conv_params(w, b)
    n, c, h, wd = x.shape
    if c != in_c:
        raise ShapeError(f"input has {c} channels, kernel expects {in_c}")
    flat = _padded_input(x, k // 2, padded, ws)
    # channel-major memory, (out_c, n, h, w): batchnorm reduces per channel
    if out is None:
        y = _empty((out_c, n, h, wd), x.dtype, ws).transpose(1, 0, 2, 3)
    elif (out.shape != (n, out_c, h, wd) or out.dtype != x.dtype
          or not out.transpose(1, 0, 2, 3).flags.c_contiguous):
        raise ShapeError(f"out {out.shape} {out.dtype} is not a channel-major "
                         f"({n},{out_c},{h},{wd}) {x.dtype} array")
    else:
        y = out
    bias = None if b is None else b.astype(x.dtype)[None, :, None, None]
    _correlate(flat, w.astype(x.dtype, copy=False), y, bias, ws)
    return y, ConvTape(flat if keep_input else None, w, x.shape, b is not None)


def _units(n: int, span: int, per_column: int):
    """Units of work over n images of `span` columns each, such that a stack
    of `per_column` bytes per column fits _L2_BYTES: chunks of whole images
    when one image fits, else bands of one image, each a multiple of 64
    columns wide but the last.  Returns the largest unit's image and column
    counts, and an iterator of (image slice, column slice)."""
    if per_column * span <= _L2_BYTES:
        chunks = _image_chunks(n, per_column * span)
        return chunks[0].stop, span, ((sl, slice(0, span)) for sl in chunks)
    # a band as wide as a multiple of 64 columns keeps every column at the
    # same place within a GEMM kernel's column blocks as in the whole image,
    # so each is summed in the same order
    band = min(span, max(64, _L2_BYTES // per_column // 64 * 64))
    return 1, band, ((slice(i, i + 1), slice(lo, min(lo + band, span)))
                     for i in range(n) for lo in range(0, span, band))


def _stacked_backward(x_flat, gflat, w, wp, span, grad_input, ws):
    """The (k*k, out_c, in_c) weight gradient, summed over images in double,
    and whether the input gradient was formed too.

    x_flat is the padded flat input and gflat the padded flat grad_out.  The
    k*k windows of the side with fewer channels (grad_out's on a tie) are
    stacked, unit by unit, against the other side's centre window.  When
    `grad_input` is asked for and the stack is grad_out's, the input
    gradient is formed from it too, written over the input's centre window.
    """
    out_c, in_c, k, _ = w.shape
    kk, centre = k * k, (k // 2) * (wp + 1)
    offsets = [u * wp + v for u in range(k) for v in range(k)]
    out_side = in_c >= out_c
    if out_side:
        src, other, starts = gflat, x_flat, [2 * centre - o for o in offsets]
    else:
        src, other, starts = x_flat, gflat, offsets
    grad_input = grad_input and out_side
    if grad_input:     # (in_c, k*k*out_c) weights in (tap, out) order
        w_st = w.transpose(1, 2, 3, 0).reshape(in_c, -1).astype(gflat.dtype, copy=False)
    c, other_c = src.shape[1], other.shape[1]
    images, columns, units = _units(len(src), span, kk * c * src.itemsize)
    # the stack, and each unit's product of it with the other side's centre
    prod_shape = (images, kk * c, other_c) if out_side else (images, other_c, kk * c)
    stack, prods = _arrays(src.dtype, [(images, kk * c, columns), prod_shape], ws)
    grad_w = np.zeros((kk, out_c, in_c))
    for sl, cols in units:
        st = stack[:sl.stop - sl.start, :, :cols.stop - cols.start]
        for t, s in enumerate(starts):
            st[:, t * c:(t + 1) * c] = src[sl, :, s + cols.start:s + cols.stop]
        oc = other[sl, :, centre + cols.start:centre + cols.stop]
        if out_side:
            part = np.matmul(st, oc.transpose(0, 2, 1), out=prods[:len(st)]).sum(axis=0)
            grad_w += part.reshape(kk, out_c, in_c)
            if grad_input:
                np.matmul(w_st, st, out=oc)
        else:
            part = np.matmul(oc, st.transpose(0, 2, 1), out=prods[:len(st)]).sum(axis=0)
            grad_w += part.reshape(out_c, kk, in_c).transpose(1, 0, 2)
    return grad_w, grad_input


def conv2d_backward(tape: ConvTape, grad_out: np.ndarray, padded: np.ndarray | None = None,
                    grad_input: bool = True, ws: Workspace | None = None):
    """Gradients w.r.t. input, weights and bias (None if the forward had none).

    Consumes the tape, and a second backward on it raises UsageError.  A 3x3
    conv writes its input gradient over the tape's padded input and returns
    its interior view; a 1x1 conv, whose tape references the caller's input,
    drops that input and returns a new array.  `padded` is grad_out's buffer
    from `zero_padded` (grad_out its interior), used instead of a padded copy.
    With `grad_input` False the input gradient is not formed and is None.
    A padded copy, the stack, a 1x1 input gradient and the chunk arrays come
    from `ws` if given.
    """
    w = tape.weights
    out_c, in_c, k, _ = w.shape
    n, c, h, wd = tape.in_shape
    if grad_out.shape != (n, out_c, h, wd):
        raise ShapeError(
            f"grad_out shape {grad_out.shape} != forward output ({n},{out_c},{h},{wd})"
        )
    if tape.x_flat is None:
        raise UsageError("conv tape holds no input: consumed by a backward, "
                         "or made with keep_input False and not rebuilt")
    p, wp = k // 2, wd + k - 1
    if tape.x_flat.shape != (n, c, (h + 2 * p) * wp):
        raise ShapeError(f"tape input {tape.x_flat.shape} != ({n},{c},{(h + 2 * p) * wp})")
    x_flat, tape.x_flat = tape.x_flat, None
    span = h * wp - (k - 1)
    # grad_out padded like the input: row width wp, zeros in the junk columns
    gflat = _padded_input(grad_out, p, padded, ws)
    grad_b = grad_out.sum(axis=(0, 2, 3)).astype(w.dtype) if tape.has_bias else None
    # a 3x3 conv's input gradient goes over its spent input, straight from
    # grad_out's stack when that is the side stacked
    grad_w, stacked = _stacked_backward(x_flat, gflat, w, wp, span, grad_input and k > 1, ws)
    grad_w = grad_w.transpose(1, 2, 0).reshape(w.shape).astype(w.dtype)
    if not grad_input:
        return None, grad_w, grad_b
    if k == 1:
        del x_flat      # the caller's input: dropped before a new gradient
        grad_in = _empty((n, c, h, wd), gflat.dtype, ws)
    else:
        grad_in = _interior(x_flat, h, wd, p)
        if stacked:
            return grad_in, grad_w, grad_b
    # the input gradient is the same correlation of the padded grad_out with
    # the kernel rotated 180 degrees and its in/out channels swapped
    w_rot = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).astype(gflat.dtype, copy=False)
    return _correlate(gflat, w_rot, grad_in, None, ws), grad_w, grad_b


# ---------------------------------------------------------------------------
# batch normalization and the ReLU after it
# ---------------------------------------------------------------------------

BN_EPS = 1e-5       # added to the variance by batchnorm and by its fold
BN_MOMENTUM = 0.9   # share of the old running statistics kept per batch


@dataclass
class BatchNormTape:
    x_hat: np.ndarray | None  # normalised input; the backward writes over it
    inv_std: np.ndarray      # per channel
    gamma: np.ndarray
    beta: np.ndarray


def _per_channel(v: np.ndarray, dtype) -> np.ndarray:
    return v.astype(dtype, copy=False)[None, :, None, None]


def _scale_shift_relu(x_hat, gamma, beta, out):
    """max(x_hat * gamma + beta, 0) into `out` (a new array if None)."""
    y = np.multiply(x_hat, _per_channel(gamma, x_hat.dtype), out=out)
    y += _per_channel(beta, x_hat.dtype)
    return np.maximum(y, 0, out=y)


def batchnorm_forward(x, gamma, beta, running_mean, running_var, out=None, ws=None):
    """Per-channel batch normalization by the batch mean / biased variance over
    (n,h,w), then ReLU; inference uses `batchnorm_fold` instead.
    Returns (y, tape, new_running_mean, new_running_var).

    The tape keeps no ReLU mask: the backward rebuilds it from x_hat, gamma
    and beta.  x_hat, which the tape keeps, goes into `out` if given; pass x
    itself to centre it in place.  y comes from `ws` if given.
    """
    check_4d(x, "x")
    n, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"gamma/beta must have shape ({c},)")
    if n * h * w == 1:
        raise ParameterError("batchnorm needs more than one value per channel")
    mean = x.mean(axis=(0, 2, 3))
    # centre once; the centred values become x_hat in place
    x_hat = np.subtract(x, mean[None, :, None, None], out=out)
    # the squares' buffer becomes y once the variance is taken
    sq = np.square(x_hat, out=_empty_like(x_hat, ws))
    var = sq.mean(axis=(0, 2, 3))                        # biased
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    x_hat *= inv_std[None, :, None, None]
    y = _scale_shift_relu(x_hat, gamma, beta, sq)
    new_mean = BN_MOMENTUM * running_mean + (1.0 - BN_MOMENTUM) * mean
    new_var = BN_MOMENTUM * running_var + (1.0 - BN_MOMENTUM) * var
    return (y, BatchNormTape(x_hat, inv_std, gamma, beta),
            new_mean.astype(running_mean.dtype), new_var.astype(running_var.dtype))


def batchnorm_output(tape: BatchNormTape, out: np.ndarray | None = None,
                     ws: Workspace | None = None) -> np.ndarray:
    """The forward's output y = max(x_hat * gamma + beta, 0), rebuilt from its
    tape by the same float ops, so bit for bit; into `out` if given, else into
    an array laid out as x_hat, from `ws` if given.  The tape is not consumed."""
    if tape.x_hat is None:
        raise UsageError("batchnorm tape already consumed by a backward")
    if out is not None and out.shape != tape.x_hat.shape:
        raise ShapeError(f"out {out.shape} != batchnorm output {tape.x_hat.shape}")
    if out is None:
        out = _empty_like(tape.x_hat, ws)
    return _scale_shift_relu(tape.x_hat, tape.gamma, tape.beta, out)


def batchnorm_fold(w, gamma, beta, running_mean, running_var):
    """(w * s, beta - running_mean * s), s = gamma / sqrt(running_var + BN_EPS):
    the weights and bias of one conv that does a bias-free conv with w, then
    batchnorm by the running statistics (Jacob et al., CVPR 2018, 3.2)."""
    s = gamma / np.sqrt(running_var + BN_EPS)
    return w * s[:, None, None, None], beta - running_mean * s


def batchnorm_backward(tape: BatchNormTape, grad_out: np.ndarray,
                       ws: Workspace | None = None):
    """Backward of batchnorm and its ReLU, through the batch mean and
    variance.  Consumes the tape and `grad_out`: the ReLU mask is applied
    to grad_out in place and the input gradient is written over x_hat.
    The chunk arrays come from `ws` if given.

    The mask is rebuilt as x_hat * gamma > -beta.  The forward's ReLU saw
    round(x_hat * gamma) + beta rounded, and a rounded sum is positive
    exactly when the exact sum is, so the two agree bit for bit (and a
    value of exactly 0 gets subgradient 0).

    With grad_out masked and g = grad_out * gamma, the textbook sums are
    sum(g) = gamma * grad_beta and sum(g * x_hat) = gamma * grad_gamma, so
    grad_in = gamma * inv_std * (grad_out - grad_beta/m - x_hat * grad_gamma/m).
    Both sums, and then grad_in, run over chunks of images that fit in L2.
    """
    x_hat, inv_std, gamma, beta = tape.x_hat, tape.inv_std, tape.gamma, tape.beta
    if x_hat is None:
        raise UsageError("batchnorm tape already consumed by a backward")
    if grad_out.shape != x_hat.shape:
        raise ShapeError("grad_out shape mismatch with batchnorm tape")
    tape.x_hat = None
    n, c, h, w = x_hat.shape
    m = n * h * w
    dtype = x_hat.dtype
    # x_hat, grad_out, the product buffer and the mask of one chunk fit in L2
    chunks = _image_chunks(n, c * h * w * (3 * dtype.itemsize + 1))
    prod = _empty((c, chunks[0].stop, h, w), dtype, ws).transpose(1, 0, 2, 3)
    mask = _empty((c, chunks[0].stop, h, w), bool, ws).transpose(1, 0, 2, 3)
    gamma_c, neg_beta = _per_channel(gamma, dtype), _per_channel(-beta, dtype)
    # each chunk's per-channel sums, added up in double
    grad_gamma = np.zeros(c)
    grad_beta = np.zeros(c)
    for sl in chunks:
        xh, g = x_hat[sl], grad_out[sl]
        p, mk = prod[:len(xh)], mask[:len(xh)]
        np.greater(np.multiply(xh, gamma_c, out=p), neg_beta, out=mk)
        np.multiply(g, mk, out=g)
        grad_beta += g.sum(axis=(0, 2, 3))
        grad_gamma += np.multiply(g, xh, out=p).sum(axis=(0, 2, 3))
    a = _per_channel(grad_gamma / -m, dtype)
    b = _per_channel(grad_beta / m, dtype)
    s = _per_channel(gamma * inv_std, dtype)
    for sl in chunks:
        gi = np.multiply(x_hat[sl], a, out=x_hat[sl])
        gi += grad_out[sl]
        gi -= b
        gi *= s
    return x_hat, grad_gamma.astype(gamma.dtype), grad_beta.astype(gamma.dtype)


# ---------------------------------------------------------------------------
# 2x2 max pooling with stored argmax indices, and index-based unpooling
# ---------------------------------------------------------------------------

def _corners(x: np.ndarray):
    """The four strided views x[:, :, u::2, v::2], in offset order 0..3."""
    return [x[:, :, u::2, v::2] for u in (0, 1) for v in (0, 1)]


def _bits(x: np.ndarray) -> np.ndarray:
    """x's float bits as signed integers of the same width (a view)."""
    return x.view(f"i{x.itemsize}")


def _corner_mask(offsets: np.ndarray, o: int) -> np.ndarray:
    """All-ones bits where `offsets == o`, zero bits elsewhere (int8)."""
    mask = np.equal(offsets, o).view(np.int8)
    return np.negative(mask, out=mask)


def maxpool2x2_forward(x: np.ndarray, out: np.ndarray | None = None,
                       ws: Workspace | None = None):
    """(pooled, offsets): each value's uint8 argmax offset 0..3 in its window.
    The pooled values go into `out` if given; they and the offsets come from
    `ws` if given."""
    check_4d(x, "x")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2 needs even spatial dims, got {h}x{w}")
    first, *rest = _corners(x)
    if out is None:
        out = _empty_like(first, ws)
    elif out.shape != first.shape or out.dtype != x.dtype:
        raise ShapeError(f"out {out.shape} {out.dtype} != pooled shape {first.shape} {x.dtype}")
    best, running = out, first
    offsets = _empty_like(first, ws, np.uint8)
    offsets.fill(0)
    for o, corner in enumerate(rest, start=1):
        # the last corner strictly above the running max is the first one
        # equal to the window max, so the largest such offset is the argmax
        above = np.greater(corner, running).view(np.uint8)
        np.maximum(offsets, np.multiply(above, np.uint8(o), out=above), out=offsets)
        # on a tie np.maximum returns its second argument, the running max,
        # so of +0.0 and -0.0 the earlier corner's zero is kept
        running = np.maximum(corner, running, out=best)
    return best, offsets


def _scatter_2x2(values: np.ndarray, offsets: np.ndarray, out: np.ndarray | None = None,
                 ws: Workspace | None = None):
    """Each value at its recorded offset in a 2x2 block, +0.0 elsewhere; into
    `out` if given, else into an array from `ws` if given."""
    n, c, hh, ww = values.shape
    if out is None:
        out = _empty((n, c, hh * 2, ww * 2), values.dtype, ws)
    elif out.shape != (n, c, hh * 2, ww * 2) or out.dtype != values.dtype:
        raise ShapeError(f"out {out.shape} {out.dtype} != unpooled shape "
                         f"{(n, c, hh * 2, ww * 2)} {values.dtype}")
    bits = _bits(values)
    # a bitwise AND with an all-ones or all-zero mask writes a corner's
    # value or +0.0 exactly, in one pass per corner
    for o, corner in enumerate(_corners(_bits(out))):
        np.bitwise_and(bits, _corner_mask(offsets, o), out=corner)
    return out


def _gather_2x2(x: np.ndarray, offsets: np.ndarray, ws: Workspace | None) -> np.ndarray:
    """The value at each 2x2 block's recorded offset, into an array from `ws`
    if given."""
    out = _empty(offsets.shape, x.dtype, ws)
    bits = _bits(out)
    first, *rest = _corners(_bits(x))
    np.bitwise_and(first, _corner_mask(offsets, 0), out=bits)
    for o, corner in enumerate(rest, start=1):
        np.bitwise_or(bits, np.bitwise_and(corner, _corner_mask(offsets, o)), out=bits)
    return out


def maxpool2x2_backward(offsets: np.ndarray, grad_out: np.ndarray,
                        ws: Workspace | None = None):
    if grad_out.shape != offsets.shape:
        raise ShapeError(
            f"grad_out shape {grad_out.shape} != pooled shape {offsets.shape}"
        )
    return _scatter_2x2(grad_out, offsets, ws=ws)


def unpool2x2_forward(v: np.ndarray, offsets: np.ndarray, out: np.ndarray | None = None):
    """Scatter v to its pool's argmax positions, into `out` if given."""
    check_4d(v, "v")
    if v.shape != offsets.shape:
        raise ShapeError(f"values shape {v.shape} != offsets shape {offsets.shape}")
    return _scatter_2x2(v, offsets, out)


def unpool2x2_backward(offsets: np.ndarray, grad_out: np.ndarray,
                       ws: Workspace | None = None):
    n, c, hh, ww = offsets.shape
    if grad_out.shape != (n, c, hh * 2, ww * 2):
        raise ShapeError(
            f"grad_out shape {grad_out.shape} != unpooled shape {(n, c, hh*2, ww*2)}"
        )
    return _gather_2x2(grad_out, offsets, ws)
