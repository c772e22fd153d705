"""Synthetic multi-modality phantoms, augmentation, PGM I/O and datasets.

A phantom sample is a shared base field rendered into four modality images
(m1..m4, aliases t1/t2/t1c/flair) by deterministic transforms, standing in
for registered multi-contrast MR slices. Everything is seeded; the same
(seed, h, w) always produces bit-identical samples.

Dataset directory layout: <root>/<sample_id>/<modality>.pgm plus a
manifest.txt with one "id<TAB>h<TAB>w" line per sample. Every file is
written through `tensor.write_file`: to a temporary file, then renamed over
the target.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .tensor import RngStream, ShapeError, ParameterError, write_file
from .loss import _correlate_padded, _sobel_padded

MODALITIES = ("m1", "m2", "m3", "m4")
PHANTOM_MIN_SIZE = 16
MODALITY_ALIASES = {"t1": "m1", "t2": "m2", "t1c": "m3", "flair": "m4",
                    "m1": "m1", "m2": "m2", "m3": "m3", "m4": "m4"}


def canonical_modality(name: str) -> str:
    key = name.strip().lower()
    if key not in MODALITY_ALIASES:
        raise ParameterError(f"unknown modality {name!r}")
    return MODALITY_ALIASES[key]


@dataclass
class PhantomSample:
    sample_id: str
    modalities: dict          # name -> (1, 1, h, w) tensor in [0, 1]


@dataclass
class DatasetManifest:
    root: str
    sample_ids: list
    height: int
    width: int


# ---------------------------------------------------------------------------
# phantom generation
# ---------------------------------------------------------------------------

def _shape_terms(rng, low, high, h, w, radius, amp, term):
    """Draw low..high-1 shapes, five values each in one call, and return
    their row terms (k, h, 1), column terms (k, w) and amplitudes (k,).

    Per axis a shape has center c = u * size and radius
    r = (radius[0] + radius[1] * u) * size; term(t - c, r) is taken for the
    rows and the columns at once, on the coordinates t = 0, 1, ... of the
    longer side."""
    k = rng.integers(low, high)
    u = rng.random(5 * k).reshape(k, 5).T
    size = np.array([[h], [w]])
    center = (u[0:2] * size).reshape(-1, 1)
    r = ((radius[0] + radius[1] * u[2:4]) * size).reshape(-1, 1)
    terms = term(np.arange(max(h, w), dtype=np.float64) - center, r)
    return terms[:k, :h, None], terms[k:, :w], amp[0] + amp[1] * u[4]


def generate_phantom(seed: int, h: int, w: int, sample_id: str = None) -> PhantomSample:
    """Render one deterministic multi-modality phantom.

    Base field: clipped sum of 5-12 Gaussian blobs and 1-3 ellipse masks,
    normalized to [0, 1]. Modalities: m1 = base, m2 = 3x3 box blur of the
    inverted base, m3 = base plus half the normalized edge magnitude
    (clipped), m4 = sqrt(base).

    Each pixel gets the rounded results of the full-grid expressions
    amp * exp(-((y - cy)^2 / (2 sy^2) + (x - cx)^2 / (2 sx^2))) per blob and
    amp * (((y - cy) / ry)^2 + ((x - cx) / rx)^2 <= 1) per ellipse, in the
    same order, so a (seed, h, w) gives the same bits as those expressions
    on the same NumPy and CPU; only the work is shared. A blob's row and
    column terms are taken on the h row and w column coordinates, negated
    there (-a + -b == -(a + b)) and joined by one broadcast add; its exp,
    scale and accumulate run in place in one h x w work array, so working
    memory is a few h x w arrays whatever the blob count. An ellipse's
    terms are joined the same way. All blobs' draws, then all ellipses',
    come from one call each, which PCG64 makes the same stream as one call
    per value. The edge magnitude and the box blur are the loss's 3x3
    stencil (`loss._sobel_padded`, `loss._correlate_padded`), with the same
    bits as `loss.sobel_magnitude`, on one copy of base with a reflected
    border, inverted in place between them (1 - pad(base) is pad(1 - base)).
    """
    if min(h, w) < PHANTOM_MIN_SIZE:
        raise ParameterError(f"phantom size must be >= {PHANTOM_MIN_SIZE}, got {h}x{w}")
    rng = RngStream(seed)
    base = np.zeros((h, w), dtype=np.float64)
    work = np.empty((h, w), dtype=np.float64)
    rows, cols, amps = _shape_terms(rng, 5, 13, h, w, (0.05, 0.15), (0.3, 0.7),
                                    lambda d, r: -(d ** 2 / (2 * r * r)))
    for row, col, amp in zip(rows, cols, amps):
        np.add(row, col, out=work)
        np.exp(work, out=work)
        work *= amp
        base += work
    rows, cols, amps = _shape_terms(rng, 1, 4, h, w, (0.08, 0.20), (0.2, 0.4),
                                    lambda d, r: (d / r) ** 2)
    inside = np.empty((h, w), dtype=bool)
    for row, col, amp in zip(rows, cols, amps):
        np.add(row, col, out=work)
        np.less_equal(work, 1.0, out=inside)
        np.multiply(inside, amp, out=work)
        base += work
    np.minimum(base, 2.0, out=base)           # the clip to [0, 2]: base >= 0
    lo, hi = base.min(), base.max()
    if hi > lo:
        base -= lo
        base /= hi - lo
    else:
        base[...] = 0.0

    xp = np.empty((h + 2, w + 2))             # base with a reflected border
    xp[1:-1, 1:-1] = base
    xp[0, 1:-1], xp[-1, 1:-1] = base[1], base[-2]
    xp[:, 0], xp[:, -1] = xp[:, 2], xp[:, -3]
    edges = _sobel_padded(xp)
    peak = edges.max()
    if peak > 0:
        edges /= peak
    edges *= 0.5
    edges += base
    box = _correlate_padded(np.subtract(1.0, xp, out=xp), np.ones((3, 3)))
    mods = {
        "m1": base,
        "m2": box[:h, :w] / 9.0,
        "m3": np.minimum(edges, 1.0, out=edges),   # the clip to [0, 1]: edges >= 0
        "m4": np.sqrt(base),
    }
    sid = sample_id if sample_id is not None else f"s{seed:06d}"
    return PhantomSample(sid, {k: v[None, None] for k, v in mods.items()})


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

def bilinear_resize(img2d: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w = img2d.shape
    ys = np.clip((np.arange(out_h) + 0.5) * h / out_h - 0.5, 0, h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    gy, gx = 1 - fy, 1 - fx
    top, bottom = img2d[y0], img2d[y1]
    return (top[:, x0] * gy * gx + top[:, x1] * gy * fx
            + bottom[:, x0] * fy * gx + bottom[:, x1] * fy * fx)


def _center_fit(img2d: np.ndarray, h: int, w: int) -> np.ndarray:
    """Center-crop or zero-pad a 2-D image back to (h, w)."""
    ih, iw = img2d.shape
    if ih >= h:
        top = (ih - h) // 2
        img2d = img2d[top:top + h]
    if iw >= w:
        left = (iw - w) // 2
        img2d = img2d[:, left:left + w]
    ih, iw = img2d.shape
    if ih < h or iw < w:
        out = np.zeros((h, w), dtype=img2d.dtype)
        top, left = (h - ih) // 2, (w - iw) // 2
        out[top:top + ih, left:left + iw] = img2d
        return out
    return img2d


def draw_transform(rng: RngStream) -> dict:
    return {
        "hflip": rng.random() < 0.5,
        "vflip": rng.random() < 0.5,
        "rot90": rng.integers(0, 4),
        "scale": (0.9, 1.0, 1.1)[rng.integers(0, 3)],
    }


def apply_transform(t4: np.ndarray, tf: dict) -> np.ndarray:
    """`tf` applied to a (1, 1, h, w) image; the result is h x w again (a
    scale is center-fitted).  A non-square image turns by the even part of
    an odd rotation, k & 2, so that it keeps every pixel instead of a
    center-fitted w x h frame."""
    img = t4[0, 0]
    if tf["hflip"]:
        img = img[:, ::-1]
    if tf["vflip"]:
        img = img[::-1, :]
    k = tf["rot90"] if img.shape[0] == img.shape[1] else tf["rot90"] & 2
    if k:
        img = np.rot90(img, k)
    if tf["scale"] != 1.0:
        ih, iw = img.shape
        img = bilinear_resize(img, round(ih * tf["scale"]), round(iw * tf["scale"]))
    return np.ascontiguousarray(_center_fit(img, *t4.shape[2:]))[None, None]


def augment(pair, rng: RngStream):
    """One seeded flip/rotation/scale draw, applied identically to every
    input and target image of an (inputs, targets) training pair."""
    tf = draw_transform(rng)
    inputs, targets = pair
    return ([apply_transform(t, tf).astype(t.dtype) for t in inputs],
            [apply_transform(t, tf).astype(t.dtype) for t in targets])


# ---------------------------------------------------------------------------
# PGM I/O
# ---------------------------------------------------------------------------

class PgmParseError(ValueError):
    """Malformed PGM file; the message starts with the path and carries the
    byte offset."""


def save_pgm(path: str, t: np.ndarray):
    """Write a (1, 1, h, w) image of values in [0, 1] as an 8-bit PGM; a
    non-finite value, then a value outside [0, 1], raises ParameterError
    naming the path, and nothing is written."""
    if t.ndim != 4 or t.shape[0] != 1 or t.shape[1] != 1:
        raise ShapeError(f"save_pgm expects a (1,1,h,w) tensor, got {t.shape}")
    lo, hi = float(t.min()), float(t.max())     # a NaN or an inf reaches one of them
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterError(f"{path}: image has non-finite values")
    if lo < 0 or hi > 1:
        raise ParameterError(f"{path}: values outside [0, 1] (min {lo!r}, max {hi!r})")
    write_file(path, f"P5\n{t.shape[3]} {t.shape[2]}\n255\n".encode()
               + np.rint(t[0, 0] * 255.0).astype(np.uint8).tobytes())


def load_pgm(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    pos = 0

    def token():
        nonlocal pos
        while pos < len(raw):
            if raw[pos:pos + 1].isspace():
                pos += 1
            elif raw[pos:pos + 1] == b"#":
                while pos < len(raw) and raw[pos] != 0x0A:
                    pos += 1
            else:
                break
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise PgmParseError(f"{path}: unexpected end of header at byte {start}")
        return raw[start:pos], start

    magic, off = token()
    if magic != b"P5":
        raise PgmParseError(f"{path}: bad magic {magic!r} at byte {off}")
    fields = []
    for name in ("width", "height", "maxval"):
        tok, off = token()
        try:
            fields.append(int(tok))
        except ValueError:
            raise PgmParseError(f"{path}: non-numeric header field {tok!r} at byte {off}")
        if name != "maxval" and fields[-1] <= 0:
            raise PgmParseError(f"{path}: non-positive {name} {fields[-1]} at byte {off}")
    w, h, maxval = fields
    if maxval != 255:
        raise PgmParseError(f"{path}: unsupported maxval {maxval} at byte {off}")
    pos += 1  # single whitespace after maxval
    body = raw[pos:pos + h * w]
    if len(body) != h * w:
        raise PgmParseError(
            f"{path}: truncated payload at byte {pos + len(body)}: "
            f"expected {h * w} bytes, got {len(body)}")
    img = np.frombuffer(body, dtype=np.uint8).reshape(h, w)
    return (img.astype(np.float64) / 255.0)[None, None]


# ---------------------------------------------------------------------------
# padding to a pooling-compatible size
# ---------------------------------------------------------------------------

@dataclass
class CropRecord:
    top: int
    left: int
    height: int
    width: int


def pad_to_multiple(t: np.ndarray, factor: int):
    """Symmetric zero-pad up to the next multiple of `factor` in h and w."""
    n, c, h, w = t.shape
    nh = -(-h // factor) * factor
    nw = -(-w // factor) * factor
    top, left = (nh - h) // 2, (nw - w) // 2
    out = np.zeros((n, c, nh, nw), dtype=t.dtype)
    out[:, :, top:top + h, left:left + w] = t
    return out, CropRecord(top, left, h, w)


def crop_back(t: np.ndarray, rec: CropRecord) -> np.ndarray:
    return t[:, :, rec.top:rec.top + rec.height,
             rec.left:rec.left + rec.width].copy()


# ---------------------------------------------------------------------------
# dataset on disk
# ---------------------------------------------------------------------------

def write_dataset(root: str, count: int, h: int, w: int, seed: int) -> DatasetManifest:
    """Write `count` phantoms and their manifest under `root`.  Over an
    earlier dataset, the samples its manifest named and the new one does
    not are removed once the new manifest is written: their PGMs, then
    each directory if nothing else is in it."""
    os.makedirs(root, exist_ok=True)
    try:
        old = load_manifest(root).sample_ids
    except (FileNotFoundError, ParameterError):
        old = []
    ids = []
    for i in range(count):
        sid = f"s{i:04d}"
        sample = generate_phantom(seed + i, h, w, sample_id=sid)
        sdir = os.path.join(root, sid)
        os.makedirs(sdir, exist_ok=True)
        for mod in MODALITIES:
            save_pgm(os.path.join(sdir, f"{mod}.pgm"), sample.modalities[mod])
        ids.append(sid)
    write_file(os.path.join(root, "manifest.txt"),
               "".join(f"{sid}\t{h}\t{w}\n" for sid in ids).encode())
    for sid in sorted(set(old) - set(ids)):
        if sid in ("", ".", "..") or sid != os.path.basename(sid):
            continue    # not a directory of this dataset
        sdir = os.path.join(root, sid)
        for mod in MODALITIES:
            try:
                os.remove(os.path.join(sdir, f"{mod}.pgm"))
            except FileNotFoundError:
                pass
        try:
            os.rmdir(sdir)
        except OSError:
            pass        # it holds files this did not write, or is gone
    return DatasetManifest(root, ids, h, w)


def load_manifest(root: str) -> DatasetManifest:
    """The manifest of a dataset directory; a malformed one raises
    ParameterError naming its file and line."""
    path = os.path.join(root, "manifest.txt")
    ids, h, w = [], None, None
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, 1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise ParameterError(f"{path}:{lineno}: not UTF-8 text") from None
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParameterError(f"{path}:{lineno}: expected id<TAB>h<TAB>w")
            try:
                sid, hh, ww = parts[0], int(parts[1]), int(parts[2])
            except ValueError:
                raise ParameterError(
                    f"{path}:{lineno}: image size must be integers, got "
                    f"{parts[1]!r} x {parts[2]!r}") from None
            if hh <= 0 or ww <= 0:
                raise ParameterError(f"{path}:{lineno}: image size must be positive, "
                                     f"got {hh} x {ww}")
            if h is None:
                h, w = hh, ww
            elif (hh, ww) != (h, w):
                raise ParameterError(f"{path}:{lineno}: inconsistent image size")
            ids.append(sid)
    if not ids:
        raise ParameterError(f"{path}: no samples")
    return DatasetManifest(root, ids, h, w)


def load_sample(manifest: DatasetManifest, sample_id: str,
                modalities=MODALITIES) -> PhantomSample:
    """A sample's images of `modalities` (names or aliases), each file read
    once; the others are not read. An image whose size is not the
    manifest's raises ParameterError naming its path and both sizes."""
    mods = {}
    for m in dict.fromkeys(canonical_modality(m) for m in modalities):
        path = os.path.join(manifest.root, sample_id, f"{m}.pgm")
        mods[m] = img = load_pgm(path)
        if img.shape[2:] != (manifest.height, manifest.width):
            raise ParameterError(f"{path}: image is {img.shape[2]}x{img.shape[3]}, "
                                 f"manifest says {manifest.height}x{manifest.width}")
    return PhantomSample(sample_id, mods)


def split_ids(ids, train_frac: float):
    cut = max(1, int(len(ids) * train_frac))
    return ids[:cut], ids[cut:]


def training_pairs(samples, input_mods, output_mods):
    """Per-sample (inputs, targets) lists in the layout `optim.train` expects."""
    in_mods = [canonical_modality(m) for m in input_mods]
    out_mods = [canonical_modality(m) for m in output_mods]
    return [([s.modalities[m] for m in in_mods],
             [s.modalities[m] for m in out_mods]) for s in samples]

