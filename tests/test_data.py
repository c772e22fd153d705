import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from synnet.data import (MODALITIES, canonical_modality, generate_phantom,
                         bilinear_resize, draw_transform, apply_transform,
                         augment, PgmParseError, save_pgm, load_pgm,
                         pad_to_multiple, crop_back, write_dataset,
                         load_manifest, load_sample, split_ids,
                         training_pairs)
from synnet.tensor import RngStream, ShapeError, ParameterError

from stencil_oracle import _oracle_correlate3x3, _oracle_sobel_magnitude


# ---------------------------------------------------------------------------
# modalities and phantoms
# ---------------------------------------------------------------------------

def test_modality_aliases():
    assert canonical_modality("T1") == "m1"
    assert canonical_modality("t2") == "m2"
    assert canonical_modality("t1c") == "m3"
    assert canonical_modality("FLAIR") == "m4"
    assert canonical_modality("m3") == "m3"
    with pytest.raises(ParameterError):
        canonical_modality("t9")


def test_phantom_deterministic_and_in_range():
    a = generate_phantom(17, 32, 32)
    b = generate_phantom(17, 32, 32)
    for m in MODALITIES:
        assert a.modalities[m].shape == (1, 1, 32, 32)
        assert np.array_equal(a.modalities[m], b.modalities[m])
        assert a.modalities[m].min() >= 0.0
        assert a.modalities[m].max() <= 1.0


def test_phantom_seeds_differ():
    a = generate_phantom(1, 32, 32)
    b = generate_phantom(2, 32, 32)
    assert np.any(a.modalities["m1"] != b.modalities["m1"])


def test_phantom_modalities_derive_from_shared_base():
    s = generate_phantom(5, 32, 32)
    m1 = s.modalities["m1"]
    assert np.allclose(s.modalities["m4"], np.sqrt(m1))
    assert s.modalities["m1"].max() == pytest.approx(1.0)
    assert s.modalities["m1"].min() == pytest.approx(0.0)
    # m2 inverts the base: bright regions of m1 are dark in m2
    corr = np.corrcoef(m1.ravel(), s.modalities["m2"].ravel())[0, 1]
    assert corr < -0.9


def test_phantom_rejects_tiny_sizes():
    with pytest.raises(ParameterError):
        generate_phantom(0, 8, 32)


# The full-grid phantom that generate_phantom replaced, on the np.pad stencil
# of `stencil_oracle`, kept verbatim as the oracle of its bit-identity
# contract. NumPy's SIMD exp may round differently on another CPU, so the
# tests compare against this oracle run here, never against stored digests.

def _oracle_phantom(seed, h, w):
    rng = RngStream(seed)
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    base = np.zeros((h, w), dtype=np.float64)
    for _ in range(rng.integers(5, 13)):
        cy, cx = rng.random() * h, rng.random() * w
        sy = (0.05 + 0.15 * rng.random()) * h
        sx = (0.05 + 0.15 * rng.random()) * w
        amp = 0.3 + 0.7 * rng.random()
        base += amp * np.exp(-((yy - cy) ** 2 / (2 * sy * sy)
                               + (xx - cx) ** 2 / (2 * sx * sx)))
    for _ in range(rng.integers(1, 4)):
        cy, cx = rng.random() * h, rng.random() * w
        ry = (0.08 + 0.20 * rng.random()) * h
        rx = (0.08 + 0.20 * rng.random()) * w
        amp = 0.2 + 0.4 * rng.random()
        mask = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
        base += amp * mask
    base = np.clip(base, 0.0, 2.0)
    lo, hi = base.min(), base.max()
    if hi > lo:
        base = (base - lo) / (hi - lo)
    else:
        base = np.zeros_like(base)

    b4 = base[None, None]
    edges = _oracle_sobel_magnitude(b4)
    peak = edges.max()
    if peak > 0:
        edges = edges / peak
    mods = {
        "m1": b4,
        "m2": _oracle_correlate3x3(1.0 - b4, np.ones((3, 3))) / 9.0,
        "m3": np.clip(b4 + 0.5 * edges, 0.0, 1.0),
        "m4": np.sqrt(b4),
    }
    return {k: v.astype(np.float64) for k, v in mods.items()}


@pytest.mark.parametrize("h, w", [(16, 16), (17, 16), (18, 22), (16, 40),
                                  (32, 32), (64, 64), (128, 96)])
def test_phantom_matches_full_grid_oracle_bit_for_bit(h, w):
    for seed in range(200):
        got = generate_phantom(seed, h, w).modalities
        want = _oracle_phantom(seed, h, w)
        assert list(got) == list(want) == list(MODALITIES)
        for m in MODALITIES:
            assert got[m].shape == (1, 1, h, w) and got[m].dtype == np.float64
            assert got[m].tobytes() == want[m].tobytes(), (seed, m)


def test_rng_block_draw_is_the_single_draw_stream():
    one_by_one = RngStream(7)
    singles = [one_by_one.random() for _ in range(12)]
    block = RngStream(7)
    assert block.random(5).tolist() + block.random(7).tolist() == singles


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

def test_bilinear_resize_identity_and_constant():
    img = RngStream(1).uniform((8, 8), 0, 1, dtype="double")
    assert np.allclose(bilinear_resize(img, 8, 8), img)
    const = np.full((6, 6), 0.3)
    assert np.allclose(bilinear_resize(const, 9, 9), 0.3)


def _bilinear_resize_ix(img2d, out_h, out_w):
    # the np.ix_ gather that bilinear_resize replaced, as its oracle
    h, w = img2d.shape
    ys = np.clip((np.arange(out_h) + 0.5) * h / out_h - 0.5, 0, h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    a = img2d[np.ix_(y0, x0)]
    b = img2d[np.ix_(y0, x1)]
    c = img2d[np.ix_(y1, x0)]
    d = img2d[np.ix_(y1, x1)]
    return (a * (1 - fy) * (1 - fx) + b * (1 - fy) * fx
            + c * fy * (1 - fx) + d * fy * fx)


@pytest.mark.parametrize("h, w", [(32, 32), (16, 24), (17, 9)])
@pytest.mark.parametrize("scale", [0.9, 1.1])
@pytest.mark.parametrize("dtype", ["single", "double"])
def test_bilinear_resize_matches_index_gather_bit_for_bit(h, w, scale, dtype):
    img = RngStream(h * w).uniform((h, w), 0, 1, dtype=dtype)
    out_h, out_w = round(h * scale), round(w * scale)
    got = bilinear_resize(img, out_h, out_w)
    want = _bilinear_resize_ix(img, out_h, out_w)
    assert got.shape == (out_h, out_w) and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_apply_transform_hflip():
    t = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
    out = apply_transform(t, {"hflip": True, "vflip": False,
                              "rot90": 0, "scale": 1.0})
    assert np.array_equal(out[0, 0], t[0, 0, :, ::-1])


def test_apply_transform_identity():
    t = RngStream(2).uniform((1, 1, 8, 8), 0, 1, dtype="double")
    out = apply_transform(t, {"hflip": False, "vflip": False,
                              "rot90": 0, "scale": 1.0})
    assert np.array_equal(out, t)


def test_apply_transform_preserves_shape_under_scaling():
    for shape in ((1, 1, 10, 10), (1, 1, 10, 14)):
        t = RngStream(3).uniform(shape, 0, 1, dtype="double")
        for rot90 in range(4):
            for scale in (0.9, 1.0, 1.1):
                out = apply_transform(t, {"hflip": False, "vflip": False,
                                          "rot90": rot90, "scale": scale})
                assert out.shape == t.shape


def test_apply_transform_rotates_non_square_image_without_zero_fill():
    t = np.arange(1, 16 * 24 + 1, dtype=np.float64).reshape(1, 1, 16, 24)
    square = RngStream(4).uniform((1, 1, 16, 16), 0, 1, dtype="double")
    for rot90 in range(4):
        tf = {"hflip": False, "vflip": False, "rot90": rot90, "scale": 1.0}
        out = apply_transform(t, tf)
        # odd turns become their even part: 1 -> 0, 3 -> 180 degrees
        assert np.array_equal(out[0, 0], np.rot90(t[0, 0], rot90 & 2))
        assert np.array_equal(np.sort(out, axis=None), np.sort(t, axis=None))
        # a square image turns by the full rotation
        assert np.array_equal(apply_transform(square, tf)[0, 0], np.rot90(square[0, 0], rot90))


def test_augment_applies_same_transform_to_all_modalities():
    s = generate_phantom(9, 16, 16)
    pair = training_pairs([s], ("m1", "m3"), ("m2", "m4"))[0]
    pair = ([t.astype(np.float32) for t in pair[0]], pair[1])
    inputs, targets = augment(pair, RngStream(33))
    tf = draw_transform(RngStream(33))
    assert tf != {"hflip": False, "vflip": False, "rot90": 0, "scale": 1.0}
    for got, orig in zip(inputs + targets, pair[0] + pair[1]):
        assert got.dtype == orig.dtype
        assert np.array_equal(got, apply_transform(orig, tf).astype(orig.dtype))
    # the same seed draws the same transform
    again = augment(pair, RngStream(33))
    assert all(np.array_equal(a, b) for a, b in zip(inputs + targets, again[0] + again[1]))


def test_draw_transform_deterministic():
    assert draw_transform(RngStream(4)) == draw_transform(RngStream(4))


# ---------------------------------------------------------------------------
# PGM I/O
# ---------------------------------------------------------------------------

def test_pgm_roundtrip_exact_at_8bit(tmp_path):
    img = (np.arange(64).reshape(1, 1, 8, 8) % 256) / 255.0
    path = str(tmp_path / "a.pgm")
    save_pgm(path, img)
    back = load_pgm(path)
    assert np.array_equal(back, img)


def test_pgm_header_and_comment_handling(tmp_path):
    path = str(tmp_path / "b.pgm")
    with open(path, "wb") as f:
        f.write(b"P5\n# a comment line\n3 2\n255\n" + bytes(range(6)))
    img = load_pgm(path)
    assert img.shape == (1, 1, 2, 3)
    assert img[0, 0, 1, 2] == pytest.approx(5 / 255.0)


def test_pgm_bad_magic_reports_offset(tmp_path):
    path = str(tmp_path / "c.pgm")
    with open(path, "wb") as f:
        f.write(b"P2\n2 2\n255\n" + bytes(4))
    with pytest.raises(PgmParseError, match="byte 0"):
        load_pgm(path)


def test_pgm_error_starts_with_its_path(tmp_path):
    path = str(tmp_path / "f.pgm")
    with open(path, "wb") as f:
        f.write(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(PgmParseError) as exc:
        load_pgm(path)
    assert str(exc.value) == f"{path}: truncated payload at byte 18: expected 16 bytes, got 7"


def test_pgm_truncated_payload(tmp_path):
    path = str(tmp_path / "d.pgm")
    with open(path, "wb") as f:
        f.write(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(PgmParseError, match="truncated"):
        load_pgm(path)


def test_pgm_unsupported_maxval(tmp_path):
    path = str(tmp_path / "e.pgm")
    with open(path, "wb") as f:
        f.write(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(PgmParseError, match="maxval"):
        load_pgm(path)


@pytest.mark.parametrize("header, field", [(b"P5 -4 -4 255\n", "width -4 at byte 3"),
                                           (b"P5 0 7 255\n", "width 0 at byte 3"),
                                           (b"P5 7 0 255\n", "height 0 at byte 5")],
                         ids=["negative", "zero-width", "zero-height"])
def test_pgm_non_positive_size_reports_offset(tmp_path, header, field):
    path = str(tmp_path / "z.pgm")
    with open(path, "wb") as f:
        f.write(header + bytes(16))
    with pytest.raises(PgmParseError, match=field):
        load_pgm(path)


def test_save_pgm_rejects_out_of_range(tmp_path):
    path = str(tmp_path / "f.pgm")
    for lo, hi in [(0.25, 1.5), (-0.5, 0.75)]:
        img = np.full((1, 1, 2, 2), 0.5)
        img[0, 0, 0, 0], img[0, 0, 1, 1] = lo, hi
        with pytest.raises(ParameterError,
                           match="^" + re.escape(f"{path}: values outside [0, 1] "
                                                 f"(min {lo!r}, max {hi!r})") + "$"):
            save_pgm(path, img)
        assert not os.path.exists(path)
    with pytest.raises(ShapeError):
        save_pgm(str(tmp_path / "g.pgm"), np.zeros((1, 2, 2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_pgm_rejects_non_finite_values_before_writing(tmp_path, bad):
    path = str(tmp_path / "f.pgm")
    img = np.full((1, 1, 2, 2), 0.5)
    img[0, 0, 1, 0] = bad
    with pytest.raises(ParameterError, match=f"^{re.escape(path)}: "):
        save_pgm(path, img)
    assert not os.path.exists(path)


# ---------------------------------------------------------------------------
# padding
# ---------------------------------------------------------------------------

def test_pad_to_multiple_181_by_8():
    t = RngStream(5).uniform((1, 1, 181, 181), 0, 1, dtype="double")
    padded, rec = pad_to_multiple(t, 8)
    assert padded.shape == (1, 1, 184, 184)
    assert (rec.top, rec.left, rec.height, rec.width) == (1, 1, 181, 181)
    assert np.array_equal(padded[:, :, 1:182, 1:182], t)
    assert padded[0, 0, 0].sum() == 0.0              # zero border
    assert np.array_equal(crop_back(padded, rec), t)


def test_pad_to_multiple_noop_when_aligned():
    t = RngStream(6).uniform((2, 3, 16, 16), 0, 1, dtype="double")
    padded, rec = pad_to_multiple(t, 8)
    assert padded.shape == t.shape
    assert np.array_equal(crop_back(padded, rec), t)


# ---------------------------------------------------------------------------
# dataset on disk
# ---------------------------------------------------------------------------

def test_write_and_load_dataset_roundtrip(tmp_path):
    root = str(tmp_path / "ds")
    manifest = write_dataset(root, 3, 16, 16, seed=100)
    assert manifest.sample_ids == ["s0000", "s0001", "s0002"]
    loaded = load_manifest(root)
    assert loaded.sample_ids == manifest.sample_ids
    assert (loaded.height, loaded.width) == (16, 16)
    s = load_sample(loaded, "s0001")
    # disk roundtrip is exact at 8-bit quantization
    orig = generate_phantom(101, 16, 16, sample_id="s0001")
    for m in MODALITIES:
        quantized = np.rint(orig.modalities[m] * 255.0) / 255.0
        assert np.allclose(s.modalities[m], quantized, atol=1e-12)


def test_rewriting_a_dataset_renames_new_files_over_the_old(tmp_path):
    # a hard link to an old file keeps the old bytes: the rewrite made new
    # files and renamed them over the old names, it did not write in place
    root = str(tmp_path / "ds")
    write_dataset(root, 2, 16, 16, seed=100)
    files = [os.path.join(root, sid, f"{m}.pgm") for sid in ("s0000", "s0001")
             for m in MODALITIES] + [os.path.join(root, "manifest.txt")]
    old = {}
    for i, p in enumerate(files):
        os.link(p, tmp_path / f"old{i}")
        old[p] = open(p, "rb").read()
    write_dataset(root, 2, 16, 16, seed=200)
    for i, p in enumerate(files):
        assert (tmp_path / f"old{i}").read_bytes() == old[p]
    assert any(open(p, "rb").read() != old[p] for p in files)
    assert sorted(os.listdir(root)) == ["manifest.txt", "s0000", "s0001"]
    assert sorted(os.listdir(os.path.join(root, "s0000"))) == \
        [f"{m}.pgm" for m in MODALITIES]


def test_a_smaller_dataset_over_a_larger_removes_the_samples_it_drops(tmp_path):
    # the samples the old manifest named and the new one does not lose
    # their PGMs, and their directory unless something else is in it
    root = str(tmp_path / "ds")
    write_dataset(root, 5, 16, 16, seed=100)
    with open(os.path.join(root, "s0004", "notes.txt"), "w") as f:
        f.write("not written by write_dataset")
    os.mkdir(os.path.join(root, "other"))
    manifest = write_dataset(root, 3, 16, 16, seed=100)
    assert manifest.sample_ids == load_manifest(root).sample_ids == ["s0000", "s0001", "s0002"]
    assert sorted(os.listdir(root)) == ["manifest.txt", "other", "s0000", "s0001", "s0002",
                                        "s0004"]
    assert os.listdir(os.path.join(root, "s0004")) == ["notes.txt"]
    assert sorted(os.listdir(os.path.join(root, "s0002"))) == [f"{m}.pgm" for m in MODALITIES]


def test_load_sample_reads_only_the_named_modalities(tmp_path):
    root = str(tmp_path / "ds")
    manifest = write_dataset(root, 1, 16, 16, seed=100)
    for m in ("m3", "m4"):
        os.remove(os.path.join(root, "s0000", f"{m}.pgm"))
    # aliases are canonicalised and each file is read once
    s = load_sample(manifest, "s0000", ("t2", "m1", "m2", "T1"))
    assert list(s.modalities) == ["m2", "m1"]
    full = generate_phantom(100, 16, 16).modalities
    for m in ("m1", "m2"):
        assert np.array_equal(s.modalities[m], np.rint(full[m] * 255.0) / 255.0)
    with pytest.raises(FileNotFoundError):
        load_sample(manifest, "s0000")


def test_load_manifest_rejects_malformed(tmp_path):
    root = tmp_path / "bad"
    root.mkdir()
    (root / "manifest.txt").write_text("s0000 16 16\n")
    with pytest.raises(ParameterError, match=r"manifest\.txt:1"):
        load_manifest(str(root))


def test_load_manifest_rejects_non_integer_size(tmp_path):
    root = tmp_path / "bad"
    root.mkdir()
    (root / "manifest.txt").write_text("s0000\t16\t16\ns0001\tx\t16\n")
    with pytest.raises(ParameterError, match=r"manifest\.txt:2: image size"):
        load_manifest(str(root))


def test_load_manifest_rejects_non_utf8_line(tmp_path):
    root = tmp_path / "bad"
    root.mkdir()
    (root / "manifest.txt").write_bytes(b"s0000\t16\t16\ns\xff001\t16\t16\n")
    with pytest.raises(ParameterError, match=r"manifest\.txt:2: not UTF-8"):
        load_manifest(str(root))


@pytest.mark.parametrize("text", ["s0000\t-64\t0\n", "s0000\t16\t0\n"],
                         ids=["negative", "zero-width"])
def test_load_manifest_rejects_non_positive_size(tmp_path, text):
    root = tmp_path / "bad"
    root.mkdir()
    (root / "manifest.txt").write_text(text)
    with pytest.raises(ParameterError, match=r"manifest\.txt:1: image size must be positive"):
        load_manifest(str(root))


def test_load_manifest_rejects_empty(tmp_path):
    root = tmp_path / "bad"
    root.mkdir()
    (root / "manifest.txt").write_text("\n")
    with pytest.raises(ParameterError, match="no samples"):
        load_manifest(str(root))


# Single-bit flips and truncations of a saved file: each must load a
# non-empty result or fail by name; any other exception fails the test.

def _pgm_bytes(tmp_path):
    path = str(tmp_path / "src.pgm")
    save_pgm(path, (np.arange(12).reshape(1, 1, 3, 4) * 20) / 255.0)
    return open(path, "rb").read()


def _manifest_bytes(tmp_path):
    write_dataset(str(tmp_path / "src"), 2, 16, 16, seed=0)
    return (tmp_path / "src" / "manifest.txt").read_bytes()


def _flipped(raw, bit):
    raw = bytearray(raw)
    b = bit % (8 * len(raw))
    raw[b // 8] ^= 1 << b % 8
    return bytes(raw)


def _load_pgm_or_fail_by_name(path):
    try:
        img = load_pgm(path)
    except PgmParseError:
        return
    assert img.ndim == 4 and img.size > 0


def _load_manifest_or_fail_by_name(root):
    try:
        m = load_manifest(root)
    except ParameterError:
        return
    assert m.sample_ids and m.height > 0 and m.width > 0


_CORRUPT = dict(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@settings(**_CORRUPT)
@given(bit=st.integers(min_value=0, max_value=8 * 23 - 1))
def test_pgm_single_bit_flip_loads_or_fails_by_name(tmp_path, bit):
    path = tmp_path / "flip.pgm"
    path.write_bytes(_flipped(_pgm_bytes(tmp_path), bit))
    _load_pgm_or_fail_by_name(str(path))


@settings(**_CORRUPT)
@given(keep=st.integers(min_value=0, max_value=23))
def test_pgm_truncation_loads_or_fails_by_name(tmp_path, keep):
    path = tmp_path / "cut.pgm"
    path.write_bytes(_pgm_bytes(tmp_path)[:keep])
    _load_pgm_or_fail_by_name(str(path))


@settings(**_CORRUPT)
@given(bit=st.integers(min_value=0, max_value=8 * 24 - 1))
def test_manifest_single_bit_flip_loads_or_fails_by_name(tmp_path, bit):
    root = tmp_path / "flip"
    root.mkdir(exist_ok=True)
    (root / "manifest.txt").write_bytes(_flipped(_manifest_bytes(tmp_path), bit))
    _load_manifest_or_fail_by_name(str(root))


@settings(**_CORRUPT)
@given(keep=st.integers(min_value=0, max_value=24))
def test_manifest_truncation_loads_or_fails_by_name(tmp_path, keep):
    root = tmp_path / "cut"
    root.mkdir(exist_ok=True)
    (root / "manifest.txt").write_bytes(_manifest_bytes(tmp_path)[:keep])
    _load_manifest_or_fail_by_name(str(root))


def test_split_ids():
    ids = [f"s{i}" for i in range(10)]
    train, test = split_ids(ids, 0.8)
    assert len(train) == 8 and len(test) == 2
    assert train + test == ids
    train, test = split_ids(["only"], 0.5)
    assert train == ["only"] and test == []


def test_training_pairs_layout():
    samples = [generate_phantom(s, 16, 16) for s in (1, 2)]
    pairs = training_pairs(samples, ("t1", "t2"), ("flair",))
    assert len(pairs) == 2
    inputs, targets = pairs[0]
    assert len(inputs) == 2 and len(targets) == 1
    assert np.array_equal(inputs[0], samples[0].modalities["m1"])
    assert np.array_equal(targets[0], samples[0].modalities["m4"])

