import csv
import errno
import io
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from synnet import cli, data, optim, tensor, verify
from synnet.cli import HISTORY_COLUMNS, main
from synnet.data import load_pgm, save_pgm, generate_phantom
from synnet.metrics import psnr, ssim_standard
from synnet.model import SynNetModel
from synnet.persist import load_checkpoint, save_checkpoint, unpack_training


TRAIN_CFG = """
topology = siso
depth = 2
channels = 4,6
final_width = 4
loss = l2
lr = 0.05
momentum = 0.9
batch_size = 4
epochs = 2
seed = 7
input_modalities = m1
output_modalities = m2
train_frac = 0.8
"""


def _gen(tmp_path, count=5, size="16x16", seed=0):
    root = str(tmp_path / "data")
    assert main(["gen-data", "--out", root, "--count", str(count),
                 "--size", size, "--seed", str(seed)]) == 0
    return root


def _train(tmp_path, data_root, tag="run", extra_cfg=""):
    cfg_path = str(tmp_path / f"{tag}.cfg")
    with open(cfg_path, "w") as f:
        f.write(TRAIN_CFG + extra_cfg)
    ckpt = str(tmp_path / f"{tag}.ckpt")
    hist = str(tmp_path / f"{tag}.csv")
    assert main(["train", "--config", cfg_path, "--data", data_root,
                 "--out", ckpt, "--history", hist]) == 0
    return ckpt, hist


def test_gen_data_writes_expected_layout(tmp_path):
    root = _gen(tmp_path, count=3)
    assert sorted(os.listdir(root)) == ["manifest.txt", "s0000", "s0001", "s0002"]
    for sid in ("s0000", "s0001", "s0002"):
        assert sorted(os.listdir(os.path.join(root, sid))) == \
            ["m1.pgm", "m2.pgm", "m3.pgm", "m4.pgm"]
    img = load_pgm(os.path.join(root, "s0000", "m1.pgm"))
    assert img.shape == (1, 1, 16, 16)


def test_gen_data_deterministic_bytes(tmp_path):
    r1 = _gen(tmp_path / "a", count=2, seed=9)
    r2 = _gen(tmp_path / "b", count=2, seed=9)
    for sid in ("s0000", "s0001"):
        for mod in ("m1", "m2", "m3", "m4"):
            b1 = open(os.path.join(r1, sid, f"{mod}.pgm"), "rb").read()
            b2 = open(os.path.join(r2, sid, f"{mod}.pgm"), "rb").read()
            assert b1 == b2


def test_train_writes_checkpoint_and_history(tmp_path, capsys):
    root = _gen(tmp_path)
    ckpt, hist = _train(tmp_path, root)
    out = capsys.readouterr().out
    assert "final train PSNR=" in out

    cp = load_checkpoint(ckpt)
    assert cp.topology.kind == "siso" and cp.topology.depth == 2
    assert any(n.startswith("param.") for n in cp.tensors)
    assert any(n.startswith("velocity.") for n in cp.tensors)

    with open(hist) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["iter", "epoch", "l2", "ssim", "tv", "wd", "total"]
    # 4 train samples (80% of 5), batch 4 -> 1 iteration/epoch, 2 epochs
    assert len(rows) == 1 + 2
    assert [r[0] for r in rows[1:]] == ["1", "2"]


def test_train_is_bit_deterministic(tmp_path):
    root = _gen(tmp_path)
    c1, h1 = _train(tmp_path, root, tag="r1")
    c2, h2 = _train(tmp_path, root, tag="r2")
    assert open(c1, "rb").read() == open(c2, "rb").read()
    assert open(h1).read() == open(h2).read()


def test_train_with_augmentation_is_deterministic_and_augments(tmp_path):
    root = _gen(tmp_path)
    a1, h1 = _train(tmp_path, root, tag="a1", extra_cfg="augment = true\n")
    a2, h2 = _train(tmp_path, root, tag="a2", extra_cfg="augment = true\n")
    plain, hp = _train(tmp_path, root, tag="plain", extra_cfg="augment = false\n")
    assert open(a1, "rb").read() == open(a2, "rb").read()
    assert open(h1).read() == open(h2).read()
    assert open(h1).read() != open(hp).read()
    # the config echo differs too, so compare the trained weights alone
    aug, ref = load_checkpoint(a1).tensors, load_checkpoint(plain).tensors
    assert any(not np.array_equal(aug[n], ref[n]) for n in ref if n.startswith("param."))


def test_train_rejects_config_value_outside_allowed_set(tmp_path, capsys):
    root = _gen(tmp_path, count=2)
    cfg_path = str(tmp_path / "half.cfg")
    with open(cfg_path, "w") as f:
        f.write("lr = 0.05\ndtype = half\n")
    rc = main(["train", "--config", cfg_path, "--data", root,
               "--out", str(tmp_path / "x.ckpt")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        f"error: ConfigError: {cfg_path}:2: dtype must be one of single, double")


def test_train_resume_matches_single_run(tmp_path):
    root = _gen(tmp_path)
    full_ckpt, _ = _train(tmp_path, root, tag="full", extra_cfg="epochs = 4\n")
    half_ckpt, _ = _train(tmp_path, root, tag="half", extra_cfg="epochs = 2\n")
    cfg_path = str(tmp_path / "resume.cfg")
    with open(cfg_path, "w") as f:
        f.write(TRAIN_CFG + "epochs = 4\n")
    resumed = str(tmp_path / "resumed.ckpt")
    assert main(["train", "--config", cfg_path, "--data", root,
                 "--out", resumed, "--resume", half_ckpt]) == 0
    assert open(full_ckpt, "rb").read() == open(resumed, "rb").read()


@pytest.mark.parametrize("ckpt_cfg, resume_cfg, message", [
    ("channels = 4,8\n", "", "channels = 4,6, checkpoint 4,8"),
    ("", "dtype = double\n", "dtype = double, checkpoint single"),
], ids=["topology", "dtype"])
def test_train_resume_rejects_a_config_that_differs_from_the_checkpoint(
        tmp_path, capsys, ckpt_cfg, resume_cfg, message):
    root = _gen(tmp_path)
    half_ckpt, _ = _train(tmp_path, root, tag="half", extra_cfg=ckpt_cfg)
    cfg_path = str(tmp_path / "resume.cfg")
    with open(cfg_path, "w") as f:
        f.write(TRAIN_CFG + resume_cfg + "epochs = 4\n")
    resumed = str(tmp_path / "resumed.ckpt")
    capsys.readouterr()
    assert main(["train", "--config", cfg_path, "--data", root,
                 "--out", resumed, "--resume", half_ckpt]) == 1
    assert capsys.readouterr().err == (
        f"error: ConfigError: {cfg_path}: does not match the checkpoint it resumes: "
        f"{message}\n")
    assert not os.path.exists(resumed)


def test_predict_pads_and_crops_back(tmp_path, capsys):
    root = _gen(tmp_path)
    ckpt, _ = _train(tmp_path, root)
    # 13x15 is not divisible by 2^depth=4; predict must pad and crop back
    img = generate_phantom(50, 16, 16).modalities["m1"][:, :, :13, :15]
    in_path = str(tmp_path / "in.pgm")
    out_path = str(tmp_path / "out.pgm")
    save_pgm(in_path, img)
    assert main(["predict", "--ckpt", ckpt, "--input", in_path,
                 "--output", out_path]) == 0
    pred = load_pgm(out_path)
    assert pred.shape == (1, 1, 13, 15)
    assert pred.min() >= 0.0 and pred.max() <= 1.0


def test_predict_rejects_wrong_file_count(tmp_path, capsys):
    root = _gen(tmp_path)
    ckpt, _ = _train(tmp_path, root)
    capsys.readouterr()
    rc = main(["predict", "--ckpt", ckpt, "--input", "a.pgm,b.pgm",
               "--output", "c.pgm"])
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: ParameterError: --input: siso needs 1 file(s), got 2\n"
    assert main(["predict", "--ckpt", ckpt, "--input", "a.pgm",
                 "--output", "c.pgm,d.pgm"]) == 1
    assert capsys.readouterr().err == \
        "error: ParameterError: --output: siso needs 1 file(s), got 2\n"


def _nan_head_bias(tmp_path, ckpt):
    """A copy of the checkpoint whose head bias is NaN, so every prediction is."""
    cp = load_checkpoint(ckpt)
    cp.tensors["param.head.arm0.conv.bias"][...] = np.nan
    path = str(tmp_path / "nan.ckpt")
    save_checkpoint(path, cp)
    return path


def test_predict_fails_by_name_on_a_non_finite_prediction(tmp_path, capsys):
    root = _gen(tmp_path)
    ckpt = _nan_head_bias(tmp_path, _train(tmp_path, root)[0])
    out_path = str(tmp_path / "out.pgm")
    capsys.readouterr()
    assert main(["predict", "--ckpt", ckpt, "--input", os.path.join(root, "s0000", "m1.pgm"),
                 "--output", out_path]) == 1
    assert capsys.readouterr().err == \
        f"error: ParameterError: {out_path}: image has non-finite values\n"
    assert not os.path.exists(out_path)


def test_eval_names_the_sample_and_head_of_a_non_finite_prediction(tmp_path, capsys):
    root = _gen(tmp_path)
    ckpt = _nan_head_bias(tmp_path, _train(tmp_path, root)[0])
    capsys.readouterr()
    assert main(["eval", "--ckpt", ckpt, "--data", root,
                 "--report", str(tmp_path / "report.csv")]) == 1
    assert capsys.readouterr().err == \
        "error: ParameterError: sample s0000 head 0: prediction has non-finite values\n"


def test_train_and_eval_read_only_the_configured_modalities(tmp_path):
    root = _gen(tmp_path)
    ckpt, _ = _train(tmp_path, root, tag="full")
    report = str(tmp_path / "full.csv")
    assert main(["eval", "--ckpt", ckpt, "--data", root, "--report", report]) == 0
    for sid in data.load_manifest(root).sample_ids:
        for mod in ("m3", "m4"):
            os.remove(os.path.join(root, sid, f"{mod}.pgm"))
    # aliases name the same files as the config's m1 -> m2
    ckpt2, _ = _train(tmp_path, root, tag="alias",
                      extra_cfg="input_modalities = t1\noutput_modalities = t2\n")
    report2 = str(tmp_path / "alias.csv")
    assert main(["eval", "--ckpt", ckpt2, "--data", root, "--report", report2]) == 0
    assert open(report, "rb").read() == open(report2, "rb").read()
    assert main(["eval", "--ckpt", ckpt, "--data", root, "--report", report2]) == 0
    assert open(report, "rb").read() == open(report2, "rb").read()


def test_eval_memory_does_not_grow_with_the_dataset(tmp_path):
    # eval holds one sample at a time, so its tracemalloc peak over 32
    # samples is within one sample's decoded images of its peak over 4
    import tracemalloc
    from synnet import persist
    from synnet.model import Topology
    from synnet.optim import OptimState
    from synnet.tensor import RngStream
    h = w = 32
    topo = Topology(kind="siso", depth=2, channels=(4, 6), final_width=4)
    params, state = SynNetModel(topo).init_params(RngStream(0).child("init"))
    ckpt = str(tmp_path / "m.ckpt")
    save_checkpoint(ckpt, persist.pack_training(
        topo, params, state, OptimState(), persist.format_config(persist.RunConfig(
            depth=2, channels=(4, 6), final_width=4))))
    peaks = {}
    for count in (4, 32, 4, 32):    # the first pass of each makes what later ones reuse
        root = str(tmp_path / f"data{count}")
        if not os.path.exists(root):
            data.write_dataset(root, count, h, w, seed=0)
        tracemalloc.start()
        try:
            assert main(["eval", "--ckpt", ckpt, "--data", root,
                         "--report", str(tmp_path / "r.csv")]) == 0
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    one_sample = len(data.MODALITIES) * h * w * 8
    assert abs(peaks[32] - peaks[4]) < one_sample, peaks


def test_gen_data_rejects_bad_size_syntax(tmp_path, capsys):
    rc = main(["gen-data", "--out", str(tmp_path / "d"), "--count", "1", "--size", "64"])
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: ParameterError: --size: bad size syntax '64', expected HxW\n"


@pytest.mark.parametrize("count", ["0", "-3"])
def test_gen_data_rejects_a_count_below_one_before_writing(tmp_path, capsys, count):
    out = tmp_path / "d"
    assert main(["gen-data", "--out", str(out), "--count", count, "--size", "16x16"]) == 1
    assert capsys.readouterr().err == \
        f"error: ParameterError: --count: must be >= 1, got {count}\n"
    assert not out.exists()


def test_gen_data_names_the_size_flag_of_a_phantom_below_16(tmp_path, capsys):
    rc = main(["gen-data", "--out", str(tmp_path / "d"), "--count", "1", "--size", "15x16"])
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: ParameterError: --size: phantom size must be >= 16, got 15x16\n"
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_an_image_whose_size_is_not_the_manifests_fails_by_its_path(tmp_path, capsys,
                                                                    command):
    root = _gen(tmp_path, count=3)
    ckpt, _ = _train(tmp_path, root)
    bad = os.path.join(root, "s0001", "m2.pgm")       # in the train split
    save_pgm(bad, np.zeros((1, 1, 16, 20)))
    capsys.readouterr()
    argv = {"train": ["train", "--config", str(tmp_path / "run.cfg"), "--data", root,
                      "--out", str(tmp_path / "again.ckpt")],
            "eval": ["eval", "--ckpt", ckpt, "--data", root,
                     "--report", str(tmp_path / "r.csv")]}[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == \
        f"error: ParameterError: {bad}: image is 16x20, manifest says 16x16\n"


def _fail_writes_to(monkeypatch, target):
    """Make every file `tensor.write_file` opens for `target` (the target
    itself or a temporary file beside it) stop halfway with ENOSPC."""
    class FullDisk(io.FileIO):
        def write(self, b):
            super().write(bytes(b)[:len(b) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    def fake_open(path, mode="r", *args, **kwargs):
        if path == target or path.startswith(f"{target}."):
            return FullDisk(path, "w")
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(tensor, "open", fake_open, raising=False)


@pytest.mark.parametrize("output", ["checkpoint", "pgm", "manifest", "history", "report"])
def test_failed_write_keeps_the_earlier_file(tmp_path, monkeypatch, capsys, output):
    root = _gen(tmp_path)
    ckpt, hist = _train(tmp_path, root)
    other, _ = _train(tmp_path, root, tag="other", extra_cfg="seed = 8\n")
    report, pred = str(tmp_path / "report.csv"), str(tmp_path / "pred.pgm")
    m1 = os.path.join(root, "s0000", "m1.pgm")
    assert main(["eval", "--ckpt", ckpt, "--data", root, "--report", report]) == 0
    assert main(["predict", "--ckpt", ckpt, "--input", m1, "--output", pred]) == 0
    # each output, and a command that would write other bytes to it
    path, argv = {
        "checkpoint": (ckpt, ["train", "--config", str(tmp_path / "other.cfg"),
                              "--data", root, "--out", ckpt]),
        "pgm": (pred, ["predict", "--ckpt", other, "--input", m1, "--output", pred]),
        "manifest": (os.path.join(root, "manifest.txt"),
                     ["gen-data", "--out", root, "--count", "3", "--size", "16x16"]),
        "history": (hist, ["train", "--config", str(tmp_path / "other.cfg"), "--data", root,
                           "--out", str(tmp_path / "third.ckpt"), "--history", hist]),
        "report": (report, ["eval", "--ckpt", other, "--data", root, "--report", report]),
    }[output]
    before = open(path, "rb").read()
    capsys.readouterr()
    _fail_writes_to(monkeypatch, path)
    assert main(argv) == 1
    assert capsys.readouterr().err == \
        "error: OSError: [Errno 28] No space left on device\n"
    assert open(path, "rb").read() == before
    assert list(tmp_path.rglob("*.tmp")) == []
    monkeypatch.undo()
    assert main(argv) == 0
    assert open(path, "rb").read() != before


# frozen copies of the in-place writers that `tensor.write_file` replaced: it
# must give their bytes

def _in_place_save_pgm(path, t):
    h, w = t.shape[2], t.shape[3]
    payload = np.rint(t[0, 0] * 255.0).astype(np.uint8).tobytes()
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(payload)


def _in_place_manifest(root, ids, h, w):
    with open(os.path.join(root, "manifest.txt"), "w") as f:
        for sid in ids:
            f.write(f"{sid}\t{h}\t{w}\n")


def _in_place_history(path, history):
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(HISTORY_COLUMNS)
        for row in history:
            wr.writerow([cli._fmt(row[c]) for c in HISTORY_COLUMNS])


def _in_place_report(path, rows):
    mean_psnr = float(np.mean([r[2] for r in rows]))
    mean_ssim = float(np.mean([r[3] for r in rows]))
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(("sample_id", "head", "psnr_db", "ssim"))
        for sid, head, p, s in rows:
            wr.writerow((sid, head, cli._fmt(p), cli._fmt(s)))
        wr.writerow(("mean", "all", cli._fmt(mean_psnr), cli._fmt(mean_ssim)))


def test_every_writer_gives_the_bytes_of_the_in_place_writers(tmp_path, monkeypatch):
    root = _gen(tmp_path, count=3, size="16x20", seed=4)
    ref = tmp_path / "ref"
    for i, sid in enumerate(("s0000", "s0001", "s0002")):
        sample = generate_phantom(4 + i, 16, 20, sample_id=sid)
        for mod in data.MODALITIES:
            _in_place_save_pgm(str(ref), sample.modalities[mod])
            assert open(os.path.join(root, sid, f"{mod}.pgm"), "rb").read() == \
                ref.read_bytes()
    edges = np.array([0.0, 1.0, 0.5, 1 / 510, 0.3, np.nextafter(1.0, 0.0)])
    img = np.resize(edges, (1, 1, 3, 7))
    save_pgm(str(tmp_path / "edges.pgm"), img)
    _in_place_save_pgm(str(ref), img)
    assert (tmp_path / "edges.pgm").read_bytes() == ref.read_bytes()
    os.makedirs(ref.with_suffix(".d"))
    _in_place_manifest(str(ref.with_suffix(".d")), ["s0000", "s0001", "s0002"], 16, 20)
    assert open(os.path.join(root, "manifest.txt"), "rb").read() == \
        (ref.with_suffix(".d") / "manifest.txt").read_bytes()

    seen = {}
    train, scores = optim.train, cli._scores

    def spy_train(*args, **kwargs):
        result = train(*args, **kwargs)
        seen["history"] = result[2]
        return result

    def spy_scores(*args):
        seen["rows"] = list(scores(*args))
        return iter(seen["rows"])

    monkeypatch.setattr(optim, "train", spy_train)
    monkeypatch.setattr(cli, "_scores", spy_scores)
    ckpt, hist = _train(tmp_path, root)
    _in_place_history(str(ref), seen["history"])
    assert open(hist, "rb").read() == ref.read_bytes()
    report = tmp_path / "report.csv"
    assert main(["eval", "--ckpt", ckpt, "--data", root, "--report", str(report)]) == 0
    _in_place_report(str(ref), seen["rows"])
    assert report.read_bytes() == ref.read_bytes()


def test_eval_report_layout_and_means(tmp_path):
    root = _gen(tmp_path)
    ckpt, _ = _train(tmp_path, root)
    report = str(tmp_path / "report.csv")
    assert main(["eval", "--ckpt", ckpt, "--data", root,
                 "--report", report]) == 0
    with open(report) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["sample_id", "head", "psnr_db", "ssim"]
    assert len(rows) == 1 + 5 + 1                    # header, 5 samples, mean
    assert rows[-1][0] == "mean"
    psnrs = [float(r[2]) for r in rows[1:-1]]
    ssims = [float(r[3]) for r in rows[1:-1]]
    assert float(rows[-1][2]) == pytest.approx(np.mean(psnrs), abs=1e-9)
    assert float(rows[-1][3]) == pytest.approx(np.mean(ssims), abs=1e-9)


def test_eval_and_train_score_only_the_unpadded_image(tmp_path, capsys):
    # 18x18 is not a multiple of 2^depth=4: the model sees 20x20 zero-padded
    # inputs, and the scores must cover the 18x18 image alone
    root = _gen(tmp_path, size="18x18")
    ckpt, _ = _train(tmp_path, root)
    train_line = capsys.readouterr().out
    report = str(tmp_path / "report.csv")
    assert main(["eval", "--ckpt", ckpt, "--data", root,
                 "--report", report]) == 0
    with open(report) as f:
        rows = list(csv.reader(f))[1:-1]

    cp = load_checkpoint(ckpt)
    params, state, _ = unpack_training(cp, 0.05, 0.9)
    model = SynNetModel(cp.topology)
    manifest = data.load_manifest(root)
    scores = []
    for sid, row in zip(manifest.sample_ids, rows):
        sample = data.load_sample(manifest, sid)
        x, rec = data.pad_to_multiple(sample.modalities["m1"].astype(np.float32), 4)
        preds, _ = model.forward(params, state, [x], mode="infer")
        pred = data.crop_back(preds[0], rec)
        targ = sample.modalities["m2"].astype(np.float32)
        assert pred.shape == targ.shape == (1, 1, 18, 18)
        scores.append((psnr(pred, targ), ssim_standard(pred, targ)))
        assert row[:2] == [sid, "0"]
        assert (float(row[2]), float(row[3])) == scores[-1]

    n_train = len(data.split_ids(manifest.sample_ids, 0.8)[0])
    m = re.search(r"final train PSNR=(\S+) dB SSIM=(\S+)", train_line)
    assert float(m[1]) == np.mean([p for p, _ in scores[:n_train]])
    assert float(m[2]) == np.mean([s for _, s in scores[:n_train]])


def test_gradcheck_command_exit_code(capsys, monkeypatch, suite_results):
    # the suite's results at seed 0, shared with the tests that check them
    monkeypatch.setattr(verify, "gradcheck_suite", suite_results)
    assert main(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert f"{len(suite_results(0))}/{len(suite_results(0))} checks passed" in out
    assert "FAIL" not in out
    failing = verify.CheckResult("model/x", 1.0, 1e-5)
    monkeypatch.setattr(verify, "gradcheck_suite", lambda seed: [*suite_results(seed), failing])
    assert main(["gradcheck", "--seed", "0"]) == 1
    assert "FAIL  model/x" in capsys.readouterr().out


def test_errors_reported_with_nonzero_exit(tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "missing.cfg"),
               "--data", "nowhere", "--out", str(tmp_path / "x.ckpt")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_console_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "synnet.cli", "gen-data",
                           "--out", str(tmp_path / "smoke"), "--count", "1",
                           "--size", "16x16", "--seed", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "wrote 1 samples" in proc.stdout
