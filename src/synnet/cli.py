"""Batch command-line interface.

Subcommands: gen-data (write a phantom dataset), train (fit a model and
emit a checkpoint plus per-iteration loss CSV), predict (synthesize images
from PGM inputs), eval (PSNR/SSIM report CSV), gradcheck (run the
verification suite). Every command is deterministic given its flags.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

import numpy as np

from . import data, metrics, optim, persist, verify
from .model import SynNetModel
from .tensor import DTYPES, ParameterError, RngStream, write_file

HISTORY_COLUMNS = ("iter", "epoch", "l2", "ssim", "tv", "wd", "total")


def _fmt(v) -> str:
    if isinstance(v, float):
        return "inf" if v == float("inf") else f"{v:.17g}"
    return str(v)


def _parse_size(text: str):
    try:
        h, w = text.lower().split("x")
        return int(h), int(w)
    except ValueError:
        raise ParameterError(f"--size: bad size syntax {text!r}, expected HxW") from None


def _load_config(path: str) -> persist.RunConfig:
    """The run config in the file at `path`; its errors read `<path>:<line>: ...`."""
    try:
        with open(path) as f:
            return persist.parse_config(f.read())
    except persist.ConfigError as exc:
        raise persist.ConfigError(f"{path}:{str(exc).split(' ', 1)[1]}") from None


def _pairs(manifest, sample_ids, cfg):
    """Per sample id, in turn, its (inputs, targets) pair in the configured
    dtype; only the modalities the config names are read."""
    dtype = DTYPES[cfg.dtype]
    mods = (*cfg.input_modalities, *cfg.output_modalities)
    for sid in sample_ids:
        [(inputs, targets)] = data.training_pairs(
            [data.load_sample(manifest, sid, mods)],
            cfg.input_modalities, cfg.output_modalities)
        # rebound, so the decoded images are freed before the yield
        inputs = [t.astype(dtype) for t in inputs]
        targets = [t.astype(dtype) for t in targets]
        yield inputs, targets


def _scores(model, params, state, sample_ids, pairs):
    """(sample id, head, PSNR, SSIM) per head of each pair, one infer forward
    at a time; a non-finite prediction raises ParameterError naming both."""
    for sid, (inputs, targets) in zip(sample_ids, pairs):
        preds, _ = model.forward(params, state, inputs, mode="infer")
        for head, (pred, targ) in enumerate(zip(preds, targets)):
            if not np.isfinite(pred).all():
                raise ParameterError(f"sample {sid} head {head}: prediction has "
                                     "non-finite values")
            yield sid, head, metrics.psnr(pred, targ), metrics.ssim_standard(pred, targ)


def _write_csv(path, header, rows):
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    write_file(path, buf.getvalue().encode())


def cmd_gen_data(args) -> int:
    h, w = _parse_size(args.size)
    if args.count < 1:
        raise ParameterError(f"--count: must be >= 1, got {args.count}")
    if min(h, w) < data.PHANTOM_MIN_SIZE:
        raise ParameterError(f"--size: phantom size must be >= {data.PHANTOM_MIN_SIZE}, "
                             f"got {h}x{w}")
    manifest = data.write_dataset(args.out, args.count, h, w, args.seed)
    print(f"wrote {len(manifest.sample_ids)} samples ({h}x{w}) to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    topo = persist.topology_from_config(cfg)
    tcfg = persist.train_config_from_config(cfg)
    model = SynNetModel(topo)

    if args.resume:
        cp = persist.load_checkpoint(args.resume)
        persist.check_resume(cfg, cp, args.config)
        params, state, opt_state = persist.unpack_training(cp, cfg.lr, cfg.momentum)
    else:
        params, state = model.init_params(RngStream(cfg.seed).child("init"),
                                          dtype=cfg.dtype)
        opt_state = optim.OptimState(lr=cfg.lr, momentum=cfg.momentum)

    manifest = data.load_manifest(args.data)
    train_ids, _ = data.split_ids(manifest.sample_ids, cfg.train_frac)
    dataset = list(_pairs(manifest, train_ids, cfg))

    augment_fn = data.augment if cfg.augment else None
    params, opt_state, history = optim.train(
        model, params, state, dataset, tcfg, opt_state, augment_fn=augment_fn)

    cp = persist.pack_training(topo, params, state, opt_state,
                               persist.format_config(cfg))
    persist.save_checkpoint(args.out, cp)
    if args.history:
        _write_csv(args.history, HISTORY_COLUMNS,
                   ([_fmt(row[c]) for c in HISTORY_COLUMNS] for row in history))

    # final train-set quality, infer mode
    _, _, psnrs, ssims = zip(*_scores(model, params, state, train_ids, dataset))
    print(f"final train PSNR={_fmt(float(np.mean(psnrs)))} dB "
          f"SSIM={_fmt(float(np.mean(ssims)))}")
    return 0


def _restore_model(ckpt_path):
    cp = persist.load_checkpoint(ckpt_path)
    cfg = persist.parse_config(cp.config_text) if cp.config_text else persist.RunConfig()
    params, state, _ = persist.unpack_training(cp, cfg.lr, cfg.momentum)
    return SynNetModel(cp.topology), params, state, cfg


def cmd_predict(args) -> int:
    model, params, state, cfg = _restore_model(args.ckpt)
    topo = model.topology
    in_files = args.input.split(",")
    out_files = args.output.split(",")
    for flag, files, arms in (("--input", in_files, topo.in_arms),
                              ("--output", out_files, topo.out_arms)):
        if len(files) != arms:
            raise ParameterError(f"{flag}: {topo.kind} needs {arms} file(s), got {len(files)}")
    dtype = DTYPES[cfg.dtype]
    inputs = [data.load_pgm(path).astype(dtype) for path in in_files]
    preds, _ = model.forward(params, state, inputs, mode="infer")
    for pred, path in zip(preds, out_files):
        data.save_pgm(path, np.clip(pred.astype(np.float64), 0.0, 1.0))
        print(f"wrote {path}")
    return 0


def cmd_eval(args) -> int:
    model, params, state, cfg = _restore_model(args.ckpt)
    manifest = data.load_manifest(args.data)
    ids = manifest.sample_ids
    # one sample at a time: only the report rows grow with the dataset
    rows = list(_scores(model, params, state, ids, _pairs(manifest, ids, cfg)))
    mean_psnr = float(np.mean([r[2] for r in rows]))
    mean_ssim = float(np.mean([r[3] for r in rows]))
    _write_csv(args.report, ("sample_id", "head", "psnr_db", "ssim"),
               [*((sid, head, _fmt(p), _fmt(s)) for sid, head, p, s in rows),
                ("mean", "all", _fmt(mean_psnr), _fmt(mean_ssim))])
    print(f"evaluated {len(rows)} prediction(s): "
          f"mean PSNR={_fmt(mean_psnr)} dB SSIM={_fmt(mean_ssim)}")
    return 0


def cmd_gradcheck(args) -> int:
    results = verify.gradcheck_suite(args.seed)
    print(verify.format_report(results))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="synnet")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic phantom dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--size", required=True, help="HxW, e.g. 64x64")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--resume", default=None)
    p.add_argument("--history", default=None, help="per-iteration loss CSV")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="synthesize images from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--input", required=True, help="PGM file(s), comma separated")
    p.add_argument("--output", required=True, help="PGM file(s), comma separated")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="PSNR/SSIM report over a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True, help="output CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="run the gradient verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single reporting point
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
