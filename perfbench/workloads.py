"""The benchmark's workloads: what each sets up, runs and checks.

Each workload builds its inputs from the benchmark seed in `setup`, which
may run again between units with the same result, then runs units of work. A unit is one training step (train workloads), or one
`eval` pass or one pass of per-image `predict` calls (`infer_cli`). Every
operation is checked as it completes; the outcome goes into a `Tally`.

Why each workload exists is written in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

from synnet import cli, data, optim, persist
from synnet.loss import LossWeights, SsimConfig
from synnet.model import SynNetModel, Topology
from synnet.tensor import RngStream

# Joint-loss weights and learning rate the tier-1 loss-ordering test trains
# with. The documented defaults (lambda3 = 0.5, lr = 0.01) diverge on these
# configs; see README.md, "Findings".
LOSS_WEIGHTS = LossWeights(10.0, 5.0, 0.0005, 0.0001)
LR, MOMENTUM = 0.005, 0.9
BATCH = 32


@dataclass
class Tally:
    """Operations attempted and failed, and the timings they produced."""
    attempted: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)   # seconds per timed op
    images: int = 0                                 # images behind `busy`
    busy: float = 0.0                               # seconds of throughput work
    errors: list = field(default_factory=list)

    def add(self, n_ops, n_failed, error=None):
        self.attempted += n_ops
        self.failed += n_failed
        if error and len(self.errors) < 5:
            self.errors.append(error)


def checksum(*arrays_dicts):
    h = hashlib.sha256()
    for d in arrays_dicts:
        for name in sorted(d):
            h.update(name.encode())
            h.update(np.ascontiguousarray(d[name]).tobytes())
    return h.hexdigest()


def augment_pair(pair, rng):
    """One seeded flip/rotate/scale draw applied to every image of a pair."""
    tf = data.draw_transform(rng)
    inputs, targets = pair
    return ([data.apply_transform(t, tf).astype(t.dtype) for t in inputs],
            [data.apply_transform(t, tf).astype(t.dtype) for t in targets])


def _op_span(tracer, kind):
    return tracer.begin_op(kind) if tracer else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

class TrainWorkload:
    """`optim.train` for one step of BATCH images, from the same start
    every time, so each step doubles as a bit-exact rerun check."""

    unit_kinds = ("step",)

    def __init__(self, topology, size, inputs, outputs, augment):
        self.topology = topology
        self.size = size
        self.inputs, self.outputs = inputs, outputs
        self.augment = augment
        self.reference = None

    def setup(self, seed, workdir):
        samples = [data.generate_phantom(seed * 1000 + i, self.size, self.size)
                   for i in range(BATCH)]
        self.dataset = [([t.astype(np.float32) for t in ins],
                         [t.astype(np.float32) for t in outs])
                        for ins, outs in data.training_pairs(samples, self.inputs,
                                                             self.outputs)]
        self.model = SynNetModel(self.topology)
        self.params, self.state = self.model.init_params(RngStream(seed).child("init"))
        self.cfg = optim.TrainConfig(batch_size=BATCH, epochs=1, seed=seed,
                                     loss="joint", loss_weights=LOSS_WEIGHTS,
                                     ssim=SsimConfig(mode="local", window=7))
        arrays = {f"{i}.{side}.{k}": t for i, pair in enumerate(self.dataset)
                  for side in (0, 1) for k, t in enumerate(pair[side])}
        return checksum(arrays, self.params, self.state)

    def warm_up(self, tally):
        """One step before timing, so first-call costs stay out of it."""
        self.run_unit("step", tally)

    def run_unit(self, kind, tally, tracer=None):
        params = {n: a.copy() for n, a in self.params.items()}
        state = {n: a.copy() for n, a in self.state.items()}
        augment = augment_pair if self.augment else None
        if tracer and augment:
            augment = tracer.wrap(augment, "data.augment")
        error = None
        t0 = time.perf_counter()
        try:
            with _op_span(tracer, "step"):
                params, _, history = optim.train(
                    self.model, params, state, self.dataset, self.cfg,
                    optim.OptimState(lr=LR, momentum=MOMENTUM), augment_fn=augment)
        except Exception as exc:  # noqa: BLE001 - a failed step is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if error is None:
            error = self._check(history, params, state)
        tally.latencies.append(dt)
        tally.images += BATCH
        tally.busy += dt
        tally.add(1, error is not None, error)

    def _check(self, history, params, state):
        if len(history) != 1:
            return f"expected 1 training step, history has {len(history)} rows"
        if not all(math.isfinite(v) for v in history[0].values()):
            return f"non-finite loss {history[0]}"
        fingerprint = (tuple(float(history[0][k]).hex() for k in sorted(history[0])),
                       checksum(params, state))
        if self.reference is None:
            self.reference = fingerprint
        elif fingerprint != self.reference:
            return "rerun differs from the first step (loss history or parameters)"
        return None


# ---------------------------------------------------------------------------
# inference through the CLI
# ---------------------------------------------------------------------------

_PGM_HEADER = re.compile(rb"P5(?:\s|#[^\n]*\n)+(\d+)(?:\s|#[^\n]*\n)+(\d+)"
                         rb"(?:\s|#[^\n]*\n)+255\s")


def pgm_size(path):
    """(height, width) of a binary 8-bit PGM, or None if it does not parse."""
    with open(path, "rb") as f:
        raw = f.read()
    m = _PGM_HEADER.match(raw)
    if m is None:
        return None
    w, h = int(m.group(1)), int(m.group(2))
    return (h, w) if len(raw) - m.end() == h * w else None


class InferCliWorkload:
    """`synnet eval` over a generated set, then one `synnet predict` per
    image, both reading a paper-config checkpoint written at setup."""

    unit_kinds = ("eval", "predict")
    count = 128
    size = 64

    def __init__(self):
        self.reference_report = None
        self.reference_preds = {}

    def setup(self, seed, workdir):
        self.data_dir = os.path.join(workdir, "data")
        self.pred_dir = os.path.join(workdir, "pred")
        self.ckpt = os.path.join(workdir, "paper.ckpt")
        self.report = os.path.join(workdir, "report.csv")
        os.makedirs(self.pred_dir, exist_ok=True)
        manifest = data.write_dataset(self.data_dir, self.count, self.size,
                                      self.size, seed * 1000)
        topo = Topology()  # paper config: siso, depth 3, channels 32/64/64
        params, state = SynNetModel(topo).init_params(RngStream(seed).child("init"))
        cfg = persist.RunConfig(lambda3=LOSS_WEIGHTS.lambda3, lr=LR,
                                momentum=MOMENTUM, seed=seed)
        cp = persist.pack_training(topo, params, state,
                                   optim.OptimState(lr=LR, momentum=MOMENTUM),
                                   persist.format_config(cfg))
        persist.save_checkpoint(self.ckpt, cp)
        self.jobs = [(os.path.join(self.data_dir, sid, "m1.pgm"),
                      os.path.join(self.pred_dir, f"{sid}.pgm"))
                     for sid in manifest.sample_ids]
        self.sample_ids = manifest.sample_ids
        h = hashlib.sha256()
        for root, _, files in sorted(os.walk(self.data_dir)):
            for name in sorted(files):
                with open(os.path.join(root, name), "rb") as f:
                    h.update(f.read())
        with open(self.ckpt, "rb") as f:
            h.update(f.read())
        return h.hexdigest()

    def warm_up(self, tally):
        """One predict call before timing, so first-call costs stay out of it."""
        self._predict(self.jobs[0], tally, None)

    def run_unit(self, kind, tally, tracer=None):
        if kind == "eval":
            self._eval(tally, tracer)
        else:
            for job in self.jobs:
                self._predict(job, tally, tracer)

    def _eval(self, tally, tracer):
        if os.path.exists(self.report):
            os.remove(self.report)
        argv = ["eval", "--ckpt", self.ckpt, "--data", self.data_dir,
                "--report", self.report]
        t0 = time.perf_counter()
        with _op_span(tracer, "eval"), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        dt = time.perf_counter() - t0
        tally.images += self.count
        tally.busy += dt
        bad, error = self._check_report(rc)
        tally.add(self.count, bad, error)

    def _check_report(self, rc):
        """(failed rows, first error) for the report an eval pass wrote."""
        if rc != 0 or not os.path.exists(self.report):
            return self.count, f"eval returned {rc} without a report"
        with open(self.report, "rb") as f:
            raw = f.read()
        rows = list(csv.reader(io.StringIO(raw.decode())))
        body = rows[1:]
        if len(body) != self.count + 1:
            return self.count, f"eval wrote {len(body)} rows, expected {self.count + 1}"
        if self.reference_report is None:
            self.reference_report = raw
        elif raw != self.reference_report:
            return self.count, "eval report differs from the first pass"
        bad = 0
        for sid, row in zip(self.sample_ids, body):
            try:
                ok = (row[0] == sid and row[1] == "0"
                      and all(math.isfinite(float(v)) for v in row[2:4]))
            except (IndexError, ValueError):
                ok = False
            bad += not ok
        return bad, (f"{bad} eval rows malformed or non-finite" if bad else None)

    def _predict(self, job, tally, tracer):
        src, dst = job
        if os.path.exists(dst):
            os.remove(dst)
        argv = ["predict", "--ckpt", self.ckpt, "--input", src, "--output", dst]
        t0 = time.perf_counter()
        with _op_span(tracer, "predict"), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        dt = time.perf_counter() - t0
        tally.latencies.append(dt)
        error = None
        if rc != 0 or not os.path.exists(dst):
            error = f"predict returned {rc} for {src}"
        elif pgm_size(dst) != (self.size, self.size):
            error = f"predict output {dst} is not a {self.size}x{self.size} PGM"
        else:
            with open(dst, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            if self.reference_preds.setdefault(src, digest) != digest:
                error = f"predict output for {src} differs from the first call"
        tally.add(1, error is not None, error)


# name -> factory
WORKLOADS = {
    "train_siso_paper": lambda: TrainWorkload(
        Topology(kind="siso", depth=3, channels=(32, 64, 64), final_width=64),
        64, ["m1"], ["m2"], augment=False),
    "train_mimo_slim": lambda: TrainWorkload(
        Topology(kind="mimo", depth=3, channels=(8, 16, 16), final_width=16),
        32, ["m1", "m3"], ["m2", "m4"], augment=True),
    "infer_cli": InferCliWorkload,
}
