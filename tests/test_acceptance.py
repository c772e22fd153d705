"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line; thresholds and run settings are pinned here. The training-based
criteria use 32x32 synthetic phantoms (20 training samples, 5 held-out)
and a slim single-input network so the whole suite stays within a few
minutes on one CPU core.
"""

import time

import numpy as np

from synnet import data as data_mod
from synnet import metrics, optim, persist, verify
from synnet.layers import (conv2d_forward, maxpool2x2_forward,
                           unpool2x2_forward)
from synnet.loss import LossWeights
from synnet.model import Topology, SynNetModel
from synnet.optim import OptimState, TrainConfig
from synnet.tensor import RngStream


def _report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} [{name}] {detail}")
    assert ok, f"{name}: {detail}"


# -- shared training fixtures ------------------------------------------------

SLIM_TOPO = dict(kind="siso", depth=3, channels=(8, 16, 16), final_width=16)


def _phantom_pairs(seeds, in_mod, out_mod, size=32):
    samples = [data_mod.generate_phantom(s, size, size) for s in seeds]
    pairs = data_mod.training_pairs(samples, [in_mod], [out_mod])
    return [([x.astype(np.float32) for x in a],
             [t.astype(np.float32) for t in b]) for a, b in pairs]


def _fit(pairs, loss, lr, epochs, seed=1, weights=None, topo_kw=None):
    topo = Topology(**(topo_kw or SLIM_TOPO))
    model = SynNetModel(topo)
    params, state = model.init_params(RngStream(seed))
    cfg = TrainConfig(batch_size=32, epochs=epochs, seed=seed, loss=loss,
                      loss_weights=weights or LossWeights())
    opt = OptimState(lr=lr, momentum=0.9)
    params, opt, history = optim.train(model, params, state, pairs, cfg, opt)
    return model, params, state, history


def _held_out_scores(model, params, state, pairs):
    psnrs, ssims = [], []
    for inputs, targets in pairs:
        preds, _ = model.forward(params, state,
                                 [x.astype(np.float32) for x in inputs],
                                 mode="infer")
        for pred, targ in zip(preds, targets):
            psnrs.append(metrics.psnr(pred, targ))
            ssims.append(metrics.ssim_standard(pred, targ))
    return float(np.mean(psnrs)), float(np.mean(ssims))


# -- 1. gradient integrity ----------------------------------------------------

def test_acceptance_gradient_integrity():
    t0 = time.time()
    results = verify.gradcheck_suite(seed=0)
    elapsed = time.time() - t0
    failed = [r.name for r in results if not r.passed]
    worst = max(r.max_err / r.tol for r in results)
    _report("gradient-integrity", not failed and elapsed < 120.0,
            f"{len(results) - len(failed)}/{len(results)} checks, "
            f"worst err/tol={worst:.2e}, {elapsed:.1f}s")


# -- 2. oracle equivalence ----------------------------------------------------

def test_acceptance_oracle_equivalence():
    rng = RngStream(100)
    conv_worst = 0.0
    for i in range(50):
        k = 3 if i % 2 == 0 else 1
        in_c, out_c = 1 + i % 3, 1 + (i + 1) % 3
        x = rng.uniform((2, in_c, 5, 5), -1, 1, dtype="double")
        w = rng.uniform((out_c, in_c, k, k), -1, 1, dtype="double")
        b = rng.uniform((out_c,), -1, 1, dtype="double")
        fast, _ = conv2d_forward(x, w, b)
        conv_worst = max(conv_worst,
                         verify.max_rel_err(fast, verify.conv_oracle(x, w, b)))

    pool_ok = True
    for i in range(1000):
        x = rng.uniform((1, 1, 4, 4), -1, 1, dtype="double")
        pooled, offsets = maxpool2x2_forward(x)
        op, oo = verify.maxpool_oracle(x)
        pool_ok &= np.array_equal(pooled, op) and np.array_equal(offsets, oo)

    pred = rng.uniform((1, 1, 14, 14), 0, 1, dtype="double")
    targ = rng.uniform((1, 1, 14, 14), 0, 1, dtype="double")
    ssim_diff = abs(metrics.ssim_standard(pred, targ)
                    - verify.ssim_standard_oracle(pred, targ))

    ok = conv_worst < 1e-12 and pool_ok and ssim_diff < 1e-10
    _report("oracle-equivalence", ok,
            f"conv worst={conv_worst:.2e} (50 cases), maxpool exact on 1000, "
            f"ssim diff={ssim_diff:.2e}")


# -- 3. structure preservation ------------------------------------------------

def test_acceptance_structure_preservation(tmp_path):
    rng = RngStream(200)

    # unpool places values exactly and zeros everywhere else
    x = rng.uniform((2, 3, 8, 8), 0, 1, dtype="double")
    pooled, offsets = maxpool2x2_forward(x)
    up = unpool2x2_forward(pooled, offsets)
    placed_ok = np.count_nonzero(up) == pooled.size
    re_pooled, _ = maxpool2x2_forward(up)
    roundtrip_ok = np.array_equal(re_pooled, pooled)

    # padding and cropping restores the original bit-for-bit
    odd = rng.uniform((1, 1, 181, 181), 0, 1, dtype="double")
    padded, rec = data_mod.pad_to_multiple(odd, 8)
    pad_ok = (padded.shape == (1, 1, 184, 184)
              and np.array_equal(data_mod.crop_back(padded, rec), odd))

    # checkpoint save/load roundtrip is bit-exact
    topo = Topology(kind="siso", depth=1, channels=(4,), final_width=4)
    model = SynNetModel(topo)
    params, state = model.init_params(RngStream(7))
    opt = OptimState(velocity={n: np.full_like(p, 0.25)
                               for n, p in params.items()},
                     iteration=11, epoch=2)
    cp = persist.pack_training(topo, params, state, opt, "seed = 7\n")
    path = str(tmp_path / "rt.ckpt")
    persist.save_checkpoint(path, cp)
    back = persist.load_checkpoint(path)
    ckpt_ok = (list(back.tensors) == list(cp.tensors)
               and all(np.array_equal(back.tensors[n], cp.tensors[n])
                       and back.tensors[n].dtype == cp.tensors[n].dtype
                       for n in cp.tensors))

    ok = placed_ok and roundtrip_ok and pad_ok and ckpt_ok
    _report("structure-preservation", ok,
            f"unpool placement={placed_ok}, pool-unpool roundtrip={roundtrip_ok}, "
            f"pad/crop={pad_ok}, checkpoint bit-exact={ckpt_ok}")


# -- 4. metric sanity -----------------------------------------------------------

def test_acceptance_metric_sanity():
    rng = RngStream(300)
    x = rng.uniform((1, 1, 16, 16), 0, 1, dtype="double")
    ssim_self = metrics.ssim_standard(x, x)
    psnr_self = metrics.psnr(x, x)

    target = np.zeros((1, 1, 10, 10))
    pred = np.full((1, 1, 10, 10), 0.1)           # MSE exactly 0.01
    psnr20 = metrics.psnr(pred, target)

    noise = np.random.default_rng(300).standard_normal((1, 1, 16, 16))
    vals = [metrics.psnr(x + s * noise, x) for s in (0.01, 0.02, 0.05, 0.1)]
    monotone = all(a > b for a, b in zip(vals, vals[1:]))

    ok = (ssim_self == 1.0 and psnr_self == float("inf")
          and abs(psnr20 - 20.0) < 1e-9 and monotone)
    _report("metric-sanity", ok,
            f"ssim(x,x)={ssim_self}, psnr(x,x)={psnr_self}, "
            f"psnr@mse0.01={psnr20:.12f}, noise-monotone={monotone}")


# -- 5. SGD correctness ---------------------------------------------------------

def test_acceptance_sgd_correctness():
    # hand-computed two-step trajectory
    params = {"w": np.array([1.0])}
    st = OptimState(lr=0.01, momentum=0.9)
    optim.sgd_step(params, {"w": np.array([0.1])}, st)
    optim.sgd_step(params, {"w": np.array([0.1])}, st)
    hand_ok = (abs(st.velocity["w"][0] - 0.0019) < 1e-12
               and abs(params["w"][0] - 0.9971) < 1e-12)

    # zero momentum reduces to plain gradient descent
    rng = RngStream(400)
    p0 = rng.uniform((3, 2, 3, 3), -1, 1, dtype="double")
    g0 = rng.uniform((3, 2, 3, 3), -1, 1, dtype="double")
    params = {"w": p0.copy()}
    optim.sgd_step(params, {"w": g0}, OptimState(lr=0.05, momentum=0.0))
    plain_ok = np.array_equal(params["w"], p0 - 0.05 * g0)

    # constant gradient follows the geometric-series velocity identity
    lr, rho, g = 0.01, 0.9, 0.3
    params = {"w": np.array([0.0])}
    st = OptimState(lr=lr, momentum=rho)
    geo_ok = True
    for k in range(1, 11):
        optim.sgd_step(params, {"w": np.array([g])}, st)
        expect = lr * g * (1 - rho ** k) / (1 - rho)
        geo_ok &= abs(st.velocity["w"][0] - expect) < 1e-12

    ok = hand_ok and plain_ok and geo_ok
    _report("sgd-correctness", ok,
            f"hand-computed={hand_ok}, plain-gd={plain_ok}, geometric={geo_ok}")


# -- 6. determinism -------------------------------------------------------------

def test_acceptance_determinism(tmp_path):
    pairs = _phantom_pairs(range(100, 110), "m1", "m2")

    def run_and_save(tag, epochs, resume_from=None):
        topo = Topology(**SLIM_TOPO)
        model = SynNetModel(topo)
        if resume_from is None:
            params, state = model.init_params(RngStream(1))
            opt = OptimState(lr=0.05, momentum=0.9)
        else:
            cp = persist.load_checkpoint(resume_from)
            params, state, opt = persist.unpack_training(cp, 0.05, 0.9)
        cfg = TrainConfig(batch_size=32, epochs=epochs, seed=1, loss="l2")
        params, opt, history = optim.train(model, params, state, pairs, cfg, opt)
        path = str(tmp_path / f"{tag}.ckpt")
        persist.save_checkpoint(
            path, persist.pack_training(topo, params, state, opt, "seed = 1\n"))
        return path, [row["total"] for row in history]

    p1, h1 = run_and_save("a", 20)
    p2, h2 = run_and_save("b", 20)
    identical = (open(p1, "rb").read() == open(p2, "rb").read() and h1 == h2)

    half, _ = run_and_save("half", 10)
    resumed, _ = run_and_save("resumed", 20, resume_from=half)
    resume_ok = open(p1, "rb").read() == open(resumed, "rb").read()

    _report("determinism", identical and resume_ok,
            f"identical reruns={identical}, resumed==uninterrupted={resume_ok}")


# -- 7. toy convergence ---------------------------------------------------------

def test_acceptance_convergence_identity():
    train_pairs = _phantom_pairs(range(100, 120), "m1", "m1")
    test_pairs = _phantom_pairs(range(900, 905), "m1", "m1")
    # two pooling stages: reconstruction fidelity through the unpooling path
    # is the limiting factor for the identity task, not model capacity
    topo = dict(kind="siso", depth=2, channels=(8, 16), final_width=16)
    model, params, state, history = _fit(train_pairs, "l2", lr=0.2,
                                         epochs=450, topo_kw=topo)
    psnr_db, _ = _held_out_scores(model, params, state, test_pairs)
    iters = history[-1]["iter"]
    _report("convergence-identity", psnr_db >= 35.0 and iters <= 500,
            f"held-out PSNR={psnr_db:.2f} dB (need >= 35.0) in {iters} iterations")


def test_acceptance_convergence_cross_modal():
    train_pairs = _phantom_pairs(range(100, 120), "m1", "m2")
    test_pairs = _phantom_pairs(range(900, 905), "m1", "m2")
    model, params, state, history = _fit(train_pairs, "l2", lr=0.2, epochs=450)
    psnr_db, _ = _held_out_scores(model, params, state, test_pairs)
    iters = history[-1]["iter"]
    _report("convergence-cross-modal", psnr_db >= 22.0 and iters <= 2000,
            f"held-out PSNR={psnr_db:.2f} dB (need >= 22.0) in {iters} iterations")


# -- 8. loss-ordering trend -------------------------------------------------------

def test_acceptance_loss_ordering_trend():
    train_pairs = _phantom_pairs(range(100, 120), "m1", "m2")
    test_pairs = _phantom_pairs(range(900, 905), "m1", "m2")
    lam = LossWeights(10.0, 5.0, 0.0005, 0.0001)
    settings = {"l2": 0.05, "weighted_l2": 0.05, "joint": 0.005}
    means = {}
    for loss, lr in settings.items():
        scores = []
        for seed in (1, 2, 3, 4, 5):
            model, params, state, _ = _fit(train_pairs, loss, lr=lr,
                                           epochs=120, seed=seed, weights=lam)
            _, ssim = _held_out_scores(model, params, state, test_pairs)
            scores.append(ssim)
        means[loss] = float(np.mean(scores))
    margin = 0.005
    ok = (means["joint"] >= means["weighted_l2"] - margin
          and means["weighted_l2"] >= means["l2"] - margin)
    _report("loss-ordering-trend", ok,
            f"mean held-out SSIM over 5 seeds: joint={means['joint']:.4f} "
            f">= weighted_l2={means['weighted_l2']:.4f} "
            f">= l2={means['l2']:.4f} (margin {margin})")


# -- 9. topology coverage ---------------------------------------------------------

def test_acceptance_topology_coverage():
    samples = [data_mod.generate_phantom(500 + s, 16, 16) for s in range(8)]
    details = []
    ok = True
    for kind, in_mods, out_mods in (("miso", ["m1", "m3"], ["m2"]),
                                    ("mimo", ["m1", "m2"], ["m3", "m4"])):
        pairs = data_mod.training_pairs(samples, in_mods, out_mods)
        pairs = [([x.astype(np.float32) for x in a],
                  [t.astype(np.float32) for t in b]) for a, b in pairs]
        topo = Topology(kind=kind, depth=2, channels=(4, 8), final_width=8)
        model = SynNetModel(topo)
        params, state = model.init_params(RngStream(3))
        cfg = TrainConfig(batch_size=4, epochs=3, seed=3, loss="l2")
        opt = OptimState(lr=0.05, momentum=0.9)
        params, opt, history = optim.train(model, params, state, pairs, cfg, opt)

        by_epoch = {}
        for row in history:
            by_epoch.setdefault(row["epoch"], []).append(row["total"])
        epoch_means = [float(np.mean(v)) for _, v in sorted(by_epoch.items())]
        finite = all(np.isfinite(epoch_means))
        decreasing = epoch_means[-1] < epoch_means[0]

        inputs = [s.astype(np.float32) for s in pairs[0][0]]
        preds, _ = model.forward(params, state, inputs, mode="infer")
        shapes_ok = (len(preds) == topo.out_arms
                     and all(p.shape == (1, 1, 16, 16) for p in preds))

        ok &= finite and decreasing and shapes_ok
        details.append(f"{kind}: finite={finite}, epoch-loss "
                       f"{epoch_means[0]:.4f}->{epoch_means[-1]:.4f}, "
                       f"shapes={shapes_ok}")
    _report("topology-coverage", ok, "; ".join(details))
