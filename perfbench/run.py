"""synnet benchmark: seeded workloads, end-to-end metrics, traced per-layer run.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload train_siso_paper --seed 1 --seconds 30 --trace 0

With `--trace 0` the run sets the workload up, warms up with one
operation, then measures for `--seconds` with tracing off and reports the
end-to-end metrics. The set-up runs SETUP_REPEATS times in all, spread over
the measured window between operations; `setup_s` is their median. With
`--trace 1` it alternates untraced and traced operations for `--seconds`
and reports the per-layer metrics plus `trace.overhead_frac`; the spans go
to `.bench_run/trace-<workload>-seed<seed>.json`.

Every line but the last is for people: the environment, each metric with
its unit, sample counts and failures. The last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
TAIL_PERCENTILES = (75, 90, 95, 99, 99.9)


def limit_threads():
    """Run BLAS and OpenMP on one thread; return the CPUs we may use (`nproc`).

    Must run before NumPy is imported. One thread keeps the load to one
    core of a shared host and makes peak RSS repeat: with more threads,
    OpenBLAS's per-thread buffers make it jump between two levels from run
    to run.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def tail_percentile(n):
    """Highest of TAIL_PERCENTILES with at least ten of `n` samples beyond
    it, or None when even the lowest has fewer."""
    ok = [p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= 10 - 1e-9]
    return max(ok) if ok else None


def blas_threads():
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(nproc):
    import platform
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "cpu_count": os.cpu_count(),
        "nproc": nproc,
    }


def measure(workload, seconds, between):
    """Run units, cycling through the workload's unit kinds, until `seconds`
    have passed and every kind has run at least once. `between(elapsed)`
    runs after each unit, outside its timing."""
    from workloads import Tally
    tally = Tally()
    kinds = workload.unit_kinds
    start = time.perf_counter()
    k = 0
    while k < len(kinds) or time.perf_counter() - start < seconds:
        workload.run_unit(kinds[k % len(kinds)], tally)
        k += 1
        between(time.perf_counter() - start)
    return tally


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "synnet" / "__init__.py").is_file():
        print(f"error: synnet sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = limit_threads()
    sys.path.insert(0, str(ROOT / "src"))

    import workloads
    import tracing
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    env = environment(nproc)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(env))

    out_dir = ROOT / ".bench_run"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload]()
        totals = workloads.Tally()
        setup_times, fingerprints = [], set()

        def set_up():
            t0 = time.perf_counter()
            fingerprints.add(workload.setup(args.seed, str(workdir)))
            setup_times.append(time.perf_counter() - t0)

        def set_up_on_schedule(elapsed):
            # spread the repeats over the run, so that they sample the same
            # stretch of host speed as the operations do
            if (len(setup_times) < SETUP_REPEATS
                    and elapsed >= len(setup_times) * args.seconds / SETUP_REPEATS):
                set_up()

        set_up()
        workload.warm_up(totals)
        if not args.trace:
            run = measure(workload, args.seconds, set_up_on_schedule)
            while len(setup_times) < SETUP_REPEATS:
                set_up()
            metrics, lines = end_to_end(run, setup_times)
        else:
            run, metrics, lines = traced(workload, args, tracing, out_dir)
        if len(fingerprints) != 1:
            totals.add(0, 1, "set-up is not deterministic: inputs differ between repeats")
        totals.add(run.attempted, run.failed)
        totals.errors += run.errors
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = min(totals.failed, totals.attempted)
    for line in lines:
        print(line)
    print(f"  {'fail_frac':28s} {failed / max(totals.attempted, 1):.6g} "
          f"({failed} failed of {totals.attempted} operations)")
    for err in totals.errors:
        print(f"  check failed: {err}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": totals.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def end_to_end(run, setup_times):
    n = len(run.latencies)
    op_ms = [1e3 * t for t in run.latencies]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_ms_p50": (statistics.median(op_ms), "ms"),
        "img_per_s": (run.images / run.busy, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    lines = [f"  {name:28s} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"  {'setup samples (s)':28s} " + " ".join(f"{t:.4g}" for t in setup_times))
    lines.append(f"  {'op samples':28s} {n}")
    tail = tail_percentile(n)
    if tail is not None:
        import numpy as np
        lines.append(f"  {f'op_ms_p{tail:g}':28s} {np.percentile(op_ms, tail):.6g} ms")
    return metrics, lines


def layer_unit(name):
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    return {"layers.conv_calls": "count", "layers.conv_gflop_per_s": "GFLOP/s",
            "trace.overhead_frac": "frac"}[name]


def traced(workload, args, tracing, out_dir):
    """Per-layer metrics from spans, with traced and untraced units interleaved.

    Units alternate between untraced and traced, cycling through the unit
    kinds, so host speed drifts alike for both halves and the overhead
    compares like with like. The wrappers are installed for each traced
    unit and removed after it.
    """
    from synnet import cli, data, layers, loss, metrics, model, optim, persist
    from workloads import Tally
    tracer = tracing.Tracer()

    def record_tape(result, call_args):
        trace = result[1]
        if trace is not None:
            tracer.tape_bytes.append(tracing.tape_bytes(trace, call_args[1]))

    modules = {"layers": layers, "model": model, "loss": loss, "optim": optim,
               "data": data, "metrics": metrics, "persist": persist, "cli": cli}
    special = {"layers.conv2d_forward": (tracing.classify_conv_forward, None),
               "layers.conv2d_backward": (tracing.classify_conv_backward, None),
               "model.SynNetModel.forward": (None, record_tape)}
    plain, run = Tally(), Tally()
    kinds = workload.unit_kinds
    start = time.perf_counter()
    k = 0
    while k < 2 * len(kinds) or time.perf_counter() - start < args.seconds:
        kind = kinds[(k // 2) % len(kinds)]
        if k % 2 == 0:
            workload.run_unit(kind, plain)
        else:
            tracer.install(modules, special)
            try:
                workload.run_unit(kind, run, tracer)
            finally:
                tracer.uninstall()
        k += 1

    values = tracing.layer_metrics(tracer.spans, run.attempted)
    values["model.tape_bytes"] = float(max(tracer.tape_bytes, default=0))
    ckpt = getattr(workload, "ckpt", None)
    values["persist.ckpt_bytes"] = float(os.path.getsize(ckpt)) if ckpt else 0.0
    values["trace.overhead_frac"] = (statistics.median(run.latencies)
                                     / statistics.median(plain.latencies) - 1.0)
    trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(trace_path)

    out = {name: (values[name], layer_unit(name)) for name in sorted(values)}
    lines = [f"  {name:28s} {value:.6g} {unit}" for name, (value, unit) in out.items()]
    lines.append(f"  {'traced operations':28s} {run.attempted} of "
                 f"{run.attempted + plain.attempted} "
                 f"({len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)})")
    run.attempted += plain.attempted
    run.failed += plain.failed
    run.errors += plain.errors
    return run, out, lines


if __name__ == "__main__":
    sys.exit(main())
