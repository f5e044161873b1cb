#!/usr/bin/env python3
"""Benchmark for conjlogit: one workload per process.

    python3 perfbench/run.py --workload cold-start --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  A run repeats whole rounds of the workload's timed
operations until ``--seconds`` is used up, checks the program's outputs
against independent references, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` rounds
alternate between untraced and traced, and the metrics are per layer.
Reported times are scaled to a reference host speed by a calibration loop
timed before each operation (calibration.py).  See README.md in this
directory.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the host has two cores and a
# threaded BLAS makes timings depend on what else runs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
import traceback

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")

# Samples a percentile needs before it is reported (ten beyond the p90).
P90_MIN_SAMPLES = 100

END_TO_END_UNITS = {"setup_s": "s", "fit_s": "s", "peak_rss_mb": "MB", "accuracy_digits": "digits"}
FAMILIES = ("gamma_mixture", "point_mass_gamma", "generalized_mv_gamma", "cheriyan_ramabhadran")
# Per-layer metrics: name -> (unit, source).  Sources: ("self", span) is the
# median over traced rounds of that span's self time per round; ("count", key)
# the median per-round count; ("p50"/"p90", family) percentiles of
# log-likelihood evaluation times over all traced rounds.
PER_LAYER = {
    "data_model.load_s": ("s", ("self", "data_model.load")),
    "data_model.rows": ("count", ("count", "data_model.rows")),
    "diophantine.build_s": ("s", ("self", "diophantine.build")),
    "diophantine.caches_built": ("count", ("count", "diophantine.caches_built")),
    "diophantine.save_s": ("s", ("self", "diophantine.save")),
    "diophantine.bytes_written": ("bytes", ("count", "diophantine.bytes_written")),
    "diophantine.load_s": ("s", ("self", "diophantine.load")),
    "diophantine.bytes_read": ("bytes", ("count", "diophantine.bytes_read")),
    "diophantine.caches_loaded": ("count", ("count", "diophantine.caches_loaded")),
    "diophantine.rtuples": ("count", ("count", "diophantine.rtuples")),
    "series.prepare_s": ("s", ("self", "series.prepare")),
    "series.groups": ("count", ("count", "series.groups")),
    "series.evals": ("count", ("count", "series.evals")),
    "series.eval_s": ("s", ("self", "series.eval")),
    "series.eval_ms_p50": ("ms", ("p50", "independent_gamma")),
    "series.eval_ms_p90": ("ms", ("p90", "independent_gamma")),
    **{f"series.eval_ms_p50.{f}": ("ms", ("p50", f)) for f in FAMILIES},
    "gamma_kernels.mgf_calls": ("count", ("count", "gamma_kernels.mgf_calls")),
    "optimizer.grid_s": ("s", ("self", "optimizer.grid")),
    "optimizer.grid_points": ("count", ("count", "optimizer.grid_points")),
    "cli.self_s": ("s", ("self", "cli")),
    "bench.self_s": ("s", ("self", "phase.setup", "phase.fit")),
    "trace.overhead_s": ("s", ("overhead",)),
}


def import_program():
    """Import conjlogit from this checkout's src/, and nowhere else."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import conjlogit

    where = os.path.dirname(os.path.abspath(conjlogit.__file__))
    if where != os.path.join(ROOT, "src", "conjlogit"):
        raise ImportError(f"conjlogit imported from {where}, not from this checkout")


def timed(op, span) -> tuple[float, bool]:
    gc.collect()
    with span:
        t0 = time.perf_counter()
        try:
            ok = op()
        except Exception:  # a failing program call counts as a failed operation
            traceback.print_exc(file=sys.stdout)
            ok = False
        dt = time.perf_counter() - t0
    return dt, ok


def run_round(wl, tracer) -> dict:
    """One round: the setup repeats, then the fit repeats, each operation
    preceded by one calibration sample."""
    wl.tracer = tracer
    if tracer:
        tracer.install()
    out = {"setup": [], "fit": [], "cal": [], "failed": 0}
    try:
        for phase, repeats, op in (
            ("setup", wl.setup_repeats, wl.setup),
            ("fit", wl.fit_repeats, wl.fit),
        ):
            for _ in range(repeats):
                if phase == "setup":
                    wl.before_setup()
                out["cal"].append(calibration.sample())
                dt, ok = timed(op, wl.span(f"phase.{phase}"))
                out[phase].append(dt)
                out["failed"] += not ok
    finally:
        if tracer:
            tracer.uninstall()
        wl.tracer = None
    return out


def layer_metrics(self_times, tracers, traced_times, plain_times) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced rounds, and the names not exercised."""
    per_round = []
    for st, t in zip(self_times, tracers):
        by_name: dict[str, float] = {}
        for phase_times in st.values():
            for name, v in phase_times.items():
                by_name[name] = by_name.get(name, 0.0) + v
        per_round.append((by_name, t.counts))
    evals: dict = {}
    for t in tracers:
        for tag, ms in t.durations_ms("series.eval").items():
            evals.setdefault(tag, []).extend(ms)
    metrics, idle = {}, []
    for name, (unit, src) in PER_LAYER.items():
        kind = src[0]
        if kind == "self":
            value = statistics.median(sum(s.get(n, 0.0) for n in src[1:]) for s, _ in per_round)
        elif kind == "count":
            value = statistics.median(c.get(src[1], 0) for _, c in per_round)
        elif kind == "overhead":
            value = statistics.median(traced_times) - statistics.median(plain_times)
        else:
            samples = evals.get(src[1], [])
            need = P90_MIN_SAMPLES if kind == "p90" else 1
            if len(samples) < need:
                value = 0
            elif kind == "p50":
                value = statistics.median(samples)
            else:
                value = statistics.quantiles(samples, n=10)[-1]
        if value == 0:
            idle.append(name)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, idle


def accounting(self_times) -> list[str]:
    """Median per-round self time of each span, per phase: the layers' shares
    of setup and fit, which add up to the phase time."""
    lines = []
    for phase in ("phase.setup", "phase.fit"):
        rounds = [st.get(phase, {}) for st in self_times]
        names = sorted({n for r in rounds for n in r})
        parts = sorted(((n, statistics.median(r.get(n, 0.0) for r in rounds)) for n in names),
                       key=lambda p: -p[1])
        lines.append(f"{phase} per round {sum(v for _, v in parts):.4f} s = "
                     + " + ".join(f"{n} {v:.4f}" for n, v in parts))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import_program()
    except ImportError as e:
        print(f"cannot import the program from {ROOT}/src: {e}", file=sys.stderr)
        return 2
    import tracer as tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        wl = WORKLOADS[args.workload](work_dir, args.seed)
        wl.prepare()
        result = measure(wl, args, tracing)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(wl, args, tracing) -> dict:
    setup_t, fit_t, cal_t, traced_times, plain_times, tracers = [], [], [], [], [], []
    attempted = failed = 0
    min_rounds = 4 if args.trace else 3
    start = time.perf_counter()
    rounds = 0
    while True:
        t = tracing.Tracer() if args.trace and rounds % 2 else None
        t0 = time.perf_counter()
        r = run_round(wl, t)
        round_s = time.perf_counter() - t0
        attempted += len(r["setup"]) + len(r["fit"])
        failed += r["failed"]
        cal_t += r["cal"]
        rounds += 1
        if t is None:
            setup_t += r["setup"]
            fit_t += r["fit"]
            plain_times.append(sum(r["setup"]) + sum(r["fit"]))
        else:
            tracers.append(t)
            traced_times.append(sum(r["setup"]) + sum(r["fit"]))
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed + round_s > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        fails, digits = wl.check()
    except Exception:  # an exception inside a check is a failed check
        fails, digits = [traceback.format_exc()], 0.0
    print(getattr(wl, "summary", ""))
    # Every reported time is scaled to the reference host speed
    # (calibration.py); the raw figures are printed beside it.
    cal_s = statistics.median(py + np_ for py, np_ in cal_t)
    scale = calibration.REFERENCE_S / cal_s
    print(f"{rounds} rounds, {len(setup_t)} untraced setup and {len(fit_t)} fit samples")
    print(f"raw medians: setup {statistics.median(setup_t):.4f} s, fit operation "
          f"{statistics.median(fit_t):.4f} s; calibration {cal_s:.5f} s over {len(cal_t)} "
          f"samples (python half {statistics.median(c[0] for c in cal_t):.5f} s, numpy half "
          f"{statistics.median(c[1] for c in cal_t):.5f} s), so times are scaled by {scale:.4f}")
    for msg in fails:
        print(f"CHECK FAILED: {msg}")
    print(f"checks: {'all passed' if not fails else f'{len(fails)} failed'}")

    if args.trace:
        self_times = [t.self_times() for t in tracers]
        metrics, idle = layer_metrics(self_times, tracers, traced_times, plain_times)
        for m in metrics.values():
            if m["unit"] in ("s", "ms"):
                m["value"] *= scale
        for line in accounting(self_times):
            print(line)
        missing = sorted({m for t in tracers for m in t.missing})
        if missing:
            print("not defined by the program: " + ", ".join(missing))
        print(f"not exercised by {wl.name}: " + (", ".join(idle) or "none"))
        spans_path = os.path.join(WORK, f"trace-{wl.name}-seed{args.seed}.json")
        with open(spans_path, "w") as f:
            json.dump([t.spans for t in tracers], f)
    else:
        metrics = {
            "setup_s": statistics.median(setup_t) * scale,
            "fit_s": wl.fit_s(fit_t) * scale,
            "peak_rss_mb": peak_rss_mb,
            "accuracy_digits": digits,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    return {"correct": not fails, "attempted": attempted, "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
