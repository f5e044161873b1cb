#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest/selftest.py

Runs each workload once at a tiny size and requires its checks to pass on
the program's own output.  Then feeds each check a wrong value (an H off by
1e-3, a flipped signed count, a truncated cache file, a wrong reported
log-likelihood or estimate, ...) and requires the check to fail.  Exits 0
when every expectation holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import shutil
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.import_program()

import conjlogit  # noqa: E402
import conjlogit.series  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

TINY = dict(I=60)
results: list[tuple[str, bool]] = []


def expect(what: str, ok: bool) -> None:
    results.append((what, ok))
    print(f"{'ok  ' if ok else 'FAIL'} {what}")


def expect_rejected(what: str, fails: list[str], needle: str) -> None:
    expect(f"{what} is rejected", any(needle in f for f in fails))


@contextlib.contextmanager
def patched(obj, name, make):
    original = getattr(obj, name)
    setattr(obj, name, make(original))
    try:
        yield
    finally:
        setattr(obj, name, original)


def scale_log_marginal(factor: float, only=None):
    """log_marginal returning log(H * factor), optionally for one spec type."""
    def make(original):
        def wrong(d, spec, *args, **kwargs):
            ev = original(d, spec, *args, **kwargs)
            if only is None or isinstance(spec, only):
                ev = dataclasses.replace(ev, value=ev.value + math.log(factor))
            return ev
        return wrong
    return make


def run_tiny(cls, work_dir, **size):
    os.makedirs(work_dir)
    wl = cls(work_dir, seed=3, **TINY, **size)
    wl.prepare()
    r = run.run_round(wl, None)
    expect(f"{cls.name}: tiny round has no failed operation", r["failed"] == 0)
    fails, digits = wl.check()
    for f in fails:
        print("   ", f)
    expect(f"{cls.name}: checks pass on the program's output", not fails)
    expect(f"{cls.name}: accuracy_digits is positive", digits > 0)
    return wl


def edit_fit(path, edit):
    with open(path) as f:
        fit = json.load(f)
    edit(fit)
    with open(path, "w") as f:
        json.dump(fit, f)


def cache_file_tampering(wl) -> None:
    files = sorted(os.listdir(wl.cache_dir))
    victim = os.path.join(wl.cache_dir, files[0])
    with open(victim, "rb") as f:
        good = f.read()
    try:
        with open(victim, "wb") as f:
            f.write(good[:-8])
        expect_rejected(f"{wl.name}: a truncated cache file", wl.check()[0], "cache file")
        with open(victim, "wb") as f:
            f.write(good)
        cache = conjlogit.load_cache(victim)
        r, c = next((r, c) for r, c in sorted(cache.entries.items()) if c)
        flipped = dataclasses.replace(cache, entries={**cache.entries, r: -c})
        conjlogit.save_cache(flipped, victim)
        expect_rejected(f"{wl.name}: a cache file with a flipped count", wl.check()[0],
                        "vs the built one")
    finally:
        with open(victim, "wb") as f:
            f.write(good)


def fit_file_tampering(wl) -> None:
    with open(wl.fit_json) as f:
        good = f.read()
    try:
        n_households = len(wl.panel.households)
        edit_fit(wl.fit_json, lambda fit: fit.update(
            loglik=fit["loglik"] + n_households * math.log1p(1e-3)))
        expect_rejected(f"{wl.name}: a reported loglik of H x (1 + 1e-3)", wl.check()[0],
                        "fit: loglik")

        def not_best(fit):
            worst = min(fit["trace"], key=lambda pt: pt["loglik"])
            fit.update(omega_hat=worst["params"], loglik=worst["loglik"])
        edit_fit(wl.fit_json, not_best)
        expect_rejected(f"{wl.name}: an estimate that is not the grid maximum",
                        wl.check()[0], "not the trace maximum")
    finally:
        with open(wl.fit_json, "w") as f:
            f.write(good)


def main() -> int:
    work = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    os.makedirs(work)
    try:
        # Check functions fed wrong values directly.
        cache = conjlogit.build_cache(((1, 2, 3),), 12)
        expect("count identity holds on a built cache",
               not checks.check_count_identity("c", cache.entries, cache.final_shell, 12, 3))
        r, c = next((r, c) for r, c in cache.entries.items() if c)
        expect_rejected("a flipped signed count", checks.check_count_identity(
            "c", {**cache.entries, r: -c}, cache.final_shell, 12, 3), "signed counts sum")
        r, c = next((r, c) for r, c in cache.final_shell.items() if c)
        expect_rejected("a flipped final-shell count", checks.check_count_identity(
            "c", cache.entries, {**cache.final_shell, r: -c}, 12, 3), "final-shell")
        expect_rejected("an H off by 1e-3", checks.check_h(
            "h", [math.log(0.5 * 1.001)], [math.log(0.5)]), "off by")
        expect_rejected("a NaN H", checks.check_h("h", [math.nan], [0.0]), "off by")
        expect_rejected("a series value 10 standard errors from Monte Carlo",
                        checks.check_mc("m", 1.0, 0.99, 0.001), "standard errors")
        expect("accuracy_digits is capped at the reference's accuracy",
               checks.accuracy_digits([1e-15], 1e-12) == 12.0
               and abs(checks.accuracy_digits([1e-8], 1e-12) - 8.0) < 1e-12)

        cs = run_tiny(workloads.ColdStart, os.path.join(work, "cs"), grid="3x3")
        with patched(conjlogit, "log_marginal", scale_log_marginal(1.001)):
            expect_rejected("cold-start: series H x (1 + 1e-3)", cs.check()[0],
                            "H at the truth vs quadrature")
        cache_file_tampering(cs)
        fit_file_tampering(cs)

        wg = run_tiny(workloads.WarmGrid, os.path.join(work, "wg"), grid="2x2x2x2")
        with patched(conjlogit, "log_marginal", scale_log_marginal(1.001)):
            expect_rejected("warm-grid: series H x (1 + 1e-3)", wg.check()[0],
                            "vs Gauss-Laguerre")
        cache_file_tampering(wg)
        fit_file_tampering(wg)

        sweeps = {k: v[:2] for k, v in workloads.SWEEPS.items()}
        mf = run_tiny(workloads.MgfFamilies, os.path.join(work, "mf"), sweeps=sweeps)
        with patched(conjlogit, "log_marginal", scale_log_marginal(1.001)):
            fails = mf.check()[0]
        expect_rejected("mgf-families: gamma_mixture H x (1 + 1e-3) vs Gauss-Laguerre",
                        fails, "gamma_mixture vs Gauss-Laguerre")
        expect_rejected("mgf-families: H x (1 + 1e-3) vs quadrature", fails,
                        "GammaMixture vs quadrature")
        expect_rejected("mgf-families: cheriyan_ramabhadran H x (1 + 1e-3) vs quadrature",
                        fails, "CheriyanRamabhadran vs quadrature")
        gmv = conjlogit.GeneralizedMVGamma
        with patched(conjlogit, "log_marginal", scale_log_marginal(1.02, only=gmv)):
            expect_rejected("mgf-families: generalized_mv_gamma H x 1.02 vs Monte Carlo",
                            mf.check()[0], "vs MC")

        def shift_gmv(original):
            def wrong(prep, spec):
                ev = original(prep, spec)
                if isinstance(spec, gmv):
                    ev = dataclasses.replace(ev, value=ev.value + 1e-3)
                return ev
            return wrong
        with patched(conjlogit.series, "log_marginal_prepared", shift_gmv):
            expect_rejected("mgf-families: zero-loading generalized_mv_gamma off by 1e-3",
                            mf.check()[0], "zero loadings")
        mf.values["point_mass_gamma"][0] += 1e-3
        expect_rejected("mgf-families: point_mass_gamma loglik off by 1e-3",
                        mf.check()[0], "point_mass_gamma w=")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bad = [w for w, ok in results if not ok]
    print(f"{len(results) - len(bad)} of {len(results)} expectations hold")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
