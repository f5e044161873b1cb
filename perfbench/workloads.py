"""The benchmark's workloads.

Each workload has an untimed ``prepare``, timed ``setup`` and ``fit``
operations (each setup preceded by an untimed ``before_setup``), and an untimed
``check`` that compares the program's outputs with independent references.
Program functions are looked up on their modules at call time, so a
:class:`tracer.Tracer` installed between rounds sees the calls.

Only public entry points are timed: ``conjlogit.cli.main`` commands and the
package's public functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import statistics
import time

import conjlogit
import conjlogit.cli
import conjlogit.series

import checks
import panels
import reference

TRUTH = (panels.TRUTH_B, panels.TRUTH_N)
# Quadrature tolerances asked of ``quadrature_h``; each is the accuracy that
# reference claims, and so the cap on ``accuracy_digits``.
QUAD_TOL_1D = 1e-11
QUAD_TOL_2D = 1e-10
QUAD_TOL_CR = 1e-12
MC_DRAWS = 200_000
MC_SEED = 20_050_512


class Workload:
    name = ""
    setup_repeats = 1
    fit_repeats = 1

    def __init__(self, work_dir: str, seed: int):
        self.work_dir = work_dir
        self.seed = seed
        self.tracer = None  # set by the runner for traced rounds

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def cli(self, *argv) -> bool:
        """Run one ``conjlogit`` command in this process; True on exit code 0."""
        out, err = io.StringIO(), io.StringIO()
        with self.span("cli"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = conjlogit.cli.main([str(a) for a in argv])
            except SystemExit as e:  # argparse usage errors
                code = e.code
        if code != 0:
            print(f"conjlogit {argv[0]} exited {code}: {err.getvalue().strip()}")
        return code == 0

    def before_setup(self) -> None:
        pass

    def fit_s(self, fit_times: list[float]) -> float:
        """The reported ``fit_s``: the median untraced fit operation."""
        return statistics.median(fit_times)

    # --- helpers shared by the checks -------------------------------------

    def dataset(self):
        return conjlogit.load_dataset(self.csv)

    def series_log_h(self, d, groups, spec, R: int, caches) -> list[float]:
        """log H per group from the series, one single-household dataset each
        (NaN where the series reports a truncation failure)."""
        cfg = conjlogit.SeriesConfig(R=R)
        out = []
        for i, _, _, _ in groups:
            one = conjlogit.Dataset((d.households[i],), d.P, d.x_scale)
            try:
                out.append(conjlogit.log_marginal(one, spec, cfg, caches).value)
            except conjlogit.TruncationFailure:
                out.append(math.nan)
        return out

    def cache_checks(self, cache_dir: str, R: int) -> tuple[list[str], dict]:
        """Load every cache file; each must equal a fresh build and satisfy
        the signed-count identity.  Returns failures and the loaded caches."""
        fails = []
        loaded = {}
        for fname in sorted(os.listdir(cache_dir)):
            try:
                cache = conjlogit.load_cache(os.path.join(cache_dir, fname))
            except conjlogit.CacheFileError as e:
                fails.append(f"cache file {fname}: {e}")
                continue
            loaded[cache.x_vectors] = cache
        sigs = panels.signatures(self.panel)
        if set(loaded) != sigs:
            fails.append(f"{len(loaded)} readable cache files for {len(sigs)} signatures")
        for xv in sorted(sigs & set(loaded)):
            built = conjlogit.build_cache(xv, R)
            fails += checks.check_count_identity(
                f"cache {xv}", built.entries, built.final_shell, R, len(xv[0])
            )
            fails += checks.check_equal(f"loaded cache {xv} vs the built one", loaded[xv], built)
        return fails, loaded

    def fit_checks(self, fit_json: str, ref_log_h_at) -> list[str]:
        """The grid estimate is the trace maximum, and its loglik matches the
        reference summed over groups at that estimate."""
        with open(fit_json) as f:
            fit = json.load(f)
        groups = panels.groups(self.panel)
        fails = checks.check_grid_argmax("fit", fit)
        ref = ref_log_h_at(groups, fit["omega_hat"])
        fails += checks.check_loglik("fit", fit["loglik"], ref, [m for _, m, _, _ in groups])
        return fails

    def panel_summary(self, caches) -> str:
        sigs = panels.signatures(self.panel)
        groups = panels.groups(self.panel)
        rt = sum(len(c.entries) for c in caches.values())
        return (f"panel: {len(self.panel.households)} households, {len(sigs)} signatures "
                f"({len(self.panel.households) / len(sigs):.1f} households each), "
                f"{len(groups)} groups, {rt} stored r-tuples")


class ColdStart(Workload):
    """P=1, N=3, R=100: caches built from scratch, written, then read by ``fit``."""

    name = "cold-start"
    setup_repeats = 1
    # A fit is an eighth of a cache build; more fits per round give its
    # median more samples across the run's noisy windows.
    fit_repeats = 6

    def __init__(self, work_dir, seed, I=1000, R=100, grid="5x7"):
        super().__init__(work_dir, seed)
        self.I, self.R, self.grid = I, R, grid
        self.cache_dir = None
        self.n_dirs = 0

    def prepare(self):
        self.panel = panels.make_panel(self.seed, self.I, P=1, N=3)
        self.csv = os.path.join(self.work_dir, "panel.csv")
        panels.write_csv(self.panel, self.csv)
        self.fit_json = os.path.join(self.work_dir, "fit.json")

    def before_setup(self):
        if self.cache_dir:
            shutil.rmtree(self.cache_dir)
        self.n_dirs += 1
        self.cache_dir = os.path.join(self.work_dir, f"cache{self.n_dirs}")

    def setup(self) -> bool:
        return self.cli("precompute", "--data", self.csv, "--R", self.R,
                        "--cache-dir", self.cache_dir)

    def fit(self) -> bool:
        return self.cli("fit", "--data", self.csv, "--R", self.R, "--cache-dir",
                        self.cache_dir, "--grid", self.grid, "--center", "5,14",
                        "-o", self.fit_json)

    def check(self):
        fails, loaded = self.cache_checks(self.cache_dir, self.R)
        self.summary = self.panel_summary(loaded)
        d = self.dataset()
        groups = panels.groups(self.panel)

        def quad_log_h(groups, params):
            spec = conjlogit.IndependentGamma((params[0],), (params[1],))
            qc = conjlogit.QuadConfig(rel_tol=QUAD_TOL_1D)
            return [math.log(conjlogit.quadrature_h(d.households[i], spec, qc, d.x_scale))
                    for i, _, _, _ in groups]

        spec = conjlogit.IndependentGamma((TRUTH[0],), (TRUTH[1],))
        series = self.series_log_h(d, groups, spec, self.R, loaded)
        ref = quad_log_h(groups, TRUTH)
        fails += checks.check_h("H at the truth vs quadrature", series, ref)
        digits = checks.accuracy_digits(map(checks.rel_err, series, ref), QUAD_TOL_1D)
        fails += self.fit_checks(self.fit_json, quad_log_h)
        return fails, digits


class WarmGrid(Workload):
    """P=2, N=2, R=40: caches already on disk; an 81-point grid over (b, n)."""

    name = "warm-grid"
    setup_repeats = 5
    fit_repeats = 1

    def __init__(self, work_dir, seed, I=1000, R=40, grid="3x3x3x3"):
        super().__init__(work_dir, seed)
        self.I, self.R, self.grid = I, R, grid

    def prepare(self):
        self.panel = panels.make_panel(self.seed, self.I, P=2, N=2)
        self.csv = os.path.join(self.work_dir, "panel.csv")
        panels.write_csv(self.panel, self.csv)
        self.cache_dir = os.path.join(self.work_dir, "cache")
        self.fit_json = os.path.join(self.work_dir, "fit.json")
        if not self.setup():
            raise RuntimeError("untimed precompute failed")

    def setup(self) -> bool:
        return self.cli("precompute", "--data", self.csv, "--R", self.R,
                        "--cache-dir", self.cache_dir)

    def fit(self) -> bool:
        return self.cli("fit", "--data", self.csv, "--R", self.R, "--cache-dir",
                        self.cache_dir, "--grid", self.grid, "--center", "5,14,5,14",
                        "-o", self.fit_json)

    def check(self):
        fails, loaded = self.cache_checks(self.cache_dir, self.R)
        self.summary = self.panel_summary(loaded)
        d = self.dataset()
        groups = panels.groups(self.panel)

        def gl_log_h(groups, params):
            return reference.gauss_laguerre_log_h(groups, params[0::2], params[1::2])

        ref = gl_log_h(groups, TRUTH * 2)
        # spot-check the Gauss-Laguerre rule against adaptive quadrature
        spec = conjlogit.IndependentGamma((TRUTH[0],) * 2, (TRUTH[1],) * 2)
        qc = conjlogit.QuadConfig(rel_tol=QUAD_TOL_2D)
        for k in (0, len(groups) // 2):
            q = conjlogit.quadrature_h(d.households[groups[k][0]], spec, qc, d.x_scale)
            fails += checks.check_h(f"Gauss-Laguerre group {k} vs quadrature",
                                    [math.log(q)], [ref[k]], tol=10 * QUAD_TOL_2D)
        series = self.series_log_h(d, groups, spec, self.R, loaded)
        fails += checks.check_h("H at the truth vs Gauss-Laguerre", series, ref)
        digits = checks.accuracy_digits(map(checks.rel_err, series, ref),
                                        reference.GL_ACCURACY)
        fails += self.fit_checks(self.fit_json, gl_log_h)
        return fails, digits


def _gamma_mixture(w):
    return conjlogit.GammaMixture(((w, 1.0 - w),) * 2, ((4.0, 6.0),) * 2, ((14.0, 14.0),) * 2)


def _point_mass(w):
    return conjlogit.PointMassGamma(w, conjlogit.IndependentGamma((5.0, 5.0), (14.0, 14.0)))


def _gmv(a):
    return conjlogit.GeneralizedMVGamma(((a,), (a,)), (5.0, 5.0), (4.0,), (10.0, 10.0))


def _cr(theta0):
    return conjlogit.CheriyanRamabhadran(theta0, 40.0, 40.0)


# Per-family sweeps.  Cheriyan-Ramabhadran costs about four times as much per
# evaluation as the others, so it gets half as many points and stays under
# half of the sweep time.
SWEEPS = {
    "gamma_mixture": [_gamma_mixture(w) for w in (0.25, 0.35, 0.45, 0.55, 0.65, 0.75)],
    "point_mass_gamma": [_point_mass(w) for w in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)],
    "generalized_mv_gamma": [_gmv(a) for a in (2.0, 3.0, 4.0, 5.0, 6.0, 7.0)],
    "cheriyan_ramabhadran": [_cr(t) for t in (20.0, 30.0, 40.0)],
}
CHECK_HOUSEHOLDS = 4


class MgfFamilies(Workload):
    """The warm-grid panel evaluated under four non-independent prior families."""

    name = "mgf-families"
    setup_repeats = 3
    fit_repeats = 1

    def __init__(self, work_dir, seed, I=1000, R=40, sweeps=None):
        super().__init__(work_dir, seed)
        self.I, self.R = I, R
        self.sweeps = sweeps or SWEEPS

    def prepare(self):
        self.panel = panels.make_panel(self.seed, self.I, P=2, N=2)
        self.csv = os.path.join(self.work_dir, "panel.csv")
        panels.write_csv(self.panel, self.csv)
        self.total_obs = self.panel.n_obs
        self.prep = None
        # untraced evaluation times per sweep point: (family, index) -> [s]
        self.point_times: dict[tuple[str, int], list[float]] = {}

    def setup(self) -> bool:
        d = conjlogit.data_model.load_dataset(self.csv)
        violations = conjlogit.data_model.validate_dataset(d)
        if violations:
            print(f"panel failed validation: {violations[:3]}")
            return False
        self.prep = conjlogit.series.prepare_dataset(d, conjlogit.SeriesConfig(R=self.R))
        return True

    def fit(self) -> bool:
        self.values = {}
        for family, specs in self.sweeps.items():
            vals = []
            for k, spec in enumerate(specs):
                t0 = time.perf_counter()
                vals.append(conjlogit.series.log_marginal_prepared(self.prep, spec).value)
                if self.tracer is None:
                    self.point_times.setdefault((family, k), []).append(time.perf_counter() - t0)
            self.values[family] = vals
        return True

    def fit_s(self, fit_times: list[float]) -> float:
        """One sweep's time as the sum, over its points, of each point's
        median evaluation time.  A slow spell of the host shorter than a
        sweep then spoils a sample of one or two points, which their medians
        discard, rather than a sample of the whole sweep."""
        return math.fsum(statistics.median(v) for v in self.point_times.values())

    def check(self):
        d = self.dataset()
        groups = panels.groups(self.panel)
        caches = self.prep.caches
        self.summary = self.panel_summary(caches)
        picked = [groups[k * len(groups) // CHECK_HOUSEHOLDS] for k in range(CHECK_HOUSEHOLDS)]
        fails = []

        gm = _gamma_mixture(0.45)
        series = self.series_log_h(d, groups, gm, self.R, caches)
        ref = reference.gauss_laguerre_log_h_mixture(groups, gm.weights, gm.b, gm.n)
        fails += checks.check_h("gamma_mixture vs Gauss-Laguerre", series, ref)
        digits = checks.accuracy_digits(map(checks.rel_err, series, ref), reference.GL_ACCURACY)

        for spec, tol in ((gm, QUAD_TOL_2D), (_cr(30.0), QUAD_TOL_CR)):
            qc = conjlogit.QuadConfig(rel_tol=tol)
            series = self.series_log_h(d, picked, spec, self.R, caches)
            ref = [math.log(conjlogit.quadrature_h(d.households[i], spec, qc, d.x_scale))
                   for i, _, _, _ in picked]
            label = f"{type(spec).__name__} vs quadrature"
            fails += checks.check_h(label, series, ref)
            if isinstance(spec, conjlogit.CheriyanRamabhadran):
                digits = min(digits, checks.accuracy_digits(
                    map(checks.rel_err, series, ref), tol))

        gmv = _gmv(5.0)
        series = self.series_log_h(d, picked, gmv, self.R, caches)
        for (i, _, _, _), s in zip(picked, series):
            mc, se = conjlogit.mc_h(d.households[i], gmv, MC_DRAWS, MC_SEED, d.x_scale)
            fails += checks.check_mc(f"generalized_mv_gamma household {i} vs MC",
                                     math.exp(s), mc, se)
        zero = conjlogit.GeneralizedMVGamma(((0.0,), (0.0,)), (5.0, 5.0), (4.0,), (14.0, 14.0))
        ig = conjlogit.IndependentGamma((5.0, 5.0), (14.0, 14.0))
        fails += checks.check_close(
            "generalized_mv_gamma with zero loadings vs independent Gamma",
            conjlogit.series.log_marginal_prepared(self.prep, zero).value,
            conjlogit.series.log_marginal_prepared(self.prep, ig).value, 1e-9)

        for spec, got in zip(self.sweeps["point_mass_gamma"], self.values["point_mass_gamma"]):
            inner = conjlogit.series.log_marginal_prepared(self.prep, spec.inner).value
            want = checks.point_mass_loglik(spec.w, self.total_obs, inner)
            fails += checks.check_close(f"point_mass_gamma w={spec.w}", got, want, 1e-9)
        return fails, digits


WORKLOADS = {w.name: w for w in (ColdStart, WarmGrid, MgfFamilies)}
