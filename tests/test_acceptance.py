"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line (with the measured quantity) before asserting, so a full run
yields a compact scoreboard even when a criterion fails.
"""

import math
import time

import numpy as np
import pytest

from conjlogit.data_model import (
    CheriyanRamabhadran,
    Dataset,
    GeneralizedMVGamma,
    Household,
    IndependentGamma,
    Observation,
)
from conjlogit.diophantine import (
    TailBoundInput,
    build_cache,
    compositions_count,
    compositions_cum,
    signed_count_oracle,
    tail_bound,
    tail_sum_direct,
)
from conjlogit.oracle import QuadConfig, quadrature_h
from conjlogit.optimizer import (
    GridAxis,
    GridSpec,
    loglik_grad_hess,
    params_to_spec,
)
from conjlogit.series import (
    HouseholdSums,
    SeriesConfig,
    group_h,
    h_naive,
    log_marginal_prepared,
    prepare_dataset,
)
from conjlogit.sim import SimDesign, run_study, simulate_dataset


def report(n, ok, detail=""):
    print(f"\n[criterion {n:2d}] {'PASS' if ok else 'FAIL'}  {detail}")


def group_value(sums, spec, R, x_scale, caches=None):
    """H of the one group ``sums`` from the count matrix (:func:`group_h`)."""
    d = Dataset((), P=len(sums.Y), x_scale=x_scale)
    prep = prepare_dataset(d, SeriesConfig(R=R), caches, groups=({sums: 1}, [0]))
    return float(group_h(prep, spec)[0])


def study1_design(b, n, **kw):
    spec = IndependentGamma((b,), (n,))
    grid = GridSpec((GridAxis(b, 5, 0.1), GridAxis(n, 7, 0.1)))
    base = dict(
        I=1000, J=1, N=1, P=1, true_spec=spec, grid=grid, R=100, c=0.01,
        replicates=25, seed=0,
    )
    base.update(kw)
    return SimDesign(**base)


def test_criterion_1_analytic_single_household():
    h0 = Household("h0", (Observation(0, (1,)),))
    h1 = Household("h1", (Observation(1, (1,)),))
    prior = IndependentGamma((1.0,), (1.0,))
    cfg = SeriesConfig(R=200)
    t0 = time.perf_counter()
    s0 = h_naive(h0, prior, cfg).value
    s1 = h_naive(h1, prior, cfg).value
    q0 = quadrature_h(h0, prior)
    q1 = quadrature_h(h1, prior)
    elapsed = time.perf_counter() - t0
    ln2 = math.log(2.0)
    rel = [
        abs(s0 - ln2) / ln2,
        abs(s1 - (1 - ln2)) / (1 - ln2),
        abs(q0 - ln2),
        abs(q1 - (1 - ln2)),
    ]
    ok = rel[0] < 5e-3 and rel[1] < 5e-3 and rel[2] < 1e-6 and rel[3] < 1e-6 and elapsed < 1.0
    report(
        1, ok,
        f"series rel err (y=0, y=1) = ({rel[0]:.2e}, {rel[1]:.2e}); "
        f"quad abs err = ({rel[2]:.1e}, {rel[3]:.1e}); {elapsed:.2f} s",
    )
    assert rel[0] < 5e-3
    assert rel[2] < 1e-6 and rel[3] < 1e-6
    assert elapsed < 1.0
    assert rel[1] < 5e-3


def test_criterion_2_parity_spread_contraction():
    t0 = time.perf_counter()
    spec = IndependentGamma((5.0,), (14.0,))
    design = study1_design(5.0, 14.0, c=0.001, replicates=1)
    d = simulate_dataset(design, 0)
    points = list(design.grid.points())

    def surface_spread(R):
        lo = prepare_dataset(d, SeriesConfig(R=R))
        hi = prepare_dataset(d, SeriesConfig(R=R + 1))
        worst = 0.0
        for pt in points:
            s = params_to_spec(pt, 1, 0.0)
            a = log_marginal_prepared(lo, s).value
            b = log_marginal_prepared(hi, s).value
            worst = max(worst, abs(a - b) / abs(a))
        return worst

    sp100 = surface_spread(100)
    sp200 = surface_spread(200)
    elapsed = time.perf_counter() - t0
    ok = sp100 > sp200 and sp200 < 5e-3 and elapsed < 120
    report(
        2, ok,
        f"max spread R=100/101: {sp100:.2e} > R=200/201: {sp200:.2e} < 0.5%; "
        f"{elapsed:.1f} s",
    )
    assert sp100 > sp200
    assert sp200 < 5e-3
    assert elapsed < 120


def test_criterion_3_simulation_study_1():
    t0 = time.perf_counter()
    worst = []
    for b, n in [(5.0, 14.0), (9.0, 9.0), (11.5, 6.5)]:
        rep = run_study(study1_design(b, n), n_tests=12)
        worst.append(max(abs(r.t) for r in rep.rows))
        assert all(r.crit == pytest.approx(3.167, abs=1e-3) for r in rep.rows)
        assert rep.all_pass
    elapsed = time.perf_counter() - t0
    ok = max(worst) < 3.167 and elapsed < 1800
    report(
        3, ok,
        f"max |t| per design = {[f'{w:.2f}' for w in worst]} < 3.167; {elapsed:.0f} s",
    )
    assert max(worst) < 3.167
    assert elapsed < 1800


def test_criterion_4_simulation_study_2():
    t0 = time.perf_counter()
    spec = IndependentGamma((9.0, 18.0), (9.0, 18.0))
    grid = GridSpec(
        (
            GridAxis(9.0, 4, 0.5),
            GridAxis(9.0, 4, 0.5),
            GridAxis(18.0, 4, 0.5),
            GridAxis(18.0, 4, 0.5),
        )
    )
    design = SimDesign(
        I=250, J=1, N=1, P=2, true_spec=spec, grid=grid, R=40, c=0.002,
        replicates=10, seed=0,
    )
    rep = run_study(design, n_tests=12)
    elapsed = time.perf_counter() - t0
    worst = max(abs(r.t) for r in rep.rows)
    ok = worst < 3.81
    report(4, ok, f"max |t| = {worst:.2f} < 3.81; {elapsed:.0f} s (no I=100 fallback needed)")
    assert all(r.crit == pytest.approx(3.81, abs=5e-3) for r in rep.rows)
    assert worst < 3.81


def test_criterion_5_grouped_naive_equivalence():
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(100):
        P = int(rng.integers(1, 3))
        M = int(rng.integers(1, 5))
        R = int(rng.integers(0, 13))
        xv = tuple(tuple(int(v) for v in rng.integers(1, 4, size=M)) for _ in range(P))
        Y = tuple(int(v) for v in rng.integers(0, 4, size=P))
        spec = IndependentGamma(
            tuple(float(v) for v in rng.uniform(0.3, 3.0, P)),
            tuple(float(v) for v in rng.uniform(0.3, 3.0, P)),
        )
        sums = HouseholdSums(Y, xv)
        naive = h_naive(sums, spec, SeriesConfig(R=R), x_scale=0.2).value
        grouped = group_value(sums, spec, R, 0.2)
        worst = max(worst, abs(naive - grouped) / max(abs(naive), 1e-300))
    ok = worst < 1e-12
    report(5, ok, f"100 instances, worst rel diff = {worst:.2e} < 1e-12")
    assert worst < 1e-12


def test_criterion_6_diophantine_oracle_equivalence():
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(200):
        P = int(rng.integers(1, 3))
        M = int(rng.integers(1, 4))
        R = int(rng.integers(0, 11))
        xv = tuple(tuple(int(v) for v in rng.integers(1, 4, size=M)) for _ in range(P))
        cache = build_cache(xv, R)
        for r, signed in cache.entries.items():
            kp, km = signed_count_oracle(xv, r, R)
            assert signed == kp - km
            checked += 1
    # all-ones covariates: the only admitted r is (r,...,r) with signed count
    # (-1)^r C(r+M-1, M-1)
    for M in (1, 2, 3, 4):
        cache = build_cache(((1,) * M,), 8)
        for r, signed in cache.entries.items():
            assert signed == (-1) ** r[0] * compositions_count(r[0], M)
    report(6, True, f"200 random caches exact vs brute force ({checked} entries); all-ones law holds")


def test_criterion_7_combinatorics_table():
    v = compositions_count(5, 20)
    ok = v == 42504 and abs(math.log10(v) - 4.63) < 5e-3
    rng = np.random.default_rng(22)
    for _ in range(50):
        R = int(rng.integers(0, 30))
        M = int(rng.integers(1, 12))
        ok = ok and compositions_cum(R, M) == sum(
            compositions_count(r, M) for r in range(R + 1)
        )
    report(7, ok, f"compositions_count(5,20) = {v} (10^{math.log10(v):.2f}); 50 summation identities")
    assert ok


def fd_gradient(f, theta, h=1e-5):
    g = np.zeros_like(theta)
    for i in range(len(theta)):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        g[i] = (f(tp) - f(tm)) / (2 * h)
    return g


def fd_jacobian(g, theta, h=1e-5):
    """Central differences of a vector-valued g; column j is d g / d theta_j."""
    cols = []
    for j in range(len(theta)):
        tp, tm = theta.copy(), theta.copy()
        tp[j] += h
        tm[j] -= h
        cols.append((g(tp) - g(tm)) / (2 * h))
    return np.column_stack(cols)


def test_criterion_8_derivative_correctness():
    h = Household(
        "a",
        (
            Observation(1, (1, 2)),
            Observation(0, (2, 1)),
            Observation(1, (3, 3)),
        ),
    )
    d = Dataset((h,), P=2, x_scale=0.05)
    prep = prepare_dataset(d, SeriesConfig(R=30))

    def f(t):
        return loglik_grad_hess(prep, params_to_spec(t, 2, 0.0))[0]

    def grad(t):
        return loglik_grad_hess(prep, params_to_spec(t, 2, 0.0))[1]

    # The gradient is checked against differences of f, the Hessian against
    # central differences of the (so verified) gradient.  A second difference
    # of f divides its rounding and step errors by h^2 and is off by up to
    # ~1e-6 in absolute terms here, far above 1e-6 relative on Hessian
    # entries as small as ~1e-4.
    rng = np.random.default_rng(23)
    worst_g = worst_h = worst_sym = 0.0
    for _ in range(20):
        theta = rng.uniform(0.5, 3.0, size=4)
        _, g, H = loglik_grad_hess(prep, params_to_spec(theta, 2, 0.0))
        g_fd = fd_gradient(f, theta)
        H_fd = fd_jacobian(grad, theta)
        worst_g = max(worst_g, float(np.max(np.abs(g - g_fd) / np.maximum(np.abs(g_fd), 1e-8))))
        worst_h = max(worst_h, float(np.max(np.abs(H - H_fd) / np.maximum(np.abs(H_fd), 1e-8))))
        worst_sym = max(worst_sym, float(np.max(np.abs(H - H.T))))
    ok = worst_g < 1e-6 and worst_h < 1e-6 and worst_sym < 1e-12
    report(
        8, ok,
        f"worst rel err: grad {worst_g:.1e}, hess {worst_h:.1e} < 1e-6; "
        f"symmetry {worst_sym:.1e} < 1e-12",
    )
    assert worst_g < 1e-6
    assert worst_h < 1e-6
    assert worst_sym < 1e-12


def test_criterion_9_mgf_path_consistency():
    rng = np.random.default_rng(24)
    worst = 0.0
    for _ in range(20):
        P = int(rng.integers(1, 3))
        M = int(rng.integers(1, 4))
        R = int(rng.integers(2, 11))
        xv = tuple(tuple(int(v) for v in rng.integers(1, 4, size=M)) for _ in range(P))
        cache = build_cache(xv, R)
        # a tiny multi-household log likelihood accumulated along both routes;
        # instances whose truncated sum is not yet positive are redrawn, since
        # the comparison is between the two evaluation routes, not convergence
        ll_gamma = ll_gmv = 0.0
        drawn = 0
        while drawn < 3:
            Y = tuple(int(v) for v in rng.integers(0, 3, size=P))
            sums = HouseholdSums(Y, xv)
            spec = IndependentGamma(
                tuple(float(v) for v in rng.uniform(0.3, 3.0, P)),
                tuple(float(v) for v in rng.uniform(0.3, 3.0, P)),
            )
            hv = group_value(sums, spec, R, 0.2, {xv: cache})
            if hv <= 0.0:
                continue
            gmv = GeneralizedMVGamma(
                loadings=tuple((0.0,) for _ in range(P)),
                lam=spec.b,
                theta0=(1.0,),
                theta=spec.n,
            )
            ll_gamma += math.log(hv)
            ll_gmv += math.log(group_value(sums, gmv, R, 0.2, {xv: cache}))
            drawn += 1
        worst = max(worst, abs(ll_gamma - ll_gmv) / abs(ll_gamma))

    cr = CheriyanRamabhadran(1.0, 0.8, 1.2)
    h = Household("c", (Observation(1, (1, 1)),))
    q = quadrature_h(h, cr, QuadConfig(rel_tol=1e-8), x_scale=0.2)
    s = group_value(HouseholdSums.from_household(h, 2), cr, 200, 0.2)
    cr_err = abs(s - q) / q
    ok = worst < 1e-12 and cr_err < 1e-3
    report(
        9, ok,
        f"zero-loading log L worst rel diff {worst:.1e} < 1e-12; "
        f"bivariate single-obs vs 2-D quadrature {cr_err:.1e} < 1e-3",
    )
    assert worst < 1e-12
    assert cr_err < 1e-3


def test_criterion_10_tail_bound_validity():
    rng = np.random.default_rng(25)
    worst_ratio = 0.0
    n_ok = 0
    while n_ok < 20:
        inp = TailBoundInput(
            R=int(rng.integers(2, 60)),
            M=int(rng.integers(1, 8)),
            eps=float(rng.uniform(0.05, 0.8)),
            delta=float(rng.uniform(1.0, 6.0)),
            P=int(rng.integers(1, 4)),
        )
        if inp.eps * inp.delta * inp.P <= 2 * math.log(2.0):
            continue
        bound = tail_bound(inp)
        direct = tail_sum_direct(inp)
        assert bound.applicable
        assert direct <= bound.dyadic
        worst_ratio = max(worst_ratio, direct / bound.dyadic if bound.dyadic > 0 else 0.0)
        n_ok += 1
    report(10, True, f"20 configs: direct tail <= dyadic bound (worst ratio {worst_ratio:.2e})")


def test_criterion_11_cache_reuse_speedup():
    design = study1_design(5.0, 14.0)
    d = simulate_dataset(design, 0)
    cfg = SeriesConfig(R=design.R)
    points = list(design.grid.points())

    t0 = time.perf_counter()
    prep = prepare_dataset(d, cfg)
    for pt in points:
        log_marginal_prepared(prep, params_to_spec(pt, 1, 0.0))
    amortized = time.perf_counter() - t0

    t0 = time.perf_counter()
    for pt in points:
        p = prepare_dataset(d, cfg)
        log_marginal_prepared(p, params_to_spec(pt, 1, 0.0))
    rebuilt = time.perf_counter() - t0

    ratio = rebuilt / amortized
    ok = ratio >= 5.0
    report(11, ok, f"rebuild/amortized = {rebuilt:.2f}s / {amortized:.2f}s = {ratio:.1f}x >= 5x")
    assert ratio >= 5.0
