import json
import math
from itertools import product

import numpy as np
import pytest

from conjlogit.data_model import (
    Dataset,
    GammaMixture,
    GeneralizedMVGamma,
    Household,
    IndependentGamma,
    Observation,
    PointMassGamma,
    SpecError,
)
from conjlogit.optimizer import (
    FitError,
    GridAxis,
    GridError,
    GridSpec,
    gamma_factor_tables,
    grid_fit,
    grid_logliks,
    loglik_grad_hess,
    newton_fit,
    params_to_spec,
)
from conjlogit import optimizer
from conjlogit.gamma_kernels import GammaTerm, log_mgf, term_log_mgf
from conjlogit.series import (
    CountMatrix,
    SeriesConfig,
    TruncationFailure,
    group_h,
    group_spread,
    log_marginal_prepared,
    prepare_dataset,
)
from conjlogit.sim import SimDesign, simulate_dataset


class TestGridGeometry:
    def test_axis_points_centered_and_spaced(self):
        ax = GridAxis(center=5.0, count=5, spacing=0.1)
        assert ax.points() == pytest.approx([4.8, 4.9, 5.0, 5.1, 5.2])

    def test_even_count_straddles_center(self):
        ax = GridAxis(center=9.0, count=4, spacing=0.5)
        assert ax.points() == pytest.approx([8.25, 8.75, 9.25, 9.75])

    def test_single_point_axis(self):
        assert GridAxis(2.0, 1, 1.0).points() == [2.0]

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            GridAxis(1.0, 0, 0.1)
        with pytest.raises(ValueError):
            GridAxis(1.0, 3, 0.0)

    def test_grid_rejects_nonpositive_points(self):
        with pytest.raises(ValueError):
            GridSpec((GridAxis(0.1, 5, 0.1),))  # leftmost point would be <= 0

    @pytest.mark.parametrize("center, count, spacing, fields", [
        (1.0, 0, 0.1, ("count",)),
        (1.0, 3, 0.0, ("spacing",)),
        (1.0, 3, math.nan, ("spacing",)),
        (1.0, 3, math.inf, ("spacing",)),
        (math.nan, 3, 0.1, ("center",)),
        (math.inf, 1, 0.1, ("center",)),
        (0.1, 5, 0.1, ("center", "spacing")),
    ])
    def test_invalid_axis_names_its_fields(self, center, count, spacing, fields):
        with pytest.raises(GridError) as e:
            GridAxis(center, count, spacing)
        assert e.value.fields == fields

    def test_cardinality(self):
        g = GridSpec((GridAxis(5, 5, 0.1), GridAxis(14, 7, 0.1)))
        assert g.cardinality == 35
        assert len(list(g.points())) == 35


def test_params_to_spec_interleaving():
    spec = params_to_spec((5.0, 14.0, 2.0, 3.0), P=2, eps=0.01)
    assert spec.b == (5.0, 2.0)
    assert spec.n == (14.0, 3.0)
    assert spec.eps == 0.01
    with pytest.raises(SpecError):
        params_to_spec((1.0, 2.0, 3.0), P=2)


def study_dataset(seed=3):
    spec = IndependentGamma((5.0,), (14.0,))
    grid = GridSpec((GridAxis(5.0, 1, 1.0), GridAxis(14.0, 1, 1.0)))
    design = SimDesign(
        I=400, J=1, N=1, P=1, true_spec=spec, grid=grid, R=60, c=0.01, seed=seed
    )
    return simulate_dataset(design, 0)


def truncating_dataset(P=1):
    # at R=1 the household of three failures has a negative series for
    # small shapes n, so part of a grid fails truncation
    bad = Household("bad", (Observation(0, (1,) * P),) * 3)
    fine = Household("fine", (Observation(1, (1,) * P),))
    return Dataset((bad, fine), P=P)


def two_attribute_dataset():
    hs = tuple(
        Household(f"h{i}", tuple(Observation(y, x) for y, x in obs))
        for i, obs in enumerate([
            ((1, (1, 2)), (0, (2, 1))),
            ((0, (1, 2)), (1, (2, 1))),
            ((1, (1, 2)), (0, (2, 1))),
            ((1, (3, 3)),),
            ((0, (1, 1)), (0, (2, 3)), (1, (1, 1))),
        ])
    )
    return Dataset(hs, P=2, x_scale=0.05)


def three_attribute_dataset():
    hs = tuple(
        Household(f"h{i}", tuple(Observation(y, x) for y, x in obs))
        for i, obs in enumerate([
            ((1, (1, 2, 1)), (0, (2, 1, 3))),
            ((0, (1, 2, 1)), (1, (2, 1, 3))),
            ((1, (3, 3, 2)),),
            ((0, (1, 1, 2)), (0, (2, 3, 1)), (1, (1, 1, 2))),
            ((1, (2, 2, 2)), (1, (1, 3, 1))),
        ])
    )
    return Dataset(hs, P=3, x_scale=0.05)


def loglik_or_nan(prep, params, P, eps):
    try:
        return log_marginal_prepared(prep, params_to_spec(params, P, eps)).value
    except TruncationFailure:
        return math.nan


def axes(*specs):
    return GridSpec(tuple(GridAxis(*s) for s in specs))


GRID_CASES = {
    # name: (dataset, R, grid, eps)
    "P1-even-axis": (study_dataset, 60, axes((5.0, 3, 0.5), (14.0, 4, 0.5)), 0.0),
    "P1-one-point-axis-eps": (study_dataset, 60, axes((5.0, 1, 1.0), (14.0, 4, 0.5)), 0.01),
    "P2-eps": (two_attribute_dataset, 20,
               axes((1.2, 3, 0.2), (2.0, 1, 1.0), (0.7, 2, 0.2), (1.5, 3, 0.5)), 0.01),
    "P2-one-point-last-pair": (two_attribute_dataset, 20,
                               axes((1.2, 2, 0.2), (2.0, 3, 0.5), (0.7, 1, 1.0), (1.5, 1, 1.0)),
                               0.0),
    "P2-625-points": (two_attribute_dataset, 20,
                      axes((1.2, 5, 0.2), (2.0, 5, 0.3), (0.7, 5, 0.1), (1.5, 5, 0.25)), 0.0),
    "P3-eps": (three_attribute_dataset, 12,
               axes((1.2, 2, 0.2), (2.0, 1, 1.0), (0.7, 2, 0.2), (1.5, 3, 0.5),
                    (0.9, 3, 0.3), (1.1, 2, 0.4)), 0.01),
    "P1-truncating": (truncating_dataset, 1, axes((1.0, 3, 0.5), (0.5, 5, 0.2)), 0.0),
    "P2-truncating": (lambda: truncating_dataset(2), 1,
                      axes((1.0, 2, 0.5), (0.5, 3, 0.3), (1.0, 1, 1.0), (0.5, 3, 0.3)), 0.02),
    "P3-truncating": (lambda: truncating_dataset(3), 1,
                      axes((1.0, 2, 0.5), (0.3, 3, 0.2), (1.0, 1, 1.0), (0.3, 2, 0.2),
                           (1.0, 2, 0.5), (0.3, 3, 0.2)), 0.0),
}


class TestGridFit:
    def test_finds_maximum_on_trace(self):
        d = study_dataset()
        grid = GridSpec((GridAxis(5.0, 5, 0.5), GridAxis(14.0, 5, 0.5)))
        res = grid_fit(prepare_dataset(d, SeriesConfig(R=60)), grid)
        best_on_trace = max(v for _, v in res.trace)
        assert res.loglik == best_on_trace
        assert res.omega_hat in {p for p, v in res.trace if v == best_on_trace}
        assert len(res.trace) == 25

    def test_boundary_flag_set_when_truth_outside_grid(self):
        d = study_dataset()
        grid = GridSpec((GridAxis(2.0, 3, 0.2), GridAxis(5.0, 3, 0.2)))
        res = grid_fit(prepare_dataset(d, SeriesConfig(R=60)), grid)
        assert res.boundary_flag

    def test_single_point_grid_never_boundary(self):
        d = study_dataset()
        grid = GridSpec((GridAxis(5.0, 1, 0.1), GridAxis(14.0, 1, 0.1)))
        res = grid_fit(prepare_dataset(d, SeriesConfig(R=60)), grid)
        assert not res.boundary_flag
        assert res.omega_hat == (5.0, 14.0)

    def test_prep_reuse_gives_identical_result(self):
        d = study_dataset()
        grid = GridSpec((GridAxis(5.0, 3, 0.3), GridAxis(14.0, 3, 0.3)))
        cfg = SeriesConfig(R=60)
        prep = prepare_dataset(d, cfg)
        a = grid_fit(prepare_dataset(d, cfg), grid)
        b = grid_fit(prep, grid)
        c = grid_fit(prep, grid)
        assert a.omega_hat == b.omega_hat == c.omega_hat
        assert a.loglik == b.loglik == c.loglik

    def test_axis_count_must_match_dimension(self):
        d = study_dataset()
        with pytest.raises(SpecError):
            grid_fit(prepare_dataset(d, SeriesConfig(R=60)), GridSpec((GridAxis(5.0, 3, 0.1),)))

    def test_dropped_points_are_counted(self):
        grid = axes((1.0, 1, 1.0), (0.5, 3, 0.45))  # b = 1, n in {0.05, 0.5, 0.95}
        res = grid_fit(prepare_dataset(truncating_dataset(), SeriesConfig(R=1)), grid)
        assert res.dropped == 2
        assert [p for p, _ in res.trace] == [(1.0, 0.95)]
        assert res.omega_hat == (1.0, 0.95)
        assert json.loads(res.to_json())["dropped"] == 2
        prep = prepare_dataset(study_dataset(), SeriesConfig(R=60))
        assert grid_fit(prep, axes((5.0, 3, 0.3), (14.0, 3, 0.3))).dropped == 0

    def test_ties_break_to_the_smallest_point(self):
        # with no households every point scores log 1 = 0
        prep = prepare_dataset(Dataset((), P=1), SeriesConfig(R=3))
        res = grid_fit(prep, axes((1.0, 2, 0.5), (2.0, 3, 0.5)))
        assert res.omega_hat == (0.75, 1.5)
        assert [v for _, v in res.trace] == [0.0] * 6

    def test_all_points_dropped_raises(self):
        with pytest.raises(FitError, match="all 2 grid points"):
            grid_fit(prepare_dataset(truncating_dataset(), SeriesConfig(R=1)),
                     axes((1.0, 1, 1.0), (0.3, 2, 0.2)))

    @pytest.mark.parametrize("case", ["P1-one-point-axis-eps", "P2-eps", "P2-truncating", "P3-eps"])
    def test_parity_spread_at_argmax_matches_series(self, case):
        make, R, grid, eps = GRID_CASES[case]
        d = make()
        prep = prepare_dataset(d, SeriesConfig(R=R))
        res = grid_fit(prep, grid, eps=eps)
        spec = params_to_spec(res.omega_hat, d.P, eps)
        assert res.parity_spread == group_spread(prep, spec).max()
        assert res.loglik == pytest.approx(log_marginal_prepared(prep, spec).value, rel=1e-12)

    def test_result_json_round_trips(self):
        d = study_dataset()
        grid = GridSpec((GridAxis(5.0, 3, 0.3), GridAxis(14.0, 3, 0.3)))
        res = grid_fit(prepare_dataset(d, SeriesConfig(R=60)), grid)
        blob = json.loads(res.to_json())
        assert blob["omega_hat"] == list(res.omega_hat)
        assert len(blob["trace"]) == len(res.trace)


class TestGridLogliks:
    @pytest.mark.parametrize("case", GRID_CASES)
    def test_matches_per_point_evaluation(self, case):
        make, R, grid, eps = GRID_CASES[case]
        d = make()
        prep = prepare_dataset(d, SeriesConfig(R=R))
        values = grid_logliks(prep, grid, eps)
        expected = np.array([loglik_or_nan(prep, p, d.P, eps) for p in grid.points()])
        assert values.shape == (grid.cardinality,)
        # each attribute's factor table, bit for bit what term_log_mgf gives one pair at a time
        for p, table in enumerate(gamma_factor_tables(prep.counts, grid, eps)):
            pairs = product(grid.axes[2 * p].points(), grid.axes[2 * p + 1].points())
            one_at_a_time = np.exp([term_log_mgf(GammaTerm(b, n, eps), prep.counts.t_axes[p])
                                    for b, n in pairs])
            assert table.tobytes() == one_at_a_time.tobytes()
        # NaN exactly where the per-point route raises TruncationFailure
        assert np.array_equal(np.isnan(values), np.isnan(expected))
        ok = ~np.isnan(expected)
        assert ok.any()
        assert np.all(np.abs(values[ok] - expected[ok]) <= 1e-12 * np.abs(expected[ok]))
        if case.endswith("truncating"):
            assert not ok.all()

    @pytest.mark.parametrize("case", ["P1-one-point-axis-eps", "P2-eps", "P3-eps"])
    def test_matches_the_joint_mgf(self, case):
        # every point's H from log_mgf over all distinct K, as one spec
        make, R, grid, eps = GRID_CASES[case]
        d = make()
        prep = prepare_dataset(d, SeriesConfig(R=R))
        counts = prep.counts
        expected = [
            counts.mult @ np.log(counts.C @ np.exp(log_mgf(params_to_spec(p, d.P, eps), counts.T)))
            for p in grid.points()
        ]
        np.testing.assert_allclose(grid_logliks(prep, grid, eps), expected, rtol=1e-12, atol=0)

    def test_block_size_does_not_change_values(self, monkeypatch):
        for case in ("P2-eps", "P3-eps", "P3-truncating"):
            make, R, grid, eps = GRID_CASES[case]
            prep = prepare_dataset(make(), SeriesConfig(R=R))
            whole = grid_logliks(prep, grid, eps)
            pairs = [a.count * b.count for a, b in zip(grid.axes[0::2], grid.axes[1::2])]
            assert pairs[-1] == 6
            per_pair = prep.counts.cells(pairs)
            # blocks of one pair of the last attribute, and of four with a remainder
            for cells in (1, 4 * per_pair):
                monkeypatch.setattr(optimizer, "BLOCK_CELLS", cells)
                np.testing.assert_allclose(grid_logliks(prep, grid, eps), whole, rtol=1e-14)
            monkeypatch.undo()

    def test_the_first_contraction_builds_the_layout_once(self, monkeypatch):
        truth = IndependentGamma((5.0, 5.0), (14.0, 14.0))
        design = SimDesign(I=200, J=1, N=2, P=2, true_spec=truth,
                           grid=GridSpec((GridAxis(5.0, 1, 1.0),) * 4), R=20, c=0.01, seed=2)
        prep = prepare_dataset(simulate_dataset(design, 0), SeriesConfig(R=20))
        grid = axes(*[(5.0, 3, 0.5), (14.0, 3, 0.5)] * 2)
        spec = params_to_spec((4.5, 13.0, 4.5, 13.0), 2)
        built, build = [], CountMatrix.layout.func

        def counted(counts):
            built.append(counts)
            return build(counts)

        monkeypatch.setattr(CountMatrix.layout, "func", counted)
        group_h(prep, spec)
        log_marginal_prepared(prep, spec)
        group_spread(prep, spec)
        assert built == [] and "layout" not in vars(prep.counts)
        assert np.isfinite(grid_logliks(prep, grid)).all()
        assert np.isfinite(loglik_grad_hess(prep, spec)[0])
        assert newton_fit(prep, spec, max_iters=6).newton_iters == 6
        assert len(built) == 1 and built[0] is prep.counts

    @pytest.mark.parametrize("case", ["P1-even-axis", "P2-eps", "P3-eps"])
    def test_layout_holds_the_counts(self, case):
        # B's rows, read back through the slots, are C's rows over (K_0..K_{P-1})
        make, R, _, _ = GRID_CASES[case]
        counts = prepare_dataset(make(), SeriesConfig(R=R)).counts
        B, rows, scatter = counts.layout
        sizes = tuple(len(a) for a in counts.t_axes)
        row, coords = np.arange(B.shape[0]), []
        for p in reversed(range(len(rows))):
            row, a = np.divmod(row, sizes[p])  # a slot of R_p: a row of R_p, a K_p
            coords.insert(0, a)
            if p:
                row = scatter[p - 1][row]
        dense = np.zeros((counts.C.shape[0],) + sizes)
        coo = B.tocoo()
        index = tuple(c[coo.row] for c in [row] + coords)
        dense[index + (coo.col,)] = coo.data
        want = np.zeros_like(dense)
        C = counts.C.tocoo()
        want[(C.row,) + tuple(counts.t_index[:, C.col])] = C.data
        assert B.nnz == counts.C.nnz
        if len(sizes) > 1:  # B's two index arrays are new, and as narrow as C's
            assert B.row.dtype == B.col.dtype == np.int32
        else:
            assert B is counts.C
        np.testing.assert_array_equal(dense, want)

    def test_no_households_scores_zero_everywhere(self):
        prep = prepare_dataset(Dataset((), P=1), SeriesConfig(R=3))
        assert grid_logliks(prep, axes((1.0, 2, 0.5), (2.0, 3, 0.5))).tolist() == [0.0] * 6

    def test_grid_must_match_dimension(self):
        prep = prepare_dataset(study_dataset(), SeriesConfig(R=60))
        with pytest.raises(SpecError):
            grid_logliks(prep, axes(*[(5.0, 3, 0.5)] * 4))

    @pytest.mark.parametrize("eps", [-0.1, math.nan, math.inf])
    def test_bad_eps_is_a_spec_error(self, eps):
        # the factor tables check every (b, n) pair as one IndependentGamma
        prep = prepare_dataset(study_dataset(), SeriesConfig(R=60))
        with pytest.raises(SpecError, match="eps must be a finite number"):
            grid_logliks(prep, axes((5.0, 3, 0.5), (14.0, 3, 0.5)), eps)


def cache_h(sums, cache, spec, x_scale):
    """H of one group straight from its cache, without the count matrix."""
    return cache.count_array @ np.exp(log_mgf(spec, -x_scale * (cache.r_array + sums.Y)))


def fd_gradient(f, theta, h=1e-5):
    g = np.zeros_like(theta)
    for i in range(len(theta)):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        g[i] = (f(tp) - f(tm)) / (2 * h)
    return g


def fd_hessian(f, theta, h=3e-4):
    k = len(theta)
    H = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            if i == j:
                tp, tm = theta.copy(), theta.copy()
                tp[i] += h
                tm[i] -= h
                H[i, i] = (f(tp) - 2 * f(theta) + f(tm)) / h**2
            else:
                tpp, tpm, tmp, tmm = (theta.copy() for _ in range(4))
                tpp[i] += h; tpp[j] += h
                tpm[i] += h; tpm[j] -= h
                tmp[i] -= h; tmp[j] += h
                tmm[i] -= h; tmm[j] -= h
                H[i, j] = (f(tpp) - f(tpm) - f(tmp) + f(tmm)) / (4 * h**2)
    return H


def per_k_loglik_grad_hess(prep, spec):
    """The log likelihood, gradient and Hessian from weight columns built
    over every distinct K, with the prior's MGF from ``log_mgf``.

    With log w = f(theta) and D the gradient of f in (b_1, n_1, ..., b_P,
    n_P), the columns are w, w D_i and w (D_i D_j + d2f/di dj): summed
    against the signed counts they give H_i, its gradient and its Hessian.
    f is -eps sum(K) - sum_p n_p log1p(b_p K_p), so D is (-n_p A_p, -L_p)
    with A = K / (1 + b K) and L = log1p(b K), and the only non-zero second
    derivatives of f are n_p A_p^2 (b_p twice) and -A_p (b_p with n_p).
    """
    counts, P = prep.counts, spec.P
    K = -counts.T
    b, n = np.asarray(spec.b), np.asarray(spec.n)
    A = K / (1.0 + b * K)
    D = np.empty((K.shape[0], 2 * P))
    D[:, 0::2] = -n * A
    D[:, 1::2] = -np.log1p(b * K)
    second = D[:, :, None] * D[:, None, :]
    for p in range(P):
        second[:, 2 * p, 2 * p] += n[p] * A[:, p] ** 2
        second[:, 2 * p, 2 * p + 1] -= A[:, p]
        second[:, 2 * p + 1, 2 * p] -= A[:, p]
    w = np.exp(log_mgf(spec, counts.T))
    H = counts.C @ w
    g = counts.C @ (w[:, None] * D) / H[:, None]
    S = (counts.C @ (w[:, None] * second.reshape(len(w), -1))).reshape(-1, 2 * P, 2 * P)
    hess = S / H[:, None, None] - g[:, :, None] * g[:, None, :]
    return counts.mult @ np.log(H), counts.mult @ g, np.einsum("g,gij->ij", counts.mult, hess)


DERIVATIVE_CASES = {
    # P: (dataset, R, b, n)
    1: (study_dataset, 60, (1.2,), (2.0,)),
    2: (two_attribute_dataset, 20, (1.2, 0.7), (2.0, 1.5)),
    3: (three_attribute_dataset, 12, (1.2, 0.7, 0.9), (2.0, 1.5, 1.1)),
}


class TestDerivatives:
    def make_prep(self, P=2):
        rows = ((1, (1, 2, 1)), (0, (2, 1, 3)), (1, (3, 3, 2)))
        h = Household("a", tuple(Observation(y, x[:P]) for y, x in rows))
        d = Dataset((h,), P=P, x_scale=0.05)
        return prepare_dataset(d, SeriesConfig(R=30))

    @pytest.mark.parametrize("P", [1, 2, 3])
    def test_gradient_and_hessian_match_finite_differences(self, P):
        prep = self.make_prep(P)

        def f(t):
            return loglik_grad_hess(prep, params_to_spec(t, P, 0.0))[0]

        rng = np.random.default_rng(17)
        for _ in range(5):
            theta = rng.uniform(0.5, 3.0, size=2 * P)
            _, g, H = loglik_grad_hess(prep, params_to_spec(theta, P, 0.0))
            g_fd = fd_gradient(f, theta)
            H_fd = fd_hessian(f, theta)
            assert np.max(np.abs(g - g_fd) / np.maximum(np.abs(g_fd), 1e-10)) < 1e-6
            assert np.max(np.abs(H - H_fd) / np.maximum(np.abs(H_fd), 1e-6)) < 1e-4

    @pytest.mark.parametrize("eps", [0.0, 0.02])
    @pytest.mark.parametrize("P", [1, 2, 3])
    def test_matches_the_per_k_columns(self, P, eps):
        make, R, b, n = DERIVATIVE_CASES[P]
        prep = prepare_dataset(make(), SeriesConfig(R=R))
        assert prep.counts.C.shape[0] > 1
        spec = IndependentGamma(b, n, eps)
        got = loglik_grad_hess(prep, spec)
        want = per_k_loglik_grad_hess(prep, spec)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.max(np.abs(w)))

    @pytest.mark.parametrize("P", [1, 2, 3])
    def test_hessian_exactly_symmetric(self, P):
        make, R, b, n = DERIVATIVE_CASES[P]
        prep = prepare_dataset(make(), SeriesConfig(R=R))
        _, _, H = loglik_grad_hess(prep, IndependentGamma(b, n, 0.01))
        assert np.array_equal(H, H.T)

    @pytest.mark.parametrize("spec", [
        GammaMixture(((0.4, 0.6),) * 2, ((1.0, 2.0),) * 2, ((1.0, 3.0),) * 2),
        GeneralizedMVGamma(((1.0,), (1.0,)), (2.0, 2.0), (2.0,), (3.0, 3.0)),
        PointMassGamma(0.3, IndependentGamma((1.2, 0.7), (2.0, 1.5))),
    ], ids=lambda spec: type(spec).__name__)
    def test_other_families_are_a_spec_error(self, spec):
        prep = self.make_prep()
        for fit in (loglik_grad_hess, newton_fit):
            with pytest.raises(SpecError, match=f"independent-Gamma family only, "
                                                f"not {type(spec).__name__}"):
                fit(prep, spec)

    @pytest.mark.parametrize("P", [1, 3])
    def test_prior_dimension_must_match_the_panel(self, P):
        prep = self.make_prep()
        spec = IndependentGamma((1.2,) * P, (2.0,) * P)
        with pytest.raises(SpecError) as mgf_error:
            prep.counts.mgf(spec)
        assert "the panel has P=2" in str(mgf_error.value)
        for fit in (loglik_grad_hess, newton_fit):
            with pytest.raises(SpecError) as error:
                fit(prep, spec)
            assert str(error.value) == str(mgf_error.value)

    def test_no_households_is_flat(self):
        prep = prepare_dataset(Dataset((), P=2), SeriesConfig(R=3))
        spec = IndependentGamma((1.2, 0.7), (2.0, 1.5))
        ll, g, H = loglik_grad_hess(prep, spec)
        assert (ll, g.tolist(), H.tolist()) == (0.0, [0.0] * 4, [[0.0] * 4] * 4)
        res = newton_fit(prep, spec)
        assert (res.omega_hat, res.loglik, res.newton_iters) == ((1.2, 2.0, 0.7, 1.5), 0.0, 0)

    def test_translated_prior_derivatives(self):
        prep = self.make_prep()
        eps = 0.02

        def f(t):
            return loglik_grad_hess(prep, params_to_spec(t, 2, eps))[0]

        theta = np.array([1.3, 1.8, 0.8, 2.1])
        _, g, _ = loglik_grad_hess(prep, params_to_spec(theta, 2, eps))
        assert np.allclose(g, fd_gradient(f, theta), rtol=1e-6)

    def test_matches_per_group_derivatives(self):
        # against finite differences of the per-group sum of log H read
        # straight from each cache, which does not go through the count matrix
        prep = prepare_dataset(two_attribute_dataset(), SeriesConfig(R=20))
        eps = 0.01

        def f(t):
            spec = params_to_spec(t, 2, eps)
            return math.fsum(
                mult * math.log(cache_h(sums, prep.caches[sums.x_vectors], spec, prep.x_scale))
                for sums, mult in prep.groups
            )

        theta = np.array([1.2, 2.0, 0.7, 1.5])
        ll, g, H = loglik_grad_hess(prep, params_to_spec(theta, 2, eps))
        assert ll == pytest.approx(f(theta), rel=1e-12)
        g_fd = fd_gradient(f, theta)
        H_fd = fd_hessian(f, theta)
        assert np.max(np.abs(g - g_fd) / np.maximum(np.abs(g_fd), 1e-10)) < 1e-6
        assert np.max(np.abs(H - H_fd) / np.maximum(np.abs(H_fd), 1e-6)) < 1e-4

    def test_household_level_h_matches_series(self):
        prep = self.make_prep()
        spec = params_to_spec([1.2, 2.0, 0.7, 1.5], 2, 0.0)
        (H_val,) = group_h(prep, spec)
        ll = log_marginal_prepared(prep, spec).value
        assert math.log(H_val) == pytest.approx(ll, rel=1e-12)
        assert loglik_grad_hess(prep, spec)[0] == pytest.approx(ll, rel=1e-12)


class TestNewton:
    def test_refines_towards_interior_optimum(self):
        d = study_dataset(seed=9)
        cfg = SeriesConfig(R=60)
        start = IndependentGamma((4.0,), (12.0,))
        prep = prepare_dataset(d, cfg)
        res = newton_fit(prep, start, tol=1e-6)
        ll0 = log_marginal_prepared(prep, start).value
        assert res.loglik >= ll0
        if res.converged:
            _, g, _ = loglik_grad_hess(prep, params_to_spec(res.omega_hat, 1, 0.0))
            assert np.max(np.abs(g)) < 1e-6

    def test_trace_is_monotone(self):
        d = study_dataset(seed=9)
        prep = prepare_dataset(d, SeriesConfig(R=60))
        res = newton_fit(prep, IndependentGamma((4.5,), (13.0,)))
        values = [v for _, v in res.trace]
        assert all(b >= a for a, b in zip(values, values[1:]))
