import math

import numpy as np
import pytest

from conjlogit.data_model import (
    ArnoldStrauss,
    CheriyanRamabhadran,
    Dataset,
    Freund,
    GammaMixture,
    GeneralizedMVGamma,
    Household,
    IndependentGamma,
    Observation,
    PointMassGamma,
    SpecError,
)
from conjlogit.gamma_kernels import gmv_gamma_covariance, log_mgf
from conjlogit.oracle import (
    QuadConfig,
    bernoulli_likelihood,
    cr_density,
    mc_h,
    quadrature_h,
    sample_prior,
)
from conjlogit.series import SeriesConfig, group_h, h_naive, prepare_dataset

UNIT_PRIOR = IndependentGamma((1.0,), (1.0,))


def single_obs(y, x=(1,)):
    return Household(id=f"h{y}", observations=(Observation(y, x),))


class TestBernoulliLikelihood:
    def test_single_observation_value(self):
        h = single_obs(1)
        beta = (2.0,)
        expected = math.exp(-2.0) / (1 + math.exp(-2.0))
        assert bernoulli_likelihood(h, beta) == pytest.approx(expected)

    def test_y0_complement(self):
        h1, h0 = single_obs(1), single_obs(0)
        beta = (1.3,)
        assert bernoulli_likelihood(h1, beta) + bernoulli_likelihood(
            h0, beta
        ) == pytest.approx(1.0)

    def test_x_scale_applied(self):
        h = single_obs(1, x=(10,))
        assert bernoulli_likelihood(h, (1.0,), x_scale=0.1) == pytest.approx(
            bernoulli_likelihood(single_obs(1), (1.0,))
        )


class TestQuadrature:
    def test_log2_cases_to_1e6(self):
        assert quadrature_h(single_obs(0), UNIT_PRIOR) == pytest.approx(
            math.log(2.0), abs=1e-6
        )
        assert quadrature_h(single_obs(1), UNIT_PRIOR) == pytest.approx(
            1.0 - math.log(2.0), abs=1e-6
        )

    def test_translated_prior(self):
        spec = IndependentGamma((1.0,), (2.0,), eps=0.1)
        q = quadrature_h(single_obs(0), spec)
        ev = h_naive(single_obs(0), spec, SeriesConfig(R=3000))
        assert q == pytest.approx(ev.value, rel=1e-3)

    def test_mixture_prior(self):
        mix = GammaMixture(((0.4, 0.6),), ((1.0, 2.0),), ((1.0, 3.0),))
        q = quadrature_h(single_obs(0), mix)
        parts = [IndependentGamma((1.0,), (1.0,)), IndependentGamma((2.0,), (3.0,))]
        expected = 0.4 * quadrature_h(single_obs(0), parts[0]) + 0.6 * quadrature_h(
            single_obs(0), parts[1]
        )
        assert q == pytest.approx(expected, rel=1e-8)

    def test_two_dimensional_matches_mc(self):
        h = Household("h", (Observation(1, (1, 2)), Observation(0, (2, 1))))
        spec = IndependentGamma((1.2, 0.7), (2.0, 1.5))
        q = quadrature_h(h, spec, QuadConfig(rel_tol=1e-8), x_scale=0.1)
        est, se = mc_h(h, spec, 400_000, seed=7, x_scale=0.1)
        assert abs(q - est) < 4 * se

    def test_cr_single_obs_matches_series(self):
        spec = CheriyanRamabhadran(1.0, 0.8, 1.2)
        h = Household("c", (Observation(1, (1, 1)),))
        q = quadrature_h(h, spec, QuadConfig(rel_tol=1e-8), x_scale=0.2)
        prep = prepare_dataset(Dataset((h,), P=2, x_scale=0.2), SeriesConfig(R=200))
        (s,) = group_h(prep, spec)
        assert abs(s - q) / q < 1e-3

    def test_unsupported_dimension(self):
        h = Household("h", (Observation(1, (1, 1, 1, 1)),))
        spec = IndependentGamma((1.0,) * 4, (1.0,) * 4)
        with pytest.raises(SpecError):
            quadrature_h(h, spec)

    def test_no_route_for_point_mass(self):
        with pytest.raises(SpecError):
            quadrature_h(single_obs(0), PointMassGamma(0.5, UNIT_PRIOR))

    def test_quad_config_validation(self):
        with pytest.raises(ValueError):
            QuadConfig(rel_tol=0.0)


def empirical_mgf(X, t):
    return float(np.exp(X @ np.asarray(t)).mean())


class TestSamplers:
    def test_independent_gamma_moments(self):
        rng = np.random.default_rng(0)
        spec = IndependentGamma((2.0, 0.5), (3.0, 4.0), eps=0.1)
        X = sample_prior(spec, 200_000, rng)
        assert np.allclose(X.mean(axis=0), [2 * 3 + 0.1, 0.5 * 4 + 0.1], rtol=0.02)
        assert (X >= 0.1).all()

    def test_mixture_mean(self):
        rng = np.random.default_rng(1)
        mix = GammaMixture(((0.25, 0.75),), ((1.0, 4.0),), ((2.0, 1.0),))
        X = sample_prior(mix, 200_000, rng)
        assert X.mean() == pytest.approx(0.25 * 2.0 + 0.75 * 4.0, rel=0.02)

    def test_point_mass_atom_at_zero(self):
        rng = np.random.default_rng(4)
        spec = PointMassGamma(0.3, IndependentGamma((2.0, 0.5), (3.0, 4.0)))
        X = sample_prior(spec, 200_000, rng)
        atom = (X == 0.0).all(axis=1)
        assert atom.mean() == pytest.approx(0.3, abs=0.005)
        assert (X[~atom] > 0.0).all()
        assert np.allclose(X[~atom].mean(axis=0), [6.0, 2.0], rtol=0.02)

    def test_gmv_covariance(self):
        rng = np.random.default_rng(2)
        prm = GeneralizedMVGamma(
            loadings=((0.5, 0.2), (0.0, 0.4)),
            lam=(1.0, 2.0),
            theta0=(1.5, 0.5),
            theta=(2.0, 3.0),
        )
        X = sample_prior(prm, 400_000, rng)
        emp = np.cov(X.T)
        assert np.allclose(emp, gmv_gamma_covariance(prm), rtol=0.05, atol=0.01)

    @pytest.mark.parametrize(
        "spec",
        [
            CheriyanRamabhadran(1.0, 2.0, 0.5),
            Freund(1.0, 2.0, 1.5, 0.8),
            ArnoldStrauss(1.0, 1.5, 0.8),
        ],
        ids=lambda s: type(s).__name__,
    )
    def test_bivariate_sampler_matches_mgf(self, spec):
        rng = np.random.default_rng(3)
        X = sample_prior(spec, 400_000, rng)
        for t in ((-0.3, -0.5), (-1.0, -0.2)):
            emp = empirical_mgf(X, t)
            assert math.exp(log_mgf(spec, [t])[0]) == pytest.approx(emp, rel=0.01)

    def test_cr_marginals(self):
        rng = np.random.default_rng(4)
        spec = CheriyanRamabhadran(1.0, 2.0, 0.5)
        X = sample_prior(spec, 200_000, rng)
        # X_i = Y0 + Yi ~ Gamma(theta0 + theta_i)
        assert X[:, 0].mean() == pytest.approx(3.0, rel=0.02)
        assert X[:, 1].mean() == pytest.approx(1.5, rel=0.02)
        assert np.cov(X.T)[0, 1] == pytest.approx(1.0, rel=0.05)  # theta0


class TestCrDensity:
    def test_zero_outside_support(self):
        spec = CheriyanRamabhadran(1.0, 1.0, 1.0)
        assert cr_density(-1.0, 1.0, spec) == 0.0
        assert cr_density(1.0, 0.0, spec) == 0.0

    def test_symmetry_when_shapes_match(self):
        spec = CheriyanRamabhadran(1.0, 2.0, 2.0)
        assert cr_density(1.0, 2.5, spec) == pytest.approx(
            cr_density(2.5, 1.0, spec), rel=1e-9
        )

    def test_matches_sampler_histogram_cell(self):
        spec = CheriyanRamabhadran(1.0, 1.5, 1.5)
        rng = np.random.default_rng(6)
        X = sample_prior(spec, 400_000, rng)
        lo, hi = 1.0, 1.4
        mass = float(
            ((X[:, 0] > lo) & (X[:, 0] < hi) & (X[:, 1] > lo) & (X[:, 1] < hi)).mean()
        )
        mid = 0.5 * (lo + hi)
        approx = cr_density(mid, mid, spec) * (hi - lo) ** 2
        assert approx == pytest.approx(mass, rel=0.1)


class TestMonteCarlo:
    def test_log2_within_three_se(self):
        est, se = mc_h(single_obs(0), UNIT_PRIOR, 1_000_000, seed=42)
        assert abs(est - math.log(2.0)) < 3 * se
        assert se < 1e-3

    def test_needs_two_draws_for_a_standard_error(self):
        for n_draws in (-1, 0, 1):
            with pytest.raises(ValueError, match=f"at least 2 draws, got {n_draws}"):
                mc_h(single_obs(1), UNIT_PRIOR, n_draws, seed=5)
        assert math.isfinite(mc_h(single_obs(1), UNIT_PRIOR, 2, seed=5)[1])

    def test_deterministic_given_seed(self):
        a = mc_h(single_obs(1), UNIT_PRIOR, 10_000, seed=5)
        b = mc_h(single_obs(1), UNIT_PRIOR, 10_000, seed=5)
        assert a == b

    def test_seed_and_household_change_stream(self):
        a, _ = mc_h(single_obs(1), UNIT_PRIOR, 10_000, seed=5)
        b, _ = mc_h(single_obs(1), UNIT_PRIOR, 10_000, seed=6)
        h2 = Household("other", (Observation(1, (1,)),))
        c, _ = mc_h(h2, UNIT_PRIOR, 10_000, seed=5)
        assert a != b
        assert a != c

    def test_agrees_with_series_two_dim(self):
        h = Household("h", (Observation(1, (1, 2)), Observation(0, (2, 1))))
        spec = IndependentGamma((1.2, 0.7), (2.0, 1.5), eps=0.05)
        # the truncated sum converges slowly here; R=300 brings its own bias
        # well below the Monte Carlo standard error
        prep = prepare_dataset(Dataset((h,), P=2, x_scale=0.1), SeriesConfig(R=300))
        (s,) = group_h(prep, spec)
        est, se = mc_h(h, spec, 400_000, seed=9, x_scale=0.1)
        assert abs(s - est) < 5 * se
