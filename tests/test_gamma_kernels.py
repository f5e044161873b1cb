import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import exp1, expi

from conjlogit.data_model import (
    ArnoldStrauss,
    CheriyanRamabhadran,
    Freund,
    GammaMixture,
    GeneralizedMVGamma,
    IndependentGamma,
    PointMassGamma,
    SpecError,
)
from conjlogit.gamma_kernels import (
    GammaFactors,
    GammaTerm,
    MixtureTerm,
    gamma_jet,
    gmv_gamma_covariance,
    log_mgf,
    log_scaled_e1,
    mgf_split,
    term_log_mgf,
)


def mgf_at(spec, t):
    """M(t) of ``spec`` at the one point ``t``, through log_mgf."""
    return math.exp(log_mgf(spec, [t])[0])


def gamma_mgf(d, b, n, eps=0.0):
    """E[exp(-d*z)] for z ~ eps + Gamma(scale=b, shape=n), through log_mgf."""
    return math.exp(log_mgf(IndependentGamma((b,), (n,), eps), [[-d]])[0])


def translated_factor(d, b, n, eps):
    """Closed form of E[exp(-d*z)], z ~ eps + Gamma(scale=b, shape=n): an
    oracle for log_mgf that does not call it."""
    return math.exp(-d * eps) * (1.0 + b * d) ** -n


def mixture_factor(d, components, eps):
    """Closed form of a one-attribute Gamma mixture's E[exp(-d*z)] over
    (weight, b, n) components."""
    return math.fsum(w * translated_factor(d, b, n, eps) for w, b, n in components)


def arnold_strauss_norm(spec):
    """Normalization constant of the Arnold-Strauss density, from scipy's E1."""
    a_0 = spec.lam1 * spec.lam2 / spec.lam12
    return spec.lam12 / (math.exp(a_0) * exp1(a_0))


class TestExpVsGamma:
    """The independent-Gamma branch of log_mgf as E[exp(-d*z)], z ~ Gamma(b, n)."""

    def test_unit_case_is_half(self):
        assert gamma_mgf(1.0, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_zero_decay_is_one(self):
        assert gamma_mgf(0.0, 3.0, 7.0) == 1.0

    def test_matches_numerical_integral(self):
        b, n, d = 2.0, 3.5, 0.7
        val, _ = integrate.quad(
            lambda z: math.exp(-d * z)
            * z ** (n - 1)
            * math.exp(-z / b)
            / (b**n * math.gamma(n)),
            0,
            np.inf,
        )
        assert gamma_mgf(d, b, n) == pytest.approx(val, rel=1e-10)

    @given(
        st.floats(0, 50), st.floats(0.01, 20), st.floats(0.01, 50)
    )
    @settings(max_examples=100, deadline=None)
    def test_bounded_and_monotone_in_d(self, d, b, n):
        v = gamma_mgf(d, b, n)
        assert 0.0 < v <= 1.0
        assert gamma_mgf(d + 1.0, b, n) <= v

    def test_large_shape_no_overflow(self):
        # log1p formulation keeps huge shapes finite
        assert gamma_mgf(1e3, 1e3, 1e4) >= 0.0
        want = -1e4 * math.log1p(1e6)
        assert log_mgf(IndependentGamma((1e3,), (1e4,)), [[-1e3]])[0] == pytest.approx(
            want, rel=1e-14
        )


def test_translated_factor_is_exponential_times_base():
    d, b, n, eps = 0.8, 2.0, 3.0, 0.01
    assert gamma_mgf(d, b, n, eps) == pytest.approx(
        math.exp(-d * eps) * gamma_mgf(d, b, n), rel=1e-15
    )
    with pytest.raises(SpecError):
        IndependentGamma((1.0,), (1.0,), -0.5)


class TestMixtureFactor:
    """The Gamma-mixture branch of log_mgf."""

    @staticmethod
    def mgf(d, components, eps=0.0):
        w, b, n = zip(*components)
        return math.exp(log_mgf(GammaMixture((w,), (b,), (n,), eps), [[-d]])[0])

    def test_single_component_reduces(self):
        assert self.mgf(0.5, [(1.0, 2.0, 3.0)]) == pytest.approx(
            gamma_mgf(0.5, 2.0, 3.0), rel=1e-15
        )

    def test_weighted_average(self):
        comps = [(0.25, 1.0, 1.0), (0.75, 2.0, 5.0)]
        expected = 0.25 * gamma_mgf(0.9, 1.0, 1.0) + 0.75 * gamma_mgf(0.9, 2.0, 5.0)
        assert self.mgf(0.9, comps) == pytest.approx(expected, rel=1e-15)
        assert self.mgf(0.9, comps, 0.01) == pytest.approx(
            mixture_factor(0.9, comps, 0.01), rel=1e-13
        )

    def test_weights_must_sum_to_one(self):
        with pytest.raises(SpecError):
            self.mgf(1.0, [(0.5, 1.0, 1.0), (0.6, 1.0, 1.0)])


class TestGmvGamma:
    def params(self):
        return GeneralizedMVGamma(
            loadings=((0.5, 0.2), (0.0, 0.4)),
            lam=(1.0, 2.0),
            theta0=(1.5, 0.5),
            theta=(2.0, 3.0),
        )

    def test_mgf_at_zero_is_one(self):
        assert mgf_at(self.params(), (0.0, 0.0)) == pytest.approx(1.0)

    def test_mgf_matches_construction_moments(self):
        # E[X_p] = sum_m loadings[p][m]*theta0[m] + lam[p]*theta[p], read off
        # from the MGF gradient at 0 by finite differences.
        prm = self.params()
        h = 1e-6
        for p, ep in enumerate(((h, 0.0), (0.0, h))):
            em = tuple(-v for v in ep)
            fd = (mgf_at(prm, ep) - mgf_at(prm, em)) / (2 * h)
            mean = sum(
                prm.loadings[p][m] * prm.theta0[m] for m in range(prm.M)
            ) + prm.lam[p] * prm.theta[p]
            assert fd == pytest.approx(mean, rel=1e-5)

    def test_covariance_single_factor_case(self):
        prm = GeneralizedMVGamma(
            loadings=((0.5,), (0.3,)), lam=(1.0, 2.0), theta0=(4.0,), theta=(2.0, 1.0)
        )
        cov = gmv_gamma_covariance(prm)
        assert cov[0, 1] == pytest.approx(0.5 * 0.3 * 4.0)
        assert cov[0, 0] == pytest.approx(0.5**2 * 4.0 + 1.0**2 * 2.0)
        assert cov[1, 1] == pytest.approx(0.3**2 * 4.0 + 2.0**2 * 1.0)

    def test_correlation_unit_diagonal(self):
        cov = gmv_gamma_covariance(self.params())
        sd = np.sqrt(np.diag(cov))
        corr = cov / np.outer(sd, sd)
        assert np.allclose(np.diag(corr), 1.0)
        assert np.all(np.abs(corr) <= 1.0 + 1e-12)


class TestExpintEi:
    """Ei(z) = -E1(-z) for z < 0, through log_scaled_e1."""

    @pytest.mark.parametrize(
        "z", [-1e-3, -0.1, -1.0, -3.0, -5.99, -6.01, -10.0, -50.0, -200.0]
    )
    def test_matches_scipy(self, z):
        ei = -math.exp(log_scaled_e1(-z)[()] + z)
        assert ei == pytest.approx(expi(z), rel=1e-12, abs=1e-300)


class TestBivariateMgfs:
    def test_all_families_normalize(self):
        cr = CheriyanRamabhadran(1.0, 2.0, 0.5)
        fr = Freund(1.0, 2.0, 1.5, 0.8)
        assert mgf_at(cr, (0.0, 0.0)) == pytest.approx(1.0)
        assert mgf_at(fr, (0.0, 0.0)) == pytest.approx(1.0)
        ast = ArnoldStrauss(1.0, 1.5, 0.8)
        assert mgf_at(ast, (-1e-12, -1e-12)) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_cr_closed_form(self):
        cr = CheriyanRamabhadran(1.0, 2.0, 0.5)
        t = (-0.3, -0.7)
        expected = (1 - t[0] - t[1]) ** -1.0 * (1 - t[0]) ** -2.0 * (1 - t[1]) ** -0.5
        assert mgf_at(cr, t) == pytest.approx(expected)

    def test_arnold_strauss_norm_matches_density_integral(self):
        ast = ArnoldStrauss(1.0, 1.5, 0.8)
        c = arnold_strauss_norm(ast)
        val, _ = integrate.dblquad(
            lambda x2, x1: c
            * math.exp(-ast.lam1 * x1 - ast.lam2 * x2 - ast.lam12 * x1 * x2),
            0,
            30,
            0,
            30,
            epsabs=1e-12,
        )
        assert val == pytest.approx(1.0, rel=1e-6)

    def test_arnold_strauss_mgf_matches_density_integral(self):
        ast = ArnoldStrauss(1.0, 1.5, 0.8)
        c = arnold_strauss_norm(ast)
        t = (-0.4, -0.2)
        val, _ = integrate.dblquad(
            lambda x2, x1: c
            * math.exp(
                (t[0] - ast.lam1) * x1
                + (t[1] - ast.lam2) * x2
                - ast.lam12 * x1 * x2
            ),
            0,
            40,
            0,
            40,
            epsabs=1e-12,
        )
        assert mgf_at(ast, t) == pytest.approx(val, rel=1e-6)


class TestLogScaledE1:
    def test_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        a = np.logspace(-3, 4, 300)
        ref = np.array([float(mpmath.e1(x) * mpmath.exp(x)) for x in a])
        got = np.exp(log_scaled_e1(a))
        assert np.max(np.abs(got / ref - 1.0)) < 1e-13

    def test_arnold_strauss_mgf_finite_at_large_argument(self):
        # a(t) = (0.52 * 0.515) / 1e-4 ~ 2678: exp(a) alone overflows
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        ast = ArnoldStrauss(0.02, 0.015, 1e-4)
        a_t = mpmath.mpf(0.52) * mpmath.mpf(0.515) / mpmath.mpf(1e-4)
        a_0 = mpmath.mpf(0.02) * mpmath.mpf(0.015) / mpmath.mpf(1e-4)
        want = float(mpmath.exp(a_t - a_0) * mpmath.e1(a_t) / mpmath.e1(a_0))
        assert mgf_at(ast, (-0.5, -0.5)) == pytest.approx(want, rel=1e-12)
        tight = ArnoldStrauss(1.0, 1.0, 1e-6)  # a(0) = 1e6
        assert np.isfinite(log_mgf(tight, [[-0.5, -0.5], [0.0, 0.0]])).all()


class TestLogMgf:
    T = np.array([[0.0, 0.0], [-0.3, -0.7], [-2.0, -0.1], [-15.0, -40.0]])

    def test_gamma_families_match_scalar_factors(self):
        # the scalar factors are this file's closed forms, not log_mgf
        ig = IndependentGamma((2.0, 0.5), (3.0, 1.5), eps=0.02)
        want = [
            translated_factor(-t1, 2.0, 3.0, 0.02) * translated_factor(-t2, 0.5, 1.5, 0.02)
            for t1, t2 in self.T
        ]
        assert np.exp(log_mgf(ig, self.T)) == pytest.approx(want, rel=1e-13)
        mix = GammaMixture(((0.3, 0.7), (1.0,)), ((1.0, 4.0), (2.0,)), ((2.0, 1.0), (3.0,)), 0.01)
        want = [
            mixture_factor(-t1, [(0.3, 1.0, 2.0), (0.7, 4.0, 1.0)], 0.01)
            * mixture_factor(-t2, [(1.0, 2.0, 3.0)], 0.01)
            for t1, t2 in self.T
        ]
        assert np.exp(log_mgf(mix, self.T)) == pytest.approx(want, rel=1e-13)
        pm = PointMassGamma(0.25, ig)
        want = 0.25 + 0.75 * np.exp(log_mgf(ig, self.T))
        assert np.exp(log_mgf(pm, self.T)) == pytest.approx(want, rel=1e-14)

    def test_bivariate_families_match_closed_forms(self):
        cr = CheriyanRamabhadran(1.0, 2.0, 0.5)
        fr = Freund(1.0, 2.0, 1.5, 0.8)
        for (t1, t2), v_cr, v_fr in zip(self.T, np.exp(log_mgf(cr, self.T)),
                                        np.exp(log_mgf(fr, self.T))):
            assert v_cr == pytest.approx(
                (1 - t1 - t2) ** -1.0 * (1 - t1) ** -2.0 * (1 - t2) ** -0.5, rel=1e-13
            )
            assert v_fr == pytest.approx(
                (1.5 * 2.0 / (1.5 - t1) + 1.0 * 0.8 / (0.8 - t2)) / (3.0 - t1 - t2), rel=1e-13
            )

    def test_every_family_normalizes(self):
        ig = IndependentGamma((2.0, 0.5), (3.0, 1.5))
        for spec in (
            ig,
            GammaMixture(((0.5, 0.5),) * 2, ((1.0, 2.0),) * 2, ((1.0, 3.0),) * 2),
            PointMassGamma(0.4, ig),
            GeneralizedMVGamma(((1.0,), (0.5,)), (2.0, 2.0), (1.5,), (2.0, 3.0)),
            CheriyanRamabhadran(1.0, 2.0, 0.5),
            Freund(1.0, 2.0, 1.5, 0.8),
            ArnoldStrauss(1.0, 1.5, 0.8),
        ):
            assert log_mgf(spec, np.zeros((1, 2)))[0] == pytest.approx(0.0, abs=1e-14)


class TestPointMassLogMgf:
    INNER = IndependentGamma((5.0,), (14.0,))

    @pytest.mark.parametrize("w", [0.0, 1e-300, 0.5, 1.0])
    def test_inner_mgf_that_underflows(self, w):
        # M_inner(-1e30) = (1 + 5e30)^-14 ~ exp(-989.6) underflows to 0.0
        log_inner = -14.0 * math.log1p(5e30)
        want = {0.0: log_inner, 1e-300: math.log(1e-300), 0.5: math.log(0.5), 1.0: 0.0}[w]
        got = log_mgf(PointMassGamma(w, self.INNER), [[-1e30]])[0]
        assert got == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("w", [0.0, 1e-300, 0.5, 1.0])
    def test_matches_the_mixture_where_nothing_underflows(self, w):
        t = np.array([[0.0], [-0.1], [-3.0]])
        want = [math.log(w + (1 - w) * (1 - 5.0 * t1) ** -14.0) for (t1,) in t]
        assert log_mgf(PointMassGamma(w, self.INNER), t) == pytest.approx(want, rel=1e-14)


class TestMgfSplit:
    def test_terms(self):
        ig = IndependentGamma((2.0, 0.5), (3.0, 1.5), 0.02)
        assert mgf_split(ig) == ((GammaTerm(2.0, 3.0, 0.02), GammaTerm(0.5, 1.5, 0.02)), None)
        mix = GammaMixture(((0.3, 0.7), (1.0,)), ((1.0, 4.0), (2.0,)), ((2.0, 1.0), (3.0,)))
        assert mgf_split(mix) == ((MixtureTerm((0.3, 0.7), (1.0, 4.0), (2.0, 1.0)),
                                   MixtureTerm((1.0,), (2.0,), (3.0,))), None)
        gmv = GeneralizedMVGamma(((1.0, 0.0), (0.5, 2.0)), (2.0, 3.0), (1.5, 0.4), (2.0, 3.0))
        marginals, joint = mgf_split(gmv)
        assert marginals == (GammaTerm(2.0, 2.0), GammaTerm(3.0, 3.0))
        assert isinstance(joint, GammaFactors)
        assert joint == GammaFactors(((1.0, 0.5), (0.0, 2.0)), (1.5, 0.4))  # the loadings' columns
        marginals, joint = mgf_split(CheriyanRamabhadran(1.0, 2.0, 0.5))
        assert marginals == (GammaTerm(1.0, 2.0), GammaTerm(1.0, 0.5))
        assert joint == GammaFactors(((1.0, 1.0),), (1.0,))
        for spec in (Freund(1.0, 2.0, 1.5, 0.8), ArnoldStrauss(1.0, 1.5, 0.8),
                     PointMassGamma(0.4, ig)):
            assert mgf_split(spec) == ((None, None), spec)
        with pytest.raises(SpecError, match="no MGF for str"):
            mgf_split("gamma")


@pytest.mark.parametrize("eps", [0.0, 0.02])
def test_gamma_jet_matches_finite_differences(eps):
    # rows m, m_b, m_n, m_bb, m_bn, m_nn against central differences of m
    t = -0.05 * np.arange(40.0)
    b, n, h = 1.3, 2.4, 1e-4

    def m(db=0.0, dn=0.0):
        return np.exp(term_log_mgf(GammaTerm(b + db, n + dn, eps), t))

    jet = gamma_jet(GammaTerm(b, n, eps), t)
    assert jet.shape == (6, len(t))
    assert jet[0].tobytes() == m().tobytes()
    want = [
        (m(db=h) - m(db=-h)) / (2 * h),
        (m(dn=h) - m(dn=-h)) / (2 * h),
        (m(db=h) - 2 * m() + m(db=-h)) / h**2,
        (m(h, h) - m(h, -h) - m(-h, h) + m(-h, -h)) / (4 * h**2),
        (m(dn=h) - 2 * m() + m(dn=-h)) / h**2,
    ]
    for row, fd in zip(jet[1:], want):
        np.testing.assert_allclose(row, fd, rtol=1e-5, atol=1e-8)
