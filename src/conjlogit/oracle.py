"""Independent verification engines for the series results.

``quadrature_h`` integrates the exact marginal integrand numerically (no
series expansion anywhere in the path); ``mc_h`` averages the likelihood
over prior draws.  Both exist solely to cross-check the closed-form routes,
so they deliberately share no code with the series engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_model import (
    ArnoldStrauss,
    CheriyanRamabhadran,
    Freund,
    GammaMixture,
    GeneralizedMVGamma,
    Household,
    IndependentGamma,
    PointMassGamma,
    SpecError,
)


# Subintervals scipy's adaptive quad may split a one-dimensional range into
QUAD_LIMIT = 200


@dataclass(frozen=True)
class QuadConfig:
    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")


class ToleranceNotMet(RuntimeError):
    def __init__(self, achieved: float, requested: float):
        self.achieved = achieved
        super().__init__(
            f"quadrature achieved rel error ~{achieved:.3g}, requested {requested:.3g}"
        )


def bernoulli_likelihood(h: Household, beta, x_scale: float = 1.0) -> float:
    """Product over observations of exp(-X.beta*y) / (1 + exp(-X.beta))."""
    logv = 0.0
    for obs in h.observations:
        u = x_scale * sum(xv * bv for xv, bv in zip(obs.x, beta))
        logv += -u * obs.y - np.logaddexp(0.0, -u)
    return math.exp(logv)


def _gamma_logpdf(z, b, n, log_gamma_n):
    return (n - 1.0) * np.log(z) - z / b - n * math.log(b) - log_gamma_n


def _density_1d(spec, p: int):
    from scipy.special import gammaln

    if isinstance(spec, IndependentGamma):
        b, n, eps = spec.b[p], spec.n[p], spec.eps
        lg = gammaln(n)

        def pdf(z):
            return math.exp(_gamma_logpdf(z - eps, b, n, lg)) if z > eps else 0.0

        return pdf, eps, b * n + eps
    if isinstance(spec, GammaMixture):
        comps = [(w, b, n, gammaln(n)) for w, b, n in zip(spec.weights[p], spec.b[p], spec.n[p])]
        eps = spec.eps

        def pdf(z):
            if z <= eps:
                return 0.0
            return sum(w * math.exp(_gamma_logpdf(z - eps, b, n, lg)) for w, b, n, lg in comps)

        mean = sum(w * b * n for w, b, n, _ in comps) + eps
        return pdf, eps, mean
    raise SpecError(f"no 1-d density for {type(spec).__name__}")


def cr_density(x1: float, x2: float, spec: CheriyanRamabhadran) -> float:
    """Cheriyan-Ramabhadran bivariate Gamma density (inner integral by quadrature)."""
    if x1 <= 0 or x2 <= 0:
        return 0.0
    from scipy import integrate
    from scipy.special import gammaln

    m = min(x1, x2)

    def integrand(y):
        return (
            y ** (spec.theta0 - 1.0)
            * (x1 - y) ** (spec.theta1 - 1.0)
            * (x2 - y) ** (spec.theta2 - 1.0)
            * math.exp(y)
        )

    inner, _ = integrate.quad(integrand, 0.0, m, limit=QUAD_LIMIT, points=[0.0, m])
    log_const = gammaln(spec.theta0) + gammaln(spec.theta1) + gammaln(spec.theta2)
    return math.exp(-(x1 + x2) - log_const) * inner


def quadrature_h(h: Household, spec, qc: QuadConfig | None = None, x_scale: float = 1.0) -> float:
    """Adaptive quadrature of the exact marginal integral for one household.

    Supports independent Gammas / mixtures at any small P (nested quad, P <= 3)
    and the Cheriyan-Ramabhadran bivariate family at P = 2.  The semi-infinite
    domain is mapped to the unit cube via u = 1 - exp(-z/s) with s equal to
    the prior mean per dimension.
    """
    qc = qc or QuadConfig()
    P = len(h.observations[0].x)
    if isinstance(spec, CheriyanRamabhadran):
        if P != 2:
            raise SpecError("Cheriyan-Ramabhadran quadrature needs P = 2")
        return _cr_quadrature(h, spec, qc, x_scale)

    if isinstance(spec, (IndependentGamma, GammaMixture)):
        if P > 3:
            raise SpecError("tensor quadrature supports P <= 3")
        from scipy import integrate

        pdfs, epss, means = zip(*(_density_1d(spec, p) for p in range(P)))
        scales = [max(m, 1e-6) for m in means]

        def transform(u):
            z = [epss[p] - scales[p] * math.log1p(-u[p]) for p in range(P)]
            jac = 1.0
            for p in range(P):
                jac *= scales[p] / (1.0 - u[p])
            return z, jac

        def f_last(*args):
            u = args[::-1]  # scipy nests as f(xn, ..., x1)
            z, jac = transform(u)
            dens = 1.0
            for p in range(P):
                dens *= pdfs[p](z[p])
            return bernoulli_likelihood(h, z, x_scale) * dens * jac

        if P == 1:
            val, err = integrate.quad(
                f_last, 0.0, 1.0, epsabs=0.0, epsrel=qc.rel_tol, limit=QUAD_LIMIT
            )
        elif P == 2:
            val, err = integrate.dblquad(
                f_last, 0.0, 1.0, 0.0, 1.0, epsabs=0.0, epsrel=qc.rel_tol
            )
        else:
            val, err = integrate.tplquad(
                f_last, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, epsabs=0.0, epsrel=qc.rel_tol
            )
        _check_tol(val, err, qc)
        return val

    raise SpecError(f"no quadrature route for {type(spec).__name__}; use mc_h")


def _cr_quadrature(
    h: Household, spec: CheriyanRamabhadran, qc: QuadConfig, x_scale: float
) -> float:
    """Tensor quadrature over the three Gamma components behind the
    construction (x1, x2) = (y0 + y1, y0 + y2).

    Generalized Gauss-Laguerre rules absorb the y^(theta-1) e^(-y) weights
    exactly, leaving only the smooth bounded likelihood to resolve.  The
    error is estimated by comparing two rule orders.
    """
    from scipy.special import gammaln, roots_genlaguerre

    thetas = (spec.theta0, spec.theta1, spec.theta2)
    X = np.array([obs.x for obs in h.observations], dtype=float) * x_scale
    yv = np.array([obs.y for obs in h.observations], dtype=float)

    def estimate(order: int) -> float:
        nodes, weights = zip(
            *(roots_genlaguerre(order, t - 1.0) for t in thetas)
        )
        y0, y1, y2 = np.meshgrid(*nodes, indexing="ij")
        w = (
            weights[0][:, None, None]
            * weights[1][None, :, None]
            * weights[2][None, None, :]
        )
        beta = np.stack([(y0 + y1).ravel(), (y0 + y2).ravel()], axis=1)
        U = beta @ X.T
        loglik = -(U * yv).sum(axis=1) - np.logaddexp(0.0, -U).sum(axis=1)
        total = float(np.sum(w.ravel() * np.exp(loglik)))
        return total / math.exp(sum(gammaln(t) for t in thetas))

    lo, hi = estimate(48), estimate(80)
    _check_tol(hi, abs(hi - lo), qc)
    return hi


def _check_tol(val: float, err: float, qc: QuadConfig) -> None:
    if val != 0.0 and err / abs(val) > 10.0 * qc.rel_tol:
        raise ToleranceNotMet(err / abs(val), qc.rel_tol)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def _rng_for(seed: int, household_id: str):
    # counter-based generator keyed by (seed, household id) so per-household
    # streams are order-insensitive
    import zlib

    key = (seed, zlib.crc32(household_id.encode("utf-8")))
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def sample_prior(spec, size: int, rng) -> np.ndarray:
    """Draw ``size`` coefficient vectors from the heterogeneity distribution."""
    if isinstance(spec, IndependentGamma):
        cols = [
            spec.eps + rng.gamma(shape=n, scale=b, size=size)
            for b, n in zip(spec.b, spec.n)
        ]
        return np.column_stack(cols)
    if isinstance(spec, GammaMixture):
        cols = []
        for p in range(spec.P):
            w = np.asarray(spec.weights[p])
            comp = rng.choice(len(w), size=size, p=w)
            draws = np.empty(size)
            for c, (b, n) in enumerate(zip(spec.b[p], spec.n[p])):
                mask = comp == c
                draws[mask] = rng.gamma(shape=n, scale=b, size=int(mask.sum()))
            cols.append(spec.eps + draws)
        return np.column_stack(cols)
    if isinstance(spec, PointMassGamma):
        # all-or-nothing: with probability w every coefficient is zero
        betas = sample_prior(spec.inner, size, rng)
        betas[rng.random(size) < spec.w] = 0.0
        return betas
    if isinstance(spec, GeneralizedMVGamma):
        Y0 = np.column_stack(
            [rng.gamma(shape=t, scale=1.0, size=size) for t in spec.theta0]
        )
        load = np.asarray(spec.loadings)
        X = Y0 @ load.T
        for p in range(spec.P):
            X[:, p] += spec.lam[p] * rng.gamma(shape=spec.theta[p], scale=1.0, size=size)
        return X
    if isinstance(spec, CheriyanRamabhadran):
        y0 = rng.gamma(shape=spec.theta0, scale=1.0, size=size)
        y1 = rng.gamma(shape=spec.theta1, scale=1.0, size=size)
        y2 = rng.gamma(shape=spec.theta2, scale=1.0, size=size)
        return np.column_stack([y0 + y1, y0 + y2])
    if isinstance(spec, Freund):
        # component 1 fails first with prob a1/(a1+a2); survivor's rate switches
        a1, a2 = spec.alpha1, spec.alpha2
        first = rng.exponential(scale=1.0 / (a1 + a2), size=size)
        one_first = rng.random(size) < a1 / (a1 + a2)
        extra1 = rng.exponential(scale=1.0 / spec.alpha1p, size=size)
        extra2 = rng.exponential(scale=1.0 / spec.alpha2p, size=size)
        x1 = np.where(one_first, first, first + extra1)
        x2 = np.where(one_first, first + extra2, first)
        return np.column_stack([x1, x2])
    if isinstance(spec, ArnoldStrauss):
        out = np.empty((size, 2))
        filled = 0
        while filled < size:
            m = max(size - filled, 1024)
            x1 = rng.exponential(scale=1.0 / spec.lam1, size=m)
            x2 = rng.exponential(scale=1.0 / spec.lam2, size=m)
            keep = rng.random(m) < np.exp(-spec.lam12 * x1 * x2)
            k = min(int(keep.sum()), size - filled)
            out[filled:filled + k, 0] = x1[keep][:k]
            out[filled:filled + k, 1] = x2[keep][:k]
            filled += k
        return out
    raise SpecError(f"no sampler for {type(spec).__name__}")


def mc_h(
    h: Household,
    spec,
    n_draws: int,
    seed: int,
    x_scale: float = 1.0,
) -> tuple[float, float]:
    """Monte Carlo estimate of H_i with its standard error.

    ``n_draws`` must be at least 2, or there is no standard error, and
    ``seed`` an integer in [0, 2**64).
    """
    if n_draws < 2:
        raise ValueError(f"Monte Carlo needs at least 2 draws, got {n_draws}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"Monte Carlo seed must be an integer in [0, 2**64), got {seed}")
    rng = _rng_for(seed, h.id)
    betas = sample_prior(spec, n_draws, rng)
    X = np.array([obs.x for obs in h.observations], dtype=float) * x_scale
    y = np.array([obs.y for obs in h.observations], dtype=float)
    U = betas @ X.T  # (n_draws, n_obs)
    loglik = -(U * y).sum(axis=1) - np.logaddexp(0.0, -U).sum(axis=1)
    vals = np.exp(loglik)
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_draws))
    return est, se
