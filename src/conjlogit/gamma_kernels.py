"""Closed-form integral and MGF primitives.

Everything here is a pure function of its arguments.  The workhorse is
:func:`log_mgf`, the one vectorized implementation of every prior family's
moment generating function.  It does no domain checks: the series needs it
only on the non-positive orthant, where every formula is finite.
:func:`attribute_marginals` splits a prior that is a product over
attributes (independent Gammas, per-attribute Gamma mixtures) into
one-attribute specs; the series evaluates those with ``log_mgf`` on each
attribute's few distinct t_p and sums the logs, and evaluates every other
family with ``log_mgf`` at all of a dataset's distinct t = -x_scale * K at
once.  Gamma-type factors are evaluated in log space, e.g. (1 - b*t)^(-n)
as exp(-n * log1p(-b*t)), so large shapes do not overflow.
"""

from __future__ import annotations

import numpy as np

from .data_model import (
    ArnoldStrauss,
    CheriyanRamabhadran,
    Freund,
    GammaMixture,
    GeneralizedMVGamma,
    IndependentGamma,
    PointMassGamma,
    SpecError,
)

_EULER_GAMMA = 0.5772156649015328606


def gmv_gamma_covariance(params: GeneralizedMVGamma) -> np.ndarray:
    """Covariance matrix of the generalized multivariate Gamma."""
    load = np.asarray(params.loadings, dtype=float)
    th0 = np.asarray(params.theta0, dtype=float)
    cov = (load * th0) @ load.T
    lam = np.asarray(params.lam, dtype=float)
    th = np.asarray(params.theta, dtype=float)
    cov[np.diag_indices_from(cov)] += lam**2 * th
    return cov


# ---------------------------------------------------------------------------
# Exponential integral
# ---------------------------------------------------------------------------

def log_scaled_e1(a) -> np.ndarray:
    """log(exp(a) * E1(a)) for a > 0, elementwise.

    exp(a) * E1(a) falls like 1/a, so it stays finite where exp(a) overflows
    and E1(a) underflows.  Uses the power series of E1 for a < 2 (at most two
    digits lost to cancellation) and the continued fraction
    1/(a+1- 1/(a+3- 4/(a+5- ...))), evaluated backwards from a fixed depth
    of 60, for a >= 2; both are within a few ulps of the exact value.
    """
    a = np.asarray(a, dtype=float)
    out = np.empty(a.shape)
    small = a < 2.0
    x = a[small]
    term = np.ones_like(x)
    s = np.zeros_like(x)
    for k in range(1, 41):
        term *= -x / k
        s += term / k
    out[small] = np.log(-_EULER_GAMMA - np.log(x) - s) + x
    x = a[~small]
    f = x + 121.0
    for k in range(60, 0, -1):
        f = x + (2 * k - 1) - (k * k) / f
    out[~small] = -np.log(f)
    return out


# ---------------------------------------------------------------------------
# Moment generating functions
# ---------------------------------------------------------------------------

def log_mgf(spec, T) -> np.ndarray:
    """log M(t) of a heterogeneity distribution at every row t of ``T``.

    ``T`` has shape (n, P); the result has shape (n,).  This is the single
    implementation of every family's MGF; it does no domain checks (each
    formula is finite on the non-positive orthant, where the series needs
    it).  The point-mass family's MGF is w + (1 - w) * M_inner(t).
    """
    T = np.asarray(T, dtype=float)
    if isinstance(spec, IndependentGamma):
        out = gamma_log_bases(spec, T) @ -np.asarray(spec.n)
        if spec.eps:
            out += T @ np.full(T.shape[1], spec.eps)
        return out
    if isinstance(spec, GammaMixture):
        out = np.zeros(T.shape[0])
        for p, (w, b, n) in enumerate(zip(spec.weights, spec.b, spec.n)):
            t = T[:, p:p + 1]
            comp = np.exp(spec.eps * t - np.log1p(-t * np.asarray(b)) * np.asarray(n))
            out += np.log(comp @ np.asarray(w))
        return out
    if isinstance(spec, PointMassGamma):
        return np.log(spec.w + (1.0 - spec.w) * np.exp(log_mgf(spec.inner, T)))
    if isinstance(spec, GeneralizedMVGamma):
        shared = np.log1p(-(T @ np.asarray(spec.loadings, dtype=float)))
        own = np.log1p(-T * np.asarray(spec.lam))
        return -(shared @ np.asarray(spec.theta0)) - own @ np.asarray(spec.theta)
    t1, t2 = T[:, 0], T[:, 1]
    if isinstance(spec, CheriyanRamabhadran):
        return (
            -spec.theta0 * np.log1p(-(t1 + t2))
            - spec.theta1 * np.log1p(-t1)
            - spec.theta2 * np.log1p(-t2)
        )
    if isinstance(spec, Freund):
        a1, a2, a1p, a2p = spec.alpha1, spec.alpha2, spec.alpha1p, spec.alpha2p
        return np.log(a1p * a2 / (a1p - t1) + a1 * a2p / (a2p - t2)) - np.log(
            a1 + a2 - t1 - t2
        )
    if isinstance(spec, ArnoldStrauss):
        # M(0, 0) = 1 pins the normalization, so the MGF is the ratio of
        # exp(a) E1(a) at a(t) = (lam1 - t1)(lam2 - t2)/lam12 and at a(0).
        a_t = (spec.lam1 - t1) * (spec.lam2 - t2) / spec.lam12
        a_0 = spec.lam1 * spec.lam2 / spec.lam12
        return log_scaled_e1(a_t) - log_scaled_e1(a_0)[()]
    raise SpecError(f"no MGF for {type(spec).__name__}")


def gamma_log_bases(spec: IndependentGamma, T) -> np.ndarray:
    """log(1 - b_p t_p) at every row t of ``T``, one column per attribute p.

    The independent-Gamma MGF is exp(sum_p -n_p log(1 - b_p t_p) + eps sum_p t_p):
    :func:`log_mgf` reduces these columns with -n, and the grid search
    scales each by its own -n_p to get one factor per (b_p, n_p) pair.
    """
    out = T * -np.asarray(spec.b)
    return np.log1p(out, out=out)


def attribute_marginals(spec):
    """The one-attribute marginal specs of a prior that is a product over
    attributes, in attribute order; None for any other family.

    The MGF of such a prior is the product of its marginals' MGFs, M(t) =
    prod_p M_p(t_p), so log M(t) is the sum over p of ``log_mgf`` of the
    p-th marginal at t_p.  Independent Gammas and per-attribute Gamma
    mixtures are products (a translation eps shifts every attribute, so each
    marginal keeps it); the point-mass, shared-factor and bivariate families
    are not.
    """
    if isinstance(spec, IndependentGamma):
        return [IndependentGamma((b,), (n,), spec.eps) for b, n in zip(spec.b, spec.n)]
    if isinstance(spec, GammaMixture):
        return [
            GammaMixture((w,), (b,), (n,), spec.eps)
            for w, b, n in zip(spec.weights, spec.b, spec.n)
        ]
    return None
