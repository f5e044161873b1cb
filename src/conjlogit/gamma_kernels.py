"""Closed-form integral and MGF primitives.

Everything here is a pure function of its arguments.  The workhorse is
:func:`log_mgf`, the one vectorized implementation of every prior family's
moment generating function.  It does no domain checks: the series needs it
only on the non-positive orthant, where every formula is finite.
:func:`mgf_split` writes each prior's log MGF as a sum of one-attribute
marginals and at most one joint term (:class:`GammaFactors` for the
shared-factor and Cheriyan-Ramabhadran priors, the prior itself for the
point-mass, Freund and Arnold-Strauss ones); ``log_mgf`` is that sum, and
the series evaluates each marginal only on its attribute's few distinct t_p
and the joint at a dataset's distinct t = -x_scale * K.  Gamma-type factors
are evaluated in log space, e.g. (1 - b*t)^(-n) as exp(-n * log1p(-b*t)),
so large shapes do not overflow.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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

class GammaTerm(NamedTuple):
    """One attribute's Gamma factor (1 - b t)^(-n) exp(eps t)."""

    b: float
    n: float
    eps: float = 0.0


class MixtureTerm(NamedTuple):
    """One attribute's Gamma mixture sum_c weights[c] (1 - b[c] t)^(-n[c]) exp(eps t)."""

    weights: tuple[float, ...]
    b: tuple[float, ...]
    n: tuple[float, ...]
    eps: float = 0.0


class GammaFactors(NamedTuple):
    """Gamma factors along directions: the MGF prod_f (1 - d_f . t)^(-shape_f),
    where d_f is ``directions[f]``, a P-tuple.

    The joint term of the shared-factor prior (d_f is its loadings' column
    f) and of the Cheriyan-Ramabhadran prior (one factor along (1, 1)); see
    :func:`mgf_split`.
    """

    directions: tuple[tuple[float, ...], ...]
    shapes: tuple[float, ...]


def mgf_split(spec) -> tuple[tuple, object]:
    """A prior's MGF as factors of one attribute each and one joint term.

    Returns ``(marginals, joint)`` with log M(t) = sum_p term_log_mgf(
    marginals[p], t_p) + term_log_mgf(joint, t).  A marginal is a
    :class:`GammaTerm` or :class:`MixtureTerm`, or None where attribute p
    has no factor of its own; the joint is None where M is a product over
    attributes.  The terms are plain tuples of the spec's validated
    numbers, so splitting builds no spec.

    - Independent Gammas and per-attribute Gamma mixtures are products; a
      translation eps shifts every attribute, so each marginal keeps it.
    - The shared-factor prior is X_p = sum_f loadings[p][f] Y0_f + lam_p Y_p:
      its marginals are the Gamma(lam_p, theta_p) of Y_p, and its joint is
      the Gamma factors of the Y0_f along the loadings' columns.
    - Cheriyan-Ramabhadran is X_p = Y0 + Y_p with unit scales: marginals
      Gamma(1, theta_p), joint (1 - t1 - t2)^(-theta0).
    - Every other prior is its own joint.
    """
    if isinstance(spec, IndependentGamma):
        return tuple(GammaTerm(b, n, spec.eps) for b, n in zip(spec.b, spec.n)), None
    if isinstance(spec, GammaMixture):
        return tuple(MixtureTerm(w, b, n, spec.eps)
                     for w, b, n in zip(spec.weights, spec.b, spec.n)), None
    if isinstance(spec, GeneralizedMVGamma):
        return (
            tuple(GammaTerm(lam, th) for lam, th in zip(spec.lam, spec.theta)),
            GammaFactors(tuple(zip(*spec.loadings)), spec.theta0),
        )
    if isinstance(spec, CheriyanRamabhadran):
        return (
            (GammaTerm(1.0, spec.theta1), GammaTerm(1.0, spec.theta2)),
            GammaFactors(((1.0, 1.0),), (spec.theta0,)),
        )
    if isinstance(spec, (PointMassGamma, Freund, ArnoldStrauss)):
        return (None,) * spec.P, spec
    raise SpecError(f"no MGF for {type(spec).__name__}")


def log_mgf(spec, T) -> np.ndarray:
    """log M(t) of a heterogeneity distribution at every row t of ``T``.

    ``T`` has shape (n, P); the result has shape (n,).  The prior is split
    by :func:`mgf_split`, and its terms are added by :func:`add_logs`: each
    marginal's log factor at the column t_p, in attribute order, then the
    joint's at every row, so this is what
    :meth:`~conjlogit.series.CountMatrix.mgf` computes on its attribute
    axes.  Each family's formula is written once, in :func:`term_log_mgf`.
    It does no domain checks: each formula is finite on the non-positive
    orthant, where the series needs it.
    """
    T = np.asarray(T, dtype=float)
    marginals, joint = mgf_split(spec)
    terms = [term_log_mgf(m, T[:, p]) for p, m in enumerate(marginals) if m is not None]
    if joint is not None:
        terms.append(term_log_mgf(joint, T))
    return add_logs(terms, len(T))


def add_logs(terms: list[np.ndarray], n: int) -> np.ndarray:
    """The sum of a split's log terms, left to right, in place in the first
    (each term is a fresh array); zeros of length ``n`` for no terms."""
    if not terms:
        return np.zeros(n)
    out = terms[0]
    for v in terms[1:]:
        out += v
    return out


def point_mass_log(w: float, log_delta, log_inner):
    """log(w exp(log_delta) + (1 - w) exp(log_inner)), elementwise.

    The mixture of an atom and an inner prior with weight w on the atom, as
    a log-sum-exp, so it stays finite where either exp underflows: the MGF
    of the point-mass prior (log_delta = 0) and its dataset-level
    likelihood (:func:`~conjlogit.series.log_marginal_prepared`).
    """
    log_w = math.log(w) if w > 0.0 else -math.inf
    log_1mw = math.log1p(-w) if w < 1.0 else -math.inf
    return np.logaddexp(log_w + log_delta, log_1mw + log_inner)


def term_log_mgf(spec, t) -> np.ndarray:
    """log M of one term of a split: a one-attribute marginal at every
    entry of the 1-D ``t``, or a joint at every row of the 2-D ``t``."""
    if isinstance(spec, GammaTerm):
        # exp(-n log(1 - b t) + eps t); the grid search passes b and n as
        # columns of its (b, n) pairs, which broadcast against t
        out = t * -spec.b
        np.log1p(out, out=out)
        out *= -spec.n
        if spec.eps:
            out += t * spec.eps
        return out
    if isinstance(spec, MixtureTerm):
        t = t[:, None]
        comp = np.exp(spec.eps * t - np.log1p(-t * np.asarray(spec.b)) * np.asarray(spec.n))
        return np.log(comp @ np.asarray(spec.weights))
    if isinstance(spec, GammaFactors):
        terms = []
        for d, shape in zip(spec.directions, spec.shapes):
            v = t @ d
            np.negative(v, out=v)
            np.log1p(v, out=v)
            v *= -shape
            terms.append(v)
        return add_logs(terms, len(t))
    if isinstance(spec, PointMassGamma):
        return point_mass_log(spec.w, 0.0, log_mgf(spec.inner, t))
    t1, t2 = t[:, 0], t[:, 1]
    if isinstance(spec, Freund):
        a1, a2, a1p, a2p = spec.alpha1, spec.alpha2, spec.alpha1p, spec.alpha2p
        return np.log(a1p * a2 / (a1p - t1) + a1 * a2p / (a2p - t2)) - np.log(
            a1 + a2 - t1 - t2
        )
    # Arnold-Strauss: M(0, 0) = 1 pins the normalization, so the MGF is the
    # ratio of exp(a) E1(a) at a(t) = (lam1 - t1)(lam2 - t2)/lam12 and at a(0).
    a_t = (spec.lam1 - t1) * (spec.lam2 - t2) / spec.lam12
    a_0 = spec.lam1 * spec.lam2 / spec.lam12
    return log_scaled_e1(a_t) - log_scaled_e1(a_0)[()]

