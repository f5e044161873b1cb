"""Independent references for the per-household factor H_i.

H_i = E[prod_m exp(-u_m y_m) / (1 + exp(-u_m))] with u_m = c * x_m . beta,
the expectation taken over the prior of beta.  Nothing here expands the
logistic factor, so no part of the series code is shared.

For independent Gamma priors, ``gauss_laguerre_log_h`` uses a tensor
generalized Gauss-Laguerre rule: with beta_p = b_p z_p and z_p ~ Gamma(n_p, 1),
E[f] = (prod_p Gamma(n_p))^{-1} * int z^{n-1} e^{-z} f(b z) dz, whose weight the
rule absorbs exactly.  The likelihood is smooth and bounded, so the rule
converges geometrically; two orders give the error estimate.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import gammaln, roots_genlaguerre

from panels import X_SCALE

# Relative accuracy the Gauss-Laguerre reference claims.  Every call checks
# that the difference between its two rule orders stays below it.
GL_ACCURACY = 1e-13
GL_ORDERS = (32, 48)


class ReferenceError(RuntimeError):
    """The reference could not reach its stated accuracy."""


def _log_h_gl(groups, b, n, order: int) -> np.ndarray:
    P = len(b)
    axes = []
    for p in range(P):
        z, w = roots_genlaguerre(order, n[p] - 1.0)
        axes.append((b[p] * z, np.log(w) - gammaln(n[p])))
    grids = np.meshgrid(*(a[0] for a in axes), indexing="ij")
    beta = np.stack([g.ravel() for g in grids], axis=1)              # (Q, P)
    logw = sum(np.meshgrid(*(a[1] for a in axes), indexing="ij")).ravel()
    out = np.empty(len(groups))
    for k, (_, _, rows, ys) in enumerate(groups):
        X = X_SCALE * np.asarray(rows, dtype=float)                  # (M, P)
        u = beta @ X.T                                               # (Q, M)
        loglik = -(u @ np.asarray(ys, dtype=float)) - np.logaddexp(0.0, -u).sum(axis=1)
        t = logw + loglik
        top = t.max()
        out[k] = top + np.log(np.exp(t - top).sum())
    return out


def gauss_laguerre_log_h(groups, b, n) -> np.ndarray:
    """log H for every group under IndependentGamma(b, n), eps = 0.

    Raises :class:`ReferenceError` when the two rule orders differ by more
    than ``GL_ACCURACY`` in relative terms for any group.
    """
    lo = _log_h_gl(groups, b, n, GL_ORDERS[0])
    hi = _log_h_gl(groups, b, n, GL_ORDERS[1])
    worst = float(np.max(np.abs(np.expm1(hi - lo))))
    if worst > GL_ACCURACY:
        raise ReferenceError(
            f"Gauss-Laguerre orders {GL_ORDERS} differ by {worst:.3g} > {GL_ACCURACY:g}"
        )
    return hi


def gauss_laguerre_log_h_mixture(groups, weights, b, n) -> np.ndarray:
    """log H for every group under per-attribute Gamma mixtures, eps = 0.

    The prior is a mixture over one component choice per attribute, so H is
    the weighted sum of independent-Gamma factors over those choices.
    """
    terms = []
    for combo in itertools.product(*(range(len(w)) for w in weights)):
        log_w = sum(math.log(weights[p][c]) for p, c in enumerate(combo))
        bb = [b[p][c] for p, c in enumerate(combo)]
        nn = [n[p][c] for p, c in enumerate(combo)]
        terms.append(log_w + gauss_laguerre_log_h(groups, bb, nn))
    return np.logaddexp.reduce(np.array(terms), axis=0)
