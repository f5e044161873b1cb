"""Maximum marginal likelihood over the prior parameters.

Grid search is the default estimator: the Diophantine caches are built once
and every grid point reuses them, so the per-point cost is only the cheap
r-sums.  Newton's method with the closed-form gradient and Hessian of the
series is available as an opt-in refiner; the likelihood surface can be flat
and multi-modal, so it is best seeded from a grid optimum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .data_model import Dataset, IndependentGamma, SpecError
from .diophantine import DioCache
from .gamma_kernels import log_mgf
from .series import (
    HouseholdSums,
    PreparedDataset,
    SeriesConfig,
    TruncationFailure,
    log_marginal_prepared,
    prepare_dataset,
)


class FitError(RuntimeError):
    pass


class SingularHessian(FitError):
    def __init__(self, cond: float):
        self.cond = cond
        super().__init__(f"Hessian is numerically singular (cond ~ {cond:.3g})")


@dataclass(frozen=True)
class GridAxis:
    center: float
    count: int
    spacing: float

    def __post_init__(self):
        if self.count < 1 or self.spacing <= 0:
            raise ValueError("need count >= 1 and spacing > 0")

    def points(self) -> list[float]:
        half = (self.count - 1) / 2.0
        return [self.center + (i - half) * self.spacing for i in range(self.count)]


@dataclass(frozen=True)
class GridSpec:
    """Axes ordered (b_1, n_1, ..., b_P, n_P) for the Gamma family."""

    axes: tuple[GridAxis, ...]

    def __post_init__(self):
        for ax in self.axes:
            if min(ax.points()) <= 0:
                raise ValueError("grid extends into non-positive parameter values")

    def points(self):
        return product(*(ax.points() for ax in self.axes))

    @property
    def cardinality(self) -> int:
        c = 1
        for ax in self.axes:
            c *= ax.count
        return c


@dataclass
class FitResult:
    omega_hat: tuple[float, ...]
    loglik: float
    trace: list[tuple[tuple[float, ...], float]]
    boundary_flag: bool = False
    newton_iters: int = 0
    converged: bool = True
    parity_spread: float | None = None  # at omega_hat; None without a parity check

    def to_json(self) -> str:
        return json.dumps(
            {
                "omega_hat": list(self.omega_hat),
                "loglik": self.loglik,
                "boundary_flag": self.boundary_flag,
                "newton_iters": self.newton_iters,
                "converged": self.converged,
                "parity_spread": self.parity_spread,
                "trace": [
                    {"params": list(p), "loglik": v} for p, v in self.trace
                ],
            },
            indent=2,
        )


def params_to_spec(params, P: int, eps: float = 0.0) -> IndependentGamma:
    """Interleaved (b_1, n_1, ..., b_P, n_P) vector to an independent-Gamma spec."""
    if len(params) != 2 * P:
        raise SpecError(f"expected {2*P} parameters, got {len(params)}")
    b = tuple(params[2 * p] for p in range(P))
    n = tuple(params[2 * p + 1] for p in range(P))
    return IndependentGamma(b, n, eps)


def grid_fit(
    d: Dataset,
    grid: GridSpec,
    cfg: SeriesConfig,
    eps: float = 0.0,
    prep: PreparedDataset | None = None,
) -> FitResult:
    """Evaluate the log marginal likelihood on every grid point; return the argmax.

    Caches are built once (pass ``prep`` to reuse across calls).  Ties break
    to the lexicographically smallest parameter tuple; ``boundary_flag`` is
    set when the argmax touches a grid edge on any axis with count > 1.
    With ``cfg.parity_check`` the result carries the argmax's parity spread.
    """
    if len(grid.axes) != 2 * d.P:
        raise SpecError(f"grid needs {2*d.P} axes for P={d.P}")
    if prep is None:
        prep = prepare_dataset(d, cfg)
    trace: list[tuple[tuple[float, ...], float]] = []
    best: tuple[float, ...] | None = None
    best_ll = -math.inf
    best_idx: tuple[int, ...] | None = None
    best_spread: float | None = None
    failures = 0
    axis_points = [ax.points() for ax in grid.axes]
    for idx in product(*(range(ax.count) for ax in grid.axes)):
        params = tuple(axis_points[a][i] for a, i in enumerate(idx))
        spec = params_to_spec(params, d.P, eps)
        try:
            ev = log_marginal_prepared(prep, spec)
        except TruncationFailure:
            failures += 1
            continue
        ll = ev.value
        trace.append((params, ll))
        if ll > best_ll or (ll == best_ll and (best is None or params < best)):
            best, best_ll, best_idx, best_spread = params, ll, idx, ev.parity_spread
    if best is None:
        raise FitError(f"all {grid.cardinality} grid points failed truncation")
    boundary = any(
        ax.count > 1 and (i == 0 or i == ax.count - 1)
        for ax, i in zip(grid.axes, best_idx)
    )
    return FitResult(best, best_ll, trace, boundary_flag=boundary, parity_spread=best_spread)


# ---------------------------------------------------------------------------
# Analytic derivatives of the grouped series (independent-Gamma family)
# ---------------------------------------------------------------------------

def _weight_columns(K: np.ndarray, spec: IndependentGamma) -> np.ndarray:
    """Each r-tuple's kernel weight w and its parameter derivatives, as columns.

    ``K`` holds scaled K tuples, one per row.  With log w = f(theta) and D
    the gradient of f in (b_1, n_1, ..., b_P, n_P), the columns are w,
    w * D_i and w * (D_i D_j + d2f/di dj) for i <= j: summed against the
    signed counts they give H_i, its gradient and its Hessian.  f is
    -eps*sum(K) - sum_p n_p log1p(b_p K_p), so D is (-n_p A_p, -L_p) with
    A = K / (1 + b K) and L = log1p(b K), and the only non-zero second
    derivatives of f are n_p A_p^2 (b_p twice) and -A_p (b_p with n_p).  The
    translation factor exp(-K*eps) is parameter-free and simply rides along.
    """
    P = spec.P
    b = np.asarray(spec.b)
    n = np.asarray(spec.n)
    A = K / (1.0 + b * K)
    D = np.empty((K.shape[0], 2 * P))
    D[:, 0::2] = -n * A
    D[:, 1::2] = -np.log1p(b * K)
    i, j = np.triu_indices(2 * P)
    second = D[:, i] * D[:, j]
    column = {pair: k for k, pair in enumerate(zip(i.tolist(), j.tolist()))}
    for p in range(P):
        second[:, column[2 * p, 2 * p]] += n[p] * A[:, p] ** 2
        second[:, column[2 * p, 2 * p + 1]] -= A[:, p]
    w = np.exp(log_mgf(spec, -K))
    return w[:, None] * np.hstack([np.ones((K.shape[0], 1)), D, second])


def _unpack(S: np.ndarray, P: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # rows of summed weight columns -> H (g,), gradient (g, 2P), upper triangle
    return S[:, 0], S[:, 1:2 * P + 1], S[:, 2 * P + 1:]


def _symmetric(tri: np.ndarray, P: int) -> np.ndarray:
    out = np.empty((2 * P, 2 * P))
    i, j = np.triu_indices(2 * P)
    out[i, j] = tri
    out[j, i] = tri
    return out


def derivatives(
    sums: HouseholdSums,
    cache: DioCache,
    spec: IndependentGamma,
    x_scale: float = 1.0,
) -> tuple[float, np.ndarray, np.ndarray]:
    """H_i with its gradient and Hessian in (b_1, n_1, ..., b_P, n_P).

    All the partial-derivative series reuse the cache's signed counts.
    """
    if cache.x_vectors != sums.x_vectors:
        raise SpecError("cache/household x_vectors mismatch")
    K = x_scale * (cache.r_array + np.asarray(sums.Y, dtype=np.int64))
    H, grad, tri = _unpack((cache.count_array @ _weight_columns(K, spec))[None, :], spec.P)
    return float(H[0]), grad[0], _symmetric(tri[0], spec.P)


def loglik_grad_hess(
    prep: PreparedDataset, spec: IndependentGamma
) -> tuple[float, np.ndarray, np.ndarray]:
    """Log marginal likelihood with gradient and Hessian over all households.

    One sparse product of the prepared count matrix with the weight columns
    of the distinct K tuples gives every group's H_i and its derivatives.
    """
    counts = prep.counts
    H, grad, tri = _unpack(counts.C @ _weight_columns(-counts.T, spec), spec.P)
    prep.raise_on_truncation(H)
    g = grad / H[:, None]  # gradient of log H_i
    i, j = np.triu_indices(2 * spec.P)
    ll = float(counts.mult @ np.log(H))
    hess = counts.mult @ (tri / H[:, None] - g[:, i] * g[:, j])
    return ll, counts.mult @ g, _symmetric(hess, spec.P)


POSITIVITY_FLOOR = 1e-6


def newton_fit(
    d: Dataset,
    spec0: IndependentGamma,
    cfg: SeriesConfig,
    max_iters: int = 50,
    tol: float = 1e-6,
    prep: PreparedDataset | None = None,
) -> FitResult:
    """Newton refinement of the independent-Gamma parameters.

    Iterates x + p with H p = -g, halving the step until the log likelihood
    does not decrease and projecting onto the positive orthant.  Stops when
    the gradient sup-norm drops below ``tol``.  With ``cfg.parity_check`` the
    result carries the parity spread at the final point.
    """
    if prep is None:
        prep = prepare_dataset(d, cfg)
    P = d.P
    theta = np.empty(2 * P)
    theta[0::2] = spec0.b
    theta[1::2] = spec0.n
    eps = spec0.eps

    trace: list[tuple[tuple[float, ...], float]] = []
    ll, g, Hm = loglik_grad_hess(prep, params_to_spec(theta, P, eps))
    trace.append((tuple(theta), ll))
    converged = np.max(np.abs(g)) < tol
    iters = 0
    while not converged and iters < max_iters:
        iters += 1
        cond = np.linalg.cond(Hm)
        if not np.isfinite(cond) or cond > 1e14:
            raise SingularHessian(cond)
        step = np.linalg.solve(Hm, -g)
        new_ll = -math.inf
        scale = 1.0
        for _ in range(40):
            cand = np.maximum(theta + scale * step, POSITIVITY_FLOOR)
            try:
                new_ll, new_g, new_H = loglik_grad_hess(
                    prep, params_to_spec(cand, P, eps)
                )
            except TruncationFailure:
                scale *= 0.5
                continue
            if new_ll >= ll:
                break
            scale *= 0.5
        else:
            break  # no improving step found
        theta, ll, g, Hm = cand, new_ll, new_g, new_H
        trace.append((tuple(theta), ll))
        converged = np.max(np.abs(g)) < tol
    spread = None
    if prep.parity_check:
        spread = log_marginal_prepared(prep, params_to_spec(theta, P, eps)).parity_spread
    return FitResult(
        tuple(theta), ll, trace, newton_iters=iters, converged=bool(converged),
        parity_spread=spread,
    )
