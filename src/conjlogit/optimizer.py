"""Maximum marginal likelihood over the prior parameters.

Grid search is the default estimator: the Diophantine caches are built once,
and the whole grid is scored in one batched pass (:func:`grid_logliks`).
Each attribute's MGF factor is computed once per grid pair at that
attribute's few distinct arguments.  Both the factors and the grid are
products over attributes, so the counts are contracted one attribute at a
time: one sparse product with the last attribute's factors, then one dense
batched product per other attribute, through a layout of the counts
built once per prepared dataset.  Newton's method
with the closed-form gradient and Hessian of the series is available as an
opt-in refiner; the likelihood surface can be flat and multi-modal, so it
is best seeded from a grid optimum.  The gradient and Hessian go through
the same contraction: each attribute's factor and its derivatives in
(b_p, n_p) take the place of the grid's factor tables.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .data_model import IndependentGamma, SpecError
from .gamma_kernels import GammaTerm, gamma_jet, mgf_split, term_log_mgf
from .series import CountMatrix, PreparedDataset, TruncationFailure, group_spread


class FitError(RuntimeError):
    pass


class SingularHessian(FitError):
    def __init__(self, cond: float):
        self.cond = cond
        super().__init__(f"Hessian is numerically singular (cond ~ {cond:.3g})")


class GridError(ValueError):
    """An invalid grid axis; ``fields`` names the :class:`GridAxis` fields
    at fault."""

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


@dataclass(frozen=True)
class GridAxis:
    """``count`` points ``spacing`` apart, centered on ``center``; every
    point is a Gamma scale or shape, so it must be positive."""

    center: float
    count: int
    spacing: float

    def __post_init__(self):
        if self.count < 1:
            raise GridError(f"count must be at least 1, got {self.count}", "count")
        if not (math.isfinite(self.spacing) and self.spacing > 0):
            raise GridError(f"spacing must be a finite number > 0, got {self.spacing}",
                            "spacing")
        if not math.isfinite(self.center):
            raise GridError(f"center must be a finite number, got {self.center}", "center")
        if self.points()[0] <= 0:
            raise GridError(f"the lowest point must be > 0, got {self.points()[0]:.6g}",
                            "center", "spacing")

    def points(self) -> list[float]:
        half = (self.count - 1) / 2.0
        return [self.center + (i - half) * self.spacing for i in range(self.count)]


@dataclass(frozen=True)
class GridSpec:
    """Axes ordered (b_1, n_1, ..., b_P, n_P) for the Gamma family."""

    axes: tuple[GridAxis, ...]

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
    parity_spread: float  # the worst group's, at omega_hat (series.group_spread)
    boundary_flag: bool = False
    newton_iters: int = 0
    converged: bool = True
    dropped: int = 0  # grid points that failed truncation, left out of a grid trace

    def to_json(self) -> str:
        # one line: given an indent, json encodes in Python, not in C
        return json.dumps(
            {
                "omega_hat": list(self.omega_hat),
                "loglik": self.loglik,
                "boundary_flag": self.boundary_flag,
                "newton_iters": self.newton_iters,
                "converged": self.converged,
                "parity_spread": self.parity_spread,
                "dropped": self.dropped,
                "trace": [
                    {"params": list(p), "loglik": v} for p, v in self.trace
                ],
            },
        )


def params_to_spec(params, P: int, eps: float = 0.0) -> IndependentGamma:
    """Interleaved (b_1, n_1, ..., b_P, n_P) vector to an independent-Gamma spec."""
    if len(params) != 2 * P:
        raise SpecError(f"expected {2*P} parameters, got {len(params)}")
    b = tuple(params[2 * p] for p in range(P))
    n = tuple(params[2 * p + 1] for p in range(P))
    return IndependentGamma(b, n, eps)


# Cells of the largest array one block of grid points makes
# (``CountMatrix.cells``); the only bound on the grid's memory.
BLOCK_CELLS = 1 << 16


def gamma_factor_tables(counts: CountMatrix, grid: GridSpec, eps: float) -> list[np.ndarray]:
    """Each attribute's independent-Gamma MGF factor at its distinct t_p
    (``counts.t_axes[p]``), one row per (b_p, n_p) pair of the grid, the
    n_p fastest: a (pairs, distinct t_p) table per attribute.

    An attribute's pairs are checked as one :class:`IndependentGamma` whose
    attributes are the pairs, so a bad pair raises :class:`SpecError`.  The
    factor of pair (b, n) at t is exp(-n log(1 - b t) + eps t), from one
    :class:`~conjlogit.gamma_kernels.GammaTerm` whose b and n are the pairs'
    columns: :func:`~conjlogit.gamma_kernels.term_log_mgf` broadcasts it
    over the pairs, bit for bit what it gives for each pair alone.
    """
    tables = []
    for p in range(len(counts.t_axes)):
        b, n = zip(*product(grid.axes[2 * p].points(), grid.axes[2 * p + 1].points()))
        spec = IndependentGamma(b, n, eps)  # checks every pair
        pairs = GammaTerm(np.asarray(spec.b)[:, None], np.asarray(spec.n)[:, None], eps)
        log = term_log_mgf(pairs, counts.t_axes[p])
        tables.append(np.exp(log, out=log))
    return tables


def grid_logliks(prep: PreparedDataset, grid: GridSpec, eps: float = 0.0) -> np.ndarray:
    """The log marginal likelihood at every grid point, in ``grid.points()`` order.

    NaN marks a point where some group's H is not a positive finite number,
    the points where :func:`log_marginal_prepared` raises
    :class:`TruncationFailure`.  The independent-Gamma MGF is a product over
    attributes, and so is the grid, so each attribute's factor is computed
    once per (b_p, n_p) pair, and only at that attribute's distinct t_p
    (:func:`gamma_factor_tables`).  The sum over K is contracted one
    attribute at a time (:meth:`CountMatrix.h`): one sparse product takes
    the counts to the last attribute's pairs, and a dense batched product
    per other attribute takes in its pairs.  The last attribute's pairs go
    in blocks whose largest array has at most ``BLOCK_CELLS`` cells, or one
    pair if a single pair needs more.
    """
    if len(grid.axes) != 2 * prep.P:
        raise SpecError(f"grid needs {2 * prep.P} axes for P={prep.P}")
    counts = prep.counts
    out = np.zeros(grid.cardinality)
    if counts.C.shape[0] == 0:
        return out  # no households: every point is log 1
    factors = gamma_factor_tables(counts, grid, eps)
    last = np.ascontiguousarray(factors[-1].T)  # (distinct t, pairs) of the last attribute
    step = max(1, BLOCK_CELLS // counts.cells([len(f) for f in factors]))
    table = out.reshape(-1, last.shape[1])  # the last attribute's pair varies fastest
    for start in range(0, last.shape[1], step):
        H = counts.h(factors, last[:, start:start + step])
        ok = ((H > 0.0) & (H < np.inf)).all(axis=0)  # NaN fails both
        with np.errstate(divide="ignore", invalid="ignore"):
            ll = counts.mult @ np.log(H)
        table[:, start:start + step] = np.where(ok, ll, np.nan).reshape(len(table), -1)
    return out


def grid_fit(prep: PreparedDataset, grid: GridSpec, eps: float = 0.0) -> FitResult:
    """Evaluate the log marginal likelihood on every grid point; return the argmax.

    Every point comes from one :func:`grid_logliks` pass over the prepared
    dataset.  Points that fail truncation are left out of the trace and
    counted in ``dropped``.  Ties break to the lexicographically smallest
    parameter tuple; ``boundary_flag`` is set when the argmax touches a grid
    edge on any axis with count > 1.  The result carries the argmax's
    parity spread.
    """
    values = grid_logliks(prep, grid, eps)
    kept = np.flatnonzero(~np.isnan(values))
    if len(kept) == 0:
        raise FitError(f"all {grid.cardinality} grid points failed truncation")
    points = list(grid.points())
    trace = [(points[i], v) for i, v in zip(kept.tolist(), values[kept].tolist())]
    # points run in lexicographic order, so the first maximum is the smallest
    best = int(np.nanargmax(values))
    best_idx = np.unravel_index(best, [ax.count for ax in grid.axes])
    boundary = any(
        ax.count > 1 and (i == 0 or i == ax.count - 1)
        for ax, i in zip(grid.axes, best_idx)
    )
    spread = group_spread(prep, params_to_spec(points[best], prep.P, eps))
    return FitResult(
        points[best], float(values[best]), trace, float(spread.max(initial=0.0)),
        boundary_flag=boundary, dropped=grid.cardinality - len(trace),
    )


def loglik_grad_hess(
    prep: PreparedDataset, spec: IndependentGamma
) -> tuple[float, np.ndarray, np.ndarray]:
    """Log marginal likelihood with its gradient and Hessian in (b_1, n_1,
    ..., b_P, n_P), over all households.

    Each attribute's Gamma factor and its derivatives in (b_p, n_p) are six
    rows over its distinct t_p (:func:`~conjlogit.gamma_kernels.gamma_jet`),
    and :meth:`CountMatrix.h` contracts them as :func:`grid_logliks`
    contracts its factor tables: every group's sum over each combination of
    one row per attribute, 6^P columns with the last attribute's row
    fastest.  Rows 0 everywhere give H_i; row 1 (b_p) or 2 (n_p) at one
    attribute, a first derivative; rows 3-5 at one attribute, or rows 1-2 at
    two, a second derivative.  Entries (i, j) and (j, i) read one column,
    and the groups are summed entry by entry, so the Hessian is exactly
    symmetric.  :class:`SpecError` if the prior is not an
    :class:`IndependentGamma`, or its dimension is not the panel's.
    """
    if not isinstance(spec, IndependentGamma):
        raise SpecError("loglik_grad_hess supports the independent-Gamma family only, "
                        f"not {type(spec).__name__}")
    counts = prep.counts
    if counts.C.shape[0] == 0:  # no households: log 1 everywhere
        return 0.0, np.zeros(2 * spec.P), np.zeros((2 * spec.P, 2 * spec.P))
    counts.check_dimension(spec)
    jets = [gamma_jet(m, t) for m, t in zip(mgf_split(spec)[0], counts.t_axes)]
    S = counts.h(jets, jets[-1].T)
    H = S[:, 0].copy()
    prep.raise_on_truncation(H)
    S /= H[:, None]  # every group's derivatives of H_i over H_i
    # rows (k_0, ..., k_{P-1}) are column sum_p k_p 6^(P-1-p); parameter
    # 2p + a (a = 0 for b_p, 1 for n_p) is row 1 + a at attribute p, and two
    # parameters of one attribute are row 3 + a + a' there
    weight = np.repeat(6 ** np.arange(spec.P - 1, -1, -1), 2)  # of each parameter's attribute
    first = weight * np.tile([1, 2], spec.P)
    second = np.add.outer(first, first) + np.where(np.equal.outer(weight, weight), weight, 0)
    g = S[:, first]  # every group's gradient of log H_i
    hess = S[:, second] - g[:, :, None] * g[:, None, :]
    mult = counts.mult
    return float(mult @ np.log(H)), mult @ g, (mult[:, None, None] * hess).sum(axis=0)


POSITIVITY_FLOOR = 1e-6


def newton_fit(
    prep: PreparedDataset, spec0: IndependentGamma, max_iters: int = 50, tol: float = 1e-6
) -> FitResult:
    """Newton refinement of the independent-Gamma parameters.

    Iterates x + p with H p = -g, halving the step until the log likelihood
    does not decrease and projecting onto the positive orthant.  Stops when
    the gradient sup-norm drops below ``tol``.  The result carries the
    parity spread at the final point.
    """
    ll, g, Hm = loglik_grad_hess(prep, spec0)  # checks the prior first
    P = prep.P
    theta = np.empty(2 * P)
    theta[0::2] = spec0.b
    theta[1::2] = spec0.n
    eps = spec0.eps

    trace = [(tuple(theta), ll)]
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
    spread = group_spread(prep, params_to_spec(theta, P, eps))
    return FitResult(
        tuple(theta), ll, trace, float(spread.max(initial=0.0)),
        newton_iters=iters, converged=bool(converged),
    )
