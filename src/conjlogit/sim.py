"""Parameter-recovery simulations for the grid estimator.

A design fixes the data-generating process (household count, purchase
occasions, covariate support and scale, true Gamma parameters) and the
estimation settings (truncation budget, search grid).  ``run_study`` draws
replicate datasets, fits each one, and summarizes recovery with Bonferroni-
adjusted t statistics against the truth.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np
from scipy import stats

from .data_model import Dataset, IndependentGamma
from .optimizer import GridSpec, grid_fit
from .series import SeriesConfig, group_households, group_spread, prepare_dataset


@dataclass(frozen=True)
class SimDesign:
    """Data-generating process plus estimation settings for one study."""

    I: int                      # households
    J: int                      # categories per occasion
    N: int                      # purchase occasions
    P: int                      # covariates
    true_spec: IndependentGamma
    grid: GridSpec
    R: int
    c: float                    # covariate scale: real x = c * stored integer
    x_support: tuple[int, ...] = (1, 2, 3)
    replicates: int = 25
    seed: int = 0
    alpha: float = 0.05

    def __post_init__(self):
        if self.I < 1 or self.J < 1 or self.N < 1:
            raise ValueError("need I, J, N >= 1")
        if self.true_spec.P != self.P:
            raise ValueError("true_spec dimension must match P")
        if not 0 < self.c < math.inf:  # NaN fails too
            raise ValueError(f"covariate scale must be a finite number > 0, got {self.c}")
        if not self.x_support or not all(isinstance(v, int) and v > 0 for v in self.x_support):
            raise ValueError(f"covariate support must be one or more positive integers, "
                             f"got {self.x_support}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed}")


def _rng(seed: int, rep: int):
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, rep], dtype=np.uint64))
    )


def simulate_dataset(design: SimDesign, rep: int) -> Dataset:
    """Draw one replicate dataset under the design's true parameters.

    Coefficients are Gamma draws per household; covariates are uniform on the
    integer support; the purchase probability is exp(-v) / (1 + exp(-v)) with
    v the scaled covariate index.  ``rep`` is an integer in [0, 2**64).
    """
    if not 0 <= rep < 2**64:
        raise ValueError(f"replicate must be an integer in [0, 2**64), got {rep}")
    rng = _rng(design.seed, rep)
    spec = design.true_spec
    M = design.J * design.N
    support = np.asarray(design.x_support, dtype=np.int64)
    ys, xs = [], []
    for i in range(design.I):
        beta = np.array(
            [
                spec.eps + rng.gamma(shape=spec.n[p], scale=spec.b[p])
                for p in range(design.P)
            ]
        )
        x = support[rng.integers(0, len(support), size=(M, design.P))]
        v = design.c * (x @ beta)
        prob = np.exp(-v - np.logaddexp(0.0, -v))  # e^{-v} / (1 + e^{-v})
        ys.append(rng.random(M) < prob)
        xs.append(x)
    return Dataset.from_columns(
        [f"h{i:05d}" for i in range(design.I)],
        np.arange(design.I + 1) * M,
        np.concatenate(ys),
        np.concatenate(xs),
        x_scale=design.c,
        scale_note=f"simulated, rep={rep}",
    )


@dataclass
class SimRow:
    param: str
    truth: float
    mean: float
    sd: float
    t: float
    crit: float
    passed: bool


@dataclass
class SimReport:
    design: SimDesign
    rows: list[SimRow]
    estimates: np.ndarray          # (replicates, 2P)
    boundary_hits: int

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    def write_csv(self, f: TextIO) -> None:
        """Write the report's rows to ``f``, a text file opened with ``newline=""``."""
        w = csv.writer(f)
        w.writerow(["param", "truth", "mean", "sd", "t", "crit", "pass"])
        for r in self.rows:
            w.writerow(
                [r.param, r.truth, f"{r.mean:.6g}", f"{r.sd:.6g}",
                 f"{r.t:.4f}", f"{r.crit:.4f}", int(r.passed)]
            )


def bonferroni_crit(alpha: float, n_tests: int, df: int) -> float:
    """Two-sided t critical value at family-wise level alpha over n_tests."""
    return float(stats.t.ppf(1.0 - alpha / (2.0 * n_tests), df))


def check_study(design: SimDesign, n_tests: int | None = None) -> None:
    """ValueError unless :func:`run_study` can run ``design`` with ``n_tests``:
    a study needs at least 2 replicates, for a standard deviation, and
    n_tests >= 1."""
    if design.replicates < 2:
        raise ValueError(f"a study needs at least 2 replicates, got {design.replicates}")
    if n_tests is not None and n_tests < 1:
        raise ValueError(f"n_tests, the Bonferroni family size, must be at least 1, got {n_tests}")


def run_study(design: SimDesign, n_tests: int | None = None) -> SimReport:
    """Fit every replicate on the design grid and test recovery of the truth.

    ``n_tests`` sets the Bonferroni family size (defaults to the number of
    parameters in this study, 2P); studies reported jointly should share one
    family size.  The arguments are checked by :func:`check_study` first.
    """
    check_study(design, n_tests)
    cfg = SeriesConfig(R=design.R)
    ests = np.empty((design.replicates, 2 * design.P))
    boundary = 0
    for rep in range(design.replicates):
        d = simulate_dataset(design, rep)
        res = grid_fit(prepare_dataset(d, cfg), design.grid, eps=design.true_spec.eps)
        ests[rep] = res.omega_hat
        boundary += int(res.boundary_flag)

    truth = np.empty(2 * design.P)
    names = []
    for p in range(design.P):
        truth[2 * p] = design.true_spec.b[p]
        truth[2 * p + 1] = design.true_spec.n[p]
        names += [f"b{p + 1}", f"n{p + 1}"]

    if n_tests is None:
        n_tests = 2 * design.P
    df = design.replicates - 1
    crit = bonferroni_crit(design.alpha, n_tests, df)
    rows = []
    for j, name in enumerate(names):
        mean = float(ests[:, j].mean())
        sd = float(ests[:, j].std(ddof=1))
        se = sd / math.sqrt(design.replicates)
        t = (mean - truth[j]) / se if se > 0 else 0.0
        rows.append(SimRow(name, float(truth[j]), mean, sd, t, crit, abs(t) < crit))
    return SimReport(design, rows, ests, boundary)


# ---------------------------------------------------------------------------
# Truncation-budget diagnostics
# ---------------------------------------------------------------------------

@dataclass
class ParityRow:
    R: int
    max_spread: float
    mean_spread: float


def parity_study(d: Dataset, spec: IndependentGamma, r_values) -> list[ParityRow]:
    """Consecutive-budget spread of H_i across a dataset at several budgets.

    For each R the spread compares the series truncated at R and at R - 1;
    both come from the one budget-R cache per covariate signature.  The mean
    is over households, so it does not depend on how they are grouped.
    """
    groups = group_households(d)
    rows = []
    for R in r_values:
        prep = prepare_dataset(d, SeriesConfig(R=R), groups=groups)
        spreads = group_spread(prep, spec)
        rows.append(ParityRow(
            R, float(spreads.max()), float(np.average(spreads, weights=prep.counts.mult))
        ))
    return rows
