"""Seeded input panels for the benchmark, written as the CSV the program reads.

The design follows the package's simulation study (Gamma coefficients per
household, covariates uniform on {1, 2, 3}, logistic outcomes, covariate
scale c = 0.01) but the code is the benchmark's own, so a change to the
package's simulator cannot silently change a workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

X_SCALE = 0.01
SUPPORT = (1, 2, 3)
TRUTH_B = 5.0
TRUTH_N = 14.0


@dataclass(frozen=True)
class Panel:
    """Households as (x rows, y vector) pairs; x rows are P-tuples of ints."""

    P: int
    households: tuple[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]], ...]

    @property
    def n_obs(self) -> int:
        return sum(len(y) for _, y in self.households)


def make_panel(seed: int, I: int, P: int, N: int) -> Panel:
    """Draw I households with N observations each over P covariates.

    P(y = 1) = e^{-v} / (1 + e^{-v}) with v = c * x . beta and every beta_p
    drawn from Gamma(shape=TRUTH_N, scale=TRUTH_B).  The stream is keyed by
    (seed, P, N), so workloads that share a shape share the panel.
    """
    rng = np.random.default_rng([seed, P, N])
    beta = rng.gamma(shape=TRUTH_N, scale=TRUTH_B, size=(I, P))
    x = np.asarray(SUPPORT)[rng.integers(0, len(SUPPORT), size=(I, N, P))]
    v = X_SCALE * np.einsum("inp,ip->in", x, beta)
    prob = np.exp(-v - np.logaddexp(0.0, -v))
    y = (rng.random((I, N)) < prob).astype(int)
    households = tuple(
        (tuple(tuple(int(c) for c in row) for row in x[i]), tuple(int(v_) for v_ in y[i]))
        for i in range(I)
    )
    return Panel(P, households)


def write_csv(panel: Panel, path: str) -> None:
    """Write the panel in the package's CSV schema (x_scale comment line first)."""
    cols = ",".join(f"x{p + 1}" for p in range(panel.P))
    lines = [f"# x_scale={X_SCALE!r}", f"household,category,occasion,y,{cols}"]
    for i, (rows, ys) in enumerate(panel.households):
        for t, (row, y) in enumerate(zip(rows, ys)):
            lines.append(f"h{i:05d},1,{t + 1},{y}," + ",".join(map(str, row)))
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def groups(panel: Panel) -> list[tuple[int, int, tuple, tuple]]:
    """Distinct households: (index of a representative, multiplicity, x rows, y).

    The per-household factor depends only on the multiset of (x row, y)
    pairs, so households equal up to the order of their observations share
    one group.  Groups come in a fixed order (sorted by key).
    """
    seen: dict[tuple, list] = {}
    for i, (rows, ys) in enumerate(panel.households):
        key = tuple(sorted(zip(rows, ys)))
        if key in seen:
            seen[key][1] += 1
        else:
            seen[key] = [i, 1]
    out = []
    for key in sorted(seen):
        i, mult = seen[key]
        rows, ys = panel.households[i]
        out.append((i, mult, rows, ys))
    return out


def signatures(panel: Panel) -> set[tuple[tuple[int, ...], ...]]:
    """Distinct covariate signatures, as P tuples of per-observation values."""
    return {
        tuple(tuple(row[p] for row in rows) for p in range(panel.P))
        for rows, _ in panel.households
    }
