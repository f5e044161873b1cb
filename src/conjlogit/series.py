"""Truncated series evaluation of the per-household marginal factors H_i.

H_i is evaluated one way for every prior family: a
:class:`~conjlogit.diophantine.DioCache` holds a signature's signed solution
counts over its reachable r-tuples, and H_i is their sum weighted by the
prior's moment generating function at t = -x_scale * (r + Y), from
:func:`~conjlogit.gamma_kernels.log_mgf`.  The groups' counts are gathered
into one :class:`CountMatrix` over the dataset's distinct t, so every
group's H_i is one sparse mat-vec (:func:`group_h`), and
:func:`log_marginal_prepared` sums their logs.  Every prior's MGF is split
into factors of one attribute each, evaluated on that attribute's few
distinct t_p, and at most one joint term, evaluated at each distinct t
(:func:`~conjlogit.gamma_kernels.mgf_split`).  The one
exception is :func:`h_naive`, which enumerates the k-tuples of the same
budget simplex k.1 <= R directly for the independent-Gamma family; it is
kept as the brute-force oracle that the count sums are checked against.

The terms of one shell k.1 == s all carry the sign (-1)^s, so the shell
partial sums S_0, S_1, ... alternate.  Every route returns their first Euler
mean (S_{R-1} + S_R) / 2, with S_{-1} = 0, instead of the raw S_R: the final
shell enters with weight 1/2.  For an alternating series the raw partial sum
is off by about half the next shell; the mean is far closer to the limit.
Its error estimate is the parity spread, the relative gap between the means
at budgets R and R - 1 (:func:`group_spread`; :func:`h_naive` returns it
too).  It is computed apart from the evaluation, once per reported value,
so a grid of evaluations pays nothing for it; :func:`log_marginal_and_spread`
gives one value and its spread from a single evaluation of the MGF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .data_model import (
    Dataset,
    Household,
    IndependentGamma,
    PointMassGamma,
    SpecError,
)
from .diophantine import DioCache, _distinct, _group, build_caches, canonical_x_vectors
from .gamma_kernels import add_logs, mgf_split, point_mass_log, term_log_mgf


class TruncationFailure(RuntimeError):
    """A truncated H_i came out non-positive; the budget R is too small."""

    def __init__(self, household: str, value: float):
        self.household = household
        self.value = value
        super().__init__(f"household {household}: truncated H = {value} <= 0 (R too small)")


@dataclass(frozen=True)
class SeriesConfig:
    R: int

    def __post_init__(self):
        if self.R < 0:
            raise ValueError("R must be non-negative")


@dataclass(frozen=True)
class HouseholdSums:
    """The outcome-weighted covariate sums Y_p and the covariate vectors."""

    Y: tuple[int, ...]
    x_vectors: tuple[tuple[int, ...], ...]

    @classmethod
    def from_household(cls, h: Household, P: int) -> "HouseholdSums":
        obs = h.observations  # list comprehensions, as in Household.x_vectors
        Y = tuple([sum([o.y * o.x[p] for o in obs]) for p in range(P)])
        return cls(Y, h.x_vectors(P))

    @property
    def n_obs(self) -> int:
        return len(self.x_vectors[0])


@dataclass(frozen=True)
class Evaluation:
    value: float
    terms: int


@dataclass(frozen=True)
class NaiveEvaluation(Evaluation):
    parity_spread: float  # |E(R) - E(R-1)| / max(|E(R)|, |E(R-1)|)


def _rel_spread(a, b):
    """|a - b| / max(|a|, |b|), elementwise for arrays."""
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def h_naive(
    h: Household | HouseholdSums,
    spec: IndependentGamma,
    cfg: SeriesConfig,
    x_scale: float = 1.0,
) -> NaiveEvaluation:
    """Direct simplex enumeration of the alternating series for H_i: the
    brute-force oracle for the count sums of :func:`group_h` and the spreads
    of :func:`group_spread`.

    Returns the Euler mean (S_{R-1} + S_R) / 2 of the shell partial sums,
    i.e. terms with k.1 == R weighted by 1/2, and the parity spread that
    compares that mean at budgets R and R - 1.
    """
    if not isinstance(spec, IndependentGamma):
        raise SpecError("h_naive supports the independent-Gamma family only")
    sums = h if isinstance(h, HouseholdSums) else HouseholdSums.from_household(h, spec.P)
    P = len(sums.Y)
    M = sums.n_obs
    xv = sums.x_vectors
    cols = [tuple(xv[p][m] for p in range(P)) for m in range(M)]

    terms: list[float] = []          # signed terms, enumeration order
    totals: list[int] = []           # k.1 per term, for the parity split
    R = cfg.R

    def term_at(K_int: tuple[int, ...], sign: int) -> float:
        logv = 0.0
        for p in range(P):
            d = x_scale * K_int[p]
            logv += -d * spec.eps - spec.n[p] * math.log1p(spec.b[p] * d)
        return sign * math.exp(logv)

    def recurse(m: int, spent: int, K: tuple[int, ...], sign: int) -> None:
        if m == M - 1:
            KK = list(K)
            s = sign
            for km in range(R - spent + 1):
                terms.append(term_at(tuple(KK), s))
                totals.append(spent + km)
                for p in range(P):
                    KK[p] += cols[m][p]
                s = -s
            return
        KK = K
        s = sign
        for km in range(R - spent + 1):
            recurse(m + 1, spent + km, KK, s)
            KK = tuple(KK[p] + cols[m][p] for p in range(P))
            s = -s

    recurse(0, 0, sums.Y, 1)

    def euler_mean(budget: int) -> float:
        return math.fsum(
            t if s < budget else 0.5 * t for t, s in zip(terms, totals) if s <= budget
        )

    value = euler_mean(R)
    return NaiveEvaluation(value, len(terms), float(_rel_spread(value, euler_mean(R - 1))))


# ---------------------------------------------------------------------------
# Dataset-level log marginal likelihood
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CountMatrix:
    """Every group's signed counts over the dataset's distinct K = r + Y.

    Row g of the sparse matrix ``C`` holds group g's ``count_array`` in the
    columns of its K tuples, and row j of ``T`` is the MGF argument
    t = -x_scale * K of column j.  Neither depends on the prior, so one
    evaluation of all the groups' H_i is a single mat-vec,
    H = C @ mgf(spec) (:func:`group_h`), over far fewer columns than there
    are (group, r) rows.  ``T`` is also kept factored by attribute: column
    j's t_p is ``t_axes[p][t_index[p, j]]``.  :meth:`mgf` evaluates each
    factor of one attribute (:func:`~conjlogit.gamma_kernels.mgf_split`)
    only at that attribute's few distinct t_p and gathers it through
    ``t_index``; only a prior's joint term is evaluated on every row of ``T``.
    """

    C: sparse.csr_matrix  # groups x distinct K
    T: np.ndarray         # -x_scale * K, one row per distinct K
    mult: np.ndarray      # households per group
    terms: int            # sum over groups of mult * stored r-tuples
    t_axes: tuple[np.ndarray, ...]  # per attribute, its distinct t_p in order
    t_index: np.ndarray             # (P, distinct K) intp: each column's index in t_axes[p]

    @classmethod
    def build(
        cls, groups: list[tuple[HouseholdSums, int]], caches: dict, x_scale: float
    ) -> "CountMatrix":
        if not groups:
            return cls(sparse.csr_matrix((0, 0)), np.zeros((0, 0)), np.zeros(0), 0,
                       (), np.zeros((0, 0), dtype=np.intp))
        blocks = [caches[sums.x_vectors] for sums, _ in groups]
        mult = np.array([m for _, m in groups], dtype=np.int64)
        lens = np.array([len(c.count_array) for c in blocks], dtype=np.int64)
        data = np.concatenate([c.count_array for c in blocks])
        indptr = np.zeros(len(blocks) + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        # Every group's K = r + Y, one row per attribute, so the reductions
        # run along the long contiguous axis.  ``out`` keeps K C-ordered:
        # concatenating the transposed blocks alone gives Fortran order.
        Y = np.array([sums.Y for sums, _ in groups], dtype=np.int64)
        K = np.empty((Y.shape[1], len(data)), dtype=np.int64)
        np.concatenate([c.r_array.T for c in blocks], axis=1, out=K)
        for p, Yp in enumerate(Y.T):
            K[p] += np.repeat(Yp, lens)
        # Bounding box of K over all groups; K tuples are grouped by their
        # offsets in it.
        lo = K.min(axis=1)
        dims = K.max(axis=1) - lo + 1
        K -= lo[:, None]  # in place: past here K is only its offsets
        offsets, indices = _group(K, dims)
        distinct_K = np.stack(offsets, axis=1) + lo
        # each attribute's distinct K_p, and every column's index among them
        axes, t_index = zip(*(_distinct(o, int(n), len(data)) for o, n in zip(offsets, dims)))
        C = sparse.csr_matrix(
            (data, indices.astype(np.int32, copy=False), indptr),
            shape=(len(blocks), len(distinct_K)),
        )
        return cls(
            C, -x_scale * distinct_K, mult.astype(np.float64), int(mult @ lens),
            tuple(-x_scale * (a + l) for a, l in zip(axes, lo.tolist())),
            np.stack(t_index, dtype=np.intp),
        )

    def axis_log_mgf(self, p: int, marginal) -> np.ndarray:
        """log M of the one-attribute prior ``marginal`` at attribute p's
        distinct t_p, ``t_axes[p]``."""
        return term_log_mgf(marginal, self.t_axes[p])

    def mgf(self, spec) -> np.ndarray:
        """The prior's MGF at every column's argument T.

        The prior is split by :func:`~conjlogit.gamma_kernels.mgf_split`:
        each marginal is evaluated on its attribute's ``t_axes`` and its log
        factors gathered through ``t_index``, and the joint term, if any, is
        evaluated on every row of ``T``.  The log terms are summed as
        :func:`~conjlogit.gamma_kernels.log_mgf` sums them, then
        exponentiated once, so a product prior's factors are never
        multiplied in linear space.  :class:`SpecError` if the prior's
        dimension is not the panel's.
        """
        if self.C.shape[0] == 0:
            return np.zeros(0)
        if spec.P != self.T.shape[1]:
            raise SpecError(f"prior has P={spec.P} attributes but the panel has "
                            f"P={self.T.shape[1]}")
        marginals, joint = mgf_split(spec)
        terms = [self.axis_log_mgf(p, m).take(index)
                 for p, (m, index) in enumerate(zip(marginals, self.t_index, strict=True))
                 if m is not None]
        if joint is not None:
            terms.append(term_log_mgf(joint, self.T))
        v = add_logs(terms, len(self.T))
        return np.exp(v, out=v)


@dataclass(frozen=True)
class FactoredCounts:
    """The count matrix regrouped so that a grid of product-form priors is
    scored one attribute at a time.

    With attributes p = 0..P-1, let R_p be the distinct (group, K_0, ...,
    K_{p-1}) among the entries of ``C``; R_0 is the groups.  A slot of R_p
    is a row of R_p and an index into ``t_axes[p]``.  Row s of ``B`` is the
    slot s of R_{P-2}, and an entry's column is its index into the last
    attribute's axis, so ``B`` holds the counts of ``C`` regrouped; when
    P = 1 that is ``C`` itself.  For 0 < p < P-1, ``scatter[p-1]`` is the
    slot of R_{p-1} that each row of R_p fills.  :meth:`h` contracts the
    last attribute through ``B`` and every other attribute with a dense
    batched product.  Only ``optimizer.grid_logliks`` builds one, for the
    length of its call.
    """

    B: sparse.spmatrix              # slots of R_{P-2} x distinct K_{P-1}
    sizes: tuple[int, ...]          # len(t_axes[p]) per attribute
    rows: tuple[int, ...]           # |R_p| for p < P-1
    scatter: tuple[np.ndarray, ...]

    @classmethod
    def build(cls, counts: CountMatrix) -> "FactoredCounts":
        C = counts.C
        sizes = tuple(len(a) for a in counts.t_axes)
        if len(sizes) == 1:  # C's columns are the one attribute's axis, in order
            return cls(C, sizes, (), ())
        columns = C.indices
        t_index = counts.t_index.astype(np.int32)  # as narrow as C's own indices
        n = C.shape[0]
        row = np.repeat(np.arange(n, dtype=np.int32), np.diff(C.indptr))  # each entry's row of R_0
        rows, scatter = [], []
        for p, size in enumerate(sizes[:-1]):
            rows.append(n)
            n *= size
            if n > np.iinfo(row.dtype).max:
                row = row.astype(np.int64)
            row *= size
            row += t_index[p][columns]  # the entry's slot of R_p
            if p < len(sizes) - 2:  # R_{p+1} is the slots in use
                used, row = _distinct(row, n, C.nnz)
                scatter.append(used)
                n = len(used)
        # B keeps C's entries in C's order and shares C's data, so only its
        # two index arrays are new
        B = sparse.coo_matrix((C.data, (row, t_index[-1][columns])), shape=(n, sizes[-1]))
        return cls(B, sizes, tuple(rows), tuple(scatter))

    def cells(self, pairs) -> int:
        """Cells of the largest array :meth:`h` makes per column of the last
        factor table, when attribute p's table has ``pairs[p]`` rows."""
        cells, width = self.B.shape[0], 1
        for p in reversed(range(len(self.rows))):
            width *= pairs[p]
            cells = max(cells, self.rows[p] * width,
                        self.rows[p - 1] * self.sizes[p - 1] * width if p else 0)
        return cells

    def h(self, factors, last_columns) -> np.ndarray:
        """Every group's H at every grid point of a block, (groups, points).

        ``factors[p]`` holds attribute p's MGF factor at its distinct t_p,
        one row per grid pair; the last attribute's is given transposed, as
        the columns ``last_columns`` of the block.  The points run in
        lexicographic order of their pairs, the last attribute's fastest.
        """
        Z = self.B @ last_columns  # (slots of R_{P-2}, block)
        for p in reversed(range(len(self.rows))):
            Z = np.matmul(factors[p], Z.reshape(-1, self.sizes[p], Z.shape[1]))
            Z = Z.reshape(self.rows[p], -1)  # one row per row of R_p
            if p:
                D = np.zeros((self.rows[p - 1] * self.sizes[p - 1], Z.shape[1]))
                D[self.scatter[p - 1]] = Z
                Z = D
        return Z


@dataclass
class PreparedDataset:
    """Parameter-independent startup work for repeated evaluations.

    Holds the households grouped by (signature, Y) and one cache per
    distinct signature, both keyed order-free: a group's ``x_vectors`` are
    :func:`~conjlogit.diophantine.canonical_x_vectors`, so households that
    differ only in the order of their observations share a group, and
    signatures that differ only in that order share a cache.  Every grid
    point or optimizer step then costs only the cheap r-sums.  This is the
    amortization that makes grid search over the prior parameters practical.
    The groups' counts are gathered into one :class:`CountMatrix` on first
    use (``counts``), and the caches' budget-(R-1) weights on the same
    sparsity pattern on the first :func:`group_spread` (``companion``).
    """

    groups: list[tuple[HouseholdSums, int]]  # distinct order-free sums with multiplicity
    first: list[int]  # each group's first household: its index in the dataset's households
    caches: dict[tuple[tuple[int, ...], ...], DioCache]  # by canonical signature
    total_obs: int
    x_scale: float
    R: int
    P: int

    @cached_property
    def counts(self) -> CountMatrix:
        return CountMatrix.build(self.groups, self.caches, self.x_scale)

    @cached_property
    def companion(self) -> sparse.csr_matrix:
        """Every group's ``companion_array`` on the rows and columns of ``counts.C``."""
        C = self.counts.C
        blocks = [self.caches[sums.x_vectors].companion_array for sums, _ in self.groups]
        data = np.concatenate(blocks) if blocks else np.zeros(0)
        return sparse.csr_matrix((data, C.indices, C.indptr), shape=C.shape)

    def raise_on_truncation(self, H: np.ndarray) -> None:
        """Raise :class:`TruncationFailure` for the first group whose H is
        not a positive finite number."""
        ok = H > 0.0
        ok &= H < np.inf  # NaN fails both
        if not ok.all():
            g = int(np.argmin(ok))
            raise TruncationFailure(_group_label(self.groups[g][0]), float(H[g]))


def group_households(d: Dataset) -> tuple[dict[HouseholdSums, int], list[int]]:
    """Households grouped by (x signature, Y): multiplicities in order of first
    appearance, and each group's first household (its index in ``d.households``).

    Works on the panel columns: households of one length n share a key
    array (the n * P covariates attribute by attribute, then Y = sum y * x)
    and one lexsort, and a :class:`HouseholdSums` is built per distinct group.
    """
    _, offsets, y, X = d.columns()
    P = X.shape[1]
    lengths = np.diff(offsets)
    found = []  # (first household, multiplicity, key row, length) per group
    for n in np.unique(lengths).tolist():
        hh = np.flatnonzero(lengths == n)
        rows = offsets[hh][:, None] + np.arange(n)
        x = X[rows]  # (households, n, P)
        Y = np.einsum("hn,hnp->hp", y[rows], x)
        key = np.concatenate([x.transpose(0, 2, 1).reshape(len(hh), n * P), Y], axis=1)
        order = np.lexsort(key.T[::-1])
        key = key[order]
        new = np.ones(len(key), dtype=bool)
        np.any(key[1:] != key[:-1], axis=1, out=new[1:])
        heads = np.flatnonzero(new)
        # the sort is stable, so a run's first row is its first household
        found += zip(
            hh[order[heads]].tolist(),
            np.diff(heads, append=len(key)).tolist(),
            key[heads].tolist(),
            [n] * len(heads),
        )
    found.sort(key=lambda g: g[0])
    groups: dict[HouseholdSums, int] = {}
    for _, mult, row, n in found:
        xv = tuple([tuple(row[p * n:(p + 1) * n]) for p in range(P)])
        groups[HouseholdSums(tuple(row[n * P:]), xv)] = mult
    return groups, [g[0] for g in found]


def prepare_dataset(
    d: Dataset,
    cfg: SeriesConfig,
    caches: dict | None = None,
    groups: tuple[dict[HouseholdSums, int], list[int]] | None = None,
) -> PreparedDataset:
    """Group households by order-free (x signature, Y) and build any missing caches.

    ``groups`` may pass in :func:`group_households` of ``d`` when the
    caller has it already; groups whose signatures differ only in the order
    of their observations are merged, and a merged group's first household
    is that of its first part.  ``caches`` may hold caches keyed by
    any ordering of a signature; each is relabelled to the canonical one
    rather than rebuilt, and the canonical signatures still missing are
    built together by one :func:`~conjlogit.diophantine.build_caches` call.
    A given cache that the panel uses must have been built at ``cfg.R``; one
    of another budget raises ValueError.  The budget-R caches carry their
    own parity companion, so the spread of :func:`group_spread` builds
    nothing extra.
    """
    groups, first = group_households(d) if groups is None else groups
    total_obs = sum([sums.n_obs * m for sums, m in groups.items()])
    canon = {xv: canonical_x_vectors(xv) for xv in dict.fromkeys(s.x_vectors for s in groups)}
    # (Y, canonical x_vectors) -> [households, first household]; groups come
    # in order of first appearance, so a key's first part has its first household
    merged: dict[tuple, list[int]] = {}
    for (sums, mult), i in zip(groups.items(), first, strict=True):
        merged.setdefault((sums.Y, canon[sums.x_vectors]), [0, i])[0] += mult
    given: dict = {}
    for xv, cache in (caches or {}).items():
        given.setdefault(canonical_x_vectors(xv), cache)
    kept = {}
    for xv in dict.fromkeys(canon.values()):
        if xv not in given:
            kept[xv] = None  # built below, with every other missing signature
        elif given[xv].R != cfg.R:
            raise ValueError(f"cache for signature {xv} was built at R={given[xv].R}, "
                             f"but the evaluation asks for R={cfg.R}")
        else:
            kept[xv] = given[xv].relabel(xv)
    missing = [xv for xv, cache in kept.items() if cache is None]
    kept.update(zip(missing, build_caches(missing, cfg.R)))
    return PreparedDataset(
        [(HouseholdSums(Y, xv), m) for (Y, xv), (m, _) in merged.items()],
        [i for _, i in merged.values()], kept, total_obs, d.x_scale, cfg.R, d.P,
    )


def _inner(spec):
    # the prior that goes through the series
    return spec.inner if isinstance(spec, PointMassGamma) else spec


def group_h(prep: PreparedDataset, spec) -> np.ndarray:
    """Every group's H_i, in ``prep.groups`` order.

    H is one sparse mat-vec, ``counts.C @ counts.mgf(spec)``.  For the
    point-mass family only the inner prior goes through the series: each
    household's H_i is its own mixture w * 2^(-n_obs) + (1 - w) * H_inner.
    """
    H = prep.counts.C @ prep.counts.mgf(_inner(spec))
    if isinstance(spec, PointMassGamma):
        n_obs = np.array([sums.n_obs for sums, _ in prep.groups])
        H = spec.w * 2.0 ** -n_obs + (1.0 - spec.w) * H
    return H


def group_spread(prep: PreparedDataset, spec) -> np.ndarray:
    """Every group's parity spread, in ``prep.groups`` order: the truncation
    error estimate |E(R) - E(R-1)| / max(|E(R)|, |E(R-1)|) of its H_i.

    E(R) is the Euler mean of :func:`group_h`, ``counts.C @ mgf``, and
    E(R-1) the same mean one budget lower, ``companion @ mgf``.  For the
    point-mass family the spread is that of the inner prior's H_inner.
    """
    mgf = prep.counts.mgf(_inner(spec))
    return _rel_spread(prep.counts.C @ mgf, prep.companion @ mgf)


def log_marginal_prepared(prep: PreparedDataset, spec) -> Evaluation:
    """Log marginal likelihood from a prepared dataset.

    Every group's H_i comes from :func:`group_h`; a group whose H_i is not
    positive raises :class:`TruncationFailure`.  For the point-mass family
    the series runs on the inner prior and the all-or-nothing mixture is
    combined at the dataset level: with weight w every Bernoulli factor is
    1/2.
    """
    return _log_marginal(prep, spec, group_h(prep, _inner(spec)))


def log_marginal_and_spread(prep: PreparedDataset, spec) -> tuple[Evaluation, np.ndarray]:
    """:func:`log_marginal_prepared` and :func:`group_spread` from one
    evaluation of the prior's MGF."""
    mgf = prep.counts.mgf(_inner(spec))
    H = prep.counts.C @ mgf
    return _log_marginal(prep, spec, H), _rel_spread(H, prep.companion @ mgf)


def _log_marginal(prep: PreparedDataset, spec, H: np.ndarray) -> Evaluation:
    """The log marginal likelihood from the groups' H_i under ``spec``'s
    inner prior."""
    prep.raise_on_truncation(H)
    total = float(prep.counts.mult @ np.log(H))
    if isinstance(spec, PointMassGamma):
        # log(w 2^-total_obs + (1 - w) exp(total))
        total = float(point_mass_log(spec.w, -prep.total_obs * math.log(2.0), total))
    return Evaluation(total, prep.counts.terms)


def _group_label(sums: HouseholdSums) -> str:
    return f"x={sums.x_vectors} Y={sums.Y}"


def log_marginal(
    d: Dataset,
    spec,
    cfg: SeriesConfig,
    caches: dict | None = None,
) -> Evaluation:
    """Sum of log H_i over households: :func:`log_marginal_prepared` of
    :func:`prepare_dataset`."""
    return log_marginal_prepared(prepare_dataset(d, cfg, caches), spec)
