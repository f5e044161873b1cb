"""Signed solution counts for the k-systems behind the grouped expansion.

For a household with covariate vectors x_1,...,x_P (each of length M = J*N_i)
and truncation budget R, every non-negative integer tuple k with
k_1+...+k_M <= R contributes the parity sign (-1)^(k.1) to the r-tuple of its
dot products r_p = k . x_p.  Those signed counts are the coefficients of
prod_m 1/(1 + u z^{x_m}) truncated at u-degree R.  They are built by a
per-column knapsack recurrence over the reachable (shell, r) states, so the
cost follows the number of states rather than the C(R+M, M) k-tuples counted,
and the one resource guard is on those states: a column that would hold more
than ``MAX_STATES`` of them raises :class:`BudgetError` before it is built.
The counts from the final shells k.1 == R and k.1 == R-1 are kept as well, so
the series can return the Euler mean of its last two shell partial sums, and
the same mean one budget lower for the parity spread, the error estimate that
every reported value carries.  The resulting cache is
the parameter-independent half of the series evaluation and is persisted to
disk.

A cache stores its counts as int64 columns (r-tuples, raw counts, shell-R and
shell-(R-1) counts) from the builder to the file and back; building, saving
and loading make no Python object per r-tuple.  The ``entries``,
``final_shell`` and ``prev_shell`` mappings are lazy read-only views over
those columns for tests and oracles."""

from __future__ import annotations

import math
import struct
import zlib
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import product

import numpy as np


class BudgetError(RuntimeError):
    """The knapsack DP would build more than ``MAX_STATES`` states, or the
    signed counts of the budget could leave the int64 range."""


class CacheFileError(RuntimeError):
    """Corrupt, truncated, mismatched or unsupported cache file."""


CACHE_FORMAT_VERSION = 4
# (shell, r) states one DP column may hold; about 157 bytes each at the peak
# of a build, so 2**24 states is about 2.6 GB
MAX_STATES = 2**24

_MAGIC = b"DIOC"
_HEADER = "<HIIIQQ"  # version, M, P, R, x_vectors hash, record count
_I64_MAX = 2**63 - 1


def compositions_count(r: int, M: int) -> int:
    """Number of ordered M-tuples of non-negative integers summing to r."""
    if r < 0 or M < 1:
        raise ValueError("need r >= 0 and M >= 1")
    return math.comb(r + M - 1, M - 1)


def compositions_cum(R: int, M: int) -> int:
    """Number of ordered M-tuples of non-negative integers summing to at most R."""
    if R < 0 or M < 1:
        raise ValueError("need R >= 0 and M >= 1")
    return math.comb(R + M, M)


def fnv1a_x_vectors(x_vectors: tuple[tuple[int, ...], ...]) -> int:
    """64-bit FNV-1a hash of the covariate vectors (provenance guard)."""
    h = 0xCBF29CE484222325
    data = struct.pack("<II", len(x_vectors), len(x_vectors[0]) if x_vectors else 0)
    for vec in x_vectors:
        data += struct.pack(f"<{len(vec)}q", *vec)
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def canonical_x_vectors(x_vectors) -> tuple[tuple[int, ...], ...]:
    """The order-free key of a signature: its observation columns sorted.

    H_i and the signed counts c(r) are symmetric in a household's
    observations, so signatures that differ only in the order of their
    columns (x_1m, ..., x_Pm) share one key, and one cache built for it.
    """
    return tuple(zip(*sorted(zip(*x_vectors))))


class CountView(Mapping):
    """Read-only mapping r-tuple -> signed count over a cache's int64 columns.

    ``r`` holds one r-tuple per row and ``counts`` the matching counts.  With
    ``skip_zeros`` rows whose count is 0 are left out.  The dict of tuple
    keys is built only when a key is looked up or the view is iterated or
    compared; ``len`` reads the columns.
    """

    __slots__ = ("_r", "_counts", "_skip_zeros", "_dict")

    def __init__(self, r: np.ndarray, counts: np.ndarray, skip_zeros: bool = False):
        self._r, self._counts, self._skip_zeros = r, counts, skip_zeros
        self._dict = None

    def _mapping(self) -> dict[tuple[int, ...], int]:
        if self._dict is None:
            r, c = self._r, self._counts
            if self._skip_zeros:
                keep = np.flatnonzero(c)
                r, c = r[keep], c[keep]
            self._dict = dict(zip(map(tuple, r.tolist()), c.tolist()))
        return self._dict

    def __len__(self) -> int:
        return int(np.count_nonzero(self._counts)) if self._skip_zeros else len(self._counts)

    def __getitem__(self, key):
        return self._mapping()[key]

    def __iter__(self):
        return iter(self._mapping())

    def __repr__(self) -> str:
        return f"CountView({self._mapping()!r})"


@dataclass(frozen=True)
class DioCache:
    """Signed solution counts K+(r) - K-(r) for one covariate signature.

    The counts are stored as four int64 columns, one row per reachable
    r-tuple, sorted by (r-total, tuple): the r-tuples (``r_array``), their
    raw signed counts c(r) over the simplex k.1 <= R, and the signed counts
    c_R(r) and c_{R-1}(r) contributed by the shells k.1 == R and k.1 == R-1
    alone.  ``entries`` (r -> c(r)), ``final_shell`` (r -> c_R(r)) and
    ``prev_shell`` (r -> c_{R-1}(r)), the last two over non-zero rows only,
    are read-only :class:`CountView` mappings over those columns.  A cache
    built from plain dicts (e.g. by ``dataclasses.replace``) derives its
    columns from them on first use.

    The shell partial sums S_s of the series alternate in sign, so the
    evaluators return their first Euler mean (S_{R-1} + S_R) / 2 (with
    S_{-1} = 0) rather than the raw S_R.  That mean weights the final shell by
    1/2, which folds into one fixed weight per r-tuple:
    ``count_array`` holds c(r) - c_R(r) / 2, aligned with ``r_array``.  The
    same mean at budget R - 1, c(r) - c_R(r) - c_{R-1}(r) / 2, is
    ``companion_array`` on the same rows; the two give the parity spread.
    """

    x_vectors: tuple[tuple[int, ...], ...]
    R: int
    entries: Mapping[tuple[int, ...], int]
    final_shell: Mapping[tuple[int, ...], int]
    prev_shell: Mapping[tuple[int, ...], int]

    @property
    def M(self) -> int:
        return len(self.x_vectors[0])

    @property
    def P(self) -> int:
        return len(self.x_vectors)

    @property
    def x_hash(self) -> int:
        return fnv1a_x_vectors(self.x_vectors)

    @property
    def r_array(self) -> np.ndarray:
        return self.columns()[0]

    @property
    def count_array(self) -> np.ndarray:
        arr = self.__dict__.get("_count_array")
        if arr is None:
            _, raw, last, _ = self.columns()
            self.__dict__["_count_array"] = arr = raw - 0.5 * last
        return arr

    @property
    def companion_array(self) -> np.ndarray:
        """The Euler-mean weights one budget lower, aligned with ``r_array``."""
        arr = self.__dict__.get("_companion_array")
        if arr is None:
            _, raw, last, prev = self.columns()
            self.__dict__["_companion_array"] = arr = (raw - last) - 0.5 * prev
        return arr

    def relabel(self, x_vectors) -> "DioCache":
        """The same counts for ``x_vectors``, a column permutation of this
        cache's own.

        The counts depend on the multiset of observation columns only, so a
        permuted signature shares every column of the cache.  Raises
        ValueError when ``x_vectors`` is not such a permutation.
        """
        xv = tuple(tuple(int(v) for v in vec) for vec in x_vectors)
        if xv == self.x_vectors:
            return self
        if not (
            len(xv) == self.P
            and all(len(vec) == self.M for vec in xv)
            and sorted(zip(*xv)) == sorted(zip(*self.x_vectors))
        ):
            raise ValueError(
                f"x_vectors {xv} are not a column permutation of the cache's {self.x_vectors}"
            )
        return _cache_from_arrays(xv, self.R, *self.columns())

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The int64 columns (r-tuples, c(r), c_R(r), c_{R-1}(r)) in r-total order.

        Raises OverflowError when a dict-built cache holds a count outside
        the int64 range.
        """
        cols = self.__dict__.get("_columns")
        if cols is None:
            e, f, g = self.entries, self.final_shell, self.prev_shell
            if all(isinstance(v, CountView) and v._r is e._r for v in (e, f, g)):
                cols = (e._r, e._counts, f._counts, g._counts)
            else:
                n = len(e)
                r = np.array(list(e), dtype=np.int64).reshape(n, self.P)
                raw = np.fromiter(e.values(), dtype=np.int64, count=n)
                last = np.fromiter((f.get(k, 0) for k in e), dtype=np.int64, count=n)
                prev = np.fromiter((g.get(k, 0) for k in e), dtype=np.int64, count=n)
                order = np.lexsort((*r[:, ::-1].T, r.sum(axis=1)))
                cols = (r[order], raw[order], last[order], prev[order])
            self.__dict__["_columns"] = cols
        return cols


def _check_x_vectors(x_vectors) -> tuple[tuple[int, ...], ...]:
    xv = tuple(tuple(int(v) for v in vec) for vec in x_vectors)
    if not xv or not xv[0]:
        raise ValueError("x_vectors must be a non-empty P x M array")
    M = len(xv[0])
    if any(len(vec) != M for vec in xv):
        raise ValueError("x_vectors rows must share length M")
    if any(v < 0 for vec in xv for v in vec):
        raise ValueError("covariates must be non-negative")
    cols = zip(*xv)
    if any(all(v == 0 for v in col) for col in cols):
        raise ValueError("every observation needs at least one positive covariate")
    return xv


def build_cache(x_vectors, R: int) -> DioCache:
    """Signed counts per r-tuple over the truncation simplex k.1 <= R.

    Raises :class:`BudgetError` when C(R+M, M) exceeds the int64 range or a
    DP column would hold more than ``MAX_STATES`` states.
    """
    xv = _check_x_vectors(x_vectors)
    M = len(xv[0])
    if R < 0:
        raise ValueError("R must be non-negative")
    tuples = compositions_cum(R, M)
    if tuples > _I64_MAX:
        # every partial sum of the DP is at most C(R+M, M), so i64 is exact below this
        raise BudgetError(
            f"C(R+M, M) = C({R+M},{M}) = {tuples} exceeds the i64 range of the signed counts"
        )
    s, r, n = _shell_states(np.array(xv, dtype=np.int64).T, R)
    signed = np.where(s & 1, -n, n)
    order = np.lexsort((*r[:, ::-1].T, r.sum(axis=1)))  # the (total, tuple) order of r_array
    return _cache_from_states(xv, R, s[order], r[order], signed[order])


def _shell_states(cols: np.ndarray, R: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every reachable (shell s = k.1, r = k.x) of the budget-R simplex with its k-tuple count.

    ``cols`` holds one observation column x_m (a P-vector) per row.  The
    counts N are the coefficients of prod_m 1/(1 - u z^{x_m}) up to u-degree
    R (a state's signed count is (-1)^s N), built one column at a time by
    the knapsack recurrence N_m[s, r] = N_{m-1}[s, r] + N_m[s-1, r-x_m].
    Every partial sum stays below C(R+M, M).  Along a chain of states
    spaced (1, x_m) apart that recurrence is a cumulative sum, so each
    column groups the states into chains (keyed by where they reach shell R),
    extends every chain from its first state up to shell R and takes one
    cumsum.  Only reachable states are stored, so the work grows with their
    number, not with the C(R+M, M) k-tuples they count; a column that would
    hold more than ``MAX_STATES`` raises :class:`BudgetError` before it is
    allocated.  Returns (s, r, N) with N > 0 everywhere.
    """
    _check_states(R + 1, 1, len(cols), R)
    s = np.arange(R + 1, dtype=np.int64)  # the first column alone: one chain from 0
    r = s[:, None] * cols[0]
    n = np.ones(R + 1, dtype=np.int64)
    for m, x in enumerate(cols[1:], 2):
        end = r + (R - s)[:, None] * x  # where each state's chain meets shell R
        order = np.lexsort((s, *end.T[::-1]))
        s, end, n = s[order], end[order], n[order]
        first = _new_rows(end)
        heads = np.flatnonzero(first)
        s0 = s[heads]
        length = R - s0 + 1
        offset = np.cumsum(length) - length
        chain = np.cumsum(first) - 1
        total = int(offset[-1] + length[-1])
        _check_states(total, m, len(cols), R)
        delta = np.zeros(total, dtype=np.int64)
        delta[offset[chain] + s - s0[chain]] = n
        c = np.cumsum(delta)
        n = c - np.repeat(np.concatenate(([0], c))[offset], length)
        s = np.repeat(s0 - offset, length) + np.arange(total)
        r = np.repeat(end[heads], length, axis=0) - (R - s)[:, None] * x
    return s, r, n


def _check_states(total: int, m: int, M: int, R: int) -> None:
    if total > MAX_STATES:
        raise BudgetError(
            f"the knapsack DP needs {total} (shell, r) states for column {m} of {M} "
            f"at R={R}, more than MAX_STATES = {MAX_STATES}"
        )


def _new_rows(a: np.ndarray) -> np.ndarray:
    """True where a row of the sorted 2-D array ``a`` differs from the row before."""
    new = np.empty(len(a), dtype=bool)
    new[0] = True
    np.any(a[1:] != a[:-1], axis=1, out=new[1:])
    return new


def _cache_from_states(xv, R, s, r, signed) -> DioCache:
    # states sorted by r in the r_array order; one entry per distinct r,
    # kept even where its shells cancel to a net count of 0
    new = _new_rows(r)
    heads = np.flatnonzero(new)
    row = np.cumsum(new) - 1
    last = np.zeros(len(heads), dtype=np.int64)
    prev = np.zeros(len(heads), dtype=np.int64)
    final, before = s == R, s == R - 1
    last[row[final]] = signed[final]
    prev[row[before]] = signed[before]
    return _cache_from_arrays(xv, R, r[heads], np.add.reduceat(signed, heads), last, prev)


def _cache_from_arrays(xv, R, r, raw, last, prev) -> DioCache:
    """A cache over its r_array-ordered int64 columns: r-tuples, raw counts,
    and the shell-R and shell-(R-1) counts."""
    return DioCache(
        xv, R, CountView(r, raw),
        CountView(r, last, skip_zeros=True), CountView(r, prev, skip_zeros=True),
    )


def signed_count_oracle(
    x_vectors, r_tuple, R: int
) -> tuple[int, int]:
    """Brute-force (K+, K-) for one r-tuple: reference for :func:`build_cache`.

    Enumerates every k in the budget simplex via itertools.product and checks
    the dot products directly; independent of the shell-count recurrence.
    """
    xv = _check_x_vectors(x_vectors)
    M = len(xv[0])
    P = len(xv)
    r = tuple(int(v) for v in r_tuple)
    if len(r) != P:
        raise ValueError("r_tuple length must equal P")
    k_plus = 0
    k_minus = 0
    for k in product(range(R + 1), repeat=M):
        if sum(k) > R:
            continue
        if all(sum(k[m] * xv[p][m] for m in range(M)) == r[p] for p in range(P)):
            if sum(k) % 2 == 0:
                k_plus += 1
            else:
                k_minus += 1
    return k_plus, k_minus


# ---------------------------------------------------------------------------
# Truncation tail bounds
# ---------------------------------------------------------------------------

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class TailBoundInput:
    R: int
    M: int
    eps: float
    delta: float
    P: int

    def __post_init__(self):
        if self.R < 0 or self.M < 1 or self.eps < 0 or self.delta < 1 or self.P < 1:
            raise ValueError("invalid tail-bound input")


@dataclass(frozen=True)
class TailBound:
    """Upper bounds on the discarded tail of the translated expansion.

    ``dyadic`` requires eps*delta*P > 2 log 2; ``simple`` requires
    eps*delta*P > log 2 and R >= 2.  Inapplicable bounds are None.
    """

    dyadic: float | None
    simple: float | None

    @property
    def applicable(self) -> bool:
        return self.dyadic is not None


def tail_bound(inp: TailBoundInput) -> TailBound:
    """Dyadic-decomposition and crude exponential tail bounds."""
    a = inp.eps * inp.delta * inp.P
    dyadic = None
    if a > 2 * _LOG2:
        dyadic = 2.0 * math.exp(-((a - 2 * _LOG2) * inp.R - inp.M * _LOG2))
    simple = None
    if a > _LOG2 and inp.R >= 2:
        simple = (
            2.0 ** (inp.M - 1)
            * math.exp(-(a - _LOG2) * math.log(inp.R))
            / (a - _LOG2)
        )
    return TailBound(dyadic, simple)


def tail_sum_direct(inp: TailBoundInput, rel_tol: float = 1e-16) -> float:
    """Directly summed tail sum_{r>R} C(r+M-1, M-1) exp(-eps*delta*P*r).

    Converges whenever eps*delta*P > 0; summed to machine convergence.
    """
    a = inp.eps * inp.delta * inp.P
    if a <= 0:
        raise ValueError("direct tail sum needs eps*delta*P > 0")
    total = 0.0
    r = inp.R + 1
    while True:
        term = compositions_count(r, inp.M) * math.exp(-a * r)
        total += term
        # once terms decay geometrically, stop when negligible
        if term < rel_tol * max(total, 1e-300) and r > inp.R + inp.M + 2:
            ratio = (r + inp.M) / (r + 1) * math.exp(-a)
            if ratio < 1:
                break
        r += 1
        if r > inp.R + 1_000_000:
            raise RuntimeError("direct tail sum failed to converge")
    return total


# ---------------------------------------------------------------------------
# Cache persistence
#
# Layout (little-endian): magic "DIOC", u16 version, u32 M, u32 P, u32 R,
# u64 FNV-1a hash of x_vectors (at byte 18), u64 record count, the
# x_vectors themselves (P*M i64, from byte 34), then sorted (r-tuple i64*P,
# count i64, shell-R count i64, shell-(R-1) count i64) records, then u32
# CRC32 of the record body.  Version 1 files lack both shell columns,
# version 2 files the shell-(R-1) column, and version 3 files carry an
# unused u64 k-tuple count before the record count; all are rejected.
# ---------------------------------------------------------------------------

def save_cache(cache: DioCache, path: str) -> None:
    try:
        r, raw, last, prev = cache.columns()
    except OverflowError as e:  # a dict-built cache with a count beyond int64
        raise CacheFileError(f"a signed count exceeds the i64 file range ({e})") from None
    header = _MAGIC + struct.pack(
        _HEADER, CACHE_FORMAT_VERSION, cache.M, cache.P, cache.R, cache.x_hash, len(raw)
    )
    xdata = struct.pack(f"<{cache.P * cache.M}q", *(v for vec in cache.x_vectors for v in vec))
    rec = np.empty((len(raw), cache.P + 3), dtype="<i8")
    rec[:, :cache.P] = r
    rec[:, cache.P] = raw
    rec[:, cache.P + 1] = last
    rec[:, cache.P + 2] = prev
    body = rec.tobytes()
    with open(path, "wb") as f:
        f.write(header)
        f.write(xdata)
        f.write(body)
        f.write(struct.pack("<I", zlib.crc32(body)))


def load_cache(path: str, expect_x_vectors=None, expect_hash: int | None = None) -> DioCache:
    """Read a cache file, checking its magic, version, size, x_vectors hash and CRC.

    With ``expect_x_vectors`` the file must hold those covariate vectors.
    ``expect_hash`` may pass ``fnv1a_x_vectors(expect_x_vectors)`` when the
    caller has it; the file's x_vectors are then hashed again only when they
    differ from the expected ones.
    """
    with open(path, "rb") as f:
        raw = f.read()
    hdr_size = 4 + struct.calcsize(_HEADER)
    if raw[:4] != _MAGIC[:len(raw)]:
        raise CacheFileError(f"{path}: not a cache file (bad magic)")
    if len(raw) < hdr_size:  # cut inside the header
        raise CacheFileError(f"{path}: truncated file ({len(raw)} bytes, "
                             f"the header alone is {hdr_size})")
    version, M, P, R, xh, n_rec = struct.unpack(_HEADER, raw[4:hdr_size])
    if version != CACHE_FORMAT_VERSION:
        raise CacheFileError(
            f"{path}: format version {version}, expected {CACHE_FORMAT_VERSION}"
        )
    xlen = 8 * P * M
    rec_size = 8 * (P + 3)
    expected = hdr_size + xlen + n_rec * rec_size + 4
    if len(raw) != expected:
        raise CacheFileError(f"{path}: truncated file ({len(raw)} bytes, expected {expected})")
    xflat = struct.unpack(f"<{P*M}q", raw[hdr_size:hdr_size + xlen])
    xv = tuple(tuple(xflat[p * M:(p + 1) * M]) for p in range(P))
    exp = None
    if expect_x_vectors is not None:
        exp = tuple(tuple(int(v) for v in vec) for vec in expect_x_vectors)
    known = expect_hash if expect_hash is not None and exp == xv else fnv1a_x_vectors(xv)
    if known != xh:
        raise CacheFileError(f"{path}: x_vectors hash mismatch inside file")
    if exp is not None and exp != xv:
        raise CacheFileError(f"{path}: cache built for different x_vectors than requested")
    body = raw[hdr_size + xlen:-4]
    (crc,) = struct.unpack("<I", raw[-4:])
    if zlib.crc32(body) != crc:
        raise CacheFileError(f"{path}: checksum failure")
    # Records are stored sorted by (total, tuple), the order of r_array; the
    # cache's columns are read-only views of the record bytes.
    rec = np.frombuffer(body, dtype="<i8").reshape(n_rec, P + 3)
    return _cache_from_arrays(xv, R, rec[:, :P], *rec[:, P:].T)
