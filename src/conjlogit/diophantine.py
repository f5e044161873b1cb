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
:func:`build_caches` runs that recurrence for many signatures of one shape
at once: every state carries its signature, so a DP column and the final
grouping by r cost a fixed number of numpy calls for the whole batch, and
the batch's records are one read-only block, of which each cache is a view
of its own rows.  A batch holds as many signatures, in order, as keep the
sum of their state bounds within ``BATCH_STATES`` and ``MAX_STATES``; a
signature's bound counts, shell by shell, the fewer of its compositions and
of the r-tuples in the box its covariates span (:func:`_state_bounds`), not
the C(R+M, M) k-tuples.  No DP column of a batch holds more states than the
sum of its signatures' bounds, so only a signature built alone can meet the
state guard.  Each grouping packs its keys into one int64 and reads them
off a lookup table where the states are dense, or puts them in a radix
order over 16-bit digits where they are sparse (:func:`_distinct`).
:func:`build_cache` is the batch of one.  The counts from the final shells
k.1 == R and k.1 == R-1 are kept as well, so the series can return the Euler
mean of its last two shell partial sums, and the same mean one budget lower
for the parity spread, the error estimate that every reported value carries.
Every chain of the last DP column runs up to shell R, so these are read at
the chains' ends.  The resulting cache is the parameter-independent half of
the series evaluation and is persisted to disk.

A cache is one read-only int64 array in the cache file's record layout,
one row per reachable r-tuple (the r-tuple, its raw count, its shell-R and
shell-(R-1) counts), from the builder to the file and back; building,
saving and loading make no Python object per r-tuple.  :func:`load_cache`
reads a file in one unbuffered read and checksums and wraps its record
body where it lies in those bytes, without a copy.  Files are named and
checked by :func:`fnv1a_x_vectors`, the 64-bit FNV-1a of the signature's
packed bytes, computed a word at a time.  The ``entries``, ``final_shell``
and ``prev_shell`` dicts are built from the array on first use, for tests
and oracles."""

from __future__ import annotations

import contextlib
import math
import os
import struct
import zlib
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import product
from types import MappingProxyType

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
# Signatures of one shape are built together while their state bounds
# (_state_bounds, at least the states of any one DP column) add up to at
# most this many, or MAX_STATES if that is lower, so a batch of two or more
# never meets the state guard.  A batch's temporaries then peak near
# 0.75 MB on the benchmark's P=1 panel and 1.2 MB on its P=2 panel
# (tracemalloc), and its caches are views of one record block of at most
# 0.6 MB there, kept for as long as any of them is.  Whether the
# temporaries page-fault depends on the heap the rest of the process left:
# glibc gives a freed heap top larger than its trim threshold back to the
# system, and the next batch faults it in again.  In the benchmark's
# processes a cold-start set-up faults about 200 times (ru_minflt), and the
# median mgf-families and warm-grid set-ups not once.  A cap of 3 * 2**12
# removed those faults but made mgf-families set-up about 3% and its fit
# about 7% slower; 2**16 raised the peak RSS by about 2.5 MB, which cost
# more than the numpy calls the larger batches saved.
BATCH_STATES = 2**14
# Above this many cells per row of data, a lookup table over the range of
# the keys is too sparse, and _distinct sorts the keys instead.  Medians on
# 1,000, 4,000 and 16,000 random keys, shuffled or sorted, on a 2-core x86
# host: at 2 cells per key the table took 19-225 us and the radix sort
# 21-375 us, at 3 they were even, and at 4 the sort was faster in every
# case (16,000 keys: 346-539 against 186-283 us).  At 16 cells per key,
# 16,000 shuffled keys took 0.36 ms in the radix order, 2.0 ms in the table
# and 1.4 ms in the stable merge sort that the radix order replaced.
MAX_BOX_PER_ROW = 3

_MAGIC = b"DIOC"
# magic, version, M, P, R, x_vectors hash, record count
_HEADER = struct.Struct("<4sHIIIQQ")
_CRC = struct.Struct("<I")
_I64_MAX = 2**63 - 1
_U64 = 2**64 - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
# the prime to the power of a word's width in bytes, mod 2**64
_FNV_PRIME_U32 = pow(_FNV_PRIME, 4, 2**64)
_FNV_PRIME_I64 = pow(_FNV_PRIME, 8, 2**64)


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
    """64-bit FNV-1a hash of the covariate vectors (provenance guard).

    The hashed bytes are u32 P, u32 M and then every x_pm as i64, all
    little-endian.  They are hashed a word at a time: an int word in 0..255
    is its low byte followed by zero bytes, and FNV-1a's XOR with a zero
    byte changes nothing, so the word costs one XOR and one multiply by the
    prime to the word's width.  Any other word, negative ones included, is
    hashed byte by byte from ``struct.pack``, which rejects a value outside
    int64 as it always has.
    """
    h = _FNV_OFFSET
    for word in (len(x_vectors), len(x_vectors[0]) if x_vectors else 0):
        if word < 256:
            h = ((h ^ word) * _FNV_PRIME_U32) & _U64
        else:
            h = _fnv1a_bytes(h, struct.pack("<I", word))
    for vec in x_vectors:
        for v in vec:
            if type(v) is int and 0 <= v < 256:
                h = ((h ^ v) * _FNV_PRIME_I64) & _U64
            else:
                h = _fnv1a_bytes(h, struct.pack("<q", v))
    return h


def _fnv1a_bytes(h: int, data: bytes) -> int:
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _U64
    return h


def canonical_x_vectors(x_vectors) -> tuple[tuple[int, ...], ...]:
    """The order-free key of a signature: its observation columns sorted.

    H_i and the signed counts c(r) are symmetric in a household's
    observations, so signatures that differ only in the order of their
    columns (x_1m, ..., x_Pm) share one key, and one cache built for it.
    """
    return tuple(zip(*sorted(zip(*x_vectors))))


@dataclass(frozen=True, eq=False)
class DioCache:
    """Signed solution counts K+(r) - K-(r) for one covariate signature.

    ``records`` is a read-only int64 array of shape (rows, P + 3) in the
    cache file's record layout, one row per reachable r-tuple, sorted by
    (r-total, tuple): the r-tuple r_1..r_P (``r_array``, a view), its raw
    signed count c(r) over the simplex k.1 <= R, and the signed counts
    c_R(r) and c_{R-1}(r) contributed by the shells k.1 == R and k.1 == R-1
    alone.  ``entries`` (r -> c(r)), ``final_shell`` (r -> c_R(r)) and
    ``prev_shell`` (r -> c_{R-1}(r)), the last two over non-zero rows only,
    are read-only dicts built from it on first use.  A writable ``records``
    is copied, so a cache never shares a block that can still change; a
    read-only one is kept as it is, so the caches of one build are views of
    its block.
    ``entries``, if given, replaces the raw counts c(r) of the rows, whose
    r-tuples it must key exactly: ``dataclasses.replace(cache, entries=...)``
    then gives the cache with those counts edited.  Two caches are equal
    when their x_vectors, R and records are.

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
    records: np.ndarray

    def __init__(self, x_vectors, R: int, records: np.ndarray, entries=None):
        P = len(x_vectors)
        records = np.asarray(records)
        if not (records.dtype.kind == "i" and records.dtype.itemsize == 8
                and records.ndim == 2 and records.shape[1] == P + 3):
            raise ValueError(f"records must be an int64 (rows, P+3) = (rows, {P + 3}) "
                             f"array, not {records.dtype} of shape {records.shape}")
        if entries is not None:
            rows = list(map(tuple, records[:, :P].tolist()))
            if len(entries) != len(rows) or not all(r in entries for r in rows):
                raise ValueError("entries must key exactly the r-tuples of the records")
            records = records.copy()
            records[:, P] = [entries[r] for r in rows]
        elif records.flags.writeable:
            records = records.copy()
        records.flags.writeable = False
        object.__setattr__(self, "x_vectors", x_vectors)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "records", records)

    def __eq__(self, other):
        if not isinstance(other, DioCache):
            return NotImplemented
        return (self.x_vectors == other.x_vectors and self.R == other.R
                and np.array_equal(self.records, other.records))

    @property
    def M(self) -> int:
        return len(self.x_vectors[0])

    @property
    def P(self) -> int:
        return len(self.x_vectors)

    @property
    def x_hash(self) -> int:
        return fnv1a_x_vectors(self.x_vectors)

    @cached_property
    def r_array(self) -> np.ndarray:
        return self.records[:, :self.P]

    @cached_property
    def count_array(self) -> np.ndarray:
        rec, P = self.records, self.P
        return rec[:, P] - 0.5 * rec[:, P + 1]

    @cached_property
    def companion_array(self) -> np.ndarray:
        """The Euler-mean weights one budget lower, aligned with ``r_array``."""
        rec, P = self.records, self.P
        return (rec[:, P] - rec[:, P + 1]) - 0.5 * rec[:, P + 2]

    @cached_property
    def entries(self) -> Mapping[tuple[int, ...], int]:
        return self._mapping(0)

    @cached_property
    def final_shell(self) -> Mapping[tuple[int, ...], int]:
        return self._mapping(1)

    @cached_property
    def prev_shell(self) -> Mapping[tuple[int, ...], int]:
        return self._mapping(2)

    def _mapping(self, column: int) -> Mapping[tuple[int, ...], int]:
        """r -> count of ``column`` (0: c(r), 1: c_R(r), 2: c_{R-1}(r)); the
        shell counts over their non-zero rows only."""
        r, counts = self.r_array, self.records[:, self.P + column]
        if column:
            keep = counts != 0
            r, counts = r[keep], counts[keep]
        return MappingProxyType(dict(zip(map(tuple, r.tolist()), counts.tolist())))

    def relabel(self, x_vectors) -> "DioCache":
        """The same counts for ``x_vectors``, a column permutation of this
        cache's own.

        The counts depend on the multiset of observation columns only, so a
        permuted signature shares the cache's records.  Raises ValueError
        when ``x_vectors`` is not such a permutation.
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
        return replace(self, x_vectors=xv)


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
    """Signed counts per r-tuple over the truncation simplex k.1 <= R:
    ``build_caches([x_vectors], R)[0]``."""
    return build_caches([x_vectors], R)[0]


def build_caches(signatures, R: int) -> list[DioCache]:
    """:func:`build_cache` of every signature, in order, from batched knapsack runs.

    Signatures of one shape (P, M) are built together, in order, as many at
    a time as keep the sum of their state bounds (:func:`_state_bounds`)
    within ``min(BATCH_STATES, MAX_STATES)``; a signature over it is built
    alone.  A batch's DP columns then hold no more states than that sum, so
    only a lone signature can be refused by the state guard.  Each cache
    equals its one-at-a-time build column for column.  Raises ValueError for
    the first invalid signature in order, with :func:`_check_x_vectors`'
    message.  Every batch is built; then, if any signature was refused
    because C(R+M, M) exceeds the int64 range or a DP column would hold more
    than ``MAX_STATES`` states, raises the :class:`BudgetError` of the first
    refused signature in order, the one a one-at-a-time build would raise.
    """
    shapes = _by_shape(signatures)
    if R < 0:
        raise ValueError("R must be non-negative")
    cap = min(BATCH_STATES, MAX_STATES)
    refused = {}  # index -> BudgetError of each refused shape or lone signature
    batches = []  # (indices, covariates, x_vectors) of one run each
    for (_, M), (members, X, xvs) in shapes.items():
        tuples = compositions_cum(R, M)
        if tuples > _I64_MAX:
            # every partial sum of the DP is at most C(R+M, M), so i64 is exact
            # below this; the shape's later members are past its first
            refused[members[0]] = BudgetError(
                f"C(R+M, M) = C({R+M},{M}) = {tuples} exceeds the i64 range "
                "of the signed counts"
            )
            continue
        starts, total = [], math.inf
        for k, bound in enumerate(_state_bounds(X, R).tolist()):
            total += bound
            if total > cap:
                starts.append(k)
                total = bound
        for a, b in zip(starts, starts[1:] + [len(members)]):
            batches.append((members[a:b], X[a:b], xvs[a:b]))
    caches: list = [None] * len(signatures)
    for members, X, xvs in batches:
        try:
            for i, cache in zip(members, _build_batch(X, xvs, R)):
                caches[i] = cache
        except BudgetError as e:  # only a lone signature reaches the state guard
            refused[members[0]] = e
    if refused:
        raise refused[min(refused)]
    return caches


def _by_shape(signatures) -> dict[tuple[int, int], tuple[list[int], np.ndarray, list]]:
    """The signatures of each shape (P, M), in order of first appearance: their
    indices, their covariates as one int64 array (signature, p, m), and their
    x_vectors as tuples of ints.

    Checks every signature as :func:`_check_x_vectors` checks one, a few
    numpy calls per shape, and raises its ValueError for the first invalid
    signature in order.
    """
    rows: dict[tuple[int, ...], list[int]] = {}  # the lengths of a signature's rows
    for i, xv in enumerate(signatures):
        rows.setdefault(tuple(map(len, xv)), []).append(i)
    invalid = []  # (index, message) of each row shape's first invalid signature
    shapes = {}
    for lengths, members in rows.items():
        if not lengths or not lengths[0]:
            invalid.append((members[0], "x_vectors must be a non-empty P x M array"))
            continue
        if any(n != lengths[0] for n in lengths):
            invalid.append((members[0], "x_vectors rows must share length M"))
            continue
        X = np.array([signatures[i] for i in members], dtype=np.int64)
        negative = (X < 0).any(axis=(1, 2))
        bad = negative | (X == 0).all(axis=1).any(axis=1)
        if bad.any():
            k = int(bad.argmax())
            invalid.append((members[k], "covariates must be non-negative" if negative[k]
                            else "every observation needs at least one positive covariate"))
        shapes[len(lengths), lengths[0]] = (
            members, X, [tuple(map(tuple, x)) for x in X.tolist()]
        )
    if invalid:
        raise ValueError(min(invalid)[1])
    return shapes


def _state_bounds(X: np.ndarray, R: int) -> np.ndarray:
    """An upper bound on the (shell, r) states that any DP column of
    :func:`_shell_states` holds for each signature of ``X`` (signature, p, m).

    A column's states of shell s are distinct r-tuples, each the sum of s
    of the signature's observation columns taken with repeats, so there are
    at most C(s+M-1, M-1) of them, and each r_p lies in
    [s * min_m x_pm, s * max_m x_pm].  The bound is
    sum over s <= R of min(C(s+M-1, M-1), prod_p (s * (max_m x_pm - min_m x_pm) + 1)),
    in float64, exact below 2**53.
    """
    M = X.shape[2]
    s = np.arange(R + 1, dtype=np.float64)
    spans = X.max(axis=2) - X.min(axis=2)  # (signature, p)
    boxes = np.prod(spans[:, :, None] * s + 1, axis=1)
    shells = np.array([math.comb(k + M - 1, M - 1) for k in range(R + 1)], dtype=np.float64)
    return np.minimum(boxes, shells).sum(axis=1)


def _build_batch(X: np.ndarray, xvs, R: int) -> list[DioCache]:
    """The caches of signatures of one shape, from one knapsack run: ``X``
    holds their covariates (signature, p, m) and ``xvs`` their x_vectors."""
    G, P, M = X.shape
    g, s, r, signed, length = _shell_states(X, R)
    sign = s & 1  # the parity sign (-1)^s, in place: temporaries set the batch's peak
    sign <<= 1
    np.subtract(1, sign, out=sign)
    signed *= sign
    del sign, s
    # the rows of r_array, per signature: by r-total, then tuple, and the
    # total with all but the last r_p determines r
    keys = np.empty((P + 1, len(g)), dtype=np.int64)
    keys[0] = g
    r.sum(axis=0, out=keys[1])
    keys[2:] = r[:-1]
    del g, r  # each array of states is freed once used: they set the batch's peak memory
    xmax = [R * v for v in X.max(axis=(0, 2)).tolist()]
    (g, total, *head), row = _group(keys, [G, sum(xmax) + 1, *(v + 1 for v in xmax[:-1])])
    del keys
    # one row per distinct r, kept even where its shells cancel to a net
    # count of 0: r_1..r_P, c(r), c_R(r), c_{R-1}(r), the file's record layout
    rec = np.zeros((len(g), P + 3), dtype=np.int64)
    np.add.at(rec[:, P], row, signed)
    # each chain's last state is of shell R, and the one before it of shell
    # R-1 where the chain has two states or more
    last = np.cumsum(length) - 1
    prev = last[length > 1] - 1
    rec[row[last], P + 1] = signed[last]
    rec[row[prev], P + 2] = signed[prev]
    del signed, row, last, prev
    rec[:, P - 1] = total
    for p, r_p in enumerate(head):
        rec[:, p] = r_p
        rec[:, P - 1] -= r_p
    # every cache is a read-only view of its rows, so a cache that is kept
    # keeps its batch's block alive, which BATCH_STATES bounds
    rec.flags.writeable = False
    bounds = np.searchsorted(g, np.arange(G + 1)).tolist()
    return [DioCache(xv, R, rec[a:b]) for xv, a, b in zip(xvs, bounds, bounds[1:])]


def _shell_states(X: np.ndarray, R: int) -> tuple[np.ndarray, ...]:
    """Every reachable (shell s = k.1, r = k.x) of the budget-R simplex with its
    k-tuple count, for a batch of signatures of one shape.

    ``X[g]`` is signature g's P x M covariates.  The counts N are the
    coefficients of prod_m 1/(1 - u z^{x_m}) up to u-degree R (a state's
    signed count is (-1)^s N), built one column at a time by the knapsack
    recurrence N_m[s, r] = N_{m-1}[s, r] + N_m[s-1, r-x_m].  Every partial
    sum stays below C(R+M, M).  Along a chain of states spaced (1, x_m)
    apart that recurrence is a cumulative sum, so each column groups the
    states of the whole batch into chains, keyed by their signature and by
    where they reach shell R, extends every chain from its first state up to
    shell R and takes one cumsum.  Only reachable states are stored, so the
    work grows with their number, not with the C(R+M, M) k-tuples they
    count; a column that would hold more than ``MAX_STATES`` raises
    :class:`BudgetError` before it is allocated.  Returns (g, s, r, N,
    length): one entry per state, with r of shape (P, states) and N > 0
    everywhere, and the states come in the last column's chains, a run of
    ``length[c]`` states for chain c over the shells R-length[c]+1..R.
    """
    G, P, M = X.shape
    dims = [G, *(R * v + 1 for v in X.max(axis=(0, 2)).tolist())]  # bounds g and every r_p
    _check_states(G * (R + 1), 1, M, R)
    g = np.repeat(np.arange(G), R + 1)  # the first column alone: one chain from 0 each
    s = np.tile(np.arange(R + 1, dtype=np.int64), G)
    r = X[g, :, 0].T * s
    n = np.ones(len(s), dtype=np.int64)
    length = np.full(G, R + 1)
    for m in range(1, M):
        ends = np.empty((P + 1, len(s)), dtype=np.int64)
        ends[0] = g
        back = R - s
        for p, r_p in enumerate(r):  # where each state's chain meets shell R
            np.multiply(X[:, p, m][g], back, out=ends[p + 1])
            ends[p + 1] += r_p
        del back, r  # the states of column m-1 are freed as soon as they are used
        (gc, *end), chain = _group(ends, dims)
        del ends
        s0 = np.full(len(gc), R, dtype=np.int64)  # each chain's first shell
        np.minimum.at(s0, chain, s)
        length = R - s0 + 1
        offset = np.cumsum(length) - length
        total = int(offset[-1] + length[-1])
        _check_states(total, m + 1, M, R)
        delta = np.zeros(total, dtype=np.int64)
        at = (offset - s0)[chain]  # each state's place in its chain's run of delta
        at += s
        delta[at] = n
        del at, chain, s, n
        n = np.cumsum(delta, out=delta)
        before = n[offset - 1]  # each chain's cumsum before its first state
        before[0] = 0
        n -= np.repeat(before, length)
        s = np.repeat(s0 - offset, length)
        s += np.arange(total)
        g = np.repeat(gc, length)
        # r = end - x_m (R - s) along a chain, from end - x_m R once per chain
        r = np.repeat(np.stack(end) - R * X[gc, :, m].T, length, axis=1)
        for p, r_p in enumerate(r):
            step = X[:, p, m][g]
            step *= s
            r_p += step
    return g, s, r, n, length


def _check_states(total: int, m: int, M: int, R: int) -> None:
    if total > MAX_STATES:
        raise BudgetError(
            f"the knapsack DP needs {total} (shell, r) states for column {m} of {M} "
            f"at R={R}, more than MAX_STATES = {MAX_STATES}"
        )


def _distinct(keys: np.ndarray, size: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values of the non-negative integers ``keys`` (all below
    ``size``) and each key's index among them.

    Up to ``MAX_BOX_PER_ROW`` cells per row of the caller's data (``rows``),
    and at least 1024, a lookup table over 0..size-1 marks the values
    present, numbers them in order, and reads each key's number off the
    table; past that the table would be too sparse, and the keys are put in
    order by :func:`_radix_order` and numbered where they change, as
    np.unique numbers them.
    """
    if size <= max(MAX_BOX_PER_ROW * rows, 1024):
        present = np.zeros(size, dtype=bool)
        present[keys] = True
        return np.flatnonzero(present), (np.cumsum(present, dtype=np.int32) - 1)[keys]
    order = _radix_order(keys, size)
    ordered = keys[order]
    new = np.empty(len(keys), dtype=bool)  # where the ordered keys change
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    index = np.empty(len(keys), dtype=np.intp)
    index[order] = np.cumsum(new) - 1
    return ordered[new], index


def _radix_order(keys: np.ndarray, size: int) -> np.ndarray:
    """The stable sorting order of the non-negative integers ``keys``, all
    below ``size``: a least-significant-digit radix order over 16-bit digits.

    Each digit is ordered by np.argsort's stable kind, which sorts 16-bit
    integers by radix, so keys below 2**32 cost two linear passes.  On the
    builder's P=2 and P=3 batches of about 15,700 keys this took 0.23-0.25
    ms, against 0.32-0.37 ms for a stable argsort of the int64 keys and
    0.24-0.27 ms for a quicksort; on about 1,000 keys its passes over 2**16
    buckets cost 20 us, against 8 us for the stable argsort.
    """
    order = np.argsort(keys.astype(np.uint16), kind="stable")  # the low digit
    shift = 16
    while (size - 1) >> shift:
        digit = (keys >> shift).astype(np.uint16)
        order = order[np.argsort(digit[order], kind="stable")]
        shift += 16
    return order


def _group(cols: np.ndarray, dims) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The distinct columns of ``cols``, in lexicographic order, as one array
    per row, and each column's index among them.

    ``cols`` holds non-negative integers, row i below ``dims[i]``; it is
    overwritten.  Its columns are packed into one int64 key each for
    :func:`_distinct`, or, where the keys would overflow int64, sorted
    whole by np.unique.
    """
    dims = [int(d) for d in dims]
    box = math.prod(dims)
    if box >= 2**63:
        distinct, index = np.unique(cols.T, axis=0, return_inverse=True)
        return tuple(distinct.T), index.ravel()
    keys = cols[0]
    for row, d in zip(cols[1:], dims[1:]):
        keys *= d
        keys += row
    distinct, index = _distinct(keys, box, len(keys))
    return np.unravel_index(distinct, dims), index


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
# CRC32 of the record body.  The record block is also a DioCache's
# in-memory store: save_cache writes ``records`` as it is, and load_cache
# wraps the file's bytes in place.  Version 1 files lack both shell columns,
# version 2 files the shell-(R-1) column, and version 3 files carry an
# unused u64 k-tuple count before the record count; all are rejected.
# ---------------------------------------------------------------------------

def save_cache(cache: DioCache, path: str) -> None:
    """Write ``cache`` to ``path`` through a temporary file in the same
    directory, which replaces ``path`` only once it is complete, so a write
    that fails or is interrupted leaves ``path`` as it was."""
    header = _HEADER.pack(
        _MAGIC, CACHE_FORMAT_VERSION, cache.M, cache.P, cache.R, cache.x_hash,
        len(cache.records),
    )
    xdata = struct.pack(f"<{cache.P * cache.M}q", *(v for vec in cache.x_vectors for v in vec))
    body = cache.records.astype("<i8", copy=False).tobytes()
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(header)
            f.write(xdata)
            f.write(body)
            f.write(_CRC.pack(zlib.crc32(body)))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_cache(path: str, expect_x_vectors=None, expect_hash: int | None = None) -> DioCache:
    """Read a cache file, checking its magic, version, size, x_vectors hash and CRC.

    The file is read in one unbuffered read, and its record body is
    checksummed and wrapped where it lies in those bytes, not copied.
    With ``expect_x_vectors`` the file must hold those covariate vectors.
    ``expect_hash`` may pass ``fnv1a_x_vectors(expect_x_vectors)`` when the
    caller has it; the file's x_vectors are then hashed again only when they
    differ from the expected ones.
    """
    with open(path, "rb", buffering=0) as f:
        raw = f.readall()
    size = len(raw)
    if raw[:4] != _MAGIC[:size]:
        raise CacheFileError(f"{path}: not a cache file (bad magic)")
    if size < _HEADER.size:  # cut inside the header
        raise CacheFileError(f"{path}: truncated file ({size} bytes, "
                             f"the header alone is {_HEADER.size})")
    _, version, M, P, R, xh, n_rec = _HEADER.unpack_from(raw)
    if version != CACHE_FORMAT_VERSION:
        raise CacheFileError(
            f"{path}: format version {version}, expected {CACHE_FORMAT_VERSION}"
        )
    body_at = _HEADER.size + 8 * P * M
    expected = body_at + n_rec * 8 * (P + 3) + _CRC.size
    if size < expected:
        raise CacheFileError(f"{path}: truncated file ({size} bytes, expected {expected})")
    if size > expected:
        raise CacheFileError(f"{path}: {size - expected} extra bytes after the checksum "
                             f"({size} bytes, expected {expected})")
    xflat = struct.unpack_from(f"<{P * M}q", raw, _HEADER.size)
    xv = tuple([xflat[p * M:(p + 1) * M] for p in range(P)])
    exp = None
    if expect_x_vectors is not None:
        exp = tuple([tuple(map(int, vec)) for vec in expect_x_vectors])
    known = expect_hash if expect_hash is not None and exp == xv else fnv1a_x_vectors(xv)
    if known != xh:
        raise CacheFileError(f"{path}: x_vectors hash mismatch inside file")
    if exp is not None and exp != xv:
        raise CacheFileError(f"{path}: cache built for different x_vectors than requested")
    body = memoryview(raw)[body_at:-_CRC.size]
    (crc,) = _CRC.unpack_from(raw, size - _CRC.size)
    if zlib.crc32(body) != crc:
        raise CacheFileError(f"{path}: checksum failure")
    # the records, sorted by (total, tuple), are the cache's read-only store
    return DioCache(xv, R, np.frombuffer(body, dtype="<i8").reshape(n_rec, P + 3))
