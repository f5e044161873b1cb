import dataclasses
import errno
import gc
import itertools
import math
import re
import struct
import sys
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conjlogit import diophantine
from conjlogit.diophantine import (
    BudgetError,
    CACHE_FORMAT_VERSION,
    CacheFileError,
    DioCache,
    TailBound,
    TailBoundInput,
    build_cache,
    build_caches,
    canonical_x_vectors,
    compositions_count,
    compositions_cum,
    fnv1a_x_vectors,
    load_cache,
    save_cache,
    signed_count_oracle,
    tail_bound,
    tail_sum_direct,
)
from conjlogit.series import CountMatrix, HouseholdSums


class TestCompositions:
    def test_table_values(self):
        assert compositions_count(5, 20) == 42504
        assert math.isclose(math.log10(42504), 4.63, abs_tol=0.005)
        assert compositions_count(0, 3) == 1
        assert compositions_count(4, 1) == 1
        assert compositions_cum(2, 2) == 6  # (0,0),(0,1),(1,0),(0,2),(1,1),(2,0)

    def test_cum_is_sum_of_counts(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            R = int(rng.integers(0, 40))
            M = int(rng.integers(1, 15))
            assert compositions_cum(R, M) == sum(
                compositions_count(r, M) for r in range(R + 1)
            )

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            compositions_count(-1, 2)
        with pytest.raises(ValueError):
            compositions_cum(2, 0)


class TestBuildCache:
    def test_hand_enumerated_single_slot(self):
        # x = ((1, 1)): two observation slots, both contributing 1 to r.
        # k=(0,0)->r=0 (+), k=(1,0),(0,1)->r=1 (-), k=(2,0),(1,1),(0,2)->r=2 (+)
        c = build_cache(((1, 1),), 2)
        assert c.entries == {(0,): 1, (1,): -2, (2,): 3}

    def test_all_ones_specialization(self):
        # With every covariate equal to 1, r = k.1 so the signed count at r
        # is (-1)^r times the number of compositions of r.
        for M in (1, 2, 3, 5):
            c = build_cache(((1,) * M,), 7)
            for r in range(8):
                assert c.entries[(r,)] == (-1) ** r * compositions_count(r, M)

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            P = int(rng.integers(1, 3))
            M = int(rng.integers(1, 4))
            R = int(rng.integers(0, 8))
            xv = tuple(
                tuple(int(v) for v in rng.integers(1, 4, size=M)) for _ in range(P)
            )
            c = build_cache(xv, R)
            for r_t, cnt in c.entries.items():
                kp, km = signed_count_oracle(xv, r_t, R)
                assert kp - km == cnt
            # unreachable tuples have zero signed count
            kp, km = signed_count_oracle(xv, tuple(100 for _ in range(P)), R)
            assert kp == km == 0

    def test_total_signed_count_identity(self):
        # Summing over r recovers sum over the whole simplex of (-1)^(k.1).
        xv = ((1, 2, 3), (2, 1, 1))
        R = 9
        c = build_cache(xv, R)
        expected = sum(
            (-1) ** s * compositions_count(s, 3) for s in range(R + 1)
        )
        assert sum(c.entries.values()) == expected

    def test_sorted_arrays_increasing_total(self):
        c = build_cache(((1, 2), (3, 1)), 6)
        totals = c.r_array.sum(axis=1)
        assert (np.diff(totals) >= 0).all()
        assert len(c.count_array) == len(c.entries)

    def test_pair_matches_direct_build(self):
        # the budget-R cache holds the Euler-mean weights at R and, on the
        # same rows, at R - 1; per-signature checks are in TestShellCountDP
        assert_companion_matches_direct_build(((1, 2, 3), (2, 1, 1)), 7)
        for xv, R in DP_SIGNATURES:
            if R == 0:
                c = build_cache(xv, R)
                assert not c.companion_array.any() and not c.prev_shell

    def test_pair_at_zero_budget(self):
        c = build_cache(((1,),), 0)
        assert c.entries == c.final_shell == {(0,): 1}
        assert not c.prev_shell
        assert np.array_equal(c.companion_array, [0.0])

    def test_state_cap(self, monkeypatch):
        # x = (1, 2) at R=4: the second column holds the 15 states (s, r)
        # with s <= r <= 2s, over the 9 r-tuples 0..8
        monkeypatch.setattr(diophantine, "MAX_STATES", 15)
        assert len(build_cache(((1, 2),), 4).entries) == 9
        monkeypatch.setattr(diophantine, "MAX_STATES", 14)
        with pytest.raises(BudgetError, match=r"needs 15 \(shell, r\) states for column 2 "
                                              r"of 2 at R=4, more than MAX_STATES = 14"):
            build_cache(((1, 2),), 4)
        monkeypatch.setattr(diophantine, "MAX_STATES", 4)
        with pytest.raises(BudgetError, match="needs 5 .* column 1 of 2"):
            build_cache(((1, 2),), 4)  # the first column alone: one chain of R+1 states

    def test_input_validation(self):
        with pytest.raises(ValueError):
            build_cache(((-1,),), 2)
        with pytest.raises(ValueError):
            build_cache(((0,), (0,)), 2)  # all-zero observation column
        with pytest.raises(ValueError):
            build_cache(((1, 2), (1,)), 2)

    @given(st.integers(0, 10), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_admitted_always_matches_formula(self, R, M):
        # with all-ones covariates r = k.1, so each stored count is one
        # shell's, and their sizes add up to the C(R+M, M) k-tuples of the budget
        c = build_cache(((1,) * M,), R)
        assert sum(abs(v) for v in c.entries.values()) == compositions_cum(R, M)


# zero covariates in one row, P=3, and the R=0 budget
DP_SIGNATURES = [
    (((0, 1, 2), (1, 0, 1)), 6),
    (((1, 2), (0, 3), (2, 0)), 5),
    (((1, 1, 2), (2, 0, 1), (1, 3, 0)), 4),
    (((2, 1, 1, 3),), 5),
    (((1, 2, 3),), 0),
    (((1, 0), (0, 1), (2, 2)), 0),
]


def assert_companion_matches_direct_build(xv, R):
    # the companion weights of a budget-R cache are those of a direct
    # budget-(R-1) build on the rows that budget reaches, and 0 on the rest
    c = build_cache(xv, R)
    below = build_cache(xv, R - 1)
    assert below.R == R - 1
    rows = {r: i for i, r in enumerate(c.entries)}
    shared = np.array([rows[r] for r in below.entries])
    assert np.array_equal(c.r_array[shared], below.r_array)
    assert np.array_equal(c.companion_array[shared], below.count_array)
    rest = np.ones(len(rows), dtype=bool)
    rest[shared] = False
    assert not c.companion_array[rest].any()
    assert c.prev_shell == below.final_shell


class TestShellCountDP:
    @pytest.mark.parametrize("xv,R", DP_SIGNATURES)
    def test_reachable_set_is_complete(self, xv, R):
        # every k-tuple lands on exactly one stored r, and none is stored idly
        c = build_cache(xv, R)
        covered = 0
        for r_t, cnt in c.entries.items():
            kp, km = signed_count_oracle(xv, r_t, R)
            assert kp + km > 0
            assert kp - km == cnt
            covered += kp + km
        assert covered == compositions_cum(R, len(xv[0]))

    @pytest.mark.parametrize("xv,R", DP_SIGNATURES)
    def test_final_shell_matches_oracle(self, xv, R):
        c = build_cache(xv, R)
        if R == 0:
            assert c.final_shell == c.entries == {(0,) * len(xv): 1}
            return
        below = build_cache(xv, R - 1)
        for r_t, cnt in c.final_shell.items():
            kp, km = signed_count_oracle(xv, r_t, R)
            assert cnt != 0
            assert cnt == (kp - km) - below.entries.get(r_t, 0)
        shell_total = sum(c.final_shell.values())
        assert shell_total == (-1) ** R * compositions_count(R, len(xv[0]))

    @pytest.mark.parametrize("xv,R", [sig for sig in DP_SIGNATURES if sig[1] > 0])
    def test_sub_cache_equals_direct_build(self, xv, R):
        assert_companion_matches_direct_build(xv, R)

    def test_large_case_meets_closed_form_identities(self):
        # C(48, 8) ~ 3.8e8 k-tuples, far beyond enumeration
        xv = ((1, 2, 3, 1, 2, 3, 2, 1),)
        R, M = 40, 8
        c = build_cache(xv, R)
        assert sum(c.entries.values()) == sum(
            (-1) ** s * compositions_count(s, M) for s in range(R + 1)
        )
        assert sum(c.final_shell.values()) == (-1) ** R * compositions_count(R, M)
        assert min(r for (r,) in c.final_shell) == R
        assert max(r for (r,) in c.entries) == 3 * R

    def test_all_ones_beyond_enumeration(self):
        # C(108, 8) ~ 3.5e11 k-tuples, but only 101 states per column
        M, R = 8, 100
        c = build_cache(((1,) * M,), R)
        assert len(c.entries) == R + 1
        for r in range(R + 1):
            assert c.entries[(r,)] == (-1) ** r * compositions_count(r, M)
        assert sum(c.entries.values()) == sum(
            (-1) ** s * compositions_count(s, M) for s in range(R + 1)
        )
        assert c.final_shell == {(R,): compositions_count(R, M)}
        assert c.prev_shell == {(R - 1,): -compositions_count(R - 1, M)}

    def test_i64_guard(self):
        # C(80, 40) ~ 1.1e23, C(240, 40) ~ 6.3e45 and C(224, 24) ~ 3.4e31
        # all exceed 2**63 - 1, while every state count stays far below the cap
        for M, R in ((40, 40), (40, 200), (24, 200)):
            with pytest.raises(BudgetError, match="i64"):
                build_cache(((1,) * M,), R)


@st.composite
def signature_lists(draw):
    """Signatures of one P and mixed M, some repeated, with covariates either
    small or large enough that no packed int64 key holds a state."""
    P = draw(st.integers(1, 3))
    value = st.integers(0, 2**40 if draw(st.booleans()) else 3)
    column = st.lists(value, min_size=P, max_size=P).filter(any)
    sigs = [tuple(zip(*draw(st.lists(column, min_size=M, max_size=M))))
            for M in draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))]
    return draw(st.permutations(sigs + draw(st.lists(st.sampled_from(sigs), max_size=3))))


class TestBatchedBuild:
    @given(signature_lists(), st.sampled_from([0, 1, 2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_one_at_a_time_and_the_oracle(self, sigs, R):
        batch = build_caches(sigs, R)
        assert [c.x_vectors for c in batch] == sigs
        for xv, cache in zip(sigs, batch):
            single = build_cache(xv, R)
            assert cache.R == R
            assert cache.records.dtype == single.records.dtype
            assert np.array_equal(cache.records, single.records)
            covered = 0
            for r_t, cnt in cache.entries.items():
                kp, km = signed_count_oracle(xv, r_t, R)
                assert kp - km == cnt
                covered += kp + km
            assert covered == compositions_cum(R, len(xv[0]))

    def test_refusal_names_the_first_refused_signature(self, monkeypatch):
        # at R=6 under a cap of 20 states, x = (1, 2) needs 28 in column 2 of
        # 2 and x = (1, 2, 3) 28 in column 2 of 3, x = (1, 1) fits, and
        # C(4406, 6) k-tuples leave the int64 range
        monkeypatch.setattr(diophantine, "MAX_STATES", 20)
        sigs = [((1, 1),), ((1, 2),), ((1, 2, 3),), ((1,) * 4400,)]
        for order in itertools.permutations(sigs + [((1, 1),)]):
            with pytest.raises(BudgetError) as batch:
                build_caches(order, 6)
            for xv in order:
                try:
                    build_cache(xv, 6)
                except BudgetError as e:
                    assert str(batch.value) == str(e)
                    break
            else:
                raise AssertionError("no signature was refused")
        # three x = (1, 1) hold 21 states in their first column: the batch is
        # over the cap, each signature is not, so each is built on its own
        assert [c.x_vectors for c in build_caches(sigs[:1] * 3, 6)] == sigs[:1] * 3

    def test_a_batch_of_three_at_21_states_is_split_under_the_cap(self):
        # three x = (1, 1) at R=6 hold 7 states each; under a cap of 20 they
        # go in batches of two and one, and none is refused
        sigs = [((1, 1),)] * 3
        refused, sizes = refused_batches(sigs, 6)
        assert sizes == [2, 1] and not refused

    @given(signature_lists(), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_only_a_lone_signature_meets_the_state_guard(self, sigs, R):
        refused, _ = refused_batches(sigs, R)
        assert all(n == 1 for n in refused)

    def test_state_bounds_of_the_benchmark_signatures(self):
        # P=2, M=2 on {1, 2, 3} at R=40: every shell's s+1 compositions are
        # apart; P=1, M=3 spanning 2 at R=100: the r range 2s+1 binds
        assert state_bound(((1, 3), (2, 1)), 40) == 861
        assert state_bound(((1, 2, 3),), 100) == 10201
        assert state_bound(((2, 2, 2),), 100) == 101

    @given(st.lists(st.tuples(st.integers(1, 2), st.integers(1, 4)), min_size=1, max_size=6)
           .flatmap(lambda shapes: st.tuples(*[
               st.lists(st.lists(st.integers(0, 3), min_size=P, max_size=P).filter(any),
                        min_size=M, max_size=M).map(lambda cols: tuple(zip(*cols)))
               for P, M in shapes])),
           st.integers(0, 6), st.sampled_from([1, 20, 60]))
    @settings(max_examples=60, deadline=None)
    def test_state_bound_holds_and_caps_each_batch(self, sigs, R, cap):
        columns, batches = [], []
        check, build = diophantine._check_states, diophantine._build_batch
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diophantine, "_check_states",
                       lambda total, *a: columns.append(total) or check(total, *a))
            for xv in sigs:  # one at a time, so a column's states are one signature's
                columns.clear()
                build_cache(xv, R)
                assert len(columns) == len(xv[0])
                assert max(columns) <= state_bound(xv, R)
                assert diophantine._state_bounds(np.array([xv]), R).tolist() == [
                    state_bound(xv, R)
                ]
            mp.setattr(diophantine, "BATCH_STATES", cap)
            mp.setattr(diophantine, "_build_batch",
                       lambda X, xvs, R: batches.append(list(xvs)) or build(X, xvs, R))
            build_caches(sigs, R)
        assert sorted(xv for batch in batches for xv in batch) == sorted(sigs)
        for batch in batches:
            assert len(batch) == 1 or sum(state_bound(xv, R) for xv in batch) <= cap

    def test_batching_leaves_no_trace_in_the_files(self, monkeypatch, tmp_path):
        # at R=4 the bounds are 5 for (1, 1), (1, 1, 1) and ((1, 1), (2, 2)),
        # 15 for (1, 2), (2, 3) and ((2, 1), (1, 3)), and 25 for (1, 2, 3):
        # under a cap of 20, (1, 2, 3) goes alone and so, after it, does (1, 1, 1)
        sigs = [((1, 1),), ((1, 2, 3),), ((1, 2),), ((2, 1), (1, 3)), ((2, 3),),
                ((1, 1, 1),), ((1, 1),), ((1, 1), (2, 2))]
        monkeypatch.setattr(diophantine, "BATCH_STATES", 20)
        batches = []
        build = diophantine._build_batch
        monkeypatch.setattr(diophantine, "_build_batch",
                            lambda X, xvs, R: batches.append(list(xvs)) or build(X, xvs, R))
        batched = build_caches(sigs, 4)
        assert batches == [[((1, 1),), ((1, 2),)], [((2, 3),), ((1, 1),)], [((1, 2, 3),)],
                           [((1, 1, 1),)], [((2, 1), (1, 3)), ((1, 1), (2, 2))]]
        for k, (xv, cache) in enumerate(zip(sigs, batched)):
            save_cache(cache, str(tmp_path / f"batched{k}.bin"))
            save_cache(build_cache(xv, 4), str(tmp_path / f"single{k}.bin"))
            assert ((tmp_path / f"batched{k}.bin").read_bytes()
                    == (tmp_path / f"single{k}.bin").read_bytes())

    @pytest.mark.parametrize("bad", [
        (), ((),), ((1, 2), (1,)), ((1, -2),), ((0, 1), (0, 2)), ((0, -1), (0, 2)),
    ], ids=["empty", "no-columns", "ragged", "negative", "unobserved", "negative-first"])
    def test_a_bad_signature_raises_the_one_signature_message(self, bad):
        with pytest.raises(ValueError) as one:
            diophantine._check_x_vectors(bad)
        good = [((1, 2),), ((1, 1), (2, 3)), ((1, 2, 3),)]
        for k in range(len(good) + 1):
            with pytest.raises(ValueError) as batch:
                build_caches(good[:k] + [bad] + good[k:], 3)
            assert str(batch.value) == str(one.value)

    def test_the_first_bad_signature_in_order_is_named(self):
        bad = [((1, 2), (1,)), ((1, -2),), ((0, 1), (0, 2)), ()]
        for order in itertools.permutations(bad):
            with pytest.raises(ValueError) as one:
                diophantine._check_x_vectors(order[0])
            with pytest.raises(ValueError) as batch:
                build_caches([((1, 2),), *order], 3)
            assert str(batch.value) == str(one.value)


def refused_batches(sigs, R: int) -> tuple[list[int], list[int]]:
    """``build_caches(sigs, R)`` under ``MAX_STATES`` = 20: the sizes of the
    batches that raised BudgetError, and of every batch built."""
    refused, sizes = [], []
    build = diophantine._build_batch

    def spy(X, xvs, R):
        sizes.append(len(xvs))
        try:
            return build(X, xvs, R)
        except BudgetError:
            refused.append(len(xvs))
            raise

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diophantine, "MAX_STATES", 20)
        mp.setattr(diophantine, "_build_batch", spy)
        try:
            build_caches(sigs, R)
        except BudgetError:
            assert refused  # the budgets here keep every count within int64
    return refused, sizes


def state_bound(xv, R: int) -> int:
    """The DP's state bound for one signature, summed shell by shell."""
    M = len(xv[0])
    return sum(min(compositions_count(s, M),
                   math.prod(s * (max(row) - min(row)) + 1 for row in xv))
               for s in range(R + 1))


@st.composite
def keys_below_a_size(draw):
    """A size of one to four 16-bit digits, past the lookup table's 1024
    cells, and keys below it, size - 1 among them."""
    digits = draw(st.integers(1, 4))
    low, high = max(1025, 2 ** (16 * (digits - 1)) + 1), min(2 ** (16 * digits), 2**63)
    size = draw(st.integers(low, high))
    keys = draw(st.lists(st.one_of(st.integers(0, size - 1), st.integers(0, 40)),
                         max_size=60))
    return size, np.array(draw(st.permutations(keys + [size - 1])), dtype=np.int64)


def random_signatures(rng, P: int, count: int) -> list:
    """``count`` signatures of P attributes and one to three observations, on 0..3."""
    sigs = []
    while len(sigs) < count:
        x = rng.integers(0, 4, size=(P, int(rng.integers(1, 4))))
        if x.any(axis=0).all():
            sigs.append(tuple(map(tuple, x.tolist())))
    return sigs


class TestGroupingRoutes:
    """Sparse groupings are put in order by a radix order over 16-bit digits;
    dense ones are read off a lookup table.  Both give np.unique's answer."""

    @given(keys_below_a_size())
    @example((2**16 - 1, np.array([0, 2**16 - 2, 5, 5, 2**16 - 2], dtype=np.int64)))
    @example((2**16, np.array([2**16 - 1, 0, 2**16 - 1, 1], dtype=np.int64)))
    @example((2**16 + 1, np.array([2**16, 2**16 - 1, 0, 2**16], dtype=np.int64)))
    @example((2**32, np.array([2**32 - 1, 2**16, 2**16 - 1, 7, 2**32 - 1], dtype=np.int64)))
    @example((2**32, np.array([], dtype=np.int64)))
    @settings(max_examples=200, deadline=None)
    def test_the_sort_route_gives_np_unique(self, size_keys):
        size, keys = size_keys
        order = diophantine._radix_order(keys, size)
        assert np.array_equal(order, np.argsort(keys, kind="stable"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diophantine, "MAX_BOX_PER_ROW", 0)
            mp.setattr(diophantine, "_radix_order", lambda keys, size: order)
            distinct, index = diophantine._distinct(keys.copy(), size, len(keys))
        want, want_index = np.unique(keys, return_inverse=True)
        assert distinct.dtype == np.int64 and np.array_equal(distinct, want)
        assert index.dtype == np.intp and np.array_equal(index, want_index.ravel())

    @pytest.mark.parametrize("P,R", [(1, 60), (2, 12), (3, 6)])
    def test_both_routes_build_the_same_records(self, monkeypatch, P, R):
        sigs = random_signatures(np.random.default_rng(P), P, 12)
        sorts = []
        order = diophantine._radix_order
        monkeypatch.setattr(diophantine, "_radix_order",
                            lambda keys, size: sorts.append(size) or order(keys, size))
        built = {}
        for cap in (0, 2**40):  # every grouping sorts; every grouping reads a table
            monkeypatch.setattr(diophantine, "MAX_BOX_PER_ROW", cap)
            sorts.clear()
            built[cap] = build_caches(sigs, R)
            assert bool(sorts) == (cap == 0)
        for sorted_, tabled, xv in zip(built[0], built[2**40], sigs):
            assert sorted_.records.shape == tabled.records.shape
            assert sorted_.records.tobytes() == tabled.records.tobytes()
            assert sorted_.x_vectors == xv


class TestSharedBlocks:
    """A batch's caches are read-only views of one record block, and their
    shell counts are read at the ends of the DP's last chains."""

    SIGS = [((1, 2), (2, 1)), ((1, 3), (2, 2)), ((2, 3), (1, 1)), ((1, 1), (3, 3))]

    def test_a_batch_is_views_of_one_read_only_block(self):
        # the saved bytes of batched caches are checked in TestBatchedBuild
        batch = build_caches(self.SIGS, 6)
        block = batch[0].records.base
        assert block is not None and not block.flags.writeable
        for xv, cache in zip(self.SIGS, batch):
            assert cache.records.base is block and np.shares_memory(block, cache.records)
            with pytest.raises(ValueError):
                cache.records.flags.writeable = True
            assert cache == build_cache(xv, 6)
            # a read-only block is kept as it is
            assert DioCache(xv, 6, cache.records).records is cache.records
        # neighbours' rows follow each other in the block
        for a, b in zip(batch, batch[1:]):
            end = a.records.__array_interface__["data"][0] + a.records.nbytes
            assert b.records.__array_interface__["data"][0] == end
        assert sum(len(c.records) for c in batch) == len(block)

    @pytest.mark.parametrize("xv", [((2,),), ((1, 2, 2),), ((1, 2, 3), (2, 0, 1))],
                             ids=["M1", "M3", "M3-P2"])
    @pytest.mark.parametrize("R", [0, 1, 2])
    def test_shells_are_differences_of_the_oracle(self, xv, R):
        c = build_cache(xv, R)

        def signed(r_t, budget):
            if budget < 0:
                return 0
            kp, km = signed_count_oracle(xv, r_t, budget)
            return kp - km

        rows = list(c.entries)
        final = {r: signed(r, R) - signed(r, R - 1) for r in rows}
        prev = {r: signed(r, R - 1) - signed(r, R - 2) for r in rows}
        assert c.final_shell == {r: v for r, v in final.items() if v}
        assert c.prev_shell == {r: v for r, v in prev.items() if v}

    def test_a_chain_of_one_state_has_no_previous_shell(self):
        # x = (1, 2) at R = 1: the last column's chain through (s, r) = (1, 1)
        # starts at shell R, after the chain (0, 0), (1, 2)
        *_, length = diophantine._shell_states(np.array([((1, 2),)]), 1)
        assert sorted(length.tolist()) == [1, 2]
        c = build_cache(((1, 2),), 1)
        assert c.final_shell == {(1,): -1, (2,): -1}
        assert c.prev_shell == {(0,): 1}
        # a chain of one state at R = 0, in the first column and past it
        for xv in (((3,),), ((1, 2),)):
            assert not build_cache(xv, 0).prev_shell


class TestCanonicalSignatures:
    @given(st.integers(1, 3).flatmap(lambda P: st.lists(
        st.tuples(*[st.integers(0, 3)] * P).filter(any), min_size=1, max_size=4
    )), st.randoms(use_true_random=False), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_relabelled_build_equals_direct_build(self, tmp_path_factory, cols, rnd, R):
        # permuting the observation columns changes neither the key nor the
        # counts: a relabelled build of the canonical signature saves the
        # same bytes as a build of the permuted one
        xv = tuple(zip(*cols))
        shuffled = list(cols)
        rnd.shuffle(shuffled)
        perm = tuple(zip(*shuffled))
        canon = canonical_x_vectors(xv)
        assert canonical_x_vectors(perm) == canon
        assert sorted(zip(*canon)) == list(zip(*canon)) == sorted(cols)
        tmp = tmp_path_factory.mktemp("relabel")
        save_cache(build_cache(canon, R).relabel(perm), str(tmp / "a.bin"))
        save_cache(build_cache(perm, R), str(tmp / "b.bin"))
        assert (tmp / "a.bin").read_bytes() == (tmp / "b.bin").read_bytes()

    def test_relabel_rejects_a_non_permutation(self):
        c = build_cache(((1, 2, 2), (0, 1, 3)), 5)
        assert c.relabel([[2, 1, 2], [1, 0, 3]]).x_vectors == ((2, 1, 2), (1, 0, 3))
        assert c.relabel(c.x_vectors) is c
        for bad in (
            ((1, 2, 3), (0, 1, 2)),   # other values
            ((2, 1, 2), (1, 3, 0)),   # each attribute permuted on its own
            ((1, 2), (0, 1)),         # a column dropped
            ((1, 2, 2),),             # an attribute dropped
            ((1, 2, 2, 1), (0, 1, 3, 0)),
        ):
            with pytest.raises(ValueError, match="not a column permutation"):
                c.relabel(bad)


class TestPersistence:
    def make(self):
        return build_cache(((1, 2), (2, 1)), 5)

    def test_round_trip(self, tmp_path):
        c = self.make()
        p = tmp_path / "c.bin"
        save_cache(c, str(p))
        c2 = load_cache(str(p), expect_x_vectors=c.x_vectors)
        assert c2.entries == c.entries
        assert np.array_equal(c2.count_array, c.count_array)
        assert c2.R == c.R
        assert c2.x_vectors == c.x_vectors
        assert c2 == c

    @pytest.mark.parametrize("error", [OSError(errno.ENOSPC, "No space left on device"),
                                       KeyboardInterrupt()], ids=["disk-full", "interrupt"])
    def test_failed_write_leaves_no_file_behind(self, tmp_path, monkeypatch, error):
        good = tmp_path / "good.bin"
        save_cache(self.make(), str(good))
        before = good.read_bytes()

        class FailingFile:  # fails on its second write, after the header
            def __init__(self, f):
                self.f, self.writes = f, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 2:
                    raise error
                return self.f.write(data)

        monkeypatch.setattr(diophantine, "open", lambda *a: FailingFile(open(*a)), raising=False)
        other = build_cache(((1, 2), (2, 1)), 4)
        for target in (good, tmp_path / "new.bin"):
            with pytest.raises(type(error)):
                save_cache(other, str(target))
        assert good.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["good.bin"]
        monkeypatch.undo()
        save_cache(other, str(tmp_path / "new.bin"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["good.bin", "new.bin"]
        assert load_cache(str(tmp_path / "new.bin")) == other

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "c.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CacheFileError, match="magic"):
            load_cache(str(p))

    @pytest.mark.parametrize("keep", [0, 2, 4, 20, 33])
    def test_file_cut_inside_the_header_is_truncated(self, tmp_path, keep):
        p = tmp_path / "c.bin"
        save_cache(self.make(), str(p))
        p.write_bytes(p.read_bytes()[:keep])
        with pytest.raises(CacheFileError, match=rf"truncated file \({keep} bytes"):
            load_cache(str(p))

    def test_short_file_of_other_bytes_has_bad_magic(self, tmp_path):
        p = tmp_path / "c.bin"
        p.write_bytes(b"DX")
        with pytest.raises(CacheFileError, match="bad magic"):
            load_cache(str(p))

    @pytest.mark.parametrize("change", [-10, 8], ids=["truncated", "extra-bytes"])
    def test_file_of_the_wrong_length(self, tmp_path, change):
        p = tmp_path / "c.bin"
        save_cache(self.make(), str(p))
        data = p.read_bytes()
        p.write_bytes(data[:change] if change < 0 else data + b"\x00" * change)
        message = (f"truncated file ({len(data) + change} bytes" if change < 0 else
                   f"{change} extra bytes after the checksum ({len(data) + change} bytes, "
                   f"expected {len(data)})")
        with pytest.raises(CacheFileError, match=re.escape(message)):
            load_cache(str(p))

    # the first and last byte of the record body, which load_cache checksums
    # in place, and the stored CRC after it
    @pytest.mark.parametrize("where", ["first body byte", "last body byte", "stored CRC"])
    def test_corrupted_body_fails_checksum(self, tmp_path, where):
        c = self.make()
        p = tmp_path / "c.bin"
        save_cache(c, str(p))
        data = bytearray(p.read_bytes())
        body_at = 34 + 8 * c.P * c.M
        assert len(data) == body_at + c.records.nbytes + 4
        at = {"first body byte": body_at, "last body byte": -5, "stored CRC": -1}[where]
        data[at] ^= 0xFF
        p.write_bytes(bytes(data))
        with pytest.raises(CacheFileError, match="checksum failure"):
            load_cache(str(p))

    def test_wrong_version(self, tmp_path):
        c = self.make()
        p = tmp_path / "c.bin"
        save_cache(c, str(p))
        data = bytearray(p.read_bytes())
        data[4] = CACHE_FORMAT_VERSION + 1
        p.write_bytes(bytes(data))
        with pytest.raises(CacheFileError, match="version"):
            load_cache(str(p))

    def write_old_format(self, path, version):
        # v1 records are (r-tuple, count) and v2 records add the final-shell
        # count; v1 would silently give the raw partial sum instead of the
        # mean, and v2 lacks the shell-(R-1) column of the parity companion.
        # v1 to v3 headers hold the k-tuple count C(R+M, M) before the
        # record count.
        c = self.make()
        header = b"DIOC" + struct.pack(
            "<HIIIQQQ", version, c.M, c.P, c.R, c.x_hash, math.comb(c.R + c.M, c.M),
            len(c.records),
        )
        xdata = struct.pack(f"<{c.P * c.M}q", *(v for vec in c.x_vectors for v in vec))
        body = c.records[:, :c.P + version].astype("<i8").tobytes()
        path.write_bytes(header + xdata + body + struct.pack("<I", zlib.crc32(body)))

    def test_v1_file_rejected(self, tmp_path):
        p = tmp_path / "c.bin"
        self.write_old_format(p, 1)
        with pytest.raises(CacheFileError, match="version"):
            load_cache(str(p))

    def test_v2_file_rejected(self, tmp_path):
        p = tmp_path / "c.bin"
        self.write_old_format(p, 2)
        with pytest.raises(CacheFileError, match="format version 2, expected 4"):
            load_cache(str(p))

    def test_v3_file_rejected(self, tmp_path):
        # v3 records are today's; only the header's k-tuple count is gone
        p = tmp_path / "c.bin"
        self.write_old_format(p, 3)
        with pytest.raises(CacheFileError, match="format version 3, expected 4"):
            load_cache(str(p))

    def test_signature_mismatch(self, tmp_path):
        c = self.make()
        p = tmp_path / "c.bin"
        save_cache(c, str(p))
        with pytest.raises(CacheFileError, match="different x_vectors"):
            load_cache(str(p), expect_x_vectors=((9, 9), (9, 9)))

    @pytest.mark.parametrize("damage", ["header hash", "stored x_vectors"])
    def test_hash_mismatch_rejected_with_expected_hash(self, tmp_path, damage):
        # a caller-supplied hash of the expected x_vectors still catches a
        # header hash that disagrees with the file's x_vectors
        c = self.make()
        p = tmp_path / "c.bin"
        save_cache(c, str(p))
        data = bytearray(p.read_bytes())
        data[18 if damage == "header hash" else 34] ^= 0x01  # hash at 18, x_vectors at 34
        p.write_bytes(bytes(data))
        with pytest.raises(CacheFileError, match="hash mismatch"):
            load_cache(str(p), expect_x_vectors=c.x_vectors, expect_hash=c.x_hash)

    def test_hash_is_stable_and_discriminating(self):
        a = fnv1a_x_vectors(((1, 2), (2, 1)))
        assert a == fnv1a_x_vectors(((1, 2), (2, 1)))
        assert a != fnv1a_x_vectors(((2, 1), (1, 2)))


def fnv1a_bytewise(x_vectors) -> int:
    """64-bit FNV-1a over the packed bytes, one byte at a time: the
    reference that the word-at-a-time hash must match."""
    data = struct.pack("<II", len(x_vectors), len(x_vectors[0]) if x_vectors else 0)
    for vec in x_vectors:
        data += struct.pack(f"<{len(vec)}q", *vec)
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) % 2**64
    return h


# words below 256 take the hash's one-multiply path; the rest go byte by byte
WORDS = st.one_of(st.integers(0, 255), st.integers(256, 2**40), st.integers(-300, -1),
                  st.sampled_from([-2**63, 2**63 - 1]), st.integers(-2**63, 2**63 - 1))
SIGNATURES = st.integers(1, 4).flatmap(lambda P: st.integers(1, 12).flatmap(
    lambda M: st.tuples(*[st.tuples(*[WORDS] * M)] * P)))


class TestFnv1a:
    """``fnv1a_x_vectors`` names every cache file and sits in its header, so
    its value must never change."""

    @pytest.mark.parametrize("x_vectors,expected", [
        (((1, 2), (2, 3)), 0xd6b9c2c1fe004987),
        (((1, 2, 3),), 0xa3b8ebc76f646f77),
        ((), 0xa8c7f832281a39c5),
    ])
    def test_known_answers(self, x_vectors, expected):
        assert fnv1a_x_vectors(x_vectors) == fnv1a_bytewise(x_vectors) == expected

    @settings(max_examples=300, deadline=None)
    @given(SIGNATURES)
    @example((tuple(range(300)), (7,) * 300))  # M past 255 is hashed byte by byte
    def test_equals_the_bytewise_hash(self, x_vectors):
        assert fnv1a_x_vectors(x_vectors) == fnv1a_bytewise(x_vectors)

    @pytest.mark.parametrize("value", [2**63, -2**63 - 1, 2**64])
    def test_value_outside_int64_raises_struct_error(self, value):
        with pytest.raises(struct.error, match="argument out of range"):
            fnv1a_bytewise(((1, value),))
        with pytest.raises(struct.error, match="argument out of range"):
            fnv1a_x_vectors(((1, value),))


class TestRecordStore:
    """A cache is its read-only int64 record block; ``entries``, ``final_shell``
    and ``prev_shell`` are read-only dicts built from it."""

    XV = ((1, 2), (2, 1))

    def loaded(self, tmp_path, R=6):
        p = tmp_path / "c.bin"
        save_cache(build_cache(self.XV, R), str(p))
        return load_cache(str(p), expect_x_vectors=self.XV)

    def test_loaded_mappings_equal_the_dicts_of_a_fresh_build(self, tmp_path):
        c = self.loaded(tmp_path)
        built = build_cache(self.XV, 6)
        want = dict(built.entries.items())
        want_shell = dict(built.final_shell.items())
        assert c.entries == want and want == c.entries
        assert c.final_shell == want_shell and want_shell == c.final_shell
        assert c.entries == built.entries and c.final_shell == built.final_shell
        assert c.prev_shell == dict(built.prev_shell.items()) == build_cache(self.XV, 5).final_shell
        assert c == built
        for r_t, cnt in want.items():
            kp, km = signed_count_oracle(self.XV, r_t, 6)
            assert cnt == kp - km
        assert all(cnt != 0 for cnt in want_shell.values())
        assert c.entries != {**want, (0, 0): 2}

    def test_mappings_behave_like_dicts(self, tmp_path):
        c = self.loaded(tmp_path)
        want = dict(c.entries.items())
        assert len(c.entries) == len(want) == len(c.r_array) == len(c.records)
        assert len(c.final_shell) == np.count_nonzero(c.records[:, c.P + 1])
        assert len(c.prev_shell) == np.count_nonzero(c.records[:, c.P + 2])
        assert {**c.entries} == want
        assert list(c.entries) == [tuple(r) for r in c.r_array.tolist()]
        assert sorted(c.entries.items()) == sorted(want.items())
        assert sum(c.entries.values()) == sum(want.values())
        assert c.entries.get((0, 0)) == 1 and c.entries[(0, 0)] == 1
        assert c.entries.get((10**6, 0)) is None and (10**6, 0) not in c.entries
        assert c.final_shell.get((0, 0), 0) == 0
        with pytest.raises(KeyError):
            c.entries[(10**6, 0)]
        for mapping in (c.entries, c.final_shell, c.prev_shell):
            with pytest.raises(TypeError):
                mapping[(0, 0)] = 5
        assert all(type(k) is tuple and all(type(v) is int for v in k) for k in c.entries)
        assert all(type(v) is int for v in c.entries.values())

    def test_replaced_entries_are_saved(self, tmp_path):
        c = self.loaded(tmp_path)
        r, cnt = next((r, cnt) for r, cnt in sorted(c.entries.items()) if cnt)
        flipped = dataclasses.replace(c, entries={**c.entries, r: -cnt})
        p = tmp_path / "flipped.bin"
        save_cache(flipped, str(p))
        back = load_cache(str(p))
        assert back.entries[r] == -cnt
        assert back.entries == {**c.entries, r: -cnt}
        assert back.final_shell == c.final_shell
        assert back.prev_shell == c.prev_shell
        assert np.array_equal(back.r_array, c.r_array)
        moved = c.companion_array.copy()
        moved[list(c.entries).index(r)] -= 2 * cnt
        assert np.array_equal(back.companion_array, moved)
        assert back != c
        # the replacement must key exactly the cache's r-tuples
        with pytest.raises(ValueError, match="r-tuples"):
            dataclasses.replace(c, entries={**c.entries, (10**6, 0): 1})
        with pytest.raises(ValueError, match="r-tuples"):
            dataclasses.replace(c, entries={k: v for k, v in c.entries.items() if k != r})

    def test_weights_are_folds_of_the_shell_counts(self, tmp_path):
        # the Euler-mean weights at R and R - 1, row by row from the mappings
        for c in (build_cache(self.XV, 6), self.loaded(tmp_path)):
            rows = [tuple(r) for r in c.r_array.tolist()]
            raw = np.array([c.entries[r] for r in rows])
            last = np.array([c.final_shell.get(r, 0) for r in rows])
            prev = np.array([c.prev_shell.get(r, 0) for r in rows])
            assert np.array_equal(c.count_array, raw - 0.5 * last)
            assert np.array_equal(c.companion_array, (raw - last) - 0.5 * prev)
            assert np.array_equal(c.r_array, c.records[:, :c.P])
            assert np.array_equal(c.records[:, c.P:], np.column_stack((raw, last, prev)))

    @given(st.integers(1, 3).flatmap(lambda P: st.lists(
        st.tuples(*[st.integers(0, 3)] * P).filter(any), min_size=1, max_size=3
    )), st.integers(0, 5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_equality_and_read_only_records(self, tmp_path_factory, cols, R, data):
        xv = tuple(zip(*cols))
        c = build_cache(xv, R)
        p = tmp_path_factory.mktemp("eq") / "c.bin"
        save_cache(c, str(p))
        loaded = load_cache(str(p))
        assert loaded == c == DioCache(xv, R, c.records.copy())
        assert c != xv
        for cache in (c, loaded):
            assert not cache.records.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                cache.records[0, -3] += 1
        # a writable block is copied, so writing to it leaves the cache as it was
        mine = c.records.copy()
        own = DioCache(xv, R, mine)
        assert not np.shares_memory(own.records, mine)
        mine[0, -3] += 1
        assert own == c and not own.records.flags.writeable
        wide = np.hstack([c.records, c.records[:, :1]])
        for bad in (c.records[:, :-1], wide, c.records[0], c.records.astype(np.int32),
                    c.records.astype(np.float64)):
            with pytest.raises(ValueError, match="int64"):
                DioCache(xv, R, bad)
        # one count of one row changed
        row = data.draw(st.integers(0, len(c.records) - 1))
        col = data.draw(st.integers(c.P, c.P + 2))
        changed = c.records.copy()
        changed[row, col] += data.draw(st.sampled_from([-1, 1]))
        assert DioCache(xv, R, changed) != c and c != DioCache(xv, R, changed)
        assert dataclasses.replace(c, R=R + 1) != c
        # the same records under another order of the observation columns
        order = data.draw(st.permutations(range(c.M)))
        perm = tuple(tuple(vec[m] for m in order) for vec in xv)
        relabelled = c.relabel(perm)
        assert relabelled.records is c.records
        assert (relabelled == c) == (perm == xv)

    def test_load_and_count_matrix_allocate_no_object_per_rtuple(self, tmp_path):
        xv = ((1, 2, 3), (3, 1, 2))
        p = tmp_path / "big.bin"
        save_cache(build_cache(xv, 60), str(p))
        groups = [(HouseholdSums((1, 2), xv), 3), (HouseholdSums((4, 0), xv), 1)]

        def load_and_assemble():
            cache = load_cache(str(p), expect_x_vectors=xv)
            return cache, CountMatrix.build(groups, {xv: cache}, 0.01)

        load_and_assemble()  # first-call work inside numpy and scipy
        gc.collect()
        before = sys.getallocatedblocks()
        cache, counts = load_and_assemble()
        grown = sys.getallocatedblocks() - before
        assert len(cache.entries) > 10**4
        assert counts.C.nnz == 2 * len(cache.entries)
        assert grown < 1000, f"{grown} blocks for {len(cache.entries)} r-tuples"


class TestTailBounds:
    def test_dyadic_requires_threshold(self):
        weak = TailBoundInput(R=10, M=2, eps=0.1, delta=1.0, P=1)
        assert tail_bound(weak).dyadic is None
        strong = TailBoundInput(R=10, M=2, eps=1.0, delta=2.0, P=1)
        tb = tail_bound(strong)
        assert isinstance(tb, TailBound)
        assert tb.dyadic is not None and tb.dyadic > 0
        assert tb.applicable

    def test_direct_tail_below_dyadic_bound(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 20:
            R = int(rng.integers(3, 30))
            M = int(rng.integers(1, 8))
            eps = float(rng.uniform(0.3, 2.0))
            delta = float(rng.uniform(1.0, 3.0))
            P = int(rng.integers(1, 4))
            if eps * delta * P <= 2 * math.log(2) + 1e-9:
                continue
            inp = TailBoundInput(R, M, eps, delta, P)
            assert tail_sum_direct(inp) <= tail_bound(inp).dyadic
            checked += 1

    def test_direct_tail_geometric_closed_form(self):
        # M = 1: the tail is a plain geometric series.
        inp = TailBoundInput(R=5, M=1, eps=1.0, delta=1.5, P=1)
        a = 1.5
        expected = math.exp(-a * 6) / (1 - math.exp(-a))
        assert tail_sum_direct(inp) == pytest.approx(expected, rel=1e-12)

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            TailBoundInput(R=-1, M=1, eps=1.0, delta=1.0, P=1)
        with pytest.raises(ValueError):
            TailBoundInput(R=1, M=1, eps=1.0, delta=0.5, P=1)
