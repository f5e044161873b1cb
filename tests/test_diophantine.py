import dataclasses
import gc
import math
import struct
import sys
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conjlogit import diophantine
from conjlogit.diophantine import (
    BudgetError,
    CACHE_FORMAT_VERSION,
    CacheFileError,
    DioCache,
    TailBound,
    TailBoundInput,
    build_cache,
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

    def test_truncated_file(self, tmp_path):
        c = self.make()
        p = tmp_path / "c.bin"
        save_cache(c, str(p))
        data = p.read_bytes()
        p.write_bytes(data[:-10])
        with pytest.raises(CacheFileError, match="truncated"):
            load_cache(str(p))

    def test_corrupted_body_fails_checksum(self, tmp_path):
        c = self.make()
        p = tmp_path / "c.bin"
        save_cache(c, str(p))
        data = bytearray(p.read_bytes())
        data[-12] ^= 0xFF  # flip a byte inside the record body
        p.write_bytes(bytes(data))
        with pytest.raises(CacheFileError):
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
            len(c.entries),
        )
        xdata = struct.pack(f"<{c.P * c.M}q", *(v for vec in c.x_vectors for v in vec))
        body = np.column_stack(c.columns()[:version + 1]).astype("<i8").tobytes()
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


class TestCountViews:
    """``entries`` and ``final_shell`` are read-only mappings over the int64 columns."""

    XV = ((1, 2), (2, 1))

    def loaded(self, tmp_path, R=6):
        p = tmp_path / "c.bin"
        save_cache(build_cache(self.XV, R), str(p))
        return load_cache(str(p), expect_x_vectors=self.XV)

    def test_loaded_views_equal_the_dicts_of_a_fresh_build(self, tmp_path):
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

    def test_views_behave_like_dicts(self, tmp_path):
        c = self.loaded(tmp_path)
        want = dict(c.entries.items())
        assert len(c.entries) == len(want) == len(c.r_array)
        assert len(c.final_shell) == np.count_nonzero(c.columns()[2])
        assert {**c.entries} == want
        assert list(c.entries) == [tuple(r) for r in c.r_array.tolist()]
        assert sorted(c.entries.items()) == sorted(want.items())
        assert sum(c.entries.values()) == sum(want.values())
        assert c.entries.get((0, 0)) == 1 and c.entries[(0, 0)] == 1
        assert c.entries.get((10**6, 0)) is None and (10**6, 0) not in c.entries
        assert c.final_shell.get((0, 0), 0) == 0
        with pytest.raises(KeyError):
            c.entries[(10**6, 0)]
        with pytest.raises(TypeError):
            c.entries[(0, 0)] = 5
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

    @pytest.mark.parametrize("field", ["entries", "final_shell", "prev_shell"])
    @pytest.mark.parametrize("count", [2**63, -(2**63) - 1])
    def test_count_beyond_i64_fails_on_save(self, tmp_path, field, count):
        c = build_cache(self.XV, 6)
        big = dataclasses.replace(c, **{field: {**getattr(c, field), (0, 0): count}})
        with pytest.raises(CacheFileError, match="i64"):
            save_cache(big, str(tmp_path / "big.bin"))

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
