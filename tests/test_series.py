import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conjlogit.data_model import (
    ArnoldStrauss,
    CheriyanRamabhadran,
    Dataset,
    Freund,
    GammaMixture,
    GeneralizedMVGamma,
    Household,
    IndependentGamma,
    Observation,
    PointMassGamma,
    SpecError,
)
from conjlogit import diophantine
from conjlogit.diophantine import build_cache, build_caches, canonical_x_vectors
from conjlogit.gamma_kernels import log_mgf
from conjlogit.series import (
    CountMatrix,
    HouseholdSums,
    SeriesConfig,
    TruncationFailure,
    group_h,
    group_households,
    group_spread,
    h_naive,
    log_marginal,
    log_marginal_prepared,
    prepare_dataset,
)

UNIT_PRIOR = IndependentGamma((1.0,), (1.0,))


def single_obs(y):
    return Household(id=f"y{y}", observations=(Observation(y, (1,)),))


def one_group(sums, R, x_scale=1.0):
    """A prepared dataset whose one group is ``sums``, with a budget-R cache."""
    d = Dataset((), P=len(sums.Y), x_scale=x_scale)
    return prepare_dataset(d, SeriesConfig(R), groups=({sums: 1}, [0]))


def cache_h(sums, cache, spec, x_scale):
    """H of one group straight from its cache, without the count matrix."""
    return cache.count_array @ np.exp(log_mgf(spec, -x_scale * (cache.r_array + sums.Y)))


class TestAnalyticValues:
    def test_y0_converges_to_log2(self):
        # sum (-1)^k / (1+k) -> ln 2; alternating truncation error < 1/(R+2)
        ev = h_naive(single_obs(0), UNIT_PRIOR, SeriesConfig(R=2000))
        assert abs(ev.value - math.log(2.0)) < 1 / 2002

    def test_y1_converges_to_one_minus_log2(self):
        # sum (-1)^k / (2+k) -> 1 - ln 2; alternating truncation error < 1/(R+3)
        ev = h_naive(single_obs(1), UNIT_PRIOR, SeriesConfig(R=2000))
        assert abs(ev.value - (1.0 - math.log(2.0))) < 1 / 2003

    def test_truncation_error_alternating_bound(self):
        # |S - S_R| <= first omitted term for an alternating decreasing series
        for R in (10, 50, 100):
            ev = h_naive(single_obs(0), UNIT_PRIOR, SeriesConfig(R=R))
            assert abs(ev.value - math.log(2.0)) <= 1.0 / (R + 2)

    def test_term_count(self):
        ev = h_naive(single_obs(0), UNIT_PRIOR, SeriesConfig(R=10))
        assert ev.terms == 11


def random_instance(rng, max_M=4, max_R=12):
    P = int(rng.integers(1, 3))
    M = int(rng.integers(1, max_M + 1))
    R = int(rng.integers(0, max_R + 1))
    xv = tuple(tuple(int(v) for v in rng.integers(1, 4, size=M)) for _ in range(P))
    Y = tuple(int(v) for v in rng.integers(0, 4, size=P))
    b = tuple(float(v) for v in rng.uniform(0.3, 3.0, P))
    n = tuple(float(v) for v in rng.uniform(0.3, 3.0, P))
    return HouseholdSums(Y, xv), IndependentGamma(b, n), R


class TestGroupedNaiveEquivalence:
    def test_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            sums, spec, R = random_instance(rng)
            naive = h_naive(sums, spec, SeriesConfig(R=R), x_scale=0.2)
            (grouped,) = group_h(one_group(sums, R, 0.2), spec)
            assert grouped == pytest.approx(naive.value, rel=1e-12, abs=1e-300)

    def test_translated_prior(self):
        sums = HouseholdSums((2,), ((1, 2),))
        spec = IndependentGamma((2.0,), (3.0,), eps=0.05)
        naive = h_naive(sums, spec, SeriesConfig(R=9))
        (grouped,) = group_h(one_group(sums, 9), spec)
        assert grouped == pytest.approx(naive.value, rel=1e-12)


class TestParityDiagnostics:
    def test_naive_parity_spread(self):
        ev = h_naive(single_obs(0), UNIT_PRIOR, SeriesConfig(R=20))
        prev = h_naive(single_obs(0), UNIT_PRIOR, SeriesConfig(R=19))
        assert ev.parity_spread == pytest.approx(
            abs(ev.value - prev.value) / max(ev.value, prev.value), rel=1e-12
        )

    def test_grouped_spread_matches_naive_spread(self):
        sums = HouseholdSums((1,), ((1, 2),))
        cfg = SeriesConfig(R=10)
        ref = h_naive(sums, UNIT_PRIOR, cfg)
        h = Household("h", (Observation(1, (1,)), Observation(0, (2,))))
        prep = prepare_dataset(Dataset((h,), P=1), cfg)
        assert prep.groups == [(sums, 1)]
        (value,) = group_h(prep, UNIT_PRIOR)
        (spread,) = group_spread(prep, UNIT_PRIOR)
        assert value == pytest.approx(ref.value, rel=1e-12)
        assert spread == pytest.approx(ref.parity_spread, rel=1e-9)

    def test_spread_is_one_at_zero_budget(self):
        # the budget -1 mean is the empty sum, so the companion weights are 0
        d = tiny_dataset()
        assert (group_spread(prepare_dataset(d, SeriesConfig(R=0)), UNIT_PRIOR) == 1.0).all()
        sums = HouseholdSums((1,), ((1, 2),))
        assert group_spread(one_group(sums, 0), UNIT_PRIOR)[0] == 1.0
        assert h_naive(sums, UNIT_PRIOR, SeriesConfig(R=0)).parity_spread == 1.0

    def test_spread_contracts_with_budget(self):
        spreads = []
        for R in (50, 100, 200):
            spreads.append(h_naive(single_obs(0), UNIT_PRIOR, SeriesConfig(R=R)).parity_spread)
        assert spreads[0] > spreads[1] > spreads[2]


class TestMixtures:
    def test_degenerate_mixture_reduces(self):
        mix = GammaMixture(((1.0,),), ((2.0,),), ((3.0,),), eps=0.01)
        plain = IndependentGamma((2.0,), (3.0,), eps=0.01)
        prep = one_group(HouseholdSums((1,), ((1, 2),)), 8)
        assert group_h(prep, mix)[0] == pytest.approx(group_h(prep, plain)[0], rel=1e-14)

    def test_mixture_is_weighted_sum_for_single_attribute(self):
        # With P = 1 the marginal factor is linear in the mixture components.
        mix = GammaMixture(((0.3, 0.7),), ((1.0, 2.5),), ((2.0, 1.0),))
        parts = [IndependentGamma((1.0,), (2.0,)), IndependentGamma((2.5,), (1.0,))]
        prep = one_group(HouseholdSums((2,), ((1, 1, 2),)), 9)
        expected = 0.3 * group_h(prep, parts[0])[0] + 0.7 * group_h(prep, parts[1])[0]
        assert group_h(prep, mix)[0] == pytest.approx(expected, rel=1e-13)


class TestMgfRoute:
    def test_gmv_zero_loadings_match_gamma(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            sums, spec, R = random_instance(rng, max_M=3, max_R=10)
            P = len(spec.b)
            gmv = GeneralizedMVGamma(
                loadings=tuple((0.0,) for _ in range(P)),
                lam=spec.b,
                theta0=(1.0,),
                theta=spec.n,
            )
            prep = one_group(sums, R, 0.2)
            assert group_h(prep, gmv)[0] == pytest.approx(group_h(prep, spec)[0], rel=1e-12)

    def test_bivariate_terms_use_mgf_at_minus_k(self):
        spec = CheriyanRamabhadran(1.0, 0.5, 2.0)
        sums = HouseholdSums((1, 0), ((1,), (1,)))
        cache = build_cache(sums.x_vectors, 3)
        (value,) = group_h(one_group(sums, 3, 0.5), spec)
        expected = sum(
            cnt * math.exp(log_mgf(spec, [(-0.5 * (1 + r[0]), -0.5 * (0 + r[1]))])[0])
            for r, cnt in zip(cache.r_array, cache.count_array)
        )
        assert value == pytest.approx(expected, rel=1e-12)


def tiny_dataset():
    hs = (
        Household("a", (Observation(1, (1,)),)),
        Household("b", (Observation(0, (2,)),)),
        Household("c", (Observation(1, (1,)),)),  # duplicate signature of "a"
    )
    return Dataset(hs, P=1, x_scale=0.5)


class TestLogMarginal:
    def test_grouped_equals_naive(self):
        d = tiny_dataset()
        spec = IndependentGamma((1.5,), (2.0,))
        cfg = SeriesConfig(R=25)
        naive = math.fsum(math.log(h_naive(h, spec, cfg, d.x_scale).value) for h in d.households)
        assert log_marginal(d, spec, cfg).value == pytest.approx(naive, rel=1e-12)

    def test_household_grouping_multiplicity(self):
        d = tiny_dataset()
        prep = prepare_dataset(d, SeriesConfig(R=25))
        assert len(prep.groups) == 2  # "a" and "c" share (x, Y)
        assert sorted(m for _, m in prep.groups) == [1, 2]

    def test_prepared_matches_unprepared(self):
        d = tiny_dataset()
        spec = IndependentGamma((1.5,), (2.0,))
        cfg = SeriesConfig(R=25)
        prep = prepare_dataset(d, cfg)
        assert log_marginal_prepared(prep, spec).value == pytest.approx(
            log_marginal(d, spec, cfg).value, rel=1e-15
        )

    def test_truncation_failure_raised_on_negative_sum(self):
        # Three identical observations with a nearly flat prior: the R=1
        # Euler mean S_0 + S_1/2 is 1 - (3/2)*(1+b)^(-n) < 0 for tiny n.
        h = Household("bad", (Observation(0, (1,)),) * 3)
        d = Dataset((h,), P=1)
        spec = IndependentGamma((1.0,), (0.01,))
        assert h_naive(h, spec, SeriesConfig(R=1), d.x_scale).value < 0
        with pytest.raises(TruncationFailure):
            log_marginal(d, spec, SeriesConfig(R=1))

    def test_point_mass_limits(self):
        d = tiny_dataset()
        inner = IndependentGamma((1.5,), (2.0,))
        cfg = SeriesConfig(R=25)
        base = log_marginal(d, inner, cfg).value
        total_obs = 3
        assert log_marginal(d, PointMassGamma(0.0, inner), cfg).value == pytest.approx(
            base
        )
        assert log_marginal(d, PointMassGamma(1.0, inner), cfg).value == pytest.approx(
            -total_obs * math.log(2.0)
        )
        mid = log_marginal(d, PointMassGamma(0.5, inner), cfg).value
        expected = math.log(
            0.5 * 2.0**-total_obs + 0.5 * math.exp(base)
        )
        assert mid == pytest.approx(expected, rel=1e-12)

    def test_naive_oracle_rejects_non_gamma(self):
        h = tiny_dataset().households[0]
        mix = GammaMixture(((1.0,),), ((1.0,),), ((1.0,),))
        for spec in (mix, PointMassGamma(0.5, UNIT_PRIOR)):
            with pytest.raises(SpecError):
                h_naive(h, spec, SeriesConfig(R=5))


def two_attribute_dataset():
    rows = [
        ((1, (1, 2)), (0, (2, 1))),
        ((0, (1, 2)), (1, (2, 1))),
        ((1, (1, 2)), (0, (2, 1))),  # same group as the first
        ((1, (3, 3)),),
        ((0, (1, 1)), (0, (2, 3)), (1, (1, 1))),
    ]
    hs = tuple(
        Household(f"h{i}", tuple(Observation(y, x) for y, x in obs))
        for i, obs in enumerate(rows)
    )
    return Dataset(hs, P=2, x_scale=0.1)


IG2 = IndependentGamma((2.0, 1.5), (3.0, 4.0), eps=0.01)
SEVEN_FAMILIES = [
    IG2,
    GammaMixture(((0.4, 0.6),) * 2, ((1.0, 3.0),) * 2, ((2.0, 4.0),) * 2),
    PointMassGamma(0.3, IG2),
    GeneralizedMVGamma(((1.0,), (0.5,)), (2.0, 1.0), (1.5,), (2.0, 3.0)),
    CheriyanRamabhadran(1.0, 2.0, 3.0),
    Freund(1.0, 2.0, 1.5, 0.8),
    ArnoldStrauss(1.0, 1.5, 0.8),
]


def route_counts(route, monkeypatch):
    """A dataset and its count matrix, built through one of the column routes
    of :meth:`CountMatrix.build`."""
    if route == "beyond-int64":
        hs = (
            Household("big", (Observation(1, (600,) * 7),)),
            Household("small", (Observation(0, (1,) * 7),)),
        )
        d = Dataset(hs, P=7, x_scale=1e-3)
    elif route == "unique":
        # attribute 2 spans over 1024 values, so it is sorted, not tabled;
        # the smallest K is (2, 1), so the two attributes' offsets differ
        hs = (
            Household("a", (Observation(1, (2, 700)), Observation(0, (2, 1)))),
            Household("b", (Observation(1, (3, 1)),)),
        )
        d = Dataset(hs, P=2, x_scale=1e-3)
        monkeypatch.setattr(diophantine, "MAX_BOX_PER_ROW", 0)
    elif route == "table-P1":
        hs = (
            Household("a", (Observation(1, (1,)), Observation(0, (3,)))),
            Household("b", (Observation(0, (2,)), Observation(0, (2,)), Observation(1, (1,)))),
        )
        d = Dataset(hs, P=1, x_scale=0.1)
    else:
        d = two_attribute_dataset()
    prep = prepare_dataset(d, SeriesConfig(R=12 if route.startswith("table") else 3))
    return d, CountMatrix.build(prep.groups, prep.caches, d.x_scale)


# Product-form priors for P attributes, as CountMatrix.mgf receives them
PRODUCT_PRIORS = {
    "gamma": lambda P: IndependentGamma((1.5,) * P, (2.0,) * P),
    "gamma-eps": lambda P: IndependentGamma(
        tuple(1.0 + 0.5 * p for p in range(P)), (3.0,) * P, 0.2
    ),
    "mixture-eps": lambda P: GammaMixture(
        ((0.2, 0.5, 0.3),) * P, ((0.5, 1.0, 4.0),) * P, ((1.0, 3.0, 7.0),) * P, 0.1
    ),
    "point-mass-inner": lambda P: PointMassGamma(
        0.3, IndependentGamma((2.0,) * P, (1.5,) * P, 0.05)
    ).inner,
}


class TestCountMatrixKernel:
    @pytest.mark.parametrize("spec", SEVEN_FAMILIES, ids=lambda s: type(s).__name__)
    def test_matches_per_group_sum(self, spec):
        d = two_attribute_dataset()
        prep = prepare_dataset(d, SeriesConfig(R=12))
        inner = spec.inner if isinstance(spec, PointMassGamma) else spec
        per_group = [
            mult * math.log(cache_h(sums, prep.caches[sums.x_vectors], inner, d.x_scale))
            for sums, mult in prep.groups
        ]
        expected = math.fsum(per_group)
        if isinstance(spec, PointMassGamma):
            total_obs = sum(h.n_obs for h in d.households)
            expected = math.log(spec.w * 2.0**-total_obs + (1 - spec.w) * math.exp(expected))
        ev = log_marginal_prepared(prep, spec)
        assert ev.value == pytest.approx(expected, rel=1e-12)
        assert ev.terms == sum(m * len(prep.caches[s.x_vectors].entries) for s, m in prep.groups)

    def test_column_paths_agree(self, monkeypatch):
        d = two_attribute_dataset()
        prep = prepare_dataset(d, SeriesConfig(R=12))
        table = CountMatrix.build(prep.groups, prep.caches, d.x_scale)
        monkeypatch.setattr(diophantine, "MAX_BOX_PER_ROW", 0)
        unique = CountMatrix.build(prep.groups, prep.caches, d.x_scale)
        assert len(table.T) < table.C.nnz  # groups share K tuples
        assert np.array_equal(table.T, unique.T)
        assert (table.C != unique.C).nnz == 0

    @pytest.mark.parametrize("route", ["table", "unique", "beyond-int64"])
    def test_attribute_axes_rebuild_T(self, route, monkeypatch):
        d, counts = route_counts(route, monkeypatch)
        assert len(counts.t_axes) == d.P
        assert counts.t_index.shape == (d.P, len(counts.T))
        for p, (axis, index) in enumerate(zip(counts.t_axes, counts.t_index)):
            # each attribute's distinct t_p, K ascending, bit for bit as in T
            assert np.array_equal(axis, np.unique(counts.T[:, p])[::-1])
            assert np.array_equal(axis[index], counts.T[:, p])

    @pytest.mark.parametrize("route", ["table", "table-P1", "unique", "beyond-int64"])
    @pytest.mark.parametrize("prior", PRODUCT_PRIORS)
    def test_product_prior_factors_match_the_joint_mgf(self, prior, route, monkeypatch):
        d, counts = route_counts(route, monkeypatch)
        spec = PRODUCT_PRIORS[prior](d.P)
        joint = np.exp(log_mgf(spec, counts.T))
        assert counts.mgf(spec) == pytest.approx(joint, rel=1e-14)

    @pytest.mark.parametrize("spec", SEVEN_FAMILIES[2:], ids=lambda s: type(s).__name__)
    def test_other_priors_use_the_joint_mgf(self, spec):
        counts = prepare_dataset(two_attribute_dataset(), SeriesConfig(R=12)).counts
        assert counts.mgf(spec).tobytes() == np.exp(log_mgf(spec, counts.T)).tobytes()

    def test_bounding_box_beyond_int64(self):
        # seven attributes with K up to 600 each: the box has ~2.8e19 cells
        hs = (
            Household("big", (Observation(1, (600,) * 7),)),
            Household("small", (Observation(0, (1,) * 7),)),
        )
        d = Dataset(hs, P=7, x_scale=1e-3)
        prep = prepare_dataset(d, SeriesConfig(R=3))
        spec = IndependentGamma((1.0,) * 7, (2.0,) * 7)
        expected = math.fsum(
            math.log(cache_h(sums, prep.caches[sums.x_vectors], spec, d.x_scale))
            for sums, _ in prep.groups
        )
        assert log_marginal_prepared(prep, spec).value == pytest.approx(expected, rel=1e-12)

    def test_failure_names_first_group(self):
        flat = IndependentGamma((1.0,), (0.01,))
        hs = (
            Household("fine", (Observation(1, (1,)),)),
            Household("bad1", (Observation(0, (2,)),) * 3),
            Household("bad2", (Observation(0, (1,)),) * 3),
        )
        prep = prepare_dataset(Dataset(hs, P=1), SeriesConfig(R=1))
        with pytest.raises(TruncationFailure) as exc:
            log_marginal_prepared(prep, flat)
        assert exc.value.household == "x=((2, 2, 2),) Y=(0,)"
        assert exc.value.value < 0

    def test_parity_spread_with_preloaded_caches(self):
        d = two_attribute_dataset()
        cfg = SeriesConfig(R=10)
        cold = prepare_dataset(d, cfg)
        signatures = list(cold.caches)
        for preloaded in (signatures[:1], signatures):
            caches = {xv: build_cache(xv, 10) for xv in preloaded}
            prep = prepare_dataset(d, cfg, caches)
            assert set(prep.caches) == set(signatures)
            assert all(c.R == 10 for c in prep.caches.values())
            ev = log_marginal_prepared(prep, IG2)
            ref = log_marginal_prepared(cold, IG2)
            assert ev.value == ref.value
            assert group_spread(prep, IG2).max() == group_spread(cold, IG2).max()

    def test_cache_of_another_budget_is_rejected(self):
        # a budget-4 cache would give another value while the result said R=100
        d = two_attribute_dataset()
        xv = next(iter(prepare_dataset(d, SeriesConfig(R=4)).caches))
        with pytest.raises(ValueError, match=r"built at R=4, but the evaluation asks for R=100"):
            log_marginal(d, IG2, SeriesConfig(R=100), {xv: build_cache(xv, 4)})


class TestGroupH:
    @pytest.mark.parametrize("spec", SEVEN_FAMILIES, ids=lambda s: type(s).__name__)
    def test_each_group_matches_its_cache_sum(self, spec):
        d = two_attribute_dataset()
        prep = prepare_dataset(d, SeriesConfig(R=12))
        H = group_h(prep, spec)
        inner = spec.inner if isinstance(spec, PointMassGamma) else spec
        for (sums, _), h in zip(prep.groups, H):
            ref = cache_h(sums, prep.caches[sums.x_vectors], inner, d.x_scale)
            if isinstance(spec, PointMassGamma):
                ref = spec.w * 2.0 ** -sums.n_obs + (1 - spec.w) * ref
            assert h == pytest.approx(ref, rel=1e-12)

    def test_point_mass_is_each_households_mixture(self):
        prep = prepare_dataset(two_attribute_dataset(), SeriesConfig(R=12))
        n_obs = [sums.n_obs for sums, _ in prep.groups]
        assert sorted(set(n_obs)) == [1, 2, 3]
        inner, inner_spread = group_h(prep, IG2), group_spread(prep, IG2)
        for w in (0.0, 0.3, 1.0):
            spec = PointMassGamma(w, IG2)
            for h, n, h_inner in zip(group_h(prep, spec), n_obs, inner):
                assert h == pytest.approx(w * 2.0 ** -n + (1 - w) * h_inner, rel=1e-15)
            assert group_spread(prep, spec).tobytes() == inner_spread.tobytes()

    def test_spread_matches_naive_per_group(self):
        cfg = SeriesConfig(R=10)
        d = two_attribute_dataset()
        prep = prepare_dataset(d, cfg)
        H, spread = group_h(prep, IG2), group_spread(prep, IG2)
        for (sums, _), h, sp in zip(prep.groups, H, spread):
            ref = h_naive(sums, IG2, cfg, d.x_scale)
            assert h == pytest.approx(ref.value, rel=1e-12)
            assert sp == pytest.approx(ref.parity_spread, rel=1e-9)

    @pytest.mark.parametrize("P, spec", [
        (1, CheriyanRamabhadran(1.0, 2.0, 3.0)),
        (3, Freund(1.0, 2.0, 1.5, 0.8)),
        (1, IG2),
        (3, GammaMixture(((1.0,),) * 2, ((2.0,),) * 2, ((3.0,),) * 2)),
        (1, PointMassGamma(0.5, IG2)),
    ])
    def test_prior_dimension_must_match_the_panel(self, P, spec):
        h = Household("h", (Observation(1, (1,) * P), Observation(0, (2,) * P)))
        prep = prepare_dataset(Dataset((h,), P=P), SeriesConfig(R=4))
        message = f"prior has P=2 attributes but the panel has P={P}"
        for route in (group_h, group_spread, log_marginal_prepared):
            with pytest.raises(SpecError, match=message):
                route(prep, spec)

    def test_no_groups(self):
        prep = prepare_dataset(Dataset((), P=1), SeriesConfig(R=4))
        for spec in (UNIT_PRIOR, PointMassGamma(0.5, UNIT_PRIOR)):
            assert group_h(prep, spec).shape == group_spread(prep, spec).shape == (0,)


@st.composite
def shuffled_panels(draw):
    """A P=2 panel with some households repeated in another row order, and a
    copy of it with every household's rows shuffled."""
    row = st.tuples(st.integers(0, 1), st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any))
    households = draw(st.lists(st.lists(row, min_size=1, max_size=3), min_size=1, max_size=6))
    repeats = draw(st.lists(st.sampled_from(households), max_size=4))
    households += [draw(st.permutations(obs)) for obs in repeats]
    shuffled = [draw(st.permutations(obs)) for obs in households]

    def dataset(rows):
        return Dataset(tuple(
            Household(f"h{i}", tuple(Observation(y, x) for y, x in obs))
            for i, obs in enumerate(rows)
        ), P=2, x_scale=0.1)

    return dataset(households), dataset(shuffled)


class TestOrderFreeGroups:
    @given(shuffled_panels())
    @settings(max_examples=30, deadline=None)
    def test_shuffled_rows_give_the_same_groups_and_values(self, panel):
        d, shuffled = panel
        cfg = SeriesConfig(R=12)
        a, b = prepare_dataset(d, cfg), prepare_dataset(shuffled, cfg)
        assert a.groups == b.groups
        assert all(sums.x_vectors == canonical_x_vectors(sums.x_vectors) for sums, _ in a.groups)
        assert sum(m for _, m in a.groups) == len(d.households)
        assert list(a.caches) == list(dict.fromkeys(sums.x_vectors for sums, _ in a.groups))
        for spec in SEVEN_FAMILIES:
            H_a = a.counts.C @ a.counts.mgf(spec)
            assert H_a.tobytes() == (b.counts.C @ b.counts.mgf(spec)).tobytes()
        # the order-dependent groups, each with a cache of its own ordering
        ordered = math.fsum(
            m * math.log(cache_h(sums, build_cache(sums.x_vectors, 12), IG2, d.x_scale))
            for sums, m in group_households(shuffled)[0].items()
        )
        assert log_marginal_prepared(b, IG2).value == pytest.approx(ordered, rel=1e-12)
        assert log_marginal_prepared(a, IG2).value == pytest.approx(
            log_marginal_prepared(b, IG2).value, rel=1e-12
        )

    def test_caches_keyed_by_any_ordering_are_relabelled(self, monkeypatch):
        d = two_attribute_dataset()
        cfg = SeriesConfig(R=12)
        cold = prepare_dataset(d, cfg)
        # pass the caches of h0 (x rows (1, 2), (2, 1)) and h4 under other orderings
        given = {((2, 1), (1, 2)): build_cache(((2, 1), (1, 2)), 12),
                 ((2, 1, 1), (3, 1, 1)): build_cache(((2, 1, 1), (3, 1, 1)), 12)}
        calls = []
        monkeypatch.setattr("conjlogit.series.build_caches",
                            lambda sigs, R: calls.extend(sigs) or build_caches(sigs, R))
        prep = prepare_dataset(d, cfg, given)
        assert calls == [((3,), (3,))]
        assert list(prep.caches) == list(cold.caches)
        for xv, cache in prep.caches.items():
            assert cache.x_vectors == xv
            assert cache.records.tobytes() == cold.caches[xv].records.tobytes()
        assert log_marginal_prepared(prep, IG2).value == log_marginal_prepared(cold, IG2).value
        wrong = {((1, 2), (2, 1)): build_cache(((1, 1), (2, 2)), 12)}
        with pytest.raises(ValueError, match="not a column permutation"):
            prepare_dataset(d, cfg, wrong)

    def test_failure_label_shows_canonical_order(self):
        h = Household("bad", (Observation(0, (2,)), Observation(0, (1,)), Observation(0, (1,))))
        prep = prepare_dataset(Dataset((h,), P=1), SeriesConfig(R=1))
        with pytest.raises(TruncationFailure) as exc:
            log_marginal_prepared(prep, IndependentGamma((1.0,), (0.01,)))
        assert exc.value.household == "x=((1, 1, 2),) Y=(0,)"


class TestInfrastructure:
    def test_kernel_sum_within_fsum_bound(self):
        # The terms of this household cancel more than 100-fold; the
        # mat-vec's H must stay within 1e-14 * sum|c t| of the exactly
        # rounded sum of the same terms.
        obs = ((0, (1, 2)), (1, (2, 1)), (0, (3, 3)))
        d = Dataset((Household("h", tuple(Observation(y, x) for y, x in obs)),), P=2,
                    x_scale=0.05)
        prep = prepare_dataset(d, SeriesConfig(R=40))
        spec = IndependentGamma((1.0, 1.0), (2.0, 2.0))
        sums, _ = prep.groups[0]
        cache = prep.caches[sums.x_vectors]
        K = cache.r_array + np.asarray(sums.Y)
        terms = cache.count_array * np.exp(log_mgf(spec, -d.x_scale * K))
        exact = math.fsum(terms)
        scale = math.fsum(np.abs(terms))
        assert scale / abs(exact) > 50
        H = prep.counts.C @ prep.counts.mgf(spec)
        assert abs(H[0] - exact) <= 1e-14 * scale

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SeriesConfig(R=-1)
        for removed in ({"mode": "naive"}, {"parity_check": True}):
            with pytest.raises(TypeError):  # R is the only setting
                SeriesConfig(R=1, **removed)

    @given(st.integers(0, 6), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_household_sums_from_household(self, y_seed, P):
        obs = (
            Observation(y_seed % 2, tuple(range(1, P + 1))),
            Observation((y_seed // 2) % 2, tuple(range(2, P + 2))),
        )
        h = Household("h", obs)
        sums = HouseholdSums.from_household(h, P)
        for p in range(P):
            assert sums.Y[p] == sum(o.y * o.x[p] for o in obs)
            assert sums.x_vectors[p] == tuple(o.x[p] for o in obs)
