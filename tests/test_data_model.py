import math

import pytest
from hypothesis import given, settings, strategies as st

from conjlogit.data_model import (
    ArnoldStrauss,
    CheriyanRamabhadran,
    DataError,
    Dataset,
    Freund,
    GammaMixture,
    GeneralizedMVGamma,
    Household,
    IndependentGamma,
    Observation,
    PointMassGamma,
    SpecError,
    drop_degenerate,
    load_dataset,
    load_spec,
    recode_negative,
    rescale_covariates,
    save_dataset,
    save_spec,
    spec_from_dict,
    spec_to_dict,
    validate_dataset,
)


def small_dataset(x_scale=1.0):
    hs = (
        Household("a", (Observation(1, (1, 2)), Observation(0, (2, 1)))),
        Household("b", (Observation(0, (3, 1)),)),
    )
    return Dataset(hs, P=2, x_scale=x_scale)


class TestValidation:
    def test_clean_dataset_has_no_violations(self):
        assert validate_dataset(small_dataset()) == []

    def test_bad_y_flagged(self):
        d = Dataset((Household("a", (Observation(2, (1,)),)),), P=1)
        rules = {v.rule for v in validate_dataset(d)}
        assert "y-binary" in rules

    def test_negative_covariate_flagged(self):
        d = Dataset((Household("a", (Observation(0, (-1,)),)),), P=1)
        rules = {v.rule for v in validate_dataset(d)}
        assert "x-nonnegative" in rules

    def test_all_zero_row_flagged(self):
        d = Dataset((Household("a", (Observation(0, (0, 0)),)),), P=2)
        rules = {v.rule for v in validate_dataset(d)}
        assert "x-nonzero" in rules

    def test_wrong_width_flagged(self):
        d = Dataset((Household("a", (Observation(0, (1,)),)),), P=2)
        rules = {v.rule for v in validate_dataset(d)}
        assert "P-uniform" in rules

    def test_empty_dataset_flagged(self):
        assert validate_dataset(Dataset((), P=1))


def test_drop_degenerate_removes_zero_rows_and_empty_households():
    hs = (
        Household("a", (Observation(1, (0, 0)), Observation(0, (1, 1)))),
        Household("b", (Observation(1, (0, 0)),)),
    )
    d = drop_degenerate(Dataset(hs, P=2))
    assert len(d.households) == 1
    assert d.households[0].n_obs == 1
    assert validate_dataset(d) == []


def test_recode_negative_flips_selected_attribute():
    d = Dataset((Household("a", (Observation(1, (-2, 1)),)),), P=2)
    out = recode_negative(d, flip={0})
    assert out.households[0].observations[0].x == (2, 1)
    assert "recoded" in out.scale_note


def test_recode_negative_rejects_bad_index():
    with pytest.raises(DataError):
        recode_negative(small_dataset(), flip={5})


def test_rescale_preserves_real_values():
    d = small_dataset(x_scale=1.0)
    out = rescale_covariates(d, 10.0)
    assert out.households[0].observations[0].x == (10, 20)
    assert out.x_scale == pytest.approx(0.1)
    # real covariate value x_scale * stored is unchanged
    assert out.x_scale * 10 == pytest.approx(d.x_scale * 1)


class TestCsvRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        d = small_dataset(x_scale=0.01)
        p = tmp_path / "d.csv"
        save_dataset(d, str(p))
        d2 = load_dataset(str(p))
        assert d2.P == d.P
        assert d2.x_scale == d.x_scale
        assert [h.id for h in d2.households] == [h.id for h in d.households]
        for h1, h2 in zip(d.households, d2.households):
            assert h1.observations == h2.observations

    def test_unit_scale_has_no_comment_line(self, tmp_path):
        p = tmp_path / "d.csv"
        save_dataset(small_dataset(), str(p))
        assert p.read_text().startswith("household,")

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("foo,bar\n1,2\n")
        with pytest.raises(DataError):
            load_dataset(str(p))

    def test_noninteger_covariate_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("household,category,occasion,y,x1\na,1,1,0,1.5\n")
        with pytest.raises(DataError):
            load_dataset(str(p))

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(DataError):
            load_dataset(str(p))

    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 9), st.integers(0, 9)),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, rows, tmp_path_factory):
        hs = tuple(
            Household(f"h{i}", (Observation(y, (x1, x2)),))
            for i, (y, x1, x2) in enumerate(rows)
        )
        d = Dataset(hs, P=2, x_scale=0.5)
        p = tmp_path_factory.mktemp("rt") / "d.csv"
        save_dataset(d, str(p))
        d2 = load_dataset(str(p))
        assert tuple(h.observations for h in d2.households) == tuple(
            h.observations for h in d.households
        )


def test_x_vectors_and_y_vector():
    h = Household("a", (Observation(1, (1, 2)), Observation(0, (3, 4))))
    assert h.x_vectors(2) == ((1, 3), (2, 4))
    assert h.y_vector() == (1, 0)


ALL_SPECS = [
    IndependentGamma((5.0, 2.0), (14.0, 3.0), eps=0.001),
    GammaMixture(((0.3, 0.7),), ((1.0, 2.0),), ((3.0, 4.0),), eps=0.0),
    PointMassGamma(0.2, IndependentGamma((1.0,), (2.0,))),
    GeneralizedMVGamma(((0.5, 0.0), (0.1, 0.2)), (1.0, 2.0), (1.5, 0.5), (2.0, 3.0)),
    CheriyanRamabhadran(1.0, 2.0, 3.0),
    Freund(1.0, 2.0, 1.5, 0.8),
    ArnoldStrauss(1.0, 1.5, 0.5),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_spec_json_round_trip(spec, tmp_path):
    p = tmp_path / "spec.json"
    save_spec(spec, str(p))
    assert load_spec(str(p)) == spec


def test_spec_dict_round_trip_all():
    for spec in ALL_SPECS:
        assert spec_from_dict(spec_to_dict(spec)) == spec


def test_spec_from_dict_rejects_unknown_family():
    with pytest.raises(SpecError):
        spec_from_dict({"family": "unheard_of"})
    with pytest.raises(SpecError):
        spec_from_dict({"b": [1.0]})


class TestSpecValidation:
    def test_nonpositive_gamma_params(self):
        with pytest.raises(SpecError):
            IndependentGamma((0.0,), (1.0,))
        with pytest.raises(SpecError):
            IndependentGamma((1.0,), (-2.0,))
        with pytest.raises(SpecError):
            IndependentGamma((1.0,), (1.0,), eps=-0.1)

    def test_length_mismatch(self):
        with pytest.raises(SpecError):
            IndependentGamma((1.0, 2.0), (1.0,))

    def test_mixture_weights_must_sum_to_one(self):
        with pytest.raises(SpecError):
            GammaMixture(((0.5, 0.6),), ((1.0, 1.0),), ((1.0, 1.0),))

    def test_point_mass_weight_range(self):
        with pytest.raises(SpecError):
            PointMassGamma(1.5, IndependentGamma((1.0,), (1.0,)))

    def test_gmv_loading_shape(self):
        with pytest.raises(SpecError):
            GeneralizedMVGamma(((0.5,),), (1.0, 2.0), (1.0,), (1.0, 1.0))

    def test_gmv_negative_loading(self):
        with pytest.raises(SpecError):
            GeneralizedMVGamma(((-0.5,),), (1.0,), (1.0,), (1.0,))
