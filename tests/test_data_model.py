import json
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
        # the int64 columns cannot hold a short row, so construction rejects it
        with pytest.raises(DataError, match=r"^household a obs 0: len\(x\)=1 != P=2$"):
            Dataset((Household("a", (Observation(0, (1,)),)),), P=2)

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


SAVED_SPECS = [
    {"family": "independent_gamma", "b": [5.0, 2.0], "n": [14.0, 3.0], "eps": 0.001},
    {"family": "gamma_mixture", "weights": [[0.3, 0.7]], "b": [[1.0, 2.0]],
     "n": [[3.0, 4.0]], "eps": 0.0},
    {"family": "point_mass_gamma", "w": 0.2,
     "inner": {"family": "independent_gamma", "b": [1.0], "n": [2.0], "eps": 0.0}},
    {"family": "generalized_mv_gamma", "loadings": [[0.5, 0.0], [0.1, 0.2]], "lam": [1.0, 2.0],
     "theta0": [1.5, 0.5], "theta": [2.0, 3.0]},
    {"family": "cheriyan_ramabhadran", "theta0": 1.0, "theta1": 2.0, "theta2": 3.0},
    {"family": "freund", "alpha1": 1.0, "alpha2": 2.0, "alpha1p": 1.5, "alpha2p": 0.8},
    {"family": "arnold_strauss", "lam1": 1.0, "lam2": 1.5, "lam12": 0.5},
]


@pytest.mark.parametrize("spec, saved", zip(ALL_SPECS, SAVED_SPECS),
                         ids=[type(s).__name__ for s in ALL_SPECS])
def test_spec_json_round_trip(spec, saved, tmp_path):
    # the file holds every field in declaration order, tuples as lists
    p = tmp_path / "spec.json"
    save_spec(spec, str(p))
    assert p.read_text() == json.dumps(saved, indent=2) + "\n"
    assert load_spec(str(p)) == spec


def test_spec_dict_round_trip_all():
    for spec in ALL_SPECS:
        assert spec_from_dict(spec_to_dict(spec)) == spec


def test_spec_from_dict_rejects_unknown_family():
    with pytest.raises(SpecError):
        spec_from_dict({"family": "unheard_of"})
    with pytest.raises(SpecError):
        spec_from_dict({"b": [1.0]})


@pytest.mark.parametrize("d, words", [
    ({"family": ["freund"]}, "unknown family ['freund']"),
    ("independent_gamma", "spec must be a JSON object, got str"),
    ({"family": "arnold_strauss", "lam1": 1.0, "lam2": 1.5}, "arnold_strauss: missing key(s) 'lam12'"),
    ({"family": "independent_gamma", "b": [1.0], "n": [1.0], "N": [1.0]},
     "independent_gamma: unknown key(s) 'N'"),
    ({"family": "gamma_mixture", "weights": [1.0], "b": [1.0], "n": [1.0]},
     "gamma_mixture: a value has the wrong shape"),
    ({"family": "independent_gamma", "b": [1.0], "n": [1.0], "eps": None},
     "independent_gamma: a value has the wrong shape"),
    ({"family": "point_mass_gamma", "w": 0.5, "inner": 5},
     "point_mass_gamma inner spec must be independent_gamma"),
    ({"family": "point_mass_gamma", "w": 0.5, "inner": {"family": "independent_gamma"}},
     "independent_gamma: missing key(s) 'b', 'n'"),
    ({"family": "independent_gamma", "b": [True], "n": [1.0]},
     "independent_gamma: a value has the wrong shape (true is not a number)"),
    ({"family": "freund", "alpha1": 1.0, "alpha2": math.inf, "alpha1p": 1.0, "alpha2p": 1.0},
     "alpha must be a finite number > 0, got inf"),
], ids=["family-not-a-string", "not-an-object", "missing-key", "unknown-key", "scalar-rows",
        "null-eps", "scalar-inner", "bad-inner", "bool", "infinite"])
def test_spec_from_dict_rejects_what_no_family_holds(d, words):
    with pytest.raises(SpecError) as e:
        spec_from_dict(d)
    assert str(e.value).startswith(words)


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

    def test_point_mass_inner_must_be_independent_gamma(self):
        with pytest.raises(SpecError, match="inner spec must be independent_gamma"):
            PointMassGamma(0.5, GammaMixture(((1.0,),), ((1.0,),), ((1.0,),)))

    def test_gmv_loading_shape(self):
        with pytest.raises(SpecError):
            GeneralizedMVGamma(((0.5,),), (1.0, 2.0), (1.0,), (1.0, 1.0))

    def test_gmv_negative_loading(self):
        with pytest.raises(SpecError):
            GeneralizedMVGamma(((-0.5,),), (1.0,), (1.0,), (1.0,))

    def test_nan_and_infinite_parameters_rejected(self):
        nan = math.nan
        for make in (lambda: IndependentGamma((1.0,), (1.0,), eps=nan),
                     lambda: IndependentGamma((1.0,), (1.0,), eps=math.inf),
                     lambda: GammaMixture(((nan,),), ((1.0,),), ((1.0,),)),
                     lambda: GammaMixture(((0.5, 0.5),), ((1.0, 1.0),), ((1.0, 1.0),), eps=nan),
                     lambda: GeneralizedMVGamma(((nan,),), (1.0,), (1.0,), (1.0,))):
            with pytest.raises(SpecError):
                make()
