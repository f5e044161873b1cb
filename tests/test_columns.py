"""The columnar panel: loading, validation, transforms and grouping over int64 columns.

Each check compares the columnar path with an object-by-object reference
that stays here as the oracle.
"""

import csv
import dataclasses
import gc
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conjlogit import data_model
from conjlogit.data_model import (
    DataError,
    Dataset,
    Household,
    Observation,
    Violation,
    drop_degenerate,
    load_dataset,
    recode_negative,
    rescale_covariates,
    save_dataset,
    validate_dataset,
)
from conjlogit.series import HouseholdSums, group_households


def reference_groups(d: Dataset) -> list[tuple[HouseholdSums, int]]:
    groups: dict[HouseholdSums, int] = {}
    for h in d.households:
        sums = HouseholdSums.from_household(h, d.P)
        groups[sums] = groups.get(sums, 0) + 1
    return list(groups.items())


def reference_drop_degenerate(d: Dataset) -> Dataset:
    hs = []
    for h in d.households:
        obs = tuple(o for o in h.observations if any(v != 0 for v in o.x))
        if obs:
            hs.append(Household(h.id, obs))
    return dataclasses.replace(d, households=tuple(hs))


def reference_rescale(d: Dataset, factor: float) -> Dataset:
    hs = tuple(
        Household(h.id, tuple(
            Observation(o.y, tuple(int(round(v * factor)) for v in o.x)) for o in h.observations
        ))
        for h in d.households
    )
    note = f"rescaled by {factor}"
    if d.scale_note:
        note = d.scale_note + "; " + note
    return Dataset(hs, d.P, x_scale=d.x_scale / factor, scale_note=note)


def reference_recode_negative(d: Dataset, flip: set[int]) -> Dataset:
    bad = [p for p in flip if p < 0 or p >= d.P]
    if bad:
        raise DataError(f"flip indices out of range for P={d.P}: {bad}")
    hs = []
    for h in d.households:
        obs = []
        for idx, o in enumerate(h.observations):
            x = list(o.x)
            for p in flip:
                v = -x[p]
                if v < 0:
                    raise DataError(
                        f"household {h.id} obs {idx}: transformed x[{p}]={v} is negative"
                    )
                if v > np.iinfo(np.int64).max:
                    raise DataError(
                        f"household {h.id} obs {idx}: transformed x[{p}]={v} is not an int64 value"
                    )
                x[p] = v
            obs.append(Observation(o.y, tuple(x)))
        hs.append(Household(h.id, tuple(obs)))
    note = f"recoded attributes {sorted(flip)}" if flip else None
    if flip:
        note = (d.scale_note + "; " + note) if d.scale_note else note
    else:
        note = d.scale_note
    return dataclasses.replace(d, households=tuple(hs), scale_note=note)


@st.composite
def panels(draw, lo=0):
    """Households of different lengths, with ids that need CSV quoting, and
    the order in which their rows are interleaved in a file.  Covariates lie
    in [lo, 4]."""
    P = draw(st.sampled_from([1, 2, 3]))
    ids = draw(st.lists(st.text(alphabet='ab,"\n x#', max_size=4), min_size=1, max_size=6,
                        unique=True))
    obs = st.builds(Observation, st.integers(0, 1), st.tuples(*[st.integers(lo, 4)] * P))
    households = [Household(i, tuple(draw(st.lists(obs, min_size=1, max_size=4))))
                  for i in ids]
    slots = [k for k, h in enumerate(households) for _ in h.observations]
    order = draw(st.permutations(slots))
    return P, households, order


def write_interleaved(path, P, households, order):
    """Write the rows in ``order`` (household numbers; each household's rows
    keep their own order) and return the dataset a reader should see:
    households in order of first appearance."""
    seen: dict[int, int] = {}
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["household", "category", "occasion", "y"] + [f"x{p+1}" for p in range(P)])
        for k in order:
            idx = seen.setdefault(k, 0)
            seen[k] += 1
            o = households[k].observations[idx]
            w.writerow([households[k].id, 1, idx + 1, o.y, *o.x])
    return Dataset(tuple(households[k] for k in seen), P, x_scale=0.5)


class TestEquivalence:
    @given(panels())
    @settings(max_examples=60, deadline=None)
    def test_load_and_group_match_the_object_path(self, tmp_path_factory, panel):
        P, households, order = panel
        tmp = tmp_path_factory.mktemp("panel")
        expected = write_interleaved(tmp / "mixed.csv", P, households, order)
        got = load_dataset(str(tmp / "mixed.csv"))
        assert dataclasses.replace(got, x_scale=0.5) == expected

        save_dataset(expected, str(tmp / "saved.csv"))
        assert load_dataset(str(tmp / "saved.csv")) == expected

        for d in (got, expected):
            assert list(group_households(d)[0].items()) == reference_groups(d)

    def test_group_counts_and_order_on_a_larger_panel(self):
        rng = np.random.default_rng(11)
        hs = tuple(
            Household(f"h{i}", tuple(
                Observation(int(rng.integers(2)), tuple(int(v) for v in rng.integers(1, 3, 2)))
                for _ in range(int(rng.integers(1, 4)))
            ))
            for i in range(300)
        )
        d = Dataset(hs, P=2)
        groups, first = group_households(d)
        assert list(groups.items()) == reference_groups(d)
        sums = [HouseholdSums.from_household(h, d.P) for h in d.households]
        assert first == [sums.index(key) for key in groups]  # each group's first household
        assert sum(groups.values()) == 300
        assert len(groups) < 150  # households do share groups


def test_validation_of_object_built_data_is_pinned():
    # rows the int64 columns can hold are checked by validate_dataset
    d = Dataset((
        Household("a", (Observation(2, (1, 1)), Observation(0, (-1, 2)))),
        Household("b", ()),
        Household("c", (Observation(1, (0, 0)), Observation(1, (0, 3)))),
    ), P=2)
    assert validate_dataset(d) == [
        Violation("a", 0, "y-binary", "y=2 not in {0,1}"),
        Violation("a", 1, "x-nonnegative", "x[0]=-1 < 0"),
        Violation("b", None, "nonempty", "household has no observations"),
        Violation("c", 0, "x-nonzero", "all covariates are zero"),
    ]
    # a row they cannot hold raises at construction, naming the value that
    # keeps it out, however many other rules it breaks
    for obs, message in [
        (Observation(0, (1.5, -1)), "x[0]=1.5 is not an integer"),
        (Observation(1, (False, 0)), "x[0]=False is not an integer"),
        (Observation(1, (3, "1")), "x[1]='1' is not an integer"),
        (Observation(2, (1,)), "len(x)=1 != P=2"),
        (Observation(2.0, (1, 1)), "y=2.0 not in {0,1}"),
        (Observation("1", (1, 1)), "y='1' not in {0,1}"),
        (Observation(1, (1, 2**63)), "value 9223372036854775808 is outside the int64 range"),
        (Observation(-(2**63) - 1, (1, 1)),
         "value -9223372036854775809 is outside the int64 range"),
    ]:
        hs = (Household("a", (Observation(1, (1, 1)),)),
              Household("c", (Observation(0, (2, 1)), obs)))
        with pytest.raises(DataError) as e:
            Dataset(hs, P=2)
        assert str(e.value) == f"household c obs 1: {message}"


def test_object_rows_the_columns_hold_are_stored_as_ints():
    # a y that is a bool or a number equal to 0 or 1, and covariates of an
    # int subclass other than bool, are stored as plain ints
    class Count(int):
        pass

    d = Dataset((Household("a", (Observation(True, (Count(2), 1)), Observation(1.0, (0, 1)),
                                 Observation(False, (1, Count(0))))),), P=2)
    cols = d.columns()
    assert cols.y.tolist() == [1, 1, 0] and cols.X.tolist() == [[2, 1], [0, 1], [1, 0]]
    assert validate_dataset(d) == []


def test_validation_of_loaded_data_is_pinned(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("household,category,occasion,y,x1,x2\n"
                 "a,1,1,2,-1,-3\nb,1,1,0,0,0\na,1,2,1,1,1\nb,1,2,-1,0,2\n")
    assert validate_dataset(load_dataset(str(p))) == [
        Violation("a", 0, "y-binary", "y=2 not in {0,1}"),
        Violation("a", 0, "x-nonnegative", "x[0]=-1 < 0"),
        Violation("a", 0, "x-nonnegative", "x[1]=-3 < 0"),
        Violation("b", 0, "x-nonzero", "all covariates are zero"),
        Violation("b", 1, "y-binary", "y=-1 not in {0,1}"),
    ]


HEADER = "household,category,occasion,y,x1\n"


@pytest.mark.parametrize("text, message", [
    (HEADER + "a,1,1,0,1\nb,1,1,1,2\nb,1,2,0,x\n", "d.csv:4: value 'x' is not an integer"),
    ("household,category,occasion,y,x1,x2\na,1,1,0,1,2\na,1,2,1,2\nb,1,1,0,1,1\n",
     "d.csv:3: expected 6 columns, got 5"),
    (HEADER + "a,1,1,0,q\nb,1,1,0\n", "d.csv:2: value 'q' is not an integer"),
    (HEADER + "\na,1,1,0,1\n\n\nb,1,1,0,1.5\n", "d.csv:6: value '1.5' is not an integer"),
    (HEADER + '"a\nb",1,1,0,1\nc,1,1,0, z \n', "d.csv:3: value 'z' is not an integer"),
    (HEADER + "a,1,1,0,99999999999999999999\n",
     "d.csv:2: value '99999999999999999999' is outside the int64 range"),
    (HEADER + "a,1,1,0,1\n\n" + "b" * 200_000 + ",1,1,0,1\n",
     "d.csv:4: field larger than field limit (131072)"),
    ("h" * 200_000 + HEADER, "d.csv:1: field larger than field limit (131072)"),
    (HEADER, "d.csv: no households"),
    (HEADER + "\n\n", "d.csv: no households"),
    (HEADER + "a,1,1,0,1\nb,1,1,0,3.0\n", "d.csv:3: value '3.0' is not an integer"),
    (HEADER + "a,1,1,0,9223372036854775808\n",
     "d.csv:2: value '9223372036854775808' is outside the int64 range"),
    (HEADER + "a," + "c" * 200_000 + ",1,0,1\n", "d.csv:2: field larger than field limit (131072)"),
    (HEADER + "a,1,1,0," + "0" * 131_072 + "1\n",
     "d.csv:2: field larger than field limit (131072)"),
    (HEADER + '"' + "a," * 70_000 + '",1,1,0,1\n', "d.csv:2: field larger than field limit (131072)"),
    (HEADER + "a,1,1,0,\x1c1\n", "d.csv:2: value '\\x1c1' is not an integer"),
    (HEADER + "a,1,1,0,1\na,1,2,0,\u01fe\n", "d.csv:3: value '\u01fe' is not an integer"),
], ids=["last-line", "short-row", "bad-before-short", "blank-lines", "quoted-newline", "int64",
        "over-long-field", "over-long-header", "header-only", "header-and-blank-lines",
        "float-cell", "int64-max-plus-one", "over-long-category", "over-long-cell",
        "over-long-quoted-id", "separator-control-cell", "letter-cell"])
def test_bad_csv_names_line_and_value(tmp_path, text, message):
    p = tmp_path / "d.csv"
    p.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(DataError) as e:
        load_dataset(str(p))
    assert str(e.value) == f"{p.parent}/{message}"


@pytest.mark.parametrize("raw, message", [
    (b"household,category,occasion,y,x\xe91\na,1,1,0,1\n",
     "d.csv:1: not UTF-8 text (invalid continuation byte: byte 0xe9)"),
    (b"household,category,occasion,y,x1\r\na,1,1,0,1\r\n\xffb,1,1,1,2\r\n",
     "d.csv:3: not UTF-8 text (invalid start byte: byte 0xff)"),
    # past the text reader's first 8 KB chunk, where its error counts from
    # the chunk, not the file
    (b"household,category,occasion,y,x1\n" + b"a,1,1,0,1\n" * 1000 + b"b\xff,1,1,1,2\n",
     "d.csv:1002: not UTF-8 text (invalid start byte: byte 0xff)"),
    # the line count is not moved by a byte-order mark
    (b"\xef\xbb\xbfhousehold,category,occasion,y,x1\na,1,1,0,1\nb\xff,1,1,1,2\n",
     "d.csv:3: not UTF-8 text (invalid start byte: byte 0xff)"),
], ids=["header", "id", "past-8KB", "after-a-byte-order-mark"])
def test_non_utf8_file_names_path_and_line(tmp_path, raw, message):
    p = tmp_path / "d.csv"
    p.write_bytes(raw)
    with pytest.raises(DataError) as e:
        load_dataset(str(p))
    assert str(e.value) == f"{p.parent}/{message}"


@pytest.mark.parametrize("scale_line", ["", "# x_scale=0.5\n"])
def test_a_byte_order_mark_is_dropped(tmp_path, scale_line):
    # as a spreadsheet's "CSV UTF-8" export starts its file
    text = scale_line + HEADER + "a,1,1,0,1\nb,1,1,1,2\na,1,2,0,3\n"
    (tmp_path / "plain.csv").write_text(text, encoding="utf-8")
    (tmp_path / "bom.csv").write_text(text, encoding="utf-8-sig")
    assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbf")
    got = load_dataset(str(tmp_path / "bom.csv"))
    assert got == load_dataset(str(tmp_path / "plain.csv"))
    assert got.columns().ids == ("a", "b")


def test_crlf_signs_and_spaces_parse(tmp_path):
    p = tmp_path / "d.csv"
    p.write_bytes(b"# x_scale=0.5\r\nhousehold,category,occasion,y,x1,x2\r\n"
                  b"a,1,1, 1,+3, 3\r\n\r\n\"b,c\",1,1,+0,3 ,2\r\na,1,2,0,1,1\r\n")
    d = load_dataset(str(p))
    assert d == Dataset((
        Household("a", (Observation(1, (3, 3)), Observation(0, (1, 1)))),
        Household("b,c", (Observation(0, (3, 2)),)),
    ), P=2, x_scale=0.5)


@pytest.mark.parametrize("body, ids, X", [
    ("a,1,1,0,1_0\nb,1,1,1,\u0663\n", ("a", "b"), [[10], [3]]),
    ('#a,1,1,0,1\n b ,1,1,0,2\n"a""b",1,1,1,3\na"b,1,2,0,4\n', ("#a", " b ", 'a"b'),
     [[1], [2], [3], [4]]),
], ids=["cells-only-int-reads", "ids-with-hash-spaces-and-quotes"])
def test_cells_and_ids_load_as_csv_and_int_read_them(tmp_path, body, ids, X):
    p = tmp_path / "d.csv"
    p.write_text(HEADER + body, encoding="utf-8")
    cols = load_dataset(str(p)).columns()
    assert (cols.ids, cols.X.tolist()) == (ids, X)


ODD_TEXT = 'ab01 \t\n\r,"#+-._'  # ASCII that the parsers treat differently, or not
EXOTIC_TEXT = ODD_TEXT + "\x00\x1c\u0663\u01fe"  # characters the tokenizer route turns away


@st.composite
def csv_bodies(draw):
    """P and a panel body: rows of 4 + P cells, most of them well formed,
    some with the characters on which the csv module, int() and numpy's
    tokenizer could part, some rows a cell short or long; or free text."""
    P = draw(st.sampled_from([1, 2]))

    def one(*weighted):  # a draw from one of the strategies, picked by weight
        return draw(draw(st.sampled_from([s for s, w in weighted for _ in range(w)])))

    def odd():
        return one((st.text(alphabet=ODD_TEXT, max_size=4), 3),
                   (st.text(alphabet=EXOTIC_TEXT, max_size=4), 1))

    def number():
        spaced = st.tuples(st.sampled_from(["", " ", "\t", '"', "+", "-", "0"]),
                           st.integers(0, 12), st.sampled_from(["", " ", '"']))
        return one((st.integers(0, 3).map(str), 12),
                   (spaced.map(lambda t: f"{t[0]}{t[1]}{t[2]}"), 3),
                   (st.just(None), 1)) or odd()

    def row():
        text = one((st.text(alphabet='ab #"\t,', max_size=4), 6), (st.just(None), 1)) or odd()
        cells = [text] + [number() for _ in range(P + 3)]
        cut = draw(st.sampled_from([0] * 12 + [1, -1]))
        return ",".join(cells[:-1] if cut < 0 else cells + [number() for _ in range(cut)])

    kind = draw(st.sampled_from(["\n"] * 4 + ["\r\n", "free"]))
    if kind == "free":
        return P, draw(st.text(alphabet=EXOTIC_TEXT, max_size=40))
    return P, "".join(row() + kind for _ in range(draw(st.integers(1, 5))))


def load_by_both_routes(path):
    """``load_dataset``'s result, a Dataset or a DataError's message, by the
    tokenizer route and by the ``csv`` route."""
    def load():
        try:
            return load_dataset(str(path))
        except DataError as e:
            return str(e)

    got = load()
    with mock.patch.object(data_model, "_tokenized", lambda body, P: None):
        return got, load()


@given(csv_bodies())
@settings(max_examples=150, deadline=None)
def test_both_load_routes_read_a_body_alike(tmp_path_factory, panel_body):
    # numpy's tokenizer reads a body only where the csv module and int()
    # read it alike: the same dataset, or the same DataError
    P, body = panel_body
    p = tmp_path_factory.getbasetemp() / "routes.csv"  # rewritten by each example
    header = "household,category,occasion,y," + ",".join(f"x{k + 1}" for k in range(P))
    p.write_text(header + "\n" + body, encoding="utf-8", newline="")
    got, by_csv = load_by_both_routes(p)
    assert got == by_csv


@pytest.mark.parametrize("body, tokenized, ids, X", [
    ('"a,b",1,1,0,1\nc,1,1,1,2\n', False, ("a,b", "c"), [[1], [2]]),
    ("a,1,1,0,1,5\nb,1,1,1\n", False, "d.csv:2: expected 5 columns, got 6", None),
    ("a,1,1,0,1\nb,1,1,1,2,5\n", False, "d.csv:3: expected 5 columns, got 6", None),
    ("a,1,1,0,1\nb,1,1,1,2\na,1,2,1,3\nb,1,2,0,4\nc,1,1,0,5\n", True, ("a", "b", "c"),
     [[1], [3], [2], [4], [5]]),
    ("a,1,1,0,1\n", True, ("a",), [[1]]),
    ("a,1,1,0,1\n a,1,1,1,2\na ,1,1,0,3\n a,1,2,1,4\na,1,2,0,5\n", True,
     ("a", " a", "a "), [[1], [5], [2], [4], [3]]),
], ids=["quoted-comma-in-id", "long-and-short-rows-balance", "a-row-a-cell-long",
        "id-comes-back", "one-row", "ids-differ-by-spaces"])
def test_load_routes_agree_at_the_guard_and_the_run_index(tmp_path, body, tokenized, ids, X):
    # a household whose id comes back later has its rows gathered, households
    # in order of first appearance; the other bodies are runs, or errors
    p = tmp_path / "d.csv"
    p.write_text(HEADER + body, encoding="utf-8", newline="")
    assert (data_model._tokenized(body, 1) is not None) is tokenized
    got, by_csv = load_by_both_routes(p)
    assert got == by_csv
    if X is None:
        assert got == f"{tmp_path}/{ids}"
    else:
        assert (got.columns().ids, got.columns().X.tolist()) == (ids, X)


def saved_body(tmp_path, d: Dataset) -> str:
    """The rows below the header of the file ``save_dataset`` writes."""
    save_dataset(d, str(tmp_path / "saved.csv"))
    with open(tmp_path / "saved.csv", encoding="utf-8", newline="") as f:
        return f.read().split("\n", 2 if d.x_scale != 1.0 else 1)[-1]


@pytest.mark.parametrize("P", [1, 2, 3])
@pytest.mark.parametrize("x_scale", [1.0, 0.01])
@pytest.mark.parametrize("I", [3, 4000])  # the larger body is past the csv field limit
def test_saved_bodies_take_the_tokenizer_route(tmp_path, P, x_scale, I):
    # a guard that sent every body to the csv route would keep every value
    # right and lose the tokenizer's speed
    rng = np.random.default_rng(P)
    d = Dataset.from_columns([f"h{i}" for i in range(I)], np.arange(0, 3 * I + 1, 3),
                             rng.integers(0, 2, 3 * I), rng.integers(0, 4, (3 * I, P)),
                             x_scale=x_scale)
    body = saved_body(tmp_path, d)
    assert (len(body) > csv.field_size_limit()) is (I > 3)
    assert data_model._tokenized(body, P) is not None
    assert load_dataset(str(tmp_path / "saved.csv")) == d


def test_a_body_in_the_benchmark_layout_takes_the_tokenizer_route():
    # hNNNNN,1,t,y,x1..xP rows, as the benchmark writes its panels
    rng = np.random.default_rng(1)
    for P in (1, 2):
        rows = [f"h{i:05d},1,{t + 1},{rng.integers(2)}," + ",".join(map(str, rng.integers(1, 4, P)))
                for i in range(1000) for t in range(3)]
        body = "\n".join(rows) + "\n"
        got = data_model._tokenized(body, P)
        assert got is not None
        assert got[0].tolist() == [r.split(",", 1)[0] for r in rows]


class TestHouseholdsView:
    def loaded(self, tmp_path):
        d = Dataset((
            Household("a", (Observation(1, (1, 2)), Observation(0, (2, 1)))),
            Household("b", (Observation(0, (3, 1)),)),
        ), P=2, x_scale=0.25)
        save_dataset(d, str(tmp_path / "d.csv"))
        return d, load_dataset(str(tmp_path / "d.csv"))

    def test_loaded_view_reads_like_the_tuple(self, tmp_path):
        d, got = self.loaded(tmp_path)
        hs = tuple(d.households)
        assert len(got.households) == 2
        assert got.households == hs and hs == got.households
        assert got.households[1] == hs[1] and got.households[-1] == hs[-1]
        assert got.households[:1] == hs[:1]
        assert [h.id for h in got.households] == ["a", "b"]
        assert got == d and hash(got) == hash(d)
        with pytest.raises(TypeError):
            got.households[0] = hs[1]

    def test_columns(self, tmp_path):
        d, got = self.loaded(tmp_path)
        for cols in (got.columns(), d.columns()):
            assert cols.ids == ("a", "b")
            assert cols.offsets.tolist() == [0, 2, 3]
            assert cols.y.tolist() == [1, 0, 0]
            assert cols.X.tolist() == [[1, 2], [2, 1], [3, 1]]
            assert cols.X.dtype == np.int64 and not cols.X.flags.writeable

    def test_replace_and_constructor(self, tmp_path):
        d, got = self.loaded(tmp_path)
        assert dataclasses.replace(got, scale_note="x").households == d.households
        one = dataclasses.replace(got, households=got.households[:1])
        assert one.columns().offsets.tolist() == [0, 2]
        assert Dataset(got.households, P=2, x_scale=0.25) == d
        # a different P converts the rows again, and the first is too short
        with pytest.raises(DataError) as e:
            Dataset(got.households, P=3)
        assert str(e.value) == "household a obs 0: len(x)=2 != P=3"


def test_load_validate_group_allocate_no_object_per_row(tmp_path):
    # 1000 households of three observations, as in the cold-start benchmark panel
    rng = np.random.default_rng(1)
    x = rng.integers(1, 4, size=(1000, 3))
    y = rng.integers(0, 2, size=(1000, 3))
    p = tmp_path / "panel.csv"
    lines = ["# x_scale=0.01", "household,category,occasion,y,x1"]
    lines += [f"h{i:05d},1,{t + 1},{y[i, t]},{x[i, t]}" for i in range(1000) for t in range(3)]
    p.write_text("\n".join(lines) + "\n")

    def load_validate_group():
        d = load_dataset(str(p))
        return d, validate_dataset(d), group_households(d)[0]

    load_validate_group()  # first-call work inside numpy
    gc.collect()
    before = sys.getallocatedblocks()
    d, violations, groups = load_validate_group()
    grown = sys.getallocatedblocks() - before
    assert violations == []
    assert sum(groups.values()) == 1000
    assert grown < 3000, f"{grown} blocks for 3000 rows"


def assert_same_panel(got: Dataset, want: Dataset) -> None:
    a, b = got.columns(), want.columns()
    assert a.ids == b.ids
    for col, ref in zip(a[1:], b[1:]):
        assert col.dtype == np.int64 and np.array_equal(col, ref)
    assert (got.P, got.x_scale, got.scale_note) == (want.P, want.x_scale, want.scale_note)


class TestPanelTransforms:
    """``drop_degenerate``, ``rescale_covariates`` and ``recode_negative`` work
    on the columns and agree with the object-by-object versions they replaced."""

    def panel(self) -> Dataset:
        # "b" holds only all-zero rows, "c" is empty, and at factor 0.5 the
        # covariates 1, 3, 5, 7 land on the ties 0.5, 1.5, 2.5, 3.5
        X = [[0, 0], [1, 3], [5, 7], [0, 0], [0, 0], [2, 0], [3, 1], [0, 4]]
        y = [1, 0, 1, 0, 1, 1, 0, 1]
        return Dataset.from_columns(["a", "b", "c", "d"], [0, 3, 5, 5, 8], y, X,
                                    x_scale=0.25, scale_note="recoded attributes [0]")

    def test_match_the_object_path(self):
        d = self.panel()
        obj = Dataset(tuple(d.households), P=2, x_scale=d.x_scale, scale_note=d.scale_note)
        assert_same_panel(drop_degenerate(self.panel()), reference_drop_degenerate(obj))
        for factor in (0.5, 1.5, 0.1, 3.0):
            got = drop_degenerate(rescale_covariates(self.panel(), factor))
            assert_same_panel(got, reference_drop_degenerate(reference_rescale(obj, factor)))
        half = rescale_covariates(self.panel(), 0.5).columns()
        assert half.X[:3].tolist() == [[0, 0], [0, 2], [2, 4]]  # half to even
        assert drop_degenerate(self.panel()).columns().ids == ("a", "d")

    @given(panels(), st.sampled_from([0.5, 0.25, 1.5, 2.5, 0.1, 1e-3, 7.0]))
    @settings(max_examples=40, deadline=None)
    def test_random_panels_match_the_object_path(self, panel, factor):
        P, households, _ = panel
        obj = Dataset(tuple(households), P, x_scale=0.5)
        d = Dataset.from_columns(*obj.columns(), x_scale=0.5)
        assert_same_panel(rescale_covariates(d, factor), reference_rescale(obj, factor))
        assert_same_panel(drop_degenerate(d), reference_drop_degenerate(obj))

    def test_no_household_objects_are_built(self, tmp_path):
        p = tmp_path / "d.csv"
        save_dataset(self.panel(), str(p))
        d = load_dataset(str(p))
        out = drop_degenerate(rescale_covariates(d, 0.5))
        assert validate_dataset(out) == []
        assert d.households._objs is None and out.households._objs is None

    @given(panels(lo=-3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_recode_negative_matches_the_object_path(self, panel, data):
        # flip sets include out-of-range indices; both routes must agree on
        # the result or on the first error's text
        P, households, _ = panel
        flip = data.draw(st.sets(st.integers(-1, P), max_size=P + 1))
        note = data.draw(st.sampled_from([None, "rescaled by 2.0"]))
        obj = Dataset(tuple(households), P, x_scale=0.5, scale_note=note)
        d = Dataset.from_columns(*obj.columns(), x_scale=0.5, scale_note=note)

        def outcome(fn, ds):
            try:
                return fn(ds, flip)
            except DataError as e:
                return str(e)

        got, want = outcome(recode_negative, d), outcome(reference_recode_negative, obj)
        if isinstance(want, str):
            assert got == want
        else:
            assert_same_panel(got, want)
            assert got.households._objs is None
        assert d.households._objs is None

    def test_recode_negative_builds_no_household_objects(self, tmp_path):
        p = tmp_path / "d.csv"
        neg = Dataset.from_columns(["a", "b"], [0, 2, 3], [1, 0, 1],
                                   [[-1, 2], [-3, 1], [0, 4]], x_scale=0.25)
        save_dataset(neg, str(p))
        d = load_dataset(str(p))
        out = recode_negative(d, {0})
        assert out.columns().X.tolist() == [[1, 2], [3, 1], [0, 4]]
        assert out.scale_note == "recoded attributes [0]"
        assert validate_dataset(out) == []
        assert d.households._objs is None and out.households._objs is None
        with pytest.raises(DataError, match=r"household a obs 0: transformed x\[1\]=-2 is negative"):
            recode_negative(d, {0, 1})
        # two negative results in one row: the first attribute in flip order is named
        both = Dataset.from_columns(["a"], [0, 1], [1], [[3, 2]])
        with pytest.raises(DataError) as got:
            recode_negative(both, {0, 1})
        with pytest.raises(DataError) as want:
            reference_recode_negative(both, {0, 1})
        assert str(got.value) == str(want.value) == "household a obs 0: transformed x[0]=-3 is negative"

    def test_recode_negative_value_route_cases(self):
        # a row the columns cannot hold never reaches recode_negative: it
        # raises at construction, naming the non-integer and not the -2 that
        # a flip would fix; -2**63, whose negation leaves int64, raises
        # naming its row
        with pytest.raises(DataError) as got:
            Dataset((Household("a", (Observation(1, (-2, 1.5)),)),), P=2)
        assert str(got.value) == "household a obs 0: x[1]=1.5 is not an integer"
        low = Dataset.from_columns(["a", "b"], [0, 1, 2], [1, 0], [[-1, 1], [-(2**63), 1]])
        with pytest.raises(DataError) as got:
            recode_negative(low, {0})
        with pytest.raises(DataError) as want:
            reference_recode_negative(low, {0})
        assert str(got.value) == str(want.value) == (
            "household b obs 0: transformed x[0]=9223372036854775808 is not an int64 value"
        )

    @pytest.mark.parametrize("factor", [float("inf"), 1e300, 2.0**62])
    def test_rescaled_value_beyond_int64_raises(self, factor):
        # x = 2 at 2**62 is exactly 2**63, one past the int64 range, and
        # x = 0 at an infinite factor is NaN
        d = Dataset.from_columns(["a", "b"], [0, 1, 2], [1, 0], [[0], [2]])
        first = "a" if factor == float("inf") else "b"
        with pytest.raises(DataError, match=rf"household {first} obs 0: .* not an int64 value"):
            rescale_covariates(d, factor)
        edge = Dataset.from_columns(["a"], [0, 1], [1], [[-1]])
        assert rescale_covariates(edge, 2.0**63).columns().X.tolist() == [[-(2**63)]]
