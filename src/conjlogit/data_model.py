"""Domain types, validation, and dataset I/O.

Datasets hold binary outcomes ``y`` and non-negative integer covariates for a
panel of households.  Covariates are stored as integers; a per-dataset
``x_scale`` factor maps the stored integers to the real covariate values used
by the likelihood (real value = ``x_scale`` * stored integer).

A dataset's store is its panel columns (:class:`PanelColumns`): the household
ids in order of first appearance, row offsets per household, and int64
outcome and covariate columns with each household's rows contiguous.
A panel enters by one of two routes, and both fill the columns at once:
``load_dataset`` parses a CSV file and ``Dataset(households, P)`` converts
``Household`` objects; a value the columns cannot hold raises DataError
there.  ``load_dataset`` reads a file's rows with numpy's C tokenizer, and
a file the tokenizer refuses, or might read otherwise, with the ``csv``
module and ``int``, which name the line of a bad value.  Validation and
grouping read the columns with no Python object per observation.
``Dataset.households`` is a read-only sequence view that builds
:class:`Household`/:class:`Observation` objects only when something reads it.
All types are immutable after construction and safe to share across threads.

A prior enters from JSON through :func:`spec_from_dict`, which reads each
family's dataclass fields and raises SpecError for anything else.
"""

from __future__ import annotations

import bisect
import csv
import dataclasses
import io
import json
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np


class DataError(ValueError):
    """Malformed input data (bad file, bad schema, bad transform result)."""


@dataclass(frozen=True)
class Observation:
    """One (category, occasion) outcome: binary ``y`` and covariate vector ``x``."""

    y: int
    x: tuple[int, ...]


@dataclass(frozen=True)
class Household:
    id: str
    observations: tuple[Observation, ...]

    @property
    def n_obs(self) -> int:
        return len(self.observations)

    def x_vectors(self, P: int) -> tuple[tuple[int, ...], ...]:
        """Covariate vectors per attribute: P tuples of length n_obs."""
        # list comprehensions: tuple(generator) leaves each tuple resized and
        # counted by the garbage collector, which runs it more often
        obs = self.observations
        return tuple([tuple([o.x[p] for o in obs]) for p in range(P)])

    def y_vector(self) -> tuple[int, ...]:
        return tuple(obs.y for obs in self.observations)


class PanelColumns(NamedTuple):
    """A panel as int64 columns; household i owns rows offsets[i]:offsets[i+1]."""

    ids: tuple[str, ...]  # household ids in order of first appearance
    offsets: np.ndarray   # (I + 1,)
    y: np.ndarray         # (n,)
    X: np.ndarray         # (n, P)


@dataclass(frozen=True)
class Violation:
    household: str
    obs_index: int | None
    rule: str
    message: str


class Households(Sequence):
    """Read-only sequence view of a dataset's households.

    The store is a :class:`PanelColumns`.  The ``Household`` objects are
    built from the columns on the first read that needs them (iteration,
    indexing, comparison) and kept.  ``len`` reads the columns.  Views
    compare equal to views and tuples of equal households.
    """

    __slots__ = ("P", "_cols", "_objs")

    def __init__(self, P: int, columns: PanelColumns):
        self.P = P
        self._cols, self._objs = columns, None

    def columns(self) -> PanelColumns:
        return self._cols

    def _objects(self) -> tuple[Household, ...]:
        if self._objs is None:
            ids, offsets, y, X = self._cols
            obs = list(map(Observation, y.tolist(), map(tuple, X.tolist())))
            bounds = offsets.tolist()
            self._objs = tuple(
                [Household(h, tuple(obs[a:b])) for h, a, b in zip(ids, bounds, bounds[1:])]
            )
        return self._objs

    def __len__(self) -> int:
        return len(self._cols.ids)

    def __getitem__(self, i):
        return self._objects()[i]

    def __iter__(self):
        return iter(self._objects())

    def __eq__(self, other):
        if isinstance(other, Households):
            other = other._objects()
        return self._objects() == other

    def __hash__(self) -> int:
        return hash(self._objects())

    def __repr__(self) -> str:
        return repr(self._objects())


def _panel_columns(ids, offsets, y, X) -> PanelColumns:
    """Read-only int64 columns, checked for agreeing lengths."""
    cols = []
    for a in (offsets, y, X):
        a = np.ascontiguousarray(a, dtype=np.int64)
        a.flags.writeable = False
        cols.append(a)
    offsets, y, X = cols
    if not (len(offsets) == len(ids) + 1 and offsets[0] == 0 and offsets[-1] == len(y) == len(X)):
        raise ValueError("panel columns disagree in length")
    return PanelColumns(tuple(ids), offsets, y, X)


def _row_name(ids, offsets: np.ndarray, r: int) -> str:
    """``household <id> obs <k>`` for row r of the panel columns."""
    h = int(np.searchsorted(offsets, r, side="right")) - 1
    return f"household {ids[h]} obs {r - int(offsets[h])}"


def _columns_from_objects(hs: tuple[Household, ...], P: int) -> PanelColumns:
    """The households' rows as int64 columns.  A row the columns cannot hold
    raises DataError naming its household, observation and value."""
    ys: list = []
    xs: list = []
    for h in hs:
        for idx, o in enumerate(h.observations):
            y, x = o.y, o.x
            if type(y) is not int or len(x) != P or any([type(v) is not int for v in x]):
                why = _unheld(y, x, P)
                if why:
                    raise DataError(f"household {h.id} obs {idx}: {why}")
                y = int(y)  # a bool or a number equal to 0 or 1
            ys.append(y)
            xs.append(x)
    ids = [h.id for h in hs]
    offsets = np.zeros(len(hs) + 1, dtype=np.int64)
    np.cumsum([h.n_obs for h in hs], out=offsets[1:])
    try:
        return _panel_columns(ids, offsets, ys, np.array(xs, dtype=np.int64).reshape(len(xs), P))
    except OverflowError:
        r, v = next((r, v) for r, row in enumerate(zip(ys, xs))
                    for v in (row[0], *row[1]) if not _I64.min <= v <= _I64.max)
        raise DataError(f"{_row_name(ids, offsets, r)}: value {v} is outside the int64 range") from None


def _unheld(y, x, P: int) -> str | None:
    """Why an int64 row cannot hold (y, x), or None if it can."""
    if not (isinstance(y, int) or y in (0, 1)):  # bool is an int
        return f"y={y!r} not in {{0,1}}"
    if len(x) != P:
        return f"len(x)={len(x)} != P={P}"
    for p, v in enumerate(x):
        if not isinstance(v, int) or isinstance(v, bool):
            return f"x[{p}]={v!r} is not an integer"
    return None


@dataclass(frozen=True)
class Dataset:
    """A panel of households with a common attribute count ``P``.

    The panel is stored as int64 columns (:meth:`columns`); ``households``
    is a read-only :class:`Households` view over them.  A dataset built from
    a sequence of ``Household`` objects converts them to columns here: a row
    with the wrong length, a covariate that is not an int (bools included),
    a y that is not an int, a bool or a number equal to 0 or 1, or a value
    outside int64 raises DataError naming its household, observation and
    value.  Every other rule is checked by :func:`validate_dataset`.

    ``x_scale`` is the factor applied to the stored integer covariates to
    recover the real covariate values; ``scale_note`` records how the integer
    recoding was produced (rescaling factor, sign flips applied at ingestion).
    """

    households: Sequence[Household]
    P: int
    x_scale: float = 1.0
    scale_note: str | None = None

    def __post_init__(self):
        hs = self.households
        if not (isinstance(hs, Households) and hs.P == self.P):
            cols = _columns_from_objects(tuple(hs), self.P)
            object.__setattr__(self, "households", Households(self.P, cols))

    @classmethod
    def from_columns(
        cls, ids, offsets, y, X, x_scale: float = 1.0, scale_note: str | None = None
    ) -> "Dataset":
        """A dataset whose store is the given panel columns (see :class:`PanelColumns`)."""
        cols = _panel_columns(ids, offsets, y, X)
        P = cols.X.shape[1]
        return cls(Households(P, cols), P, x_scale, scale_note)

    def columns(self) -> PanelColumns:
        """The panel's int64 columns."""
        return self.households.columns()


def validate_dataset(d: Dataset) -> list[Violation]:
    """Check every observation against the model's data restrictions.

    Returns a list of violations (empty iff the dataset is acceptable to all
    downstream operations): the dataset and each household need an
    observation, y must be 0 or 1, covariates must be non-negative, and each
    observation needs at least one positive covariate.  (What the int64
    columns cannot hold is rejected when the dataset is built.)  Violations
    come household by household, observation by observation.
    """
    ids, offsets, y, X = d.columns()

    def at(row, rule, message):
        h = int(np.searchsorted(offsets, row, side="right")) - 1
        return Violation(ids[h], row - int(offsets[h]), rule, message)

    # (row, rule order, violation): an empty household sorts before the row
    # that follows it, and a row's rules come in the order they are listed
    found: list[tuple[int, int, Violation]] = []
    if len(ids) < 1:
        found.append((-1, 0, Violation("", None, "nonempty", "dataset has no households")))
    for h in np.flatnonzero(offsets[1:] == offsets[:-1]).tolist():
        v = Violation(ids[h], None, "nonempty", "household has no observations")
        found.append((int(offsets[h]), -1, v))
    for r in np.flatnonzero((y != 0) & (y != 1)).tolist():
        found.append((r, 0, at(r, "y-binary", f"y={int(y[r])} not in {{0,1}}")))
    rows, ps = np.nonzero(X < 0)
    for r, p in zip(rows.tolist(), ps.tolist()):
        found.append((r, 1 + p, at(r, "x-nonnegative", f"x[{p}]={int(X[r, p])} < 0")))
    for r in np.flatnonzero(~X.any(axis=1)).tolist():
        # An all-zero row would expand 1/(1+1); rejected rather than
        # special-cased (use drop_degenerate to remove such rows).
        found.append((r, 1 + X.shape[1], at(r, "x-nonzero", "all covariates are zero")))
    found.sort(key=lambda f: f[:2])
    return [v for _, _, v in found]


def drop_degenerate(d: Dataset) -> Dataset:
    """Remove all-zero covariate rows (and then any empty households)."""
    ids, offsets, y, X = d.columns()
    keep = X.any(axis=1)
    n_kept = np.diff(np.concatenate(([0], np.cumsum(keep)))[offsets])
    left = n_kept > 0
    new_offsets = np.concatenate(([0], np.cumsum(n_kept[left])))
    return Dataset.from_columns(
        [h for h, k in zip(ids, left.tolist()) if k], new_offsets, y[keep], X[keep],
        d.x_scale, d.scale_note,
    )


def recode_negative(d: Dataset, flip: set[int]) -> Dataset:
    """Negate every covariate of the flagged attributes, so the positivity
    convention holds.

    Works on the panel columns.  A negated value that is negative or leaves
    int64 (x = -2^63) raises DataError naming its household and
    observation.
    """
    bad = [p for p in flip if p < 0 or p >= d.P]
    if bad:
        raise DataError(f"flip indices out of range for P={d.P}: {bad}")
    note = f"recoded attributes {sorted(flip)}" if flip else None
    if flip:
        note = (d.scale_note + "; " + note) if d.scale_note else note
    else:
        note = d.scale_note
    ids, offsets, y, X = d.columns()
    ps = list(flip)
    neg = -X[:, ps]  # -(-2^63) wraps to -2^63, so it shows as negative too
    hits = np.flatnonzero(neg < 0)  # row-major over (row, position in ps)
    if hits.size:
        r, k = divmod(int(hits[0]), len(ps))
        v = -int(X[r, ps[k]])
        raise DataError(
            f"{_row_name(ids, offsets, r)}: transformed x[{ps[k]}]={v} "
            + ("is negative" if v < 0 else "is not an int64 value")
        )
    X = X.copy()
    X[:, ps] = neg
    return Dataset.from_columns(ids, offsets, y, X, d.x_scale, note)


# ---------------------------------------------------------------------------
# CSV serialization
#
# Schema: header `household,category,occasion,y,x1,...,xP`, one row per
# (i,j,t), integers throughout.  A dataset with x_scale != 1 is preceded by a
# comment line `# x_scale=<float>` so that round trips are lossless.
# ---------------------------------------------------------------------------

def save_dataset(d: Dataset, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        if d.x_scale != 1.0:
            f.write(f"# x_scale={d.x_scale!r}\n")
        w = csv.writer(f)
        w.writerow(["household", "category", "occasion", "y"] + [f"x{p+1}" for p in range(d.P)])
        for h in d.households:
            for idx, obs in enumerate(h.observations):
                w.writerow([h.id, 1, idx + 1, obs.y] + list(obs.x))


def load_dataset(path: str) -> Dataset:
    """Load a dataset from its CSV form; inverse of :func:`save_dataset`.

    Fills the panel columns directly.  The body below the header is read by
    numpy's C tokenizer in one ``np.loadtxt`` call; a body it refuses, or
    might read otherwise than Python's ``csv`` and ``int`` do, is read by
    the ``csv`` module and one ``int`` pass over the y and x cells instead
    (see :func:`_tokenized`), so both routes load the same dataset and a bad
    value raises the same DataError naming its line.  A household's rows,
    which may be interleaved with other households' in the file, are
    gathered in file order.  A file that is not UTF-8 text raises DataError
    naming the line of its first bad byte.
    """
    try:
        return _load_dataset(path)
    except UnicodeDecodeError as e:
        raise DataError(_not_utf8(path, e)) from None


def _load_dataset(path: str) -> Dataset:
    x_scale = 1.0
    with open(path, encoding="utf-8") as f:
        first = f.readline()
        lineno = 1
        if first.startswith("# x_scale="):
            x_scale = _parse_x_scale(first.split("=", 1)[1], path)
            header_line = f.readline()
            lineno += 1
        else:
            header_line = first
        if not header_line.strip():
            raise DataError(f"{path}: no households (empty file)")
        try:
            header = next(csv.reader([header_line]))
        except csv.Error as e:  # e.g. a field over the csv module's size limit
            raise DataError(f"{path}:{lineno}: {e}") from None
        if header[:4] != ["household", "category", "occasion", "y"]:
            raise DataError(
                f"{path}:{lineno}: bad header, expected household,category,occasion,y,x1,..."
            )
        P = len(header) - 4
        if P < 1 or header[4:] != [f"x{p+1}" for p in range(P)]:
            raise DataError(f"{path}:{lineno}: bad covariate columns {header[4:]}")
        body = f.read()
    rows = _tokenized(body, P)
    ids, cols = rows if rows is not None else _csv_rows(body, P, path, lineno)
    index = dict.fromkeys(ids)  # household ids in order of first appearance
    index.update(zip(index, range(len(index))))
    number = np.fromiter(map(index.__getitem__, ids), np.int64, len(ids))
    offsets = np.zeros(len(index) + 1, dtype=np.int64)
    np.cumsum(np.bincount(number, minlength=len(index)), out=offsets[1:])
    if np.any(number[1:] < number[:-1]):  # interleaved households: gather their rows
        cols = cols[np.argsort(number, kind="stable")]
    return Dataset.from_columns(index, offsets, cols[:, 0], cols[:, 1:], x_scale=x_scale)


def _not_utf8(path: str, e: UnicodeDecodeError) -> str:
    """The message for a file that is not UTF-8 text, naming the line of the
    first byte that is not.  The reader decodes a text file in chunks, so
    ``e`` places the byte only within its chunk; the file is read again."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as whole:
        head = raw[:whole.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        line = head.count(b"\n") + 1
        return f"{path}:{line}: not UTF-8 text ({whole.reason}: byte 0x{raw[whole.start]:02x})"
    return f"{path}: not UTF-8 text ({e.reason})"  # the file changed since


# numpy's integer parser skips \x1c-\x1f as white space and reads some
# non-ASCII letters (U+01FE, for one) as digits, where int() rejects both;
# the csv module of Python 3.10 rejects NUL
_UNTOKENIZED = "\0\x1c\x1d\x1e\x1f"


def _tokenized(body: str, P: int) -> tuple[list[str], np.ndarray] | None:
    """The body's household id per row and its (n, P+1) y, x1..xP cells,
    read by numpy's C tokenizer; None where the ``csv`` route must read it.

    The tokenizer's reading is taken only when it is the one the ``csv``
    route would give: the body is ASCII with none of ``_UNTOKENIZED``, the
    tokenizer raises no ValueError and no warning (numpy < 2 reads ``3.0``
    as an int with a DeprecationWarning, and an empty body warns), and no
    field is longer than ``csv.field_size_limit()``.  Every other body,
    a bad one or one with cells only ``int`` reads (``1_0``, ``٣``), goes
    to the ``csv`` route.  The warnings filter is process-wide, so the
    call turns warnings into errors in every thread while numpy reads.
    """
    if not body.isascii() or any(c in body for c in _UNTOKENIZED):
        return None
    text = ("id", "category", "occasion")
    dtype = [(k, object) for k in text] + [("values", np.int64, (P + 1,))]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(io.StringIO(body), dtype=dtype, delimiter=",", quotechar='"',
                              comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    limit = csv.field_size_limit()
    if len(body) > limit:
        # A cell numpy reads as an int holds no comma, so it is no longer
        # than the body's longest stretch without one; a text field may
        # hold commas inside quotes, so it is measured.
        commas = np.flatnonzero(np.frombuffer(body.encode("ascii"), np.uint8) == ord(","))
        if (np.diff(commas, prepend=-1, append=len(body)).max() - 1 > limit
                or any(max(map(len, rows[k].tolist())) > limit for k in text)):
            return None
    return rows["id"].tolist(), rows["values"]


def _csv_rows(body: str, P: int, path: str, header_line: int) -> tuple[list[str], np.ndarray]:
    """:func:`_tokenized`'s result read by the ``csv`` module and ``int``;
    DataError naming the line of a bad row or value, or for a body with no
    rows.  ``header_line`` is the line number of the header above the body."""
    first_data_line = header_line + 1
    ids: list[str] = []    # household id of every row
    cells: list[str] = []  # the y, x1, ..., xP cells of every row, flattened
    blanks: list[int] = []  # rows read before each blank line

    def line_of(row: int) -> int:
        return first_data_line + row + bisect.bisect_right(blanks, row)

    reader = csv.reader(io.StringIO(body))
    try:
        for row in reader:
            if not row:
                blanks.append(len(ids))
                continue
            if len(row) != 4 + P:
                _int_cells(cells, P + 1, path, line_of)  # an earlier bad value comes first
                line = line_of(len(ids))
                raise DataError(f"{path}:{line}: expected {4+P} columns, got {len(row)}")
            ids.append(row[0])
            cells += row[3:]
    except csv.Error as e:
        raise DataError(f"{path}:{header_line + reader.line_num}: {e}") from None
    if not ids:
        raise DataError(f"{path}: no households")
    return ids, _int_cells(cells, P + 1, path, line_of).reshape(len(ids), P + 1)


def _parse_x_scale(text: str, path: str) -> float:
    """The ``# x_scale=`` header's value; DataError unless it is a finite number > 0."""
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not 0 < v < math.inf:  # NaN fails too
        raise DataError(f"{path}:1: x_scale {text.strip()!r} is not a finite number > 0")
    return v


_I64 = np.iinfo(np.int64)


def _int_cells(cells: list[str], width: int, path: str, line_of) -> np.ndarray:
    """The cells as one int64 array; a bad value raises DataError at its line."""
    try:
        return np.array(list(map(int, cells)), dtype=np.int64)
    except (ValueError, OverflowError):
        for k, cell in enumerate(cells):  # name the first bad value
            try:
                v = _parse_int(cell)
            except ValueError as e:
                raise DataError(f"{path}:{line_of(k // width)}: {e}") from None
            if not _I64.min <= v <= _I64.max:
                raise DataError(f"{path}:{line_of(k // width)}: value {cell.strip()!r} "
                                "is outside the int64 range") from None
        raise


def _parse_int(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        pass
    v = s.strip()
    try:
        int(v)
    except ValueError:
        raise ValueError(f"value {v!r} is not an integer") from None
    # str.strip drops \x1c-\x1f at the ends, where int() does not skip them
    raise ValueError(f"value {s!r} is not an integer")


def rescale_covariates(d: Dataset, factor: float) -> Dataset:
    """Multiply stored covariates by ``factor`` and round to integers.

    The factor is recorded in ``scale_note`` and folded into ``x_scale`` so
    the real covariate values are unchanged.  The products are taken in
    float64 and rounded half to even, as Python's ``round`` does; a result
    that is not finite or lies outside the int64 range raises DataError.
    """
    if factor <= 0:
        raise DataError("rescale factor must be positive")
    ids, offsets, y, X = d.columns()
    with np.errstate(invalid="ignore", over="ignore"):  # checked below
        scaled = np.rint(np.multiply(X, factor, dtype=np.float64))
    ok = (scaled >= -(2.0**63)) & (scaled < 2.0**63)  # NaN fails both
    if not ok.all():
        rows, ps = np.nonzero(~ok)
        r, p = int(rows[0]), int(ps[0])
        raise DataError(
            f"{_row_name(ids, offsets, r)}: rescaled x[{p}]="
            f"{scaled[r, p]} is not an int64 value"
        )
    note = f"rescaled by {factor}"
    if d.scale_note:
        note = d.scale_note + "; " + note
    return Dataset.from_columns(
        ids, offsets, y, scaled.astype(np.int64), x_scale=d.x_scale / factor, scale_note=note
    )


# ---------------------------------------------------------------------------
# Heterogeneity specifications
# ---------------------------------------------------------------------------

class SpecError(ValueError):
    """Invalid heterogeneity-distribution parameters."""


def _check_positive(name: str, values: Iterable[float]) -> None:
    for v in values:
        if not 0 < v < math.inf:  # NaN fails too
            raise SpecError(f"{name} must be a finite number > 0, got {v}")


@dataclass(frozen=True)
class IndependentGamma:
    """Independent per-attribute Gamma priors, optionally translated by eps."""

    b: tuple[float, ...]
    n: tuple[float, ...]
    eps: float = 0.0

    def __post_init__(self):
        if len(self.b) != len(self.n):
            raise SpecError("b and n must have the same length")
        _check_positive("b", self.b)
        _check_positive("n", self.n)
        if not 0 <= self.eps < math.inf:  # NaN fails too
            raise SpecError(f"eps must be a finite number >= 0, got {self.eps}")

    @property
    def P(self) -> int:
        return len(self.b)


@dataclass(frozen=True)
class GammaMixture:
    """Per-attribute mixtures of translated Gammas.

    ``weights[p][c]``, ``b[p][c]``, ``n[p][c]`` give component c for
    attribute p; weights sum to one for every p.
    """

    weights: tuple[tuple[float, ...], ...]
    b: tuple[tuple[float, ...], ...]
    n: tuple[tuple[float, ...], ...]
    eps: float = 0.0

    def __post_init__(self):
        if not (len(self.weights) == len(self.b) == len(self.n)):
            raise SpecError("weights, b, n must agree in attribute count")
        for p, (w, bb, nn) in enumerate(zip(self.weights, self.b, self.n)):
            if not (len(w) == len(bb) == len(nn)):
                raise SpecError(f"attribute {p}: component counts disagree")
            if not all(0 <= wc <= 1 for wc in w):
                raise SpecError(f"attribute {p}: weights must lie in [0,1]")
            if not abs(sum(w) - 1.0) <= 1e-12:
                raise SpecError(f"attribute {p}: weights sum to {sum(w)}, not 1")
            _check_positive(f"b[{p}]", bb)
            _check_positive(f"n[{p}]", nn)
        if not 0 <= self.eps < math.inf:  # NaN fails too
            raise SpecError(f"eps must be a finite number >= 0, got {self.eps}")

    @property
    def P(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class PointMassGamma:
    """All-or-nothing point mass at zero mixed with an independent-Gamma prior.

    With probability ``w`` every coefficient of every household is zero;
    otherwise all are drawn from ``inner``.
    """

    w: float
    inner: IndependentGamma

    def __post_init__(self):
        if not 0.0 <= self.w <= 1.0:
            raise SpecError("w must lie in [0,1]")
        if not isinstance(self.inner, IndependentGamma):
            raise SpecError("point_mass_gamma inner spec must be independent_gamma")

    @property
    def P(self) -> int:
        return self.inner.P


@dataclass(frozen=True)
class GeneralizedMVGamma:
    """Shared-factor multivariate Gamma: X_p = sum_m loadings[p][m]*Y0m + lam[p]*Yp."""

    loadings: tuple[tuple[float, ...], ...]  # P x M, entries >= 0
    lam: tuple[float, ...]                   # idiosyncratic scales, > 0
    theta0: tuple[float, ...]                # shared shapes, length M, > 0
    theta: tuple[float, ...]                 # idiosyncratic shapes, > 0

    def __post_init__(self):
        P = len(self.lam)
        M = len(self.theta0)
        if len(self.loadings) != P or len(self.theta) != P:
            raise SpecError("loadings/theta must have one row per attribute")
        for p, row in enumerate(self.loadings):
            if len(row) != M:
                raise SpecError(f"loadings row {p} has length {len(row)}, expected {M}")
            if not all(v >= 0 for v in row):
                raise SpecError(f"loadings row {p} has a negative or NaN entry")
        _check_positive("lam", self.lam)
        _check_positive("theta0", self.theta0)
        _check_positive("theta", self.theta)

    @property
    def P(self) -> int:
        return len(self.lam)

    @property
    def M(self) -> int:
        return len(self.theta0)


@dataclass(frozen=True)
class CheriyanRamabhadran:
    theta0: float
    theta1: float
    theta2: float

    def __post_init__(self):
        _check_positive("theta", (self.theta0, self.theta1, self.theta2))

    P = 2


@dataclass(frozen=True)
class Freund:
    alpha1: float
    alpha2: float
    alpha1p: float
    alpha2p: float

    def __post_init__(self):
        _check_positive("alpha", (self.alpha1, self.alpha2, self.alpha1p, self.alpha2p))

    P = 2


@dataclass(frozen=True)
class ArnoldStrauss:
    lam1: float
    lam2: float
    lam12: float

    def __post_init__(self):
        _check_positive("lam", (self.lam1, self.lam2, self.lam12))

    P = 2


BivariateNamed = CheriyanRamabhadran | Freund | ArnoldStrauss
HeterogeneitySpec = (
    IndependentGamma
    | GammaMixture
    | PointMassGamma
    | GeneralizedMVGamma
    | BivariateNamed
)


_FAMILIES = {
    "independent_gamma": IndependentGamma,
    "gamma_mixture": GammaMixture,
    "point_mass_gamma": PointMassGamma,
    "generalized_mv_gamma": GeneralizedMVGamma,
    "cheriyan_ramabhadran": CheriyanRamabhadran,
    "freund": Freund,
    "arnold_strauss": ArnoldStrauss,
}


def spec_to_dict(spec: HeterogeneitySpec) -> dict:
    """The spec as JSON-ready data: its family name and its fields, tuples as lists."""
    d: dict = {"family": next(k for k, cls in _FAMILIES.items() if type(spec) is cls)}
    for f in dataclasses.fields(spec):
        d[f.name] = _to_json(getattr(spec, f.name))
    return d


def _to_json(v):
    if isinstance(v, (tuple, list)):
        return [_to_json(e) for e in v]
    return spec_to_dict(v) if dataclasses.is_dataclass(v) else v


def spec_from_dict(d) -> HeterogeneitySpec:
    """Inverse of :func:`spec_to_dict`.  Raises SpecError for data that is not
    an object, a missing or unknown family, a missing or unknown key, or a
    value of the wrong shape."""
    if not isinstance(d, dict):
        raise SpecError(f"spec must be a JSON object, got {type(d).__name__}")
    if "family" not in d:
        raise SpecError("spec JSON missing 'family' discriminator")
    family = d["family"]
    if not isinstance(family, str) or family not in _FAMILIES:
        raise SpecError(f"unknown family {family!r}")
    fields = dataclasses.fields(_FAMILIES[family])
    names = [f.name for f in fields]
    unknown = [k for k in d if k not in names and k != "family"]
    missing = [f.name for f in fields if f.name not in d and f.default is dataclasses.MISSING]
    for what, keys in (("unknown", unknown), ("missing", missing)):
        if keys:
            raise SpecError(f"{family}: {what} key(s) {', '.join(map(repr, keys))}"
                            f" (its keys are {', '.join(names)})")
    try:
        return _FAMILIES[family](**{k: _from_json(v) for k, v in d.items() if k != "family"})
    except TypeError as e:  # a value of the wrong shape, e.g. a number for a list
        raise SpecError(f"{family}: a value has the wrong shape ({e})") from None


def _from_json(v):
    if isinstance(v, list):
        return tuple(map(_from_json, v))
    if isinstance(v, bool):  # an int to Python, but no parameter is a bool
        raise TypeError(f"{json.dumps(v)} is not a number")
    return spec_from_dict(v) if isinstance(v, dict) else v


def load_spec(path: str) -> HeterogeneitySpec:
    """The spec in the JSON file ``path``.  SpecError naming the path for a
    file that is not UTF-8 text or not JSON, and :func:`spec_from_dict`'s
    SpecError for JSON that is no valid spec."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except UnicodeDecodeError as e:
        raise SpecError(_not_utf8(path, e)) from None
    except json.JSONDecodeError as e:
        raise SpecError(f"{path}:{e.lineno}: not JSON ({e.msg}, column {e.colno})") from None
    return spec_from_dict(data)


def save_spec(spec: HeterogeneitySpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(spec_to_dict(spec), f, indent=2)
        f.write("\n")
