"""Domain types, validation, and dataset I/O.

Datasets hold binary outcomes ``y`` and non-negative integer covariates for a
panel of households.  Covariates are stored as integers; a per-dataset
``x_scale`` factor maps the stored integers to the real covariate values used
by the likelihood (real value = ``x_scale`` * stored integer).  All types are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence


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


@dataclass(frozen=True)
class Dataset:
    """A panel of households with a common attribute count ``P``.

    ``x_scale`` is the factor applied to the stored integer covariates to
    recover the real covariate values; ``scale_note`` records how the integer
    recoding was produced (rescaling factor, sign flips applied at ingestion).
    """

    households: tuple[Household, ...]
    P: int
    x_scale: float = 1.0
    scale_note: str | None = None


@dataclass(frozen=True)
class Violation:
    household: str
    obs_index: int | None
    rule: str
    message: str


def validate_dataset(d: Dataset) -> list[Violation]:
    """Check every observation against the model's data restrictions.

    Returns a list of violations (empty iff the dataset is acceptable to all
    downstream operations): y must be 0 or 1, covariates must be non-negative
    integers, each observation needs at least one positive covariate, and all
    observations must share the dataset's attribute count.
    """
    out: list[Violation] = []
    if len(d.households) < 1:
        out.append(Violation("", None, "nonempty", "dataset has no households"))
    for h in d.households:
        if h.n_obs == 0:
            out.append(Violation(h.id, None, "nonempty", "household has no observations"))
        for idx, obs in enumerate(h.observations):
            if obs.y not in (0, 1):
                out.append(Violation(h.id, idx, "y-binary", f"y={obs.y} not in {{0,1}}"))
            if len(obs.x) != d.P:
                out.append(
                    Violation(h.id, idx, "P-uniform", f"len(x)={len(obs.x)} != P={d.P}")
                )
                continue
            for p, xv in enumerate(obs.x):
                if not isinstance(xv, int) or isinstance(xv, bool):
                    out.append(
                        Violation(h.id, idx, "x-integer", f"x[{p}]={xv!r} is not an integer")
                    )
                elif xv < 0:
                    out.append(
                        Violation(h.id, idx, "x-nonnegative", f"x[{p}]={xv} < 0")
                    )
            if all(isinstance(xv, int) and xv == 0 for xv in obs.x):
                # An all-zero row would expand 1/(1+1); rejected rather than
                # special-cased (use drop_degenerate to remove such rows).
                out.append(
                    Violation(h.id, idx, "x-nonzero", "all covariates are zero")
                )
    return out


def drop_degenerate(d: Dataset) -> Dataset:
    """Remove all-zero covariate rows (and then any empty households)."""
    hs = []
    for h in d.households:
        obs = tuple(o for o in h.observations if any(v != 0 for v in o.x))
        if obs:
            hs.append(Household(h.id, obs))
    return replace(d, households=tuple(hs))


def recode_negative(
    d: Dataset,
    flip: set[int],
    transform: Callable[[int], float] | None = None,
) -> Dataset:
    """Recode selected attributes so the positivity convention holds.

    Applies ``transform`` (default: negation) to every covariate of the
    flagged attributes.  The result must stay a non-negative integer.
    """
    if transform is None:
        transform = lambda v: -v  # noqa: E731
    bad = [p for p in flip if p < 0 or p >= d.P]
    if bad:
        raise DataError(f"flip indices out of range for P={d.P}: {bad}")
    hs = []
    for h in d.households:
        obs = []
        for idx, o in enumerate(h.observations):
            x = list(o.x)
            for p in flip:
                v = transform(x[p])
                if v != int(v):
                    raise DataError(
                        f"household {h.id} obs {idx}: transformed x[{p}]={v} is not an integer"
                    )
                v = int(v)
                if v < 0:
                    raise DataError(
                        f"household {h.id} obs {idx}: transformed x[{p}]={v} is negative"
                    )
                x[p] = v
            obs.append(Observation(o.y, tuple(x)))
        hs.append(Household(h.id, tuple(obs)))
    note = f"recoded attributes {sorted(flip)}" if flip else None
    if flip:
        note = (d.scale_note + "; " + note) if d.scale_note else note
    else:
        note = d.scale_note
    return replace(d, households=tuple(hs), scale_note=note)


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
    """Load a dataset from its CSV form; inverse of :func:`save_dataset`."""
    x_scale = 1.0
    with open(path, encoding="utf-8") as f:
        first = f.readline()
        lineno = 1
        if first.startswith("# x_scale="):
            x_scale = float(first.split("=", 1)[1])
            header_line = f.readline()
            lineno += 1
        else:
            header_line = first
        if not header_line.strip():
            raise DataError(f"{path}: no households (empty file)")
        header = next(csv.reader([header_line]))
        if header[:4] != ["household", "category", "occasion", "y"]:
            raise DataError(
                f"{path}:{lineno}: bad header, expected household,category,occasion,y,x1,..."
            )
        P = len(header) - 4
        if P < 1 or header[4:] != [f"x{p+1}" for p in range(P)]:
            raise DataError(f"{path}:{lineno}: bad covariate columns {header[4:]}")
        rows: dict[str, list[Observation]] = {}  # households in order of first appearance
        for row in csv.reader(f):
            lineno += 1
            if not row:
                continue
            if len(row) != 4 + P:
                raise DataError(f"{path}:{lineno}: expected {4+P} columns, got {len(row)}")
            try:
                y, *x = _parse_ints(row[3:])
            except ValueError as e:
                raise DataError(f"{path}:{lineno}: {e}") from None
            obs = rows.get(row[0])
            if obs is None:
                rows[row[0]] = obs = []
            obs.append(Observation(y, tuple(x)))
    if not rows:
        raise DataError(f"{path}: no households")
    hs = tuple([Household(hid, tuple(obs)) for hid, obs in rows.items()])
    return Dataset(hs, P, x_scale=x_scale)


def _parse_ints(cells: list[str]) -> list[int]:
    try:
        return list(map(int, cells))
    except ValueError:
        return [_parse_int(v) for v in cells]  # names the bad value


def _parse_int(s: str) -> int:
    v = s.strip()
    try:
        return int(v)
    except ValueError:
        raise ValueError(f"value {v!r} is not an integer") from None


def rescale_covariates(d: Dataset, factor: float) -> Dataset:
    """Multiply stored covariates by ``factor`` and round to integers.

    The factor is recorded in ``scale_note`` and folded into ``x_scale`` so
    the real covariate values are unchanged.
    """
    if factor <= 0:
        raise DataError("rescale factor must be positive")
    hs = []
    for h in d.households:
        obs = tuple(
            Observation(o.y, tuple(int(round(v * factor)) for v in o.x))
            for o in h.observations
        )
        hs.append(Household(h.id, obs))
    note = f"rescaled by {factor}"
    if d.scale_note:
        note = d.scale_note + "; " + note
    return Dataset(tuple(hs), d.P, x_scale=d.x_scale / factor, scale_note=note)


# ---------------------------------------------------------------------------
# Heterogeneity specifications
# ---------------------------------------------------------------------------

class SpecError(ValueError):
    """Invalid heterogeneity-distribution parameters."""


def _check_positive(name: str, values: Iterable[float]) -> None:
    for v in values:
        if not v > 0:
            raise SpecError(f"{name} must be strictly positive, got {v}")


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
        if self.eps < 0:
            raise SpecError("eps must be non-negative")

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
            if any(wc < 0 or wc > 1 for wc in w):
                raise SpecError(f"attribute {p}: weights must lie in [0,1]")
            if abs(sum(w) - 1.0) > 1e-12:
                raise SpecError(f"attribute {p}: weights sum to {sum(w)}, not 1")
            _check_positive(f"b[{p}]", bb)
            _check_positive(f"n[{p}]", nn)
        if self.eps < 0:
            raise SpecError("eps must be non-negative")

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
            if any(v < 0 for v in row):
                raise SpecError(f"loadings row {p} has a negative entry")
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
    name = next(k for k, cls in _FAMILIES.items() if type(spec) is cls)
    d: dict = {"family": name}
    if isinstance(spec, IndependentGamma):
        d.update(b=list(spec.b), n=list(spec.n), eps=spec.eps)
    elif isinstance(spec, GammaMixture):
        d.update(
            weights=[list(w) for w in spec.weights],
            b=[list(b) for b in spec.b],
            n=[list(n) for n in spec.n],
            eps=spec.eps,
        )
    elif isinstance(spec, PointMassGamma):
        d.update(w=spec.w, inner=spec_to_dict(spec.inner))
    elif isinstance(spec, GeneralizedMVGamma):
        d.update(
            loadings=[list(r) for r in spec.loadings],
            lam=list(spec.lam),
            theta0=list(spec.theta0),
            theta=list(spec.theta),
        )
    elif isinstance(spec, CheriyanRamabhadran):
        d.update(theta0=spec.theta0, theta1=spec.theta1, theta2=spec.theta2)
    elif isinstance(spec, Freund):
        d.update(
            alpha1=spec.alpha1, alpha2=spec.alpha2,
            alpha1p=spec.alpha1p, alpha2p=spec.alpha2p,
        )
    elif isinstance(spec, ArnoldStrauss):
        d.update(lam1=spec.lam1, lam2=spec.lam2, lam12=spec.lam12)
    return d


def spec_from_dict(d: dict) -> HeterogeneitySpec:
    try:
        family = d["family"]
    except KeyError:
        raise SpecError("spec JSON missing 'family' discriminator") from None
    if family not in _FAMILIES:
        raise SpecError(f"unknown family {family!r}")
    body = {k: v for k, v in d.items() if k != "family"}

    def tup(v):
        return tuple(tuple(row) for row in v) if v and isinstance(v[0], list) else tuple(v)

    if family == "independent_gamma":
        return IndependentGamma(tuple(body["b"]), tuple(body["n"]), body.get("eps", 0.0))
    if family == "gamma_mixture":
        return GammaMixture(
            tup(body["weights"]), tup(body["b"]), tup(body["n"]), body.get("eps", 0.0)
        )
    if family == "point_mass_gamma":
        inner = spec_from_dict(body["inner"])
        if not isinstance(inner, IndependentGamma):
            raise SpecError("point_mass_gamma inner spec must be independent_gamma")
        return PointMassGamma(body["w"], inner)
    if family == "generalized_mv_gamma":
        return GeneralizedMVGamma(
            tup(body["loadings"]), tuple(body["lam"]),
            tuple(body["theta0"]), tuple(body["theta"]),
        )
    return _FAMILIES[family](**body)


def load_spec(path: str) -> HeterogeneitySpec:
    with open(path, encoding="utf-8") as f:
        return spec_from_dict(json.load(f))


def save_spec(spec: HeterogeneitySpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(spec_to_dict(spec), f, indent=2)
        f.write("\n")
