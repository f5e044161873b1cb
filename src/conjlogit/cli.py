"""Command-line interface.

Subcommands: simulate, precompute, fit, eval, oracle-check, study, plotdata.
Every run is deterministic given its flags and seed.  Exit codes: 0 success,
2 usage/validation error, 3 a count cache too large to build (``BudgetError``:
more knapsack states than ``diophantine.MAX_STATES``, or counts beyond
int64), 4 numerical failure.  Failures print a machine-readable JSON object
on stderr:

    {"error": {"type": "<exception class>", "message": "...", "exit_code": N}}

A JSON config file (``--config``) may supply any subcommand flag as a
default; explicit flags win, and a key that is no subcommand's flag is a
usage error.  Cache files live in ``--cache-dir``, the ``CONJLOGIT_CACHE_DIR``
environment variable, or ``./caches``, in that order of precedence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .data_model import (
    DataError,
    Dataset,
    IndependentGamma,
    SpecError,
    drop_degenerate,
    load_dataset,
    load_spec,
    recode_negative,
    rescale_covariates,
    save_dataset,
    save_spec,
    validate_dataset,
)
from .diophantine import (
    BudgetError,
    CACHE_FORMAT_VERSION,
    CacheFileError,
    build_caches,
    canonical_x_vectors,
    fnv1a_x_vectors,
    load_cache,
    save_cache,
)
from .optimizer import (
    FitError,
    GridAxis,
    GridError,
    GridSpec,
    grid_fit,
    grid_logliks,
    newton_fit,
    params_to_spec,
)
from .oracle import QuadConfig, ToleranceNotMet, mc_h, quadrature_h
from .series import (
    HouseholdSums,
    PreparedDataset,
    SeriesConfig,
    TruncationFailure,
    group_h,
    group_households,
    log_marginal_and_spread,
    prepare_dataset,
)
from .sim import SimDesign, check_study, run_study, simulate_dataset

from . import __version__

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_NUMERIC = 4


def _fail(exc: Exception, code: int) -> int:
    payload = {
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "exit_code": code,
        }
    }
    print(json.dumps(payload), file=sys.stderr)
    return code


def _cache_dir(args) -> str:
    return (
        getattr(args, "cache_dir", None)
        or os.environ.get("CONJLOGIT_CACHE_DIR")
        or "caches"
    )


def _cache_path(cache_dir: str, x_hash: int, R: int) -> str:
    """Cache file of the signature whose ``fnv1a_x_vectors`` is ``x_hash``."""
    return os.path.join(cache_dir, f"dio_{x_hash:016x}_R{R}.bin")


def _parse_list(flag: str, text: str, kind=float, sep: str = ",") -> list:
    """The ``sep``-separated values of ``flag``, each converted by ``kind``.

    Raises DataError naming the flag and its value when the value is empty,
    has an empty item, or has an item that ``kind`` does not parse.
    """
    try:
        return [kind(v) for v in text.split(sep)]
    except ValueError:
        what = "integers" if kind is int else "numbers"
        raise DataError(f"{flag} needs {what} separated by {sep!r}, got {text!r}") from None


def _param_names(P: int) -> list[str]:
    return [f"{k}{p + 1}" for p in range(P) for k in ("b", "n")]


GRID_FLAGS = {"center": "--center", "count": "--grid", "spacing": "--spacing"}


def _grid_from_args(args, P: int) -> GridSpec:
    if args.center is None:
        raise SpecError("--center is required (or --center-at-truth)")
    counts = _parse_list("--grid", args.grid.lower(), int, "x")
    if len(counts) == 1:
        counts = counts * (2 * P)
    if len(counts) == 2 and P > 1:
        counts = counts * P
    spacings = _parse_list("--spacing", args.spacing)
    if len(spacings) == 1:
        spacings = spacings * (2 * P)
    centers = _parse_list("--center", args.center)
    if len(centers) != 2 * P or len(counts) != 2 * P or len(spacings) != 2 * P:
        raise SpecError(
            f"grid needs {2*P} axes (b1,n1,...,b{P},n{P}); "
            f"got {len(counts)} counts, {len(spacings)} spacings, {len(centers)} centers"
        )
    axes = []
    for name, c, k, s in zip(_param_names(P), centers, counts, spacings):
        try:
            axes.append(GridAxis(c, k, s))
        except GridError as e:
            flags = " and ".join(GRID_FLAGS[f] for f in e.fields)
            raise SpecError(f"{flags}, axis {name}: {e}") from None
    return GridSpec(tuple(axes))


def _true_spec(args) -> IndependentGamma:
    """The prior of ``--b``, ``--n`` and ``--eps``; a single b or n applies
    to all ``--P`` attributes."""
    if args.P < 1:
        raise SpecError(f"--P must be at least 1, got {args.P}")
    b = _parse_list("--b", args.b)
    n = _parse_list("--n", args.n)
    if len(b) == 1:
        b = b * args.P
    if len(n) == 1:
        n = n * args.P
    return IndependentGamma(tuple(b), tuple(n), args.eps)


def _load_data(args) -> Dataset:
    d = load_dataset(args.data)
    if getattr(args, "rescale", None) is not None:
        d = rescale_covariates(d, args.rescale)
    if getattr(args, "drop_degenerate", False):
        d = drop_degenerate(d)
    if getattr(args, "recode_negative", None):
        d = recode_negative(d, set(_parse_list("--recode-negative", args.recode_negative, int)))
    violations = validate_dataset(d)
    if violations:
        raise DataError(
            "dataset failed validation: "
            + "; ".join(str(v) for v in violations[:5])
            + (f" (+{len(violations)-5} more)" if len(violations) > 5 else "")
        )
    return d


def _signatures(groups: dict[HouseholdSums, int]) -> dict[tuple, int]:
    """Households per x signature, in order of first appearance, from
    :func:`group_households`."""
    sigs: dict[tuple, int] = {}
    for sums, mult in groups.items():
        sigs[sums.x_vectors] = sigs.get(sums.x_vectors, 0) + mult
    return sigs


def _prepare(d: Dataset, cfg: SeriesConfig, cache_dir: str) -> PreparedDataset:
    """Group the households once, load one budget-R cache found in
    ``cache_dir`` per canonical signature, and build the rest.

    Files are keyed by ordered signature; the first ordering of a canonical
    signature whose file exists is read, and ``prepare_dataset`` relabels
    it to the canonical signature."""
    groups = group_households(d)
    caches = {}
    found = set()
    for xv in _signatures(groups[0]):
        canon = canonical_x_vectors(xv)
        if canon in found:
            continue
        x_hash = fnv1a_x_vectors(xv)
        path = _cache_path(cache_dir, x_hash, cfg.R)
        if os.path.exists(path):
            caches[xv] = load_cache(path, expect_x_vectors=xv, expect_hash=x_hash)
            found.add(canon)
    return prepare_dataset(d, cfg, caches, groups=groups)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    P = args.P
    spec = _true_spec(args)
    design = SimDesign(
        I=args.I, J=args.J, N=args.N, P=P, true_spec=spec,
        grid=GridSpec((GridAxis(spec.b[0], 1, 1.0),) * (2 * P)),  # unused by simulate
        R=1, c=args.scale, x_support=tuple(_parse_list("--x-support", args.x_support, int)),
        seed=args.seed,
    )
    d = simulate_dataset(design, args.replicate)
    save_dataset(d, args.output)
    if args.truth:
        save_spec(spec, args.truth)
    print(f"wrote {len(d.households)} households to {args.output}")
    return EXIT_OK


def cmd_precompute(args) -> int:
    SeriesConfig(R=args.R)  # rejects a negative budget, dry run or not
    d = _load_data(args)
    cache_dir = _cache_dir(args)
    plans = [(xv, fnv1a_x_vectors(xv), n_households)
             for xv, n_households in _signatures(group_households(d)[0]).items()]
    print("".join(f"signature {x_hash:016x}: {n_households} households, M={len(xv[0])}\n"
                  for xv, x_hash, n_households in plans), end="")
    if args.dry_run:
        print("dry run: no caches built")
        return EXIT_OK
    built = reused = rebuilt = 0
    missing: dict[tuple, list] = {}  # canonical signature -> (xv, path) of files to write
    for xv, x_hash, _ in plans:
        path = _cache_path(cache_dir, x_hash, args.R)
        if os.path.exists(path):
            try:
                R = load_cache(path, expect_x_vectors=xv, expect_hash=x_hash).R  # hash check
            except CacheFileError:
                R = None  # old format, truncated or corrupt
            if R == args.R:
                reused += 1
                continue
            rebuilt += 1  # unreadable, or built at another budget: overwrite it
        missing.setdefault(canonical_x_vectors(xv), []).append((xv, path))
    # every canonical signature is built, in one call, before any file is
    # written, so a BudgetError leaves the directory as it was; each
    # ordering's file holds the same counts under its own x_vectors
    caches = dict(zip(missing, build_caches(list(missing), args.R)))
    os.makedirs(cache_dir, exist_ok=True)
    for canon, files in missing.items():
        for xv, path in files:
            save_cache(caches[canon].relabel(xv), path)
        built += len(files)
    summary = f"built {built} cache(s), reused {reused}"
    if rebuilt:
        summary += f", rebuilt {rebuilt} unreadable or of another budget"
    print(f"{summary}, {len(missing)} canonical signature(s) counted, dir {cache_dir}")
    return EXIT_OK


def cmd_fit(args) -> int:
    d = _load_data(args)
    grid = _grid_from_args(args, d.P)
    prep = _prepare(d, SeriesConfig(R=args.R), _cache_dir(args))
    res = grid_fit(prep, grid, eps=args.eps)
    if args.newton:
        res = replace(
            newton_fit(prep, params_to_spec(res.omega_hat, d.P, args.eps)),
            dropped=res.dropped,
        )
    if args.output:
        with open(args.output, "w") as f:
            f.write(res.to_json())
    print("param  estimate")
    for name, v in zip(_param_names(d.P), res.omega_hat):
        print(f"{name:>5}  {v:.6g}")
    print(f"loglik {res.loglik:.6f}  boundary={res.boundary_flag}  "
          f"parity_spread={res.parity_spread:.3g}")
    if res.dropped:
        print(f"dropped {res.dropped} of {grid.cardinality} grid point(s) for truncation")
    if not res.converged:
        print(f"newton: not converged after {res.newton_iters} iteration(s)")
    return EXIT_OK


def cmd_eval(args) -> int:
    d = _load_data(args)
    spec = load_spec(args.spec)
    prep = _prepare(d, SeriesConfig(R=args.R), _cache_dir(args))
    ev, spread = log_marginal_and_spread(prep, spec)
    out = {
        "loglik": ev.value,
        "terms": ev.terms,
        "parity_spread": float(spread.max(initial=0.0)),
        "R": args.R,
    }
    print(json.dumps(out, indent=2))
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    if args.max_households < 1:
        raise ValueError(f"--max-households must be at least 1, got {args.max_households}")
    d = _load_data(args)
    spec = load_spec(args.spec)
    cfg = SeriesConfig(R=args.R)
    prep = _prepare(d, cfg, _cache_dir(args))
    H = group_h(prep, spec)
    rows = []
    all_ok = True
    for i, series in zip(prep.first[: args.max_households], H.tolist()):
        h = d.households[i]
        try:
            quad = quadrature_h(h, spec, QuadConfig(rel_tol=1e-10), d.x_scale)
        except (SpecError, ToleranceNotMet):
            quad = None
        mc, se = mc_h(h, spec, args.mc_draws, args.seed, d.x_scale)
        rel_q = abs(series - quad) / abs(quad) if quad else None
        z_mc = abs(series - mc) / se if se > 0 else 0.0
        ok = (rel_q is None or rel_q < args.rel_tol) and z_mc < 5.0
        all_ok &= ok
        rows.append((h.id, series, quad, mc, rel_q, z_mc, ok))
    print(f"{'household':>10} {'series':>13} {'quadrature':>13} {'mc':>13} "
          f"{'rel(quad)':>10} {'z(mc)':>7} pass")
    for hid, s, q, m, rq, z, ok in rows:
        qs = f"{q:13.6e}" if q is not None else f"{'n/a':>13}"
        rqs = f"{rq:10.2e}" if rq is not None else f"{'n/a':>10}"
        print(f"{hid:>10} {s:13.6e} {qs} {m:13.6e} {rqs} {z:7.2f} "
              f"{'ok' if ok else 'FAIL'}")
    if not all_ok:
        raise FitError("oracle check failed for at least one household")
    return EXIT_OK


def cmd_study(args) -> int:
    P = args.P
    spec = _true_spec(args)
    if args.center_at_truth:
        centers = [v for pair in zip(spec.b, spec.n) for v in pair]
        args.center = ",".join(str(v) for v in centers)
    grid = _grid_from_args(args, P)
    design = SimDesign(
        I=args.I, J=args.J, N=args.N, P=P, true_spec=spec, grid=grid,
        R=args.R, c=args.scale,
        x_support=tuple(_parse_list("--x-support", args.x_support, int)),
        replicates=args.replicates, seed=args.seed,
    )
    check_study(design, args.n_tests)
    with open(args.output, "w", newline="") as f:  # an unwritable -o fails before the study
        report = run_study(design, n_tests=args.n_tests)
        report.write_csv(f)
    print(f"{'param':>6} {'truth':>8} {'mean':>10} {'sd':>10} {'t':>8} "
          f"{'crit':>6} pass")
    for r in report.rows:
        print(f"{r.param:>6} {r.truth:8.3f} {r.mean:10.4f} {r.sd:10.4f} "
              f"{r.t:8.3f} {r.crit:6.3f} {'ok' if r.passed else 'FAIL'}")
    print(f"boundary hits: {report.boundary_hits}/{design.replicates}; "
          f"report written to {args.output}")
    return EXIT_OK if report.all_pass else EXIT_NUMERIC


def cmd_plotdata(args) -> int:
    d = _load_data(args)
    grid = _grid_from_args(args, d.P)
    cfg = SeriesConfig(R=args.R)
    values = grid_logliks(_prepare(d, cfg, _cache_dir(args)), grid, args.eps)
    with open(args.output, "w") as f:
        f.write(",".join(_param_names(d.P)) + ",loglik\n")
        for params, ll in zip(grid.points(), values.tolist()):
            # a point that failed truncation is NaN, which prints as nan
            f.write(",".join(f"{v:.10g}" for v in params) + f",{ll:.10g}\n")
    print(f"wrote {len(values)} rows to {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_data_flags(p):
    p.add_argument("--data", required=True, help="panel CSV file")
    p.add_argument("--rescale", type=float, default=None,
                   help="multiply covariates by this factor and round to integers")
    p.add_argument("--drop-degenerate", action="store_true",
                   help="drop all-zero covariate rows instead of rejecting")
    p.add_argument("--recode-negative", default=None, metavar="P1,P2,...",
                   help="negate every covariate of these 0-based attribute indices "
                        "(comma list) before validation")
    p.add_argument("--cache-dir", default=None)


def _add_grid_flags(p):
    p.add_argument("--grid", default="5x7",
                   help="axis point counts, e.g. 5x7 or 4x4x4x4")
    p.add_argument("--spacing", default="0.1", help="axis spacing(s), comma list")
    p.add_argument("--center", default=None, help="axis centers b1,n1,...")


def _simulate_flags(p):
    p.add_argument("--I", type=int, required=True)
    p.add_argument("--J", type=int, default=1)
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--P", type=int, default=1)
    p.add_argument("--b", required=True, help="true scale(s), comma list")
    p.add_argument("--n", required=True, help="true shape(s), comma list")
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--scale", type=float, default=0.01,
                   help="real covariate = scale * stored integer")
    p.add_argument("--x-support", default="1,2,3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicate", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--truth", default=None, help="write the true spec JSON here")
    p.set_defaults(func=cmd_simulate)


def _precompute_flags(p):
    _add_data_flags(p)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--dry-run", action="store_true",
                   help="list each signature's hash, household count and M; build nothing")
    p.set_defaults(func=cmd_precompute)


def _fit_flags(p):
    _add_data_flags(p)
    _add_grid_flags(p)
    p.add_argument("--R", type=int, default=100)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--newton", action="store_true")
    p.add_argument("-o", "--output", default=None, help="FitResult JSON path")
    p.set_defaults(func=cmd_fit)


def _eval_flags(p):
    _add_data_flags(p)
    p.add_argument("--spec", required=True, help="heterogeneity spec JSON")
    p.add_argument("--R", type=int, default=100)
    p.set_defaults(func=cmd_eval)


def _oracle_check_flags(p):
    _add_data_flags(p)
    p.add_argument("--spec", required=True)
    p.add_argument("--R", type=int, default=200)
    p.add_argument("--rel-tol", type=float, default=5e-3)
    p.add_argument("--mc-draws", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-households", type=int, default=10)
    p.set_defaults(func=cmd_oracle_check)


def _study_flags(p):
    p.add_argument("--I", type=int, default=1000)
    p.add_argument("--J", type=int, default=1)
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--P", type=int, default=1)
    p.add_argument("--b", default="5")
    p.add_argument("--n", default="14")
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--scale", type=float, default=0.01)
    p.add_argument("--x-support", default="1,2,3")
    p.add_argument("--R", type=int, default=100)
    p.add_argument("--replicates", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-tests", type=int, default=None,
                   help="Bonferroni family size (default 2P)")
    _add_grid_flags(p)
    p.add_argument("--center-at-truth", action="store_true",
                   help="center the grid at the true parameters")
    p.add_argument("-o", "--output", default="study.csv")
    p.set_defaults(func=cmd_study)


def _plotdata_flags(p):
    _add_data_flags(p)
    _add_grid_flags(p)
    p.add_argument("--R", type=int, default=100)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_plotdata)


# name: (help line, function that adds the flags), in help order
SUBCOMMANDS = {
    "simulate": ("draw a synthetic panel dataset", _simulate_flags),
    "precompute": ("build per-signature count caches", _precompute_flags),
    "fit": ("grid (optionally Newton-refined) fit", _fit_flags),
    "eval": ("log marginal likelihood with diagnostics", _eval_flags),
    "oracle-check": ("series vs quadrature vs Monte Carlo table", _oracle_check_flags),
    "study": ("parameter-recovery simulation study", _study_flags),
    "plotdata": ("CSV of the log-likelihood grid surface", _plotdata_flags),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``conjlogit`` argument parser, with every subcommand, or with
    ``command`` only.

    Building a subcommand's parser costs far more than parsing its flags,
    so :func:`main` registers only the invoked one.  Its usage names every
    subcommand (a metavar built from ``SUBCOMMANDS``, as argparse builds the
    full parser's), so usage, help and errors read as the full parser's do.
    """
    ap = argparse.ArgumentParser(
        prog="conjlogit",
        description="Closed-form marginal likelihood for heterogeneous binary logit panels",
    )
    ap.add_argument(
        "--version", action="version",
        version=f"conjlogit {__version__} (cache-format {CACHE_FORMAT_VERSION})",
    )
    ap.add_argument("--config", default=None,
                    help="JSON file of flag defaults (explicit flags win)")
    # The full parser keeps argparse's own metavar: a missing subcommand,
    # which only the full parser sees, is then reported as "command".
    metavar = None if command is None else "{" + ",".join(SUBCOMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_line, add_flags) in SUBCOMMANDS.items():
        if command in (None, name):
            add_flags(sub.add_parser(name, help=help_line))
    return ap


def _invoked(argv: list[str]) -> str | None:
    """The subcommand when ``argv`` starts with it, after at most a
    ``--config FILE``; None otherwise, and the full parser reads ``argv``."""
    i = 0
    if argv[:1] == ["--config"]:
        i = 2
    elif argv and argv[0].startswith("--config="):
        i = 1
    return argv[i] if i < len(argv) and argv[i] in SUBCOMMANDS else None


def _apply_config(parser: argparse.ArgumentParser, path: str) -> None:
    """Make the JSON object in the file ``path`` the subcommands' flag
    defaults; explicit flags win.

    Subcommands parse into a fresh namespace, so each subparser gets the
    keys that are its own flags.  A switch such as ``newton`` takes
    true or false; any other value is passed as a string, so the flag's
    type parses it as it would on the command line.  OSError or ValueError
    for an unreadable file, a file that is not a JSON object, a null value,
    a switch that is not true or false, or a key that is no subcommand's
    flag (a misspelt or removed flag would otherwise change nothing and say
    nothing).
    """
    with open(path) as f:
        try:
            overlay = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"config file {path} is not JSON: {e}") from None
    if not isinstance(overlay, dict):
        raise ValueError(f"config file {path} does not hold a JSON object")
    subs = [sub for action in parser._subparsers._group_actions
            for sub in action.choices.values()]
    flags = [{a.dest: a for a in sub._actions if not isinstance(a, argparse._HelpAction)}
             for sub in subs]
    unknown = [k for k in overlay if not any(k.replace("-", "_") in f for f in flags)]
    if unknown:
        raise ValueError(f"config file {path}: no subcommand has a flag for key(s) "
                         + ", ".join(map(repr, unknown)))
    for key, value in overlay.items():
        if value is None:  # str(None) would reach the flag's type as "None"
            raise ValueError(f"config file {path}: {key!r} is null; give it a value "
                             "or leave it out")
        dest = key.replace("-", "_")
        for sub, f in zip(subs, flags):
            if dest not in f:
                continue
            if f[dest].nargs != 0:
                sub.set_defaults(**{dest: str(value)})
            elif isinstance(value, bool):
                sub.set_defaults(**{dest: value})
            else:
                raise ValueError(f"config file {path}: {key!r} must be true or false")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser(_invoked(argv)).parse_args(argv)
    if args.config is not None:
        # the file's values become defaults, so the flags are parsed again;
        # the file's keys are checked against every subcommand's flags
        parser = build_parser()
        try:
            _apply_config(parser, args.config)
        except (OSError, ValueError) as e:
            return _fail(e, EXIT_USAGE)
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as e:
        return _fail(e, EXIT_RESOURCE)
    except (TruncationFailure, FitError, ToleranceNotMet,
            OverflowError, ZeroDivisionError) as e:
        return _fail(e, EXIT_NUMERIC)
    except (DataError, SpecError, ValueError, OSError, CacheFileError) as e:
        return _fail(e, EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
