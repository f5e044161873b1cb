"""Correctness checks.  Each returns a list of failure messages (empty = pass).

They compare the program's outputs with values computed apart from the
series code (quadrature, Gauss-Laguerre, Monte Carlo, closed-form counts),
never with a stored copy of earlier output.  They take plain values so the
self-test can feed them wrong ones.
"""

from __future__ import annotations

import math

# Largest relative error allowed on any per-household factor H_i.  The
# series' own truncation error is 3e-8 at worst on these panels; 1e-6 leaves
# room for that and still catches a factor that is off by 1e-3.
TOL_H = 1e-6


def rel_err(log_a: float, log_b: float) -> float:
    """|a/b - 1| for two values given as logarithms (inf on NaN)."""
    d = log_a - log_b
    return abs(math.expm1(d)) if math.isfinite(d) else math.inf


def accuracy_digits(errors, stated_accuracy: float) -> float:
    """-log10 of the worst relative error, capped at the reference's accuracy."""
    worst = max(errors)
    cap = -math.log10(stated_accuracy)
    return cap if worst <= stated_accuracy else -math.log10(worst)


def check_h(label: str, series_log_h, ref_log_h, tol: float = TOL_H) -> list[str]:
    """Every series log H within ``tol`` (relative, on H) of its reference."""
    out = []
    for k, (s, r) in enumerate(zip(series_log_h, ref_log_h, strict=True)):
        e = rel_err(s, r)
        if not e <= tol:
            out.append(f"{label}: group {k}: H off by {e:.3g} relative (> {tol:g})")
    return out


def check_loglik(label: str, reported: float, ref_log_h, mults, tol: float = TOL_H) -> list[str]:
    """A reported log-likelihood equals sum(mult * log H_ref) to ``tol`` per household."""
    expected = math.fsum(m * r for m, r in zip(mults, ref_log_h, strict=True))
    allowed = tol * sum(mults)
    if not abs(reported - expected) <= allowed:
        return [f"{label}: loglik {reported!r} but the reference gives {expected!r} "
                f"(allowed {allowed:.3g})"]
    return []


def check_grid_argmax(label: str, fit: dict) -> list[str]:
    """The reported grid estimate is the best point of the reported trace."""
    if not fit["trace"]:
        return [f"{label}: empty grid trace"]
    best = max(pt["loglik"] for pt in fit["trace"])
    at_est = [pt["loglik"] for pt in fit["trace"] if pt["params"] == fit["omega_hat"]]
    if fit["loglik"] != best or at_est != [best]:
        return [f"{label}: estimate {fit['omega_hat']} (loglik {fit['loglik']!r}) "
                f"is not the trace maximum {best!r}"]
    return []


def signed_count_total(R: int, M: int) -> int:
    """sum_{s<=R} (-1)^s C(s+M-1, M-1): the signed number of k-tuples with k.1 <= R."""
    return sum((-1) ** s * math.comb(s + M - 1, M - 1) for s in range(R + 1))


def check_count_identity(label: str, entries: dict, final_shell: dict, R: int, M: int) -> list[str]:
    """Signed counts summed over r equal the signed number of k-tuples,
    over the whole simplex and over its final shell k.1 == R."""
    out = []
    total, want = sum(entries.values()), signed_count_total(R, M)
    if total != want:
        out.append(f"{label}: signed counts sum to {total}, expected {want}")
    shell, want_shell = sum(final_shell.values()), (-1) ** R * math.comb(R + M - 1, M - 1)
    if shell != want_shell:
        out.append(f"{label}: final-shell counts sum to {shell}, expected {want_shell}")
    return out


def check_equal(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: differs from the expected value"]


def check_close(label: str, got: float, want: float, tol: float) -> list[str]:
    if not abs(got - want) <= tol:
        return [f"{label}: {got!r} vs {want!r} (allowed {tol:g})"]
    return []


def check_mc(label: str, series_h: float, mc: float, se: float, z_max: float = 5.0) -> list[str]:
    """The series value lies within ``z_max`` Monte Carlo standard errors."""
    z = abs(series_h - mc) / se
    if not z <= z_max:
        return [f"{label}: series {series_h:.6g} is {z:.1f} standard errors from MC {mc:.6g}"]
    return []


def point_mass_loglik(w: float, total_obs: int, inner_loglik: float) -> float:
    """log(w * 2^-T + (1 - w) * exp(inner)): all coefficients zero with weight w."""
    a = math.log(w) - total_obs * math.log(2.0)
    b = math.log1p(-w) + inner_loglik
    hi, lo = max(a, b), min(a, b)
    return hi + math.log1p(math.exp(lo - hi))
