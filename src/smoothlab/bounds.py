"""The closed-form bounds the experiments check, and their hypothesis regimes.

Each is written once, in plain float arithmetic: nothing here samples, factors
a matrix or runs a solver. Past the float range a bound takes its limit, so
where sigma t or sigma^6 underflows to 0 it is infinite (Blum-Dunagan: -inf).
"""

from __future__ import annotations

import math

from .errors import InfeasibleMarginError, InvalidInputError, OutOfRegimeError


def variance_regime_limit(n: int, d: int) -> float:
    """Largest admissible sigma^2 for the shadow-size hypotheses, 1/(9 d log n)."""
    if n < 2:
        return math.inf
    return 1.0 / (9.0 * d * math.log(n))


def variance_regime_note(n: int, d: int, sigma: float) -> str | None:
    """Why sigma^2 exceeds 1/(9 d log n), with relative slack 1e-12; None if
    it does not. A square past the float range counts as infinite."""
    try:
        square = float(sigma) ** 2
    except OverflowError:
        square = math.inf
    limit = variance_regime_limit(n, d)
    if square > limit * (1.0 + 1e-12):
        return f"sigma^2 = {square:.6g} exceeds the regime limit 1/(9 d log n) = {limit:.6g}"
    return None


def regime_notes(center_norms, d: int, sigma: float) -> list:
    """Why Gaussian perturbations of n centers in R^d with these norms leave the
    regime: some norm exceeds 1, or sigma^2 exceeds 1/(9 d log n)."""
    over = sum(1 for r in center_norms if r > 1.0 + 1e-12)
    notes = [f"{over} center(s) have norm > 1"] if over else []
    note = variance_regime_note(len(center_norms), d, sigma)
    return notes + [note] if note else notes


def shadow_size_bound(n: int, d: int, sigma: float) -> float:
    """The proven expected-shadow-size bound 58888678 * n * d^3 / sigma^6, in its
    hypothesis regime d >= 3, n > d, sigma^2 <= 1/(9 d log n) only: elsewhere an
    out-of-regime error, so no experiment compares against an inapplicable bound."""
    if d < 3 or n <= d:
        raise OutOfRegimeError("bound requires d >= 3 and n > d")
    sigma = float(sigma)
    if not (sigma > 0) or variance_regime_note(n, d, sigma):
        raise OutOfRegimeError("bound requires 0 < sigma^2 <= 1/(9 d log n)")
    s6 = sigma ** 6
    return 58888678.0 * n * d ** 3 / s6 if s6 else math.inf   # sigma^6 may underflow


def edelman_applies(zero_center: bool, sigma: float) -> bool:
    """Edelman's bound is for a standard Gaussian: zero center, sigma = 1."""
    return zero_center and sigma == 1.0


def matrix_tail_bounds(d: int, sigma: float, t: float, zero_center: bool) -> dict:
    """tail-matrix's bounds on Pr[||A^-1|| > t], A = center + sigma G with G a
    d x d standard Gaussian: Edelman's sqrt(d)/t (None where it does not apply),
    Sankar-Spielman-Teng's 1.823 sqrt(d)/(t sigma), Theorem 4.3's d^1.5/(t sigma)
    and Conjecture 1's sqrt(d)/(t sigma)."""
    sd, ts = math.sqrt(d), t * sigma
    sst, thm43, conj1 = (x / ts if ts else math.inf for x in (1.823 * sd, d ** 1.5, sd))
    return {"bound_edelman": sd / t if edelman_applies(zero_center, sigma) else None,
            "bound_sst": sst, "bound_thm43": thm43, "bound_conj1": conj1}


def conjecture2_bound(d: int, t: float) -> float:
    """Conjecture 2's sqrt(d)/t on Pr[||A^-1|| > t], A a d x d sign matrix."""
    return math.sqrt(d) / t


def submatrix_regime(n: int, d: int, sigma: float) -> None:
    if variance_regime_note(n, d, sigma):
        raise OutOfRegimeError("submatrix lemma requires sigma^2 <= 1/(9 d log n)")


def submatrix_bounds(n: int, d: int, sigma: float) -> tuple:
    """The submatrix lemma's tau = sigma^2 / (8 d^1.5 n^7), right-hand side
    ceil((n - d - 1)/2) C(n, d - 1) and stated probability. Read literally,
    inverse_norm(A_I) >= tau held for every d-subset I on every trial seen;
    whether the lemma means sigma_min(A_I) >= tau is open."""
    return (sigma ** 2 / (8.0 * d ** 1.5 * n ** 7),
            math.ceil((n - d - 1) / 2) * math.comb(n, d - 1),
            1.0 - n ** (-d) - n ** (-n + d - 1) - n ** (-2.9 * d + 1))


def iteration_bound(nu: float) -> int:
    """Novikoff's worst-case update count ceil(1/nu^2) for margin nu > 0."""
    if not (nu > 0):
        raise InfeasibleMarginError("iteration bound requires a positive margin")
    # tolerate float noise so e.g. nu = 1/sqrt(2) gives exactly 2
    return math.ceil(1.0 / nu ** 2 - 1e-9)


def blum_dunagan_regime(n: int, d: int, sigma: float) -> None:
    if n < 1 or d < 1:
        raise InvalidInputError("n and d must be at least 1")
    if not (0 < sigma < 1 and sigma ** 2 < 1.0 / (2.0 * d)):   # sigma ** 2 under/overflows
        raise OutOfRegimeError("bound requires sigma^2 < 1/(2d)")


def blum_dunagan_tail(n: int, d: int, sigma: float, t: float) -> float:
    """Literal margin tail bound (n d^1.5 / (sigma t)) * log(sigma t / d^1.5).

    Valid only for sigma^2 strictly below 1/(2d). The value is returned
    unclamped; reports clamp to [0, 1] and flag nonpositive-log points as
    vacuous rather than guessing an intended form. That form is n log(x) / x
    in x = sigma t / d^1.5, so not monotone in t: 0 at x = 1, largest at x = e.
    At n 6, d 2, sigma 0.2, t 14.2 it is 0.0244, 7.6 standard errors below
    tail-perceptron's zero-center tail of 0.175 (2,000 trials, seed 1)."""
    if not (t > 0):
        raise InvalidInputError("t must be positive")
    blum_dunagan_regime(n, d, sigma)
    ratio = sigma * t / d ** 1.5
    return (n * d ** 1.5 / (sigma * t)) * math.log(ratio) if ratio else -math.inf
