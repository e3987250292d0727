"""Perceptron feasibility solver, its margin, and the classic update bound.

The margin nu of points a_1..a_n is the best worst-case normalized inner
product over feasible directions. For strictly feasible instances it equals
the distance from the origin to the convex hull of the normalized points,
computed here by Wolfe's minimum-norm-point algorithm; when the origin lies
in or on that hull the instance is infeasible and nu is reported as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InfeasibleMarginError, InvalidInputError, OutOfRegimeError
from .numkit import norm, parse_table

HULL_TOL = 1e-8          # origin within this of the hull -> margin 0
MNP_GAP_TOL = 1e-12      # Wolfe duality-gap termination
MNP_MAX_ITER = 10000     # Wolfe major cycles, and minor cycles per major cycle
RULES = ("lowest_index", "most_violated")   # run_perceptron selection rules
CERTIFY_STEP = 2 ** 10   # a Brent checkpoint (power of two): one attempt to certify infeasibility


@dataclass(frozen=True)
class PerceptronInstance:
    """Points, their row norms and their unit rows: computed once, read-only."""
    points: np.ndarray   # (n, d), all rows nonzero with finite norms
    norms: np.ndarray = field(init=False, repr=False)   # numkit.norm of each row

    def __post_init__(self):
        p = np.array(self.points, dtype=float, ndmin=2)
        if p.ndim != 2 or p.shape[0] < 1 or not np.isfinite(p).all():
            raise InvalidInputError("points must be a finite n x d array")
        norms = norm(p, axis=1)
        if (norms == 0.0).any():
            raise InvalidInputError("all points must be nonzero")
        if not np.isfinite(norms).all():
            raise InvalidInputError("every point's norm must be finite")
        for name, a in (("points", p), ("norms", norms), ("_unit", p / norms[:, None])):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def normalized(self) -> np.ndarray:
        return self._unit   # points / norms[:, None]


@dataclass(frozen=True)
class PerceptronRun:
    iterations: int
    final_x: np.ndarray | None
    status: str   # "solved" | "iteration_cap_reached"


def parse_instance(text: str) -> PerceptronInstance:
    """Plain-text instance: first line "n d", then n lines of d scalars."""
    return PerceptronInstance(parse_table(text, "instance file")[0])


def min_norm_point(points: np.ndarray) -> np.ndarray:
    """Wolfe's algorithm for the minimum-norm point in a convex hull.

    Major cycle adds the point most opposed to the current iterate; minor
    cycle restores the iterate to the relative interior of its active-set
    simplex via the affine minimizer. Terminates on the Wolfe criterion
    u.p_j >= ||u||^2 - gap for all j.
    """
    return _wolfe(points)[0]


def _wolfe(points: np.ndarray) -> tuple[np.ndarray, list]:
    """min_norm_point's loop: the point u and the row indices of its final
    active set, whose simplex holds u."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    i0 = int(np.einsum("ij,ij->i", p, p).argmin())
    active = [i0]
    lam = np.array([1.0])
    u = p[i0].copy()
    for _ in range(MNP_MAX_ITER):
        scores = p @ u
        j = int(scores.argmin())
        uu = float(u.dot(u))
        if uu == 0.0 or j in active or scores[j] >= uu - max(MNP_GAP_TOL, 1e-12 * uu):
            break
        active.append(j)
        lam = np.concatenate((lam, (0.0,)))
        for _ in range(MNP_MAX_ITER):
            q = p.take(active, axis=0)
            m = len(active)
            # affine minimizer: (Q Q^T) alpha + mu 1 = 0, sum alpha = 1
            kkt = np.ones((m + 1, m + 1))
            kkt[:m, :m] = q @ q.T
            kkt[m, m] = 0.0
            rhs = np.zeros((m + 1, 1))
            rhs[m] = 1.0
            alpha = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:m, 0]
            if alpha.min() > 1e-12:
                lam = alpha
                u = q.T @ alpha
                break
            # step toward alpha as far as the simplex allows, drop zeros
            shrink = lam - alpha
            mask = shrink > 1e-15
            theta = min(max(float((lam[mask] / shrink[mask]).min()), 0.0), 1.0)
            lam = (1.0 - theta) * lam + theta * alpha
            keep = lam > 1e-12
            if not keep.any():
                keep[int(lam.argmax())] = True
            active = [a for a, k in zip(active, keep) if k]
            lam = lam[keep]
            lam = lam / lam.sum()
            u = p.take(active, axis=0).T @ lam
    return u, active


def wiggle_room(inst: PerceptronInstance) -> float:
    """Margin nu: distance from the origin to the hull of normalized points.

    Returns 0.0 when the origin lies in (or within HULL_TOL of) the hull,
    i.e. when no strictly feasible direction exists.
    """
    u = min_norm_point(inst.normalized())
    nu = math.sqrt(u.dot(u))   # np.linalg.norm's own 1-D steps, less its call overhead
    return 0.0 if nu <= HULL_TOL else nu


def run_perceptron(inst: PerceptronInstance, iteration_cap: int,
                   rule: str = "lowest_index") -> PerceptronRun:
    """The update loop: start at 0, add a normalized violated point until
    strictly feasible or the cap is reached.

    rule selects which violated point to add: "lowest_index" (default) or
    "most_violated" (smallest normalized inner product).

    A step is a pure function of the bytes of x, so an exact repeat of x
    means a periodic walk that never solves: it is reported at the cap at
    once. x is compared with the state saved at step 1, 2, 4, 8, ... (Brent),
    which catches a cycle of period p entered at step m by step 2 max(m, p) + p.

    At the checkpoint at step CERTIFY_STEP the run tries once to prove, in
    exact arithmetic, that no iterate can pass the test (see
    _certified_infeasible); if it can, the run is reported at the cap at once,
    with the record the loop would return there.
    """
    if iteration_cap < 1:
        raise InvalidInputError("iteration_cap must be at least 1")
    if rule not in RULES:
        raise InvalidInputError(f"unknown selection rule: {rule}")
    norm_pts = inst.normalized()
    rows = list(norm_pts)
    margins_of = inst.points.dot   # same bytes as inst.points @ x, less call overhead
    zeros = np.zeros(inst.n)       # an array operand compares faster than a scalar
    x = np.zeros(inst.d)
    saved, horizon = None, 1
    for it in range(iteration_cap + 1):
        violated = margins_of(x) <= zeros
        pick = violated.argmax()
        if not violated[pick]:
            return PerceptronRun(iterations=it, final_x=x, status="solved")
        if it == iteration_cap:
            break
        if rule == "most_violated":
            candidates = np.flatnonzero(violated)
            pick = candidates[np.argmin((norm_pts @ x)[candidates])]
        x = x + rows[pick]
        state = x.tobytes()
        if state == saved:
            break
        if it + 1 == horizon:
            if horizon == CERTIFY_STEP and _certified_infeasible(inst, iteration_cap):
                break
            saved, horizon = state, 2 * horizon
    return PerceptronRun(iterations=iteration_cap, final_x=None,
                         status="iteration_cap_reached")


def _certified_infeasible(inst: PerceptronInstance, iteration_cap: int) -> bool:
    """True only if every iterate x that run_perceptron can reach within
    iteration_cap steps has some computed margin fl(p_j . x) <= 0, so the
    run can only end at the cap.

    Wolfe's final active set proposes d+1 normalized rows v_j; nothing else
    from Wolfe is used. In exact rationals, let M have the columns [v_j; 1]
    and row j of M^-1 be (g_j, lam_j). Then h_j(y) = g_j . y + lam_j are the
    barycentric coordinates of y in the simplex conv(v_j): h_j(v_k) = [j = k],
    sum_j h_j = 1, and lam_j = h_j(0). Let delta = min_j lam_j / |g_j|_1.
    The bound below is positive, so delta above it makes every lam_j > 0,
    and any w with |w|_inf <= delta has h_j(w) >= lam_j - |g_j|_1 delta >= 0:
    w lies in the simplex, so w . x >= min_j v_j . x. With w = -delta sign(x),

        min_j v_j . x <= -delta |x|_1.                                    (1)

    Normalization error: with c_j > 0 the row's float norm (any c_j > 0
    would do), write p_j = c_j w_j exactly and e_j = w_j - v_j. Dot-product
    rounding: in any summation order, with or without FMA, and with no
    underflow or overflow, fl(p_j . x) <= p_j . x + gamma_d sum_k |p_jk x_k|,
    where gamma_d = d u / (1 - d u) and u = 2^-53 (Higham, "Accuracy and
    Stability of Numerical Algorithms", section 3.1). So for the j of (1) and
    x != 0,

        fl(p_j . x) <= c_j |x|_1 (-delta + |e_j|_inf + gamma_d |w_j|_inf) < 0

    once delta > max_j (|e_j|_inf + gamma_d |w_j|_inf), the bound checked
    here. At x = 0 every margin is exactly 0.

    Range: every nonzero entry of the points and of the normalized rows must
    lie within 2^-300..2^300 and the cap must be at most 2^53. An iterate's
    entries are then 0 or multiples of 2^-352 below 2^355 in magnitude, and
    every partial result of fl(p_j . x) is 0 or a multiple of 2^-704 below
    d 2^656: nothing underflows or overflows.

    This is a filtered predicate in the sense of Shewchuk, "Adaptive
    Precision Floating-Point Arithmetic and Fast Robust Geometric
    Predicates" (1997): a float proposal accepted only by an exact test
    with a stated error margin.
    """
    norm_pts = inst.normalized()
    entries = np.abs(np.concatenate((inst.points.ravel(), norm_pts.ravel())))
    entries = entries[entries > 0.0]
    if iteration_cap > 2 ** 53 or entries.min() < 2.0 ** -300 or entries.max() > 2.0 ** 300:
        return False
    d = inst.d
    active = _wolfe(norm_pts)[1]
    if len(active) != d + 1:
        return False
    v = [[Fraction(t) for t in row] for row in norm_pts[active].tolist()]
    inverse = _exact_inverse([list(coords) for coords in zip(*v)] + [[Fraction(1)] * (d + 1)])
    if inverse is None:
        return False
    delta = min(row[d] / sum(abs(g) for g in row[:d]) for row in inverse)
    gamma = Fraction(d, 2 ** 53 - d)   # d u / (1 - d u)
    bound = Fraction(0)
    for j, vj in zip(active, v):
        c = Fraction(float(inst.norms[j]))
        w = [Fraction(t) / c for t in inst.points[j].tolist()]
        error = max(abs(a - b) for a, b in zip(w, vj))
        bound = max(bound, error + gamma * max(abs(a) for a in w))
    return delta > bound


def _exact_inverse(m: list) -> list | None:
    """Gauss-Jordan inverse of a square matrix of Fractions (a list of rows),
    or None if it is singular."""
    k = len(m)
    a = [row + [Fraction(int(i == r)) for i in range(k)] for r, row in enumerate(m)]
    for col in range(k):
        piv = next((r for r in range(col, k) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        pivot = a[col][col]
        a[col] = [t / pivot for t in a[col]]
        for r in range(k):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [t - f * s for t, s in zip(a[r], a[col])]
    return [row[k:] for row in a]


def iteration_bound(nu: float) -> int:
    """Worst-case update count ceil(1/nu^2) for margin nu > 0."""
    if not (nu > 0):
        raise InfeasibleMarginError("iteration bound requires a positive margin")
    # tolerate float noise so e.g. nu = 1/sqrt(2) gives exactly 2
    return math.ceil(1.0 / nu ** 2 - 1e-9)


def blum_dunagan_tail(n: int, d: int, sigma: float, t: float) -> float:
    """Literal margin tail bound (n d^1.5 / (sigma t)) * log(sigma t / d^1.5).

    Valid only for sigma^2 strictly below 1/(2d). The value is returned
    unclamped; reports clamp to [0, 1] and flag nonpositive-log points as
    vacuous rather than guessing an intended form.
    """
    if n < 1 or d < 1:
        raise InvalidInputError("n and d must be at least 1")
    if not (t > 0):
        raise InvalidInputError("t must be positive")
    sigma = float(sigma)
    if not (0 < sigma < 1 and sigma ** 2 < 1.0 / (2.0 * d)):   # sigma ** 2 under/overflows
        raise OutOfRegimeError("bound requires sigma^2 < 1/(2d)")
    ratio = sigma * t / d ** 1.5
    return (n * d ** 1.5 / (sigma * t)) * math.log(ratio)
