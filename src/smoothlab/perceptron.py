"""Perceptron feasibility solver and its margin.

The margin nu of points a_1..a_n is the best worst-case normalized inner
product over feasible directions. For strictly feasible instances it equals
the distance from the origin to the convex hull of the normalized points,
computed here by Wolfe's minimum-norm-point algorithm; when the origin lies
in or on that hull the instance is infeasible and nu is reported as 0.

Wolfe's algorithm runs a stack of instances of one shape in lockstep:
tail-perceptron takes the margins of a block of trials from one run, whose
steps batch the stack's small products and least-squares solves (the latter
through a numpy >= 2.0 gufunc, checked against np.linalg.lstsq on every run).
Every instance gets the same bits as a run of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, LapackMismatchError
from .numkit import norm, parse_table

HULL_TOL = 1e-8          # origin within this of the hull -> margin 0
MNP_GAP_TOL = 1e-12      # Wolfe duality-gap termination
MNP_MAX_ITER = 10000     # Wolfe major cycles, and minor cycles per major cycle
RULES = ("lowest_index", "most_violated")   # run_perceptron selection rules


@dataclass(frozen=True)
class PerceptronInstance:
    """Points and their unit rows: computed once, read-only."""
    points: np.ndarray   # (n, d), all rows nonzero with finite norms
    unit: np.ndarray = field(init=False, repr=False)    # points / numkit.norm of each row

    def __post_init__(self):
        p = np.array(self.points, dtype=float, ndmin=2)
        if p.ndim != 2 or p.shape[0] < 1 or not np.isfinite(p).all():
            raise InvalidInputError("points must be a finite n x d array")
        norms = norm(p, axis=1)
        if (norms == 0.0).any():
            raise InvalidInputError("all points must be nonzero")
        if not np.isfinite(norms).all():
            raise InvalidInputError("every point's norm must be finite")
        for name, a in (("points", p), ("unit", p / norms[:, None])):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class PerceptronRun:
    iterations: int
    final_x: np.ndarray | None
    status: str   # "solved" | "iteration_cap_reached"


def parse_instance(text: str) -> PerceptronInstance:
    """Plain-text instance: first line "n d", then n lines of d scalars."""
    return PerceptronInstance(parse_table(text, "instance file")[0])


def min_norm_point(stack: np.ndarray) -> tuple[np.ndarray, list]:
    """Wolfe's algorithm for the minimum-norm point of each hull of a (k, n, d)
    stack: the (k, d) points u and the row indices of each instance's final
    active set, whose simplex holds u.

    Major cycle adds the point most opposed to the current iterate; minor
    cycle restores the iterate to the relative interior of its active-set
    simplex via the affine minimizer. Terminates on the Wolfe criterion
    u.p_j >= ||u||^2 - gap for all j.

    The instances run in lockstep. A step takes one major cycle of every
    instance at a major cycle (one stacked p @ u) and one minor cycle of
    every instance at a minor cycle, those with m active points together
    (one stacked Gram product and one stacked least-squares solve per m).
    Each instance runs the float operations of a run on its own, in order,
    so its u and active set do not depend on the rest of the stack.
    """
    p = np.asarray(stack, dtype=float)
    k = len(p)
    first = [int(np.einsum("ij,ij->i", pi, pi).argmin()) for pi in p]
    u = p[np.arange(k), first]   # (k, d), row i the iterate of instance i
    actives = [[i0] for i0 in first]
    lams = [np.array([1.0]) for _ in range(k)]
    majors = [0] * k   # major cycles begun, at most MNP_MAX_ITER
    minors = [0] * k   # minor cycles in the current major cycle, likewise
    at_major, at_minor, verify = list(range(k)), [], True
    while at_major or at_minor:
        if at_major:
            scores = (p[at_major] @ u[at_major, :, None])[..., 0]
            for s, i in zip(scores, at_major):
                if majors[i] == MNP_MAX_ITER:
                    continue
                majors[i] += 1
                j = int(s.argmin())
                uu = float(u[i].dot(u[i]))
                if uu == 0.0 or j in actives[i] or s[j] >= uu - max(MNP_GAP_TOL, 1e-12 * uu):
                    continue
                actives[i].append(j)
                lams[i] = np.concatenate((lams[i], (0.0,)))
                minors[i] = 0
                at_minor.append(i)
        by_size = {}
        for i in at_minor:
            by_size.setdefault(len(actives[i]), []).append(i)
        at_major, at_minor = [], []
        for m, group in by_size.items():
            q = p[np.array(group)[:, None], [actives[i] for i in group]]   # (g, m, d)
            # affine minimizer: (Q Q^T) alpha + mu 1 = 0, sum alpha = 1
            kkt = np.ones((len(group), m + 1, m + 1))
            kkt[:, :m, :m] = q @ q.transpose(0, 2, 1)
            kkt[:, m, m] = 0.0
            rhs = np.zeros((len(group), m + 1, 1))
            rhs[:, m] = 1.0
            alpha = _stacked_lstsq(kkt, rhs, verify)[:, :m, 0]
            verify = False
            interior = alpha.min(axis=1) > 1e-12
            if interior.any():
                inside = (q.transpose(0, 2, 1) @ alpha[:, :, None])[..., 0]
            for r, i in enumerate(group):
                if interior[r]:
                    lams[i] = alpha[r]
                    u[i] = inside[r]
                    at_major.append(i)
                    continue
                # step toward alpha as far as the simplex allows, drop zeros
                lam, a = lams[i], alpha[r]
                shrink = lam - a
                mask = shrink > 1e-15
                theta = min(max(float((lam[mask] / shrink[mask]).min()), 0.0), 1.0)
                lam = (1.0 - theta) * lam + theta * a
                keep = lam > 1e-12
                if not keep.any():
                    keep[int(lam.argmax())] = True
                actives[i] = [b for b, kept in zip(actives[i], keep) if kept]
                lam = lam[keep]
                lams[i] = lam = lam / lam.sum()
                u[i] = p[i].take(actives[i], axis=0).T @ lam
                minors[i] += 1
                (at_minor if minors[i] < MNP_MAX_ITER else at_major).append(i)
    return u, actives


def _stacked_lstsq(a: np.ndarray, b: np.ndarray, verify: bool) -> np.ndarray:
    """np.linalg.lstsq(a[i], b[i], rcond=None)[0] for every i of a (g, r, r)
    stack a and (g, r, 1) stack b, from one call of the LAPACK gelsd gufunc
    that np.linalg.lstsq itself calls (numpy.linalg._umath_linalg.lstsq,
    numpy >= 2.0). With verify, the first system is solved again by
    np.linalg.lstsq and must give the same bits."""
    gufunc = getattr(getattr(np.linalg, "_umath_linalg", None), "lstsq", None)
    if gufunc is None:
        raise LapackMismatchError(f"numpy {np.__version__} has no stacked lstsq gufunc "
                                  "(numpy.linalg._umath_linalg.lstsq); smoothlab needs numpy >= 2.0")
    rcond = np.finfo(float).eps * a.shape[-1]
    with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
        try:
            x = gufunc(a, b, rcond, signature="ddd->ddid")[0]
        except FloatingPointError:   # np.linalg.lstsq's own error for a failed gelsd
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares") from None
    if verify and np.linalg.lstsq(a[0], b[0], rcond=None)[0].tobytes() != x[0].tobytes():
        raise LapackMismatchError(f"numpy {np.__version__}'s stacked lstsq gufunc disagrees "
                                  "with np.linalg.lstsq; Wolfe's margins would change")
    return x


def wiggle_rooms(insts: list) -> list:
    """Margin nu of each instance (all of one shape): the distance from the
    origin to the hull of its normalized points, from one stacked
    min_norm_point.

    nu is 0.0 when the origin lies in (or within HULL_TOL of) the hull,
    i.e. when no strictly feasible direction exists.
    """
    us = min_norm_point(np.stack([inst.unit for inst in insts]))[0]
    # np.linalg.norm's own 1-D steps, less its call overhead
    return [0.0 if nu <= HULL_TOL else nu for nu in (math.sqrt(u.dot(u)) for u in us)]


def run_perceptron(inst: PerceptronInstance, iteration_cap: int,
                   rule: str = "lowest_index") -> PerceptronRun:
    """The update loop: start at 0, add a normalized violated point until
    strictly feasible or the cap is reached.

    rule selects which violated point to add: "lowest_index" (default) or
    "most_violated" (smallest normalized inner product).
    """
    if iteration_cap < 1:
        raise InvalidInputError("iteration_cap must be at least 1")
    if rule not in RULES:
        raise InvalidInputError(f"unknown selection rule: {rule}")
    norm_pts = inst.unit
    rows = list(norm_pts)
    margins_of = inst.points.dot   # same bytes as inst.points @ x, less call overhead
    zeros = np.zeros(inst.n)       # an array operand compares faster than a scalar
    x = np.zeros(inst.d)
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
    return PerceptronRun(iterations=iteration_cap, final_x=None,
                         status="iteration_cap_reached")

