"""Shadow-vertex simplex: a parametric-objective pivot walk.

Phase II sweeps the objective q(lambda) = (1 - lambda) t + lambda z from a
start objective t (for which the start vertex is optimal) to the true
objective z. At each vertex the multipliers mu(lambda) = A_B^{-T} q(lambda)
are affine in lambda; the walk advances lambda until some multiplier hits
zero, drops that constraint, and takes a ratio-test pivot along the freed
edge. The visited vertices are exactly the preimages of consecutive shadow
polygon vertices on span(t, z).

Phase I is deliberately not the randomized construction the theory analyzes:
it is a brute-force scan for the first feasible basis in canonical order,
with t = sum of that basis's constraint normals (which certifies optimality
of the start vertex for t), scanned in batched chunks by polytope.feasible_bases:
solve, feasibility mask, then rank test on the feasible bases. The walk uses neither that
scan nor an LP's kept vertices and rays: it stays independent of the oracle. Counted steps
are Phase II pivots only. Every outcome, Phase I failures included, is one PivotTrace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidStartError
from .polytope import (
    LinearProgram,
    PolytopeVertex,
    feasible_bases,
    improving_ray,
    independent_rows,
    is_feasible,
    recession_directions,
)

PIVOT_TIE_TOL = 1e-9


@dataclass
class PivotTrace:
    visited: list                 # PolytopeVertex sequence
    pivot_count: int
    status: str                   # "optimal" | "unbounded" | "infeasible" | "phase1_failed"
    lambda_breakpoints: list = field(default_factory=list)
    degenerate: bool = False      # a pivot tie was broken lexicographically
    ray: np.ndarray | None = None
    start_objective: np.ndarray | None = None   # t of the walk; None without a start vertex

    @property
    def vertex(self):
        return self.visited[-1] if self.visited else None

    def objective_value(self, lp: LinearProgram) -> float | None:
        v = self.vertex
        return None if v is None else v.objective_value(lp.z)

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "pivot_count": self.pivot_count,
            "lambda_breakpoints": [float(v) for v in self.lambda_breakpoints],
            "visited_tight_sets": [list(v.tight_set) for v in self.visited],
        }


def _verify_start(lp: LinearProgram, start: PolytopeVertex, t: np.ndarray) -> None:
    idx = list(start.tight_set)
    if len(set(idx)) != lp.d or min(idx) < 0 or max(idx) >= lp.n:
        raise InvalidStartError("tight set must be d distinct constraint indices")
    sub = lp.A[idx]
    if not independent_rows(sub):
        raise InvalidStartError("tight-set rows are linearly dependent")
    x = np.asarray(start.point, dtype=float)
    if np.max(np.abs(sub @ x - lp.b[idx])) > 1e-7:
        raise InvalidStartError("tight constraints are not tight at the start point")
    if np.max(lp.A @ x - lp.b) > 1e-7:
        raise InvalidStartError("start point is infeasible")
    if np.min(np.linalg.solve(sub.T, t)) < -1e-7:
        raise InvalidStartError("start vertex is not optimal for the start objective")


def shadow_pivot_walk(lp: LinearProgram, start: PolytopeVertex, start_objective) -> PivotTrace:
    """Walk from the t-optimal vertex to the z-optimal one (or a ray)."""
    t = np.asarray(start_objective, dtype=float).ravel()
    z = lp.z
    _verify_start(lp, start, t)

    basis = sorted(start.tight_set)
    x = np.asarray(start.point, dtype=float).copy()
    lam = 0.0
    trace = PivotTrace(visited=[PolytopeVertex(point=x.copy(), tight_set=tuple(basis))],
                       pivot_count=0, status="optimal", start_objective=t)
    max_pivots = math.comb(lp.n, lp.d) + 1

    for _ in range(max_pivots):
        sub = lp.A[basis]
        mu_t = np.linalg.solve(sub.T, t)
        mu_z = np.linalg.solve(sub.T, z)
        if np.min(mu_z) >= -PIVOT_TIE_TOL:
            return trace
        # lambda at which each decreasing multiplier reaches zero
        slope = mu_z - mu_t
        roots = np.full(lp.d, math.inf)
        dec = slope < -1e-15
        roots[dec] = mu_t[dec] / (mu_t[dec] - mu_z[dec])
        lam_star = float(np.min(roots))
        if lam_star > 1.0:
            return trace
        lam_star = min(max(lam_star, lam), 1.0)
        leaving_ties = [p for p in range(lp.d)
                        if roots[p] <= lam_star + PIVOT_TIE_TOL]
        if len(leaving_ties) > 1:
            trace.degenerate = True
        r_pos = min(leaving_ties, key=lambda p: basis[p])

        # edge direction keeping the other d-1 constraints tight
        e = np.zeros(lp.d)
        e[r_pos] = -1.0
        w = np.linalg.solve(sub, e)

        # ratio test over the non-basic rows the edge advances on
        advance = lp.A @ w
        blocking = advance > 1e-11
        blocking[basis] = False
        rows = np.flatnonzero(blocking)
        if not len(rows):
            trace.status = "unbounded"
            trace.ray = w
            trace.lambda_breakpoints.append(lam_star)
            return trace
        slack = lp.b - lp.A @ x
        steps = np.maximum(slack[rows], 0.0) / advance[rows]
        theta = float(np.min(steps))
        entering_ties = rows[steps <= theta + PIVOT_TIE_TOL]
        if len(entering_ties) > 1:
            trace.degenerate = True
        j = int(entering_ties[0])   # the lowest row index

        x = x + theta * w
        basis[r_pos] = j
        basis = sorted(basis)
        lam = lam_star
        trace.lambda_breakpoints.append(lam_star)
        trace.visited.append(PolytopeVertex(point=x.copy(), tight_set=tuple(basis)))
        trace.pivot_count += 1

    raise RuntimeError("pivot walk failed to terminate within the basis budget")


def find_initial_vertex(lp: LinearProgram):
    """First feasible basis in canonical order, plus a certifying objective.

    Returns (vertex, t) with t = sum of the tight-set normals (so the vertex
    is optimal for t with multipliers all 1), or None when no basis is
    feasible.
    """
    for tight, points in feasible_bases(lp):
        if len(tight):
            return (PolytopeVertex(point=points[0], tight_set=tuple(tight[0].tolist())),
                    lp.A[tight[0]].sum(axis=0))
    return None


def solve(lp: LinearProgram) -> PivotTrace:
    """Two-phase driver: canonical-scan Phase I, shadow pivot walk Phase II."""
    found = find_initial_vertex(lp)
    if found is not None:
        return shadow_pivot_walk(lp, *found)
    if not is_feasible(lp):
        return PivotTrace(visited=[], pivot_count=0, status="infeasible")
    # feasible but no basic solution: still detect an improving ray
    ray = improving_ray(recession_directions(lp.A), lp.z)
    return PivotTrace(visited=[], pivot_count=0,
                      status="phase1_failed" if ray is None else "unbounded", ray=ray)
