"""LP data model, brute-force vertex enumeration, and exact shadow polygons.

The polytope here is always the inequality form {x : x^T a_i <= b_i}. Vertex
enumeration over all d-subsets of constraints is the correctness oracle for
the pivoting code, so it stays exhaustive and exact at desk scale. feasible_bases scans
the d-subsets in canonical order in batched chunks, feasibility before rank, and the
tests cross-check that scan against a one-basis-at-a-time loop.

Rays and feasibility come from one SVD of A: {w : Aw <= 0} is null(A) plus a
pointed cone whose extreme rays are null vectors of (r-1)-row subsets in the
rank-r row space, where {Ax <= b} is feasible iff it has a feasible basis.
Every rank decision is the rule of independent_rows: rows scaled to a unit
largest entry are independent if their least singular value is > 1e-12 x the largest.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .errors import (
    DegeneratePlaneError,
    InvalidInputError,
    SizeLimitError,
    UnboundedShadowError,
)
from .numkit import norm, parse_table

MAX_BASES = 1_000_000
FEAS_TOL = 1e-9          # absolute slack tolerance for feasibility/tightness
COLLINEAR_TOL = 1e-9     # hull collinearity tolerance
COINCIDENT_TOL = 1e-7    # two basic solutions this close are flagged degenerate
BASIS_CHUNK = 256        # bases per batched solve; bounds the work past an early exit


class DegeneracyWarning(UserWarning):
    """Distinct bases produced (near-)coincident vertices."""


@dataclass(frozen=True)
class LinearProgram:
    """maximize x^T z subject to x^T a_i <= b_i, rows a_i stacked in A."""

    A: np.ndarray   # (n, d)
    b: np.ndarray   # (n,)
    z: np.ndarray   # (d,)

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float).ravel()
        z = np.asarray(self.z, dtype=float).ravel()
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise InvalidInputError("constraint matrix must be n x d with n, d >= 1")
        if b.shape != (a.shape[0],) or z.shape != (a.shape[1],):
            raise InvalidInputError("inconsistent LP dimensions")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(np.isfinite(z))):
            raise InvalidInputError("LP data must be finite")
        if not np.all(np.isfinite(norm(a, axis=1))):
            raise InvalidInputError("constraint row norms must be finite")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "z", z)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class PolytopeVertex:
    point: np.ndarray
    tight_set: tuple  # sorted d constraint indices

    def objective_value(self, z) -> float:
        return float(np.dot(self.point, z))


@dataclass(frozen=True)
class ShadowPolygon:
    basis: np.ndarray       # (d, 2) orthonormal basis of span(t, z)
    hull_points: np.ndarray  # (k, 2) counterclockwise, lexicographic start
    preimages: tuple         # PolytopeVertex per hull point

    @property
    def vertex_count(self) -> int:
        return len(self.hull_points)


def parse_lp(text: str) -> LinearProgram:
    """Plain-text LP: first line "n d", n lines of d+1 scalars, one line z."""
    rows, z = parse_table(text, "LP file", extra=1, tail=1)
    return LinearProgram(rows[:, :-1], rows[:, -1], z[0])


def basis_chunks(n: int, d: int):
    """d-subsets of range(n) in combinations order, as (k, d) arrays, k <= BASIS_CHUNK."""
    if math.comb(n, d) > MAX_BASES:
        raise SizeLimitError(f"C({n},{d}) = {math.comb(n, d)} exceeds the budget {MAX_BASES}")
    subsets = combinations(range(n), d)
    while chunk := list(islice(subsets, BASIS_CHUNK)):
        yield np.array(chunk, dtype=np.intp)


def _unit_peak_rows(A: np.ndarray) -> np.ndarray:
    """A with each nonzero row divided by its largest absolute entry."""
    peak = np.max(np.abs(A), axis=-1, keepdims=True, initial=0.0)
    return A / np.where(peak > 0.0, peak, 1.0)


def _independent(s: np.ndarray):
    """Whether the rows whose _unit_peak_rows have singular values s are independent."""
    return s[..., -1] > 1e-12 * s[..., 0]


def independent_rows(A: np.ndarray):
    """Whether the rows of A, or of each matrix of a stack A, are linearly independent."""
    return _independent(np.linalg.svd(_unit_peak_rows(A), compute_uv=False))


def feasible_bases(lp: LinearProgram):
    """Nonsingular feasible bases of lp, one (tight sets, points) pair per chunk.

    Per chunk: one batched solve, a mask keeping A x - b <= FEAS_TOL, and one batched
    SVD rank test of the feasible bases only; solve treats each basis on its own. If
    it raises, slogdet, which runs solve's own LU, first drops the bases it rejects.
    """
    for idx in basis_chunks(lp.n, lp.d):
        try:
            x = np.linalg.solve(lp.A[idx], lp.b[idx][..., None])[..., 0]
        except np.linalg.LinAlgError:
            with np.errstate(divide="ignore"):   # log of a zero pivot; only the sign is read
                idx = idx[np.linalg.slogdet(lp.A[idx])[0] != 0]
            x = np.linalg.solve(lp.A[idx], lp.b[idx][..., None])[..., 0]
        # stacked matvec: the same rounding as lp.A @ x on each point
        with np.errstate(over="ignore", invalid="ignore"):   # near-singular bases: huge x
            keep = np.all((lp.A @ x[..., None])[..., 0] - lp.b <= FEAS_TOL, axis=1)
        keep[keep] = independent_rows(lp.A[idx[keep]])
        yield idx[keep], x[keep]


def enumerate_vertices(lp: LinearProgram) -> list:
    """All feasible basic solutions, one per nonsingular tight set.

    Output is canonical: sorted by tight set. An infeasible polytope gives an
    empty list. Near-coincident vertices from distinct bases are flagged with
    a DegeneracyWarning but all are returned.
    """
    verts = [PolytopeVertex(point=x, tight_set=tuple(idx.tolist()))
             for tight, points in feasible_bases(lp) for idx, x in zip(tight, points)]
    pts = np.array([v.point for v in verts])
    with np.errstate(over="ignore"):   # a distance past the float range is not coincident
        for i in range(1, len(verts)):
            close = np.linalg.norm(pts[:i] - pts[i], axis=1) < COINCIDENT_TOL
            if close.any():
                warnings.warn(
                    f"coincident vertices for bases {verts[close.argmax()].tight_set} and "
                    f"{verts[i].tight_set}", DegeneracyWarning, stacklevel=2)
    return verts


def _row_space(A: np.ndarray):
    """Orthonormal (d, r) and (d, d - r) bases of the row space and the null space of A."""
    _, s, vt = np.linalg.svd(_unit_peak_rows(A))   # scaled rows span the same spaces
    r = sum(int(_independent(s[:k])) for k in range(1, s.size + 1))   # passing prefixes
    return vt[:r].T, vt[r:].T


def recession_directions(A: np.ndarray) -> np.ndarray:
    """Unit rays w, as rows, with A w <= FEAS_TOL that generate the cone {w : Aw <= 0}.

    The candidates are +-v for a basis of null(A) and, in row-space coordinates
    B = A U of rank r, +-(null vector) of every r - 1 independent rows of B.
    """
    A = np.asarray(A, dtype=float)
    rows, null = _row_space(A)
    B = _unit_peak_rows(A @ rows)
    r = B.shape[1]
    found = [np.ones((1, 1))] if r == 1 else []
    for idx in basis_chunks(A.shape[0], r - 1) if r > 1 else ():
        _, s, vt = np.linalg.svd(B[idx])
        found.append(vt[_independent(s), -1])
    v = np.concatenate(found + [-f for f in found]) if found else np.zeros((0, r))
    dirs = np.concatenate([null.T, -null.T, v @ rows.T])
    return dirs[np.all(A @ dirs.T <= FEAS_TOL, axis=0)]


def improving_ray(A: np.ndarray, z: np.ndarray) -> np.ndarray | None:
    """The recession direction with the largest z.r, if z.r > 1e-9; else None."""
    dirs = recession_directions(A)
    gains = dirs @ z
    if len(dirs) and gains.max() > 1e-9:
        return dirs[int(np.argmax(gains))]
    return None


def is_feasible(lp: LinearProgram) -> bool:
    """Whether {Ax <= b} is nonempty, decided in row-space coordinates y of A.

    {y : AU y <= b} has full column rank, so it is nonempty iff it has a
    feasible basis. At rank 0 the test is b >= -FEAS_TOL.
    """
    rows, _ = _row_space(lp.A)
    if rows.shape[1] == 0:
        return bool(np.all(lp.b >= -FEAS_TOL))
    reduced = LinearProgram(lp.A @ rows, lp.b, np.zeros(rows.shape[1]))
    return any(len(tight) for tight, _ in feasible_bases(reduced))


@dataclass(frozen=True)
class OptimumResult:
    status: str                      # "optimal" | "unbounded" | "infeasible"
    vertex: PolytopeVertex | None = None
    ray: np.ndarray | None = None    # improving recession direction if unbounded
    value: float | None = None       # objective value when optimal


def brute_force_optimum(lp: LinearProgram) -> OptimumResult:
    """Oracle LP solver by exhaustive enumeration.

    Returns an object with .status in {"optimal", "unbounded", "infeasible"},
    .vertex (for optimal) and .ray (for unbounded). A feasible polytope with
    no vertex and no improving ray raises InvalidInputError.
    """
    verts = enumerate_vertices(lp)
    if not (verts or is_feasible(lp)):
        return OptimumResult("infeasible")
    ray = improving_ray(lp.A, lp.z)
    if ray is not None:
        return OptimumResult("unbounded", ray=ray)
    if not verts:
        raise InvalidInputError(
            "feasible polytope has no vertices; optimum not attained at a basic solution")
    best = max(verts, key=lambda v: (v.objective_value(lp.z), tuple(-i for i in v.tight_set)))
    return OptimumResult("optimal", vertex=best, value=best.objective_value(lp.z))


def plane_basis(t, z) -> np.ndarray:
    """Orthonormal (d, 2) basis of span(t, z); errors if nearly parallel."""
    t = np.asarray(t, dtype=float).ravel()
    z = np.asarray(z, dtype=float).ravel()
    if t.size != z.size:
        raise InvalidInputError("plane vectors must share a dimension")
    nt, nz = norm(t), norm(z)
    if nt == 0 or nz == 0:
        raise DegeneratePlaneError("plane vectors must be nonzero")
    q1, u = t / nt, z / nz
    cross = np.linalg.norm(np.outer(q1, u) - np.outer(u, q1)) / math.sqrt(2)
    if cross < 1e-9:  # Frobenius form of |sin(angle)|
        raise DegeneratePlaneError("plane vectors are (nearly) parallel")
    r = z - np.dot(z, q1) * q1
    q2 = r / norm(r)
    return np.column_stack([q1, q2])


def convex_hull_2d(points: np.ndarray):
    """Andrew monotone chain; counterclockwise, lexicographic tie-breaking.

    Returns (hull_points, indices-into-points). Strictly convex: collinear
    intermediate points (within COLLINEAR_TOL) are dropped.
    """
    pts = np.asarray(points, dtype=float)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    # drop exact/near duplicates so hull indices are well defined
    uniq = []
    for i in order:
        if not uniq or np.linalg.norm(pts[i] - pts[uniq[-1]]) > COLLINEAR_TOL:
            uniq.append(int(i))
    if len(uniq) <= 2:
        return pts[uniq], uniq

    def cross(o, a, b):
        return (pts[a][0] - pts[o][0]) * (pts[b][1] - pts[o][1]) - \
               (pts[a][1] - pts[o][1]) * (pts[b][0] - pts[o][0])

    def half(order):   # lower chain left to right, or upper chain right to left
        chain = []
        for i in order:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], i) <= COLLINEAR_TOL:
                chain.pop()
            chain.append(i)
        return chain[:-1]

    hull = half(uniq) + half(reversed(uniq))
    return pts[hull], hull


def shadow_polygon(lp: LinearProgram, plane_t) -> ShadowPolygon:
    """Exact shadow of lp's polytope {x : x^T a_i <= b_i} on span(t, lp.z).

    Projects every enumerated polytope vertex onto an orthonormal basis of
    the plane and takes the 2-d hull. Errors if the polytope is unbounded in
    any direction visible to the plane (or has no vertices at all).
    """
    q = plane_basis(plane_t, lp.z)
    dirs = recession_directions(lp.A)
    if len(dirs) and np.max(np.linalg.norm(dirs @ q, axis=1)) > 1e-9:
        raise UnboundedShadowError("polytope is unbounded in the plane directions")
    verts = enumerate_vertices(lp)
    if not verts:
        raise UnboundedShadowError("polytope has no vertices to project")
    proj = np.array([v.point @ q for v in verts])
    hull, idx = convex_hull_2d(proj)
    return ShadowPolygon(basis=q, hull_points=hull, preimages=tuple(verts[i] for i in idx))
