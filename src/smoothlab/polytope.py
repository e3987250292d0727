"""LP data model, brute-force vertex enumeration, and exact shadow polygons.

The polytope here is always the inequality form {x : x^T a_i <= b_i}. Vertex
enumeration over all d-subsets of constraints is the correctness oracle for
the pivoting code, so it stays exhaustive and exact at desk scale. It scans the
d-subsets in canonical order in batched chunks (feasible_bases), and the tests
cross-check that scan against a one-basis-at-a-time loop.
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
    OutOfRegimeError,
    SizeLimitError,
    UnboundedShadowError,
)
from .perturb import variance_regime_limit

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
    plane: tuple            # (t, z) as given
    basis: np.ndarray       # (d, 2) orthonormal basis of span(t, z)
    hull_points: np.ndarray  # (k, 2) counterclockwise, lexicographic start
    preimages: tuple         # PolytopeVertex per hull point

    @property
    def vertex_count(self) -> int:
        return len(self.hull_points)


def parse_lp(text: str) -> LinearProgram:
    """Plain-text LP: first line "n d", n lines of d+1 scalars, one line z."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidInputError("empty LP file")
    try:
        n, d = (int(tok) for tok in lines[0].split())
        rows = [list(map(float, lines[1 + i].split())) for i in range(n)]
        zline = list(map(float, lines[1 + n].split()))
    except (ValueError, IndexError) as exc:
        raise InvalidInputError(f"malformed LP file: {exc}") from exc
    if any(len(r) != d + 1 for r in rows) or len(zline) != d:
        raise InvalidInputError("malformed LP file: wrong field counts")
    arr = np.asarray(rows, dtype=float)
    return LinearProgram(arr[:, :d], arr[:, d], np.asarray(zline))


def format_lp(lp: LinearProgram) -> str:
    lines = [f"{lp.n} {lp.d}"]
    for i in range(lp.n):
        lines.append(" ".join(repr(float(v)) for v in lp.A[i]) + " " + repr(float(lp.b[i])))
    lines.append(" ".join(repr(float(v)) for v in lp.z))
    return "\n".join(lines) + "\n"


def _check_budget(n: int, d: int, limit: int = MAX_BASES) -> None:
    if math.comb(n, d) > limit:
        raise SizeLimitError(f"C({n},{d}) = {math.comb(n, d)} exceeds the budget {limit}")


def basis_chunks(n: int, d: int):
    """d-subsets of range(n) in combinations order, as (k, d) arrays, k <= BASIS_CHUNK."""
    _check_budget(n, d)
    subsets = combinations(range(n), d)
    while chunk := list(islice(subsets, BASIS_CHUNK)):
        yield np.array(chunk, dtype=np.intp)


def feasible_bases(lp: LinearProgram):
    """Nonsingular feasible bases of lp, one (tight sets, points) pair per chunk.

    Per chunk: one batched SVD rejects singular bases, one batched solve
    gives the basic solutions, one mask keeps those with A x - b <= FEAS_TOL.
    """
    for idx in basis_chunks(lp.n, lp.d):
        s = np.linalg.svd(lp.A[idx], compute_uv=False)
        idx = idx[~(s[:, -1] < 1e-12 * np.maximum(1.0, s[:, 0]))]
        x = np.linalg.solve(lp.A[idx], lp.b[idx][..., None])[..., 0]
        # stacked matvec: the same rounding as lp.A @ x on each point
        feasible = np.all((lp.A @ x[..., None])[..., 0] - lp.b <= FEAS_TOL, axis=1)
        yield idx[feasible], x[feasible]


def enumerate_vertices(lp: LinearProgram) -> list:
    """All feasible basic solutions, one per nonsingular tight set.

    Output is canonical: sorted by tight set. An infeasible polytope gives an
    empty list. Near-coincident vertices from distinct bases are flagged with
    a DegeneracyWarning but all are returned.
    """
    verts = [PolytopeVertex(point=x, tight_set=tuple(idx.tolist()))
             for tight, points in feasible_bases(lp) for idx, x in zip(tight, points)]
    pts = np.array([v.point for v in verts])
    for i in range(1, len(verts)):
        close = np.linalg.norm(pts[:i] - pts[i], axis=1) < COINCIDENT_TOL
        if close.any():
            warnings.warn(
                f"coincident vertices for bases {verts[close.argmax()].tight_set} and "
                f"{verts[i].tight_set}", DegeneracyWarning, stacklevel=2)
    return verts


def _recession_box_vertices(A: np.ndarray) -> list:
    """Vertices of {w : Aw <= 0, |w_i| <= 1}, the truncated recession cone."""
    n, d = A.shape
    box = np.vstack([np.eye(d), -np.eye(d)])
    lp = LinearProgram(np.vstack([A, box]), np.concatenate([np.zeros(n), np.ones(2 * d)]),
                       np.zeros(d))
    # the apex of a pointed cone has many coincident bases; not worth flagging
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneracyWarning)
        return enumerate_vertices(lp)


def recession_directions(A: np.ndarray) -> np.ndarray:
    """Nonzero extreme points of the truncated recession cone, as rows."""
    verts = _recession_box_vertices(np.asarray(A, dtype=float))
    dirs = [v.point for v in verts if np.linalg.norm(v.point) > 1e-9]
    return np.asarray(dirs) if dirs else np.zeros((0, A.shape[1]))


def is_feasible(lp: LinearProgram) -> bool:
    """Exact desk-scale feasibility of {Ax <= b} via homogenization.

    {Ax <= b} is nonempty iff the bounded polytope
    {(x, s) : Ax - bs <= 0, 0 <= s <= 1, |x_i| <= 1} has a vertex with s > 0.
    """
    n, d = lp.n, lp.d
    rows = np.hstack([lp.A, -lp.b[:, None]])
    box = np.hstack([np.vstack([np.eye(d), -np.eye(d)]), np.zeros((2 * d, 1))])
    s_rows = np.zeros((2, d + 1))
    s_rows[0, d] = 1.0
    s_rows[1, d] = -1.0
    big_a = np.vstack([rows, box, s_rows])
    big_b = np.concatenate([np.zeros(n), np.ones(2 * d), [1.0, 0.0]])
    aug = LinearProgram(big_a, big_b, np.zeros(d + 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneracyWarning)
        return any(v.point[d] > 1e-9 for v in enumerate_vertices(aug))


@dataclass(frozen=True)
class OptimumResult:
    status: str                      # "optimal" | "unbounded" | "infeasible"
    vertex: PolytopeVertex | None = None
    ray: np.ndarray | None = None    # improving recession direction if unbounded
    value: float | None = None       # objective value when optimal


def brute_force_optimum(lp: LinearProgram) -> OptimumResult:
    """Oracle LP solver by exhaustive enumeration.

    Returns an object with .status in {"optimal", "unbounded", "infeasible"},
    .vertex (for optimal) and .ray (for unbounded). Raises PhaseOneError-free:
    a feasible polytope without vertices that is bounded in the z direction
    has no basic optimum and is reported via InvalidInputError.
    """
    verts = enumerate_vertices(lp)
    feasible = bool(verts) or is_feasible(lp)
    if not feasible:
        return OptimumResult("infeasible")
    dirs = recession_directions(lp.A)
    if len(dirs):
        gains = dirs @ lp.z
        k = int(np.argmax(gains))
        if gains[k] > 1e-9:
            return OptimumResult("unbounded", ray=dirs[k])
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
    nt, nz = np.linalg.norm(t), np.linalg.norm(z)
    if nt == 0 or nz == 0:
        raise DegeneratePlaneError("plane vectors must be nonzero")
    cross = np.linalg.norm(np.outer(t, z) - np.outer(z, t)) / (math.sqrt(2) * nt * nz)
    if cross < 1e-9:  # Frobenius form of |sin(angle)|
        raise DegeneratePlaneError("plane vectors are (nearly) parallel")
    q1 = t / nt
    r = z - np.dot(z, q1) * q1
    q2 = r / np.linalg.norm(r)
    return np.column_stack([q1, q2])


def convex_hull_2d(points: np.ndarray, tol: float = COLLINEAR_TOL):
    """Andrew monotone chain; counterclockwise, lexicographic tie-breaking.

    Returns (hull_points, indices-into-points). Strictly convex: collinear
    intermediate points (within tol) are dropped.
    """
    pts = np.asarray(points, dtype=float)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    # drop exact/near duplicates so hull indices are well defined
    uniq = []
    for i in order:
        if not uniq or np.linalg.norm(pts[i] - pts[uniq[-1]]) > tol:
            uniq.append(int(i))
    if len(uniq) <= 2:
        return pts[uniq], uniq

    def cross(o, a, b):
        return (pts[a][0] - pts[o][0]) * (pts[b][1] - pts[o][1]) - \
               (pts[a][1] - pts[o][1]) * (pts[b][0] - pts[o][0])

    lower = []
    for i in uniq:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], i) <= tol:
            lower.pop()
        lower.append(i)
    upper = []
    for i in reversed(uniq):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], i) <= tol:
            upper.pop()
        upper.append(i)
    hull = lower[:-1] + upper[:-1]
    return pts[hull], hull


def shadow_polygon(rows, plane_t, plane_z) -> ShadowPolygon:
    """Exact shadow of {x : x^T a_i <= 1} on span(t, z).

    Projects every enumerated polytope vertex onto an orthonormal basis of
    the plane and takes the 2-d hull. Errors if the polytope is unbounded in
    any direction visible to the plane (or has no vertices at all).
    """
    a = np.atleast_2d(np.asarray(rows, dtype=float))
    q = plane_basis(plane_t, plane_z)
    if q.shape[0] != a.shape[1]:
        raise InvalidInputError("plane and constraint dimensions disagree")
    dirs = recession_directions(a)
    if len(dirs) and np.max(np.linalg.norm(dirs @ q, axis=1)) > 1e-9:
        raise UnboundedShadowError("polytope is unbounded in the plane directions")
    lp = LinearProgram(a, np.ones(a.shape[0]), np.zeros(a.shape[1]))
    verts = enumerate_vertices(lp)
    if not verts:
        raise UnboundedShadowError("polytope has no vertices to project")
    proj = np.array([v.point @ q for v in verts])
    hull, idx = convex_hull_2d(proj)
    return ShadowPolygon(plane=(np.asarray(plane_t, dtype=float), np.asarray(plane_z, dtype=float)),
                         basis=q, hull_points=hull,
                         preimages=tuple(verts[i] for i in idx))


def shadow_size_bound(n: int, d: int, sigma: float) -> float:
    """The proven expected-shadow-size bound 58888678 * n * d^3 / sigma^6.

    Only valid in its hypothesis regime (d >= 3, n > d, sigma^2 <= 1/(9 d log n));
    anything else is an out-of-regime error so experiments never compare
    against an inapplicable bound.
    """
    if d < 3 or n <= d:
        raise OutOfRegimeError("bound requires d >= 3 and n > d")
    sigma = float(sigma)
    if not (sigma > 0) or sigma ** 2 > variance_regime_limit(n, d) * (1.0 + 1e-12):
        raise OutOfRegimeError("bound requires 0 < sigma^2 <= 1/(9 d log n)")
    return 58888678.0 * n * d ** 3 / sigma ** 6
