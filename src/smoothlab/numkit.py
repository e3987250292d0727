"""Dense small-dimension linear algebra: norms, condition numbers, heights.

Everything here operates on plain numpy arrays (matrices row-major, vectors
1-d). Dimensions are small (d up to a few dozen), so full SVDs are used
throughout; accuracy of the smallest singular value matters far more than
throughput for the tail experiments built on top. inverse_norm alone also
takes a (k, d, d) stack, for one batched SVD per block of trials. parse_table
reads the `n d` text format that LP, instance and center files share.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError

# A smallest singular value below this is treated as exact zero (singular
# matrix). Exactly singular integer matrices (e.g. +-1 matrices) come out of
# a floating SVD at the eps * sigma_max level rather than 0, so the cutoff is
# relative; perturbed Gaussian matrices land this close to singular with
# probability ~1e-13 per draw, far below anything the tail experiments see.
SINGULAR_RTOL = 64.0 * np.finfo(float).eps


def _is_singular(s: np.ndarray):  # one spectrum, or a stack of spectra
    smax, smin = s[..., 0], s[..., -1]
    return (smin <= smax * s.shape[-1] * SINGULAR_RTOL) | (smin < 1e-300)


def norm(a, axis=None):
    """np.linalg.norm(a, axis=axis) of a / 2^e, times 2^e, for 2^e near the largest
    |entry| of a (or of each slice along axis; e <= 1023, as 2^1024 is inf): squares
    overflow or underflow only with the norm (Blue, ACM TOMS 1978), and where
    np.linalg.norm does neither the bits are the same, as the scaling is exact.
    A norm past the float range is inf, without a warning."""
    a = np.asarray(a, dtype=float)
    if axis is None:   # Python floats cost a fraction of np.frexp per call
        e = min(math.frexp(np.abs(a).max(initial=0.0))[1], 1023)
        return float(np.linalg.norm(np.ldexp(a, -e))) * 2.0 ** e
    e = np.minimum(np.frexp(np.abs(a).max(axis=axis, keepdims=True, initial=0.0))[1], 1023)
    with np.errstate(over="ignore"):
        return np.ldexp(np.linalg.norm(np.ldexp(a, -e), axis=axis, keepdims=True), e).squeeze(axis)


def parse_table(text: str, what: str, extra: int = 0, tail: int = 0):
    """A first line "n d" (both at least 1), then n rows of d + extra numbers
    and `tail` rows of d; blank lines are skipped. Returns the (n, d + extra)
    and (tail, d) arrays; errors name `what`, e.g. "malformed LP file: ..."."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidInputError(f"empty {what}")
    try:
        n, d = (int(tok) for tok in lines[0].split())
        if n < 1 or d < 1:
            raise InvalidInputError(f"n and d must be at least 1 (header {n} {d})")
        rows = [list(map(float, lines[1 + i].split())) for i in range(n + tail)]
    except (ValueError, IndexError) as exc:
        raise InvalidInputError(f"malformed {what}: {exc}") from exc
    if any(len(r) != d + extra for r in rows[:n]) or any(len(r) != d for r in rows[n:]):
        raise InvalidInputError(f"malformed {what}: wrong field counts")
    return np.array(rows[:n]), np.array(rows[n:]).reshape(tail, d)


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise InvalidInputError("expected a nonempty 2-d matrix")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix entries must be finite")
    return a


def _as_vector(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise InvalidInputError("expected a nonempty 1-d vector")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("vector entries must be finite")
    return a


def singular_values(m) -> np.ndarray:
    """Singular spectrum of a matrix, nonincreasing."""
    return np.linalg.svd(_as_matrix(m), compute_uv=False)


def operator_norm(m) -> float:
    """Largest singular value (the spectral norm max ||Mx||/||x||)."""
    return float(singular_values(m)[0])


def inverse_norm(m) -> float | np.ndarray:
    """Norm of the inverse, 1/sigma_min; +inf for a singular matrix.

    A (k, d, d) stack gives the k norms as an array, from one batched SVD.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0 \
            or not np.all(np.isfinite(a)):
        raise InvalidInputError("inverse_norm requires a finite square matrix or (k, d, d) stack")
    s = np.linalg.svd(a, compute_uv=False)
    if a.ndim == 2:
        return math.inf if _is_singular(s) else 1.0 / float(s[-1])
    with np.errstate(divide="ignore", over="ignore"):   # _is_singular makes those inf
        return np.where(_is_singular(s), math.inf, 1.0 / s[:, -1])


def condition_number(m) -> float:
    """kappa(M) = ||M|| * ||M^-1||; +inf for a singular matrix."""
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise InvalidInputError("condition_number requires a square matrix")
    s = singular_values(a)
    if _is_singular(s):
        return math.inf
    return float(s[0]) / float(s[-1])


def span_basis(vectors) -> np.ndarray:
    """Orthonormal basis (columns) for the span of the given vectors.

    Rank is decided by an SVD with the usual relative threshold, so linearly
    dependent inputs are handled. Empty input gives a (d, 0) array.
    """
    vs = [_as_vector(v) for v in vectors]
    if not vs:
        return np.zeros((0, 0))
    d = vs[0].size
    if any(v.size != d for v in vs):
        raise InvalidInputError("all vectors must share the same dimension")
    b = np.column_stack(vs)
    u, s, _ = np.linalg.svd(b, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((d, 0))
    rank = int(np.sum(s > s[0] * max(b.shape) * np.finfo(float).eps))
    return u[:, :rank]


def distance_to_span(v, basis) -> float:
    """Euclidean distance from v to the linear span of the basis vectors.

    An empty basis spans only the origin, so the distance is ||v||.
    """
    x = _as_vector(v)
    q = span_basis(basis)
    if q.shape[1] == 0:
        return float(np.linalg.norm(x))
    if q.shape[0] != x.size:
        raise InvalidInputError("vector and basis dimensions disagree")
    residual = x - q @ (q.T @ x)
    return float(np.linalg.norm(residual))


def height(columns) -> float:
    """Minimum over i of the distance from column i to the span of the rest.

    Takes exactly d vectors in R^d; returns 0 exactly when the matrix with
    these columns is singular.
    """
    vs = [_as_vector(v) for v in columns]
    if not vs:
        raise InvalidInputError("height requires at least one vector")
    d = vs[0].size
    if len(vs) != d or any(v.size != d for v in vs):
        raise InvalidInputError("height requires exactly d vectors of dimension d")
    best = math.inf
    for i in range(d):
        others = vs[:i] + vs[i + 1:]
        best = min(best, distance_to_span(vs[i], others))
    return best
