"""Dense small-dimension linear algebra: norms, condition numbers, heights.

Everything here operates on plain numpy arrays (matrices row-major, vectors
1-d). Dimensions are small (d up to a few dozen), so full SVDs are used
throughout; accuracy of the smallest singular value matters far more than
throughput for the tail experiments built on top.
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


def inverse_norm(m) -> float:
    """Norm of the inverse, 1/sigma_min; +inf for a singular matrix."""
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise InvalidInputError("inverse_norm requires a square matrix")
    s = singular_values(a)
    if _is_singular(s):
        return math.inf
    return 1.0 / float(s[-1])


def inverse_norms(stack) -> np.ndarray:
    """inverse_norm of each matrix of a (k, d, d) stack, by one batched SVD."""
    a = np.asarray(stack, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] == 0 or not np.all(np.isfinite(a)):
        raise InvalidInputError("inverse_norms requires a finite (k, d, d) stack, d >= 1")
    s = np.linalg.svd(a, compute_uv=False)
    with np.errstate(divide="ignore"):
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
