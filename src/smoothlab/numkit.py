"""Dense small-dimension linear algebra: overflow-safe norms, the inverse norm.

Everything here operates on plain numpy arrays (matrices row-major, vectors
1-d). inverse_norm, the 1/sigma_min that the conditioning tails measure, takes
one full SVD per matrix, as the accuracy of the smallest singular value matters
far more than throughput at these small dimensions; a (k, d, d) stack gets one
batched SVD per block of trials. parse_table reads the `n d` text format that
LP, instance and center files share.
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
