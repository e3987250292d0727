"""Reference computations that only the tests use.

They live beside the tests, so no command comes to depend on them, and they
share no code path with what they check: ``height`` projects onto the span of
the other columns by QR, where ``numkit.inverse_norm`` takes an SVD, and
``wiggle_room_grid`` sweeps directions, where ``perceptron.wiggle_rooms`` runs
Wolfe's algorithm.
"""

import math

import numpy as np

from smoothlab.errors import InvalidInputError
from smoothlab.perceptron import PerceptronInstance


def height(stack) -> np.ndarray:
    """For each matrix of a (k, d, d) stack, the minimum over columns i of the
    distance from column i to the span of the other columns; zero for a
    singular matrix. One stacked QR per left-out column."""
    a = np.asarray(stack, dtype=float)
    best = np.full(a.shape[0], math.inf)
    for i in range(a.shape[-1]):
        q = np.linalg.qr(np.delete(a, i, axis=-1))[0]   # (k, d, d - 1), orthonormal columns
        v = a[..., i, None]
        residual = v - q @ (q.transpose(0, 2, 1) @ v)
        best = np.minimum(best, np.linalg.norm(residual[..., 0], axis=-1))
    return best


def wiggle_room_grid(inst: PerceptronInstance, directions: int = 100000) -> float:
    """Independent d=2 oracle: dense sweep of unit directions."""
    if inst.d != 2:
        raise InvalidInputError("grid oracle is for d = 2 only")
    angles = 2.0 * math.pi * np.arange(directions) / directions
    xs = np.column_stack([np.cos(angles), np.sin(angles)])
    margins = (inst.unit @ xs.T).min(axis=0)
    return float(margins.max())
