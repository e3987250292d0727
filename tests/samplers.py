"""Per-trial samplers that draw from one ``SeedSpec.rng()`` stream each.

The batched experiment workers derive their streams in bulk
(``perturb.block_streams``); these one-stream-at-a-time samplers are the
independent reference the tests check them against.
"""

import warnings

import numpy as np

from smoothlab.errors import InvalidInputError
from smoothlab.perturb import SeedSpec, _check_sigma, regime_notes


class RegimeWarning(UserWarning):
    """Sampled outside the hypothesis regime of the bound under test."""


def gaussian_matrix(center, sigma: float, seed: SeedSpec) -> np.ndarray:
    """Entrywise independent Gaussians with the given center and std sigma."""
    sigma = _check_sigma(sigma)
    c = np.asarray(center, dtype=float)
    if c.ndim != 2 or not np.all(np.isfinite(c)):
        raise InvalidInputError("center must be a finite 2-d matrix")
    if sigma == 0.0:
        return c.copy()
    return c + sigma * seed.rng().standard_normal(c.shape)


def gaussian_points(centers, sigma: float, seed: SeedSpec) -> np.ndarray:
    """n Gaussian vectors of std sigma centered at the given rows.

    Warns (RegimeWarning) when some center has norm > 1 or sigma^2 exceeds
    the 1/(9 d log n) hypothesis.
    """
    sigma = _check_sigma(sigma)
    c = np.atleast_2d(np.asarray(centers, dtype=float))
    if c.ndim != 2 or not np.all(np.isfinite(c)):
        raise InvalidInputError("centers must be finite vectors of equal dimension")
    for note in regime_notes(c, sigma):
        warnings.warn(note, RegimeWarning, stacklevel=2)
    if sigma == 0.0:
        return c.copy()
    return c + sigma * seed.rng().standard_normal(c.shape)


def rademacher_matrix(d: int, seed: SeedSpec) -> np.ndarray:
    """d x d matrix of independent uniform +-1 entries."""
    if d < 1:
        raise InvalidInputError("d must be at least 1")
    return 2.0 * seed.rng().integers(0, 2, size=(d, d)) - 1.0
