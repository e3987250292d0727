"""Reproducible random models: Gaussian perturbations and +-1 matrices.

Every sampled value is fully determined by a ``SeedSpec``: a 64-bit master
seed plus a nonnegative stream index. Stream i is numpy's PCG64 seeded with
``SeedSequence(master_seed, spawn_key=(stream_index,))``, so distinct stream
indices give statistically independent streams and parallel runs reproduce
serial ones exactly. Gaussians come from the generator's standard_normal
(ziggurat); determinism is guaranteed within this implementation, not across
languages.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


class RegimeWarning(UserWarning):
    """Sampled outside the hypothesis regime of the bound under test."""


@dataclass(frozen=True)
class SeedSpec:
    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not (0 <= self.master_seed < 2 ** 64):
            raise InvalidInputError("master_seed must be a 64-bit unsigned integer")
        if self.stream_index < 0:
            raise InvalidInputError("stream_index must be nonnegative")

    def rng(self) -> np.random.Generator:
        """Generator for this stream."""
        return np.random.default_rng(
            np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,)))


def _check_sigma(sigma: float) -> float:
    sigma = float(sigma)
    if not math.isfinite(sigma) or sigma < 0:
        raise InvalidInputError("sigma must be finite and nonnegative")
    return sigma


def gaussian_matrix(center, sigma: float, seed: SeedSpec) -> np.ndarray:
    """Entrywise independent Gaussians with the given center and std sigma."""
    sigma = _check_sigma(sigma)
    c = np.asarray(center, dtype=float)
    if c.ndim != 2 or not np.all(np.isfinite(c)):
        raise InvalidInputError("center must be a finite 2-d matrix")
    if sigma == 0.0:
        return c.copy()
    return c + sigma * seed.rng().standard_normal(c.shape)


def variance_regime_limit(n: int, d: int) -> float:
    """Largest admissible sigma^2 for the shadow-size hypotheses, 1/(9 d log n)."""
    if n < 2:
        return math.inf
    return 1.0 / (9.0 * d * math.log(n))


def regime_notes(centers, sigma: float) -> list:
    """Hypothesis-regime violations for Gaussian point perturbations.

    Returns human-readable notes when some center has norm > 1 or sigma^2
    exceeds the 1/(9 d log n) hypothesis. Pure, so experiment reports can
    echo the notes without re-sampling.
    """
    c = np.atleast_2d(np.asarray(centers, dtype=float))
    n, d = c.shape
    notes = []
    norms = np.linalg.norm(c, axis=1)
    over = int(np.sum(norms > 1.0 + 1e-12))
    if over:
        notes.append(f"{over} center(s) have norm > 1")
    limit = variance_regime_limit(n, d)
    if float(sigma) ** 2 > limit * (1.0 + 1e-12):
        notes.append(
            f"sigma^2 = {float(sigma) ** 2:.6g} exceeds the regime limit "
            f"1/(9 d log n) = {limit:.6g}")
    return notes


def gaussian_points(centers, sigma: float, seed: SeedSpec) -> np.ndarray:
    """n Gaussian vectors of std sigma centered at the given rows.

    Warns (RegimeWarning) when some center has norm > 1 or sigma^2 exceeds
    the 1/(9 d log n) hypothesis; both are warnings, not errors, so
    experiments can probe outside the proven regime on purpose.
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


def smoothed_input(center_x, sigma: float, seed: SeedSpec) -> np.ndarray:
    """Relative-magnitude perturbation x + sigma * ||x|| * g."""
    sigma = _check_sigma(sigma)
    x = np.asarray(center_x, dtype=float)
    if x.ndim != 1 or not np.all(np.isfinite(x)):
        raise InvalidInputError("center must be a finite 1-d vector")
    scale = sigma * float(np.linalg.norm(x))
    if scale == 0.0:
        return x.copy()
    return x + scale * seed.rng().standard_normal(x.shape)
