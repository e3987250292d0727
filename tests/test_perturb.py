import math

import numpy as np
import pytest

from smoothlab.errors import InvalidInputError
from smoothlab.perturb import (
    RegimeWarning,
    SeedSpec,
    gaussian_matrix,
    gaussian_points,
    rademacher_matrix,
    regime_notes,
    smoothed_input,
    variance_regime_limit,
)


class TestSeedSpec:
    def test_same_stream_reproduces(self):
        a = SeedSpec(123, 5).rng().standard_normal(100)
        b = SeedSpec(123, 5).rng().standard_normal(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = SeedSpec(123, 0).rng().standard_normal(100)
        b = SeedSpec(123, 1).rng().standard_normal(100)
        assert not np.array_equal(a, b)

    def test_streams_uncorrelated(self):
        a = SeedSpec(7, 0).rng().standard_normal(20000)
        b = SeedSpec(7, 1).rng().standard_normal(20000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            SeedSpec(-1, 0)
        with pytest.raises(InvalidInputError):
            SeedSpec(0, -1)
        with pytest.raises(InvalidInputError):
            SeedSpec(2 ** 64, 0)


class TestGaussianMatrix:
    def test_zero_sigma_returns_center(self):
        c = np.arange(6.0).reshape(2, 3)
        out = gaussian_matrix(c, 0.0, SeedSpec(0))
        assert np.array_equal(out, c)
        assert out is not c

    def test_moments(self):
        m = gaussian_matrix(np.zeros((300, 300)), 0.5, SeedSpec(11))
        assert abs(m.mean()) < 0.01
        assert m.std() == pytest.approx(0.5, abs=0.01)

    def test_center_shift(self):
        c = 3.0 * np.ones((100, 100))
        m = gaussian_matrix(c, 0.1, SeedSpec(2))
        assert m.mean() == pytest.approx(3.0, abs=0.01)

    def test_rejects_bad_sigma(self):
        with pytest.raises(InvalidInputError):
            gaussian_matrix(np.zeros((2, 2)), -1.0, SeedSpec(0))
        with pytest.raises(InvalidInputError):
            gaussian_matrix(np.zeros((2, 2)), math.nan, SeedSpec(0))


class TestRegime:
    def test_variance_limit_values(self):
        assert variance_regime_limit(8, 3) == pytest.approx(1.0 / (27.0 * math.log(8)))
        assert variance_regime_limit(1, 3) == math.inf

    def test_notes_empty_in_regime(self):
        centers = np.zeros((8, 3))
        sigma = math.sqrt(variance_regime_limit(8, 3)) * 0.9
        assert regime_notes(centers, sigma) == []

    def test_notes_flag_large_norm_and_sigma(self):
        centers = 2.0 * np.ones((8, 3))
        notes = regime_notes(centers, 1.0)
        assert len(notes) == 2

    def test_gaussian_points_warns(self):
        with pytest.warns(RegimeWarning):
            gaussian_points(np.zeros((8, 3)), 1.0, SeedSpec(0))

    def test_gaussian_points_silent_in_regime(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", RegimeWarning)
            gaussian_points(np.zeros((8, 3)), 0.1, SeedSpec(0))


class TestRademacher:
    def test_entries_are_signs(self):
        m = rademacher_matrix(6, SeedSpec(4))
        assert set(np.unique(m)) <= {-1.0, 1.0}
        assert m.shape == (6, 6)

    def test_sign_balance(self):
        rows = [rademacher_matrix(4, SeedSpec(5, i)).ravel() for i in range(1000)]
        freq = (np.concatenate(rows) > 0).mean()
        assert freq == pytest.approx(0.5, abs=0.02)

    def test_rejects_bad_d(self):
        with pytest.raises(InvalidInputError):
            rademacher_matrix(0, SeedSpec(0))


class TestSmoothedInput:
    def test_zero_center_unperturbed(self):
        x = np.zeros(4)
        assert np.array_equal(smoothed_input(x, 0.5, SeedSpec(0)), x)

    def test_zero_sigma_unperturbed(self):
        x = np.array([1.0, 2.0])
        assert np.array_equal(smoothed_input(x, 0.0, SeedSpec(0)), x)

    def test_relative_scale(self):
        x = np.array([3.0, 4.0])  # norm 5
        seed = SeedSpec(77, 2)
        out = smoothed_input(x, 0.1, seed)
        g = seed.rng().standard_normal(2)
        assert np.allclose(out, x + 0.5 * g)

    def test_rejects_matrix(self):
        with pytest.raises(InvalidInputError):
            smoothed_input(np.zeros((2, 2)), 0.1, SeedSpec(0))
