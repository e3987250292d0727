"""The closed forms of smoothlab.bounds against the formulas written out here,
and their limits where sigma * t underflows."""

import math

import pytest

from smoothlab.bounds import (
    blum_dunagan_tail,
    conjecture2_bound,
    edelman_applies,
    matrix_tail_bounds,
    submatrix_bounds,
)

SIGMAS = [1.0, 0.5, 0.1, 1e-3, 3.0]
THRESHOLDS = [0.5, 2.0, 10.0, 1e6]


class TestMatrixTail:
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_each_bound_is_the_literal_formula(self, d):
        for sigma in SIGMAS:
            for t in THRESHOLDS:
                got = matrix_tail_bounds(d, sigma, t, zero_center=True)
                assert list(got) == ["bound_edelman", "bound_sst", "bound_thm43", "bound_conj1"]
                assert got["bound_edelman"] == (math.sqrt(d) / t if sigma == 1.0 else None)
                assert got["bound_sst"] == 1.823 * math.sqrt(d) / (t * sigma)
                assert got["bound_thm43"] == d ** 1.5 / (t * sigma)
                assert got["bound_conj1"] == math.sqrt(d) / (t * sigma)
        assert conjecture2_bound(d, 4.0) == math.sqrt(d) / 4.0

    def test_edelman_only_for_the_standard_gaussian(self):
        assert edelman_applies(True, 1.0)
        assert not edelman_applies(True, 0.5)
        assert not edelman_applies(False, 1.0)
        assert matrix_tail_bounds(2, 1.0, 5.0, zero_center=False)["bound_edelman"] is None

    @pytest.mark.parametrize("sigma, t", [(1e-200, 1e-200), (1e-300, 1e-30), (5e-324, 0.5)])
    def test_underflowing_sigma_t_gives_inf(self, sigma, t):
        assert sigma * t == 0.0
        got = matrix_tail_bounds(2, sigma, t, zero_center=True)
        assert got == {"bound_edelman": None, "bound_sst": math.inf, "bound_thm43": math.inf,
                       "bound_conj1": math.inf}

    def test_overflowing_quotient_is_inf_as_before(self):
        got = matrix_tail_bounds(2, 1e-160, 1e-160, zero_center=True)
        assert got["bound_conj1"] == math.inf and got["bound_sst"] == math.inf


class TestBlumDunaganLimits:
    @pytest.mark.parametrize("sigma, t", [(1e-200, 1e-200), (1e-300, 1e-30)])
    def test_underflowing_sigma_t_gives_minus_inf(self, sigma, t):
        assert sigma * t == 0.0
        assert blum_dunagan_tail(6, 2, sigma, t) == -math.inf

    def test_a_subnormal_sigma_t_was_already_minus_inf(self):
        assert blum_dunagan_tail(6, 2, 1e-160, 1e-160) == -math.inf

    def test_not_monotone_in_t(self):
        values = [blum_dunagan_tail(6, 2, 0.2, t) for t in (14.2, 15, 20, 50, 200, 1000)]
        assert [round(v, 3) for v in values] == [0.024, 0.333, 1.47, 2.143, 1.124, 0.361]


class TestSubmatrix:
    @pytest.mark.parametrize("n, d", [(6, 2), (8, 3), (12, 4)])
    def test_tau_rhs_and_probability(self, n, d):
        for sigma in (0.1, 0.05):
            tau, rhs, prob = submatrix_bounds(n, d, sigma)
            assert tau == sigma ** 2 / (8.0 * d ** 1.5 * n ** 7)
            assert rhs == math.ceil((n - d - 1) / 2) * math.comb(n, d - 1)
            assert prob == 1.0 - n ** (-d) - n ** (-n + d - 1) - n ** (-2.9 * d + 1)
