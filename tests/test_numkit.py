import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothlab.errors import InvalidInputError
from smoothlab.experiments import ExperimentConfig, _block_submatrix, point_centers
from smoothlab.numkit import (
    condition_number,
    distance_to_span,
    height,
    inverse_norm,
    norm,
    operator_norm,
    parse_table,
    span_basis,
)
from smoothlab.perturb import SeedSpec

from samplers import gaussian_points


def power_iteration_norm(m, iters=2000):
    """Independent oracle: largest singular value via power iteration on M^T M."""
    m = np.asarray(m, dtype=float)
    v = np.ones(m.shape[1]) / math.sqrt(m.shape[1])
    for _ in range(iters):
        w = m.T @ (m @ v)
        v = w / np.linalg.norm(w)
    return math.sqrt(v @ (m.T @ (m @ v)))


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert operator_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)

    def test_matches_power_iteration(self):
        rng = np.random.default_rng(42)
        m = rng.standard_normal((4, 4))
        assert operator_norm(m) == pytest.approx(power_iteration_norm(m), rel=1e-10)

    def test_zero_matrix(self):
        assert operator_norm(np.zeros((2, 3))) == 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            operator_norm(np.array([[1.0, np.inf], [0.0, 1.0]]))


class TestInverseNorm:
    def test_identity(self):
        for d in (1, 2, 5):
            assert inverse_norm(np.eye(d)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert inverse_norm(np.diag([2.0, 0.5])) == pytest.approx(2.0)

    def test_singular_gives_inf(self):
        assert inverse_norm(np.ones((2, 2))) == math.inf

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInputError):
            inverse_norm(np.ones((2, 3)))


# each input check of numkit, and its message
BAD_INPUTS = [
    (operator_norm, np.ones(3), "expected a nonempty 2-d matrix"),
    (operator_norm, np.ones((2, 2, 2)), "expected a nonempty 2-d matrix"),
    (operator_norm, np.zeros((0, 2)), "expected a nonempty 2-d matrix"),
    (condition_number, np.array([[1.0, np.nan], [0.0, 1.0]]), "matrix entries must be finite"),
    (condition_number, np.ones((2, 3)), "condition_number requires a square matrix"),
    (span_basis, [np.ones((2, 2))], "expected a nonempty 1-d vector"),
    (span_basis, [np.zeros(0)], "expected a nonempty 1-d vector"),
    (span_basis, [[1.0, np.inf]], "vector entries must be finite"),
    (span_basis, [[1.0, 0.0], [1.0, 0.0, 0.0]], "all vectors must share the same dimension"),
    (height, [], "height requires at least one vector"),
    (height, [[1.0, 0.0], [0.0, 1.0, 0.0]], "height requires exactly d vectors of dimension d"),
    (height, [[1.0, np.nan], [0.0, 1.0]], "vector entries must be finite"),
]


@pytest.mark.parametrize("fn, arg, message", BAD_INPUTS,
                         ids=[f"{fn.__name__}-{i}" for i, (fn, _, _) in enumerate(BAD_INPUTS)])
def test_input_checks(fn, arg, message):
    with pytest.raises(InvalidInputError) as exc:
        fn(arg)
    assert str(exc.value) == message


class TestInverseNorms:
    def test_sign_matrices_match_inverse_norm(self):
        # all 512 3x3 +-1 matrices; the exactly singular ones must give inf
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=9))).reshape(-1, 3, 3)
        got = inverse_norm(signs)
        assert np.array_equal(got, [inverse_norm(m) for m in signs])
        singular = np.round(np.linalg.det(signs)) == 0
        assert singular.any() and not singular.all()
        assert np.array_equal(np.isinf(got), singular)

    def test_gaussian_stack_matches_inverse_norm(self):
        rng = np.random.default_rng(21)
        for d in (1, 2, 4):
            stack = rng.standard_normal((300, d, d))
            stack[::7, 0] = stack[::7, -1]   # repeated rows: singular unless d = 1
            assert np.array_equal(inverse_norm(stack), [inverse_norm(m) for m in stack])

    def test_rejects_bad_stacks(self):
        for bad in (np.ones((2, 2, 3)), np.ones((2, 0, 0)), np.full((1, 2, 2), np.nan)):
            with pytest.raises(InvalidInputError):
                inverse_norm(bad)

    def test_subnormal_smallest_singular_value_gives_inf_silently(self):
        # 1 / 1e-310 overflows; such a matrix is singular by the 1e-300 floor
        stack = np.array([np.diag([1.0, 1e-310]), np.eye(2)])
        assert inverse_norm(stack).tolist() == [math.inf, 1.0]

    @pytest.mark.parametrize("n,d,center", [(8, 3, "box"), (11, 4, "ones"), (6, 2, "zero")])
    def test_trial_submatrix_matches_subset_loop(self, n, d, center):
        sigma = 0.1
        cfg = ExperimentConfig(kind="submatrix_lemma", n=n, d=d, sigma_grid=(sigma,),
                               trials=1, master_seed=17, center_source=center)
        centers = point_centers(cfg)
        tau = sigma ** 2 / (8.0 * d ** 1.5 * n ** 7)
        expected = []
        for stream in range(5):
            pts = gaussian_points(centers, sigma, SeedSpec(cfg.master_seed, stream))
            expected.append(sum(inverse_norm(pts[list(idx)].T) >= tau
                                for idx in itertools.combinations(range(n), d)))
        assert _block_submatrix((cfg, centers, sigma, 0, 5)) == expected


# rows of 1 to 6 entries, each 0 or of magnitude 2^-20..2, times 2^e for one e
# in -140..140 per row: np.linalg.norm neither overflows nor underflows on them
SCALED_ROWS = st.integers(1, 6).flatmap(lambda d: st.lists(st.tuples(
    st.lists(st.floats(-2.0, 2.0).map(lambda x: x if abs(x) >= 2.0 ** -20 else 0.0),
             min_size=d, max_size=d),
    st.integers(-140, 140)), min_size=1, max_size=8))


class TestNorm:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(SCALED_ROWS)
    def test_bits_match_linalg_norm(self, rows):
        a = np.array([np.ldexp(entries, e) for entries, e in rows])
        assert np.array_equal(norm(a, axis=1), np.linalg.norm(a, axis=1))
        for row in a:
            got = norm(row)
            assert type(got) is float and got == np.linalg.norm(row)

    def test_zero_rows(self):
        assert np.array_equal(norm(np.zeros((3, 2)), axis=1), np.zeros(3))
        assert norm(np.zeros(4)) == 0.0

    def test_subnormal_rows(self):
        a = np.ldexp([[3.0, 4.0], [1.0, 0.0]], -1074)   # np.linalg.norm gives 0 for both
        assert norm(a, axis=1).tolist() == [math.ldexp(5.0, -1074), 5e-324]
        assert norm(a[0]) == math.ldexp(5.0, -1074)

    @pytest.mark.parametrize("peak", [2.0 ** 1023, 1.5 * 2.0 ** 1023, np.finfo(float).max])
    def test_peak_in_the_top_binade(self, peak):
        assert norm([peak, 0.0]) == peak
        assert norm(np.array([[0.0, -peak], [1.0, 0.0]]), axis=1).tolist() == [peak, 1.0]

    def test_squares_past_the_float_range(self):
        assert abs(norm([3e200, 4e200]) - 5e200) <= np.spacing(5e200)
        assert abs(norm(np.array([[3e200, 4e200]]), axis=1)[0] - 5e200) <= np.spacing(5e200)

    def test_norm_past_the_float_range_is_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert norm([1.5e308, 1.5e308]) == math.inf
            assert norm(np.array([[1.5e308, 1.5e308], [1.0, 0.0]]), axis=1).tolist() == [math.inf, 1.0]


class TestParseTable:
    def test_rows_and_tail(self):
        rows, tail = parse_table("2 2\n\n1 0 5\n0 1 6\n3 4\n", "LP file", extra=1, tail=1)
        assert rows.tolist() == [[1, 0, 5], [0, 1, 6]] and tail.tolist() == [[3, 4]]
        rows, tail = parse_table("1 3\n0 0 0\n", "instance file")
        assert rows.tolist() == [[0, 0, 0]] and tail.shape == (0, 3)

    @pytest.mark.parametrize("text, message", [
        ("", "empty center list"),
        ("\n \n", "empty center list"),
        ("0 2\n", "malformed center list: n and d must be at least 1 (header 0 2)"),
        ("2\n1\n", "malformed center list: not enough values to unpack (expected 2, got 1)"),
        ("1 2\n", "malformed center list: list index out of range"),
        ("1 2\n1 x\n", "malformed center list: could not convert string to float: 'x'"),
        ("2 2\n1 0\n1 0 0\n", "malformed center list: wrong field counts"),
    ])
    def test_errors_name_the_file(self, text, message):
        with pytest.raises(InvalidInputError) as exc:
            parse_table(text, "center list")
        assert str(exc.value) == message


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(np.eye(4)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert condition_number(np.diag([4.0, 1.0])) == pytest.approx(4.0)

    def test_matches_eig_oracle(self):
        # independent oracle: eigendecomposition of M^T M
        rng = np.random.default_rng(7)
        m = rng.standard_normal((5, 5))
        eigs = np.linalg.eigvalsh(m.T @ m)
        expected = math.sqrt(eigs[-1] / eigs[0])
        assert condition_number(m) == pytest.approx(expected, rel=1e-9)

    def test_at_least_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = rng.standard_normal((4, 4))
            assert condition_number(m) >= 1.0

    def test_singular(self):
        assert condition_number(np.ones((3, 3))) == math.inf


class TestDistanceToSpan:
    def test_orthogonal(self):
        assert distance_to_span([0.0, 1.0], [[1.0, 0.0]]) == pytest.approx(1.0)

    def test_membership(self):
        assert distance_to_span([1.0, 0.0], [[1.0, 0.0]]) == pytest.approx(0.0, abs=1e-12)

    def test_hand_projection(self):
        # project (1,0) onto span{(1,1)}: residual norm 1/sqrt(2)
        assert distance_to_span([1.0, 0.0], [[1.0, 1.0]]) == pytest.approx(1 / math.sqrt(2))

    def test_empty_basis(self):
        assert distance_to_span([3.0, 4.0], []) == pytest.approx(5.0)

    def test_dependent_basis_vectors(self):
        # duplicated basis vector must not shrink the distance
        d1 = distance_to_span([0.0, 1.0, 0.0], [[1.0, 0.0, 0.0]])
        d2 = distance_to_span([0.0, 1.0, 0.0], [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        assert d1 == pytest.approx(d2)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            distance_to_span([1.0, 0.0], [[1.0, 0.0, 0.0]])

    def test_zero_exactly_on_membership_cases(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            basis = [rng.standard_normal(4) for _ in range(2)]
            v = 0.3 * basis[0] - 1.7 * basis[1]
            assert distance_to_span(v, basis) < 1e-10


class TestHeight:
    def test_orthonormal(self):
        assert height(list(np.eye(3))) == pytest.approx(1.0)

    def test_hand_case(self):
        # min of dist((1,0), span{(1,1)}) = 1/sqrt(2) and dist((1,1), span{(1,0)}) = 1
        assert height([[1.0, 0.0], [1.0, 1.0]]) == pytest.approx(1 / math.sqrt(2))

    def test_collinear(self):
        assert height([[1.0, 0.0], [2.0, 0.0]]) == pytest.approx(0.0, abs=1e-12)

    def test_wrong_count(self):
        with pytest.raises(InvalidInputError):
            height([[1.0, 0.0]])


class TestInvariants:
    def test_inverse_norm_height_inequality(self):
        # inverse_norm <= sqrt(d)/height on random matrices
        rng = np.random.default_rng(5)
        for _ in range(200):
            d = int(rng.integers(2, 8))
            m = rng.standard_normal((d, d))
            cols = list(m.T)
            h = height(cols)
            assert inverse_norm(m) <= math.sqrt(d) / h * (1 + 1e-8)

    def test_scale_covariance(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((4, 4))
        for c in (2.0, -0.5, 1e3):
            assert operator_norm(c * m) == pytest.approx(abs(c) * operator_norm(m), rel=1e-12)
            assert inverse_norm(c * m) == pytest.approx(inverse_norm(m) / abs(c), rel=1e-12)

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((5, 5))
        perm = rng.permutation(5)
        mp = m[:, perm]
        assert operator_norm(mp) == pytest.approx(operator_norm(m), rel=1e-12)
        assert inverse_norm(mp) == pytest.approx(inverse_norm(m), rel=1e-12)
        assert height(list(mp.T)) == pytest.approx(height(list(m.T)), rel=1e-9)
