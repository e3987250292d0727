import math
import warnings
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from smoothlab.bounds import shadow_size_bound
from smoothlab.errors import (
    DegeneratePlaneError,
    InvalidInputError,
    OutOfRegimeError,
    SizeLimitError,
    UnboundedShadowError,
)
from smoothlab.experiments import ExperimentConfig, point_centers
from smoothlab.polytope import (
    BASIS_CHUNK,
    COINCIDENT_TOL,
    FEAS_TOL,
    DegeneracyWarning,
    LinearProgram,
    PolytopeVertex,
    _unit_peak_rows,
    basis_chunks,
    brute_force_optimum,
    convex_hull_2d,
    enumerate_vertices,
    feasible_bases,
    improving_ray,
    independent_rows,
    is_feasible,
    parse_lp,
    plane_basis,
    recession_directions,
    shadow_polygon,
)
from smoothlab.simplex import find_initial_vertex, solve

BOX2 = LinearProgram(
    np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
    np.ones(4),
    np.array([1.0, 1.0]),
)

CUBE3 = np.vstack([np.eye(3), -np.eye(3)])


def unit_lp(rows, z):
    """maximize x^T z subject to x^T a_i <= 1: the LP shadow-size builds."""
    return LinearProgram(rows, np.ones(len(rows)), z)


class TestParseFormat:
    def test_parse_example(self):
        lp = parse_lp("2 2\n1 0 1\n0 1 2\n3 4\n")
        assert lp.n == 2 and lp.d == 2
        assert np.array_equal(lp.b, [1.0, 2.0])
        assert np.array_equal(lp.z, [3.0, 4.0])

    def test_parse_errors(self):
        with pytest.raises(InvalidInputError):
            parse_lp("")
        with pytest.raises(InvalidInputError):
            parse_lp("2 2\n1 0 1\n")
        with pytest.raises(InvalidInputError):
            parse_lp("1 2\n1 0\n1 0\n")

    def test_lp_validation(self):
        with pytest.raises(InvalidInputError):
            LinearProgram(np.ones((2, 2)), np.ones(3), np.ones(2))
        with pytest.raises(InvalidInputError):
            LinearProgram(np.array([[np.inf, 0.0]]), np.ones(1), np.ones(2))


class TestEnumeration:
    def test_box_vertices(self):
        verts = enumerate_vertices(BOX2)
        pts = sorted(tuple(np.round(v.point, 9)) for v in verts)
        assert pts == [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]

    def test_infeasible_is_empty(self):
        lp = LinearProgram(np.array([[1.0], [-1.0]]), np.array([-1.0, -2.0]),
                           np.array([1.0]))
        assert enumerate_vertices(lp) == []
        assert not is_feasible(lp)

    def test_degeneracy_warning(self):
        # three constraints through (1, 1): every 2-subset gives the same point
        lp = LinearProgram(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                           np.array([1.0, 1.0, 2.0]), np.array([1.0, 0.0]))
        with pytest.warns(DegeneracyWarning):
            verts = enumerate_vertices(lp)
        assert len(verts) == 3

    def test_budget(self):
        with pytest.raises(SizeLimitError):
            enumerate_vertices(LinearProgram(np.ones((60, 30)), np.ones(60),
                                             np.ones(30)))

    def test_recession_directions_of_box_empty(self):
        assert len(recession_directions(BOX2.A)) == 0

    def test_recession_directions_halfspace(self):
        dirs = recession_directions(np.array([[1.0, 0.0]]))
        assert len(dirs) > 0
        assert np.all(dirs @ np.array([1.0, 0.0]) <= 1e-9)


# --------------------------------------------------------------------------
# one-basis-at-a-time reference for the batched basis scan

def loop_bases(lp):
    """Reference scan: (tight set, rows, point) of each feasible basis, one at a time."""
    for idx in combinations(range(lp.n), lp.d):
        sub = lp.A[list(idx)]
        peak = np.abs(sub).max(axis=1)
        if not peak.all():
            continue
        # independence is judged with each row divided by its largest entry
        s = np.linalg.svd(sub / peak[:, None], compute_uv=False)
        if s[-1] <= 1e-12 * s[0]:
            continue
        x = np.linalg.solve(sub, lp.b[list(idx)])
        if np.all(lp.A @ x - lp.b <= FEAS_TOL):
            yield idx, sub, x


def loop_vertices(lp):
    """Reference enumerate_vertices, with the pairwise coincidence check."""
    verts = [PolytopeVertex(point=x, tight_set=idx) for idx, _, x in loop_bases(lp)]
    for i in range(1, len(verts)):
        for j in range(i):
            if np.linalg.norm(verts[i].point - verts[j].point) < COINCIDENT_TOL:
                warnings.warn(
                    f"coincident vertices for bases {verts[j].tight_set} and "
                    f"{verts[i].tight_set}", DegeneracyWarning, stacklevel=2)
                break
    return verts


def loop_initial(lp):
    """Reference Phase I scan: (vertex, t) of the first feasible basis, or None."""
    for idx, sub, x in loop_bases(lp):
        return PolytopeVertex(point=x, tight_set=idx), sub.sum(axis=0)
    return None


def _warned(fn, lp):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(lp)
    assert all(w.category is DegeneracyWarning for w in caught)
    return out, [str(w.message) for w in caught]


def assert_scan_matches_loop(lp):
    verts, messages = _warned(enumerate_vertices, lp)
    ref, ref_messages = _warned(loop_vertices, lp)
    assert [v.tight_set for v in verts] == [v.tight_set for v in ref]
    assert all(type(i) is int for v in verts for i in v.tight_set)
    assert all(np.array_equal(v.point, r.point) for v, r in zip(verts, ref))
    assert messages == ref_messages
    ref_start = loop_initial(lp)
    if ref_start is None:
        assert find_initial_vertex(lp) is None
        status = solve(lp).status
        if is_feasible(lp):
            assert status in ("phase1_failed", "unbounded")
        else:
            assert status == "infeasible"
        return None
    start, t = find_initial_vertex(lp)
    assert start.tight_set == ref_start[0].tight_set
    assert np.array_equal(start.point, ref_start[0].point)
    assert np.array_equal(t, ref_start[1])
    return start


def perturbed_lp(rng, centers, sigma=0.1, b=None):
    n, d = centers.shape
    rows = centers + sigma * rng.standard_normal((n, d))
    return LinearProgram(rows, np.ones(n) if b is None else b, rng.standard_normal(d))


def box_centers(n, d, stretch=1.0):
    rows = np.zeros((n, d))
    for i in range(n):
        rows[i, i % d] = (1.0 if (i // d) % 2 == 0 else -1.0) * stretch ** (i % d)
    return rows


def recession_lp(a):
    """The box-truncated recession cone {w : Aw <= 0, |w_i| <= 1}."""
    n, d = a.shape
    box = np.vstack([np.eye(d), -np.eye(d)])
    return LinearProgram(np.vstack([a, box]),
                         np.concatenate([np.zeros(n), np.ones(2 * d)]), np.zeros(d))


def _instances(family, rng, k):
    n, d = 6 + k % 7, 2 + k % 3
    if family == "box":
        return perturbed_lp(rng, box_centers(n, d))
    if family == "stretched":
        return perturbed_lp(rng, box_centers(n, d, 0.2))
    if family == "gaussian":
        # random right-hand sides: some of these systems are infeasible
        b = np.ones(n) if k % 2 else rng.standard_normal(n)
        return perturbed_lp(rng, rng.standard_normal((n, d)), sigma=1.0, b=b)
    if family == "recession":
        return recession_lp(rng.standard_normal((3 + k % 4, d)))
    if family == "parallel":
        # duplicated and scaled copies of rows: singular bases
        lp = perturbed_lp(rng, box_centers(n, d))
        extra = np.vstack([lp.A[: d], 2.0 * lp.A[d: d + 2]])
        return LinearProgram(np.vstack([lp.A, extra]),
                             np.concatenate([lp.b, lp.b[: d], 2.0 * lp.b[d: d + 2]]), lp.z)
    if family == "n_below_d":
        d = 3 + k % 3
        return perturbed_lp(rng, rng.standard_normal((1 + k % (d - 1), d)))
    if family == "infeasible":
        # x_0 <= -1 and -x_0 <= -1 contradict each other
        lp = perturbed_lp(rng, box_centers(n, d))
        clash = np.zeros((2, d))
        clash[:, 0] = [1.0, -1.0]
        return LinearProgram(np.vstack([clash, lp.A]), np.concatenate([[-1.0, -1.0], lp.b]),
                             lp.z)
    raise AssertionError(family)


FAMILIES = {"box": 50, "stretched": 30, "gaussian": 40, "recession": 30, "parallel": 30,
            "n_below_d": 10, "infeasible": 10}


class TestScanMatchesLoop:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_family(self, family):
        rng = np.random.default_rng(sorted(FAMILIES).index(family) + 70)
        for k in range(FAMILIES[family]):
            assert_scan_matches_loop(_instances(family, rng, k))

    def test_badly_scaled_rows(self):
        # each row and its b times 10^u, |u| <= 6: the same polytope, so the same vertices
        rng = np.random.default_rng(13)
        for k in range(30):
            lp = _instances("box", rng, k)
            scale = 10.0 ** rng.uniform(-6.0, 6.0, size=lp.n)
            scaled = LinearProgram(lp.A * scale[:, None], lp.b * scale, lp.z)
            assert_scan_matches_loop(scaled)
            assert ([v.tight_set for v in enumerate_vertices(scaled)]
                    == [v.tight_set for v in enumerate_vertices(lp)])

    def test_recession_lp_flags_coincident_bases(self):
        lp = recession_lp(np.random.default_rng(3).standard_normal((8, 3)))
        assert math.comb(lp.n, lp.d) > BASIS_CHUNK
        _, messages = _warned(enumerate_vertices, lp)
        assert messages
        assert_scan_matches_loop(lp)

    def test_many_chunks(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            lp = perturbed_lp(rng, box_centers(20, 4))
            assert math.comb(lp.n, lp.d) > 10 * BASIS_CHUNK
            assert assert_scan_matches_loop(lp) is not None

    def test_first_feasible_basis_past_first_chunk(self):
        # rows 0-2 say x_0 <= 10 + r: redundant against the box, so no basis
        # containing one of them is feasible
        rng = np.random.default_rng(12)
        for _ in range(4):
            lp = perturbed_lp(rng, box_centers(17, 3))
            far = np.zeros((3, 3))
            far[:, 0] = 1.0 / (10.0 + np.arange(3))
            lp = LinearProgram(np.vstack([far, lp.A]), np.concatenate([np.ones(3), lp.b]),
                               lp.z)
            start = assert_scan_matches_loop(lp)
            rank = list(combinations(range(lp.n), lp.d)).index(start.tight_set)
            assert rank >= BASIS_CHUNK


class TestRankAfterFeasibility:
    # rows 0 and 1 meet at the feasible x = (1, 0), with condition number ~1e13
    @pytest.mark.parametrize("others, singular_chunk", [
        ([[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], True),     # (0, 2) fails the chunk's solve
        ([[-1.0, 0.25], [0.25, 1.0], [0.25, -1.0]], False),
    ])
    def test_feasible_basis_fails_rank_test(self, others, singular_chunk):
        lp = LinearProgram(np.vstack([[[1.0, 0.0], [1.0, 1e-13]], others]), np.ones(5),
                           np.array([1.0, 0.5]))
        bases = np.array(list(combinations(range(lp.n), lp.d)))
        assert np.any(np.linalg.det(lp.A[bases]) == 0.0) == singular_chunk
        x = np.linalg.solve(lp.A[[0, 1]], lp.b[[0, 1]])
        assert np.array_equal(x, [1.0, 0.0]) and np.all(lp.A @ x - lp.b <= FEAS_TOL)
        assert np.linalg.cond(lp.A[[0, 1]]) > 1e12
        assert (0, 1) not in [v.tight_set for v in _quiet_vertices(lp)]
        assert find_initial_vertex(lp)[0].tight_set != (0, 1)
        assert_scan_matches_loop(lp)

    def test_overflowing_basic_solution_is_quiet(self):
        # basis (0, 1) solves to x = (1, 1e300), where row 2's slack overflows
        lp = LinearProgram(np.array([[1.0, 0.0], [1.0, 1e-300], [0.5, 1e10], [-1.0, 0.25],
                                     [0.25, -1.0]]), np.array([1.0, 2.0, 1.0, 1.0, 1.0]),
                           np.ones(2))
        assert is_feasible(lp)
        assert_scan_matches_loop(lp)


@st.composite
def near_singular_lps(draw):
    """Gaussian LPs plus exact or scaled copies of some rows, or 1e-13 nudges of them.

    A copy makes bases exactly singular, which fails a chunk's batched solve.
    A nudged row makes bases that solve, may be feasible, and fail the rank test.
    """
    d = draw(st.integers(2, 3))
    k = draw(st.integers(d, d + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a, b = rng.standard_normal((k, d)), rng.uniform(-0.5, 1.0, k)
    rows, rhs = list(a), list(b)
    scales = [1.0, 2.0, -1.0, 3.0] if draw(st.booleans()) else [None]
    edits = st.tuples(st.sampled_from(scales), st.integers(0, k - 1), st.integers(0, d - 1))
    for scale, i, j in draw(st.lists(edits, min_size=1, max_size=4)):
        if scale is None:
            rows.append(a[i] + 1e-13 * np.eye(d)[j])
            rhs.append(b[i])
        else:
            rows.append(scale * a[i])
            rhs.append(scale * b[i])
    z = draw(arrays(np.float64, d, elements=st.floats(-1.0, 1.0, width=16)))
    return LinearProgram(np.array(rows), np.array(rhs), z)


def assert_scan_and_feasibility(lp):
    assert_scan_matches_loop(lp)
    has_vertex = loop_initial(lp) is not None
    s = np.linalg.svd(lp.A, compute_uv=False)
    if s[-1] > 1e-6 * s[0]:   # full column rank: nonempty iff some basis is feasible
        assert is_feasible(lp) == has_vertex
    else:
        assert is_feasible(lp) or not has_vertex


def solve_raises(m):
    try:
        np.linalg.solve(m, np.ones(m.shape[-1]))
    except np.linalg.LinAlgError:
        return True
    return False


class TestScanProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(near_singular_lps())
    def test_scan_matches_loop(self, lp):
        assert_scan_and_feasibility(lp)

    @pytest.mark.parametrize("center", ["box", "stretched", "ones"])
    @pytest.mark.parametrize("n, d", [(12, 3), (20, 4)])
    def test_unperturbed_centers(self, n, d, center):
        # the sigma = 0 profile LPs, whose repeated rows fail every chunk's batched solve
        rows = point_centers(ExperimentConfig(kind="smoothed_profile", n=n, d=d,
                                              center_source=center))
        lp = LinearProgram(rows, np.ones(n), np.ones(d) / math.sqrt(d))
        assert all(solve_raises(lp.A[idx]) for idx in basis_chunks(n, d))
        assert_scan_and_feasibility(lp)


def singular_candidates(rng, d):
    """Square matrices of size d, many of them exactly singular."""
    signed = np.vstack([np.eye(d), -np.eye(d)])
    out = [signed[list(idx)] for idx in combinations(range(2 * d), d)]   # +-e_k bases
    for _ in range(40):
        g = rng.standard_normal((d, d))
        i, j = rng.choice(d, 2, replace=False)
        copy = g.copy()
        copy[i] = rng.choice([1.0, -1.0, 2.0, -0.5]) * g[j]   # duplicated rows
        zero = g.copy()
        zero[i] = 0.0
        r = int(rng.integers(1, d))
        product = rng.standard_normal((d, r)) @ rng.standard_normal((r, d))
        ints = rng.integers(-2, 3, (d, r)).astype(float) @ rng.integers(-2, 3, (r, d))
        out += [g, copy, zero, product, ints]
    scale = 10.0 ** rng.choice([-300.0, 0.0, 300.0], size=(len(out), d))
    return np.array(out + [m * s[:, None] for m, s in zip(out, scale)])


class TestSingularBasesDropped:
    """A chunk whose batched solve raises drops the bases of slogdet sign 0 first."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_slogdet_sign_zero_is_solve_rejecting(self, d):
        stack = singular_candidates(np.random.default_rng(d), d)
        with np.errstate(divide="ignore"):   # some LUs of rows near 1e-300 end in a 0 pivot
            sign = np.linalg.slogdet(stack)[0]
        rejected = np.array([solve_raises(m) for m in stack])
        assert np.array_equal(sign == 0, rejected)
        assert 50 < rejected.sum() < len(stack) - 50
        np.linalg.solve(stack[~rejected], np.ones((len(stack) - rejected.sum(), d, 1)))
        # no basis solve rejects passes the rank test, so dropping them first loses none
        assert not independent_rows(stack[rejected]).any()

    def test_zero_pivot_that_solve_accepts_is_quiet(self):
        # rows 0-2 are a rank-one product with row 0 scaled by 1e-300: some LAPACKs end
        # their LU in a pivot of 0 without solve raising, and slogdet then takes log(0).
        # Row 3 repeats row 1, so the chunk's solve raises.
        rows = np.array([[3.1250000000000004e-300, 1.875e-300, -3.75e-300],
                         [-1.25, -0.75, 1.5], [-3.75, -2.25, 4.5]])
        lp = LinearProgram(np.vstack([rows, rows[1]]), np.ones(4), np.ones(3))
        assert solve_raises(lp.A[[1, 2, 3]]) and not solve_raises(rows)
        assert_scan_matches_loop(lp)

    def test_rank_test_sees_feasible_bases_only(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((14, 3))
        a[1] = a[0]   # bases (0, 1, k) are exactly singular: chunk 0's solve raises
        lp = LinearProgram(a, np.ones(14), np.ones(3))
        chunks = list(basis_chunks(lp.n, lp.d))
        assert [solve_raises(lp.A[idx]) for idx in chunks] == [True, False]
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            list(feasible_bases(lp))
        assert svd.call_count == len(chunks)
        for idx, call in zip(chunks, svd.call_args_list):
            feasible = [basis for basis in idx if not solve_raises(lp.A[basis]) and np.all(
                lp.A @ np.linalg.solve(lp.A[basis], lp.b[basis]) - lp.b <= FEAS_TOL)]
            assert 0 < len(feasible) < len(idx) // 4
            assert np.array_equal(call.args[0], _unit_peak_rows(lp.A)[feasible])


# --------------------------------------------------------------------------
# the box-truncated scans that recession_directions and is_feasible replaced

def _quiet_vertices(lp):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneracyWarning)
        return enumerate_vertices(lp)


def truncated_cone_rays(a):
    """Reference rays: the nonzero vertices of the box-truncated recession cone."""
    pts = [v.point for v in _quiet_vertices(recession_lp(a)) if np.linalg.norm(v.point) > 1e-9]
    return np.array(pts).reshape(-1, a.shape[1])


def homogenized_feasible(lp):
    """Reference feasibility: {(x, s) : Ax - bs <= 0, s >= 0, |x_i|, |s| <= 1} has s > 0."""
    cone = np.vstack([np.hstack([lp.A, -lp.b[:, None]]), -np.eye(lp.d + 1)[-1:]])
    return any(v.point[-1] > 1e-9 for v in _quiet_vertices(recession_lp(cone)))


def decisions(rays, lp, q):
    """Bounded, has an improving ray, has a ray visible in the plane q."""
    return (len(rays) == 0, len(rays) > 0 and float(np.max(rays @ lp.z)) > 1e-9,
            len(rays) > 0 and float(np.max(np.linalg.norm(rays @ q, axis=1))) > 1e-9)


def _cone_instance(family, rng, k):
    """A seeded LP of one family, with b = 1 or Gaussian, d 2-4 and n 4-10."""
    n, d = 4 + k % 7, 2 + k % 3
    rows = {
        "box": lambda: box_centers(n, d) + 0.1 * rng.standard_normal((n, d)),
        "zero": lambda: rng.standard_normal((n, d)),
        "ones": lambda: np.ones((n, d)) + 0.1 * rng.standard_normal((n, d)),
        "ones_sigma0": lambda: np.ones((n, d)),
        "rank1": lambda: rng.standard_normal((n, 1)) * rng.standard_normal(d),
        "n_below_d": lambda: rng.standard_normal((1 + k % (d - 1), d)),
        "orthant": lambda: -np.vstack([np.eye(d), np.abs(rng.standard_normal((n - d, d)))]),
        "a_zero": lambda: np.zeros((n, d)),
        "duplicated": lambda: np.repeat(box_centers(n, d)[: (n + 1) // 2], 2, axis=0)[:n]
        + 0.1 * np.repeat(rng.standard_normal(((n + 1) // 2, d)), 2, axis=0)[:n],
    }[family]()
    b = np.ones(len(rows)) if k % 2 else rng.standard_normal(len(rows))
    return LinearProgram(rows, b, rng.standard_normal(rows.shape[1]))


def assert_matches_truncated_scans(lp, rng):
    rays = recession_directions(lp.A)
    assert rays.shape[1] == lp.d
    assert np.allclose(np.linalg.norm(rays, axis=1), 1.0, atol=1e-12)
    assert np.all(lp.A @ rays.T <= 1e-9)
    q = plane_basis(rng.standard_normal(lp.d), rng.standard_normal(lp.d))
    assert decisions(rays, lp, q) == decisions(truncated_cone_rays(lp.A), lp, q)
    assert (improving_ray(lp.A, lp.z) is not None) == decisions(rays, lp, q)[1]
    assert is_feasible(lp) == homogenized_feasible(lp)


CONE_FAMILIES = ("a_zero", "box", "duplicated", "n_below_d", "ones", "ones_sigma0", "orthant",
                 "rank1", "zero")


class TestRaysMatchTruncatedScans:
    @pytest.mark.parametrize("family", CONE_FAMILIES)
    def test_family(self, family):
        rng = np.random.default_rng(CONE_FAMILIES.index(family) + 170)
        for k in range(16):
            assert_matches_truncated_scans(_cone_instance(family, rng, k), rng)

    def test_improving_ray(self):
        # x_0 <= 1 leaves the rays -e_0 and +-e_1
        a = np.array([[1.0, 0.0]])
        assert np.array_equal(improving_ray(a, np.array([-1.0, 0.5])), [-1.0, 0.0])
        assert improving_ray(a, np.array([1.0, 0.0])) is None
        assert improving_ray(CUBE3, np.ones(3)) is None

    def test_no_size_limit_past_the_polytope_scan(self):
        # the truncated cone of this 36 x 5 box has C(46, 5) > MAX_BASES bases
        rng = np.random.default_rng(36)
        lp = perturbed_lp(rng, box_centers(36, 5), sigma=0.05)
        assert len(recession_directions(lp.A)) == 0
        assert is_feasible(lp)


class TestBruteForceOptimum:
    def test_box_optimum(self):
        res = brute_force_optimum(BOX2)
        assert res.status == "optimal"
        assert res.value == pytest.approx(2.0)
        assert np.allclose(res.vertex.point, [1.0, 1.0])

    def test_infeasible(self):
        lp = LinearProgram(np.array([[1.0], [-1.0]]), np.array([-1.0, -2.0]),
                           np.array([1.0]))
        assert brute_force_optimum(lp).status == "infeasible"

    def test_unbounded(self):
        lp = LinearProgram(np.array([[1.0, 0.0]]), np.array([1.0]),
                           np.array([0.0, 1.0]))
        res = brute_force_optimum(lp)
        assert res.status == "unbounded"
        assert res.ray @ lp.z > 0

    def test_badly_scaled_rows(self):
        # rows 1e13 apart in scale still make a basis: the one vertex (1e-10, 1000)
        lp = LinearProgram(np.array([[1e10, 0.0], [0.0, 1e-3]]), np.array([1.0, 1.0]),
                           np.array([0.0, 1.0]))
        res = brute_force_optimum(lp)
        assert res.status == "optimal"
        assert res.vertex.tight_set == (0, 1)
        assert res.vertex.point == pytest.approx([1e-10, 1000.0], rel=1e-12)
        assert res.value == pytest.approx(1000.0, rel=1e-12)


class TestPlaneAndHull:
    def test_plane_basis_orthonormal(self):
        q = plane_basis([1.0, 0.0, 0.0], [1.0, 1.0, 0.0])
        assert np.allclose(q.T @ q, np.eye(2), atol=1e-12)

    def test_plane_basis_parallel_errors(self):
        with pytest.raises(DegeneratePlaneError):
            plane_basis([1.0, 0.0], [-2.0, 0.0])
        with pytest.raises(DegeneratePlaneError):
            plane_basis([0.0, 0.0], [1.0, 0.0])

    def test_hull_square_with_interior_point(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]])
        hull, idx = convex_hull_2d(pts)
        assert len(hull) == 4
        assert 4 not in idx
        # counterclockwise, starting from the lexicographic minimum
        assert np.array_equal(hull[0], [0.0, 0.0])
        area2 = sum(hull[i][0] * hull[(i + 1) % 4][1] -
                    hull[(i + 1) % 4][0] * hull[i][1] for i in range(4))
        assert area2 > 0

    def test_hull_drops_collinear(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.5, 1.0]])
        hull, _ = convex_hull_2d(pts)
        assert len(hull) == 3


class TestShadowPolygon:
    def test_cube_generic_plane(self):
        rng = np.random.default_rng(3)
        t, z = rng.standard_normal(3), rng.standard_normal(3)
        poly = shadow_polygon(unit_lp(CUBE3, z), t)
        assert poly.vertex_count == 6

    def test_cube_axis_plane(self):
        poly = shadow_polygon(unit_lp(CUBE3, [0.0, 1.0, 0.0]), [1.0, 0.0, 0.0])
        assert poly.vertex_count == 4

    def test_d2_shadow_is_polytope(self):
        poly = shadow_polygon(unit_lp(BOX2.A, [0.0, 1.0]), [1.0, 0.0])
        assert poly.vertex_count == len(enumerate_vertices(BOX2))

    def test_preimages_project_to_hull(self):
        rng = np.random.default_rng(8)
        t, z = rng.standard_normal(3), rng.standard_normal(3)
        poly = shadow_polygon(unit_lp(CUBE3, z), t)
        for pre, hp in zip(poly.preimages, poly.hull_points):
            assert np.allclose(pre.point @ poly.basis, hp, atol=1e-12)

    def test_unbounded_errors(self):
        with pytest.raises(UnboundedShadowError):
            shadow_polygon(unit_lp(np.array([[1.0, 0.0]]), [0.0, 1.0]), [1.0, 0.0])

    def test_unbounded_off_the_plane_has_no_vertices(self):
        # the rays +-e3 project to 0, so the shadow is bounded, but no vertex exists
        rows = np.vstack([np.eye(3)[:2], -np.eye(3)[:2]])
        with pytest.raises(UnboundedShadowError, match="polytope has no vertices to project"):
            shadow_polygon(unit_lp(rows, [0.0, 1.0, 0.0]), [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("row, message", [
        ([np.nan, 1.0], "LP data must be finite"),
        ([1.5e308, 1.5e308], "constraint row norms must be finite"),   # norm 2.1e308
    ])
    def test_rows_are_validated_before_the_rays(self, row, message):
        # shadow_polygon takes a LinearProgram, so such rows never reach its rays
        rows = np.vstack([BOX2.A, row])
        with pytest.raises(InvalidInputError) as exc:
            unit_lp(rows, [0.0, 1.0])
        assert str(exc.value) == message


class TestShadowSizeBound:
    def test_value(self):
        sigma = 0.1
        assert shadow_size_bound(8, 3, sigma) == pytest.approx(
            58888678.0 * 8 * 27 / sigma ** 6)

    def test_regime_gates(self):
        with pytest.raises(OutOfRegimeError):
            shadow_size_bound(8, 2, 0.1)
        with pytest.raises(OutOfRegimeError):
            shadow_size_bound(3, 3, 0.1)
        too_big = math.sqrt(1.0 / (9 * 3 * math.log(8))) * 1.01
        with pytest.raises(OutOfRegimeError):
            shadow_size_bound(8, 3, too_big)

    @pytest.mark.parametrize("sigma", [1e-60, 1e-320])
    def test_sigma_sixth_underflow_gives_inf(self, sigma):
        assert shadow_size_bound(8, 3, sigma) == math.inf

    @pytest.mark.parametrize("sigma", [1e200, 1e300])
    def test_sigma_squared_overflow_is_out_of_regime(self, sigma):
        with pytest.raises(OutOfRegimeError):
            shadow_size_bound(8, 3, sigma)

    def test_boundary_sigma_accepted(self):
        sigma = math.sqrt(1.0 / (9 * 3 * math.log(8)))
        assert shadow_size_bound(8, 3, sigma) > 0
