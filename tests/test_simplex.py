import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from smoothlab.errors import InvalidInputError, InvalidStartError
from smoothlab.polytope import LinearProgram, PolytopeVertex, brute_force_optimum
from smoothlab.simplex import find_initial_vertex, shadow_pivot_walk, solve

BOX2 = LinearProgram(
    np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
    np.ones(4),
    np.array([1.0, 1.0]),
)


def random_bounded_lp(rng, n, d):
    """Perturbed cross-polytope constraints: bounded and feasible (0 inside)."""
    centers = np.vstack([np.eye(d), -np.eye(d)])
    extra = rng.standard_normal((n - 2 * d, d)) * 0.3 if n > 2 * d else np.zeros((0, d))
    rows = np.vstack([centers, extra]) + 0.05 * rng.standard_normal((n, d))
    z = rng.standard_normal(d)
    return LinearProgram(rows, np.ones(n), z / np.linalg.norm(z))


class TestWalkHandTrace:
    def test_box_corner_to_corner(self):
        # start at (-1,-1), objective swept from t = (-1,-1) to z = (1,1):
        # two pivots through (1,-1), both breakpoints at lambda = 1/2
        start = PolytopeVertex(point=np.array([-1.0, -1.0]), tight_set=(2, 3))
        trace = shadow_pivot_walk(BOX2, start, np.array([-1.0, -1.0]))
        assert trace.status == "optimal"
        assert trace.pivot_count == 2
        assert [v.tight_set for v in trace.visited] == [(2, 3), (0, 3), (0, 1)]
        assert trace.lambda_breakpoints == pytest.approx([0.5, 0.5])
        values = [v.objective_value(BOX2.z) for v in trace.visited]
        assert values == pytest.approx([-2.0, 0.0, 2.0])

    def test_zero_pivots_when_start_is_optimal(self):
        start = PolytopeVertex(point=np.array([1.0, 1.0]), tight_set=(0, 1))
        trace = shadow_pivot_walk(BOX2, start, np.array([1.0, 1.0]))
        assert trace.status == "optimal"
        assert trace.pivot_count == 0

    def test_unbounded_walk(self):
        lp = LinearProgram(np.array([[-1.0, 0.0], [0.0, -1.0]]), np.ones(2),
                           np.array([1.0, 1.0]))
        start = PolytopeVertex(point=np.array([-1.0, -1.0]), tight_set=(0, 1))
        trace = shadow_pivot_walk(lp, start, np.array([-1.0, -1.0]))
        assert trace.status == "unbounded"
        assert trace.ray @ lp.z > 0

    def test_trace_json_shape(self):
        start = PolytopeVertex(point=np.array([-1.0, -1.0]), tight_set=(2, 3))
        doc = shadow_pivot_walk(BOX2, start, np.array([-1.0, -1.0])).to_json_dict()
        assert doc["status"] == "optimal"
        assert doc["pivot_count"] == 2
        assert doc["visited_tight_sets"] == [[2, 3], [0, 3], [0, 1]]


class TestStartValidation:
    def test_bad_tight_set(self):
        start = PolytopeVertex(point=np.array([1.0, 1.0]), tight_set=(0, 7))
        with pytest.raises(InvalidStartError):
            shadow_pivot_walk(BOX2, start, np.array([1.0, 1.0]))

    def test_not_tight(self):
        start = PolytopeVertex(point=np.array([0.0, 0.0]), tight_set=(0, 1))
        with pytest.raises(InvalidStartError):
            shadow_pivot_walk(BOX2, start, np.array([1.0, 1.0]))

    def test_dependent_tight_rows(self):
        start = PolytopeVertex(point=np.array([1.0, 0.0]), tight_set=(0, 2))
        with pytest.raises(InvalidStartError, match="tight-set rows are linearly dependent"):
            shadow_pivot_walk(BOX2, start, np.array([1.0, 1.0]))

    def test_infeasible_start(self):
        # (1, 1) is tight on rows 0 and 1 but breaks x + y >= 3
        lp = LinearProgram(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
                           np.array([1.0, 1.0, -3.0]), np.array([1.0, 1.0]))
        start = PolytopeVertex(point=np.array([1.0, 1.0]), tight_set=(0, 1))
        with pytest.raises(InvalidStartError, match="start point is infeasible"):
            shadow_pivot_walk(lp, start, np.array([1.0, 1.0]))

    def test_not_t_optimal(self):
        start = PolytopeVertex(point=np.array([-1.0, -1.0]), tight_set=(2, 3))
        with pytest.raises(InvalidStartError):
            shadow_pivot_walk(BOX2, start, np.array([1.0, 1.0]))


class TestPhaseOne:
    def test_box_start(self):
        vertex, t = find_initial_vertex(BOX2)
        assert vertex.tight_set == (0, 1)
        assert np.allclose(vertex.point, [1.0, 1.0])
        assert np.allclose(t, [1.0, 1.0])

    def test_infeasible_returns_none(self):
        lp = LinearProgram(np.array([[1.0], [-1.0]]), np.array([-1.0, -2.0]),
                           np.array([1.0]))
        assert find_initial_vertex(lp) is None


class TestSolve:
    def test_box(self):
        res = solve(BOX2)
        assert res.status == "optimal"
        assert res.objective_value(BOX2) == pytest.approx(2.0)

    def test_infeasible(self):
        lp = LinearProgram(np.array([[1.0], [-1.0]]), np.array([-1.0, -2.0]),
                           np.array([1.0]))
        assert solve(lp).status == "infeasible"

    def test_unbounded_without_vertices(self):
        lp = LinearProgram(np.array([[1.0, 0.0]]), np.ones(1), np.array([0.0, 1.0]))
        assert solve(lp).status == "unbounded"

    def test_unbounded_with_vertices(self):
        lp = LinearProgram(np.array([[-1.0, 0.0], [0.0, -1.0]]), np.ones(2),
                           np.array([1.0, 1.0]))
        assert solve(lp).status == "unbounded"

    @pytest.mark.parametrize("rows, b, z, status", [
        ([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0] * 4, [1.0, 1.0], "optimal"),
        ([[-1.0, 0.0], [0.0, -1.0]], [1.0, 1.0], [1.0, 1.0], "unbounded"),
        ([[1.0, 0.0]], [1.0], [0.0, 1.0], "unbounded"),
        ([[1.0], [-1.0]], [-1.0, -2.0], [1.0], "infeasible"),
        ([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0], [1.0, 0.0], "phase1_failed"),
    ], ids=["optimal", "unbounded-walk", "unbounded-without-vertices", "infeasible",
         "no-vertex-no-ray"])
    def test_reads_none_of_the_oracle_cache(self, rows, b, z, status):
        # the walk computes its own scans, never the vertices or rays the oracle keeps
        lp = LinearProgram(np.array(rows), np.array(b), np.array(z))
        assert solve(lp).status == status
        assert "vertices" not in lp.__dict__ and "rays" not in lp.__dict__

    def test_matches_oracle_on_random_lps(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(2 * d, 9))
            lp = random_bounded_lp(rng, n, d)
            res = solve(lp)
            oracle = brute_force_optimum(lp)
            assert res.status == oracle.status == "optimal"
            assert res.objective_value(lp) == pytest.approx(oracle.value, abs=1e-6)
            # objective never decreases and breakpoints never retreat
            values = [v.objective_value(lp.z) for v in res.visited]
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
            bps = res.lambda_breakpoints
            assert all(b >= a - 1e-12 for a, b in zip(bps, bps[1:]))
            assert res.pivot_count == len(res.visited) - 1


@st.composite
def small_lps(draw):
    """Small LPs of every outcome: optimal, unbounded, infeasible, no vertex."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d + 1, d + 5))

    def entries(shape, lo, hi):
        return draw(arrays(np.float64, shape, elements=st.floats(lo, hi, width=16)))
    return LinearProgram(entries((n, d), -2, 2), entries(n, -1, 2), entries(d, -1, 1))


class TestSolveMatchesOracleProperty:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(small_lps())
    def test_status_and_objective(self, lp):
        res = solve(lp)
        try:
            oracle = brute_force_optimum(lp)
        except InvalidInputError:   # feasible, no vertex, no improving ray
            assert res.status == "phase1_failed"
            return
        assert res.status == oracle.status
        if oracle.status == "optimal":
            assert res.objective_value(lp) == pytest.approx(oracle.value, abs=1e-6)
