import itertools
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from smoothlab import experiments, perceptron
from smoothlab.bounds import blum_dunagan_tail, iteration_bound
from smoothlab.cli import cli_main
from smoothlab.errors import (
    InfeasibleMarginError,
    InvalidInputError,
    LapackMismatchError,
    OutOfRegimeError,
)
from smoothlab.experiments import point_centers, profile_center_set
from smoothlab.kinds import ExperimentConfig
from smoothlab.numkit import norm
from smoothlab.perceptron import (
    PerceptronInstance,
    PerceptronRun,
    parse_instance,
    run_perceptron,
    wiggle_rooms,
)
from smoothlab.perturb import SeedSpec

from oracles import wiggle_room_grid
from samplers import gaussian_points

RULES = ("lowest_index", "most_violated")


def random_feasible_2d(rng, n, gap=0.15):
    """Points whose angles span strictly less than a half circle around a
    random axis, so the instance is strictly feasible with margin >= sin(gap)."""
    theta = rng.uniform(0, 2 * math.pi)
    angles = theta + rng.uniform(-math.pi / 2 + gap, math.pi / 2 - gap, size=n)
    radii = rng.uniform(0.5, 2.0, size=n)
    pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    return PerceptronInstance(pts)


class TestParse:
    def test_roundtrip(self):
        inst = parse_instance("2 3\n1 0 0\n0 1 0\n")
        assert inst.n == 2 and inst.d == 3
        assert np.array_equal(inst.points[1], [0.0, 1.0, 0.0])

    def test_errors(self):
        with pytest.raises(InvalidInputError):
            parse_instance("")
        with pytest.raises(InvalidInputError):
            parse_instance("2 2\n1 0\n")
        with pytest.raises(InvalidInputError):
            parse_instance("1 2\n0 0\n")

    @pytest.mark.parametrize("text", ["0 2\n", "2 0\n\n\n", "-1 3\n1 2 3\n"])
    def test_header_below_one(self, text):
        with pytest.raises(InvalidInputError, match="n and d must be at least 1"):
            parse_instance(text)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rows", [[[1e308]], [[1.0, 0.0], [1e200, -1e200]]])
    def test_row_norm_must_be_finite(self, rows):
        # squares past the float range, norms within it
        units = norm(PerceptronInstance(rows).unit, axis=1)
        assert np.all(np.abs(units - 1.0) <= 2 * np.finfo(float).eps)
        with pytest.raises(InvalidInputError, match="norm must be finite"):
            PerceptronInstance([[1.0, 0.0], [1.5e308, 1.5e308]])

    @pytest.mark.filterwarnings("error")
    def test_row_whose_squares_underflow_is_accepted(self):
        inst = PerceptronInstance([[2.18e-296]])
        assert np.array_equal(inst.unit, [[1.0]])

    @pytest.mark.filterwarnings("error")
    def test_tiny_row_normalizes_to_unit_length(self):
        got = PerceptronInstance([[1e-160, 1e-160]]).unit[0]
        want = 1.0 / math.sqrt(2.0)
        assert np.all(np.abs(got - want) <= np.spacing(want))

    def test_only_all_zero_rows_are_rejected(self):
        with pytest.raises(InvalidInputError, match="nonzero"):
            PerceptronInstance([[1.0, 0.0], [0.0, 0.0]])
        assert np.array_equal(norm(np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1e-200]]), axis=1),
                              [0.0, 5.0, 1e-200])


class TestWiggleRoom:
    def test_single_point(self):
        assert wiggle_rooms([PerceptronInstance([[3.0, 0.0]])])[0] == pytest.approx(1.0)

    def test_orthogonal_pair(self):
        inst = PerceptronInstance([[1.0, 0.0], [0.0, 1.0]])
        assert wiggle_rooms([inst])[0] == pytest.approx(1.0 / math.sqrt(2))

    def test_infeasible_is_zero(self):
        inst = PerceptronInstance([[1.0, 0.0], [-1.0, 0.0]])
        assert wiggle_rooms([inst])[0] == 0.0

    def test_origin_on_hull_boundary(self):
        inst = PerceptronInstance([[1.0, 1.0], [-1.0, 1.0], [0.0, -1.0]])
        assert wiggle_rooms([inst])[0] == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(17)
        inst = random_feasible_2d(rng, 6)
        scaled = PerceptronInstance(7.5 * inst.points)
        assert wiggle_rooms([scaled])[0] == pytest.approx(wiggle_rooms([inst])[0], rel=1e-9)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(19)
        inst = random_feasible_2d(rng, 6)
        c, s = math.cos(0.7), math.sin(0.7)
        rot = PerceptronInstance(inst.points @ np.array([[c, -s], [s, c]]).T)
        assert wiggle_rooms([rot])[0] == pytest.approx(wiggle_rooms([inst])[0], abs=1e-9)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            inst = random_feasible_2d(rng, int(rng.integers(2, 9)))
            nu = wiggle_rooms([inst])[0]
            assert nu == pytest.approx(wiggle_room_grid(inst, 100000), abs=1e-4)

    def test_grid_requires_d2(self):
        with pytest.raises(InvalidInputError):
            wiggle_room_grid(PerceptronInstance([[1.0, 0.0, 0.0]]))


class TestRunPerceptron:
    def test_solves_easy_instance(self):
        inst = PerceptronInstance([[1.0, 0.1], [1.0, -0.1]])
        for rule in ("lowest_index", "most_violated"):
            run = run_perceptron(inst, iteration_cap=100, rule=rule)
            assert run.status == "solved"
            assert np.all(inst.points @ run.final_x > 0)

    def test_respects_block_novikoff(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            inst = random_feasible_2d(rng, int(rng.integers(2, 8)))
            bound = iteration_bound(wiggle_rooms([inst])[0])
            for rule in ("lowest_index", "most_violated"):
                run = run_perceptron(inst, iteration_cap=bound, rule=rule)
                assert run.status == "solved"
                assert run.iterations <= bound

    def test_infeasible_hits_cap(self):
        inst = PerceptronInstance([[1.0, 0.0], [-1.0, 0.0]])
        run = run_perceptron(inst, iteration_cap=25)
        assert run.status == "iteration_cap_reached"
        assert run.iterations == 25
        assert run.final_x is None

    def test_bad_arguments(self):
        inst = PerceptronInstance([[1.0, 0.0]])
        with pytest.raises(InvalidInputError):
            run_perceptron(inst, iteration_cap=0)
        with pytest.raises(InvalidInputError):
            run_perceptron(inst, iteration_cap=5, rule="random")


def _reference_run(inst, iteration_cap, rule="lowest_index"):
    """The update loop as first written: one matmul and one flatnonzero per
    step, no cycle check. run_perceptron must match it byte for byte."""
    norm_pts = inst.unit
    x = np.zeros(inst.d)
    for it in range(iteration_cap + 1):
        margins = inst.points @ x
        violated = np.flatnonzero(margins <= 0.0)
        if violated.size == 0:
            return PerceptronRun(iterations=it, final_x=x, status="solved")
        if it == iteration_cap:
            break
        if rule == "lowest_index":
            pick = int(violated[0])
        else:
            pick = int(violated[np.argmin((norm_pts @ x)[violated])])
        x = x + norm_pts[pick]
    return PerceptronRun(iterations=iteration_cap, final_x=None,
                         status="iteration_cap_reached")


def assert_same_run(inst, cap, rule):
    got = run_perceptron(inst, iteration_cap=cap, rule=rule)
    want = _reference_run(inst, cap, rule)
    assert (got.iterations, got.status) == (want.iterations, want.status)
    if want.final_x is None:
        assert got.final_x is None
    else:
        assert got.final_x.tobytes() == want.final_x.tobytes()
    return want


def assert_same_around_solve(inst, cap, rule):
    """Equal at cap, and at caps one below, at and one above the solve step."""
    want = assert_same_run(inst, cap, rule)
    if want.status == "solved":
        for near in {want.iterations - 1, want.iterations, want.iterations + 1} - {0}:
            assert_same_run(inst, near, rule)


def visited_states(inst, steps):
    """x.tobytes() after 0..steps lowest-index updates (reference arithmetic)."""
    norm_pts = inst.unit
    x, states = np.zeros(inst.d), []
    for _ in range(steps + 1):
        states.append(x.tobytes())
        x = x + norm_pts[int(np.flatnonzero(inst.points @ x <= 0.0)[0])]
    return states


class TestLoopMatchesReference:
    def test_random_feasible_2d(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            inst = random_feasible_2d(rng, int(rng.integers(1, 12)),
                                      gap=float(rng.uniform(0.05, 0.3)))
            for rule in RULES:
                assert_same_around_solve(inst, 10_000, rule)

    def test_gaussian(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            n, d = int(rng.integers(1, 61)), int(rng.integers(1, 9))
            pts = rng.standard_normal((n, d))
            if rng.random() < 0.5:   # make half of them feasible along e_1
                pts[:, 0] = np.abs(pts[:, 0]) + 0.05
            inst = PerceptronInstance(pts)
            for rule in RULES:
                assert_same_around_solve(inst, int(rng.integers(1, 500)), rule)

    def test_profile_instances_sigma_01(self):
        cfg = ExperimentConfig(kind="smoothed_profile", n=6, d=2, sigma_grid=(0.1,),
                               measure="perceptron_iterations")
        for center_id, center in profile_center_set(cfg)[:2]:
            assert center_id in ("box", "stretched")
            for stream in range(6):
                g = SeedSpec(1, stream).rng().standard_normal(center.shape)
                inst = PerceptronInstance(center + 0.1 * norm(center) * g)
                for rule in RULES:
                    assert_same_run(inst, 3000, rule)

    @pytest.mark.filterwarnings("ignore::samplers.RegimeWarning")
    def test_tail_perceptron_ones_at_iteration_bound(self):
        cfg = ExperimentConfig(kind="perceptron_tail", n=40, d=5, sigma_grid=(0.2,),
                               center_source="ones")
        centers = point_centers(cfg)
        checked = 0
        for stream in range(30):
            inst = PerceptronInstance(gaussian_points(centers, 0.2, SeedSpec(1, stream)))
            nu = wiggle_rooms([inst])[0]
            if nu <= 0.0:
                continue
            checked += 1
            for rule in RULES:
                assert_same_around_solve(inst, iteration_bound(nu), rule)
        assert checked >= 20

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pts=st.tuples(st.integers(1, 8), st.integers(1, 4)).flatmap(
               lambda shape: arrays(np.float64, shape, elements=st.floats(-4.0, 4.0))),
           cap=st.integers(1, 300), rule=st.sampled_from(RULES))
    def test_property_small_instances(self, pts, cap, rule):
        if np.any(np.linalg.norm(pts, axis=1) == 0.0):
            return
        assert_same_around_solve(PerceptronInstance(pts), cap, rule)


class TestCycleDetection:
    def test_cycle_after_long_pre_period(self):
        inst = PerceptronInstance([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [-1.0, -1.0]])
        states = visited_states(inst, 39)
        assert states.index(states[14]) == 12 and states[12] != states[13]
        assert states[12:] == states[12:14] * 14   # pre-period 12, period 2
        for cap in range(1, 41):
            assert_same_run(inst, cap, "lowest_index")

    def test_late_solve_is_not_cut_short(self):
        # a thin slab: the first two coordinates of x wander for thousands of
        # steps while the third grows, so no state repeats before the solve
        inst = PerceptronInstance([
            [-0.6261, -1.2777, 0.0136], [-0.1541, 0.9659, 0.0011],
            [-0.6944, -0.3267, 0.0066], [0.008, -0.3753, 0.004],
            [-1.3786, -0.8068, 0.0175], [-0.6712, -1.0541, 0.0044],
            [1.4073, -1.454, 0.0031], [-0.6321, -1.761, 0.0083]])
        for rule, steps in (("lowest_index", 10891), ("most_violated", 1321)):
            want = assert_same_run(inst, 10 ** 5, rule)
            assert want == PerceptronRun(steps, want.final_x, "solved")
            assert_same_run(inst, steps, rule)
            assert_same_run(inst, steps - 1, rule)


def profile_blocks(n, d, sigma, trials=20):
    """(instance, record) of the first trials of every built-in perceptron
    profile center at seed 1, the records from the profile's block worker."""
    cfg = ExperimentConfig(kind="smoothed_profile", n=n, d=d, sigma_grid=(sigma,),
                           measure="perceptron_iterations", master_seed=1)
    for _, center in profile_center_set(cfg):
        records = experiments._block_profile((cfg, center, sigma, 0, trials))
        for stream, rec in enumerate(records):
            g = SeedSpec(1, stream).rng().standard_normal(center.shape)
            yield PerceptronInstance(center + sigma * norm(center) * g), rec


CAPPED = {"measure": experiments.PROFILE_ITERATION_CAP, "status": "iteration_cap_reached"}


class TestProfileMarginRule:
    def test_profile_runs_the_loop_only_when_nu_is_positive(self):
        seen = {True: 0, False: 0}
        for (n, d), sigma in itertools.product(((6, 2), (8, 3)), (0.0, 0.05, 0.1, 0.2)):
            for inst, rec in profile_blocks(n, d, sigma):
                feasible = wiggle_rooms([inst])[0] > 0.0
                seen[feasible] += 1
                cap = experiments.PROFILE_ITERATION_CAP if feasible else 1000
                want = _reference_run(inst, cap)
                if feasible:
                    assert rec == {"measure": want.iterations, "status": want.status}
                else:
                    assert rec == CAPPED and want.status == "iteration_cap_reached"
        assert min(seen.values()) >= 100

    def test_nu_zero_trials_never_call_the_loop(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("run_perceptron ran")
        monkeypatch.setattr(perceptron, "run_perceptron", fail)
        cfg = ExperimentConfig(kind="smoothed_profile", n=6, d=2, sigma_grid=(0.0, 0.1),
                               measure="perceptron_iterations", master_seed=1)
        center_id, center = profile_center_set(cfg)[0]
        assert center_id == "box"
        for sigma in cfg.sigma_grid:
            assert experiments._block_profile((cfg, center, sigma, 0, 20)) == [CAPPED] * 20


def _reference_wolfe(points, counts):
    """Wolfe's loop on one instance as it stood before its per-cycle overhead
    was cut (np.zeros KKT with 4 writes, 1-D right-hand side, np.* wrappers,
    two break tests). min_norm_point on a stack of one must match it byte for
    byte. counts tallies drop steps and rank-deficient KKT systems, so the
    test can check it reached both."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    i0 = int(np.argmin(np.einsum("ij,ij->i", p, p)))
    active = [i0]
    lam = np.array([1.0])
    u = p[i0].copy()
    for _ in range(perceptron.MNP_MAX_ITER):
        scores = p @ u
        j = int(np.argmin(scores))
        uu = float(u @ u)
        if scores[j] >= uu - max(perceptron.MNP_GAP_TOL, 1e-12 * uu) or uu == 0.0:
            break
        if j in active:
            break
        active.append(j)
        lam = np.append(lam, 0.0)
        for _ in range(perceptron.MNP_MAX_ITER):
            q = p[active]
            m = len(active)
            kkt = np.zeros((m + 1, m + 1))
            kkt[:m, :m] = q @ q.T
            kkt[:m, m] = 1.0
            kkt[m, :m] = 1.0
            rhs = np.zeros(m + 1)
            rhs[m] = 1.0
            solution, _, rank, _ = np.linalg.lstsq(kkt, rhs, rcond=None)
            counts["rank_deficient"] += rank < m + 1
            alpha = solution[:m]
            if np.all(alpha > 1e-12):
                lam = alpha
                u = q.T @ alpha
                break
            counts["drops"] += 1
            shrink = lam - alpha
            mask = shrink > 1e-15
            theta = float(np.min(lam[mask] / shrink[mask]))
            theta = min(max(theta, 0.0), 1.0)
            lam = (1.0 - theta) * lam + theta * alpha
            keep = lam > 1e-12
            if not np.any(keep):
                keep[int(np.argmax(lam))] = True
            active = [a for a, k in zip(active, keep) if k]
            lam = lam[keep]
            lam = lam / lam.sum()
            u = p[active].T @ lam
    return u, active


class TestWolfeMatchesReference:
    CENTERS = ("zero", "ones", "box", "stretched")
    SIGMAS = (0.0, 1e-9, 1e-3, 0.1, 1.0)

    def test_seeded_instances(self):
        rng = np.random.default_rng(18)
        counts = {"drops": 0, "rank_deficient": 0}
        checked = duplicated = 0
        by_shape = {}
        for src in self.CENTERS:
            for sigma in self.SIGMAS:
                for _ in range(55):
                    n, d = int(rng.integers(2, 41)), int(rng.integers(2, 7))
                    centers = point_centers(ExperimentConfig(kind="perceptron_tail", n=n, d=d,
                                                             center_source=src))
                    pts = centers + sigma * rng.standard_normal((n, d))
                    if pts.any(axis=1).all():   # else Wolfe's raw-point path
                        pts = PerceptronInstance(pts).unit
                    duplicated += len(np.unique(pts, axis=0)) < n
                    got_u, got_active = perceptron.min_norm_point(pts[None])
                    got_u, got_active = got_u[0], got_active[0]
                    want_u, want_active = _reference_wolfe(pts, counts)
                    assert got_u.tobytes() == want_u.tobytes()
                    assert got_active == want_active
                    by_shape.setdefault((n, d), []).append((pts, want_u, want_active))
                    checked += 1
        assert checked >= 1000
        assert duplicated >= 100
        assert counts["drops"] >= 100 and counts["rank_deficient"] >= 1
        # the same instances stacked by shape, in shuffled order: each result
        # is its own run's, whatever its neighbours in the stack
        stacked = 0
        for group in by_shape.values():
            order = rng.permutation(len(group))
            got_u, got_active = perceptron.min_norm_point(
                np.stack([group[i][0] for i in order]))
            for u, active, i in zip(got_u, got_active, order):
                assert u.tobytes() == group[i][1].tobytes()
                assert active == group[i][2]
                stacked += 1
        assert stacked == checked
        assert max(len(group) for group in by_shape.values()) >= 10

    def test_margin_is_the_norm_of_the_min_norm_point(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            n, d = int(rng.integers(2, 41)), int(rng.integers(2, 7))
            pts = rng.standard_normal((n, d))
            pts[:, 0] = np.abs(pts[:, 0]) + 0.05   # feasible along e_1
            inst = PerceptronInstance(pts)
            want = float(np.linalg.norm(perceptron.min_norm_point(inst.unit[None])[0][0]))
            assert wiggle_rooms([inst])[0] == want


class TestLstsqGuard:
    """A stacked lstsq gufunc that is missing or disagrees with np.linalg.lstsq
    stops the run. np.linalg.lstsq keeps its own binding of the gufunc, so
    replacing numpy.linalg._umath_linalg changes only the stacked solves."""

    @pytest.fixture
    def wrong_bits(self, monkeypatch):
        gufunc = np.linalg._umath_linalg.lstsq

        def lstsq(a, b, rcond, **kwargs):
            x, *rest = gufunc(a, b, rcond, **kwargs)
            return (np.nextafter(x, np.inf), *rest)
        monkeypatch.setattr(np.linalg, "_umath_linalg", SimpleNamespace(lstsq=lstsq))

    def test_wrong_bits_raise(self, wrong_bits):
        with pytest.raises(LapackMismatchError, match="disagrees"):
            perceptron.min_norm_point([[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]])

    def test_missing_gufunc_raises(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "_umath_linalg", SimpleNamespace())
        with pytest.raises(LapackMismatchError, match="numpy >= 2.0"):
            perceptron.min_norm_point([[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]])

    def test_cli_exits_1_with_one_line_and_no_report(self, wrong_bits, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert cli_main(["tail-perceptron", "--n", "8", "--d", "3", "--sigma", "0.2",
                         "--threshold", "2", "--trials", "20", "--center", "ones",
                         "--format", "json", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "disagrees with np.linalg.lstsq" in captured.err
        assert not out.exists()


class TestNormalizedOnce:
    def test_read_only(self):
        inst = PerceptronInstance([[3.0, 4.0], [0.0, -2.0]])
        for array in (inst.unit, inst.points):
            with pytest.raises(ValueError):
                array[0, ...] = 1.0

    def test_caller_array_is_not_frozen_or_shared(self):
        pts = np.array([[3.0, 4.0], [0.0, -2.0]])
        inst = PerceptronInstance(pts)
        pts[0, 0] = 7.0
        assert pts.flags.writeable
        assert inst.points[0, 0] == 3.0
        assert np.array_equal(inst.unit, [[0.6, 0.8], [0.0, -1.0]])

    def test_bit_equal_to_one_division_by_the_row_norms(self):
        rng = np.random.default_rng(20)
        for exponent in range(-160, 201, 5):
            pts = rng.standard_normal((12, 4))
            pts *= 10.0 ** exponent / norm(pts, axis=1)[:, None]
            inst = PerceptronInstance(pts)
            want = inst.points / norm(inst.points, axis=1)[:, None]
            assert inst.unit.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore::samplers.RegimeWarning")
    def test_one_norm_per_tail_trial(self):
        cfg = ExperimentConfig(kind="perceptron_tail", n=40, d=5, sigma_grid=(0.2,),
                               thresholds=(2.0,), center_source="ones", master_seed=1)
        with mock.patch.object(perceptron, "norm", wraps=norm) as spy:
            records = experiments._block_perceptron_tail((cfg, point_centers(cfg), 0.2, 0, 10))
        assert spy.call_count == 10
        assert sum(r["feasible"] for r in records) >= 5   # so run_perceptron ran too


class TestBounds:
    def test_iteration_bound_values(self):
        assert iteration_bound(1.0) == 1
        assert iteration_bound(1.0 / math.sqrt(2)) == 2
        assert iteration_bound(0.1) == 100

    def test_iteration_bound_rejects_zero(self):
        with pytest.raises(InfeasibleMarginError):
            iteration_bound(0.0)

    def test_blum_dunagan_literal_value(self):
        n, d, sigma, t = 20, 3, 0.1, 1000.0
        expected = (n * d ** 1.5 / (sigma * t)) * math.log(sigma * t / d ** 1.5)
        assert blum_dunagan_tail(n, d, sigma, t) == pytest.approx(expected)

    def test_blum_dunagan_regime(self):
        with pytest.raises(OutOfRegimeError):
            blum_dunagan_tail(10, 2, 0.5, 10.0)   # sigma^2 = 1/(2d) exactly
        with pytest.raises(OutOfRegimeError):
            blum_dunagan_tail(10, 2, 0.9, 10.0)
        with pytest.raises(InvalidInputError):
            blum_dunagan_tail(10, 2, 0.1, -1.0)
