"""End-to-end acceptance checks, one test per criterion.

Each test is self-contained and deterministic; the Monte Carlo ones compare
empirical exceedance frequencies against the implemented tail bounds with a
3-standard-error allowance.
"""

import json
import math

import numpy as np
import pytest

from smoothlab.bounds import iteration_bound
from smoothlab.cli import cli_main
from smoothlab.errors import InvalidInputError
from smoothlab.experiments import run_experiment
from smoothlab.kinds import ExperimentConfig, verify_replay
from smoothlab.numkit import inverse_norm
from smoothlab.perceptron import (
    PerceptronInstance,
    run_perceptron,
    wiggle_rooms,
)
from smoothlab.perturb import SeedSpec
from smoothlab.polytope import (
    LinearProgram,
    brute_force_optimum,
    enumerate_vertices,
    shadow_polygon,
)
from smoothlab.reports import load_json_report
from smoothlab.simplex import solve

from oracles import height, wiggle_room_grid
from samplers import gaussian_matrix

# --------------------------------------------------------------------------
# 1. inverse_norm <= sqrt(d)/height on 10,000 mixed Gaussian matrices


def test_01_inverse_norm_height_invariant():
    rng = np.random.default_rng(1001)
    sigmas = [0.01, 0.1, 0.5, 1.0, 2.0]
    by_d = {}
    for i in range(10000):
        d = int(rng.integers(2, 11))
        if rng.random() < 0.5:
            center = np.zeros((d, d))
        else:
            center = rng.standard_normal((d, d))
        sigma = sigmas[i % len(sigmas)]
        by_d.setdefault(d, []).append(gaussian_matrix(center, sigma, SeedSpec(2026, i)))
    for d, ms in by_d.items():
        lhs = inverse_norm(ms)
        rhs = math.sqrt(d) / height(ms)
        assert not np.any(lhs > rhs * (1 + 1e-8))


# --------------------------------------------------------------------------
# 2. sqrt(d)/t tail bound at d=4, zero center, sigma=1, plus a d=1
#    closed-form cross-check


def test_02_zero_center_unit_sigma_tail():
    cfg = ExperimentConfig(kind="matrix_tail", d=4, sigma_grid=(1.0,),
                           thresholds=(10.0, 20.0, 40.0), trials=20000,
                           master_seed=42, center_source="zero")
    report = run_experiment(cfg, jobs=4)
    for row in report.rows:
        assert row["bound_edelman"] is not None
        assert row["empirical"] <= row["bound_edelman"] + 3 * row["stderr"]

    # d=1: ||A^-1|| = 1/|g|, so P(1/|g| > t) = P(|g| < 1/t) = erf(1/(t sqrt(2)))
    t = 10.0
    cfg1 = ExperimentConfig(kind="matrix_tail", d=1, sigma_grid=(1.0,),
                            thresholds=(t,), trials=20000,
                            master_seed=43, center_source="zero")
    row = run_experiment(cfg1, jobs=4).rows[0]
    p_true = math.erf(1.0 / (t * math.sqrt(2)))
    se = math.sqrt(p_true * (1 - p_true) / 20000)
    assert abs(row["empirical"] - p_true) <= 3 * se


# --------------------------------------------------------------------------
# 3. the 1.823 sqrt(d)/(x sigma) and d^1.5/(x sigma) bounds for perturbed
#    centers, thresholds chosen so each bound is at most 0.5


def test_03_smoothed_condition_tails():
    d = 4
    for center in ("zero", "ones"):
        for sigma in (0.1, 0.05):
            t = d ** 1.5 / (0.5 * sigma)   # makes the d^1.5 bound exactly 0.5
            cfg = ExperimentConfig(kind="matrix_tail", d=d, sigma_grid=(sigma,),
                                   thresholds=(t,), trials=20000,
                                   master_seed=7, center_source=center)
            row = run_experiment(cfg, jobs=4).rows[0]
            assert row["bound_sst"] <= 0.5
            assert row["bound_thm43"] <= 0.5
            allowance = 3 * row["stderr"]
            assert row["empirical"] <= row["bound_sst"] + allowance
            assert row["empirical"] <= row["bound_thm43"] + allowance


# --------------------------------------------------------------------------
# 4. perceptron iteration count never exceeds ceil(1/nu^2)


def _random_feasible_instance(rng):
    d = int(rng.integers(2, 6))
    n = int(rng.integers(2, 9))
    axis = rng.standard_normal(d)
    axis /= np.linalg.norm(axis)
    pts = rng.standard_normal((n, d))
    flip = pts @ axis < 0
    pts[flip] *= -1.0
    return PerceptronInstance(pts)


def test_04_block_novikoff_bound():
    rng = np.random.default_rng(404)
    accepted = 0
    while accepted < 1000:
        inst = _random_feasible_instance(rng)
        nu = wiggle_rooms([inst])[0]
        if nu < 1e-3:
            continue
        accepted += 1
        bound = iteration_bound(nu)
        for rule in ("lowest_index", "most_violated"):
            run = run_perceptron(inst, iteration_cap=bound, rule=rule)
            assert run.status == "solved"
            assert run.iterations <= bound


# --------------------------------------------------------------------------
# 5. minimum-norm-point margin equals a dense grid search in d=2


def test_05_margin_oracle_equivalence():
    rng = np.random.default_rng(505)
    checked = 0
    while checked < 200:
        theta = rng.uniform(0, 2 * math.pi)
        n = int(rng.integers(2, 9))
        angles = theta + rng.uniform(-math.pi / 2 + 0.1, math.pi / 2 - 0.1, size=n)
        radii = rng.uniform(0.5, 2.0, size=n)
        inst = PerceptronInstance(np.column_stack([radii * np.cos(angles),
                                                   radii * np.sin(angles)]))
        nu = wiggle_rooms([inst])[0]
        assert nu == pytest.approx(wiggle_room_grid(inst, 100000), abs=1e-4)
        checked += 1


# --------------------------------------------------------------------------
# 6. pivot walk agrees with the brute-force oracle and stays on the shadow hull


def _random_bounded_lp(rng, d):
    n = int(rng.integers(2 * d, 11))
    centers = np.vstack([np.eye(d), -np.eye(d)])
    extra = rng.standard_normal((n - 2 * d, d)) * 0.3 if n > 2 * d else np.zeros((0, d))
    rows = np.vstack([centers, extra]) + 0.05 * rng.standard_normal((n, d))
    z = rng.standard_normal(d)
    return LinearProgram(rows, np.ones(n), z / np.linalg.norm(z))


def test_06_simplex_vs_oracle():
    rng = np.random.default_rng(606)
    for trial in range(500):
        d = 2 if trial % 2 == 0 else 3
        lp = _random_bounded_lp(rng, d)
        res = solve(lp)
        oracle = brute_force_optimum(lp)
        assert res.status == oracle.status == "optimal"
        assert abs(res.objective_value(lp) - oracle.value) <= 1e-6
        poly = shadow_polygon(lp, res.start_objective)
        for vertex in res.visited:
            proj = vertex.point @ poly.basis
            dist = np.min(np.linalg.norm(poly.hull_points - proj, axis=1))
            assert dist <= 1e-7
        assert res.pivot_count <= poly.vertex_count


# --------------------------------------------------------------------------
# 7. exact shadow vertex counts for the cube


def test_07_shadow_geometry_exact_counts():
    cube = np.vstack([np.eye(3), -np.eye(3)])
    generic = shadow_polygon(LinearProgram(cube, np.ones(6), [0.1, 1.0, 0.5]), [1.0, 0.3, -0.2])
    assert generic.vertex_count == 6
    axis = shadow_polygon(LinearProgram(cube, np.ones(6), [0.0, 1.0, 0.0]), [1.0, 0.0, 0.0])
    assert axis.vertex_count == 4
    box = LinearProgram(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4),
                        np.array([0.0, 1.0]))
    flat = shadow_polygon(box, [1.0, 0.0])
    assert flat.vertex_count == len(enumerate_vertices(box)) == 4


# --------------------------------------------------------------------------
# 8. sign-matrix singularity: exact enumeration at d=2, sampled reports
#    labeled conjectural at d in {5, 10}


def test_08_sign_matrix_tails():
    exhaustive = run_experiment(ExperimentConfig(
        kind="rademacher_tail", d=2, thresholds=(2.0,), exhaustive=True))
    assert exhaustive.rows[0]["singularity_freq"] == 0.5

    for d in (5, 10):
        cfg = ExperimentConfig(kind="rademacher_tail", d=d,
                               thresholds=(2.0, 5.0, 10.0), trials=10000,
                               master_seed=808)
        report = run_experiment(cfg, jobs=4)
        assert len(report.rows) == 3
        for row in report.rows:
            for col in report.columns:
                assert row[col] is not None
            assert row["bound_status"] == "conjectural"
            assert 0.0 <= row["singularity_freq"] <= 1.0


# --------------------------------------------------------------------------
# 9. shadow-size experiment at the regime boundary; out-of-regime exits 2


def test_09_shadow_size_regime(tmp_path):
    sigma = math.sqrt(1.0 / (9 * 3 * math.log(8)))
    cfg = ExperimentConfig(kind="shadow_size", n=8, d=3, sigma_grid=(sigma,),
                           trials=200, master_seed=909, center_source="box")
    row = run_experiment(cfg, jobs=4).rows[0]
    assert row["bounded_trials"] > 0
    assert row["mean_vertices"] <= row["bound_expected_vertices"]

    out = tmp_path / "oor.csv"
    code = cli_main(["shadow-size", "--n", "8", "--d", "2", "--sigma", "0.1",
                     "--trials", "2", "--center", "box", "--out", str(out)])
    assert code == 2


# --------------------------------------------------------------------------
# 10 & 11. byte-identical serial/parallel reruns, and replay verification,
#          for every experiment kind

COMMANDS = {
    "matrix_tail": ["tail-matrix", "--d", "3", "--sigma", "1.0", "0.5",
                    "--threshold", "5", "10", "--trials", "40", "--seed", "11"],
    "rademacher_tail": ["tail-rademacher", "--d", "3", "--threshold", "2",
                        "--trials", "40", "--seed", "12"],
    "shadow_size": ["shadow-size", "--n", "8", "--d", "3", "--sigma", "0.13",
                    "--trials", "8", "--seed", "13", "--center", "box"],
    "simplex_pivots": ["simplex-pivots", "--n", "6", "--d", "2",
                       "--sigma", "0.1", "--trials", "8", "--seed", "14",
                       "--center", "box"],
    "perceptron_tail": ["tail-perceptron", "--n", "6", "--d", "2",
                        "--sigma", "0.2", "--threshold", "2",
                        "--trials", "20", "--seed", "15", "--center", "ones"],
    "submatrix_lemma": ["submatrix-lemma", "--n", "6", "--d", "3",
                        "--sigma", "0.1", "--trials", "8", "--seed", "16",
                        "--center", "box"],
    "smoothed_profile": ["smoothed-profile", "--n", "6", "--d", "2",
                         "--sigma", "0.0", "0.1", "--trials", "5",
                         "--seed", "17"],
}


@pytest.fixture(scope="module")
def report_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("reports")
    files = {}
    for kind, base in COMMANDS.items():
        serial = root / f"{kind}_serial.json"
        parallel = root / f"{kind}_parallel.json"
        common = base + ["--format", "json", "--per-trial"]
        assert cli_main(common + ["--jobs", "1", "--out", str(serial)]) == 0
        assert cli_main(common + ["--jobs", "4", "--out", str(parallel)]) == 0
        files[kind] = (serial, parallel)
    return files


def test_10_serial_parallel_byte_identical(report_files):
    for kind, (serial, parallel) in report_files.items():
        assert serial.read_bytes() == parallel.read_bytes(), kind


def test_11_replay_reproduces_aggregates(report_files, capsys):
    for kind, (serial, _) in report_files.items():
        doc = load_json_report(str(serial))
        assert verify_replay(doc), kind
        assert cli_main(["verify-report", str(serial)]) == 0
        assert "replay ok" in capsys.readouterr().out
