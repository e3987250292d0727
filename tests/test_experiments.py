import concurrent.futures
import dataclasses
import itertools
import json
import math
import os
import warnings
from unittest import mock

import numpy as np
import pytest

from smoothlab import experiments, polytope, simplex
from smoothlab.cli import cli_main
from smoothlab.errors import ConfigError, OutOfRegimeError, SizeLimitError
from smoothlab.experiments import (
    BLOCK_TRIALS,
    LOOP_BLOCK_TRIALS,
    WOLFE_BLOCK_TRIALS,
    _block_matrix_tail,
    _block_perceptron_tail,
    _block_profile,
    _block_rademacher,
    _block_shadow_size,
    _block_simplex_pivots,
    _block_submatrix,
    point_centers,
    profile_center_set,
    run_experiment,
)
from smoothlab.kinds import KINDS, MEASURES, ExperimentConfig, validate_config, verify_replay
from smoothlab.numkit import inverse_norm
from smoothlab.bounds import iteration_bound
from smoothlab.perceptron import PerceptronInstance, run_perceptron, wiggle_rooms
from smoothlab.perturb import SeedSpec
from smoothlab.polytope import LinearProgram
from smoothlab.reports import Report, to_csv, to_json
from smoothlab.simplex import solve

from samplers import RegimeWarning, gaussian_matrix, gaussian_points, rademacher_matrix


def roundtrip(report, per_trial=True):
    return json.loads(to_json(report, per_trial=per_trial))


ONE_CONFIG_PER_KIND = [
    ExperimentConfig(kind="matrix_tail", d=3, sigma_grid=(1.0,),
                     thresholds=(10.0,), trials=5, master_seed=2),
    ExperimentConfig(kind="rademacher_tail", d=3, thresholds=(2.0, 10.0), exhaustive=True),
    ExperimentConfig(kind="shadow_size", n=7, d=3, sigma_grid=(0.05, 0.1), trials=6),
    ExperimentConfig(kind="simplex_pivots", n=6, d=2, sigma_grid=(0.1,), trials=6,
                     center_source="box"),
    ExperimentConfig(kind="perceptron_tail", n=10, d=3, sigma_grid=(0.2,), thresholds=(2.0,),
                     center_source="ones", rule="most_violated"),
    ExperimentConfig(kind="submatrix_lemma", n=6, d=2, sigma_grid=(0.1,), trials=40,
                     master_seed=2 ** 64 - 1),
    ExperimentConfig(kind="smoothed_profile", n=4, d=2, sigma_grid=(0, 0.1),
                     measure="perceptron_iterations"),
]


class TestConfig:
    @pytest.mark.parametrize("cfg", ONE_CONFIG_PER_KIND, ids=lambda cfg: cfg.kind)
    def test_echo_roundtrip(self, cfg):
        assert ExperimentConfig(**dataclasses.asdict(cfg)) == cfg
        # as verify-report reads it back: tuples saved as JSON lists
        assert ExperimentConfig(**json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg

    def test_one_config_per_kind(self):
        assert sorted(cfg.kind for cfg in ONE_CONFIG_PER_KIND) == sorted(KINDS)

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(kind="nope"))
        bad = [
            ExperimentConfig(kind="matrix_tail", d=3, sigma_grid=(1.0,),
                             thresholds=(), trials=5),
            ExperimentConfig(kind="matrix_tail", d=3, sigma_grid=(),
                             thresholds=(1.0,), trials=5),
            ExperimentConfig(kind="matrix_tail", d=0, sigma_grid=(1.0,),
                             thresholds=(1.0,), trials=5),
            ExperimentConfig(kind="matrix_tail", d=3, sigma_grid=(1.0,),
                             thresholds=(1.0,), trials=0),
            ExperimentConfig(kind="matrix_tail", d=3, sigma_grid=(-1.0,),
                             thresholds=(1.0,), trials=5),
            ExperimentConfig(kind="smoothed_profile", n=4, d=2, sigma_grid=(0.1,),
                             measure="bogus"),
        ]
        for cfg in bad:
            with pytest.raises(ConfigError):
                run_experiment(cfg)


class TestMatrixTail:
    CFG = ExperimentConfig(kind="matrix_tail", d=3, sigma_grid=(1.0, 0.5),
                           thresholds=(5.0, 10.0, 20.0), trials=300, master_seed=7)

    def test_shape_and_bounds(self):
        report = run_experiment(self.CFG)
        assert report.schema == "matrix_tail.v1"
        assert report.columns == ["sigma", "threshold", "empirical", "stderr",
                                  "bound_edelman", "bound_sst", "bound_thm43", "bound_conj1"]
        assert len(report.rows) == 6
        for row in report.rows:
            assert 0.0 <= row["empirical"] <= 1.0
            assert row["bound_conj1"] == pytest.approx(
                math.sqrt(3) / (row["threshold"] * row["sigma"]))
            if row["sigma"] == 1.0:
                assert row["bound_edelman"] == pytest.approx(
                    math.sqrt(3) / row["threshold"])
            else:
                assert row["bound_edelman"] is None

    def test_exceedance_monotone_in_threshold(self):
        report = run_experiment(self.CFG)
        for sigma in self.CFG.sigma_grid:
            ps = [r["empirical"] for r in report.rows if r["sigma"] == sigma]
            assert ps == sorted(ps, reverse=True)

    def test_deterministic_and_parallel_equal(self):
        a = run_experiment(self.CFG, jobs=1)
        b = run_experiment(self.CFG, jobs=3)
        assert a.rows == b.rows
        assert a.per_trial == b.per_trial

    def test_replay(self):
        report = run_experiment(self.CFG)
        assert verify_replay(roundtrip(report))


class TestRademacherTail:
    def test_exhaustive_d2_singularity(self):
        cfg = ExperimentConfig(kind="rademacher_tail", d=2, thresholds=(2.0,),
                               exhaustive=True)
        report = run_experiment(cfg)
        assert report.rows[0]["singularity_freq"] == 0.5
        assert report.rows[0]["bound_status"] == "conjectural"

    def test_exhaustive_budget(self):
        cfg = ExperimentConfig(kind="rademacher_tail", d=5, thresholds=(2.0,),
                               exhaustive=True)
        with pytest.raises(SizeLimitError):
            run_experiment(cfg)

    def test_sampled(self):
        cfg = ExperimentConfig(kind="rademacher_tail", d=4, thresholds=(3.0,),
                               trials=400, master_seed=1)
        report = run_experiment(cfg)
        assert 0.0 <= report.rows[0]["empirical"] <= 1.0
        assert verify_replay(roundtrip(report))


class TestShadowSize:
    def test_runs_in_regime(self):
        sigma = 0.9 * math.sqrt(1.0 / (9 * 3 * math.log(8)))
        cfg = ExperimentConfig(kind="shadow_size", n=8, d=3, sigma_grid=(sigma,),
                               trials=5, master_seed=3, center_source="box")
        report = run_experiment(cfg)
        row = report.rows[0]
        assert row["bounded_trials"] + row["unbounded_trials"] == 5
        if row["bounded_trials"]:
            assert row["mean_vertices"] <= row["bound_expected_vertices"]
        assert verify_replay(roundtrip(report))

    def test_out_of_regime(self):
        cfg = ExperimentConfig(kind="shadow_size", n=8, d=3, sigma_grid=(1.0,),
                               trials=2, center_source="box")
        with pytest.raises(OutOfRegimeError):
            run_experiment(cfg)


class TestSimplexPivots:
    def test_oracle_agreement(self):
        cfg = ExperimentConfig(kind="simplex_pivots", n=6, d=2, sigma_grid=(0.1,),
                               trials=10, master_seed=5, center_source="box")
        report = run_experiment(cfg)
        row = report.rows[0]
        assert row["oracle_match_frac"] == 1.0
        assert row["hull_bound_violations"] == 0
        assert verify_replay(roundtrip(report))

    @staticmethod
    def box_trial(sigma):
        cfg = ExperimentConfig(kind="simplex_pivots", n=8, d=3, sigma_grid=(sigma,), trials=1,
                               center_source="box")
        return experiments._block_simplex_pivots((cfg, point_centers(cfg), sigma, 0, 1))[0]

    def test_trial_enumerates_its_polytope_once(self):
        # the oracle and the shadow hull share one enumeration of vertices and of rays
        enumerate_vertices = mock.Mock(wraps=polytope.enumerate_vertices)
        recession_directions = mock.Mock(wraps=polytope.recession_directions)
        with mock.patch.object(polytope, "enumerate_vertices", enumerate_vertices), \
                mock.patch.object(polytope, "recession_directions", recession_directions), \
                mock.patch.object(simplex, "recession_directions", recession_directions):
            rec = self.box_trial(0.1)
        assert rec["status"] == "optimal" and rec["agree"] and rec["within_hull"]
        assert (enumerate_vertices.call_count, recession_directions.call_count) == (1, 1)

    def test_trial_silences_coincident_vertices(self):
        # rows 6 and 7 repeat rows 0 and 1, so distinct bases share vertices
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.box_trial(1e-9)["agree"]

    def test_trial_lets_other_warnings_through(self, monkeypatch):
        def noisy_solve(lp):
            warnings.warn("overflow in a trial", RuntimeWarning)
            return solve(lp)

        monkeypatch.setattr(simplex, "solve", noisy_solve)
        with pytest.warns(RuntimeWarning, match="overflow in a trial"):
            self.box_trial(0.1)


class TestPerceptronTail:
    def test_runs(self):
        cfg = ExperimentConfig(kind="perceptron_tail", n=6, d=2, sigma_grid=(0.2,),
                               thresholds=(2.0, 10.0), trials=40, master_seed=9,
                               center_source="ones")
        report = run_experiment(cfg)
        for row in report.rows:
            assert row["iteration_bound_violations"] == 0
            assert 0.0 <= row["bound_blum_dunagan"] <= 1.0
        assert verify_replay(roundtrip(report))

    def test_unknown_rule_rejected_before_trials(self):
        # at center zero no trial is feasible, so no perceptron run would check the rule
        cfg = ExperimentConfig(kind="perceptron_tail", n=40, d=5, sigma_grid=(0.2,),
                               thresholds=(2.0,), trials=20, center_source="zero",
                               rule="bogus")
        with pytest.raises(ConfigError, match="unknown perceptron rule: bogus"):
            run_experiment(cfg)

    def test_regime_gate(self):
        cfg = ExperimentConfig(kind="perceptron_tail", n=6, d=2, sigma_grid=(0.9,),
                               thresholds=(2.0,), trials=5, center_source="ones")
        with pytest.raises(OutOfRegimeError):
            run_experiment(cfg)


class TestSubmatrixLemma:
    def test_both_sides_reported(self):
        sigma = 0.5 * math.sqrt(1.0 / (9 * 3 * math.log(6)))
        cfg = ExperimentConfig(kind="submatrix_lemma", n=6, d=3, sigma_grid=(sigma,),
                               trials=10, master_seed=4, center_source="box")
        report = run_experiment(cfg)
        row = report.rows[0]
        assert 0 <= row["mean_indicator_sum"] <= math.comb(6, 3)
        assert row["rhs"] == math.ceil((6 - 3 - 1) / 2) * math.comb(6, 2)
        assert 0.0 <= row["event_freq"] <= 1.0
        assert verify_replay(roundtrip(report))

    def test_budget(self):
        cfg = ExperimentConfig(kind="submatrix_lemma", n=60, d=20,
                               sigma_grid=(0.01,), trials=1, center_source="box")
        with pytest.raises(SizeLimitError):
            run_experiment(cfg)


class TestSmoothedProfile:
    def test_zero_sigma_collapses_to_deterministic(self):
        cfg = ExperimentConfig(kind="smoothed_profile", n=6, d=2,
                               sigma_grid=(0.0,), trials=3, master_seed=1,
                               measure="simplex_pivots")
        report = run_experiment(cfg)
        centers = [r for r in report.rows if not r["is_smoothed_estimate"]]
        for row in centers:
            assert row["confidence_halfwidth"] == 0.0
        maxima = [r for r in report.rows if r["is_smoothed_estimate"]]
        assert len(maxima) == 1
        assert maxima[0]["mean_measure"] == max(r["mean_measure"] for r in centers)

    def test_perceptron_measure(self):
        cfg = ExperimentConfig(kind="smoothed_profile", n=6, d=2,
                               sigma_grid=(0.1,), trials=4, master_seed=2,
                               measure="perceptron_iterations")
        report = run_experiment(cfg)
        assert all(r["mean_measure"] >= 0 for r in report.rows)
        assert verify_replay(roundtrip(report))

    def test_perceptron_measure_ignores_rule(self):
        # smoothed-profile has no --rule flag; on this draw the two rules take different
        # step counts on the "ones" trials, so a rule that reached the profile would show
        cfg = ExperimentConfig(kind="smoothed_profile", n=10, d=3, sigma_grid=(0.3,),
                               trials=4, master_seed=2, measure="perceptron_iterations")
        assert (run_experiment(dataclasses.replace(cfg, rule="most_violated")).rows
                == run_experiment(cfg).rows)

    @pytest.mark.parametrize("n, d", [(6, 2), (8, 3)])
    def test_draw_is_center_plus_frobenius_scaled_gaussian(self, n, d):
        # the profile's model: C + (sigma ||C||_F) G, G the trial stream's standard normals
        for sigma in (0.0, 0.05, 0.2):
            cfg = ExperimentConfig(kind="smoothed_profile", n=n, d=d, sigma_grid=(sigma,),
                                   master_seed=3, measure="simplex_pivots")
            for _, center in profile_center_set(cfg):
                records = _block_profile((cfg, center, sigma, 0, 20))
                for stream, rec in enumerate(records):
                    g = SeedSpec(3, stream).rng().standard_normal(center.shape)
                    rows = center + (sigma * np.linalg.norm(center)) * g
                    want = solve(LinearProgram(rows, np.ones(n), np.ones(d) / math.sqrt(d)))
                    assert rec == {"measure": want.pivot_count, "status": want.status}

    @pytest.mark.parametrize("rows, sigma", [
        ([[-0.0, 1.0], [1.0, -0.0], [-1.0, -1.0]], 0.0),
        ([[0.0, 0.0], [0.0, 0.0]], 0.1),
    ], ids=["signed_zeros_at_sigma_0", "zero_center_at_sigma_0.1"])
    def test_zero_scale_runs_the_center_itself(self, tmp_path, monkeypatch, rows, sigma):
        seen = []

        def capture(lp):
            seen.append(lp.A.tobytes())
            return solve(lp)
        monkeypatch.setattr(simplex, "solve", capture)
        cfg = ExperimentConfig(kind="smoothed_profile", d=2, sigma_grid=(sigma,), trials=2,
                               center_source=_write_centers(tmp_path / "c.inst", rows),
                               measure="simplex_pivots")
        run_experiment(cfg)
        assert seen == [np.array(rows).tobytes()] * 2


class TestSerialization:
    def test_csv_contract(self):
        cfg = ExperimentConfig(kind="matrix_tail", d=2, sigma_grid=(1.0,),
                               thresholds=(4.0,), trials=20, master_seed=0)
        text = to_csv(run_experiment(cfg))
        lines = text.splitlines()
        assert lines[0] == "# schema=matrix_tail.v1"
        assert lines[1] == ("sigma,threshold,empirical,stderr,"
                            "bound_edelman,bound_sst,bound_thm43,bound_conj1")

    def test_csv_cells(self):
        report = Report(schema="x.v1", config={}, columns=["a", "b", "c", "d"],
                        rows=[{"a": math.inf, "b": None, "c": True, "d": 0.1}])
        assert to_csv(report).splitlines()[2] == "inf,,true,0.1"

    def test_json_roundtrips_infinity(self):
        report = Report(schema="x.v1", config={}, columns=["a"],
                        rows=[{"a": math.inf}])
        assert json.loads(to_json(report))["rows"][0]["a"] == math.inf

    def test_replay_detects_tampering(self):
        cfg = ExperimentConfig(kind="matrix_tail", d=2, sigma_grid=(1.0,),
                               thresholds=(4.0,), trials=20, master_seed=0)
        doc = roundtrip(run_experiment(cfg))
        doc["rows"][0]["empirical"] = 0.123456
        assert not verify_replay(doc)


# --------------------------------------------------------------------------
# block workers against per-trial reference loops

def _trial_matrix_tail(args):   # reference: one stream, one inverse_norm
    cfg, center, sigma, stream = args
    m = gaussian_matrix(center, sigma, SeedSpec(cfg.master_seed, stream))
    return inverse_norm(m)


def _trial_perceptron_tail(args):   # reference: one instance, its own Wolfe run, one loop
    cfg, centers, sigma, streams, _ = args
    pts = centers + sigma * next(streams).standard_normal(centers.shape)
    inst = PerceptronInstance(pts)
    nu = wiggle_rooms([inst])[0]
    if nu <= 0.0:
        return {"nu": 0.0, "feasible": False, "iterations": None,
                "bound": None, "within": None}
    bound = iteration_bound(nu)
    run = run_perceptron(inst, iteration_cap=bound, rule=cfg.rule)
    return {"nu": nu, "feasible": True, "iterations": run.iterations,
            "bound": bound, "within": bool(run.status == "solved")}


def _trial_rademacher(args):
    cfg, stream = args
    m = rademacher_matrix(cfg.d, SeedSpec(cfg.master_seed, stream))
    return inverse_norm(m)


def _exhaustive_rademacher(d):
    values = []
    cells = d * d
    for code in range(2 ** cells):
        bits = [(code >> k) & 1 for k in range(cells)]
        m = (2.0 * np.asarray(bits, dtype=float) - 1.0).reshape(d, d)
        values.append(inverse_norm(m))
    return values


def _trial_submatrix(args):
    cfg, centers, sigma, stream = args
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        pts = gaussian_points(centers, sigma, SeedSpec(cfg.master_seed, stream))
    tau = sigma ** 2 / (8.0 * cfg.d ** 1.5 * cfg.n ** 7)
    return sum(int(inverse_norm(pts[list(idx)].T) >= tau)
               for idx in itertools.combinations(range(cfg.n), cfg.d))


def assert_bit_equal(got, want):
    assert np.array_equal(got, want)
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


COUNTS = (1, BLOCK_TRIALS - 1, BLOCK_TRIALS + 1, 2 * BLOCK_TRIALS + 3)

# (first trial, count): a block at 0, one mid-range, a 2-trial block
LOOP_BLOCKS = ((0, LOOP_BLOCK_TRIALS), (21, 5), (1000, 2))


def _loop_reference(trial, k, cfg, payload, sigma, first, count):
    """Records of trials first .. first + count - 1, trial s fed the
    generators SeedSpec(master_seed, k*s + j).rng() for j = 0 .. k-1."""
    recs = []
    for s in range(first, first + count):
        streams = iter([SeedSpec(cfg.master_seed, k * s + j).rng() for j in range(k)])
        recs.append(trial((cfg, payload, sigma, streams, k * s)))
        assert next(streams, None) is None   # the trial took all k streams
    return recs


POINT_LOOP_KINDS = {   # kind: block worker, trial, streams per trial, sigma, config fields
    "shadow_size": (_block_shadow_size, experiments._trial_shadow_size, 2, 0.13,
                    dict(n=8, d=3, center_source="box")),
    "simplex_pivots": (_block_simplex_pivots, experiments._trial_simplex_pivots, 2, 0.1,
                       dict(n=6, d=2, center_source="box")),
    "perceptron_tail": (_block_perceptron_tail, _trial_perceptron_tail, 1, 0.2,
                        dict(n=6, d=2, thresholds=(2.0,), center_source="ones")),
}


def _assert_loop_blocks(block, trial, k, cfg, payload, sigma, blocks=LOOP_BLOCKS):
    seen = []
    for first, count in blocks:
        got = block((cfg, payload, sigma, first, count))
        assert got == _loop_reference(trial, k, cfg, payload, sigma, first, count)
        seen += [json.dumps(r, sort_keys=True) for r in got]
    return seen


class TestBlocksMatchLoops:
    @pytest.mark.parametrize("seed,d,center", [
        (0, 1, "zero"), (7, 3, "ones"), (2 ** 64 - 1, 4, "zero"), (424242, 4, "tilted")])
    def test_matrix_tail(self, seed, d, center):
        cfg = ExperimentConfig(kind="matrix_tail", d=d, master_seed=seed)
        c = np.zeros((d, d)) if center == "zero" else np.ones((d, d))
        if center == "tilted":
            c = np.arange(d * d, dtype=float).reshape(d, d) / 7.0 - 1.0
        for count, first, sigma in zip(COUNTS, (0, 5, 2 * BLOCK_TRIALS, 123457), (1.0, 0.5, 0.01, 3.0)):
            want = [_trial_matrix_tail((cfg, c, sigma, s)) for s in range(first, first + count)]
            assert_bit_equal(_block_matrix_tail((cfg, c, sigma, first, count)), want)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_matrix_tail_draws_as_each_stream(self, d):
        # blocks split at odd boundaries: trial s is stream s's (d, d) draw
        cfg = ExperimentConfig(kind="matrix_tail", d=d, master_seed=2718)
        for first, count in ((0, 3), (3, BLOCK_TRIALS - 2), (BLOCK_TRIALS + 1, 5)):
            want = [inverse_norm(SeedSpec(2718, s).rng().standard_normal((d, d)))
                    for s in range(first, first + count)]
            got = _block_matrix_tail((cfg, np.zeros((d, d)), 1.0, first, count))
            assert_bit_equal(got, want)

    @pytest.mark.parametrize("seed,d", [(1, 1), (12, 2), (99, 3), (2 ** 63, 4)])
    def test_rademacher_sampled(self, seed, d):
        cfg = ExperimentConfig(kind="rademacher_tail", d=d, master_seed=seed)
        for count, first in zip(COUNTS, (0, 3, BLOCK_TRIALS, 77)):
            want = [_trial_rademacher((cfg, s)) for s in range(first, first + count)]
            assert_bit_equal(_block_rademacher((cfg, None, None, first, count)), want)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_rademacher_exhaustive(self, d):
        cfg = ExperimentConfig(kind="rademacher_tail", d=d, thresholds=(2.0,), exhaustive=True)
        report = run_experiment(cfg)
        assert_bit_equal(report.per_trial[0]["values"], _exhaustive_rademacher(d))

    @pytest.mark.parametrize("n,d,center,sigma", [
        (6, 2, "box", 0.1), (5, 3, "ones", 0.05),
        # out of the lemma's regime on purpose: tau near 1, so the counts vary
        (4, 2, "box", 70.0), (5, 3, "zero", 150.0)])
    def test_submatrix(self, n, d, center, sigma):
        cfg = ExperimentConfig(kind="submatrix_lemma", n=n, d=d, master_seed=31,
                               center_source=center)
        centers = point_centers(cfg)
        seen = set()
        for count, first in ((1, 0), (40, 3), (3, BLOCK_TRIALS - 1)):
            want = [_trial_submatrix((cfg, centers, sigma, s)) for s in range(first, first + count)]
            assert _block_submatrix((cfg, centers, sigma, first, count)) == want
            seen.update(want)
        assert len(seen) > 1 or sigma < 1

    @pytest.mark.parametrize("kind", sorted(POINT_LOOP_KINDS))
    @pytest.mark.parametrize("seed", [0, 90210, 2 ** 64 - 1])
    def test_point_loop_kinds(self, kind, seed):
        block, trial, k, sigma, fields = POINT_LOOP_KINDS[kind]
        cfg = ExperimentConfig(kind=kind, master_seed=seed, **fields)
        seen = _assert_loop_blocks(block, trial, k, cfg, point_centers(cfg), sigma)
        assert len(set(seen)) > 1

    @pytest.mark.parametrize("center", ["ones", "zero"])
    @pytest.mark.parametrize("seed", [3, 2 ** 64 - 1])
    def test_perceptron_tail_wolfe_blocks(self, center, seed):
        # the loop blocks, one full block of the stacked Wolfe run and one
        # partial; at the zero center Wolfe drops points and trials are infeasible
        cfg = ExperimentConfig(kind="perceptron_tail", n=6, d=2, thresholds=(2.0,),
                               center_source=center, master_seed=seed)
        blocks = LOOP_BLOCKS + ((WOLFE_BLOCK_TRIALS, WOLFE_BLOCK_TRIALS),
                                (3 * WOLFE_BLOCK_TRIALS + 7, WOLFE_BLOCK_TRIALS - 19))
        seen = _assert_loop_blocks(_block_perceptron_tail, _trial_perceptron_tail, 1, cfg,
                                   point_centers(cfg), 0.2, blocks)
        feasible = {json.loads(r)["feasible"] for r in seen}
        assert feasible == ({True, False} if center == "zero" else {True})

    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    def test_profile(self, measure, sigma):
        cfg = ExperimentConfig(kind="smoothed_profile", n=4, d=2, master_seed=17,
                               measure=measure)
        for _, center in profile_center_set(cfg):
            seen = _assert_loop_blocks(_block_profile, experiments._trial_profile, 1,
                                       cfg, center, sigma)
            if sigma == 0.0:   # every trial is the center itself
                assert len(set(seen)) == 1

    def test_runner_streams_two_per_trial(self):
        # shadow-size group g owns streams 2 * g * trials .. 2 * (g + 1) * trials - 1
        trials = LOOP_BLOCK_TRIALS + 3
        cfg = ExperimentConfig(kind="shadow_size", n=7, d=3, sigma_grid=(0.05, 0.1),
                               trials=trials, master_seed=5)
        report = run_experiment(cfg)
        for g, (entry, sigma) in enumerate(zip(report.per_trial, cfg.sigma_grid)):
            assert entry["counts"] == _loop_reference(
                experiments._trial_shadow_size, 2, cfg, point_centers(cfg), sigma,
                g * trials, trials)

    @pytest.mark.parametrize("trials", COUNTS)
    def test_runner_streams(self, trials):
        # group g of the run owns streams g * trials .. (g + 1) * trials - 1
        cfg = ExperimentConfig(kind="matrix_tail", d=2, sigma_grid=(1.0, 0.25),
                               thresholds=(3.0,), trials=trials, master_seed=5)
        report = run_experiment(cfg)
        c = np.zeros((2, 2))
        for g, (entry, sigma) in enumerate(zip(report.per_trial, cfg.sigma_grid)):
            want = [_trial_matrix_tail((cfg, c, sigma, g * trials + i)) for i in range(trials)]
            assert entry["sigma"] == sigma
            assert_bit_equal(entry["values"], want)
        rad = ExperimentConfig(kind="rademacher_tail", d=3, thresholds=(3.0,),
                               trials=trials, master_seed=5)
        assert_bit_equal(run_experiment(rad).per_trial[0]["values"],
                         [_trial_rademacher((rad, i)) for i in range(trials)])


# --------------------------------------------------------------------------
# parallel runs: the same bytes, one pool, never more workers than blocks

PARALLEL_COMMANDS = {   # each has at least three blocks
    "matrix_tail": ["tail-matrix", "--d", "3", "--sigma", "1.0", "0.5",
                    "--threshold", "5", "10", "--trials", "1100"],
    "rademacher_tail": ["tail-rademacher", "--d", "3", "--threshold", "2",
                        "--trials", "2100"],
    "rademacher_exhaustive": ["tail-rademacher", "--d", "4", "--threshold", "2",
                              "--exhaustive"],
    "shadow_size": ["shadow-size", "--n", "8", "--d", "3", "--sigma", "0.13",
                    "--trials", "40", "--center", "box"],
    "simplex_pivots": ["simplex-pivots", "--n", "6", "--d", "2", "--sigma", "0.1",
                       "--trials", "40", "--center", "box"],
    "perceptron_tail": ["tail-perceptron", "--n", "6", "--d", "2", "--sigma", "0.2",
                        "--threshold", "2", "--trials", "40", "--center", "ones"],
    "submatrix_lemma": ["submatrix-lemma", "--n", "6", "--d", "3", "--sigma", "0.1",
                        "--trials", "2100", "--center", "box"],
    "smoothed_profile": ["smoothed-profile", "--n", "6", "--d", "2",
                         "--sigma", "0.0", "0.1", "--trials", "20"],
}


@pytest.mark.parametrize("name", sorted(PARALLEL_COMMANDS))
def test_jobs_give_identical_bytes(tmp_path, name):
    reports = []
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"r{jobs}.json"
        assert cli_main(PARALLEL_COMMANDS[name] + ["--seed", "21", "--format", "json",
                                                   "--per-trial", "--jobs", jobs,
                                                   "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[1] == reports[0] and reports[2] == reports[0]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    def __init__(self, made, max_workers):
        made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestPoolSize:
    @pytest.fixture
    def made(self, monkeypatch):
        made = []
        # _map_blocks imports the pool class when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda max_workers: _RecordingPool(made, max_workers))
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 4)   # whatever the host has
        return made

    @pytest.mark.parametrize("sigmas,trials,jobs,pools", [
        ((1.0,), 2, 5000, []),                        # one block: no pool at all
        ((1.0, 0.5), 2, 5000, [2]),                   # capped at the block count
        ((1.0, 0.5, 0.25), 3 * BLOCK_TRIALS, 2, [2]),  # nine blocks, one pool of two
        ((1.0, 0.5), 2 * BLOCK_TRIALS, 1, []),
    ])
    def test_workers_capped_at_blocks(self, made, sigmas, trials, jobs, pools):
        cfg = ExperimentConfig(kind="matrix_tail", d=2, sigma_grid=sigmas,
                               thresholds=(3.0,), trials=trials, master_seed=4)
        assert run_experiment(cfg, jobs=jobs).per_trial == run_experiment(cfg).per_trial
        assert made == pools

    @pytest.mark.parametrize("jobs,cpus,pools", [
        (5000, 4, [4]),   # nine blocks, capped at the CPU count
        (3, 2, [2]),
        (3, 8, [3]),
        (2, 1, []),       # one CPU: no pool at all
    ])
    def test_workers_capped_at_cpus(self, made, monkeypatch, jobs, cpus, pools):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
        cfg = ExperimentConfig(kind="matrix_tail", d=2, sigma_grid=(1.0, 0.5, 0.25),
                               thresholds=(3.0,), trials=3 * BLOCK_TRIALS, master_seed=4)
        assert run_experiment(cfg, jobs=jobs).per_trial == run_experiment(cfg).per_trial
        assert made == pools

    def test_usable_cpus(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert experiments._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert experiments._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)   # undeterminable
        assert experiments._usable_cpus() == 1

    def test_cli_huge_jobs_on_two_trials(self, made, tmp_path):
        assert cli_main(["tail-perceptron", "--n", "6", "--d", "2", "--sigma", "0.1", "0.2",
                         "--threshold", "2", "--trials", "2", "--center", "ones",
                         "--jobs", "5000", "--out", str(tmp_path / "r.csv")]) == 0
        assert made == [2]

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one(self, made, jobs):
        cfg = ExperimentConfig(kind="matrix_tail", d=2, sigma_grid=(1.0, 0.5),
                               thresholds=(3.0,), trials=5)
        with pytest.raises(ConfigError, match="jobs must be at least 1"):
            run_experiment(cfg, jobs=jobs)
        assert made == []


class TestValidation:
    @pytest.mark.parametrize("kind", ["shadow_size", "simplex_pivots", "smoothed_profile"])
    def test_lp_kinds_refuse_past_the_basis_budget(self, kind):
        # before the regime gate, which sigma 0.1 fails at this size
        cfg = ExperimentConfig(kind=kind, n=60, d=20, sigma_grid=(0.1,), center_source="box")
        with pytest.raises(SizeLimitError,
                           match=r"C\(60,20\) = 4191844505805495 exceeds the budget 1000000"):
            validate_config(cfg)

    def test_basis_budget_only_where_a_scan_runs(self, tmp_path):
        validate_config(ExperimentConfig(kind="smoothed_profile", n=60, d=20, sigma_grid=(0.1,),
                                         measure="perceptron_iterations"))
        center = tmp_path / "c.inst"   # the scan checks the n the file sets
        center.write_text("3 2\n1 0\n0 1\n1 1\n")
        validate_config(ExperimentConfig(kind="smoothed_profile", n=60, d=20, sigma_grid=(0.1,),
                                         center_source=str(center)))

    @pytest.mark.parametrize("measure", ["simplex_pivots", "perceptron_iterations"])
    def test_profile_needs_n_for_builtin_centers(self, measure):
        cfg = ExperimentConfig(kind="smoothed_profile", n=-3, d=2, sigma_grid=(0.1,),
                               measure=measure)
        with pytest.raises(ConfigError, match="n must be at least 1"):
            run_experiment(cfg)

    def test_profile_file_center_ignores_n(self, tmp_path):
        center = tmp_path / "c.inst"
        center.write_text("3 2\n1 0\n0 1\n1 1\n")
        cfg = ExperimentConfig(kind="smoothed_profile", n=0, d=2, sigma_grid=(0.1,),
                               trials=2, center_source=str(center),
                               measure="perceptron_iterations")
        assert [r["center_id"] for r in run_experiment(cfg).rows] == ["file", "max_over_centers"]

    def test_profile_runs_rows_whose_squares_underflow(self, tmp_path):
        center = tmp_path / "c.inst"
        center.write_text("2 2\n2.18e-296 0\n1 1\n")
        cfg = ExperimentConfig(kind="smoothed_profile", d=2, sigma_grid=(0.0,), trials=1,
                               center_source=str(center), measure="perceptron_iterations")
        assert run_experiment(cfg).per_trial[0]["records"] == [{"measure": 1, "status": "solved"}]

    def test_profile_zero_row_at_sigma_zero(self, tmp_path):
        center = tmp_path / "c.inst"
        center.write_text("3 2\n1 0\n0 0\n0 1\n")
        cfg = ExperimentConfig(kind="smoothed_profile", d=2, sigma_grid=(0.0,), trials=2,
                               center_source=str(center), measure="perceptron_iterations")
        assert run_experiment(cfg).per_trial[0]["records"] == \
            [{"measure": 0, "status": "degenerate_zero_row"}] * 2

    def test_matrix_center_file_of_text(self, tmp_path):
        center = tmp_path / "c.txt"
        center.write_text("a b\n")
        cfg = ExperimentConfig(kind="matrix_tail", d=2, sigma_grid=(1.0,),
                               thresholds=(3.0,), center_source=str(center))
        with pytest.raises(ConfigError, match="cannot read center file"):
            run_experiment(cfg)


def _write_centers(path, rows) -> str:
    path.write_text(f"{len(rows)} {len(rows[0])}\n"
                    + "".join(" ".join(repr(float(v)) for v in row) + "\n" for row in rows))
    return str(path)


class TestCenterFileMatchesBuiltin:
    """A file holding a built-in center's rows gives that center's trials."""

    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(kind="shadow_size", n=8, d=3, sigma_grid=(0.1,), trials=3),
        ExperimentConfig(kind="simplex_pivots", n=6, d=2, sigma_grid=(0.1,), trials=3),
        ExperimentConfig(kind="perceptron_tail", n=8, d=3, sigma_grid=(0.1,),
                         thresholds=(2.0,), trials=5),
        ExperimentConfig(kind="submatrix_lemma", n=6, d=2, sigma_grid=(0.1,), trials=5),
    ], ids=lambda cfg: cfg.kind)
    def test_box_rows(self, tmp_path, cfg):
        box = dataclasses.replace(cfg, center_source="box", master_seed=17)
        path = _write_centers(tmp_path / "box.inst", point_centers(box).tolist())
        built_in, from_file = (run_experiment(c)
                               for c in (box, dataclasses.replace(box, center_source=path)))
        assert from_file.per_trial == built_in.per_trial
        assert from_file.rows == built_in.rows and from_file.warnings == built_in.warnings

    @pytest.mark.parametrize("measure", MEASURES)
    def test_profile_box_rows(self, tmp_path, measure):
        box = ExperimentConfig(kind="smoothed_profile", n=6, d=2, sigma_grid=(0.1,), trials=3,
                               master_seed=17, measure=measure)
        path = _write_centers(tmp_path / "box.inst", point_centers(
            dataclasses.replace(box, center_source="box")).tolist())
        built_in = run_experiment(box).per_trial[0]   # the box is the first center
        from_file = run_experiment(dataclasses.replace(box, n=0, center_source=path)).per_trial[0]
        assert built_in["center_id"] == "box" and from_file["center_id"] == "file"
        assert from_file["records"] == built_in["records"]

    def test_matrix_ones(self, tmp_path):
        ones = ExperimentConfig(kind="matrix_tail", d=3, sigma_grid=(0.5, 1.0),
                                thresholds=(2.0, 10.0), trials=200, master_seed=17,
                                center_source="ones")
        path = _write_centers(tmp_path / "ones.inst", [[1, 1, 1]] * 3)
        built_in, from_file = (run_experiment(c)
                               for c in (ones, dataclasses.replace(ones, center_source=path)))
        assert from_file.per_trial == built_in.per_trial and from_file.rows == built_in.rows
