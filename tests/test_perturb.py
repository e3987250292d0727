import math
import pathlib
import warnings

import numpy as np
import pytest

from smoothlab import perturb
from smoothlab.bounds import regime_notes, variance_regime_limit, variance_regime_note
from smoothlab.cli import cli_main
from smoothlab.errors import InvalidInputError, StreamMismatchError
from smoothlab.experiments import ExperimentConfig, run_experiment
from smoothlab.numkit import norm
from smoothlab.perturb import SeedSpec, block_streams

from samplers import RegimeWarning, gaussian_matrix, gaussian_points, rademacher_matrix


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


DRAWS = {
    "normal_4x4": lambda rng: rng.standard_normal((4, 4)),
    "normal_8x3": lambda rng: rng.standard_normal((8, 3)),
    "signs_3x3": lambda rng: rng.integers(0, 2, size=(3, 3)),
}


class TestBlockStreams:
    @pytest.mark.parametrize("master", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1])
    @pytest.mark.parametrize("first", [0, 1023, 2 ** 32 - 3, 2 ** 40],
                             ids=["0", "1023", "straddles-2^32", "2^40"])
    def test_bit_identical_to_seedspec(self, master, first):
        for count in (1, 6, 1025):
            for draw in DRAWS.values():
                got = [draw(rng) for rng in block_streams(master, first, count)]
                want = [draw(SeedSpec(master, s).rng()) for s in range(first, first + count)]
                assert len(got) == count
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_spawn_keys_past_64_bits(self):
        first = 2 ** 64 - 2   # two-word keys, then three-word keys
        got = [rng.standard_normal(3) for rng in block_streams(5, first, 4)]
        want = [SeedSpec(5, s).rng().standard_normal(3) for s in range(first, first + 4)]
        assert np.array_equal(got, want)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            next(block_streams(2 ** 64, 0, 1))
        with pytest.raises(InvalidInputError):
            next(block_streams(0, -1, 1))


class TestSeedingGuard:
    """A bulk derivation that disagrees with SeedSpec.rng() stops the run."""

    @pytest.fixture
    def broken_mixing(self, monkeypatch):
        monkeypatch.setattr(perturb, "_MULT_B", perturb._MULT_B ^ 1)

    def test_block_raises(self, broken_mixing):
        with pytest.raises(StreamMismatchError):
            next(block_streams(1, 0, 3))

    def test_checks_each_key_width(self, monkeypatch):
        # a fault in the two-word keys alone shows at the 2^32 boundary
        pcg64_states = perturb._pcg64_states

        def two_word_keys_broken(master_seed, streams, width):
            states = pcg64_states(master_seed, streams, width)
            return [(st ^ 1, inc) for st, inc in states] if width == 2 else states

        monkeypatch.setattr(perturb, "_pcg64_states", two_word_keys_broken)
        streams = block_streams(1, 2 ** 32 - 2, 4)
        next(streams), next(streams)
        with pytest.raises(StreamMismatchError):
            next(streams)

    def test_run_experiment_raises(self, broken_mixing):
        cfg = ExperimentConfig(kind="matrix_tail", d=2, sigma_grid=(1.0,),
                               thresholds=(4.0,), trials=20, master_seed=3)
        with pytest.raises(StreamMismatchError):
            run_experiment(cfg)

    def test_cli_exits_1_with_one_line(self, broken_mixing, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert cli_main(["tail-matrix", "--d", "2", "--sigma", "1.0", "--threshold", "4",
                         "--trials", "20", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["shadow-size", "--n", "7", "--d", "3", "--sigma", "0.1", "--trials", "3"],
        ["simplex-pivots", "--n", "6", "--d", "2", "--sigma", "0.1", "--trials", "3"],
        ["tail-perceptron", "--n", "6", "--d", "2", "--sigma", "0.2", "--threshold", "2",
         "--trials", "3", "--center", "ones"],
        ["smoothed-profile", "--n", "4", "--d", "2", "--sigma", "0.0", "--trials", "3"],
    ], ids=lambda argv: argv[0])
    def test_loop_kinds_exit_1_with_one_line(self, broken_mixing, tmp_path, capsys, argv):
        out = tmp_path / "r.csv"
        assert cli_main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()


class TestOneStreamPath:
    # SeedSpec.rng() and block_streams are the only ways to a generator
    MAKERS = ("SeedSpec(", "default_rng(", "SeedSequence(", "Generator(")

    def test_only_perturb_makes_generators(self):
        src = pathlib.Path(perturb.__file__).parent
        modules = sorted(src.glob("*.py"))
        assert len(modules) > 5
        offenders = [f"{path.name}: {maker}" for path in modules if path.name != "perturb.py"
                     for maker in self.MAKERS if maker in path.read_text(encoding="utf-8")]
        assert offenders == []


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
        assert regime_notes(norm(centers, axis=1), 3, sigma) == []

    def test_notes_flag_large_norm_and_sigma(self):
        centers = 2.0 * np.ones((8, 3))
        notes = regime_notes(norm(centers, axis=1), 3, 1.0)
        assert len(notes) == 2

    @pytest.mark.parametrize("n, d", [(8, 3), (40, 5), (2, 1), (1, 3)])
    def test_note_decides_as_the_plain_square(self, n, d):
        limit = variance_regime_limit(n, d)
        edge = math.sqrt(limit) if math.isfinite(limit) else 1.0
        sigmas = [edge * (1 + k * 1e-13) for k in range(-30, 31)]
        sigmas += [0.0, 5e-324, 1e-320, 1e-160, 1e-60, 1.0, 1e150, 1.3e154]
        for sigma in sigmas:
            assert (variance_regime_note(n, d, sigma) is not None) == \
                (sigma ** 2 > limit * (1 + 1e-12)), sigma

    @pytest.mark.parametrize("sigma", [1.4e154, 1e200, 1e300, 1.7e308])
    def test_a_square_past_the_float_range_is_infinite(self, sigma):
        with pytest.raises(OverflowError):
            sigma ** 2
        assert variance_regime_note(8, 3, sigma) == (
            f"sigma^2 = inf exceeds the regime limit 1/(9 d log n) = "
            f"{variance_regime_limit(8, 3):.6g}")
        assert variance_regime_note(1, 3, sigma) is None   # the limit is infinite

    def test_notes_at_a_sigma_whose_square_overflows(self):
        assert regime_notes(norm(np.zeros((8, 3)), axis=1), 3, 1e200) == [
            "sigma^2 = inf exceeds the regime limit 1/(9 d log n) = 0.017811"]

    def test_gaussian_points_warns(self):
        with pytest.warns(RegimeWarning):
            gaussian_points(np.zeros((8, 3)), 1.0, SeedSpec(0))

    def test_gaussian_points_silent_in_regime(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RegimeWarning)
            gaussian_points(np.zeros((8, 3)), 0.1, SeedSpec(0))

    def test_ini_filter_makes_regime_warnings_errors(self):
        # pyproject.toml's error::samplers.RegimeWarning, whose module pytest
        # imports from the tests directory on its pythonpath
        with pytest.raises(RegimeWarning):
            warnings.warn("out of regime", RegimeWarning)


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

