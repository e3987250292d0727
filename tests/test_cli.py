import argparse
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import smoothlab
import smoothlab.cli
import smoothlab.reports
from smoothlab.cli import KIND_BY_COMMAND, build_parser, cli_main
from smoothlab.kinds import ExperimentConfig, aggregate_rows

CSV_HEADER = ("sigma,threshold,empirical,stderr,"
              "bound_edelman,bound_sst,bound_thm43,bound_conj1")
HELP_DIR = pathlib.Path(__file__).parent / "help"


def run(args):
    return cli_main(args)


@pytest.fixture
def no_trials(monkeypatch):
    """Fail the test if an experiment starts."""
    def fail(*args, **kwargs):
        raise AssertionError("the experiment ran")
    monkeypatch.setattr(smoothlab.cli, "run_experiment", fail)


def _python(args, cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE):
    """python args in a fresh interpreter, with this smoothlab."""
    src = os.path.dirname(os.path.dirname(smoothlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, stdout=stdout,
                          stderr=stderr, text=True, timeout=120)


def run_process(argv, cwd):
    """python -m smoothlab.cli argv in a fresh interpreter."""
    return _python(["-m", "smoothlab.cli", *argv], cwd)


def write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


class TestTailMatrix:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run(["tail-matrix", "--d", "2", "--sigma", "1.0",
                    "--threshold", "5", "10", "--trials", "50",
                    "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# schema=matrix_tail.v1"
        assert lines[1] == CSV_HEADER
        assert len(lines) == 4

    def test_missing_out_is_config_error(self):
        assert run(["tail-matrix", "--d", "2", "--sigma", "1.0",
                    "--threshold", "5", "--trials", "10"]) == 1

    def test_per_trial_requires_json(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run(["tail-matrix", "--d", "2", "--sigma", "1.0",
                    "--threshold", "5", "--trials", "10",
                    "--out", str(out), "--per-trial"]) == 1

    def test_bad_flag_is_config_error(self, tmp_path):
        assert run(["tail-matrix", "--nonsense"]) == 1

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_nonfinite_threshold_is_config_error(self, tmp_path, capsys, threshold):
        out = tmp_path / "r.csv"
        assert run(["tail-matrix", "--d", "2", "--sigma", "1.0", "--threshold", "5",
                    threshold, "--trials", "10", "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == "error: thresholds must be finite and positive\n"


# sigma ** 2 underflows to 0 at 1e-200 and overflows past 1.3e154, where it is
# infinite; sigma ** 6 underflows at 1e-60, making the shadow bound infinite.
# (command, sigma, exit code, report cells on exit 0 or the out-of-regime line)
SIGMA_RANGE_CASES = [
    ("tail-perceptron", "1e-200", 0, {"vacuous": "true"}),
    ("tail-perceptron", "1e200", 2, "bound requires sigma^2 < 1/(2d)"),
    ("shadow-size", "1e-60", 0, {"bound_expected_vertices": "inf"}),
    ("shadow-size", "1e-320", 0, {"bound_expected_vertices": "inf"}),
    ("shadow-size", "1e200", 2, "bound requires 0 < sigma^2 <= 1/(9 d log n)"),
    ("shadow-size", "1e300", 2, "bound requires 0 < sigma^2 <= 1/(9 d log n)"),
    ("submatrix-lemma", "1e200", 2, "submatrix lemma requires sigma^2 <= 1/(9 d log n)"),
    ("submatrix-lemma", "1e300", 2, "submatrix lemma requires sigma^2 <= 1/(9 d log n)"),
]

# sigma * t underflows to 0, so each bound takes its limit: inf, and the raw
# Blum-Dunagan value -inf (a vacuous row). (argv, report cells)
MATRIX_BOUNDS_INF = {"bound_edelman": "", "bound_sst": "inf", "bound_thm43": "inf",
                     "bound_conj1": "inf"}
UNDERFLOW_CASES = [
    (["tail-matrix", "--d", "2", "--sigma", "1e-200", "--threshold", "1e-200"],
     MATRIX_BOUNDS_INF),
    (["tail-matrix", "--d", "2", "--sigma", "1e-300", "--threshold", "1e-30"],
     MATRIX_BOUNDS_INF),
    (["tail-perceptron", "--n", "6", "--d", "2", "--sigma", "1e-200", "--threshold", "1e-200",
      "--center", "ones"], {"bound_blum_dunagan": "0.0", "bound_raw": "-inf", "vacuous": "true"}),
]


TAIL_MATRIX_FLAGS = ["tail-matrix", "--d", "2", "--threshold", "2", "--trials", "3"]
PROFILE_FLAGS = ["smoothed-profile", "--n", "6", "--d", "2", "--trials", "2"]
SHADOW_FLAGS = ["shadow-size", "--n", "6", "--d", "3", "--trials", "2", "--center", "box"]
# flags a run refuses before any trial, and the one error line for each
REFUSED_CONFIGS = [
    (TAIL_MATRIX_FLAGS + ["--sigma", "nan"], "sigma values must be finite and nonnegative"),
    (TAIL_MATRIX_FLAGS + ["--sigma", "inf"], "sigma values must be finite and nonnegative"),
    (PROFILE_FLAGS + ["--sigma", "nan"], "sigma values must be finite and nonnegative"),
    (PROFILE_FLAGS + ["--sigma", "0", "inf"], "sigma values must be finite and nonnegative"),
    (TAIL_MATRIX_FLAGS + ["--sigma", "1", "--seed", "-1"],
     "master_seed must be a 64-bit unsigned integer"),
    (TAIL_MATRIX_FLAGS + ["--sigma", "1", "--seed", str(2 ** 64)],
     "master_seed must be a 64-bit unsigned integer"),
    (SHADOW_FLAGS + ["--sigma", "0"], "sigma values must be positive"),
    (SHADOW_FLAGS + ["--sigma", "-1"], "sigma values must be positive"),
    (TAIL_MATRIX_FLAGS + ["--sigma", "1", "--trials", "0"], "trials must be at least 1"),
]


class TestExitCodes:
    def test_out_of_regime_is_2(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run(["shadow-size", "--n", "8", "--d", "2", "--sigma", "0.1",
                    "--trials", "2", "--center", "box", "--out", str(out)]) == 2

    @pytest.mark.parametrize("command, sigma, code, expected", SIGMA_RANGE_CASES,
                             ids=[f"{c}-{s}" for c, s, _, _ in SIGMA_RANGE_CASES])
    def test_sigma_squared_out_of_float_range(self, tmp_path, capsys, command, sigma, code,
                                              expected):
        out = tmp_path / "r.csv"
        flags = {"tail-perceptron": ["--n", "6", "--d", "2", "--threshold", "2",
                                     "--center", "ones"],
                 "shadow-size": ["--n", "6", "--d", "3", "--center", "box"],
                 "submatrix-lemma": ["--n", "6", "--d", "2", "--center", "box"]}[command]
        assert run([command, *flags, "--trials", "3", "--sigma", sigma,
                    "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err == f"out of regime: {expected}\n" and not out.exists()
        else:
            header, row = out.read_text().splitlines()[1:]   # after the schema line
            cells = dict(zip(header.split(","), row.split(",")))
            assert err == "" and {k: cells[k] for k in expected} == expected

    @pytest.mark.parametrize("argv, expected", UNDERFLOW_CASES,
                             ids=[" ".join(argv[:1] + argv[-6:]) for argv, _ in UNDERFLOW_CASES])
    def test_bound_at_an_underflowing_sigma_t_takes_its_limit(self, tmp_path, capsys, argv,
                                                              expected):
        out = tmp_path / "r.csv"
        assert run([*argv, "--trials", "3", "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()[1:]   # after the schema line
        cells = dict(zip(header.split(","), row.split(",")))
        assert capsys.readouterr().err == "" and {k: cells[k] for k in expected} == expected

    def test_size_limit_is_3(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run(["tail-rademacher", "--d", "5", "--threshold", "2",
                    "--exhaustive", "--out", str(out)]) == 3

    @pytest.mark.parametrize("argv, message", REFUSED_CONFIGS,
                             ids=[" ".join(argv[-2:]) for argv, _ in REFUSED_CONFIGS])
    def test_refused_config_is_one_line(self, tmp_path, capsys, argv, message):
        out = tmp_path / "r.csv"
        assert run([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert not out.exists()


# every experiment command taking --sigma, and how it ends at sigma 1e200 where
# it does not exit 0; at 1e-320 and 1e-60 every one exits 0.
SIGMA_COMMANDS = {
    "tail-matrix": ["tail-matrix", "--d", "2", "--threshold", "2", "--trials", "3"],
    "shadow-size": ["shadow-size", "--n", "6", "--d", "3", "--trials", "2", "--center", "box"],
    "simplex-pivots": ["simplex-pivots", "--n", "6", "--d", "2", "--trials", "2",
                       "--center", "box"],
    "tail-perceptron": ["tail-perceptron", "--n", "6", "--d", "2", "--threshold", "2",
                        "--trials", "3", "--center", "ones"],
    "submatrix-lemma": ["submatrix-lemma", "--n", "6", "--d", "2", "--trials", "3",
                        "--center", "box"],
    "simplex-profile": ["smoothed-profile", "--n", "6", "--d", "2", "--trials", "2",
                        "--measure", "simplex_pivots"],
    "perceptron-profile": ["smoothed-profile", "--n", "6", "--d", "2", "--trials", "2",
                           "--measure", "perceptron_iterations"],
}
AT_1E200 = {
    "shadow-size": (2, "out of regime: bound requires 0 < sigma^2 <= 1/(9 d log n)"),
    "tail-perceptron": (2, "out of regime: bound requires sigma^2 < 1/(2d)"),
    "submatrix-lemma": (2, "out of regime: submatrix lemma requires sigma^2 <= 1/(9 d log n)"),
}


class TestSigmaAtFloatExtremes:
    @pytest.mark.parametrize("sigma, command", [
        (sigma, command) for sigma in ("1e-320", "1e-60", "1e200") for command in SIGMA_COMMANDS])
    def test_one_line_or_clean_exit(self, tmp_path, capsys, command, sigma):
        code, line = AT_1E200.get(command, (0, None)) if sigma == "1e200" else (0, None)
        out = tmp_path / "r.csv"
        assert run([*SIGMA_COMMANDS[command], "--sigma", sigma, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err == ("" if code == 0 else f"{line}\n")
        assert out.exists() == (code == 0)

    # the zero center's vertices (size ~1/sigma) and every center's rows (size
    # ~sigma) have squares past the float range
    @pytest.mark.parametrize("center", ["zero", "box"])
    @pytest.mark.parametrize("sigma", ["1e-300", "1e-200", "1e-160", "1e160", "1e200"])
    def test_simplex_pivots_squares_do_not_overflow(self, tmp_path, capsys, sigma, center):
        out = tmp_path / "r.csv"
        assert run(["simplex-pivots", "--n", "6", "--d", "2", "--trials", "10", "--center", center,
                    "--seed", "0", "--sigma", sigma, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""


TAIL_MATRIX = ["tail-matrix", "--d", "2", "--sigma", "1.0", "--threshold", "5"]
TAIL_PERCEPTRON_ZERO = ["tail-perceptron", "--n", "40", "--d", "5", "--sigma", "0.2",
                        "--threshold", "2", "--trials", "20", "--center", "zero"]


class TestConfigFile:
    def test_file_plus_flag_override(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "# comment\nd = 2\nsigma = 1.0\nthreshold = 5, 10\n"
            "trials = 40\nseed = 3\n")
        out = tmp_path / "r.json"
        code = run(["tail-matrix", "--config", str(cfgfile), "--trials", "20",
                    "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["trials"] == 20          # flag wins
        assert doc["config"]["thresholds"] == [5.0, 10.0]

    def test_missing_config_file(self, tmp_path):
        assert run(["tail-matrix", "--config", str(tmp_path / "nope.cfg"),
                    "--out", str(tmp_path / "r.csv")]) == 1

    @pytest.mark.parametrize("content", [b"jobs = abc\n", b"sigma = 0.1 x\n", bytes(range(128, 192))])
    def test_unusable_config_file_is_one_line_error(self, tmp_path, capsys, content):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_bytes(content)
        assert run(["tail-matrix", "--config", str(cfgfile), "--d", "2", "--threshold", "5",
                    "--sigma", "1.0", "--out", str(tmp_path / "r.csv")]) == 1
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("argv, text, message", [
        (TAIL_MATRIX, "trails = 500\n", "unknown config key for tail-matrix: trails"),
        (TAIL_MATRIX, "rule = most_violated\n", "unknown config key for tail-matrix: rule"),
        (TAIL_MATRIX, "exhaustive = true\n",
         "unknown config key for tail-matrix: exhaustive"),
        (TAIL_MATRIX, "config = other.cfg\n", "unknown config key for tail-matrix: config"),
        (TAIL_MATRIX, "format = xml\n", "argument --format: invalid choice: 'xml'"),
        (TAIL_MATRIX, "format = json\nper_trial = maybe\n",
         "config key per_trial: expected true or false, not 'maybe'"),
        (TAIL_MATRIX, "trials 40\n", "malformed config line: 'trials 40'"),
        (TAIL_PERCEPTRON_ZERO, "rule = bogus\n", "argument --rule: invalid choice: 'bogus'"),
    ], ids=["misspelled", "rule-on-tail-matrix", "exhaustive-on-tail-matrix", "nested-config",
            "format-xml", "per-trial-maybe", "no-equals", "rule-bogus"])
    def test_bad_key_or_value_fails_before_trials(self, tmp_path, capsys, no_trials,
                                                  argv, text, message):
        out = tmp_path / "r.csv"
        assert run(argv + ["--config", write_config(tmp_path, text), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    PERCEPTRON = {"n": "10", "d": "3", "sigma": "0.2", "threshold": "2", "trials": "5",
                  "center": "ones"}

    @pytest.mark.parametrize("key, value, flags, expected", [
        ("sigma", "0.1, 0.2", ["--sigma", "0.15"], {"sigma_grid": [0.15]}),
        ("sigma", "0.1, 0.2", [], {"sigma_grid": [0.1, 0.2]}),
        ("trials", "4", ["--trials", "3"], {"trials": 3}),
        ("trials", "4", [], {"trials": 4}),
        ("rule", "most_violated", ["--rule", "lowest_index"], {"rule": "lowest_index"}),
        ("rule", "most_violated", [], {"rule": "most_violated"}),
    ])
    def test_flag_wins_over_file(self, tmp_path, key, value, flags, expected):
        text = "".join(f"{k} = {v}\n" for k, v in {**self.PERCEPTRON, key: value}.items())
        out = tmp_path / "r.json"
        assert run(["tail-perceptron", "--config", write_config(tmp_path, text),
                    "--format", "json", "--out", str(out)] + flags) == 0
        config = json.loads(out.read_text())["config"]
        assert {k: config[k] for k in expected} == expected

    @pytest.mark.parametrize("text, flags, is_json, has_records", [
        ("format = json\nper_trial = false\n", ["--per-trial"], True, True),
        ("format = json\nper-trial = yes\n", [], True, True),
        ("format = json\nper_trial = off\n", [], True, False),
        ("format = json\n", ["--format", "csv"], False, False),
        ("format = csv\n", ["--format", "json"], True, False),
    ], ids=["switch-flag-wins", "switch-from-file", "switch-off-in-file",
            "choice-flag-wins-csv", "choice-flag-wins-json"])
    def test_flag_wins_for_switch_and_choice(self, tmp_path, text, flags, is_json, has_records):
        out = tmp_path / "r.out"
        argv = TAIL_MATRIX + ["--trials", "10", "--out", str(out)]
        assert run(argv + ["--config", write_config(tmp_path, text)] + flags) == 0
        body = out.read_text()
        assert body.startswith("{") == is_json
        assert is_json or body.splitlines()[1] == CSV_HEADER
        assert ('"per_trial"' in body) == has_records

    def test_lists_split_on_commas_and_spaces(self, tmp_path):
        out = tmp_path / "r.json"
        text = "d = 2\nsigma = 0.5,1.0\nthreshold = 5, 10 20\nformat = json\n"
        assert run(["tail-matrix", "--config", write_config(tmp_path, text),
                    "--out", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        assert config["sigma_grid"] == [0.5, 1.0]
        assert config["thresholds"] == [5.0, 10.0, 20.0]

    def test_paths_with_spaces(self, tmp_path):
        folder = tmp_path / "a folder"
        folder.mkdir()
        center = folder / "center file.txt"
        center.write_text("2 2\n1 0\n0 1\n")
        out = folder / "my report.json"
        text = (f"d = 2\nsigma = 1.0\nthreshold = 5\ncenter = {center}\n"
                f"out = {out}\nformat = json\n")
        assert run(["tail-matrix", "--config", write_config(tmp_path, text)]) == 0
        assert json.loads(out.read_text())["config"]["center_source"] == str(center)

    def test_absent_options_take_the_dataclass_defaults(self, tmp_path, monkeypatch):
        seen = []

        def capture(cfg, jobs):
            seen.append(cfg)
            raise AssertionError("stop before the trials")
        # the defaults give no threshold, which the config check refuses
        monkeypatch.setattr(smoothlab.cli, "validate_config", lambda cfg: None)
        monkeypatch.setattr(smoothlab.cli, "run_experiment", capture)
        out = tmp_path / "r.csv"
        with pytest.raises(AssertionError, match="stop before the trials"):
            run(["tail-perceptron", "--out", str(out)])
        assert seen == [ExperimentConfig(kind="perceptron_tail")]


def subparser(command):
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return subs.choices[command]


class TestOptionDeclarations:
    RUN_OPTIONS = {"format", "per_trial", "jobs", "config"}

    @pytest.mark.parametrize("command", list(KIND_BY_COMMAND))
    def test_every_dest_is_a_config_field_or_run_option(self, command):
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        dests = {a.dest for a in subparser(command)._actions if a.dest != "help"}
        assert dests - fields <= self.RUN_OPTIONS | {"output_path"}
        # absent experiment flags stay out of the namespace
        args = build_parser().parse_args([command])
        assert set(vars(args)) == {"command"} | self.RUN_OPTIONS

    @pytest.mark.parametrize("command", list(KIND_BY_COMMAND))
    def test_help_text_unchanged(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == (HELP_DIR / f"{command}.txt").read_text()


# flags whose value the command's experiment never reads
DROPPED_FLAGS = [
    ("tail-matrix", "--n", "4"),
    ("tail-rademacher", "--n", "4"),
    ("tail-rademacher", "--sigma", "0.5"),
    ("tail-rademacher", "--center", "ones"),
    ("shadow-size", "--threshold", "2"),
    ("simplex-pivots", "--threshold", "2"),
    ("submatrix-lemma", "--threshold", "2"),
    ("smoothed-profile", "--threshold", "2"),
]


class TestDroppedFlags:
    @pytest.mark.parametrize("command, flag, value", DROPPED_FLAGS)
    def test_flag_is_rejected(self, tmp_path, capsys, no_trials, command, flag, value):
        out = tmp_path / "r.csv"
        assert run([command, flag, value, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: unrecognized arguments: {flag} {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", DROPPED_FLAGS)
    def test_config_key_is_rejected(self, tmp_path, capsys, no_trials, command, flag, value):
        out = tmp_path / "r.csv"
        text = f"{flag[2:]} = {value}\n"
        assert run([command, "--config", write_config(tmp_path, text), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: unknown config key for {command}: {flag[2:]}\n"
        assert not out.exists()


def test_import_leaves_the_process_pool_unloaded(tmp_path):
    # only a run with --jobs > 1 and several blocks loads concurrent.futures
    done = _python(["-c", "import smoothlab.cli, sys; "
                    "print('concurrent.futures' in sys.modules)"], tmp_path)
    assert (done.returncode, done.stdout) == (0, "False\n")


def test_replaced_run_experiment_intercepts_a_run(tmp_path, monkeypatch):
    # cli.run_experiment loads the run side on first use; a stand-in put in
    # its place runs instead, as bench/probe.py and bench/inproc.py rely on
    seen = []

    def fake(cfg, jobs=1):
        seen.append((cfg.kind, cfg.trials, jobs))
        return smoothlab.reports.Report(schema="x.v1", config={}, columns=["a"],
                                        rows=[{"a": 1}])
    monkeypatch.setattr(smoothlab.cli, "run_experiment", fake)
    out = tmp_path / "r.csv"
    assert run(["tail-matrix", "--d", "2", "--sigma", "1", "--threshold", "5",
                "--trials", "9", "--jobs", "3", "--out", str(out)]) == 0
    assert seen == [("matrix_tail", 9, 3)]
    assert out.read_text() == "# schema=x.v1\na\n1\n"


# python -c NO_NUMPY ARGV runs python -m smoothlab.cli ARGV where numpy cannot be imported
NO_NUMPY = ("import runpy, sys; sys.modules['numpy'] = None; "
            "runpy.run_module('smoothlab.cli', run_name='__main__', alter_sys=True)")


BASES_REFUSED = "size limit: C(60,20) = 4191844505805495 exceeds the budget 1000000"

# runs refused for their flags or config, each with its exit code and one line
REFUSED_WITHOUT_NUMPY = [
    (TAIL_MATRIX_FLAGS + ["--sigma", "1", "--trials", "0"], 1,
     "error: trials must be at least 1"),
    (TAIL_MATRIX_FLAGS + ["--sigma", "1", "--jobs", "0"], 1, "error: jobs must be at least 1"),
    (TAIL_MATRIX_FLAGS + ["--sigma", "1", "--center", "box"], 1,
     "error: tail-matrix takes --center zero, ones or a FILE, not box"),
    (["shadow-size", "--n", "8", "--d", "2", "--sigma", "0.1", "--trials", "2"], 2,
     "out of regime: bound requires d >= 3 and n > d"),
    (["tail-perceptron", "--n", "6", "--d", "2", "--threshold", "2", "--sigma", "0.9"], 2,
     "out of regime: bound requires sigma^2 < 1/(2d)"),
    (["tail-rademacher", "--d", "5", "--threshold", "2", "--exhaustive"], 3,
     "size limit: exhaustive enumeration limited to d*d <= 20"),
    (["submatrix-lemma", "--n", "40", "--d", "5", "--sigma", "0.1"], 3,
     "size limit: C(40,5) exceeds the submatrix budget 100000"),
    # out of both the budget and the regime: the budget is checked first
    (["submatrix-lemma", "--n", "40", "--d", "5", "--sigma", "0.9"], 3,
     "size limit: C(40,5) exceeds the submatrix budget 100000"),
    # the LP kinds' basis budget, before any pool starts
    (["simplex-pivots", "--n", "60", "--d", "20", "--sigma", "0.1", "--trials", "40",
      "--jobs", "2", "--center", "box"], 3, BASES_REFUSED),
    (["shadow-size", "--n", "60", "--d", "20", "--sigma", "0.1", "--center", "box"], 3,
     BASES_REFUSED),
    (["smoothed-profile", "--n", "60", "--d", "20", "--sigma", "0.1", "--center", "ones"], 3,
     BASES_REFUSED),
]


class TestWithoutNumpy:
    """verify-report, --help and a command refused for its flags or config
    answer without numpy."""

    def test_verify_report(self, tmp_path):
        out = tmp_path / "r.json"
        assert run([*REPLAYED["tail-matrix"], "--format", "json", "--per-trial",
                    "--out", str(out)]) == 0
        done = _python(["-c", NO_NUMPY, "verify-report", str(out)], tmp_path)
        assert (done.returncode, done.stdout, done.stderr) == (0, "replay ok\n", "")

    @pytest.mark.parametrize("argv", [["--help"], ["tail-perceptron", "--help"]])
    def test_help(self, tmp_path, argv):
        done = _python(["-c", NO_NUMPY, *argv], tmp_path)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("usage: smoothlab")

    def test_bad_flag(self, tmp_path):
        done = _python(["-c", NO_NUMPY, "tail-matrix", "--d", "2", "--bogus"], tmp_path)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "error: unrecognized arguments: --bogus\n"

    @pytest.mark.parametrize("argv, code, message", REFUSED_WITHOUT_NUMPY,
                             ids=[" ".join(argv[:1] + argv[-2:])
                                  for argv, _, _ in REFUSED_WITHOUT_NUMPY])
    def test_refused_run(self, tmp_path, argv, code, message):
        done = _python(["-c", NO_NUMPY, *argv, "--out", "r.csv"], tmp_path)
        assert (done.returncode, done.stdout, done.stderr) == (code, "", message + "\n")
        assert not (tmp_path / "r.csv").exists()

    def test_a_run_needs_numpy(self, tmp_path):   # the stand-in does block numpy
        done = _python(["-c", NO_NUMPY, *REPLAYED["tail-matrix"], "--out", "r.csv"], tmp_path)
        assert done.returncode == 1 and "numpy" in done.stderr


@pytest.mark.parametrize("argv, kernels", [
    (["tail-matrix", "--d", "2", "--sigma", "1", "--threshold", "5", "--trials", "3"], []),
    (["tail-rademacher", "--d", "2", "--threshold", "2", "--exhaustive"], []),
    (["submatrix-lemma", "--n", "6", "--d", "3", "--sigma", "0.1", "--trials", "2",
      "--center", "box"], ["polytope"]),
    (["tail-perceptron", "--n", "6", "--d", "2", "--sigma", "0.1", "--threshold", "2",
      "--trials", "2", "--center", "ones"], ["perceptron"]),
    (["smoothed-profile", "--n", "6", "--d", "2", "--sigma", "0.1", "--trials", "2"],
     ["polytope", "simplex"]),
], ids=["tail-matrix", "tail-rademacher", "submatrix-lemma", "tail-perceptron",
        "smoothed-profile"])
def test_a_run_loads_only_its_kernels(tmp_path, argv, kernels):
    code = ("import sys; from smoothlab.cli import cli_main; "
            f"rc = cli_main({argv + ['--out', 'r.csv']!r}); "
            "print(rc, [m for m in ('polytope', 'simplex', 'perceptron') "
            "if 'smoothlab.' + m in sys.modules])")
    done = _python(["-c", code], tmp_path)
    assert (done.stdout, done.stderr) == (f"0 {kernels}\n", "")


class TestProcessExit:
    """python -m smoothlab.cli ends without the interpreter's teardown, after flushing
    what it printed, whether its output goes to pipes or to files."""

    @pytest.fixture(autouse=True)
    def buffered(self, monkeypatch):   # stdout then reaches a pipe or file only if flushed
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)

    @staticmethod
    def run_to(tmp_path, argv, dest):
        if dest == "pipe":
            done = run_process(argv, tmp_path)
            return done.returncode, done.stdout, done.stderr
        with open(tmp_path / "out.txt", "w") as out, open(tmp_path / "err.txt", "w") as err:
            done = _python(["-m", "smoothlab.cli", *argv], tmp_path, stdout=out, stderr=err)
        return (done.returncode, (tmp_path / "out.txt").read_text(),
                (tmp_path / "err.txt").read_text())

    @pytest.mark.parametrize("dest", ["pipe", "file"])
    def test_verify_report(self, tmp_path, dest):
        out = tmp_path / "r.json"
        assert run([*REPLAYED["tail-matrix"], "--format", "json", "--per-trial",
                    "--out", str(out)]) == 0
        assert self.run_to(tmp_path, ["verify-report", str(out)], dest) == \
            (0, "replay ok\n", "")

    @pytest.mark.parametrize("dest", ["pipe", "file"])
    @pytest.mark.parametrize("argv, code, message", [
        (TAIL_MATRIX_FLAGS + ["--sigma", "1", "--trials", "0"], 1,
         "error: trials must be at least 1"),
        (["shadow-size", "--n", "8", "--d", "2", "--sigma", "0.1", "--trials", "2"], 2,
         "out of regime: bound requires d >= 3 and n > d"),
        (["simplex-pivots", "--n", "60", "--d", "20", "--sigma", "0.1", "--center", "box"], 3,
         BASES_REFUSED),
    ], ids=["exit-1", "exit-2", "exit-3"])
    def test_refusal(self, tmp_path, dest, argv, code, message):
        assert self.run_to(tmp_path, argv + ["--out", "r.csv"], dest) == \
            (code, "", message + "\n")
        assert not (tmp_path / "r.csv").exists()


class TestModuleEntryPoint:
    """python -m smoothlab.cli reads its flags, and the config file, from sys.argv."""

    def run_module(self, tmp_path, text):
        return run_process(["tail-matrix", "--config", write_config(tmp_path, text),
                            "--seed", "3"], tmp_path)

    def test_config_run(self, tmp_path):
        done = self.run_module(
            tmp_path, "d = 2\nsigma = 1.0\nthreshold = 5, 10\ntrials = 50\nout = r.csv\n")
        assert (done.returncode, done.stderr) == (0, "")
        expected = tmp_path / "expected.csv"
        assert run(["tail-matrix", "--d", "2", "--sigma", "1.0", "--threshold", "5", "10",
                    "--trials", "50", "--seed", "3", "--out", str(expected)]) == 0
        assert (tmp_path / "r.csv").read_bytes() == expected.read_bytes()

    def test_unknown_key(self, tmp_path):
        done = self.run_module(
            tmp_path, "d = 2\nsigma = 1.0\nthreshold = 5\ntrails = 500\nout = r.csv\n")
        assert done.returncode == 1
        assert done.stderr == "error: unknown config key for tail-matrix: trails\n"
        assert not (tmp_path / "r.csv").exists()


class TestFixtureCommands:
    def test_solve_lp(self, tmp_path, capsys):
        lp = tmp_path / "box.lp"
        lp.write_text("4 2\n1 0 1\n0 1 1\n-1 0 1\n0 -1 1\n1 1\n")
        assert run(["solve-lp", str(lp)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "optimal"
        assert doc["value"] == pytest.approx(2.0)
        assert doc["x"] == pytest.approx([1.0, 1.0])

    @pytest.mark.parametrize("text, status", [
        ("2 1\n1 -1\n-1 -2\n1\n", "infeasible"),
        ("1 2\n1 0 1\n0 1\n", "unbounded"),
        ("1 2\n1 0 1\n1 0\n", "phase1_failed"),
    ], ids=["infeasible", "unbounded-without-vertices", "no-vertex-no-ray"])
    def test_solve_lp_without_a_start_vertex(self, tmp_path, capsys, text, status):
        lp = tmp_path / "model.lp"
        lp.write_text(text)
        assert run(["solve-lp", str(lp)]) == 0
        assert capsys.readouterr().out == (
            '{"lambda_breakpoints": [], "pivot_count": 0, '
            f'"status": "{status}", "visited_tight_sets": []}}\n')

    def test_solve_lp_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.lp"
        bad.write_text("not an lp\n")
        assert run(["solve-lp", str(bad)]) == 1

    @pytest.mark.parametrize("command", ["solve-lp", "run-perceptron"])
    def test_undecodable_file_is_one_line_error(self, tmp_path, capsys, command):
        bad = tmp_path / "fixture"
        bad.write_bytes(bytes(range(128, 192)))   # no valid UTF-8 start byte
        assert run([command, str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and err.count("\n") == 1

    def test_run_perceptron(self, tmp_path, capsys):
        inst = tmp_path / "p.inst"
        inst.write_text("2 2\n1 0\n0 1\n")
        assert run(["run-perceptron", str(inst), "--cap", "10"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "solved"
        assert doc["margin"] == pytest.approx(1 / math.sqrt(2))
        assert doc["iterations"] <= 2

    def test_run_perceptron_infeasible_runs_to_the_default_cap(self, tmp_path, capsys):
        inst = tmp_path / "p.inst"
        inst.write_text("2 2\n1 0\n-1 0\n")
        assert run(["run-perceptron", str(inst)]) == 0
        assert capsys.readouterr().out == ('{"final_x": null, "iterations": 100000, '
                                           '"margin": 0.0, "status": "iteration_cap_reached"}\n')

    @pytest.mark.filterwarnings("error")
    def test_run_perceptron_rows_whose_squares_underflow(self, tmp_path, capsys):
        inst = tmp_path / "p.inst"
        inst.write_text("2 2\n1e-160 1e-160\n2.18e-296 0\n")
        assert run(["run-perceptron", str(inst), "--cap", "10"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "solved" and doc["margin"] > 0.3

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["1 1\n1e308\n", "2 2\n1e300 1e300\n1 0\n"])
    def test_run_perceptron_rows_whose_squares_overflow(self, tmp_path, capsys, text):
        inst = tmp_path / "p.inst"
        inst.write_text(text)
        assert run(["run-perceptron", str(inst), "--cap", "10"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["status"] == "solved" and captured.err == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, message", [
        ("0 2\n", "malformed instance file: n and d must be at least 1 (header 0 2)"),
        ("2 0\n", "malformed instance file: n and d must be at least 1 (header 2 0)"),
        ("1 2\n1.5e308 1.5e308\n", "every point's norm must be finite"),
        ("2 2\n1 nan\n1 1\n", "points must be a finite n x d array"),
        ("2 2\n1 1\n-inf 1\n", "points must be a finite n x d array"),
    ])
    def test_run_perceptron_bad_instance(self, tmp_path, capsys, text, message):
        inst = tmp_path / "p.inst"
        inst.write_text(text)
        assert run(["run-perceptron", str(inst)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["0 2\n1 1\n", "-1 2\n1 1\n", "2 0\n1\n1\n"])
    @pytest.mark.parametrize("command", ["solve-lp {lp}"])
    def test_bad_lp_header(self, tmp_path, capsys, command, text):
        lp = tmp_path / "bad.lp"
        lp.write_text(text)
        assert run(command.format(lp=lp).split()) == 1
        captured = capsys.readouterr()
        header = " ".join(text.split()[:2])
        assert captured.err == ("error: malformed LP file: n and d must be at least 1 "
                                f"(header {header})\n") and captured.out == ""

    def test_solve_lp_huge_row_without_vertices(self, tmp_path, capsys):
        # one row, two variables: no basis, so feasibility and rays decide alone
        lp = tmp_path / "huge.lp"
        lp.write_text("1 2\n1e308 1e308 1\n1 1\n")
        assert run(["solve-lp", str(lp)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"lambda_breakpoints": [], "pivot_count": 0,
                                            "status": "phase1_failed",
                                            "visited_tight_sets": []}
        assert captured.err == ""

    @pytest.mark.filterwarnings("error")
    def test_solve_lp_row_norm_past_float_range(self, tmp_path, capsys):
        lp = tmp_path / "overflow.lp"
        lp.write_text("1 2\n1.5e308 1.5e308 1\n1 1\n")
        assert run(["solve-lp", str(lp)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: constraint row norms must be finite\n"
        assert captured.out == ""

    def test_solve_lp_badly_scaled_rows(self, tmp_path, capsys):
        # one vertex, (1e-10, 1000): the rows' scales differ by 1e13
        lp = tmp_path / "scaled.lp"
        lp.write_text("2 2\n1e10 0 1\n0 1e-3 1\n0 1\n")
        assert run(["solve-lp", str(lp)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "optimal"
        assert doc["x"] == pytest.approx([1e-10, 1000.0], rel=1e-12)
        assert doc["value"] == pytest.approx(1000.0, rel=1e-12)

    def test_shadow_size_keeps_stderr_clean(self, tmp_path):
        # at sigma 1e-9 the box center's repeated rows give coincident vertices
        done = run_process(["shadow-size", "--n", "8", "--d", "3", "--sigma", "1e-9",
                            "--trials", "3", "--center", "box", "--out", "r.csv"], tmp_path)
        assert (done.returncode, done.stderr) == (0, "")
        assert (tmp_path / "r.csv").exists()


REPLAYED = {
    "tail-matrix": ["tail-matrix", "--d", "2", "--sigma", "1.0", "--threshold", "5",
                    "--trials", "5"],
    "tail-rademacher": ["tail-rademacher", "--d", "2", "--threshold", "2", "--exhaustive"],
    "submatrix-lemma": ["submatrix-lemma", "--n", "6", "--d", "3", "--sigma", "0.1",
                        "--trials", "5", "--center", "box"],
    "smoothed-profile": ["smoothed-profile", "--n", "6", "--d", "2", "--sigma", "0",
                         "--trials", "3"],
    "tail-matrix-grid": ["tail-matrix", "--d", "2", "--sigma", "0.5", "1.0", "--threshold",
                         "5", "--trials", "5"],
}
# (command, key path into its report, the value put there, the message of its replay)
MALFORMED_REPORTS = [
    ("tail-rademacher", ("per_trial",), [], "list index out of range"),
    ("submatrix-lemma", ("per_trial", 0, "sums"), [], "division by zero"),
    ("smoothed-profile", ("per_trial", 0, "records"), [], "division by zero"),
    ("submatrix-lemma", ("config", "n"), 0, "n must be at least 1"),
    ("tail-rademacher", ("config", "thresholds"), [0], "thresholds must be finite and positive"),
    ("tail-rademacher", ("config", "trials"), "abc", "trials must be of type int, not str"),
    ("submatrix-lemma", ("config", "trials"), 2.5, "trials must be of type int, not float"),
    ("smoothed-profile", ("config", "trials"), True, "trials must be of type int, not bool"),
    ("submatrix-lemma", ("config", "d"), "3", "d must be of type int, not str"),
    ("smoothed-profile", ("config", "measure"), "bogus", "unknown profile measure: bogus"),
    ("tail-rademacher", ("config", "thresholds"), "2", "thresholds must be a list of numbers"),
    ("submatrix-lemma", ("config", "sigma_grid"), {"0.1": 0},
     "sigma_grid must be a list of numbers"),
    ("submatrix-lemma", ("config", "sigma_grid"), [True], "sigma_grid must be a list of numbers"),
    # labels that contradict the records, checked after the config and the rows
    ("tail-matrix", ("schema",), "shadow_size.v9",
     "schema is 'shadow_size.v9', not 'matrix_tail.v1'"),
    ("submatrix-lemma", ("schema",), "matrix_tail.v1",
     "schema is 'matrix_tail.v1', not 'submatrix_lemma.v1'"),
    ("tail-matrix", ("columns",), ["bogus"],
     f"columns are ['bogus'], not {CSV_HEADER.split(',')!r}"),
    ("tail-matrix", ("config", "trials"), 7, "per-trial group 0 holds 5 records, not 7"),
    ("submatrix-lemma", ("per_trial", 0, "sums"), [1, 1, 1],
     "per-trial group 0 holds 3 records, not 5"),
    ("tail-rademacher", ("per_trial", 0, "values"), [2.0, 3.0],
     "per-trial group 0 holds 2 records, not 16"),
    ("tail-rademacher", ("config", "exhaustive"), False,
     "per-trial group 0 holds 16 records, not 1"),
]


# (the run's argv, how its per-trial groups are regrouped, the message of its replay);
# each report's rows are recomputed from the regrouped records, so only the
# group headers and sizes can tell
REGROUPED_REPORTS = [
    (REPLAYED["tail-matrix-grid"], lambda groups: groups[:1],
     "report holds 1 per-trial groups, not 2"),
    (REPLAYED["tail-matrix-grid"], lambda groups: [groups[0], {**groups[1], "sigma": 0.7}],
     "per-trial group 1 is {'sigma': 0.7}, not {'sigma': 1.0}"),
    (REPLAYED["tail-matrix-grid"], lambda groups: groups + groups[1:],
     "report holds 3 per-trial groups, not 2"),
    (REPLAYED["smoothed-profile"], lambda groups: [{**groups[0], "center_id": "zero"},
                                                   *groups[1:]],
     "per-trial group 0 is {'center_id': 'zero', 'sigma': 0.0}, "
     "not {'sigma': 0.0, 'center_id': 'box'}"),
]


def malformed_ids(rows) -> list:
    """command-key.path per row, with =value added where that repeats an earlier id."""
    ids = []
    for command, path, value, _ in rows:
        name = f"{command}-{'.'.join(map(str, path))}"
        ids.append(f"{name}={value!r}" if name in ids else name)
    return ids


class TestVerifyReport:
    def make_report(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["tail-matrix", "--d", "2", "--sigma", "1.0",
                    "--threshold", "5", "--trials", "30", "--seed", "1",
                    "--format", "json", "--per-trial", "--out", str(out)])
        assert code == 0
        return out

    def test_ok(self, tmp_path, capsys):
        out = self.make_report(tmp_path)
        assert run(["verify-report", str(out)]) == 0
        assert "replay ok" in capsys.readouterr().out

    def test_tampered(self, tmp_path):
        out = self.make_report(tmp_path)
        doc = json.loads(out.read_text())
        doc["rows"][0]["empirical"] = 0.42
        out.write_text(json.dumps(doc))
        assert run(["verify-report", str(out)]) == 1

    def test_without_per_trial(self, tmp_path):
        out = tmp_path / "r.json"
        run(["tail-matrix", "--d", "2", "--sigma", "1.0", "--threshold", "5",
             "--trials", "30", "--seed", "1", "--format", "json",
             "--out", str(out)])
        assert run(["verify-report", str(out)]) == 1

    def test_not_json_is_one_line_error(self, tmp_path, capsys):
        bad = tmp_path / "r.json"
        bad.write_text("tail-matrix,not,json\n")
        assert run(["verify-report", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} is not a JSON report: ") and err.count("\n") == 1

    def test_json_array_is_one_line_error(self, tmp_path, capsys):
        bad = tmp_path / "r.json"
        bad.write_text("[1, 2]\n")
        assert run(["verify-report", str(bad)]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad} is not a JSON report: top level is not an object\n")

    @pytest.mark.parametrize("fault", ["missing", "directory", "undecodable", "too_deep"])
    def test_unreadable_file_is_one_line_error(self, tmp_path, capsys, fault):
        bad = tmp_path / "r.json"
        start = "error: cannot read report: "
        if fault == "directory":
            bad.mkdir()
        elif fault == "undecodable":
            bad.write_bytes(bytes(range(128, 192)))   # no valid UTF-8 start byte
        elif fault == "too_deep":   # nesting past the JSON decoder's recursion limit
            bad.write_text("[" * 100_000)
            start = f"error: {bad} is not a JSON report: "
        assert run(["verify-report", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(start) and err.count("\n") == 1

    @pytest.mark.parametrize("command, path, value, message", MALFORMED_REPORTS,
                             ids=malformed_ids(MALFORMED_REPORTS))
    def test_malformed_report_is_one_line_error(self, tmp_path, capsys, command, path, value,
                                                message):
        out = tmp_path / "r.json"
        assert run([*REPLAYED[command], "--format", "json", "--per-trial",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify-report", str(out)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: malformed report: {message}\n")

    @staticmethod
    def replayed(tmp_path, capsys, argv, change):
        """verify-report's exit code and output on argv's report, with the report
        changed in place by change and its rows recomputed from its records."""
        out = tmp_path / "r.json"
        assert run([*argv, "--format", "json", "--per-trial", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        change(doc)
        doc["rows"] = aggregate_rows(ExperimentConfig(**doc["config"]), doc["per_trial"])
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run(["verify-report", str(out)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("argv, regroup, message", REGROUPED_REPORTS,
                             ids=["dropped", "relabelled", "extra", "center_id"])
    def test_regrouped_report_is_one_line_error(self, tmp_path, capsys, argv, regroup,
                                                message):
        def change(doc):
            doc["per_trial"] = regroup(doc["per_trial"])
        assert self.replayed(tmp_path, capsys, argv, change) == (
            1, "", f"error: malformed report: {message}\n")

    def test_out_of_regime_config_ends_as_its_run(self, tmp_path, capsys):
        def change(doc):   # sigma 0.9 in the config and in the records' header
            doc["config"]["sigma_grid"] = [0.9]
            doc["per_trial"][0]["sigma"] = 0.9
        assert self.replayed(tmp_path, capsys, REPLAYED["submatrix-lemma"], change) == (
            2, "", "out of regime: submatrix lemma requires sigma^2 <= 1/(9 d log n)\n")

    def test_report_without_schema_is_one_line_error(self, tmp_path, capsys):
        out = self.make_report(tmp_path)
        doc = json.loads(out.read_text())
        del doc["schema"]
        out.write_text(json.dumps(doc))
        assert run(["verify-report", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: malformed report: schema is None, not 'matrix_tail.v1'\n")

    def test_block_without_values_is_one_line_error(self, tmp_path, capsys):
        out = self.make_report(tmp_path)
        doc = json.loads(out.read_text())
        del doc["per_trial"][0]["values"]
        out.write_text(json.dumps(doc))
        assert run(["verify-report", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: malformed report: missing or unknown key 'values'\n")


# every command taking --center, at n = 8 and d = 3 where it takes them
CENTER_COMMANDS = {
    "tail-matrix": ["tail-matrix", "--d", "3", "--sigma", "0.1", "--threshold", "5",
                    "--trials", "2"],
    "shadow-size": ["shadow-size", "--n", "8", "--d", "3", "--sigma", "0.1", "--trials", "2"],
    "simplex-pivots": ["simplex-pivots", "--n", "8", "--d", "3", "--sigma", "0.1",
                       "--trials", "2"],
    "tail-perceptron": ["tail-perceptron", "--n", "8", "--d", "3", "--sigma", "0.1",
                        "--threshold", "2", "--trials", "2"],
    "submatrix-lemma": ["submatrix-lemma", "--n", "8", "--d", "3", "--sigma", "0.1",
                        "--trials", "2"],
    "simplex-profile": ["smoothed-profile", "--measure", "simplex_pivots", "--d", "3",
                        "--sigma", "0", "0.1", "--trials", "2"],
    "perceptron-profile": ["smoothed-profile", "--measure", "perceptron_iterations",
                           "--d", "3", "--sigma", "0", "0.1", "--trials", "2"],
}
# the box rows of n = 8, d = 3 with the last one zero, as --center zero has
ZERO_ROW_CENTERS = "8 3\n1 0 0\n0 1 0\n0 0 1\n-1 0 0\n0 -1 0\n0 0 -1\n1 0 0\n0 0 0\n"
# how the pivot walk ends on a center row of norm 1.4e300: its start check
# takes an absolute residual of 1e-7, whatever the rows' scale
HUGE_ROW_RUNS = {command: (1, "error: tight constraints are not tight at the start point\n")
                 for command in ("simplex-pivots", "simplex-profile")}


class TestCenterFile:
    def test_matrix_center_file_of_text(self, tmp_path, capsys):
        center = tmp_path / "c.txt"
        center.write_text("a b\nc d\n")
        assert run(["tail-matrix", "--d", "2", "--sigma", "1.0", "--threshold", "5",
                    "--center", str(center), "--out", str(tmp_path / "r.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read center file: ") and err.count("\n") == 1

    @pytest.mark.parametrize("center", ["box", "stretched"])
    def test_matrix_point_centers_are_refused(self, tmp_path, capsys, center):
        out = tmp_path / "r.csv"
        assert run([*CENTER_COMMANDS["tail-matrix"], "--center", center, "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: tail-matrix takes --center zero, ones or a FILE, not {center}\n"
        assert not out.exists()

    def test_matrix_center_file_not_finite(self, tmp_path, capsys):
        center = tmp_path / "c.txt"
        center.write_text("2 2\n1 nan\n0 1\n")
        assert run(["tail-matrix", "--d", "2", "--sigma", "1.0", "--threshold", "5",
                    "--center", str(center), "--out", str(tmp_path / "r.csv")]) == 1
        assert capsys.readouterr().err == "error: center file entries must be finite\n"

    @pytest.mark.parametrize("measure", ["simplex_pivots", "perceptron_iterations"])
    def test_profile_missing_center_file(self, tmp_path, capsys, measure):
        assert run(["smoothed-profile", "--n", "6", "--d", "2", "--sigma", "0.1",
                    "--measure", measure, "--center", str(tmp_path / "nope.txt"),
                    "--out", str(tmp_path / "r.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read center file: ") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["0 2\n1 1\n", "-1 2\n1 1\n", "2 0\n1\n1\n"])
    @pytest.mark.parametrize("command", CENTER_COMMANDS)
    def test_bad_header(self, tmp_path, capsys, command, text):
        center = tmp_path / "bad.inst"
        center.write_text(text)
        out = tmp_path / "r.csv"
        assert run([*CENTER_COMMANDS[command], "--center", str(center), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        header = " ".join(text.split()[:2])
        assert captured.err == ("error: cannot read center file: malformed instance file: "
                                f"n and d must be at least 1 (header {header})\n")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command, text", [
        ("tail-matrix", "1 0 0\n0 1 0\n0 0 1\n"),   # headerless matrix
        ("simplex-profile", "8 3\n" + "1 0 0 1\n" * 8 + "1 1 1\n"),   # LP format
        ("perceptron-profile", "8 3\n" + "1 0 0 1\n" * 8 + "1 1 1\n"),
    ], ids=["tail-matrix-headerless", "simplex-profile-lp", "perceptron-profile-lp"])
    def test_other_formats_are_refused(self, tmp_path, capsys, command, text):
        center = tmp_path / "c.txt"
        center.write_text(text)
        assert run([*CENTER_COMMANDS[command], "--center", str(center),
                    "--out", str(tmp_path / "r.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read center file: malformed instance file: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", list(CENTER_COMMANDS)[1:])
    def test_zero_row_file_runs(self, tmp_path, capsys, command):
        center = tmp_path / "c.inst"
        center.write_text(ZERO_ROW_CENTERS)
        assert run([*CENTER_COMMANDS[command], "--center", str(center),
                    "--out", str(tmp_path / "r.csv")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", CENTER_COMMANDS)
    def test_row_norm_past_float_range(self, tmp_path, capsys, command):
        center = tmp_path / "c.inst"
        for row, code, err in [
                ("1e300 1e300 0", *HUGE_ROW_RUNS.get(command, (0, ""))),   # norm 1.4e300
                ("1.5e308 1.5e308 0", 1, "error: every point's norm must be finite\n")]:
            center.write_text(f"3 3\n{row}\n0 1 0\n0 0 1\n" if command == "tail-matrix"
                              else ZERO_ROW_CENTERS.replace("1 0 0\n", f"{row}\n", 1))
            assert run([*CENTER_COMMANDS[command], "--center", str(center),
                        "--out", str(tmp_path / "r.csv")]) == code
            assert capsys.readouterr().err == err

    @pytest.mark.parametrize("measure", ["simplex_pivots", "perceptron_iterations"])
    def test_profile_file_of_another_d(self, tmp_path, capsys, measure):
        center = tmp_path / "c.inst"
        center.write_text(ZERO_ROW_CENTERS)
        assert run(["smoothed-profile", "--measure", measure, "--d", "2", "--sigma", "0.1",
                    "--center", str(center), "--out", str(tmp_path / "r.csv")]) == 1
        assert capsys.readouterr().err == "error: center file has shape (8, 3), expected (8, 2)\n"


class TestBadCounts:
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one(self, tmp_path, capsys, jobs):
        out = tmp_path / "r.csv"
        assert run(["tail-matrix", "--d", "2", "--sigma", "1.0", "--threshold", "5",
                    "--trials", "10", "--jobs", jobs, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: jobs must be at least 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("measure", ["simplex_pivots", "perceptron_iterations"])
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_profile_n_below_one(self, tmp_path, capsys, measure, n):
        assert run(["smoothed-profile", "--n", n, "--d", "2", "--sigma", "0.1",
                    "--measure", measure, "--out", str(tmp_path / "r.csv")]) == 1
        assert capsys.readouterr().err == "error: n must be at least 1\n"

    def test_exhaustive_d_below_one(self, tmp_path, capsys):
        assert run(["tail-rademacher", "--d", "-1", "--threshold", "2", "--exhaustive",
                    "--out", str(tmp_path / "r.csv")]) == 1
        assert capsys.readouterr().err == "error: d must be at least 1\n"


class TestOutput:
    ARGS = ["tail-matrix", "--d", "2", "--sigma", "1.0", "--threshold", "5",
            "--trials", "10"]

    def test_missing_directory_fails_before_trials(self, tmp_path, capsys, no_trials):
        missing = tmp_path / "missing"
        assert run(self.ARGS + ["--out", str(missing / "r.csv")]) == 1
        assert capsys.readouterr().err == f"error: output directory does not exist: {missing}\n"
        assert not missing.exists()

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        out = tmp_path / "r.csv"
        assert run(self.ARGS + ["--out", str(out)]) == 0
        before = out.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")
        monkeypatch.setattr(smoothlab.reports.os, "replace", fail)
        assert run(self.ARGS + ["--seed", "5", "--out", str(out)]) == 1
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]

    def test_out_is_a_directory(self, tmp_path, capsys, no_trials):
        assert run(self.ARGS + ["--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: --out is a directory: {tmp_path}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", ["newdir/", "o.csv/", "", "newdir/.", "newdir/.."])
    def test_out_names_no_file(self, tmp_path, monkeypatch, capsys, no_trials, out):
        # each of these would fail only at the write, after every trial
        monkeypatch.chdir(tmp_path)
        assert run(self.ARGS + ["--out", out]) == 1
        assert capsys.readouterr().err == f"error: --out names no file: {out!r}\n"
        assert list(tmp_path.iterdir()) == []


def readme_commands():
    """The argv of each `smoothlab ...` line in README.md's sh blocks, continuations joined."""
    text = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = [b.split("```", 1)[0] for b in text.split("```sh\n")[1:]]
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [ln.split()[1:] for ln in lines if ln.startswith("smoothlab ")]


README_RUNS = [argv for argv in readme_commands()
               if argv[0] in KIND_BY_COMMAND or argv[0] == "verify-report"]


class TestReadmeExamples:
    def test_every_experiment_is_run(self):
        assert {argv[0] for argv in README_RUNS} == set(KIND_BY_COMMAND) | {"verify-report"}

    def test_examples_run(self, tmp_path, monkeypatch, capsys):
        # in order, in one directory, so verify-report reads the report written before it
        monkeypatch.chdir(tmp_path)
        for argv in README_RUNS:
            assert run(argv) == 0, argv
            if argv[0] == "verify-report":
                assert capsys.readouterr().out == "replay ok\n"
            else:
                assert (tmp_path / argv[argv.index("--out") + 1]).exists(), argv
