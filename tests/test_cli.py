import json
import math

import pytest

from smoothlab.cli import cli_main

CSV_HEADER = ("sigma,threshold,empirical,stderr,"
              "bound_edelman,bound_sst,bound_thm43,bound_conj1")


def run(args):
    return cli_main(args)


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


class TestExitCodes:
    def test_out_of_regime_is_2(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run(["shadow-size", "--n", "8", "--d", "2", "--sigma", "0.1",
                    "--trials", "2", "--center", "box", "--out", str(out)]) == 2

    def test_size_limit_is_3(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run(["tail-rademacher", "--d", "5", "--threshold", "2",
                    "--exhaustive", "--out", str(out)]) == 3


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


class TestFixtureCommands:
    def test_solve_lp(self, tmp_path, capsys):
        lp = tmp_path / "box.lp"
        lp.write_text("4 2\n1 0 1\n0 1 1\n-1 0 1\n0 -1 1\n1 1\n")
        assert run(["solve-lp", str(lp)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "optimal"
        assert doc["value"] == pytest.approx(2.0)
        assert doc["x"] == pytest.approx([1.0, 1.0])

    def test_solve_lp_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.lp"
        bad.write_text("not an lp\n")
        assert run(["solve-lp", str(bad)]) == 1

    def test_run_perceptron(self, tmp_path, capsys):
        inst = tmp_path / "p.inst"
        inst.write_text("2 2\n1 0\n0 1\n")
        assert run(["run-perceptron", str(inst), "--cap", "10"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "solved"
        assert doc["margin"] == pytest.approx(1 / math.sqrt(2))
        assert doc["iterations"] <= 2


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
