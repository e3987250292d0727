"""What the benchmark runs and what it checks: workloads, gates, metrics.

Shared by the orchestrator (run.py), the in-process runner (inproc.py) and
the self-test, so the commands, their correctness gates and the metric
names live in one place.

Every workload is a closed loop: one pass runs its commands one after
another, each as a fresh `python -m smoothlab.cli` process, and the next
pass starts when the last command has exited.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
from dataclasses import dataclass

# Reports at this seed must match the digests in golden.json.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass.

    ``label`` names the command in the output, in golden.json and in the gate
    table. A command either writes the report ``out`` (and gets ``--seed``
    and ``--out`` appended) or reads the report ``reads`` of an earlier
    command of the same pass.
    """

    label: str
    args: tuple
    out: str | None = None
    reads: str | None = None

    def argv(self, workdir: str, seed: int) -> list:
        if self.reads is not None:
            return [*self.args, f"{workdir}/{self.reads}"]
        return [*self.args, "--seed", str(seed), "--out", f"{workdir}/{self.out}"]


def pass_seed(seed: int, k: int) -> int:
    """Master seed of pass k of a run: every pass draws fresh inputs."""
    return seed * 1000 + k


def serial_argv(argv: list) -> list:
    """The same invocation with --jobs 1, as the in-process runs use."""
    argv = list(argv)
    if "--jobs" in argv:
        argv[argv.index("--jobs") + 1] = "1"
    return argv


def runs_parallel(cmd: Command) -> bool:
    return "--jobs" in cmd.args and cmd.args[cmd.args.index("--jobs") + 1] != "1"


WORKLOADS = {
    # Seed-stream creation and inverse_norm (SVD) dominate, plus the process
    # pool and a 40k-value JSON write and read-back. polytope, simplex and
    # perceptron sit idle: the no-change control for LP and perceptron work.
    "conditioning": (
        Command("tail-matrix",
                ("tail-matrix", "--d", "4", "--sigma", "0.5", "1.0",
                 "--threshold", "10", "20", "40", "--trials", "20000",
                 "--format", "json", "--per-trial", "--jobs", "2"),
                out="tail_matrix.json"),
        Command("verify-report", ("verify-report",), reads="tail_matrix.json"),
        Command("submatrix-lemma",
                ("submatrix-lemma", "--n", "8", "--d", "3", "--sigma", "0.1",
                 "--trials", "300", "--center", "box"),
                out="submatrix.csv"),
    ),
    # The basis scan used two ways: the brute-force oracle plus shadow hull
    # (simplex-pivots) and the Phase I scan (smoothed-profile). perceptron
    # and numkit sit idle.
    "lp_walk": (
        Command("simplex-pivots",
                ("simplex-pivots", "--n", "10", "--d", "3", "--sigma", "0.1",
                 "--trials", "50", "--center", "box"),
                out="pivots.csv"),
        Command("smoothed-profile",
                ("smoothed-profile", "--n", "20", "--d", "4",
                 "--sigma", "0.05", "0.1", "--trials", "30"),
                out="profile.csv"),
    ),
    # The perceptron update loop (mostly runs capped at 100k iterations, and
    # identical trials at sigma = 0) and Wolfe's min-norm point. polytope
    # and numkit sit idle.
    "perceptron": (
        Command("smoothed-profile",
                ("smoothed-profile", "--measure", "perceptron_iterations",
                 "--n", "6", "--d", "2", "--sigma", "0.0", "0.1", "--trials", "2"),
                out="profile.csv"),
        Command("tail-perceptron",
                ("tail-perceptron", "--n", "40", "--d", "5", "--sigma", "0.2",
                 "--threshold", "2", "10", "--trials", "1000", "--center", "ones"),
                out="margins.csv"),
    ),
}


# ---------------------------------------------------------------------------
# correctness gates

def csv_rows(text: str) -> list:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _oracle_gate(report: str, stdout: str) -> list:
    errors = []
    for row in csv_rows(report):
        if float(row["oracle_match_frac"]) != 1.0:
            errors.append(f"oracle_match_frac {row['oracle_match_frac']} at sigma {row['sigma']}")
        if int(row["hull_bound_violations"]) != 0:
            errors.append(f"hull_bound_violations {row['hull_bound_violations']} "
                          f"at sigma {row['sigma']}")
    return errors


def _iteration_gate(report: str, stdout: str) -> list:
    return [f"iteration_bound_violations {row['iteration_bound_violations']} "
            f"at sigma {row['sigma']}, threshold {row['threshold']}"
            for row in csv_rows(report) if int(row["iteration_bound_violations"]) != 0]


def _replay_gate(report: str, stdout: str) -> list:
    return [] if stdout.strip() == "replay ok" else [f"verify-report printed {stdout.strip()!r}"]


# label -> gate(report text, stdout) -> list of broken conditions
GATES = {
    "simplex-pivots": _oracle_gate,
    "tail-perceptron": _iteration_gate,
    "verify-report": _replay_gate,
}


def _gate_errors(cmd: Command, returncode: int, stdout: str, report: bytes | None) -> list:
    if returncode != 0:
        return [f"exit code {returncode}"]
    if cmd.out is not None and not report:
        return ["no report written"]
    gate = GATES.get(cmd.label)
    if gate is None:
        return []
    try:
        return gate((report or b"").decode("utf-8"), stdout)
    except (KeyError, ValueError) as exc:
        return [f"unreadable report: {exc!r}"]


def remove_report(cmd: Command, workdir: str) -> None:
    """Delete the report an earlier pass left, so a run that writes none shows."""
    if cmd.out is not None and os.path.exists(f"{workdir}/{cmd.out}"):
        os.remove(f"{workdir}/{cmd.out}")


def read_report(path: str) -> bytes | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def outcome(cmd: Command, workdir: str, seed: int, returncode: int, stdout: str,
            stderr: str, golden: dict | None = None) -> dict:
    """One command run: its report digest and every way it failed.

    With ``golden`` (label -> SHA-256), the report bytes must match it too.
    """
    report = read_report(f"{workdir}/{cmd.out}") if cmd.out else None
    errors = _gate_errors(cmd, returncode, stdout, report)
    if returncode != 0:
        errors += stderr.strip().splitlines()[-1:]
    digest = hashlib.sha256(report).hexdigest() if report is not None else None
    if golden is not None and cmd.out is not None and digest != golden.get(cmd.label):
        errors.append(f"sha256 {digest} differs from golden {golden.get(cmd.label)}")
    return {"label": cmd.label, "seed": seed, "sha256": digest, "errors": errors}


# ---------------------------------------------------------------------------
# metrics: (name, unit, better, bound or what it should move)

# On a shared 2-core VM the same lp_walk pass (same inputs) took from 3.7 s
# to 7.2 s in runs minutes apart, so the time bounds sit at the 0.25 ceiling.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_COND = "wall_s on conditioning"
_LP = "wall_s on lp_walk"
_PERC = "wall_s on perceptron"

PER_LAYER = (
    ("perturb.rng.calls", "count", "lower", _COND),
    ("perturb.rng.us_per_call", "us", "lower", _COND),
    ("perturb.sample.self_s", "s", "lower", _COND),
    ("numkit.inverse_norm.calls", "count", "lower", _COND),
    ("numkit.inverse_norm.self_s", "s", "lower", _COND),
    ("numkit.inverse_norm.us_per_call", "us", "lower", _COND),
    ("polytope.enumerate_vertices.calls", "count", "lower", _LP),
    ("polytope.enumerate_vertices.self_s", "s", "lower", _LP),
    ("polytope.enumerate_vertices.calls_per_trial", "count", "lower", _LP),
    ("polytope.enumerate_vertices.bases_scanned", "count", "lower", _LP),
    ("polytope.enumerate_vertices.vertex_yield", "frac", "higher", _LP),
    ("polytope.recession_directions.self_s", "s", "lower", _LP),
    ("polytope.is_feasible.calls", "count", "lower", _LP),
    ("polytope.shadow_polygon.self_s", "s", "lower", _LP),
    ("polytope.convex_hull_2d.self_s", "s", "lower", _LP),
    ("simplex.find_initial_vertex.self_s", "s", "lower", _LP),
    ("simplex.find_initial_vertex.bases_scanned", "count", "lower", _LP),
    ("simplex.shadow_pivot_walk.self_s", "s", "lower", _LP),
    ("simplex.shadow_pivot_walk.pivots", "count", "lower", _LP),
    ("simplex.shadow_pivot_walk.degenerate_frac", "frac", "lower", _LP),
    ("perceptron.run_perceptron.self_s", "s", "lower", _PERC),
    ("perceptron.run_perceptron.iterations", "count", "lower", _PERC),
    ("perceptron.run_perceptron.ns_per_iteration", "ns", "lower", _PERC),
    ("perceptron.run_perceptron.capped_frac", "frac", "lower", _PERC),
    ("perceptron.min_norm_point.self_s", "s", "lower", _PERC),
    ("perceptron.min_norm_point.us_per_call", "us", "lower", _PERC),
    ("experiments.run_experiment.self_s", "s", "lower", "wall_s on every workload"),
    ("experiments.aggregate.self_s", "s", "lower", "wall_s on every workload"),
    ("experiments.jobs2_speedup", "x", "higher", "wall_s and cpu_s on conditioning"),
    ("reports.to_json.self_s", "s", "lower", _COND),
    ("reports.bytes_written", "bytes", "lower", _COND),
    ("reports.load_json_report.self_s", "s", "lower", _COND),
    ("experiments.verify_replay.self_s", "s", "lower", _COND),
    ("cli.import_s", "s", "lower", "setup_s on every workload"),
    ("trace.overhead_frac", "frac", "lower", "none (tracing cost)"),
)
