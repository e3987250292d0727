"""Tiny-size self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload with its trial counts cut to a few, for one second, end
to end and traced, and checks that:

- BENCHMARK.json names the same workloads and metrics, with the same units,
  as workloads.py, and every metric is printed with its unit;
- each workload has calls on the layer it exercises and none on the layers
  it is the no-change control for;
- the reports match digests recorded at the default seed, and a tampered
  digest counts as a failed command.

Exits 0 and prints "selftest ok" when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

import run
from workloads import DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS, Command

TINY_TRIALS = {"tail-matrix": "200", "submatrix-lemma": "3", "simplex-pivots": "3",
               "smoothed-profile": "2", "tail-perceptron": "20"}

# A separable instance, so the tiny perceptron profile is not held at the
# 100k iteration cap by the built-in box centers.
CENTERS = "6 2\n1 0.1\n1 0.2\n1 -0.1\n0.9 0.3\n1 0\n0.8 -0.2\n"

# workload -> (metrics that must be > 0, metrics that must be 0)
LAYER_USE = {
    "conditioning": (
        ("perturb.rng.calls", "numkit.inverse_norm.calls", "reports.bytes_written",
         "experiments.jobs2_speedup"),
        ("polytope.enumerate_vertices.calls", "simplex.find_initial_vertex.bases_scanned",
         "perceptron.run_perceptron.iterations", "perceptron.min_norm_point.us_per_call")),
    "lp_walk": (
        ("polytope.enumerate_vertices.calls", "polytope.enumerate_vertices.bases_scanned",
         "simplex.find_initial_vertex.bases_scanned", "simplex.shadow_pivot_walk.self_s"),
        ("numkit.inverse_norm.calls", "perceptron.run_perceptron.iterations",
         "perceptron.min_norm_point.us_per_call", "reports.to_json.self_s")),
    "perceptron": (
        ("perceptron.run_perceptron.iterations", "perceptron.min_norm_point.us_per_call"),
        ("polytope.enumerate_vertices.calls", "numkit.inverse_norm.calls",
         "simplex.find_initial_vertex.bases_scanned", "reports.to_json.self_s")),
}


def tiny(commands, center_file: str) -> list:
    out = []
    for cmd in commands:
        args = list(cmd.args)
        if "--trials" in args:
            args[args.index("--trials") + 1] = TINY_TRIALS[cmd.label]
        if "perceptron_iterations" in args:
            args += ["--center", center_file]
        out.append(Command(cmd.label, tuple(args), cmd.out, cmd.reads))
    return out


def quiet_measure(*args) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = run.measure(*args)
    return result, buf.getvalue()


def check_declared(problems: list) -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    if sorted(w["name"] for w in declared["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        ours = [(name, unit, better) for name, unit, better, *_ in table]
        theirs = [(m["name"], m["unit"], m["better"]) for m in declared[key]]
        if ours != theirs:
            problems.append(f"BENCHMARK.json {key} differs from workloads.py")
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    if bounds != {name: bound for name, _u, _b, bound in END_TO_END}:
        problems.append("BENCHMARK.json bounds differ from workloads.END_TO_END")


def check_printed(where: str, result: dict, text: str, table, problems: list) -> None:
    for name, unit, *_ in table:
        metric = result["metrics"].get(name)
        if metric is None or metric["unit"] != unit or not isinstance(metric["value"], (int, float)):
            problems.append(f"{where}: {name} missing or without unit {unit}")
        if name not in text:
            problems.append(f"{where}: {name} not in the printed lines")
    if set(result["metrics"]) != {name for name, *_ in table}:
        problems.append(f"{where}: result has metrics outside the declared list")


def main() -> int:
    problems = []
    check_declared(problems)
    os.makedirs(run.OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        center_file = os.path.join(scratch, "centers.inst")
        with open(center_file, "w", encoding="utf-8") as fh:
            fh.write(CENTERS)
        for workload, commands in WORKLOADS.items():
            commands = tiny(commands, center_file)
            with contextlib.redirect_stdout(io.StringIO()):
                record = run.cli_pass(commands, os.path.join(scratch, workload), DEFAULT_SEED)
            golden = {r["label"]: r["sha256"] for r in record["records"] if r["sha256"]}

            result, text = quiet_measure(workload, commands, 7, 1, False, golden)
            check_printed(f"{workload} --trace 0", result, text, END_TO_END, problems)
            if "fail_frac" not in text:
                problems.append(f"{workload}: fail_frac not printed")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload}: {result['failed']} failed commands:\n{text}")

            result, text = quiet_measure(workload, commands, 7, 1, True, golden)
            check_printed(f"{workload} --trace 1", result, text, PER_LAYER, problems)
            if result["failed"]:
                problems.append(f"{workload} traced: {result['failed']} failed commands:\n{text}")
            used, idle = LAYER_USE[workload]
            values = {k: v["value"] for k, v in result["metrics"].items()}
            problems += [f"{workload}: {m} is 0" for m in used if not values[m] > 0]
            problems += [f"{workload}: {m} is {values[m]}, not 0" for m in idle if values[m] != 0]

            if workload == "conditioning":
                label = next(iter(golden))
                tampered = dict(golden, **{label: "0" * 64})
                result, _ = quiet_measure(workload, commands, 7, 1, False, tampered)
                if result["failed"] != 1 or result["correct"]:
                    problems.append(f"tampered digest gave {result['failed']} failures, not 1")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for p in problems:
        print(f"selftest: {p}")
    if problems:
        return 1
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
