"""In-process passes of one workload: the serial reference and the traced run.

Run by run.py as ``python3 bench/inproc.py SPEC RESULT`` with the thread
variables pinned and ``PYTHONPATH=src``. SPEC is a JSON file written by
run.py; RESULT receives a JSON summary. Every command goes through
``smoothlab.cli.cli_main`` in this one process, with ``--jobs 1``.

Modes (``spec["mode"]``):

- ``reference``: one untraced pass of the parallel commands at
  ``spec["seed"]``, so run.py can compare their bytes with the
  ``--jobs N`` reports.
- ``trace``: one untraced pass at the default seed, checked against the
  golden digests (it also warms up), then untraced and traced passes in
  turn at the pass seeds until ``spec["seconds"]`` are used, then, when
  ``spec["speedup"]`` names a command, ``run_experiment`` timed at
  ``--jobs 1`` and ``--jobs 2`` on it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import time
import traceback

from workloads import DEFAULT_SEED, Command, outcome, pass_seed, remove_report, serial_argv


def run_pass(cli, commands, workdir, seed, golden=None):
    """Run commands serially in this process; returns one record per command."""
    os.makedirs(workdir, exist_ok=True)
    records = []
    for cmd in commands:
        remove_report(cmd, workdir)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.cli_main(serial_argv(cmd.argv(workdir, seed)))
        except Exception:   # a crash is a failed command, as in a subprocess
            rc = 1
            err.write(traceback.format_exc())
        records.append(outcome(cmd, workdir, seed, rc, out.getvalue(), err.getvalue(), golden))
    return records


def _time_run_experiment(cli, argv):
    """Seconds spent inside run_experiment for one CLI invocation."""
    original, spent = cli.run_experiment, []

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            spent.append(time.perf_counter() - start)

    cli.run_experiment = timed
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.cli_main(argv)
    finally:
        cli.run_experiment = original
    if rc != 0 or len(spent) != 1:
        raise RuntimeError(f"speedup probe failed with exit code {rc}")
    return spent[0]


def trace_run(cli, spec, commands):
    from tracer import Tracer

    work = spec["work"]
    records = run_pass(cli, commands, f"{work}/golden", DEFAULT_SEED, golden=spec["golden"])
    plain_s, traced_s, layer = [], [], []
    first = None
    deadline = time.perf_counter() + spec["seconds"]
    k = 0
    while k == 0 or time.perf_counter() + plain_s[-1] + traced_s[-1] <= deadline:
        seed = pass_seed(spec["seed"], k)
        start = time.perf_counter()
        records += run_pass(cli, commands, f"{work}/plain", seed)
        plain_s.append(time.perf_counter() - start)

        tracer = Tracer()
        tracer.install()
        start = time.perf_counter()
        try:
            records += run_pass(cli, commands, f"{work}/traced{min(k, 1)}", seed)
        finally:
            traced_s.append(time.perf_counter() - start)
            tracer.uninstall()
        layer.append(tracer.metrics())
        if first is None:
            first = tracer
        k += 1
    first.write(spec["spans"])

    metrics = {name: statistics.median(m[name] for m in layer) for name in layer[0]}
    plain, traced = statistics.median(plain_s), statistics.median(traced_s)
    metrics["trace.overhead_frac"] = (traced - plain) / plain
    metrics["experiments.jobs2_speedup"] = 0.0
    if spec["speedup"]:
        cmd = next(c for c in commands if c.label == spec["speedup"])
        argv = serial_argv(cmd.argv(f"{work}/speedup", pass_seed(spec["seed"], 0)))
        os.makedirs(f"{work}/speedup", exist_ok=True)
        jobs_at = argv.index("--jobs") + 1
        serial = _time_run_experiment(cli, argv)
        argv[jobs_at] = "2"
        metrics["experiments.jobs2_speedup"] = serial / _time_run_experiment(cli, argv)
    return {"records": records, "metrics": metrics, "passes": k,
            "plain_s": plain_s, "traced_s": traced_s,
            "traced_reports": f"{work}/traced0"}


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    commands = [Command(**d) for d in spec["commands"]]
    import smoothlab.cli as cli

    if spec["mode"] == "reference":
        result = {"records": run_pass(cli, commands, spec["work"], spec["seed"])}
    else:
        result = trace_run(cli, spec, commands)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
