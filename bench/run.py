"""smoothlab benchmark: three CLI workloads, end to end and layer by layer.

    python3 bench/run.py [--workload {all,conditioning,lp_walk,perceptron}]
                         [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` (or with ``all``) it measures every workload in turn.

Run it from anywhere inside a source checkout; smoothlab is imported from the
checkout's ``src`` with ``PYTHONPATH`` (no install needed). Every child
process gets ``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and
``MKL_NUM_THREADS`` set to 1.

``--trace 0`` (end to end): five set-up probes, then passes until
``--seconds`` are used. Each pass runs the workload's commands one after
another as ``python -m smoothlab.cli`` processes. Pass 0 runs at the default
seed and its reports must match golden.json (and, for ``--jobs 2`` commands,
the bytes of a serial in-process run); pass k >= 1 runs at
``workloads.pass_seed(seed, k)``.

``--trace 1`` (per layer): the workload's commands run serially inside one
process (inproc.py), alternating untraced and traced passes, with spans
recorded around smoothlab's public functions (tracer.py). The spans of the
first traced pass are written to ``bench/_out/spans-<workload>.json``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(for several workloads, their sums and every metric as ``<workload>.<name>``).
``attempted`` counts command runs; a run fails when it exits non-zero,
breaks a correctness gate (workloads.GATES) or, at the default seed, writes
bytes that differ from golden.json. ``fail_frac`` is failed / attempted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict

from workloads import (
    DEFAULT_SEED,
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
    outcome,
    pass_seed,
    read_report,
    remove_report,
    runs_parallel,
)

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "_out")
GOLDEN = os.path.join(BENCH, "golden.json")
SETUP_PROBES = 5
COMMAND_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run here; it exits non-zero without a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.path.join(ROOT, "src"))
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list, workdir: str) -> dict:
    """Run one child to completion; wall time, rusage (with its reaped pool
    workers) and output."""
    with open(f"{workdir}/stdout", "w+b") as out, open(f"{workdir}/stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdout=out, stderr=err,
                                cwd=ROOT, start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:   # interrupted: take the child and its pool down too
            _kill_group(proc.pid)
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {"rc": proc.returncode, "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "stdout": out.read().decode("utf-8", "replace"),
                "stderr": err.read().decode("utf-8", "replace")}


def cli_pass(commands, workdir: str, seed: int, golden: dict | None = None) -> dict:
    """One pass: every command as a fresh ``python -m smoothlab.cli``."""
    os.makedirs(workdir, exist_ok=True)
    records, wall, cpu, rss = [], 0.0, 0.0, 0.0
    for cmd in commands:
        remove_report(cmd, workdir)
        run = spawn([sys.executable, "-m", "smoothlab.cli", *cmd.argv(workdir, seed)], workdir)
        wall += run["wall_s"]
        cpu += run["cpu_s"]
        rss = max(rss, run["rss_mb"])
        records.append(outcome(cmd, workdir, seed, run["rc"], run["stdout"], run["stderr"],
                               golden))
    return {"records": records, "wall_s": wall, "cpu_s": cpu, "rss_mb": rss}


def probe(commands, workdir: str) -> dict:
    """Fresh interpreter up to the first trial; returns its wall time too."""
    argvs = [cmd.argv(workdir, DEFAULT_SEED) for cmd in commands if cmd.reads is None]
    run = spawn([sys.executable, os.path.join(BENCH, "probe.py"), json.dumps(argvs)], workdir)
    if run["rc"] != 0:
        raise BenchError(f"set-up probe failed: {run['stderr'].strip()}")
    info = json.loads(run["stdout"].strip().splitlines()[-1])
    info["wall_s"] = run["wall_s"]
    if not os.path.abspath(info["smoothlab"]).startswith(os.path.join(ROOT, "src") + os.sep):
        raise BenchError(f"smoothlab was imported from {info['smoothlab']}, not this checkout")
    return info


def inproc(spec: dict, workdir: str) -> dict:
    spec_path, result_path = f"{workdir}/spec.json", f"{workdir}/result.json"
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    run = spawn([sys.executable, os.path.join(BENCH, "inproc.py"), spec_path, result_path],
                workdir)
    if run["rc"] != 0:
        raise BenchError(f"in-process run failed: {run['stderr'].strip()}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def git_commit() -> str:
    """HEAD of the checkout, read without git; "unknown" outside a repository."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(values: list) -> str:
    """The highest percentile with at least ten samples beyond it, when that
    percentile lies above the median."""
    n = len(values)
    if n <= 21:
        return f"no tail above the median with ten samples beyond it at n={n}"
    return f"p{100 * (n - 10) / n:.0f} {sorted(values)[n - 11]:.4f}"


def print_records(records: list) -> None:
    for rec in records:
        state = "ok" if not rec["errors"] else "FAILED " + "; ".join(map(str, rec["errors"]))
        print(f"  {rec['label']:<17} seed {rec['seed']:<6} sha256 {rec['sha256']} {state}")


def end_to_end(workload, commands, seed, seconds, golden, work) -> tuple:
    setup = [probe(commands, work)["wall_s"] for _ in range(SETUP_PROBES)]

    # pass 0 runs at the default seed and is checked against the golden digests
    passes, records = [], []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start
                         + statistics.median(p["wall_s"] for p in passes) <= seconds):
        k = len(passes)
        if k == 0:
            p = cli_pass(commands, f"{work}/golden", DEFAULT_SEED, golden)
        else:
            p = cli_pass(commands, f"{work}/pass", pass_seed(seed, k))
        passes.append(p)
        records += p["records"]
        print(f"pass {k}: wall {p['wall_s']:.4f} s, cpu {p['cpu_s']:.4f} s, "
              f"peak rss {p['rss_mb']:.1f} MB")
        print_records(p["records"])

    parallel = [c for c in commands if runs_parallel(c)]
    if parallel:
        ref = inproc({"mode": "reference", "commands": [asdict(c) for c in parallel],
                      "work": f"{work}/serial", "seed": DEFAULT_SEED}, work)
        for cmd, serial in zip(parallel, ref["records"]):
            rec = next(r for r in passes[0]["records"] if r["label"] == cmd.label)
            if serial["errors"] or serial["sha256"] != rec["sha256"]:
                rec["errors"].append(f"--jobs report differs from the serial in-process "
                                     f"report {serial['sha256']} {serial['errors']}")
                print(f"  {cmd.label} at seed {DEFAULT_SEED}: {rec['errors'][-1]}")

    walls = [p["wall_s"] for p in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    failed = sum(1 for r in records if r["errors"])
    print(f"wall_s      median {metrics['wall_s']:.4f} s over {len(walls)} passes; {tail(walls)}")
    print(f"setup_s     median {metrics['setup_s']:.4f} s (n={len(setup)} probes)")
    print(f"cpu_s       median {metrics['cpu_s']:.4f} s per pass")
    print(f"peak_rss_mb median {metrics['peak_rss_mb']:.2f} MB (largest process of a pass)")
    print(f"fail_frac   {failed / len(records):.4f} frac ({failed} of {len(records)} command runs)")
    return records, metrics


def per_layer(workload, commands, seed, seconds, golden, work) -> tuple:
    probes = [probe(commands, work) for _ in range(SETUP_PROBES)]
    parallel = [c for c in commands if runs_parallel(c)]
    spans = os.path.join(OUT, f"spans-{workload}.json")
    result = inproc({"mode": "trace", "commands": [asdict(c) for c in commands],
                     "work": f"{work}/inproc", "seed": seed, "golden": golden,
                     "seconds": seconds, "spans": spans,
                     "speedup": parallel[0].label if parallel else None}, work)
    records = result["records"]
    # the --jobs N reports must equal the traced run's serial reports
    if parallel:
        p = cli_pass(parallel, f"{work}/parallel", pass_seed(seed, 0))
        for cmd, rec in zip(parallel, p["records"]):
            serial = read_report(f"{result['traced_reports']}/{cmd.out}")
            if serial is None or hashlib.sha256(serial).hexdigest() != rec["sha256"]:
                rec["errors"].append("--jobs report differs from the traced serial report")
        records += p["records"]
    print_records(records)
    metrics = dict(result["metrics"])
    metrics["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
    print(f"{result['passes']} untraced/traced pass pairs; untraced "
          f"{statistics.median(result['plain_s']):.4f} s, traced "
          f"{statistics.median(result['traced_s']):.4f} s; spans in {os.path.relpath(spans, ROOT)}")
    for name, unit, _better, moves in PER_LAYER:
        print(f"{name:<46} {metrics[name]:>14.6g} {unit:<6} -> {moves}")
    return records, metrics


def measure(workload: str, commands, seed: int, seconds: int, trace: bool,
            golden: dict) -> dict:
    """Run one benchmark measurement; prints human lines, returns the result."""
    if not os.path.isfile(os.path.join(ROOT, "src", "smoothlab", "cli.py")):
        raise BenchError(f"no smoothlab sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        env = probe(commands, work)   # also fills the bytecode caches
        print("env " + json.dumps({
            "python": env["python"], "numpy": env["numpy"], "nproc": os.cpu_count(),
            "commit": git_commit(), "workload": workload, "seed": seed,
            "seconds": seconds, "trace": int(trace)}))
        run = per_layer if trace else end_to_end
        records, metrics = run(workload, commands, seed, seconds, golden, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = {name: unit for name, unit, *_ in (PER_LAYER if trace else END_TO_END)}
    failed = sum(1 for r in records if r["errors"])
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def combine(results: dict) -> dict:
    """One result for several workloads; metric names get a workload prefix."""
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()}}


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *sorted(WORKLOADS)])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds at least 1")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
        for name in names:
            results[name] = measure(name, WORKLOADS[name], args.seed, args.seconds,
                                    bool(args.trace), golden[name])
            if len(names) > 1:
                print(f"{name} " + json.dumps(results[name]))
    except (BenchError, OSError, KeyError) as exc:
        print(f"bench: {exc!r}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else combine(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
