"""Command-line entry point.

Exit codes: 0 success, 1 configuration/input error, 2 out-of-regime
parameters, 3 desk-scale size limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ConfigError, OutOfRegimeError, SizeLimitError, SmoothlabError
from .experiments import (
    ExperimentConfig,
    read_text_file,
    run_experiment,
    verify_replay,
)
from .perceptron import parse_instance, run_perceptron, wiggle_room
from .polytope import parse_lp
from .reports import load_json_report, write_report
from .simplex import solve

KIND_BY_COMMAND = {
    "tail-matrix": "matrix_tail",
    "tail-rademacher": "rademacher_tail",
    "shadow-size": "shadow_size",
    "simplex-pivots": "simplex_pivots",
    "tail-perceptron": "perceptron_tail",
    "submatrix-lemma": "submatrix_lemma",
    "smoothed-profile": "smoothed_profile",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--d", type=int, default=None)
    sub.add_argument("--sigma", nargs="+", type=float, default=None,
                     help="one or more perturbation std deviations")
    sub.add_argument("--threshold", nargs="+", type=float, default=None,
                     help="one or more tail thresholds")
    sub.add_argument("--trials", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None, help="master seed")
    sub.add_argument("--center", default=None,
                     help="zero | ones | box | stretched | FILE")
    sub.add_argument("--out", default=None, help="output report path")
    sub.add_argument("--format", choices=("csv", "json"), default=None)
    sub.add_argument("--per-trial", action="store_true", default=None,
                     help="include per-trial records (json format only)")
    sub.add_argument("--jobs", type=int, default=None,
                     help="parallel worker processes (default 1)")
    sub.add_argument("--config", default=None,
                     help="key=value config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="smoothlab",
                     description="Monte Carlo tail and pivot experiments "
                                 "under Gaussian perturbation")
    subs = parser.add_subparsers(dest="command", required=True)
    for command in KIND_BY_COMMAND:
        sub = subs.add_parser(command)
        _add_common(sub)
        if command == "tail-rademacher":
            sub.add_argument("--exhaustive", action="store_true", default=None,
                             help="enumerate every sign matrix instead of sampling")
        if command == "tail-perceptron":
            sub.add_argument("--rule", choices=("lowest_index", "most_violated"),
                             default=None)
        if command == "smoothed-profile":
            sub.add_argument("--measure",
                             choices=("simplex_pivots", "perceptron_iterations"),
                             default=None)

    solve_lp = subs.add_parser("solve-lp", help="solve an LP fixture file")
    solve_lp.add_argument("file")

    run_p = subs.add_parser("run-perceptron", help="run on an instance fixture file")
    run_p.add_argument("file")
    run_p.add_argument("--cap", type=int, default=100000)
    run_p.add_argument("--rule", choices=("lowest_index", "most_violated"),
                       default="lowest_index")

    verify = subs.add_parser("verify-report",
                             help="recompute aggregates from per-trial records")
    verify.add_argument("file")
    return parser


def _load_config_file(path: str) -> dict:
    values = {}
    for line in read_text_file(path, "config file").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"malformed config line: {line!r}")
        key, _, raw = line.partition("=")
        values[key.strip().replace("-", "_")] = raw.strip()
    return values


_LIST_KEYS = {"sigma", "threshold"}
_INT_KEYS = {"n", "d", "trials", "seed", "jobs"}
_BOOL_KEYS = {"per_trial", "exhaustive"}


def _coerce(key: str, raw: str):
    try:
        if key in _LIST_KEYS:
            return [float(tok) for tok in raw.replace(",", " ").split()]
        if key in _INT_KEYS:
            return int(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key}: {exc}") from exc
    if key in _BOOL_KEYS:
        return raw.lower() in ("1", "true", "yes", "on")
    return raw


def _merged(args: argparse.Namespace) -> dict:
    merged = {}
    if getattr(args, "config", None):
        for key, raw in _load_config_file(args.config).items():
            merged[key] = _coerce(key, raw)
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            merged[key] = value
    return merged


def _experiment_config(command: str, args: argparse.Namespace) -> tuple:
    opt = _merged(args)
    cfg = ExperimentConfig(
        kind=KIND_BY_COMMAND[command],
        n=opt.get("n", 0),
        d=opt.get("d", 0),
        sigma_grid=tuple(opt.get("sigma", ())),
        thresholds=tuple(opt.get("threshold", ())),
        trials=opt.get("trials", 1),
        master_seed=opt.get("seed", 0),
        center_source=opt.get("center", "zero"),
        exhaustive=bool(opt.get("exhaustive", False)),
        rule=opt.get("rule", "lowest_index"),
        measure=opt.get("measure", "simplex_pivots"),
        output_path=opt.get("out"),
    )
    fmt = opt.get("format", "csv")
    per_trial = bool(opt.get("per_trial", False))
    jobs = int(opt.get("jobs", 1))
    if per_trial and fmt != "json":
        raise ConfigError("--per-trial requires --format json")
    if cfg.output_path is None:
        raise ConfigError("--out is required")
    out_dir = os.path.dirname(os.path.abspath(cfg.output_path))
    if not os.path.isdir(out_dir):
        raise ConfigError(f"output directory does not exist: {out_dir}")
    return cfg, fmt, per_trial, jobs


def _run_solve_lp(args) -> int:
    lp = parse_lp(read_text_file(args.file, "LP file"))
    result = solve(lp)
    doc = result.trace.to_json_dict()
    doc["status"] = result.status
    if result.status == "optimal":
        vertex = result.vertex
        doc["x"] = [float(v) for v in vertex.point]
        doc["value"] = result.objective_value(lp)
    print(json.dumps(doc, sort_keys=True))
    return 0


def _run_perceptron_file(args) -> int:
    inst = parse_instance(read_text_file(args.file, "instance file"))
    nu = wiggle_room(inst)
    run = run_perceptron(inst, iteration_cap=args.cap, rule=args.rule)
    doc = {
        "status": run.status,
        "iterations": run.iterations,
        "margin": nu,
        "final_x": None if run.final_x is None else [float(v) for v in run.final_x],
    }
    print(json.dumps(doc, sort_keys=True))
    return 0


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve-lp":
            return _run_solve_lp(args)
        if args.command == "run-perceptron":
            return _run_perceptron_file(args)
        if args.command == "verify-report":
            report = load_json_report(args.file)
            if verify_replay(report):
                print("replay ok")
                return 0
            print("replay mismatch", file=sys.stderr)
            return 1
        cfg, fmt, per_trial, jobs = _experiment_config(args.command, args)
        report = run_experiment(cfg, jobs=jobs)
        write_report(report, cfg.output_path, fmt, per_trial=per_trial)
        return 0
    except OutOfRegimeError as exc:
        print(f"out of regime: {exc}", file=sys.stderr)
        return 2
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return 3
    except SmoothlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
