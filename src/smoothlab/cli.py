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
from .kinds import (BUILTIN_CENTERS, KINDS, MEASURES, RULES, ExperimentConfig, validate_config,
                    verify_replay)
from .reports import load_json_report, read_text_file, write_report

KIND_BY_COMMAND = {kind.command: name for name, kind in KINDS.items()}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


# Every experiment flag, declared once for the parser and for config files,
# in help order. dest is the ExperimentConfig field the flag sets, or a run
# option; a command takes the flags of its kind's fields and every run
# option. An absent field flag is left out of the namespace, so the
# ExperimentConfig defaults are the only ones.
FLAGS = {
    "--n": dict(type=int),
    "--d": dict(type=int),
    "--sigma": dict(dest="sigma_grid", metavar="SIGMA", nargs="+", type=float,
                    help="one or more perturbation std deviations"),
    "--threshold": dict(dest="thresholds", metavar="THRESHOLD", nargs="+", type=float,
                        help="one or more tail thresholds"),
    "--trials": dict(type=int),
    "--seed": dict(dest="master_seed", metavar="SEED", type=int, help="master seed"),
    "--center": dict(dest="center_source", metavar="CENTER"),   # help: Kind.centers
    "--out": dict(dest="output_path", metavar="OUT", help="output report path"),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--per-trial": dict(action="store_true", default=False,
                        help="include per-trial records (json format only)"),
    "--jobs": dict(type=int, default=1, help="parallel worker processes (default 1)"),
    "--config": dict(default=None, help="key=value config file; flags override it"),
    "--exhaustive": dict(action="store_true",
                         help="enumerate every sign matrix instead of sampling"),
    "--rule": dict(choices=RULES),
    "--measure": dict(choices=MEASURES),
}
RUN_OPTIONS = ("output_path", "format", "per_trial", "jobs", "config")   # not parameters
_SWITCH_VALUES = {"true": True, "yes": True, "on": True, "1": True,
                  "false": False, "no": False, "off": False, "0": False}


def _flags(command: str) -> dict:
    kind = KINDS[KIND_BY_COMMAND[command]]
    centers = " | ".join(kind.centers + ("FILE",))
    if kind.center_set:
        centers = (f"{' | '.join(BUILTIN_CENTERS)} (any of these runs "
                   f"{', '.join(kind.centers[:-1])} and {kind.centers[-1]}) | FILE")
    return {flag: dict(spec, help=centers) if flag == "--center" else spec
            for flag, spec in FLAGS.items()
            if spec.get("dest", flag[2:].replace("-", "_")) in kind.fields + RUN_OPTIONS}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="smoothlab",
                     description="Monte Carlo tail and pivot experiments "
                                 "under Gaussian perturbation")
    subs = parser.add_subparsers(dest="command", required=True)
    for command in KIND_BY_COMMAND:
        sub = subs.add_parser(command, argument_default=argparse.SUPPRESS)
        for flag, spec in _flags(command).items():
            sub.add_argument(flag, **spec)

    solve_lp = subs.add_parser("solve-lp", help="solve an LP fixture file")
    solve_lp.add_argument("file")

    run_p = subs.add_parser("run-perceptron", help="run on an instance fixture file")
    run_p.add_argument("file")
    run_p.add_argument("--cap", type=int, default=100000)
    run_p.add_argument("--rule", choices=RULES, default="lowest_index")

    verify = subs.add_parser("verify-report",
                             help="recompute aggregates from per-trial records")
    verify.add_argument("file")
    return parser


def _config_argv(command: str, path: str) -> list:
    """The flags that a key = value config file stands for.

    A key is a long flag name of the command, with _ or -. List values split
    on commas and whitespace, a switch takes true/false (yes/no, on/off,
    1/0), and any other value stays one --key=value token.
    """
    flags = _flags(command)
    argv = []
    for line in read_text_file(path, "config file").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"malformed config line: {line!r}")
        key, _, raw = (part.strip() for part in line.partition("="))
        flag = "--" + key.replace("_", "-")
        if flag not in flags or flag == "--config":
            raise ConfigError(f"unknown config key for {command}: {key}")
        spec = flags[flag]
        if spec.get("nargs") == "+":
            argv += [flag, *raw.replace(",", " ").split()]
        elif spec.get("action") == "store_true":
            if raw.lower() not in _SWITCH_VALUES:
                raise ConfigError(f"config key {key}: expected true or false, not {raw!r}")
            argv += [flag] if _SWITCH_VALUES[raw.lower()] else []
        else:
            argv.append(f"{flag}={raw}")
    return argv


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    kind = KIND_BY_COMMAND[args.command]
    options = vars(args)
    cfg = ExperimentConfig(kind=kind, **{f: options[f] for f in KINDS[kind].fields if f in options})
    if args.per_trial and args.format != "json":
        raise ConfigError("--per-trial requires --format json")
    if "output_path" not in options:
        raise ConfigError("--out is required")
    if os.path.basename(args.output_path) in ("", os.curdir, os.pardir):
        raise ConfigError(f"--out names no file: {args.output_path!r}")
    out_dir = os.path.dirname(os.path.abspath(args.output_path))
    if not os.path.isdir(out_dir):
        raise ConfigError(f"output directory does not exist: {out_dir}")
    if os.path.isdir(args.output_path):
        raise ConfigError(f"--out is a directory: {args.output_path}")
    if args.jobs < 1:   # refused here too, before run_experiment loads numpy
        raise ConfigError("jobs must be at least 1")
    validate_config(cfg)
    return cfg


def run_experiment(cfg: ExperimentConfig, jobs: int = 1):
    from . import experiments   # imported here: only a command that runs trials loads numpy
    return experiments.run_experiment(cfg, jobs)


def _run_solve_lp(args) -> int:
    from .polytope import parse_lp
    from .simplex import solve
    lp = parse_lp(read_text_file(args.file, "LP file"))
    trace = solve(lp)
    doc = trace.to_json_dict()
    if trace.status == "optimal":
        doc["x"] = [float(v) for v in trace.vertex.point]
        doc["value"] = trace.objective_value(lp)
    print(json.dumps(doc, sort_keys=True))
    return 0


def _run_perceptron_file(args) -> int:
    from .perceptron import parse_instance, run_perceptron, wiggle_rooms
    inst = parse_instance(read_text_file(args.file, "instance file"))
    nu = wiggle_rooms([inst])[0]
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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # file flags go first, so the flags given on the command line win
            args = parser.parse_args(argv[:1] + _config_argv(args.command, args.config)
                                     + argv[1:])
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
        cfg = _experiment_config(args)
        report = run_experiment(cfg, jobs=args.jobs)
        write_report(report, args.output_path, args.format, per_trial=args.per_trial)
        return 0
    except OutOfRegimeError as exc:
        print(f"out of regime: {exc}", file=sys.stderr)
        return 2
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return 3
    except (SmoothlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    code = cli_main()
    # the report is written and any pool shut down: skip the interpreter's teardown
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
