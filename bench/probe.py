"""Fresh-interpreter probe of the set-up a user pays before the first trial.

    python3 bench/probe.py ARGV_JSON

ARGV_JSON is a JSON list of CLI argument lists. The probe imports
smoothlab.cli, then runs each argument list through ``cli_main`` exactly as
the CLI would, except that ``run_experiment`` is replaced by a stub that
builds the experiment's centers and stops before the first trial. It
prints one JSON line with the import time, the versions and the file
smoothlab was imported from.
"""

from __future__ import annotations

import json
import sys
import time

_start = time.perf_counter()
import smoothlab.cli as cli  # noqa: E402  (the import is what is timed)

IMPORT_S = time.perf_counter() - _start

import numpy  # noqa: E402
from smoothlab import experiments  # noqa: E402


class _Stop(Exception):
    """Raised where the first trial would start."""


def _build_centers(cfg, jobs=1):
    if cfg.kind == "matrix_tail":
        experiments.center_matrix(cfg)
    elif cfg.kind == "smoothed_profile":
        experiments.profile_center_set(cfg)
    elif cfg.kind != "rademacher_tail":
        experiments.point_centers(cfg)
    raise _Stop


def main(argvs: list) -> None:
    cli.run_experiment = _build_centers
    for argv in argvs:
        try:
            rc = cli.cli_main(argv)
        except _Stop:
            continue
        sys.exit(f"probe: {argv[0]} exited with code {rc} before its first trial")
    print(json.dumps({
        "import_s": IMPORT_S,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "smoothlab": cli.__file__,
    }))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
