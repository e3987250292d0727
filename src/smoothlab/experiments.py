"""Monte Carlo experiment harness: run_experiment runs the trial groups of
kinds.trial_groups with its kind's row of RUNS and one seed stream per trial
(so parallel and serial runs agree bit for bit); block workers, which import
the kernels they run, turn contiguous stream ranges into per-trial records.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, replace

import numpy as np

from . import bounds
from .errors import ConfigError, InvalidInputError, UnboundedShadowError
from .kinds import (BUILTIN_CENTERS, KINDS, MATRIX_CENTERS, PROFILE_CENTERS, ExperimentConfig,
                    aggregate_rows, trial_groups, validate_config)
from .numkit import inverse_norm, norm, parse_table
from .perturb import block_streams
from .reports import SCHEMA_VERSION, Report, read_text_file

PROFILE_ITERATION_CAP = 100_000


# ---------------------------------------------------------------------------
# centers

def center_matrix(cfg: ExperimentConfig) -> np.ndarray:
    """d x d center for matrix-tail experiments: zero, ones or a center file."""
    if cfg.center_source in MATRIX_CENTERS:
        return (np.zeros if cfg.center_source == "zero" else np.ones)((cfg.d, cfg.d))
    return read_center_file(cfg, cfg.d)


def read_center_file(cfg: ExperimentConfig, n: int | None) -> np.ndarray:
    """The centers in the file cfg.center_source, in the instance format:
    n rows (any number if n is None) of cfg.d finite entries and finite
    norm; zero rows are allowed, as with the zero center."""
    try:
        m = parse_table(read_text_file(cfg.center_source, "center file"), "instance file")[0]
    except InvalidInputError as exc:
        raise ConfigError(f"cannot read center file: {exc}") from exc
    want = (m.shape[0] if n is None else n, cfg.d)
    if m.shape != want:
        raise ConfigError(f"center file has shape {m.shape}, expected {want}")
    if not np.all(np.isfinite(m)):
        raise ConfigError("center file entries must be finite")
    if not np.all(np.isfinite(norm(m, axis=1))):
        raise ConfigError("every point's norm must be finite")
    return m


def point_centers(cfg: ExperimentConfig) -> np.ndarray:
    """n x d row centers for point-perturbation experiments.

    "zero" is the origin for every row; "ones" the unit-normalized all-ones
    vector; "box" cycles through +-e_k (a cross-polytope of constraint
    normals); "stretched" is the box with axis k shrunk geometrically, a
    mildly adversarial elongated polytope. Anything else is a center file.
    """
    n, d = cfg.n, cfg.d
    src = cfg.center_source
    if src == "zero":
        return np.zeros((n, d))
    if src == "ones":
        return np.tile(np.ones(d) / math.sqrt(d), (n, 1))
    if src in ("box", "stretched"):
        rows = np.zeros((n, d))
        for i in range(n):
            k = i % d
            sign = 1.0 if (i // d) % 2 == 0 else -1.0
            scale = 5.0 ** (-k) if src == "stretched" else 1.0
            rows[i, k] = sign * scale
        return rows
    return read_center_file(cfg, n)


def profile_center_set(cfg: ExperimentConfig) -> list:
    """Centers probed by the smoothed-complexity estimator. The true worst case
    maximizes over all inputs; here the maximum is over this finite configured
    set (at sigma = 0, the deterministic worst case over it), and reports label
    it accordingly."""
    if cfg.center_source not in BUILTIN_CENTERS:
        return [("file", read_center_file(cfg, None))]
    return [(src, point_centers(replace(cfg, center_source=src))) for src in PROFILE_CENTERS]


# ---------------------------------------------------------------------------
# block workers (top-level so process pools can pickle them)
#
# A block worker takes (cfg, payload, sigma, first trial, count) and returns
# the records of trials first .. first + count - 1 in order. Every trial
# draws from its own streams, so how trials fall into blocks, and blocks
# onto processes, never changes a record.

BLOCK_TRIALS = 1024      # trials per block of the kinds batched into one SVD
# Loop kinds spend milliseconds per trial, so small blocks cost nothing and
# let --jobs split runs of a few dozen trials.
LOOP_BLOCK_TRIALS = 16
# tail-perceptron runs a block's Wolfe min-norm points in lockstep, which pays
# per step rather than per trial: 64 trials per block give most of the speed
# of 256 for about a quarter of its extra memory (see CHANGES.md).
WOLFE_BLOCK_TRIALS = 64


def _block_matrix_tail(args):
    cfg, center, sigma, first, count = args
    g = np.empty((count, *center.shape))
    for i, rng in enumerate(block_streams(cfg.master_seed, first, count)):
        rng.standard_normal(out=g[i])   # the draws of standard_normal(center.shape)
    return inverse_norm(center + sigma * g).tolist()


def _block_rademacher(args):
    cfg, _, _, first, count = args
    d = cfg.d
    if cfg.exhaustive:  # "stream" s is the sign matrix whose entry k is bit k of s
        bits = (np.arange(first, first + count)[:, None] >> np.arange(d * d)) & 1
    else:
        bits = np.stack([rng.integers(0, 2, size=(d, d))
                         for rng in block_streams(cfg.master_seed, first, count)])
    return inverse_norm((2.0 * bits - 1.0).reshape(count, d, d)).tolist()


def _block_submatrix(args):
    from .polytope import basis_chunks
    cfg, centers, sigma, first, count = args
    tau = bounds.submatrix_bounds(cfg.n, cfg.d, sigma)[0]
    sums = []
    for rng in block_streams(cfg.master_seed, first, count):
        pts = centers + sigma * rng.standard_normal(centers.shape)
        # submatrices with columns a_i, i in I, for every d-subset I
        sums.append(sum(int(np.count_nonzero(inverse_norm(pts[idx].transpose(0, 2, 1)) >= tau))
                        for idx in basis_chunks(cfg.n, cfg.d)))
    return sums


def _block_perceptron_tail(args):
    """Trial s draws its points from stream s; the block's margins come from
    one stacked Wolfe run, then each feasible trial runs the update loop."""
    from .perceptron import PerceptronInstance, run_perceptron, wiggle_rooms
    cfg, centers, sigma, first, count = args
    insts = [PerceptronInstance(centers + sigma * rng.standard_normal(centers.shape))
             for rng in block_streams(cfg.master_seed, first, count)]
    records = []
    for inst, nu in zip(insts, wiggle_rooms(insts)):
        if nu <= 0.0:
            records.append({"nu": 0.0, "feasible": False, "iterations": None,
                            "bound": None, "within": None})
            continue
        bound = bounds.iteration_bound(nu)
        run = run_perceptron(inst, iteration_cap=bound, rule=cfg.rule)
        records.append({"nu": nu, "feasible": True, "iterations": run.iterations,
                        "bound": bound, "within": bool(run.status == "solved")})
    return records


def _trial_shadow_size(args):
    from .polytope import LinearProgram, shadow_polygon
    cfg, centers, sigma, streams, _ = args
    pts = centers + sigma * next(streams).standard_normal(centers.shape)
    plane_rng = next(streams)
    t = plane_rng.standard_normal(cfg.d)
    lp = LinearProgram(pts, np.ones(cfg.n), plane_rng.standard_normal(cfg.d))
    try:
        poly = shadow_polygon(lp, t)
    except UnboundedShadowError:
        return "unbounded"
    return int(poly.vertex_count)


def _trial_simplex_pivots(args):
    from .polytope import LinearProgram, brute_force_optimum, shadow_polygon
    from .simplex import solve
    cfg, centers, sigma, streams, _ = args
    rows = centers + sigma * next(streams).standard_normal(centers.shape)
    z = next(streams).standard_normal(cfg.d)
    z = z / np.linalg.norm(z)
    lp = LinearProgram(rows, np.ones(cfg.n), z)
    result = solve(lp)
    oracle = brute_force_optimum(lp)
    agree = result.status == oracle.status
    gap = None
    if agree and result.status == "optimal":
        gap = abs(result.objective_value(lp) - oracle.value)
        agree = gap <= 1e-6
    rec = {
        "status": result.status,
        "oracle_status": oracle.status,
        "agree": bool(agree),
        "pivots": result.pivot_count,
        "hull_count": None,
        "within_hull": None,
    }
    if result.status == "optimal":
        try:
            poly = shadow_polygon(lp, result.start_objective)
        except (UnboundedShadowError, InvalidInputError):
            poly = None
        if poly is not None:
            rec["hull_count"] = int(poly.vertex_count)
            rec["within_hull"] = bool(result.pivot_count <= poly.vertex_count)
    return rec


def _trial_profile(args):
    cfg, center, sigma, streams, _ = args
    if cfg.measure == "simplex_pivots":   # kernels loaded after the draw raised peak RSS 0.6 MB
        from .polytope import LinearProgram
        from .simplex import solve
    else:
        from .perceptron import PerceptronInstance, run_perceptron, wiggle_rooms
    rng = next(streams)   # taken even at sigma = 0, where nothing is drawn from it
    scale = sigma * norm(center)
    pert = center + scale * rng.standard_normal(center.shape) if scale else center
    if cfg.measure == "simplex_pivots":
        n, d = center.shape
        z = np.ones(d) / math.sqrt(d)
        lp = LinearProgram(pert, np.ones(n), z)
        result = solve(lp)
        return {"measure": result.pivot_count, "status": result.status}
    # perceptron_iterations
    if not np.all(pert.any(axis=1)):
        return {"measure": 0, "status": "degenerate_zero_row"}
    inst = PerceptronInstance(pert)
    # nu = 0, as in tail-perceptron: record a run to the cap without running it
    if wiggle_rooms([inst])[0] <= 0.0:
        return {"measure": PROFILE_ITERATION_CAP, "status": "iteration_cap_reached"}
    run = run_perceptron(inst, iteration_cap=PROFILE_ITERATION_CAP)
    return {"measure": run.iterations, "status": run.status}


def _each_trial(trial, args, k: int = 1):
    """trial over the block, trial s taking streams k*s .. k*s + k - 1 in order.

    A trial's tuple ends with its first stream index, which bench/tracer.py
    records as the stream of the trial's spans.
    """
    cfg, payload, sigma, first, count = args
    streams = block_streams(cfg.master_seed, k * first, k * count)
    return [trial((cfg, payload, sigma, streams, k * s)) for s in range(first, first + count)]


# the trial functions are looked up at call time, so a wrapper bound to the
# module name (bench/tracer.py) sees every trial
def _block_shadow_size(args):
    return _each_trial(_trial_shadow_size, args, 2)   # points, then the plane


def _block_simplex_pivots(args):
    return _each_trial(_trial_simplex_pivots, args, 2)   # rows, then the objective


def _block_profile(args):
    return _each_trial(_trial_profile, args)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_blocks(worker, blocks, jobs: int) -> list:
    """worker over blocks, in order; one pool of at most one process per block
    and per usable CPU, since the pool starts all of its processes at once."""
    workers = min(jobs, len(blocks), _usable_cpus())
    if workers <= 1:
        return [worker(b) for b in blocks]
    # imported here: a run without a pool does not pay for loading it
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, blocks))


# kind: block worker, payload (cfg -> its centers), trials per block
RUNS = {"matrix_tail": (_block_matrix_tail, center_matrix, BLOCK_TRIALS),
        "rademacher_tail": (_block_rademacher, lambda cfg: None, BLOCK_TRIALS),
        "shadow_size": (_block_shadow_size, point_centers, LOOP_BLOCK_TRIALS),
        "simplex_pivots": (_block_simplex_pivots, point_centers, LOOP_BLOCK_TRIALS),
        "perceptron_tail": (_block_perceptron_tail, point_centers, WOLFE_BLOCK_TRIALS),
        "submatrix_lemma": (_block_submatrix, point_centers, BLOCK_TRIALS),
        "smoothed_profile": (_block_profile, lambda cfg: dict(profile_center_set(cfg)),
                             LOOP_BLOCK_TRIALS)}


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> Report:
    """Run every trial of cfg in blocks, over at most `jobs` processes."""
    if jobs < 1:
        raise ConfigError("jobs must be at least 1")
    validate_config(cfg)
    kind = KINDS[cfg.kind]
    worker, centers, block_trials = RUNS[cfg.kind]
    groups, payload, notes = trial_groups(cfg), centers(cfg), kind.notes(cfg)
    if centers is point_centers:   # warn where the centers leave the bounds' regime
        notes += [f"sigma={sigma}: {m}" for sigma in cfg.sigma_grid
                  for m in bounds.regime_notes(norm(payload, axis=1), cfg.d, sigma)]
    blocks, first = [], 0
    for header, trials in groups:
        data = payload[header["center_id"]] if "center_id" in header else payload
        for start in range(0, trials, block_trials):
            blocks.append((cfg, data, header.get("sigma"), first + start,
                           min(block_trials, trials - start)))
        first += trials
    records = [r for block in _map_blocks(worker, blocks, jobs) for r in block]
    per_trial, first = [], 0
    for header, trials in groups:
        per_trial.append({**header, kind.key: records[first:first + trials]})
        first += trials
    rows = aggregate_rows(cfg, per_trial)
    return Report(schema=f"{cfg.kind}.{SCHEMA_VERSION}", config=asdict(cfg),
                  columns=list(rows[0]), rows=rows, warnings=notes, per_trial=per_trial)
