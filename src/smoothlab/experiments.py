"""Monte Carlo experiment harness.

Each experiment kind is a row of the KINDS table, run by run_experiment: a
validated ExperimentConfig, pre-flight gates, one independent seed stream
per trial (so parallel and serial runs agree bit for bit), block workers
that turn contiguous stream ranges into JSON-friendly per-trial records,
and a pure aggregation step turning those records into report rows. The
aggregation functions double as the replay verifier: re-running them on the
per-trial records stored in a report must reproduce the report rows exactly.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import bounds
from .errors import ConfigError, InvalidInputError, SizeLimitError, UnboundedShadowError
from .numkit import inverse_norm, norm, parse_table
from .perceptron import RULES, PerceptronInstance, run_perceptron, wiggle_rooms
from .perturb import block_streams
from .polytope import LinearProgram, basis_chunks, brute_force_optimum, shadow_polygon
from .reports import SCHEMA_VERSION, Report, read_text_file
from .simplex import solve

BUILTIN_CENTERS = ("zero", "ones", "box", "stretched")
MATRIX_CENTERS = ("zero", "ones")   # the built-in centers tail-matrix takes
PROFILE_CENTERS = ("box", "stretched", "ones")   # what any built-in smoothed-profile center runs
SUBMATRIX_BUDGET = 100_000
PROFILE_ITERATION_CAP = 100_000
MEASURES = ("simplex_pivots", "perceptron_iterations")
FIELD_TYPES = {"kind": str, "n": int, "d": int, "trials": int, "master_seed": int,
               "center_source": str, "exhaustive": bool, "rule": str, "measure": str}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    n: int = 0
    d: int = 0
    sigma_grid: tuple = ()
    thresholds: tuple = ()
    trials: int = 1
    master_seed: int = 0
    center_source: str = "zero"    # zero | ones | box | stretched | a file path
    exhaustive: bool = False       # rademacher_tail: enumerate all sign matrices
    rule: str = "lowest_index"     # perceptron selection rule
    measure: str = "simplex_pivots"  # smoothed_profile measure

    def __post_init__(self):
        for name in ("sigma_grid", "thresholds"):   # a replayed grid is JSON from outside
            grid = getattr(self, name)
            if not isinstance(grid, (list, tuple)) or not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool) for v in grid):
                raise ConfigError(f"{name} must be a list of numbers")
            object.__setattr__(self, name, tuple(float(v) for v in grid))


def _validate(cfg: ExperimentConfig) -> None:
    for name, want in FIELD_TYPES.items():   # a replayed config is JSON from outside
        value = getattr(cfg, name)
        if not isinstance(value, want) or (want is int and isinstance(value, bool)):
            raise ConfigError(f"{name} must be of type {want.__name__}, not {type(value).__name__}")
    if cfg.kind not in KINDS:
        raise ConfigError(f"unknown experiment kind: {cfg.kind}")
    fields = KINDS[cfg.kind].fields
    if cfg.trials < 1:
        raise ConfigError("trials must be at least 1")
    if cfg.master_seed < 0 or cfg.master_seed >= 2 ** 64:
        raise ConfigError("master_seed must be a 64-bit unsigned integer")
    if cfg.rule not in RULES:
        raise ConfigError(f"unknown perceptron rule: {cfg.rule}")
    if cfg.measure not in MEASURES:
        raise ConfigError(f"unknown profile measure: {cfg.measure}")
    if "thresholds" in fields and not cfg.thresholds:
        raise ConfigError(f"{cfg.kind} requires at least one threshold")
    if not all(0 < t < math.inf for t in cfg.thresholds):
        raise ConfigError("thresholds must be finite and positive")
    if "sigma_grid" in fields:
        if not cfg.sigma_grid:
            raise ConfigError(f"{cfg.kind} requires a sigma grid")
        if cfg.kind != "smoothed_profile" and any(s <= 0 for s in cfg.sigma_grid):
            raise ConfigError("sigma values must be positive")
        if any(s < 0 or not math.isfinite(s) for s in cfg.sigma_grid):
            raise ConfigError("sigma values must be finite and nonnegative")
    if cfg.d < 1:
        raise ConfigError("d must be at least 1")
    # a profile center file sets its own n
    file_profile = cfg.kind == "smoothed_profile" and cfg.center_source not in BUILTIN_CENTERS
    if "n" in fields and not file_profile and cfg.n < 1:
        raise ConfigError("n must be at least 1")


# ---------------------------------------------------------------------------
# centers

def center_matrix(cfg: ExperimentConfig) -> np.ndarray:
    """d x d center for matrix-tail experiments: zero, ones or a center file."""
    if cfg.center_source in MATRIX_CENTERS:
        return (np.zeros if cfg.center_source == "zero" else np.ones)((cfg.d, cfg.d))
    if cfg.center_source in BUILTIN_CENTERS:
        raise ConfigError(f"tail-matrix takes --center zero, ones or a FILE, not {cfg.center_source}")
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
    g = np.stack([rng.standard_normal(center.shape)
                  for rng in block_streams(cfg.master_seed, first, count)])
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
    cfg, centers, sigma, first, count = args
    tau = bounds.submatrix_bounds(cfg.n, cfg.d, sigma)[0]
    chunks = list(basis_chunks(cfg.n, cfg.d))
    sums = []
    for rng in block_streams(cfg.master_seed, first, count):
        pts = centers + sigma * rng.standard_normal(centers.shape)
        # submatrices with columns a_i, i in I, for every d-subset I
        sums.append(sum(int(np.count_nonzero(inverse_norm(pts[idx].transpose(0, 2, 1)) >= tau))
                        for idx in chunks))
    return sums


def _block_perceptron_tail(args):
    """Trial s draws its points from stream s; the block's margins come from
    one stacked Wolfe run, then each feasible trial runs the update loop."""
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


def _map_blocks(worker, blocks, jobs: int) -> list:
    """worker over blocks, in order; one pool of at most one process per block."""
    if jobs == 1 or len(blocks) == 1:
        return [worker(b) for b in blocks]
    # imported here: a run without a pool does not pay for loading it
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(jobs, len(blocks))) as pool:
        return list(pool.map(worker, blocks))


# ---------------------------------------------------------------------------
# aggregation (pure functions of config + per-trial records)

def _frac(count: int, total: int) -> float:
    return count / total if total else 0.0

def _stderr(p: float, trials: int) -> float:
    return math.sqrt(p * (1.0 - p) / trials) if trials else 0.0


def aggregate_matrix_tail(cfg: ExperimentConfig, per_trial: list) -> list:
    rows = []
    for block in per_trial:
        sigma = float(block["sigma"])
        values = [float(v) for v in block["values"]]
        trials = len(values)
        for t in cfg.thresholds:
            p = _frac(sum(1 for v in values if v > t), trials)
            rows.append({
                "sigma": sigma,
                "threshold": t,
                "empirical": p,
                "stderr": _stderr(p, trials),
                **bounds.matrix_tail_bounds(cfg.d, sigma, t, cfg.center_source == "zero"),
            })
    return rows


def aggregate_rademacher_tail(cfg: ExperimentConfig, per_trial: list) -> list:
    values = [float(v) for v in per_trial[0]["values"]]
    trials = len(values)
    singular = sum(1 for v in values if math.isinf(v))
    sfreq = _frac(singular, trials)
    rows = []
    for t in cfg.thresholds:
        p = _frac(sum(1 for v in values if v > t), trials)
        rows.append({
            "threshold": t,
            "empirical": p,
            "stderr": _stderr(p, trials),
            "bound_conjecture2": bounds.conjecture2_bound(cfg.d, t),
            "bound_status": "conjectural",
            "singularity_freq": sfreq,
        })
    return rows


def aggregate_shadow_size(cfg: ExperimentConfig, per_trial: list) -> list:
    rows = []
    for block in per_trial:
        sigma = float(block["sigma"])
        counts = block["counts"]
        bounded = [int(c) for c in counts if c != "unbounded"]
        rows.append({
            "sigma": sigma,
            "trials": len(counts),
            "bounded_trials": len(bounded),
            "unbounded_trials": len(counts) - len(bounded),
            "mean_vertices": sum(bounded) / len(bounded) if bounded else None,
            "max_vertices": max(bounded) if bounded else None,
            "bound_expected_vertices": bounds.shadow_size_bound(cfg.n, cfg.d, sigma),
        })
    return rows


def aggregate_simplex_pivots(cfg: ExperimentConfig, per_trial: list) -> list:
    rows = []
    for block in per_trial:
        sigma = float(block["sigma"])
        recs = block["records"]
        pivots = [r["pivots"] for r in recs if r["status"] in ("optimal", "unbounded")]
        agrees = sum(1 for r in recs if r["agree"])
        checked = [r for r in recs if r["within_hull"] is not None]
        rows.append({
            "sigma": sigma,
            "trials": len(recs),
            "mean_pivots": sum(pivots) / len(pivots) if pivots else None,
            "median_pivots": statistics.median(pivots) if pivots else None,
            "max_pivots": max(pivots) if pivots else None,
            "oracle_match_frac": _frac(agrees, len(recs)),
            "hull_checked": len(checked),
            "hull_bound_violations": sum(1 for r in checked if not r["within_hull"]),
        })
    return rows


def aggregate_perceptron_tail(cfg: ExperimentConfig, per_trial: list) -> list:
    rows = []
    for block in per_trial:
        sigma = float(block["sigma"])
        recs = block["records"]
        feas = [r for r in recs if r["feasible"]]
        infeasible_freq = _frac(len(recs) - len(feas), len(recs))
        violations = sum(1 for r in feas if not r["within"])
        for t in cfg.thresholds:
            exceed = sum(1 for r in feas if r["nu"] > 0 and 1.0 / r["nu"] > t)
            p = _frac(exceed, len(feas))
            raw = bounds.blum_dunagan_tail(cfg.n, cfg.d, sigma, t)
            clamped = min(max(raw, 0.0), 1.0)
            vacuous = raw <= 0.0 or raw >= 1.0
            rows.append({
                "sigma": sigma,
                "threshold": t,
                "empirical": p,
                "stderr": _stderr(p, len(feas)),
                "bound_blum_dunagan": clamped,
                "bound_raw": raw,
                "vacuous": vacuous,
                "infeasible_freq": infeasible_freq,
                "feasible_trials": len(feas),
                "iteration_bound_violations": violations,
            })
    return rows


def aggregate_submatrix(cfg: ExperimentConfig, per_trial: list) -> list:
    rows = []
    n, d = cfg.n, cfg.d
    for block in per_trial:
        sigma = float(block["sigma"])
        tau, rhs, prob_bound = bounds.submatrix_bounds(n, d, sigma)
        sums = [int(s) for s in block["sums"]]
        events = sum(1 for s in sums if d / 2 * s < rhs)
        rows.append({
            "sigma": sigma,
            "trials": len(sums),
            "indicator_threshold": tau,
            "mean_indicator_sum": sum(sums) / len(sums),
            "lhs_mean": d / 2 * (sum(sums) / len(sums)),
            "rhs": rhs,
            "event_freq": _frac(events, len(sums)),
            "stated_probability_bound": prob_bound,
        })
    return rows


def aggregate_profile(cfg: ExperimentConfig, per_trial: list) -> list:
    rows = []
    by_sigma = {}
    for block in per_trial:
        sigma = float(block["sigma"])
        measures = [float(r["measure"]) for r in block["records"]]
        mean = sum(measures) / len(measures)
        if len(measures) > 1:
            var = sum((m - mean) ** 2 for m in measures) / (len(measures) - 1)
            halfwidth = 1.96 * math.sqrt(var / len(measures))
        else:
            halfwidth = 0.0
        rows.append({
            "center_id": block["center_id"],
            "sigma": sigma,
            "mean_measure": mean,
            "confidence_halfwidth": halfwidth,
            "is_smoothed_estimate": False,
        })
        by_sigma.setdefault(sigma, []).append(mean)
    for sigma in sorted(by_sigma):
        rows.append({
            "center_id": "max_over_centers",
            "sigma": sigma,
            "mean_measure": max(by_sigma[sigma]),
            "confidence_halfwidth": None,
            "is_smoothed_estimate": True,
        })
    return rows


# ---------------------------------------------------------------------------
# pre-flight: regime and size gates, then the trial groups and report notes.
# A group is (per-trial entry header, block payload, trial count); group g
# owns the streams after those of groups 0 .. g-1.

def _sigma_groups(cfg: ExperimentConfig, payload) -> list:
    return [({"sigma": sigma}, payload, cfg.trials) for sigma in cfg.sigma_grid]


def _prepare_points(cfg: ExperimentConfig):
    """The kinds that perturb n point centers: one group per sigma, after its regime gate."""
    for sigma in cfg.sigma_grid:
        KINDS[cfg.kind].gate(cfg.n, cfg.d, sigma)
    centers = point_centers(cfg)
    notes = [f"sigma={sigma}: {m}" for sigma in cfg.sigma_grid
             for m in bounds.regime_notes(norm(centers, axis=1), cfg.d, sigma)]
    return _sigma_groups(cfg, centers), notes


def _prepare_matrix_tail(cfg: ExperimentConfig):
    groups = _sigma_groups(cfg, center_matrix(cfg))
    if all(bounds.edelman_applies(cfg.center_source == "zero", s) for s in cfg.sigma_grid):
        return groups, []
    return groups, ["bound_edelman applies only to zero center with sigma = 1"]


def _prepare_rademacher(cfg: ExperimentConfig):
    trials = cfg.trials
    if cfg.exhaustive:
        if cfg.d * cfg.d > 20:
            raise SizeLimitError("exhaustive enumeration limited to d*d <= 20")
        trials = 2 ** (cfg.d * cfg.d)
    return [({}, None, trials)], ["Conjecture-2 bound is conjectural; measured, never asserted"]


def _prepare_submatrix(cfg: ExperimentConfig):
    if math.comb(cfg.n, cfg.d) > SUBMATRIX_BUDGET:
        raise SizeLimitError(
            f"C({cfg.n},{cfg.d}) exceeds the submatrix budget {SUBMATRIX_BUDGET}")
    groups, notes = _prepare_points(cfg)
    return groups, ["the stated inequality direction is evaluated literally; "
                    "both sides reported"] + notes


def profile_center_set(cfg: ExperimentConfig) -> list:
    """Centers probed by the smoothed-complexity estimator.

    The true worst case maximizes over all inputs; here the maximum is over
    this finite configured set, and reports label it accordingly.
    """
    if cfg.center_source not in BUILTIN_CENTERS:
        return [("file", read_center_file(cfg, None))]
    return [(src, point_centers(replace(cfg, center_source=src))) for src in PROFILE_CENTERS]


def _prepare_profile(cfg: ExperimentConfig):
    """Per-center trial means under relative perturbation, max over centers.

    At sigma = 0 the estimate collapses to the deterministic worst case over
    the center set; a single center gives the plain average-case estimate.
    """
    centers = profile_center_set(cfg)
    groups = [({"sigma": sigma, "center_id": center_id}, data, cfg.trials)
              for sigma in cfg.sigma_grid for center_id, data in centers]
    return groups, ["smoothed estimate is a max over the tested centers only"]


# ---------------------------------------------------------------------------
# the experiment table and its one runner

@dataclass(frozen=True)
class Kind:
    command: str           # CLI subcommand
    fields: tuple          # ExperimentConfig fields the command sets, one flag each
    block: Callable        # block worker, see above
    key: str               # name of the record list in a per-trial entry
    prepare: Callable      # cfg -> (groups, notes), raising on a failed gate
    aggregate: Callable    # (cfg, per_trial) -> report rows, whose keys are the columns
    block_trials: int = LOOP_BLOCK_TRIALS
    centers: tuple = BUILTIN_CENTERS   # the built-in --center values, if it takes --center
    center_set: bool = False   # every built-in --center value runs all of centers at once
    gate: Callable = lambda n, d, sigma: None   # raises OutOfRegimeError outside the regime


_SHARED_FIELDS = ("d", "trials", "master_seed")
_POINT_FIELDS = _SHARED_FIELDS + ("n", "sigma_grid", "center_source")

KINDS = {
    "matrix_tail": Kind("tail-matrix",
                        _SHARED_FIELDS + ("sigma_grid", "thresholds", "center_source"),
                        _block_matrix_tail, "values", _prepare_matrix_tail,
                        aggregate_matrix_tail, BLOCK_TRIALS, MATRIX_CENTERS),
    "rademacher_tail": Kind("tail-rademacher", _SHARED_FIELDS + ("thresholds", "exhaustive"),
                            _block_rademacher, "values", _prepare_rademacher,
                            aggregate_rademacher_tail, BLOCK_TRIALS),
    "shadow_size": Kind("shadow-size", _POINT_FIELDS, _block_shadow_size, "counts",
                        _prepare_points, aggregate_shadow_size, gate=bounds.shadow_size_bound),
    "simplex_pivots": Kind("simplex-pivots", _POINT_FIELDS, _block_simplex_pivots, "records",
                           _prepare_points, aggregate_simplex_pivots),
    "perceptron_tail": Kind("tail-perceptron", _POINT_FIELDS + ("thresholds", "rule"),
                            _block_perceptron_tail, "records", _prepare_points,
                            aggregate_perceptron_tail, WOLFE_BLOCK_TRIALS,
                            gate=bounds.blum_dunagan_regime),
    "submatrix_lemma": Kind("submatrix-lemma", _POINT_FIELDS, _block_submatrix, "sums",
                            _prepare_submatrix, aggregate_submatrix, BLOCK_TRIALS,
                            gate=bounds.submatrix_regime),
    "smoothed_profile": Kind("smoothed-profile", _POINT_FIELDS + ("measure",), _block_profile,
                             "records", _prepare_profile, aggregate_profile,
                             centers=PROFILE_CENTERS, center_set=True),
}


def aggregate_rows(cfg: ExperimentConfig, per_trial: list) -> list:
    """Report rows from per-trial records, for a run and for its replay."""
    return KINDS[cfg.kind].aggregate(cfg, per_trial)


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> Report:
    """Run every trial of cfg in blocks, over at most `jobs` processes."""
    if jobs < 1:
        raise ConfigError("jobs must be at least 1")
    _validate(cfg)
    kind = KINDS[cfg.kind]
    groups, notes = kind.prepare(cfg)
    blocks, first = [], 0
    for header, payload, trials in groups:
        for start in range(0, trials, kind.block_trials):
            blocks.append((cfg, payload, header.get("sigma"), first + start,
                           min(kind.block_trials, trials - start)))
        first += trials
    records = [r for block in _map_blocks(kind.block, blocks, jobs) for r in block]
    per_trial, first = [], 0
    for header, _, trials in groups:
        per_trial.append({**header, kind.key: records[first:first + trials]})
        first += trials
    rows = aggregate_rows(cfg, per_trial)
    return Report(schema=f"{cfg.kind}.{SCHEMA_VERSION}", config=asdict(cfg),
                  columns=list(rows[0]), rows=rows, warnings=notes, per_trial=per_trial)


def replay_rows(report_dict: dict) -> list:
    """Recompute report rows from the per-trial records of a saved report, whose
    config must pass a run's checks; malformed fields raise InvalidInputError."""
    if report_dict.get("per_trial") is None:
        raise InvalidInputError("report has no per-trial records; rerun with --per-trial")
    try:
        cfg = ExperimentConfig(**report_dict["config"])
        _validate(cfg)
        return aggregate_rows(cfg, report_dict["per_trial"])
    except KeyError as exc:
        raise InvalidInputError(f"malformed report: missing or unknown key {exc}") from exc
    except (ConfigError, IndexError, ArithmeticError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed report: {exc}") from exc


def verify_replay(report_dict: dict) -> bool:
    """True when the saved rows match a recomputation from per-trial records."""
    return replay_rows(report_dict) == report_dict.get("rows")
