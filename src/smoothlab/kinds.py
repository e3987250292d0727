"""The experiment kinds as data: KINDS, ExperimentConfig, every check and the trial
groups of a run, the aggregators and the replay. It loads no numpy, nor do refusals."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from . import bounds
from .errors import ConfigError, InvalidInputError, SizeLimitError
from .reports import SCHEMA_VERSION

BUILTIN_CENTERS = ("zero", "ones", "box", "stretched")
MATRIX_CENTERS = ("zero", "ones")   # the built-in centers tail-matrix takes
PROFILE_CENTERS = ("box", "stretched", "ones")   # what any built-in smoothed-profile center runs
MEASURES = ("simplex_pivots", "perceptron_iterations")
RULES = ("lowest_index", "most_violated")   # run_perceptron selection rules
FIELD_TYPES = {"kind": str, "n": int, "d": int, "trials": int, "master_seed": int,
               "center_source": str, "exhaustive": bool, "rule": str, "measure": str}
SUBMATRIX_BUDGET = 100_000   # d-subsets a submatrix-lemma trial may scan
MAX_BASES = 1_000_000        # d-subsets an LP scan may solve (polytope.basis_chunks)


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


def validate_config(cfg: ExperimentConfig) -> None:
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
    kind = KINDS[cfg.kind]
    src = cfg.center_source   # a center set takes every built-in center
    if src in BUILTIN_CENTERS and src not in kind.centers and not kind.center_set:
        raise ConfigError(f"{kind.command} takes --center {', '.join(kind.centers)} or a FILE, "
                          f"not {src}")
    if "exhaustive" in fields and cfg.exhaustive and cfg.d * cfg.d > 20:
        raise SizeLimitError("exhaustive enumeration limited to d*d <= 20")
    if cfg.kind == "submatrix_lemma" and math.comb(cfg.n, cfg.d) > SUBMATRIX_BUDGET:
        raise SizeLimitError(f"C({cfg.n},{cfg.d}) exceeds the submatrix budget {SUBMATRIX_BUDGET}")
    # the LP kinds' basis scans; the n of a profile center file is checked at its scan
    lp_scan = cfg.kind in ("shadow_size", "simplex_pivots", "smoothed_profile")
    if lp_scan and cfg.measure == "simplex_pivots" and not file_profile:
        check_bases(cfg.n, cfg.d)
    for sigma in cfg.sigma_grid:
        kind.gate(cfg.n, cfg.d, sigma)


def check_bases(n: int, d: int) -> None:
    """Refuse a scan of the C(n, d) d-subsets of n constraints past MAX_BASES."""
    if math.comb(n, d) > MAX_BASES:
        raise SizeLimitError(f"C({n},{d}) = {math.comb(n, d)} exceeds the budget {MAX_BASES}")


def trial_groups(cfg: ExperimentConfig) -> list:
    """(per-trial entry header, trial count) of each group of cfg's trials in stream
    order, for a run and its replay: a sigma of the grid, times a center of a center
    set; tail-rademacher has one group, of 2^(d*d) trials if exhaustive."""
    kind = KINDS[cfg.kind]
    if "sigma_grid" not in kind.fields:
        return [({}, 2 ** (cfg.d * cfg.d) if cfg.exhaustive else cfg.trials)]
    if not kind.center_set:
        return [({"sigma": sigma}, cfg.trials) for sigma in cfg.sigma_grid]
    ids = kind.centers if cfg.center_source in BUILTIN_CENTERS else ("file",)
    return [({"sigma": sigma, "center_id": center_id}, cfg.trials)
            for sigma in cfg.sigma_grid for center_id in ids]


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


@dataclass(frozen=True)
class Kind:   # a row of the experiment table; experiments.RUNS says how each kind runs
    command: str           # CLI subcommand
    fields: tuple          # ExperimentConfig fields the command sets, one flag each
    key: str               # name of the record list in a per-trial entry
    aggregate: Callable    # (cfg, per_trial) -> report rows, whose keys are the columns
    centers: tuple = BUILTIN_CENTERS   # the built-in --center values, if it takes --center
    center_set: bool = False   # every built-in --center value runs all of centers at once
    gate: Callable = lambda n, d, sigma: None   # raises OutOfRegimeError outside the regime
    notes: Callable = lambda cfg: []   # cfg -> the report's first warnings


def _edelman_notes(cfg: ExperimentConfig) -> list:
    if all(bounds.edelman_applies(cfg.center_source == "zero", s) for s in cfg.sigma_grid):
        return []
    return ["bound_edelman applies only to zero center with sigma = 1"]


_SHARED_FIELDS = ("d", "trials", "master_seed")
_POINT_FIELDS = _SHARED_FIELDS + ("n", "sigma_grid", "center_source")

KINDS = {
    "matrix_tail": Kind("tail-matrix",
                        _SHARED_FIELDS + ("sigma_grid", "thresholds", "center_source"),
                        "values", aggregate_matrix_tail, MATRIX_CENTERS, notes=_edelman_notes),
    "rademacher_tail": Kind("tail-rademacher", _SHARED_FIELDS + ("thresholds", "exhaustive"),
                            "values", aggregate_rademacher_tail, notes=lambda cfg: [
                                "Conjecture-2 bound is conjectural; measured, never asserted"]),
    "shadow_size": Kind("shadow-size", _POINT_FIELDS, "counts", aggregate_shadow_size,
                        gate=bounds.shadow_size_bound),
    "simplex_pivots": Kind("simplex-pivots", _POINT_FIELDS, "records",
                           aggregate_simplex_pivots),
    "perceptron_tail": Kind("tail-perceptron", _POINT_FIELDS + ("thresholds", "rule"),
                            "records", aggregate_perceptron_tail,
                            gate=bounds.blum_dunagan_regime),
    "submatrix_lemma": Kind("submatrix-lemma", _POINT_FIELDS, "sums", aggregate_submatrix,
                            gate=bounds.submatrix_regime, notes=lambda cfg: [
                                "the stated inequality direction is evaluated literally; "
                                "both sides reported"]),
    "smoothed_profile": Kind("smoothed-profile", _POINT_FIELDS + ("measure",), "records",
                             aggregate_profile, PROFILE_CENTERS, center_set=True,
                             notes=lambda cfg: [
                                 "smoothed estimate is a max over the tested centers only"]),
}


def aggregate_rows(cfg: ExperimentConfig, per_trial: list) -> list:
    """Report rows from per-trial records, for a run and for its replay."""
    return KINDS[cfg.kind].aggregate(cfg, per_trial)


def replay_rows(report_dict: dict) -> list:
    """Recompute report rows from the per-trial records of a saved report, whose
    config must pass a run's checks, and whose schema, columns and per-trial
    group headers and sizes must be those of its kind; malformed fields raise
    InvalidInputError, and a config a run refuses raises as the run does."""
    if report_dict.get("per_trial") is None:
        raise InvalidInputError("report has no per-trial records; rerun with --per-trial")
    try:
        cfg = ExperimentConfig(**report_dict["config"])
        validate_config(cfg)
        per_trial = report_dict["per_trial"]
        rows = aggregate_rows(cfg, per_trial)
        schema, columns = f"{cfg.kind}.{SCHEMA_VERSION}", list(rows[0])
        if report_dict.get("schema") != schema:
            raise ValueError(f"schema is {report_dict.get('schema')!r}, not {schema!r}")
        if report_dict.get("columns") != columns:
            raise ValueError(f"columns are {report_dict.get('columns')!r}, not {columns!r}")
        key, groups = KINDS[cfg.kind].key, trial_groups(cfg)
        if len(per_trial) != len(groups):
            raise ValueError(f"report holds {len(per_trial)} per-trial groups, not {len(groups)}")
        for g, (group, (header, trials)) in enumerate(zip(per_trial, groups)):
            labels = {k: v for k, v in group.items() if k != key}
            if labels != header:
                raise ValueError(f"per-trial group {g} is {labels}, not {header}")
            if len(group[key]) != trials:
                raise ValueError(f"per-trial group {g} holds {len(group[key])} records, "
                                 f"not {trials}")
        return rows
    except KeyError as exc:
        raise InvalidInputError(f"malformed report: missing or unknown key {exc}") from exc
    except (ConfigError, IndexError, ArithmeticError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed report: {exc}") from exc


def verify_replay(report_dict: dict) -> bool:
    """True when the saved rows match a recomputation from per-trial records."""
    return replay_rows(report_dict) == report_dict.get("rows")

