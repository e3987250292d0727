"""Spans around smoothlab's public functions, recorded from outside.

A traced function is wrapped at every place it is bound: the defining
module, each module that imported it with ``from ... import`` and every
module-level dict that holds it (``RUNNERS``, ``AGGREGATORS``), because
patching the defining module alone misses the calls made through those
names. ``SeedSpec.rng`` is wrapped on the class. A target the code no
longer has is skipped, and its metrics read 0.

Spans are kept in memory as ``[name, start_ns, end_ns, parent, trial]``
lists and written once, by ``Tracer.write``. Spans of one trial carry that
trial's ``SeedSpec.stream_index``: the stream of the trial's first draw, or
the worker's stream argument when the trial draws nothing (sigma = 0).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from collections import Counter

# (span name, defining module, attribute path)
TARGETS = (
    ("perturb.rng", "smoothlab.perturb", "SeedSpec.rng"),
    ("perturb.gaussian_matrix", "smoothlab.perturb", "gaussian_matrix"),
    ("perturb.gaussian_points", "smoothlab.perturb", "gaussian_points"),
    ("perturb.rademacher_matrix", "smoothlab.perturb", "rademacher_matrix"),
    ("perturb.smoothed_input", "smoothlab.perturb", "smoothed_input"),
    ("numkit.inverse_norm", "smoothlab.numkit", "inverse_norm"),
    ("polytope.enumerate_vertices", "smoothlab.polytope", "enumerate_vertices"),
    ("polytope.recession_directions", "smoothlab.polytope", "recession_directions"),
    ("polytope.is_feasible", "smoothlab.polytope", "is_feasible"),
    ("polytope.shadow_polygon", "smoothlab.polytope", "shadow_polygon"),
    ("polytope.convex_hull_2d", "smoothlab.polytope", "convex_hull_2d"),
    ("simplex.find_initial_vertex", "smoothlab.simplex", "find_initial_vertex"),
    ("simplex.shadow_pivot_walk", "smoothlab.simplex", "shadow_pivot_walk"),
    ("perceptron.min_norm_point", "smoothlab.perceptron", "min_norm_point"),
    ("perceptron.run_perceptron", "smoothlab.perceptron", "run_perceptron"),
    ("experiments.run_experiment", "smoothlab.experiments", "run_experiment"),
    ("experiments.verify_replay", "smoothlab.experiments", "verify_replay"),
    ("reports.to_json", "smoothlab.reports", "to_json"),
    ("reports.write_report", "smoothlab.reports", "write_report"),
    ("reports.load_json_report", "smoothlab.reports", "load_json_report"),
)

# module-level functions matched by prefix: (span name, module, prefix)
PREFIX_TARGETS = (
    ("experiments.aggregate", "smoothlab.experiments", "aggregate_"),
    ("experiments.trial", "smoothlab.experiments", "_trial_"),
)

SAMPLERS = ("perturb.gaussian_matrix", "perturb.gaussian_points",
            "perturb.rademacher_matrix", "perturb.smoothed_input")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def comb_rank(subset, n: int) -> int:
    """Position of a sorted d-subset of range(n) in itertools.combinations order."""
    d = len(subset)
    rank, prev = 0, -1
    for k, c in enumerate(subset):
        for v in range(prev + 1, c):
            rank += math.comb(n - 1 - v, d - 1 - k)
        prev = c
    return rank


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.trial = None           # span id of the running trial
        self.streams = {}           # trial span id -> stream index
        self.counts = Counter()
        self._drawn = set()         # trials whose first draw has been seen
        self._patches = []

    # -- observers: counts taken at the boundary where the work happens

    def _on_rng(self, args, kwargs, result, exc):
        trial = self.trial
        if trial is not None and trial not in self._drawn:
            self._drawn.add(trial)
            self.streams[trial] = args[0].stream_index

    def _on_enumerate(self, args, kwargs, result, exc):
        lp = _arg(args, kwargs, 0, "lp")
        if lp.n >= lp.d:
            self.counts["enumerate.bases"] += math.comb(lp.n, lp.d)
        if result is not None:
            self.counts["enumerate.vertices"] += len(result)

    def _on_initial(self, args, kwargs, result, exc):
        lp = _arg(args, kwargs, 0, "lp")
        if result is not None:
            self.counts["initial.bases"] += comb_rank(result[0].tight_set, lp.n) + 1
        elif lp.n >= lp.d:
            self.counts["initial.bases"] += math.comb(lp.n, lp.d)

    def _on_walk(self, args, kwargs, result, exc):
        if result is not None:
            self.counts["walk.pivots"] += result.pivot_count
            self.counts["walk.degenerate"] += bool(result.degenerate)

    def _on_perceptron(self, args, kwargs, result, exc):
        if result is not None:
            self.counts["perceptron.iterations"] += result.iterations
            self.counts["perceptron.capped"] += result.status == "iteration_cap_reached"

    def _on_write(self, args, kwargs, result, exc):
        path = _arg(args, kwargs, 1, "path")
        if exc is None and os.path.exists(path):
            self.counts["reports.bytes"] += os.path.getsize(path)

    OBSERVERS = {
        "perturb.rng": _on_rng,
        "polytope.enumerate_vertices": _on_enumerate,
        "simplex.find_initial_vertex": _on_initial,
        "simplex.shadow_pivot_walk": _on_walk,
        "perceptron.run_perceptron": _on_perceptron,
        "reports.write_report": _on_write,
    }

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        observe = self.OBSERVERS.get(name)
        observe = observe.__get__(self) if observe else None
        is_trial = name == "experiments.trial"
        tracer = self

        def traced(*args, **kwargs):
            sid = len(spans)
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.trial]
            spans.append(rec)
            stack.append(sid)
            if is_trial:
                tracer.trial = rec[4] = sid
                work = args[0] if args else None
                if isinstance(work, tuple):
                    tracer.streams[sid] = work[-1]
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[2] = clock()
                stack.pop()
                if is_trial:
                    tracer.trial = None
                if observe:
                    observe(args, kwargs, None, exc)
                raise
            rec[2] = clock()
            stack.pop()
            if is_trial:
                tracer.trial = None
            if observe:
                observe(args, kwargs, result, None)
            return result

        return traced

    # -- installing and removing the wrappers

    def _bind_everywhere(self, name, fn):
        """Replace fn by its wrapper wherever a smoothlab module binds it."""
        wrapper = self._wrap(name, fn)
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("smoothlab") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((vars(mod), key, fn))
                    setattr(mod, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is fn:
                            self._patches.append((value, k, fn))
                            value[k] = wrapper

    def install(self):
        for name, modname, path in TARGETS:
            owner = sys.modules.get(modname)
            attrs = path.split(".")
            for attr in attrs[:-1]:
                owner = getattr(owner, attr, None)
            fn = getattr(owner, attrs[-1], None)
            if fn is None:
                print(f"trace: {modname}.{path} not found; its metrics read 0",
                      file=sys.stderr)
            elif isinstance(owner, type):
                self._patches.append((owner, attrs[-1], fn))
                setattr(owner, attrs[-1], self._wrap(name, fn))
            else:
                self._bind_everywhere(name, fn)
        for name, modname, prefix in PREFIX_TARGETS:
            mod = sys.modules[modname]
            for key, fn in list(vars(mod).items()):
                if key.startswith(prefix) and callable(fn):
                    self._bind_everywhere(name, fn)

    def uninstall(self):
        while self._patches:
            container, key, fn = self._patches.pop()
            if isinstance(container, type):
                setattr(container, key, fn)
            else:
                container[key] = fn

    # -- results

    def metrics(self) -> dict:
        """The span-derived per-layer metrics of everything traced so far."""
        child = [0] * len(self.spans)
        for _name, start, end, parent, _trial in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, own = Counter(), Counter(), Counter()
        for i, (name, start, end, _parent, _trial) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
        c = self.counts

        def self_s(*names):
            return sum(own[n] for n in names) / 1e9

        def per(num, den, scale=1.0):
            return num * scale / den if den else 0.0

        trials = calls["experiments.trial"]
        ev, walks, runs = (calls["polytope.enumerate_vertices"],
                           calls["simplex.shadow_pivot_walk"],
                           calls["perceptron.run_perceptron"])
        return {
            "perturb.rng.calls": calls["perturb.rng"],
            "perturb.rng.us_per_call": per(total["perturb.rng"], calls["perturb.rng"], 1e-3),
            "perturb.sample.self_s": self_s(*SAMPLERS),
            "numkit.inverse_norm.calls": calls["numkit.inverse_norm"],
            "numkit.inverse_norm.self_s": self_s("numkit.inverse_norm"),
            "numkit.inverse_norm.us_per_call": per(total["numkit.inverse_norm"],
                                                   calls["numkit.inverse_norm"], 1e-3),
            "polytope.enumerate_vertices.calls": ev,
            "polytope.enumerate_vertices.self_s": self_s("polytope.enumerate_vertices"),
            "polytope.enumerate_vertices.calls_per_trial": per(ev, trials),
            "polytope.enumerate_vertices.bases_scanned": c["enumerate.bases"],
            "polytope.enumerate_vertices.vertex_yield": per(c["enumerate.vertices"],
                                                            c["enumerate.bases"]),
            "polytope.recession_directions.self_s": self_s("polytope.recession_directions"),
            "polytope.is_feasible.calls": calls["polytope.is_feasible"],
            "polytope.shadow_polygon.self_s": self_s("polytope.shadow_polygon"),
            "polytope.convex_hull_2d.self_s": self_s("polytope.convex_hull_2d"),
            "simplex.find_initial_vertex.self_s": self_s("simplex.find_initial_vertex"),
            "simplex.find_initial_vertex.bases_scanned": c["initial.bases"],
            "simplex.shadow_pivot_walk.self_s": self_s("simplex.shadow_pivot_walk"),
            "simplex.shadow_pivot_walk.pivots": c["walk.pivots"],
            "simplex.shadow_pivot_walk.degenerate_frac": per(c["walk.degenerate"], walks),
            "perceptron.run_perceptron.self_s": self_s("perceptron.run_perceptron"),
            "perceptron.run_perceptron.iterations": c["perceptron.iterations"],
            "perceptron.run_perceptron.ns_per_iteration": per(
                own["perceptron.run_perceptron"], c["perceptron.iterations"]),
            "perceptron.run_perceptron.capped_frac": per(c["perceptron.capped"], runs),
            "perceptron.min_norm_point.self_s": self_s("perceptron.min_norm_point"),
            "perceptron.min_norm_point.us_per_call": per(total["perceptron.min_norm_point"],
                                                         calls["perceptron.min_norm_point"],
                                                         1e-3),
            "experiments.run_experiment.self_s": self_s("experiments.run_experiment"),
            "experiments.aggregate.self_s": self_s("experiments.aggregate"),
            "reports.to_json.self_s": self_s("reports.to_json"),
            "reports.bytes_written": c["reports.bytes"],
            "reports.load_json_report.self_s": self_s("reports.load_json_report"),
            "experiments.verify_replay.self_s": self_s("experiments.verify_replay"),
        }

    def write(self, path: str) -> None:
        """All spans as columns; ``parent`` is a row index, -1 at the top."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "columns": ["name", "start_ns", "end_ns", "parent", "stream_index"],
            "rows": [[index[name], start, end, parent,
                      None if trial is None else self.streams.get(trial)]
                     for name, start, end, parent, trial in self.spans],
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        os.replace(tmp, path)
