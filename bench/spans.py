"""Span recorder for the traced benchmark run.

The tracer wraps fraclab's public functions from outside, in the child
process that runs one CLI command.  Each wrapped call records a span (name,
start, end, id, parent id) in memory, and some wrappers add counts taken
from the call's arguments or return value.  Nothing under ``src/`` is
edited: names are replaced in every fraclab module that looks them up, so a
function that ``symbols`` imports from ``geometry`` is traced in both.

A span's self time is its duration minus the part of its interval that its
child spans cover.  Spans opened in a worker thread (the CLI's chunked
sampling) with no open span in their own thread are children of the span
open in the main thread, which is the one waiting for them.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import threading
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []                 # (name, start, end, span id, parent id)
        self.counts = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._stacks = {}               # thread id -> [(span id, name), ...]
        self._main = threading.get_ident()

    def wrap(self, name, fn, count=None):
        """Wrap ``fn`` in a span called ``name`` (no span when None).

        ``count(args, kwargs, result, stack)`` returns a mapping of counter
        increments, taken at the call boundary; ``stack`` holds the
        (span id, name) pairs open in the calling thread.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stacks.setdefault(threading.get_ident(), [])
            if name is None:
                result = fn(*args, **kwargs)
            else:
                if stack:
                    parent = stack[-1][0]
                else:
                    main = self._stacks.get(self._main)
                    parent = main[-1][0] if main and main is not stack else None
                sid = next(self._ids)
                stack.append((sid, name))
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    self.spans.append((name, start, end, sid, parent))
            if count is not None:
                increments = count(args, kwargs, result, stack)
                with self._lock:
                    self.counts.update(increments)
            return result
        return traced

    def report(self) -> dict:
        """Self time and call count per span name, plus the counters."""
        children = defaultdict(list)
        for _, start, end, _, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        self_s = Counter()
        calls = Counter()
        for name, start, end, sid, _ in self.spans:
            self_s[name] += (end - start) - covered(children.get(sid, ()),
                                                    start, end)
            calls[name] += 1
        return {"self_s": dict(self_s), "calls": dict(calls),
                "counts": dict(self.counts), "spans": len(self.spans)}


def covered(intervals, start, end) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _columns(values) -> int:
    return math.prod(np.shape(values)[1:])


def _once(key):
    return lambda args, kwargs, result, stack: {key: 1}


def install() -> Tracer:
    """Wrap the public boundaries of every fraclab layer; return the tracer."""
    import scipy.sparse.linalg as spla

    import fraclab
    from fraclab import (carleman, cli, fields, fractional, geometry, solver,
                         symbols)

    tracer = Tracer()
    modules = (fraclab, cli, carleman, fields, fractional, geometry, solver,
               symbols)

    def patch(owner, attr, name, count=None, replacement=None):
        original = getattr(owner, attr)
        new = replacement or tracer.wrap(name, original, count)
        if isinstance(owner, type):
            setattr(owner, attr, new)
            return
        for module in modules + (owner,):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, new)

    # cli
    patch(cli, "validate_config", "cli.validate_config")
    patch(cli, "write_csv", "cli.write_csv")
    patch(cli, "write_xy", "cli.write_xy")
    for attr in [a for a in vars(cli) if a.startswith("run_")]:
        patch(cli, attr, "cli.handler")

    # symbols
    patch(symbols, "char_set_sample", "symbols.char_set_sample",
          lambda a, k, r, o: {"symbols.char_found": r.found})
    patch(symbols, "fractional_symbol", "symbols.fractional_symbol",
          _once("symbols.fractional_symbol_calls"))
    patch(symbols.SampleRegion, "draw", None,
          lambda a, k, r, st: ({"symbols.seeds_drawn": _arg(a, k, 2, "n_samples")}
                               if any(n == "symbols.char_set_sample"
                                      for _, n in st) else {}))
    for attr in ("lemma21_check", "lemma61_check", "bracket_report_batch",
                 "full_region_sample", "find_min_varpi",
                 "garding_precondition_check"):
        patch(symbols, attr, f"symbols.{attr}")

    # geometry
    patch(geometry, "weighted_ellipticity_margin",
          "geometry.weighted_ellipticity_margin",
          _once("geometry.weighted_ellipticity_margin_calls"))
    patch(geometry, "pushforward_operator", "geometry.pushforward_operator")
    patch(geometry.HolmgrenFrame, "effective_matrix", "geometry.effective_matrix",
          _once("geometry.effective_matrix_calls"))
    patch(geometry.HolmgrenMap, "inverse", "geometry.map_inverse")

    # fields: wrap the matrix callable of every field built from a config
    def field_points(args, kwargs, result, stack):
        shape = np.shape(args[1])
        return {"fields.a_calls": 1,
                "fields.a_points": math.prod(shape[:-1]) if len(shape) > 1 else 1}

    build_field = fields.field_from_config

    def field_from_config(config):
        field = build_field(config)
        return dataclasses.replace(
            field, a=tracer.wrap("fields.a", field.a, field_points))

    patch(fields, "field_from_config", None, replacement=field_from_config)

    # solver
    patch(solver, "solve", "solver.solve",
          lambda a, k, r, o: {"solver.solve_calls": 1,
                              "solver.steps": _arg(a, k, 4, "grid").time.n_steps})
    patch(solver, "apply_discrete_operator", "solver.apply_discrete_operator",
          _once("solver.apply_discrete_operator_calls"))
    patch(spla, "splu", "solver.factorize", _once("solver.factorizations"))
    patch(solver, "ucp_experiment", "solver.ucp_experiment")

    # fractional
    patch(fractional, "caputo_l1", "fractional.caputo_l1",
          lambda a, k, r, o: ({"fractional.caputo_l1_columns": _columns(a[0])}
                              if 0.0 < _arg(a, k, 1, "alpha") < 1.0 else {}))
    patch(fractional, "rl_integral_l1", "fractional.rl_integral_l1",
          lambda a, k, r, o: {"fractional.rl_integral_l1_columns": _columns(a[0])})
    patch(fractional, "multiterm_l1", "fractional.multiterm_l1")
    patch(fractional, "caputo_oracle", "fractional.caputo_oracle",
          _once("fractional.caputo_oracle_calls"))

    # carleman
    patch(carleman, "beta_sweep", "carleman.beta_sweep")
    patch(carleman, "conjugated_operator", "carleman.conjugated_operator",
          _once("carleman.conjugated_operator_calls"))
    for attr in ("carleman_lhs", "default_bump_family", "sweep_rows_csv"):
        patch(carleman, attr, f"carleman.{attr}")
    return tracer


# Per-layer metrics: (name, unit, better, span or counter it reads).
# Self times read a span; counts read a counter.  cli.artifact_bytes is
# measured by the harness from the output directories, trace.overhead_s
# from the traced and untraced runs.
LAYER_METRICS = (
    ("cli.validate_config_s", "s", "lower", "cli.validate_config"),
    ("cli.write_csv_s", "s", "lower", "cli.write_csv"),
    ("cli.write_xy_s", "s", "lower", "cli.write_xy"),
    ("cli.artifact_bytes", "bytes", "lower", None),
    ("cli.handler_self_s", "s", "lower", "cli.handler"),
    ("symbols.char_set_sample_s", "s", "lower", "symbols.char_set_sample"),
    ("symbols.fractional_symbol_s", "s", "lower", "symbols.fractional_symbol"),
    ("symbols.fractional_symbol_calls", "count", "lower",
     "symbols.fractional_symbol_calls"),
    ("symbols.seeds_drawn", "count", "lower", "symbols.seeds_drawn"),
    ("symbols.char_yield", "1", "higher", None),
    ("symbols.lemma21_check_s", "s", "lower", "symbols.lemma21_check"),
    ("symbols.lemma61_check_s", "s", "lower", "symbols.lemma61_check"),
    ("symbols.bracket_report_batch_s", "s", "lower",
     "symbols.bracket_report_batch"),
    ("symbols.full_region_sample_s", "s", "lower", "symbols.full_region_sample"),
    ("symbols.find_min_varpi_s", "s", "lower", "symbols.find_min_varpi"),
    ("symbols.garding_precondition_check_s", "s", "lower",
     "symbols.garding_precondition_check"),
    ("geometry.weighted_ellipticity_margin_s", "s", "lower",
     "geometry.weighted_ellipticity_margin"),
    ("geometry.weighted_ellipticity_margin_calls", "count", "lower",
     "geometry.weighted_ellipticity_margin_calls"),
    ("geometry.pushforward_operator_s", "s", "lower",
     "geometry.pushforward_operator"),
    ("geometry.effective_matrix_s", "s", "lower", "geometry.effective_matrix"),
    ("geometry.effective_matrix_calls", "count", "lower",
     "geometry.effective_matrix_calls"),
    ("geometry.map_inverse_s", "s", "lower", "geometry.map_inverse"),
    ("fields.a_s", "s", "lower", "fields.a"),
    ("fields.a_calls", "count", "lower", "fields.a_calls"),
    ("fields.a_points", "count", "lower", "fields.a_points"),
    ("solver.solve_self_s", "s", "lower", "solver.solve"),
    ("solver.solve_calls", "count", "lower", "solver.solve_calls"),
    ("solver.steps", "count", "lower", "solver.steps"),
    ("solver.apply_discrete_operator_s", "s", "lower",
     "solver.apply_discrete_operator"),
    ("solver.apply_discrete_operator_calls", "count", "lower",
     "solver.apply_discrete_operator_calls"),
    ("solver.factorizations", "count", "lower", "solver.factorizations"),
    ("solver.factorize_s", "s", "lower", "solver.factorize"),
    ("solver.ucp_experiment_s", "s", "lower", "solver.ucp_experiment"),
    ("fractional.caputo_l1_s", "s", "lower", "fractional.caputo_l1"),
    ("fractional.caputo_l1_columns", "count", "lower",
     "fractional.caputo_l1_columns"),
    ("fractional.rl_integral_l1_s", "s", "lower", "fractional.rl_integral_l1"),
    ("fractional.rl_integral_l1_columns", "count", "lower",
     "fractional.rl_integral_l1_columns"),
    ("fractional.multiterm_l1_s", "s", "lower", "fractional.multiterm_l1"),
    ("fractional.caputo_oracle_s", "s", "lower", "fractional.caputo_oracle"),
    ("fractional.caputo_oracle_calls", "count", "lower",
     "fractional.caputo_oracle_calls"),
    ("carleman.beta_sweep_self_s", "s", "lower", "carleman.beta_sweep"),
    ("carleman.conjugated_operator_s", "s", "lower",
     "carleman.conjugated_operator"),
    ("carleman.conjugated_operator_calls", "count", "lower",
     "carleman.conjugated_operator_calls"),
    ("carleman.carleman_lhs_s", "s", "lower", "carleman.carleman_lhs"),
    ("carleman.default_bump_family_s", "s", "lower",
     "carleman.default_bump_family"),
    ("carleman.sweep_rows_csv_s", "s", "lower", "carleman.sweep_rows_csv"),
    ("trace.overhead_s", "s", "lower", None),
)


def merge(reports) -> dict:
    """Sum the self times and counters of several child reports."""
    self_s, counts = Counter(), Counter()
    for report in reports:
        self_s.update(report["self_s"])
        counts.update(report["counts"])
    return {"self_s": self_s, "counts": counts}


def layer_values(merged, artifact_bytes: int, overhead_s: float) -> dict:
    """Every per-layer metric of one traced pass over a workload."""
    self_s, counts = merged["self_s"], merged["counts"]
    drawn = counts["symbols.seeds_drawn"]
    special = {
        "cli.artifact_bytes": artifact_bytes,
        "symbols.char_yield": counts["symbols.char_found"] / drawn if drawn else 0.0,
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name, unit, _, source in LAYER_METRICS:
        if name in special:
            out[name] = special[name]
        elif unit == "s":
            out[name] = float(self_s[source])
        else:
            out[name] = int(counts[source])
    return out
