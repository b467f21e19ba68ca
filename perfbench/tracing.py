"""Span recorder for the traced benchmark run.

Wraps the public functions of each package module from the outside (no
change to the package): module-level functions are replaced in every
`entropic_bespoke` module that holds them, so names imported into `cli` or
the package namespace are patched where they are looked up; calibrator,
model and config methods are wrapped at class level.  Spans (id, name,
parent, start, end) stay in memory and are written out once at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

# (span name, module, attribute) for module-level functions
FUNCTIONS = (
    ("prior.build_market_grid", "entropic_bespoke.prior", "build_market_grid"),
    ("loss.build_conditional_prior", "entropic_bespoke.loss",
     "build_conditional_prior"),
    ("pricing.bespoke_loss_dist", "entropic_bespoke.pricing",
     "bespoke_loss_dist"),
    ("pricing.price_tranche", "entropic_bespoke.pricing", "price_tranche"),
    ("basecorr.onefactor_loss_dist", "entropic_bespoke.basecorr",
     "onefactor_loss_dist"),
    ("basecorr.map_strike", "entropic_bespoke.basecorr", "map_strike"),
    ("basecorr.base_tranche_el", "entropic_bespoke.basecorr",
     "base_tranche_el"),
    ("io.load_portfolios", "entropic_bespoke.io", "load_portfolios"),
    ("io.load_constraints", "entropic_bespoke.io", "load_constraints"),
    ("io.load_discount_curve", "entropic_bespoke.io", "load_discount_curve"),
    ("io.load_tranches", "entropic_bespoke.io", "load_tranches"),
    ("io.load_basecorr_curves", "entropic_bespoke.io", "load_basecorr_curves"),
    ("io.measure_rows", "entropic_bespoke.io", "measure_rows"),
    ("io.state_rows", "entropic_bespoke.io", "state_rows"),
    ("io.write_csv", "entropic_bespoke.io", "write_csv"),
    ("solver.newton_minimize", "entropic_bespoke.solver", "newton_minimize"),
    ("cli.run", "entropic_bespoke.cli", "run"),
)

# (span name, module, class, method) wrapped at class level
METHODS = (
    ("calibrate.init", "entropic_bespoke.calibrate", "MceCalibrator",
     "__init__"),
    ("calibrate.evaluate", "entropic_bespoke.calibrate", "MceCalibrator",
     "dual_objective_and_gradient"),
    ("calibrate.hessian", "entropic_bespoke.calibrate", "MceCalibrator",
     "dual_hessian"),
    ("calibrate.solve", "entropic_bespoke.calibrate", "MceCalibrator", "solve"),
    ("dynamic.calibrate_period", "entropic_bespoke.dynamic", "DynamicModel",
     "calibrate_period"),
    ("dynamic.propagate_marginal", "entropic_bespoke.dynamic", "DynamicModel",
     "propagate_marginal"),
    ("io.from_file", "entropic_bespoke.cli", "RunConfig", "from_file"),
)


class Tracer:
    """In-memory span list for one traced run; single-threaded (the
    benchmark pins every workload to one worker thread)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []   # [id, name, parent, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            record = [span_id, name, parent, time.perf_counter(), None]
            self.spans.append(record)
            self._stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(result)
            return result
        return wrapper

    def _newton(self, fn):
        """Counts objective evaluations and accepted Newton steps at the
        solver boundary (static and dynamic problems alike)."""
        def counted(value_and_grad, *args, **kwargs):
            def evaluate(x):
                self.counts["solver.evaluations"] += 1
                return value_and_grad(x)
            result = fn(evaluate, *args, **kwargs)
            self.counts["solver.newton_iters"] += result.iterations
            return result
        return functools.wraps(fn)(counted)

    def _after(self, name: str):
        if name == "dynamic.propagate_marginal":
            def record(state):
                self.counts["dynamic.state_rows"] = len(state.probs)
            return record
        return None

    def install(self):
        """Patch the package in place; call after importing
        `entropic_bespoke.cli` (which imports every module)."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "entropic_bespoke"
                   or name.startswith("entropic_bespoke.")]
        for name, module_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            fn = self._newton(original) if name == "solver.newton_minimize" \
                else original
            wrapped = self.span(name, fn)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)
        for name, module_name, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.span(name, raw.__func__)))
            else:
                setattr(cls, attr, self.span(name, raw, self._after(name)))

    def dump(self, path: Path, **extra):
        path.write_text(json.dumps({
            "run_id": self.run_id, "spans": self.spans,
            "counts": dict(self.counts), **extra,
        }))


# -- analysis --------------------------------------------------------------


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of its interval its child spans
    cover (union of child intervals, clipped to the parent)."""
    children: dict[int, list] = {}
    for span_id, _, parent, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, _, _, start, end in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[span_id] = (end - start) - covered
    return out


def layer_totals(spans) -> tuple[dict[str, float], dict[str, int]]:
    """(total time, call count) per span name.  A span nested inside a
    span of the same name adds to the count but not again to the time."""
    by_id = {s[0]: s for s in spans}
    totals: dict[str, float] = {}
    calls: Counter = Counter()
    for span_id, name, parent, start, end in spans:
        calls[name] += 1
        outer = True
        while parent is not None:
            if by_id[parent][1] == name:
                outer = False
                break
            parent = by_id[parent][2]
        if outer:
            totals[name] = totals.get(name, 0.0) + (end - start)
    return totals, dict(calls)


def self_by_name(spans) -> dict[str, float]:
    own = self_times(spans)
    out: dict[str, float] = {}
    for span_id, name, *_ in spans:
        out[name] = out.get(name, 0.0) + own[span_id]
    return out


PER_LAYER = (
    ("cli.import_s", "s"),
    ("io.load_s", "s"),
    ("prior.build_market_grid_s", "s"),
    ("loss.build_conditional_prior_s", "s"),
    ("loss.build_conditional_prior_calls", "count"),
    ("calibrate.init_s", "s"),
    ("calibrate.evaluate_s", "s"),
    ("calibrate.evaluate_calls", "count"),
    ("calibrate.hessian_s", "s"),
    ("calibrate.hessian_calls", "count"),
    ("calibrate.solve_s", "s"),
    ("calibrate.solve_self_s", "s"),
    ("solver.newton_minimize_s", "s"),
    ("solver.newton_iters", "count"),
    ("solver.evaluations", "count"),
    ("solver.step_accept_ratio", "ratio"),
    ("dynamic.calibrate_period_s", "s"),
    ("dynamic.propagate_marginal_s", "s"),
    ("dynamic.state_rows", "count"),
    ("pricing.bespoke_loss_dist_s", "s"),
    ("pricing.price_tranche_s", "s"),
    ("basecorr.onefactor_loss_dist_s", "s"),
    ("basecorr.onefactor_loss_dist_calls", "count"),
    ("basecorr.map_strike_s", "s"),
    ("basecorr.base_tranche_el_s", "s"),
    ("io.measure_rows_s", "s"),
    ("io.state_rows_s", "s"),
    ("io.write_csv_s", "s"),
    ("io.rows_written", "count"),
    ("io.bytes_written", "bytes"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(trace: dict, files: dict, untraced_wall_s: float,
                  traced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run.  A layer the workload never
    calls reads 0.  `files` holds rows and bytes per output file."""
    spans = trace["spans"]
    totals, calls = layer_totals(spans)
    own = self_by_name(spans)
    counts = trace["counts"]
    evaluations = counts.get("solver.evaluations", 0)
    iters = counts.get("solver.newton_iters", 0)

    def total(name):
        return totals.get(name, 0.0)

    return {
        "cli.import_s": trace["import_s"],
        "io.load_s": sum(v for k, v in totals.items()
                         if k == "io.from_file" or k.startswith("io.load_")),
        "prior.build_market_grid_s": total("prior.build_market_grid"),
        "loss.build_conditional_prior_s": total("loss.build_conditional_prior"),
        "loss.build_conditional_prior_calls":
            calls.get("loss.build_conditional_prior", 0),
        "calibrate.init_s": total("calibrate.init"),
        "calibrate.evaluate_s": total("calibrate.evaluate"),
        "calibrate.evaluate_calls": calls.get("calibrate.evaluate", 0),
        "calibrate.hessian_s": total("calibrate.hessian"),
        "calibrate.hessian_calls": calls.get("calibrate.hessian", 0),
        "calibrate.solve_s": total("calibrate.solve"),
        "calibrate.solve_self_s": own.get("calibrate.solve", 0.0),
        "solver.newton_minimize_s": total("solver.newton_minimize"),
        "solver.newton_iters": iters,
        "solver.evaluations": evaluations,
        "solver.step_accept_ratio": iters / evaluations if evaluations else 0.0,
        "dynamic.calibrate_period_s": total("dynamic.calibrate_period"),
        "dynamic.propagate_marginal_s": total("dynamic.propagate_marginal"),
        "dynamic.state_rows": counts.get("dynamic.state_rows", 0),
        "pricing.bespoke_loss_dist_s": total("pricing.bespoke_loss_dist"),
        "pricing.price_tranche_s": total("pricing.price_tranche"),
        "basecorr.onefactor_loss_dist_s": total("basecorr.onefactor_loss_dist"),
        "basecorr.onefactor_loss_dist_calls":
            calls.get("basecorr.onefactor_loss_dist", 0),
        "basecorr.map_strike_s": total("basecorr.map_strike"),
        "basecorr.base_tranche_el_s": total("basecorr.base_tranche_el"),
        "io.measure_rows_s": total("io.measure_rows"),
        "io.state_rows_s": total("io.state_rows"),
        "io.write_csv_s": total("io.write_csv"),
        "io.rows_written": sum(f["rows"] for f in files.values()),
        "io.bytes_written": sum(f["bytes"] for f in files.values()),
        "cli.self_s": own.get("cli.run", 0.0),
        "trace.wall_s": traced_wall_s,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
    }
