"""Spans at snaflow's layer boundaries, recorded from outside the package.

``install`` replaces public functions and methods of each layer with timing
wrappers. A name imported with ``from .flow import flow_batch`` is a separate
binding in the importing module, so every snaflow module that binds the
original object gets the wrapper. Spans stay in flat in-memory arrays (a
bisection makes over a million field calls) until ``Recorder.save`` writes
them out; ``layer_metrics`` turns the spans into the per-layer metrics.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

# span name -> layer. A span opened while a span of its own layer is open is
# flagged nested and left out of that layer's calls and time.
LAYER = {
    "fields.eval": "fields",
    "flow.flow_batch": "flow",
    "section.step": "section",
    "graphs.pullback": "pullback",
    "graphs.lift_graph": "lift",
    "graphs.resample": "resample",
    "bifurcation.locate_beta_c": "locate",
    "bifurcation.classify": "classify",
    "bifurcation.estimate_beta_bounds": "bounds",
    "fractal.graph_point_cloud": "cloud",
    "fractal.box_count": "box_count",
    "audit.audit_A1_A3": "A1_A3",
    "audit.audit_A4_A8": "A4_A8",
    "audit.pinch": "pinch",
    "audit.audit_A11_A16": "A11_A16",
    "cli.write": "write",
}
NAMES = list(LAYER)
FIELD_METHODS = ("value", "dx", "dxx", "dtheta", "dtheta2", "dtheta_dx", "dbeta")


class Recorder:
    """Flat span store: name, parent, start, end, two work counters, nesting flag."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work_a = array("d")
        self.work_b = array("d")
        self.nested = array("b")
        self._stack = []
        self._open = dict.fromkeys(LAYER.values(), 0)

    def wrap(self, name: str, fn, count=None):
        """Wrapper recording one span per call; ``count(args, result)`` gives (a, b)."""
        name_id = NAMES.index(name)
        layer = LAYER[name]
        clock = time.perf_counter
        stack, open_ = self._stack, self._open
        starts, ends = self.start, self.end
        appends = (self.name.append, self.parent.append, self.nested.append,
                   ends.append, self.work_a.append, self.work_b.append)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            a_name, a_parent, a_nested, a_end, a_wa, a_wb = appends
            a_name(name_id)
            a_parent(stack[-1] if stack else -1)
            a_nested(1 if open_[layer] else 0)
            a_end(0.0)
            a_wa(0.0)
            a_wb(0.0)
            stack.append(idx)
            open_[layer] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_[layer] -= 1
                stack.pop()
            if count is not None:
                self.work_a[idx], self.work_b[idx] = count(args, result)
            return result

        return traced

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start), "end": np.frombuffer(self.end),
                "work_a": np.frombuffer(self.work_a), "work_b": np.frombuffer(self.work_b),
                "nested": np.frombuffer(self.nested, dtype=np.int8)}

    def save(self, path: str) -> None:
        np.savez(path, **self.arrays())


def _field_lanes(args, res):
    return getattr(args[3], "size", 1), 0.0


def _lanes_of_result(args, res):
    return res.y.shape[1], 0.0


def _flow_counts(args, res):
    return res.y.shape[1], res.n_steps


def _sweeps(args, res):
    # an escaped pullback counts its sweeps up to the escape
    return (res.iterations_used if hasattr(res, "iterations_used") else res.iteration), 0.0


def _bisection(args, res):
    return len(res.records), sum(1 for r in res.records if r.marginal)


def _points(args, res):
    return len(res), 0.0


def _bytes(args, res):
    return os.path.getsize(args[0]), 0.0


def _rebind(original, wrapper) -> None:
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] != "snaflow":
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(rec: Recorder) -> None:
    """Wrap every layer boundary of the imported snaflow package."""
    from snaflow import audit, bifurcation, cli, fields, flow, fractal, graphs, section

    functions = [
        ("flow.flow_batch", flow, "flow_batch", _flow_counts),
        ("graphs.pullback", graphs, "pullback_attractor", _sweeps),
        ("graphs.pullback", graphs, "pushforward_repeller", _sweeps),
        ("graphs.lift_graph", graphs, "lift_graph", None),
        ("graphs.resample", graphs, "resample_shifted_values", None),
        ("graphs.resample", graphs, "interp_at_shift", None),
        ("bifurcation.locate_beta_c", bifurcation, "locate_beta_c", _bisection),
        ("bifurcation.classify", bifurcation, "classify", None),
        ("bifurcation.estimate_beta_bounds", bifurcation, "estimate_beta_bounds", None),
        ("fractal.graph_point_cloud", fractal, "graph_point_cloud", _points),
        ("fractal.box_count", fractal, "box_count", None),
        ("audit.audit_A1_A3", audit, "audit_A1_A3", None),
        ("audit.audit_A4_A8", audit, "audit_A4_A8", None),
        ("audit.pinch", audit, "audit_bump_convexity", None),
        ("audit.pinch", audit, "j0_region", None),
        ("audit.audit_A11_A16", audit, "audit_A11_A16", None),
        ("cli.write", cli, "write_csv", _bytes),
        ("cli.write", cli, "write_json", _bytes),
    ]
    for name, mod, attr, count in functions:
        original = getattr(mod, attr)
        _rebind(original, rec.wrap(name, original, count))

    for cls in fields.ForcedField.__subclasses__():
        for meth in FIELD_METHODS:
            if meth in vars(cls):
                setattr(cls, meth, rec.wrap("fields.eval", vars(cls)[meth],
                                            _field_lanes))
    section.SectionMap.step = rec.wrap("section.step", section.SectionMap.step,
                                       _lanes_of_result)


def layer_metrics(spans) -> dict:
    """Per-layer counts (exact) and times (s) from the arrays of one operation."""
    name, parent, nested = spans["name"], spans["parent"], spans["nested"]
    dur = spans["end"] - spans["start"]
    a, b = spans["work_a"], spans["work_b"]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    top = nested == 0

    def sel(*names):
        ids = [NAMES.index(n) for n in names]
        return np.isin(name, ids) & top

    fields_m, flow_m, step_m = sel("fields.eval"), sel("flow.flow_batch"), sel("section.step")
    pull_m, locate_m = sel("graphs.pullback"), sel("bifurcation.locate_beta_c")
    cloud_m, write_m = sel("fractal.graph_point_cloud"), sel("cli.write")
    lanes = float(a[fields_m].sum())
    fields_s = float(dur[fields_m].sum())
    return {
        "fields.calls": int(fields_m.sum()),
        "fields.lane_evals": int(lanes),
        "fields.s": fields_s,
        "fields.ns_per_lane": 1e9 * fields_s / lanes if lanes else 0.0,
        "flow.calls": int(flow_m.sum()),
        "flow.steps": int(b[flow_m].sum()),
        "flow.lane_steps": int((a[flow_m] * b[flow_m]).sum()),
        "flow.s": float(dur[flow_m].sum()),
        "flow.self_s": float(self_time[flow_m].sum()),
        "section.returns": int(step_m.sum()),
        "section.lane_returns": int(a[step_m].sum()),
        "section.s": float(dur[step_m].sum()),
        "graphs.pullbacks": int(pull_m.sum()),
        "graphs.sweeps": int(a[pull_m].sum()),
        "graphs.pullback_s": float(dur[pull_m].sum()),
        "graphs.lift_s": float(dur[sel("graphs.lift_graph")].sum()),
        "graphs.resample_s": float(dur[sel("graphs.resample")].sum()),
        "bifurcation.betas": int(a[locate_m].sum()),
        "bifurcation.marginal_betas": int(b[locate_m].sum()),
        "bifurcation.locate_s": float(dur[locate_m].sum()),
        "bifurcation.classify_self_s": float(self_time[sel("bifurcation.classify")].sum()),
        "bifurcation.bounds_s": float(dur[sel("bifurcation.estimate_beta_bounds")].sum()),
        "fractal.cloud_points": int(a[cloud_m].sum()),
        "fractal.cloud_s": float(dur[cloud_m].sum()),
        "fractal.box_count_s": float(dur[sel("fractal.box_count")].sum()),
        "audit.A1_A3_s": float(dur[sel("audit.audit_A1_A3")].sum()),
        "audit.A4_A8_s": float(dur[sel("audit.audit_A4_A8")].sum()),
        "audit.pinch_s": float(dur[sel("audit.pinch")].sum()),
        "audit.A11_A16_s": float(dur[sel("audit.audit_A11_A16")].sum()),
        "cli.write_s": float(dur[write_m].sum()),
        "cli.bytes_written": int(a[write_m].sum()),
    }
