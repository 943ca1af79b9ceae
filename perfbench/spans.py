"""In-memory span recorder and the call-site instrumentation of chgeom.

The recorder wraps public chgeom functions from outside the package:
each wrapped call opens a span on a per-thread stack, so a span's parent
is the innermost open span of the same thread.  Sweep rows run on pool
threads, whose first span therefore has no parent; every span still
carries the identifier of the benchmark operation that caused it.

Wrappers are installed where the caller looks the name up: a module
attribute for callers that go through the module (``tubes`` calls
``jacobi.jacobi_ode_oracle``), the importing module's own binding for
``from ... import`` callers (``cli.classify``, ``tubes.orbit_second_
fundamental_form``), and the class for methods.  ``uninstall`` restores
every original, so untraced passes run the unmodified program.
"""

from __future__ import annotations

import functools
import inspect as inspect_module
import threading
import time
from math import comb, prod

import numpy as np

# Spans of these names are called once per RK4 stage; they are folded
# into the aggregates without a per-span record to keep memory bounded.
HOT_SPANS = frozenset({"model.frame_to_coordinate_velocity"})


def _rk4_steps(t, step) -> int:
    """Step count of the fixed-step RK4 loops (same rounding as chgeom)."""
    return max(1, int(round(abs(t) / step))) if t != 0.0 else 0


def lattice_points(dim: int, radius: int = 3) -> int:
    """Integer offsets of L1 norm <= radius in ``dim`` dimensions."""
    return sum(2**j * comb(dim, j) * comb(radius, j) for j in range(min(dim, radius) + 1))


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []  # open frames: [name, start, child_time, record index]
        self.registered = False


class SpanRecorder:
    """Spans and per-name aggregates, kept in memory until the run ends.

    Aggregates are kept per thread and merged at the end, so pool threads
    never update shared counters concurrently.
    """

    def __init__(self):
        self._local = _ThreadState()
        self._threads = []  # (aggregates, records) of every thread seen
        self.op_id = 0
        self.tag = ""

    def _thread_data(self):
        local = self._local
        if not local.registered:
            local.aggs = {}
            local.records = []
            local.registered = True
            self._threads.append((local.aggs, local.records))  # list.append is atomic
        return local

    def begin(self, name):
        local = self._thread_data()
        parent = local.stack[-1][3] if local.stack else -1
        index = -1
        if name not in HOT_SPANS:
            index = len(local.records)
            local.records.append(
                [name, self.op_id, threading.get_ident(), 0.0, 0.0, parent]
            )
        frame = [name, time.perf_counter(), 0.0, index]
        local.stack.append(frame)
        return frame

    def end(self, frame, counts=None):
        end = time.perf_counter()
        local = self._local
        local.stack.pop()
        name, start, child, index = frame
        dur = end - start
        if local.stack:
            local.stack[-1][2] += dur
        if index >= 0:
            rec = local.records[index]
            rec[3], rec[4] = start, end
        agg = local.aggs.get((name, self.tag))
        if agg is None:
            agg = local.aggs[(name, self.tag)] = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        agg["calls"] += 1
        agg["busy_s"] += dur
        agg["self_s"] += dur - child
        if counts:
            for key, val in counts.items():
                if key.startswith("max_"):
                    agg[key] = max(agg.get(key, 0.0), val)
                else:
                    agg[key] = agg.get(key, 0) + val

    def span(self, name):
        return _Span(self, name)

    def totals(self, tag=None) -> dict:
        """Merged aggregates per span name (all tags, or one tag)."""
        out = {}
        for aggs, _ in self._threads:
            for (name, t), agg in aggs.items():
                if tag is not None and t != tag:
                    continue
                dst = out.setdefault(name, {})
                for key, val in agg.items():
                    if key.startswith("max_"):
                        dst[key] = max(dst.get(key, 0.0), val)
                    else:
                        dst[key] = dst.get(key, 0) + val
        return out

    def records(self):
        """All closed span records: name, op, thread, start, end, parent."""
        return [rec for _, recs in self._threads for rec in recs]


class _Span:
    def __init__(self, recorder, name):
        self.recorder, self.name = recorder, name

    def __enter__(self):
        self.frame = self.recorder.begin(self.name)
        return self

    def __exit__(self, *exc):
        self.recorder.end(self.frame)
        return False


def _wrap(recorder, name, fn, counter=None, inspect=None):
    sig = inspect_module.signature(fn) if counter else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.end(frame)
            raise
        counts = {}
        if counter:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            counts.update(counter(bound.arguments))
        if inspect:
            counts.update(inspect(result))
        recorder.end(frame, counts)
        return result

    return wrapper


# -- work counts, computed from call arguments ---------------------------
# Each counter receives the bound arguments of the call, defaults applied.


def _rk4_counts(a):
    return {"steps": _rk4_steps(a["t"], a["step"])}


def _geodesic_counts(a):
    batch = prod(np.shape(a["coords0"])[:-1])
    return {"point_steps": batch * _rk4_steps(a["t"], a["step"])}


def _mapper_counts(a):
    shape = np.shape(a["x"])
    return {"points": shape[0] if len(shape) == 2 else 1}


def _germfield_counts(a):
    return {"lattice_points": lattice_points(a["chart"].domain_dim)}


# bytes of the float64 arrays nonexistence_scan materialises per grid
# point (b1sq, b2sq, quad, bsum) plus its bool feasibility mask; computed
# from the grid shape, not measured
SCAN_BYTES_PER_POINT = 4 * 8 + 1


def _scan_counts(a):
    points = prod(int(v) for v in a["grid_shape"])
    return {"points": points, "computed_bytes": points * SCAN_BYTES_PER_POINT}


def _tube_inspect(result):
    return {
        "max_asymmetry": float(result.asymmetry),
        "max_velocity_drift": float(result.velocity_drift),
    }


NUMLAB_RESIDUALS = (
    "gauss_codazzi_residuals",
    "frame_connection_residuals",
    "graded_connection_residuals",
    "graded_curvature_residuals",
    "unit_pair_gauss_residual",
    "real_eigenspace_residual",
)


class Instrumentation:
    """Installs and removes the wrappers around chgeom's public calls."""

    def __init__(self, recorder: SpanRecorder):
        from chgeom import cli, construction, jacobi, model, numlab, spectral, tubes

        chart_factory = numlab.tube_chart

        def traced_tube_chart(*args, **kwargs):
            chart = chart_factory(*args, **kwargs)
            chart.mapper = _wrap(recorder, "numlab.tube_chart.mapper", chart.mapper, _mapper_counts)
            return chart

        traced_tube_chart = functools.wraps(chart_factory)(traced_tube_chart)
        solvable = model.SolvableModel
        # (owner, attribute, span name, counter, result inspector)
        sites = [
            (solvable, "__init__", "model.SolvableModel.init", None, None),
            (solvable, "integrate_transport", "model.integrate_transport", _rk4_counts, None),
            (solvable, "integrate_geodesic", "model.integrate_geodesic", _geodesic_counts, None),
            (solvable, "frame_to_coordinate_velocity", "model.frame_to_coordinate_velocity", None, None),
            (solvable, "verify_curvature", "model.verify_curvature", None, None),
            (cli, "build_submanifold", "construction.build_submanifold", None, None),
            (construction, "build_submanifold", "construction.build_submanifold", None, None),
            (tubes, "orbit_second_fundamental_form", "construction.orbit_second_fundamental_form", None, None),
            (construction, "orbit_second_fundamental_form", "construction.orbit_second_fundamental_form", None, None),
            (jacobi, "jacobi_ode_oracle", "jacobi.jacobi_ode_oracle", _rk4_counts, None),
            (jacobi, "focal_determinant_matrix", "jacobi.focal_determinant_matrix", None, None),
            (tubes, "tube_shape_operator", "tubes.tube_shape_operator", None, _tube_inspect),
            (cli, "classify", "spectral.classify", None, None),
            (spectral, "principal_decomposition", "spectral.principal_decomposition", None, None),
            (numlab, "principal_decomposition", "spectral.principal_decomposition", None, None),
            (spectral, "nonexistence_scan", "spectral.nonexistence_scan", _scan_counts, None),
            (numlab.GermField, "__init__", "numlab.GermField.init", _germfield_counts, None),
        ]
        for fname in NUMLAB_RESIDUALS:
            sites.append((numlab, fname, f"numlab.{fname}", None, None))
        self._patches = []
        for owner, attr, name, counter, inspect in sites:
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original, _wrap(recorder, name, original, counter, inspect)))
        chart_wrapped = _wrap(recorder, "numlab.tube_chart", traced_tube_chart)
        self._patches.append((numlab, "tube_chart", chart_factory, chart_wrapped))

    def install(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
