"""chgeom benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload {sweep,residuals,catalog} \
        --seed N --seconds S --trace {0,1}

Each workload is a single-threaded closed loop in this one process: the
next ``chgeom`` command starts only after the previous one returned.
Commands run in-process through ``chgeom.cli.main`` with stdout and
stderr captured, so their outputs can be checked.  The seed makes the
inputs; the program sees only those inputs.

A run is: one untimed warm-up pass over the workload's operations, a
fixed number of timed passes (``--seconds`` over the workload's nominal
pass time), then the checks.  Set-up is timed in fresh interpreters
started between the passes, spread over the run.  Times are reported at
a reference host speed (see CAL_REF_S).  With ``--trace 1`` the passes
alternate untraced and traced, and the run reports per-layer metrics
from the traced ones and the tracing overhead from the difference.
Stdout ends with one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``; the line before it states the machine, the input sizes
and the raw pass times.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
MIN_PASSES = 3
# L3 of the 2-core Xeon the first results were taken on (105 MiB); the
# info line states the scan array size against it.
REFERENCE_L3_BYTES = 105 * 2**20

# span name -> the calls/busy_s/self_s metrics of the traced run
SPANS = (
    "model.SolvableModel.init",
    "model.integrate_transport",
    "model.integrate_geodesic",
    "model.frame_to_coordinate_velocity",
    "model.verify_curvature",
    "construction.build_submanifold",
    "construction.orbit_second_fundamental_form",
    "jacobi.jacobi_ode_oracle",
    "jacobi.focal_determinant_matrix",
    "tubes.tube_shape_operator",
    "spectral.classify",
    "spectral.principal_decomposition",
    "spectral.nonexistence_scan",
    "numlab.tube_chart",
    "numlab.tube_chart.mapper",
    "numlab.GermField.init",
    "numlab.gauss_codazzi_residuals",
    "numlab.frame_connection_residuals",
    "numlab.graded_connection_residuals",
    "numlab.graded_curvature_residuals",
    "numlab.unit_pair_gauss_residual",
    "numlab.real_eigenspace_residual",
    "cli.main.sweep",
    "cli.main.residuals",
    "cli.main.classify",
    "cli.main.verify-model",
    "cli.main.nonexistence",
)
# work counts recorded at span boundaries: (span, counter, unit, better)
SPAN_COUNTS = (
    ("model.integrate_transport", "steps", "count", "lower"),
    ("model.integrate_geodesic", "point_steps", "count", "lower"),
    ("jacobi.jacobi_ode_oracle", "steps", "count", "lower"),
    ("numlab.tube_chart.mapper", "points", "count", "lower"),
    ("numlab.GermField.init", "lattice_points", "count", "lower"),
    ("spectral.nonexistence_scan", "points", "count", "lower"),
    ("spectral.nonexistence_scan", "computed_bytes", "B", "lower"),
    ("tubes.tube_shape_operator", "max_asymmetry", "1", "lower"),
    ("tubes.tube_shape_operator", "max_velocity_drift", "1", "lower"),
)
# derived per-layer metrics: (name, unit, better)
DERIVED = (
    ("spectral.nonexistence_scan.points_per_s", "1/s", "higher"),
    ("spectral.classify.useful_ratio", "ratio", "higher"),
    ("cli.sweep.parallel_efficiency", "ratio", "higher"),
    ("cli.sweep.speedup", "ratio", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("op_p50_s", "s", "lower"),
    ("op_tail_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "ratio", "higher"),
    ("err_digits", "digits", "higher"),
)


def per_layer_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for span in SPANS:
        out += [(f"{span}.calls", "count", "lower"), (f"{span}.busy_s", "s", "lower"),
                (f"{span}.self_s", "s", "lower")]
    out += [(f"{span}.{key}", unit, better) for span, key, unit, better in SPAN_COUNTS]
    return out + list(DERIVED)


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable core count, before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        os.environ[var] = str(min(current, nproc) if current > 0 else nproc)
    return nproc


def machine_facts(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "nproc": nproc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def time_setup(args) -> float:
    """One set-up time from a fresh interpreter (see setup_probe.py),
    scaled by the calibration kernel timed in that interpreter."""
    n, c, k = args
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(n), repr(c), str(k)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    setup, kernel = map(float, proc.stdout.split())
    return setup * CAL_REF_S / kernel


# On a shared 2-core Xeon host, speed changes by 20-70 % from one second
# or minute to the next, for reasons outside the process.  So each pass times a fixed kernel that uses no chgeom code, at
# its start and after every CAL_EVERY_S of operation time, and every time
# the run reports is scaled by CAL_REF_S / (the pass's median kernel
# time): it is given at the host speed at which the kernel takes
# CAL_REF_S.  Rates are scaled by the inverse.  The kernel mixes the two
# kinds of work chgeom does: argument parsing, JSON and 7x7 eigh (like a
# classify command), and a loop of small einsum updates (like its RK4
# steps).  Set-up probes time the kernel in their own interpreter.  The
# raw pass times and the factors are in the info line.
CAL_EVERY_S = 0.05
CAL_REF_S = 0.0013


def calibration_kernel():
    """Run the fixed kernel once and return its duration in seconds."""
    import numpy as np

    start = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int)
    parser.add_argument("--r", type=float)
    shape = np.diag(np.arange(1.0, 8.0)) + 1e-3
    for i in range(10):
        parser.parse_args(["--n", str(i), "--r", "0.5"])
        np.linalg.eigh(np.asarray(json.loads(json.dumps(shape.tolist()))))
    a = np.arange(36.0).reshape(6, 6) / 100.0
    x = np.ones((5, 6))
    for _ in range(100):
        x = x + 1e-3 * (np.einsum("ij,rj->ri", a, x) - 0.5 * x)
    return time.perf_counter() - start


def run_op(cli, op, recorder):
    """Run one command in-process; returns (seconds, (exit, stdout, stderr))."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if recorder is None:
                rc = cli.main(op.argv)
            else:
                with recorder.span(f"cli.main.{op.argv[0]}"):
                    rc = cli.main(op.argv)
    except Exception:  # a crash is a failed operation, not a benchmark error
        rc = None
        err.write(traceback.format_exc())
    return time.perf_counter() - start, (rc, out.getvalue(), err.getvalue())


def op_tail(times):
    """Highest nearest-rank percentile with at least ten operations above it."""
    ordered = sorted(times)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], rank / len(ordered)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "residuals", "catalog"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = cap_blas_threads()
    if not (SRC / "chgeom" / "__init__.py").is_file():
        print(f"error: no chgeom sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import chgeom

    if Path(chgeom.__file__).resolve().parent != SRC / "chgeom":
        print(f"error: imported chgeom from {chgeom.__file__}, not {SRC}", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT_DIR, prefix=f"{args.workload}-")
    try:
        return run(args, nproc, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, nproc, workdir) -> int:
    import numpy as np
    import spans
    import workloads
    from chgeom import cli

    rng = np.random.default_rng(args.seed)
    wl = workloads.WORKLOADS[args.workload](rng, nproc, workdir)
    recorder = spans.SpanRecorder() if args.trace else None
    instr = spans.Instrumentation(recorder) if args.trace else None

    def one_pass(traced):
        """Raw pass time, raw op times, outputs, and the pass's time factor."""
        if traced:
            instr.install()
        times, outputs = [], []
        kernel = [calibration_kernel()]
        since_kernel = 0.0
        try:
            for i, op in enumerate(wl.ops):
                if traced:
                    recorder.op_id, recorder.tag = i, op.tag
                dt, result = run_op(cli, op, recorder if traced else None)
                times.append(dt)
                outputs.append(result)
                since_kernel += dt
                if since_kernel >= CAL_EVERY_S:
                    since_kernel = 0.0
                    kernel.append(calibration_kernel())
        finally:
            if traced:
                instr.uninstall()
        return sum(times), times, outputs, CAL_REF_S / statistics.median(kernel)

    _, _, reference, _ = one_pass(False)  # warm-up; its outputs are checked
    passes = max(MIN_PASSES, round(args.seconds / wl.NOMINAL_PASS_S))
    # set-up probes run between passes, spread over the whole run
    probe_slots = [round(j * passes / (SETUP_SAMPLES - 1)) for j in range(SETUP_SAMPLES)]
    setup_samples = []
    pass_s = {False: [], True: []}  # scaled pass times
    raw_pass_s, factors = {False: [], True: []}, {False: [], True: []}
    op_times = []
    unstable = [False] * len(wl.ops)
    for p in range(passes + 1):
        setup_samples += [time_setup(wl.setup_args) for _ in range(probe_slots.count(p))]
        if p == passes:
            break
        traced = bool(args.trace) and p % 2 == 1
        wall, times, outputs, factor = one_pass(traced)
        pass_s[traced].append(wall * factor)
        raw_pass_s[traced].append(wall)
        factors[traced].append(factor)
        if not traced:
            op_times += [t * factor for t in times]
        for i, (got, want) in enumerate(zip(outputs, reference)):
            if got[:2] != want[:2]:
                unstable[i] = True

    check = wl.check(reference)
    status, reasons = [], []
    for s, why, bad, (rc, _, err) in zip(check.status, check.reasons, unstable, reference):
        if rc is None:  # the command raised instead of returning an exit code
            s, why = "failed", "crashed: " + err.strip().splitlines()[-1]
        elif bad:
            s, why = "wrong", "output differs between passes"
        status.append(s)
        reasons.append(why)
    executions = passes + 1
    attempted = executions * len(wl.ops)
    failed = executions * sum(s != "ok" for s in status)
    correct = "wrong" not in status
    worst_err = max(check.errors, default=1.0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tail, tail_pct = op_tail(op_times)
    untraced = pass_s[False]
    sizes = wl.sizes()
    if "scan_float64_array_bytes" in sizes:
        sizes["scan_array_vs_reference_l3"] = sizes["scan_float64_array_bytes"] / REFERENCE_L3_BYTES
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "loop": "closed, 1 client, in-process",
        "passes_timed": len(untraced),
        "raw_pass_s": [round(v, 4) for v in raw_pass_s[False]],
        "time_factors": [round(v, 4) for v in factors[False]],
        "calibration_ref_s": CAL_REF_S,
        "passes_traced": len(pass_s[True]),
        "ops_per_pass": len(wl.ops),
        "ops_timed": len(op_times),
        "op_tail_percentile": round(100 * tail_pct, 2),
        "items_per_pass": wl.items_per_pass(),
        "sizes": sizes,
        "not_ok": sorted({f"{op.argv[0]}: {why}" for op, s, why in zip(wl.ops, status, reasons) if s != "ok"}),
        **check.info,
        "machine": machine_facts(nproc),
    }

    if args.trace:
        names = per_layer_names()
        values = layer_metrics(recorder, pass_s, statistics.median(factors[True]), check, nproc)
    else:
        names = END_TO_END
        values = {
            "wall_s": statistics.median(untraced),
            "setup_s": statistics.median(setup_samples),
            "op_p50_s": statistics.median(op_times),
            "op_tail_s": tail,
            "items_per_s": wl.items_per_pass() * len(untraced) / sum(untraced),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - failed / attempted,
            "err_digits": -math.log10(max(worst_err, 1e-17)),
        }
    print(json.dumps(info))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in names}
    if args.trace:
        write_spans(recorder, args)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def layer_metrics(recorder, pass_s, factor, check, nproc) -> dict:
    """Per-layer metrics per traced pass (every pass does the same work);
    span times are scaled by the traced passes' median time factor."""
    traced_passes = len(pass_s[True])
    totals = recorder.totals()
    values = {}
    for span in SPANS:
        agg = totals.get(span, {})
        values[f"{span}.calls"] = agg.get("calls", 0) / traced_passes
        for key in ("busy_s", "self_s"):
            values[f"{span}.{key}"] = factor * agg.get(key, 0.0) / traced_passes
    for span, key, _, _ in SPAN_COUNTS:
        val = totals.get(span, {}).get(key, 0)
        values[f"{span}.{key}"] = val if key.startswith("max_") else val / traced_passes

    scan = totals.get("spectral.nonexistence_scan", {})
    values["spectral.nonexistence_scan.points_per_s"] = (
        scan["points"] / (factor * scan["busy_s"]) if scan.get("busy_s") else 0.0
    )
    values["spectral.classify.useful_ratio"] = (
        check.useful / check.useful_attempts if check.useful_attempts else 0.0
    )
    par, serial = recorder.totals("par"), recorder.totals("")
    par_sweep = par.get("cli.main.sweep", {"calls": 0, "busy_s": 0.0})
    serial_sweep = serial.get("cli.main.sweep", {"calls": 0, "busy_s": 0.0})
    par_tube = par.get("tubes.tube_shape_operator", {}).get("busy_s", 0.0)
    if par_sweep["calls"]:
        values["cli.sweep.parallel_efficiency"] = par_tube / (par_sweep["busy_s"] * nproc)
        # mean --jobs 1 sweep over mean --jobs nproc sweep
        values["cli.sweep.speedup"] = (serial_sweep["busy_s"] / serial_sweep["calls"]) / (
            par_sweep["busy_s"] / par_sweep["calls"]
        )
    else:
        values["cli.sweep.parallel_efficiency"] = values["cli.sweep.speedup"] = 0.0
    traced_wall = statistics.median(pass_s[True])
    untraced_wall = statistics.median(pass_s[False])
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return values


def write_spans(recorder, args):
    """Dump every span record (name, op, thread, start, end, parent)."""
    path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
    with open(path, "w") as fh:
        json.dump(recorder.records(), fh)


if __name__ == "__main__":
    sys.exit(main())
