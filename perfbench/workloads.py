"""The three chgeom benchmark workloads: their operations and checks.

Every operation is one ``chgeom`` command line, run in-process through
``chgeom.cli.main``.  A workload is built from a seeded generator, the
usable core count and a scratch directory for its input files; its
operation list is a pure function of the seed, and each timed pass runs
the whole list once, so every pass does the same work.  Checks run after
the timed phase on the captured output of each operation and return,
per operation, one of

  "ok"      the output is right,
  "failed"  the classifier did not place a valid catalog germ back at
            its model, k and r (the known classifier defect at the ends of
            the radius range); run.py also marks every crash "failed",
  "wrong"   any other wrong output (a FAIL line, a wrong exit code, a
            wrong sweep row, bytes that differ between worker counts or
            between passes).

Both "failed" and "wrong" count in ``failed``; only "wrong" makes the run
incorrect.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from chgeom import cli, jacobi, tubes
from chgeom.construction import build_submanifold
from chgeom.model import ModelParams
from chgeom.spectral import catalog_germ, eigen_structure_from_lambda3

# acceptance-battery bounds the checks reuse (tests/test_acceptance.py)
DETERMINANT_TOLERANCE = 1e-10
REFINED_TOLERANCE = 1e-9
CLASSIFY_RADIUS_TOLERANCE = 1e-6
ORDER_MIN = 1.8


@dataclass
class Op:
    argv: list
    kind: str
    tag: str = ""  # "par" for sweeps at --jobs = nproc
    meta: dict = field(default_factory=dict)


@dataclass
class CheckResult:
    status: list  # per op: "ok" | "failed" | "wrong"
    reasons: list  # per op: "" or why it is not ok
    errors: list  # checked errors against their references
    useful: int  # correct classifier labels
    useful_attempts: int  # classifier calls that should have succeeded
    info: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return repr(float(x))


def _rate(c: float) -> float:
    return math.sqrt(-c) / 2.0


# ---------------------------------------------------------------------------
# sweep


class SweepWorkload:
    """Radius sweeps of tube invariants: one long matrix RK4 per radius.

    Each grid has three radii centred on the special radius r*: a small
    one (about 0.1/s, s = sqrt(-c)/2), one 1-3 % off r*, and one about
    1.2/s.  Every grid runs at --jobs 1, at --jobs nproc and at --jobs 1
    again; all three outputs must be the same bytes.  The odd count of
    operations per grid also keeps the median operation inside a group of
    like operations instead of between two groups.
    """

    name = "sweep"
    # (n, c, k): one k = 1 pair and two k >= 2 pairs
    GRIDS = ((2, -4.0, 1), (3, -4.0, 2), (4, -4.0, 3))
    COUNT = 3
    # Sizes the run: it times round(seconds / NOMINAL_PASS_S) passes.  About
    # the median pass time when the benchmark was introduced (2-core Xeon,
    # numpy 2.4, OpenBLAS).  A fixed pass count keeps the percentile ranks
    # of op_p50_s and op_tail_s the same on every commit.
    NOMINAL_PASS_S = 4.2

    def __init__(self, rng: np.random.Generator, nproc: int, workdir: str):
        self.nproc = nproc
        self.grids = []
        self.ops = []
        for n, c, k in self.GRIDS:
            r_min = (0.1 / _rate(c)) * rng.uniform(0.9, 1.1)
            r_near = jacobi.special_radius(c) * (1.0 + rng.choice((-1, 1)) * rng.uniform(0.01, 0.03))
            grid = dict(n=n, c=c, k=k, r_min=r_min, r_max=2.0 * r_near - r_min)
            self.grids.append(grid)
            base = [
                "sweep", "--n", str(n), "--c", _fmt(c), "--k", str(k),
                "--r-min", _fmt(r_min), "--r-max", _fmt(grid["r_max"]), "--count", str(self.COUNT),
            ]
            for jobs in (1, nproc, 1):
                tag = "par" if jobs == nproc and jobs > 1 else ""
                self.ops.append(Op(base + ["--jobs", str(jobs)], "sweep", tag, {"grid": grid, "jobs": jobs}))
        self.setup_args = self.GRIDS[0]

    def items_per_pass(self) -> int:
        return len(self.ops) * self.COUNT

    def sizes(self) -> dict:
        return {
            "grids": [
                {**g, "radii": np.linspace(g["r_min"], g["r_max"], self.COUNT).tolist()}
                for g in self.grids
            ],
            "jobs": [1, self.nproc, 1],
            "ode_step": self._ode_step(self.ops[0]),
            "item": "swept radius",
        }

    @staticmethod
    def _ode_step(op: Op) -> float:
        return cli.build_parser().parse_args(op.argv).ode_step

    def check(self, outputs) -> CheckResult:
        status, reasons, errors = [], [], []
        useful = attempts = 0
        serial = {}
        for op, (rc, out, _err) in zip(self.ops, outputs):
            g = op.meta["grid"]
            why = ""
            if rc != 0:
                why = f"exit {rc}"
            else:
                row_why, row_errors, good, rows = self._check_rows(g, out)
                why = row_why
                errors.extend(row_errors)
                useful += good
                attempts += rows
                key = id(g)
                if key in serial and serial[key] != out:
                    why = why or "output differs from the first --jobs 1 run"
                serial.setdefault(key, out)
            status.append("wrong" if why else "ok")
            reasons.append(why)
        errors.extend(self._tube_errors())
        return CheckResult(status, reasons, errors, useful, attempts)

    def _check_rows(self, g, out):
        lines = out.splitlines()
        if not lines or lines[0] != cli.SWEEP_COLUMNS:
            return "bad header", [], 0, 0
        radii = np.linspace(g["r_min"], g["r_max"], self.COUNT)
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != len(radii):
            return f"{len(rows)} rows for {len(radii)} radii", [], 0, 0
        n, c, k = g["n"], g["c"], g["k"]
        s = _rate(c)
        why, errs, good = "", [], 0
        for r, cells in zip(radii, rows):
            if cells[0] != _fmt(r):
                why = why or f"radius {cells[0]} != {r!r}"
                continue
            es = eigen_structure_from_lambda3(
                s * math.tanh(s * r), c, branch_hint="G3_K1" if k == 1 else None, n=n, k=k
            )
            det_err = abs(float(cells[13]) - float(cells[14]))
            errs.append(det_err)
            if cells[15] == es.branch:
                good += 1
            if (int(cells[11]), int(cells[12]), cells[15]) != (es.g, 2, es.branch):
                why = why or f"r={r!r}: g,h,status {cells[11:13] + cells[15:]} vs {es.g},2,{es.branch}"
            elif det_err > DETERMINANT_TOLERANCE:
                why = why or f"r={r!r}: |detD - sech^3| = {det_err:.2e}"
        return why, errs, good, len(rows)

    def _tube_errors(self):
        """Relative error of the integrated tube spectrum against the
        closed form, at the radius next to r* and the largest radius of
        every grid, at the sweep's ODE step."""
        step = self._ode_step(self.ops[0])
        errs = []
        for g in self.grids:
            spec = build_submanifold(ModelParams(g["n"], g["c"]), g["k"], math.pi / 2.0)
            radii = np.linspace(g["r_min"], g["r_max"], self.COUNT)
            for r in (radii[1], radii[-1]):
                res = tubes.tube_shape_operator(spec, spec.normal_basis[0], float(r), step=step)
                got = np.sort(np.linalg.eigvalsh(res.germ.shape))
                want = tubes.tube_spectrum_closed(float(r), g["c"], g["n"], g["k"])
                errs.append(float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
        return errs


# ---------------------------------------------------------------------------
# residuals


class ResidualsWorkload:
    """Finite-difference identity suites on tube charts.

    Each suite evaluates a GermField lattice of batched geodesics (231
    points at n=3 k=2, 575 at n=4 k=3).  Radii stay in 0.49-0.71, where
    the suite's fixed 1e-3 tolerance holds at --fd-step 1e-3 (as in
    acceptance criterion 9 at r = 0.7).
    """

    name = "residuals"
    # (n, c, k, r range); narrow ranges, since the lattice cost is
    # proportional to r
    CONFIGS = ((3, -4.0, 2, (0.49, 0.51)), (3, -4.0, 2, (0.69, 0.71)), (4, -4.0, 3, (0.49, 0.51)))
    FD_STEPS = (1e-3, 5e-4)
    NOMINAL_PASS_S = 6.0  # see SweepWorkload.NOMINAL_PASS_S
    LINES = 15

    def __init__(self, rng: np.random.Generator, nproc: int, workdir: str):
        self.ops = []
        self.configs = []
        for n, c, k, (lo, hi) in self.CONFIGS:
            r = rng.uniform(lo, hi)
            self.configs.append(dict(n=n, c=c, k=k, r=r))
            for h in self.FD_STEPS:
                argv = ["residuals", "--n", str(n), "--c", _fmt(c), "--k", str(k),
                        "--r", _fmt(r), "--fd-step", _fmt(h)]
                self.ops.append(Op(argv, "residuals", meta={"config": len(self.configs) - 1, "h": h}))
        self.setup_args = self.CONFIGS[0][:3]

    def items_per_pass(self) -> int:
        return len(self.ops)

    def sizes(self) -> dict:
        return {"configs": self.configs, "fd_steps": list(self.FD_STEPS), "item": "residual suite"}

    def check(self, outputs) -> CheckResult:
        status, reasons, errors = [], [], []
        values = {}
        for op, (rc, out, _err) in zip(self.ops, outputs):
            lines = [line.split() for line in out.splitlines()]
            why = ""
            if rc != 0:
                why = f"exit {rc}"
            elif len(lines) != self.LINES or any(len(p) != 3 or p[2] != "PASS" for p in lines):
                why = "a residual line is not PASS"
            else:
                vals = {p[0]: float(p[1]) for p in lines}
                errors.extend(vals.values())
                values[(op.meta["config"], op.meta["h"])] = vals
            status.append("wrong" if why else "ok")
            reasons.append(why)
        # second-order convergence of gauss and codazzi under halving
        for i, op in enumerate(self.ops):
            cfg, h = op.meta["config"], op.meta["h"]
            if h != self.FD_STEPS[1] or (cfg, self.FD_STEPS[0]) not in values or (cfg, h) not in values:
                continue
            coarse, fine = values[(cfg, self.FD_STEPS[0])], values[(cfg, h)]
            for key in ("gauss", "codazzi"):
                order = math.log2(coarse[key] / fine[key]) / math.log2(self.FD_STEPS[0] / h)
                if order <= ORDER_MIN and status[i] == "ok":
                    status[i], reasons[i] = "wrong", f"{key} order {order:.2f} <= {ORDER_MIN}"
        return CheckResult(status, reasons, errors, 0, 0)


# ---------------------------------------------------------------------------
# catalog


def _malformed(kind: int, data: dict) -> str:
    """One of eight malformed germ files; each must exit 2."""
    bad = json.loads(json.dumps(data))
    if kind == 0:
        return json.dumps(data)[: len(json.dumps(data)) // 2]  # truncated JSON
    if kind == 1:
        del bad["shape"]
    elif kind == 2:
        bad["tangent_basis"] = bad["tangent_basis"][:-1]
    elif kind == 3:
        bad["normal"] = [2.0 * x for x in bad["normal"]]
    elif kind == 4:
        bad["shape"][0][1] += 0.5
    elif kind == 5:
        bad["n"] = 1
    elif kind == 6:
        return json.dumps([bad["n"], bad["c"]])
    else:
        bad["c"] = 0.0
    return json.dumps(bad)


MALFORMED_KINDS = 8


class CatalogWorkload:
    """The closed-form path, with no ODE: classify, verify-model and the
    feasibility scans.

    Germs mix n = 2..4, every k in 1..n-1, c in {-1, -4}, both
    co-orientations, and r over (0, MAX_RADIUS] and down to 1e-9 (see
    ``_draws``).  After every tenth germ comes a malformed copy of it.  A valid germ the
    classifier does not place back at its catalog model, k and r counts
    as a failed operation; such germs are not filtered out.
    """

    name = "catalog"
    MALFORMED_EVERY = 10
    # Each float64 scan array (34 MiB) is larger than glibc's largest mmap
    # threshold (32 MiB), so it is always mapped and unmapped whole and
    # the peak RSS repeats from run to run.
    SCAN_GRID = (165, 165, 165)
    NOMINAL_PASS_S = 2.0  # see SweepWorkload.NOMINAL_PASS_S

    def __init__(self, rng: np.random.Generator, nproc: int, workdir: str):
        self.ops = []
        self.germs = []
        os.makedirs(workdir, exist_ok=True)
        for i, (n, k, c, r, flip) in enumerate(self._draws(rng)):
            germ = catalog_germ(ModelParams(n, c), k, r=r)
            data = (germ.flipped() if flip else germ).to_json_dict()
            files = [(json.dumps(data), {"n": n, "c": c, "k": k, "r": r, "flipped": flip})]
            if i % self.MALFORMED_EVERY == self.MALFORMED_EVERY - 1:
                kind = (i // self.MALFORMED_EVERY) % MALFORMED_KINDS
                files.append((_malformed(kind, data), {"malformed": kind}))
            for text, meta in files:
                path = os.path.join(workdir, f"germ{len(self.ops):03d}.json")
                with open(path, "w") as fh:
                    fh.write(text)
                self.germs.append(meta)
                self.ops.append(Op(["classify", "--input", path], "classify", meta=meta))
        for n in (2, 3, 4):
            c = -float(rng.uniform(1.0, 5.0))
            argv = ["verify-model", "--n", str(n), "--c", _fmt(c), "--seed", str(int(rng.integers(0, 2**31)))]
            self.ops.append(Op(argv, "verify-model"))
        grid = [str(v) for v in self.SCAN_GRID]
        for sign in (1.0, -1.0):
            c = sign * float(rng.uniform(1.0, 5.0))
            self.ops.append(Op(["nonexistence", "--c", _fmt(c), "--grid", *grid], "nonexistence", meta={"c": c}))
        self.setup_args = next((g["n"], g["c"], g["k"]) for g in self.germs if "k" in g)

    @staticmethod
    def _draws(rng):
        """(n, k, c, r, flipped) of every germ, in random order.

        One germ per cell of c x (n, k) x co-orientation x radius band,
        where the bands are the unit intervals of (0, MAX_RADIUS] and the
        half-decades of [1e-9, 1); the seed places r inside its band
        (uniform, log-uniform in the half-decades) and shuffles the order.
        """
        pairs = [(n, k) for n in (2, 3, 4) for k in range(1, n)]
        bands = [(lo, lo + 1.0, False) for lo in range(int(tubes.MAX_RADIUS))]
        bands += [(d / 2.0, d / 2.0 + 0.5, True) for d in range(-18, 0)]
        draws = []
        for c in (-1.0, -4.0):
            for n, k in pairs:
                for flip in (False, True):
                    for lo, hi, log in bands:
                        u = hi - rng.random() * (hi - lo)  # in (lo, hi]
                        draws.append((n, k, c, float(10.0**u if log else u), flip))
        return [draws[i] for i in rng.permutation(len(draws))]

    def items_per_pass(self) -> int:
        return sum(1 for g in self.germs if "k" in g)

    def sizes(self) -> dict:
        points = math.prod(self.SCAN_GRID)
        return {
            "germs": self.items_per_pass(),
            "malformed_files": sum(1 for g in self.germs if "malformed" in g),
            "verify_model_n": [2, 3, 4],
            "scan_grid": list(self.SCAN_GRID),
            "scan_points": points,
            "scan_float64_array_bytes": points * 8,
            "item": "classified germ",
        }

    def check(self, outputs) -> CheckResult:
        status, reasons, errors = [], [], []
        useful = attempts = 0
        missed = []
        for op, (rc, out, _err) in zip(self.ops, outputs):
            why, state = "", "wrong"
            if op.kind == "classify" and "malformed" in op.meta:
                if rc != 2:
                    why = f"malformed file (kind {op.meta['malformed']}) exit {rc}, want 2"
            elif op.kind == "classify":
                attempts += 1
                m = op.meta
                if rc != 0:
                    why = f"exit {rc}"
                else:
                    res = json.loads(out)
                    want = "tube" if m["k"] >= 2 else "equidistant"
                    got = (res["model"], res["k"], res["r"], res.get("reason"))
                    if res["model"] != want or res["k"] != m["k"] or abs(res["r"] - m["r"]) >= CLASSIFY_RADIUS_TOLERANCE:
                        why, state = f"classifier miss: {res['model']}/{res.get('reason') or res['k']}", "failed"
                        missed.append({key: m[key] for key in ("n", "c", "k", "r", "flipped")} | {"got": got})
                    else:
                        useful += 1
                        errors.append(abs(res["r"] - m["r"]))
            elif op.kind == "verify-model":
                lines = out.splitlines()
                if rc != 0 or not lines or lines[-1] != "PASS":
                    why = f"verify-model exit {rc}"
                else:
                    errors.extend(float(line.split()[-1]) for line in lines[:-1])
            else:
                why = self._check_scan(op.meta["c"], rc, out, errors)
            status.append("ok" if not why else state)
            reasons.append(why)
        info = {"classifier_misses": missed}
        return CheckResult(status, reasons, errors, useful, attempts, info)

    @staticmethod
    def _check_scan(c, rc, out, errors) -> str:
        rows = {}
        for line in out.splitlines():
            key, _, value = line.rpartition("  ")
            rows[key.strip()] = value.strip()
        if rc != 0:
            return f"nonexistence exit {rc}"
        if c > 0:
            if rows.get("feasible points") != "0" or "certificate" not in rows:
                return "c > 0 scan found feasible points or no certificate"
            return ""
        samples = int(rows.get("curve samples", "0"))
        refined = float(rows.get("max refined residual", "inf"))
        if samples == 0 or not refined <= REFINED_TOLERANCE:
            return f"c < 0 scan: {samples} curve samples, refined residual {refined:.2e}"
        errors.append(refined)
        return ""


WORKLOADS = {"sweep": SweepWorkload, "residuals": ResidualsWorkload, "catalog": CatalogWorkload}
