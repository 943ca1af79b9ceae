"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line with the measured figure so the
whole battery can be audited from the pytest log, then asserts it.
"""

import math
import time

import numpy as np

from chgeom import construction
from chgeom.cli import main as cli_main
from chgeom.construction import build_submanifold, rigidity_form_check
from chgeom.jacobi import (
    f_function,
    focal_collapse_matrix_closed,
    focal_collapse_matrix_numeric,
    focal_determinant_matrix,
    focal_radius,
    sech,
    special_radius,
)
from chgeom.model import ModelParams, SolvableModel
from chgeom.numlab import (
    GermField,
    convergence_order,
    frame_connection_residuals,
    gauss_codazzi_residuals,
    graded_connection_residuals,
    graded_curvature_residuals,
    real_eigenspace_residual,
    tube_chart,
    unit_pair_gauss_residual,
)
from chgeom.spectral import (
    catalog_germ,
    classify,
    constraint_residuals,
    eigen_structure_from_lambda3,
    frame_identity_residuals,
    nonexistence_scan,
    principal_decomposition,
)
from chgeom.tubes import tube_shape_operator, tube_spectrum_closed

CURVATURE_TOLERANCE = 1e-10
RIGIDITY_TOLERANCE = 1e-12
DETERMINANT_TOLERANCE = 1e-10
COLLAPSE_TOLERANCE = 1e-10
TUBE_RELATIVE_TOLERANCE = 1e-6
MERGE_TOLERANCE = 1e-8
REFINED_TOLERANCE = 1e-9
ROUNDTRIP_RADIUS_TOLERANCE = 1e-6
FRAME_TOLERANCE = 1e-9
NUMLAB_TOLERANCE = 1e-3
ORDER_MIN = 1.8


def _report(ok: bool, label: str, metric: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}: {label} ({metric})")
    return ok


def test_criterion_1_dual_route_curvature():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4):
        for c in (-1.0, -4.0):
            model = SolvableModel(ModelParams(n=n, c=c))
            rep = model.verify_curvature(samples=200, seed=20260814)
            worst = max(
                worst,
                rep["curvature"],
                rep["holomorphic"],
                rep["totally_real"],
                rep["pinching"],
            )
    dt = time.perf_counter() - t0
    ok = worst < CURVATURE_TOLERANCE and dt < 5.0
    assert _report(
        ok,
        "criterion 1 dual-route curvature agreement, n in {2,3,4}, "
        "c in {-1,-4}",
        f"max residual {worst:.3e}, {dt:.2f}s",
    )


def test_criterion_2_ruled_minimal_rigidity():
    t0 = time.perf_counter()
    worst_res = 0.0
    worst_trace = 0.0
    cases = 0
    for n in (2, 3, 4):
        params = ModelParams(n=n, c=-4.0)
        for k in range(1, n):
            phis = [math.pi / 2]
            if k % 2 == 0:
                phis.append(math.pi / 3)
            for phi in phis:
                spec = build_submanifold(params, k, phi)
                rep = rigidity_form_check(spec)
                worst_res = max(worst_res, rep["shape_form"])
                worst_trace = max(worst_trace, rep["trace"])
                cases += 1
                assert rep["shape_form"] <= construction.RIGIDITY_TOLERANCE
    dt = time.perf_counter() - t0
    ok = (
        worst_res < RIGIDITY_TOLERANCE
        and worst_trace < RIGIDITY_TOLERANCE
        and dt < 5.0
    )
    assert _report(
        ok,
        f"criterion 2 closed-form shape operator and minimality on "
        f"{cases} (n,k,phi) cases",
        f"form residual {worst_res:.3e}, trace {worst_trace:.3e}, {dt:.2f}s",
    )


def test_criterion_3_focal_determinant():
    t0 = time.perf_counter()
    worst = 0.0
    ts = np.linspace(1e-3, 2.5, 1000)
    for c in (-1.0, -4.0):
        s = math.sqrt(-c) / 2
        for lam3 in np.linspace(0.0, 0.99 * s, 100):
            es = eigen_structure_from_lambda3(float(lam3), c)
            b1, b2 = math.sqrt(es.b1sq), math.sqrt(es.b2sq)
            dmat = focal_determinant_matrix(
                es.lambda1, es.lambda2, b1, b2, c, ts
            )
            dets = np.linalg.det(dmat)
            f3 = f_function(lam3, c, ts)
            worst = max(worst, float(np.max(np.abs(dets - f3**3))))
            # matched radius: the determinant collapses like sech^3
            r = focal_radius(float(lam3), c)
            dr = np.linalg.det(
                focal_determinant_matrix(es.lambda1, es.lambda2, b1, b2, c, r)
            )
            worst = max(worst, abs(float(dr) - sech(s * r) ** 3))
        # matched pairs along the t-grid: lambda_3 chosen focal at each t
        for t in ts:
            lam3_t = s * math.tanh(s * t)
            es = eigen_structure_from_lambda3(lam3_t, c)
            b1, b2 = math.sqrt(es.b1sq), math.sqrt(es.b2sq)
            dt_det = np.linalg.det(
                focal_determinant_matrix(es.lambda1, es.lambda2, b1, b2, c, t)
            )
            worst = max(worst, abs(float(dt_det) - sech(s * t) ** 3))
    dt = time.perf_counter() - t0
    ok = worst < DETERMINANT_TOLERANCE and dt < 2.0
    assert _report(
        ok,
        "criterion 3 mode determinant identity on 1000x100 grid, "
        "c in {-1,-4}",
        f"max |det D - f^3| {worst:.3e}, {dt:.2f}s",
    )


def test_criterion_4_collapse_matrix():
    worst = 0.0
    worst_sq = 0.0
    for c in (-1.0, -4.0):
        s = math.sqrt(-c) / 2
        for lam3 in np.linspace(0.0, 0.95 * s, 50):
            es = eigen_structure_from_lambda3(float(lam3), c)
            b1, b2 = math.sqrt(es.b1sq), math.sqrt(es.b2sq)
            r = focal_radius(float(lam3), c)
            num = focal_collapse_matrix_numeric(
                es.lambda1, es.lambda2, b1, b2, c, r
            )
            closed = focal_collapse_matrix_closed(b1, b2, c)
            worst = max(worst, float(np.max(np.abs(num - closed))))
            sq = closed @ closed - (-c / 4) * np.eye(2)
            worst_sq = max(worst_sq, float(np.max(np.abs(sq))))
    ok = worst < COLLAPSE_TOLERANCE and worst_sq < COLLAPSE_TOLERANCE
    assert _report(
        ok,
        "criterion 4 collapse matrix closed form and square identity "
        "at the matched radius",
        f"max |C_num - C_closed| {worst:.3e}, max |C^2 + c/4 I| "
        f"{worst_sq:.3e}",
    )


def test_criterion_5_tube_operator_matches_catalog():
    t0 = time.perf_counter()
    params = ModelParams(n=3, c=-4.0)
    spec = build_submanifold(params, 2, math.pi / 2)
    eta = spec.normal_basis[0]
    worst = 0.0
    for r in (0.2, 0.7, 1.5):
        res = tube_shape_operator(spec, eta, r, step=1e-4)
        evals = np.sort(np.linalg.eigvalsh(res.germ.shape))
        expected = np.sort(tube_spectrum_closed(r, -4.0, 3, 2))
        rel = np.max(np.abs(evals - expected) / np.maximum(np.abs(expected), 1.0))
        worst = max(worst, float(rel))
        decomp = principal_decomposition(res.germ)
        mults = tuple(sorted((s.shape[0] for s in decomp.spaces), reverse=True))
        assert mults == (2, 1, 1, 1)
    dt = time.perf_counter() - t0
    ok = worst < TUBE_RELATIVE_TOLERANCE and dt < 30.0
    assert _report(
        ok,
        "criterion 5 integrated tube operator vs catalog, n=3 k=2, "
        "r in {0.2,0.7,1.5}",
        f"max relative error {worst:.3e}, {dt:.2f}s",
    )


def test_criterion_6_special_radius_merge():
    rstar = special_radius(-4.0)
    lam3 = math.tanh(rstar)
    es_star = eigen_structure_from_lambda3(lam3, -4.0)
    lam4_generic = 1.0 / lam3  # -c/(4 lambda3) for c = -4
    gap = abs(lam4_generic - es_star.lambda2)
    ok = es_star.g == 3 and es_star.lambda4 is None and gap < MERGE_TOLERANCE
    for dr in (-0.05, 0.05):
        lam3 = math.tanh(rstar + dr)
        es = eigen_structure_from_lambda3(lam3, -4.0)
        ok = ok and es.g == 4
    assert _report(
        ok,
        "criterion 6 eigenvalue count drops to three exactly at the "
        "special radius",
        f"|lambda4 - lambda2| {gap:.3e} at r*={rstar:.6f}",
    )


def test_criterion_7_feasibility_scan():
    t0 = time.perf_counter()
    pos = nonexistence_scan(4.0, grid_shape=(100, 100, 100))
    ok = (
        pos.total_points >= 10**6
        and pos.feasible_count == 0
        and bool(pos.certificate)
    )
    neg = nonexistence_scan(-4.0, grid_shape=(100, 100, 100))
    ok = (
        ok
        and neg.feasible_count > 0
        and len(neg.curve_points) > 0
        and neg.max_refined_residual < REFINED_TOLERANCE
    )
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    assert _report(
        ok,
        "criterion 7 positive-curvature scan empty with certificate, "
        "negative-curvature curve refined",
        f"{pos.total_points} points, refined residual "
        f"{neg.max_refined_residual:.3e}, {dt:.2f}s",
    )


def test_criterion_8_classifier_roundtrip():
    rng = np.random.default_rng(20260814)
    worst_dr = 0.0
    worst_frame = 0.0
    worst_b = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n))
        r = float(rng.uniform(0.1, 1.6))
        germ = catalog_germ(ModelParams(n=n, c=-4.0), k, r=r)
        res = classify(germ)
        assert res.k == k and res.model in ("tube", "equidistant")
        worst_dr = max(worst_dr, abs(res.r - r))
        fres = frame_identity_residuals(principal_decomposition(germ))
        worst_frame = max(worst_frame, max(fres.values()))
        es = eigen_structure_from_lambda3(math.tanh(r), -4.0)
        worst_b = max(
            worst_b, max(abs(v) for v in constraint_residuals(es).values())
        )
    ok = (
        worst_dr < ROUNDTRIP_RADIUS_TOLERANCE
        and worst_frame < FRAME_TOLERANCE
        and worst_b < FRAME_TOLERANCE
    )
    assert _report(
        ok,
        "criterion 8 classify round-trips 20 random catalog germs",
        f"max |dr| {worst_dr:.3e}, frame residual {worst_frame:.3e}, "
        f"catalog residual {worst_b:.3e}",
    )


def test_criterion_9_finite_difference_laboratory():
    t0 = time.perf_counter()
    params = ModelParams(n=3, c=-4.0)
    spec = build_submanifold(params, 2, math.pi / 2)
    chart = tube_chart(spec, r=0.7)
    x0 = np.array([0.05, -0.08, 0.11, 0.02, -0.04])
    fields = {h: GermField(chart, x0, fd_step=h) for h in (1e-3, 5e-4)}
    field = fields[1e-3]
    values = dict(gauss_codazzi_residuals(field))
    values["real_eigenspace"] = real_eigenspace_residual(field)
    values["graded_connection"] = graded_connection_residuals(field)
    values["graded_curvature"] = graded_curvature_residuals(field)
    values["unit_pair_gauss"] = unit_pair_gauss_residual(field)
    values.update(frame_connection_residuals(field))
    worst = max(values.values())
    orders = {
        key: convergence_order(
            lambda h, key=key: gauss_codazzi_residuals(fields[h])[key]
        )
        for key in ("gauss", "codazzi")
    }
    dt = time.perf_counter() - t0
    ok = worst < NUMLAB_TOLERANCE and min(orders.values()) > ORDER_MIN and dt < 120.0
    assert _report(
        ok,
        "criterion 9 finite-difference identity suite on the n=3 k=2 "
        "r=0.7 tube",
        f"max residual {worst:.3e}, orders gauss {orders['gauss']:.2f} "
        f"codazzi {orders['codazzi']:.2f}, {dt:.2f}s",
    )


def test_criterion_10_sweep_determinism(tmp_path):
    args = [
        "sweep", "--n", "3", "--c", "-4", "--k", "2",
        "--r-min", "0.2", "--r-max", "1.4", "--count", "7",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--output", str(a)]) == 0
    assert cli_main(args + ["--output", str(b), "--jobs", "4"]) == 0
    same = a.read_bytes() == b.read_bytes()
    assert _report(
        same,
        "criterion 10 sweep output byte-identical across reruns and "
        "worker counts",
        f"{len(a.read_bytes())} bytes",
    )
