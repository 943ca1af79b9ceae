"""Finite-difference laboratory tests: induced geometry of explicit
charts, Gauss/Codazzi residuals, the graded frame identities, and
convergence under step halving."""

import math
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chgeom.construction import build_submanifold
from chgeom.model import ModelParams, SolvableModel
from chgeom.numlab import (
    GermField,
    Indeterminate,
    _eigen_pairs,
    _lattice,
    _layout,
    frame_connection_residuals,
    gauss_codazzi_residuals,
    graded_connection_residuals,
    graded_curvature_residuals,
    real_eigenspace_residual,
    tube_chart,
    unit_pair_gauss_residual,
)
from chgeom.oracles import (
    convergence_order, frame_fields_per_row, horosphere_chart, stencil_decompositions,
    svd_normals,
)
from chgeom.spectral import classify
from chgeom.tubes import tube_spectrum_closed

EXACT_CHART_TOLERANCE = 1e-10
SPECTRUM_TOLERANCE = 1e-5
GAUSS_TOLERANCE = 2e-4
CODAZZI_TOLERANCE = 1e-5
LEMMA_TOLERANCE = 1e-6
DETECTOR_FLOOR = 1e-2
NUMERIC_CLASSIFY_TOLERANCE = 1e-4
ORDER_MIN = 1.8

TUBE_X0 = np.array([0.05, -0.08, 0.11, 0.02, -0.04])


@pytest.fixture(scope="module")
def tube_field():
    params = ModelParams(n=3, c=-4.0)
    spec = build_submanifold(params, k=2, phi=np.pi / 2)
    chart = tube_chart(spec, r=0.7)
    return GermField(chart, TUBE_X0)


@pytest.fixture(scope="module")
def horo_field():
    chart = horosphere_chart(ModelParams(n=2, c=-4.0))
    return GermField(chart, np.array([0.02, -0.03, 0.05]))


def test_horosphere_geometry_is_exact(horo_field):
    evals = np.sort(np.linalg.eigvalsh(horo_field.germ().shape))
    assert np.allclose(evals, [1.0, 1.0, 2.0], atol=EXACT_CHART_TOLERANCE)
    res = gauss_codazzi_residuals(horo_field)
    assert res["gauss"] < EXACT_CHART_TOLERANCE
    assert res["codazzi"] < EXACT_CHART_TOLERANCE


def test_numeric_geometry_invariants(tube_field):
    tangents, normal = tube_field.tangents(), tube_field.normal()
    shape = tube_field._shape
    # induced metric equals the frame Gram matrix of the tangents
    assert np.allclose(shape["metric"][0], tangents @ tangents.T, atol=1e-12)
    # unit normal orthogonal to every tangent
    assert abs(np.linalg.norm(normal) - 1.0) < 1e-12
    assert np.max(np.abs(tangents @ normal)) < 1e-10
    # second fundamental form is symmetric, trace-positive orientation
    ii = shape["second_fundamental"][0]
    assert np.max(np.abs(ii - ii.T)) < 1e-9
    assert np.trace(shape["coeff"][0]) >= 0
    assert np.trace(tube_field.germ().shape) >= 0  # the co-orientation classify reads
    # germ basis is orthonormal in frame components
    tb = tube_field.germ().tangent_basis
    assert np.allclose(tb @ tb.T, np.eye(tb.shape[0]), atol=1e-12)


def test_tube_spectrum_matches_closed_form(tube_field):
    germ = tube_field.germ()
    evals = np.sort(np.linalg.eigvalsh(germ.shape))
    expected = np.sort(tube_spectrum_closed(0.7, -4.0, 3, 2))
    assert np.max(np.abs(evals - expected)) < SPECTRUM_TOLERANCE


def test_numeric_germ_classifies(tube_field):
    res = classify(tube_field.germ(), tol=1e-4)
    assert res.model == "tube"
    assert res.k == 2
    assert abs(res.r - 0.7) < NUMERIC_CLASSIFY_TOLERANCE


def test_equidistant_chart_classifies():
    params = ModelParams(n=2, c=-4.0)
    spec = build_submanifold(params, k=1, phi=np.pi / 2)
    chart = tube_chart(spec, r=0.3)
    field = GermField(chart, np.zeros(chart.domain_dim))
    res = classify(field.germ(), tol=1e-4)
    assert res.model == "equidistant"
    assert res.k == 1
    assert abs(res.r - 0.3) < NUMERIC_CLASSIFY_TOLERANCE


def test_tube_gauss_codazzi_residuals(tube_field):
    res = gauss_codazzi_residuals(tube_field)
    assert res["gauss"] < GAUSS_TOLERANCE
    assert res["codazzi"] < CODAZZI_TOLERANCE


def _miscalibrated_residuals(field, scale):
    """Gauss/Codazzi residuals of a fresh copy of a field whose shape
    stacks (<S d_i, d_j> and S's coordinate matrix) are scaled."""
    fresh = GermField(field.chart, field.x0, fd_step=field.h)
    shape = fresh._shape
    for key in ("second_fundamental", "coeff"):
        shape[key] = scale * shape[key]
    return gauss_codazzi_residuals(fresh)


def test_perturbed_shape_is_detected(tube_field):
    res1 = _miscalibrated_residuals(tube_field, 1.01)
    assert res1["gauss"] > DETECTOR_FLOOR
    assert res1["codazzi"] > DETECTOR_FLOOR
    res2 = _miscalibrated_residuals(tube_field, 1.02)
    # leading order in the scale offset: doubling it doubles the residual
    for key in ("gauss", "codazzi"):
        ratio = res2[key] / res1[key]
        assert 1.5 < ratio < 2.5


def test_real_eigenspace_residual(tube_field):
    assert real_eigenspace_residual(tube_field) < LEMMA_TOLERANCE


def test_real_eigenspace_residual_on_a_hopf_field(horo_field):
    # the horosphere has h = 1: no Hopf frame, but a totally real check
    res = real_eigenspace_residual(horo_field)
    assert isinstance(res, float) and np.isfinite(res)
    assert res < EXACT_CHART_TOLERANCE


def test_graded_connection_residuals(tube_field):
    assert graded_connection_residuals(tube_field) < LEMMA_TOLERANCE


def test_graded_curvature_residuals(tube_field):
    assert graded_curvature_residuals(tube_field) < LEMMA_TOLERANCE


def test_unit_pair_gauss_residual(tube_field):
    assert unit_pair_gauss_residual(tube_field) < LEMMA_TOLERANCE


def test_frame_connection_residuals(tube_field):
    res = frame_connection_residuals(tube_field)
    assert set(res) == {
        "u1_u1", "u1_u2", "u1_a", "a_u1", "u2_u2", "u2_u1", "u2_a",
        "a_u2", "a_a",
    }
    assert max(res.values()) < LEMMA_TOLERANCE


def test_residuals_converge_under_halving():
    params = ModelParams(n=3, c=-4.0)
    spec = build_submanifold(params, k=2, phi=np.pi / 2)
    chart = tube_chart(spec, r=0.7)
    fields = {h: GermField(chart, TUBE_X0, fd_step=h) for h in (1e-3, 5e-4)}
    for key in ("gauss", "codazzi"):
        order = convergence_order(
            lambda h, key=key: gauss_codazzi_residuals(fields[h])[key]
        )
        assert order > ORDER_MIN


def test_convergence_order_helper():
    assert abs(convergence_order(lambda h: 3.0 * h**2) - 2.0) < 1e-12
    assert convergence_order(lambda h: 0.0 * h) == float("inf")


def test_germ_field_caches_offsets(tube_field):
    center = tube_field.germ()
    neighbor = tube_field._shape["normals"][tube_field._stencil[1]]  # +e_0
    # neighbor normals stay aligned with the center orientation
    assert float(neighbor @ center.normal) > 0.9
    # the cached lattice covers the L1 <= 3 ball needed by second derivatives
    far = (2, 1) + (0,) * (tube_field.dom - 2)
    row = _lattice(tube_field.dom).tolist().index(list(far))
    assert tube_field._coords[row].shape == (tube_field.params.dim,)


FRAME_SUITES = (
    graded_connection_residuals,
    graded_curvature_residuals,
    unit_pair_gauss_residual,
    frame_connection_residuals,
)


def test_frame_fields_carry_their_decomposition_groups(tube_field):
    """Each frame field names its group in the center decomposition, and
    comparing those labels gives the table that comparing eigenvalues to
    1e-6 gives (distinct groups lie more than the grouping tolerance
    apart)."""
    ff = tube_field.frame_fields
    decomp = tube_field.decomposition()
    assert ff.groups[:2] == tuple(decomp.hopf_indices)
    assert ff.groups[2] == decomp.non_hopf_indices[0]
    assert ff.eigenvalues == tuple(float(decomp.eigenvalues[i]) for i in ff.groups)
    lam, close = _eigen_pairs(ff)
    assert np.array_equal(close, np.abs(lam[None, :] - lam[:, None]) <= 1e-6)


def test_frame_table_is_built_once(monkeypatch):
    """The four frame suites read one table of nabla_{X_a} X_b, built in
    one batched pass per GermField."""
    tables = []
    original = GermField._nabla_table

    def counting(self, fields):
        table = original(self, fields)
        tables.append(table.shape)
        return table

    monkeypatch.setattr(GermField, "_nabla_table", counting)
    params = ModelParams(n=3, c=-4.0)
    chart = tube_chart(build_submanifold(params, k=2, phi=np.pi / 2), r=0.7)
    field = GermField(chart, TUBE_X0)
    first = [suite(field) for suite in FRAME_SUITES]
    # 5 x 5 pairs of U_1, U_2, A, one lambda_3 and one lambda_4 field
    assert tables == [(5, 5, params.dim)]
    assert len(field.frame_fields.fields) == 5
    # a second pass reads the same table
    assert [suite(field) for suite in FRAME_SUITES] == first
    assert len(tables) == 1


# (n, c, k, r, fd-step, center, how the stencil rows decompose: "alike",
# "sizes" where a row groups its eigenvalues unlike the center, or
# "nearest" where a row's group has moved past half a gap, nearer another
# center eigenvalue): every n = 2..5 and k at two centers, the edge rows
# of test_cli's CONTRACT where the frame suites do not run (the center at
# r = 5 and r = 6; eigenvalues past the grouping rule's resolution at r =
# 1e-100 and c = -1e100, and at c = -1e200, whose rows group unlike the
# center; the lambda_4 group of two rows at c = -0.01, r = 10, step 1e-8),
# and frames built over rows in three groupings at c = -1e-4, r = 0.002
STENCIL_CASES = [
    *[(n, -4.0, k, r, 1e-3, x0, "alike")
      for n in range(2, 6) for k in range(1, n) for r, x0 in ((0.5, 0.0), (0.7, 0.04))],
    (3, -4.0, 2, 5.0, 1e-3, 0.0, "alike"),
    (3, -4.0, 2, 6.0, 1e-3, 0.0, "alike"),
    (3, -4.0, 2, 1e-100, 1e-3, 0.0, "alike"),
    (3, -1e100, 2, 1e-151, 1e-100, 0.0, "alike"),
    (3, -1e200, 2, 1e-151, 1e-100, 0.0, "sizes"),
    (3, -1e-4, 2, 0.002, 1e-20, 0.0, "sizes"),
    (4, -4.0, 2, 0.5, 1e-9, 0.04, "sizes"),
    (3, -0.01, 2, 10.0, 1e-8, 0.0, "nearest"),
]


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n, c, k, r, step, x0, rows", STENCIL_CASES)
def test_stacked_stencil_matches_the_per_row_oracle(n, c, k, r, step, x0, rows):
    """The stencil's one stacked pass gives the center decomposition,
    the frame fields (fields, connection table, eigenvalues, groups) or
    the Indeterminate reason of one decomposition, ``hopf_frame`` and
    projection per stencil row, bit for bit, so that the stacked pass's
    group of the same index is the oracle's group nearest the center's
    eigenvalue; where a row groups its eigenvalues unlike the center
    (rows "sizes") or a row's group lies nearer another center eigenvalue
    (rows "nearest"), both routes raise the same Indeterminate."""
    chart = tube_chart(build_submanifold(ModelParams(n=n, c=c), k, np.pi / 2), r)
    center = x0 * np.cos(np.arange(chart.domain_dim))
    stacked, per_row = GermField(chart, center, step), GermField(chart, center, step)

    def outcome(frames, field):
        with np.errstate(all="ignore"):  # as residual_suites runs them
            try:
                return frames(field)
            except Indeterminate as exc:
                return str(exc)

    decomps = stencil_decompositions(per_row)
    assert (len({d.multiplicities for d in decomps}) == 1) == (rows != "sizes")
    want, got = decomps[0], stacked.decomposition()
    for name in ("normal", "eigenvalues", "jxi_components"):
        assert _same_bits(getattr(got, name), getattr(want, name)), name
    for name in ("spaces", "jxi_coefficients"):
        assert all(map(_same_bits, getattr(got, name), getattr(want, name))), name
    assert (got.multiplicities, got.hopf_indices, got.non_hopf_indices) == (
        want.multiplicities, want.hopf_indices, want.non_hopf_indices
    )
    ff = outcome(lambda field: field.frame_fields, stacked)
    oracle = outcome(frame_fields_per_row, per_row)
    assert rows == "alike" or isinstance(oracle, str), "frames built over rows unlike the center"
    if isinstance(oracle, str):
        assert ff == oracle
        assert ("the groups nearest the center's eigenvalues" in oracle) == (rows == "nearest")
        return
    assert (ff.eigenvalues, ff.groups) == (oracle.eigenvalues, oracle.groups)
    assert _same_bits(ff.fields, oracle.fields)
    assert _same_bits(ff.nabla, oracle.nabla)


def test_christoffels_are_computed_once_per_offset(monkeypatch):
    """One batched Christoffel pass per GermField covers the center and
    its 2 * dom neighbours; a second Gauss/Codazzi call builds nothing."""
    tables = []
    original = GermField.__dict__["_christoffels"].func

    def counting(self):
        table = original(self)
        tables.append(table.shape)
        return table

    prop = cached_property(counting)
    prop.__set_name__(GermField, "_christoffels")
    monkeypatch.setattr(GermField, "_christoffels", prop)
    params = ModelParams(n=3, c=-4.0)
    chart = tube_chart(build_submanifold(params, k=2, phi=np.pi / 2), r=0.7)
    field = GermField(chart, TUBE_X0)
    first = gauss_codazzi_residuals(field)
    dom = field.dom
    assert tables == [(2 * dom + 1, dom, dom, dom)]
    assert gauss_codazzi_residuals(field) == first
    assert len(tables) == 1


def test_lattice_rows_and_neighbours_agree_with_offsets():
    """The sorted lattice and the index tables of its layout."""
    for dim in range(1, 9):
        offsets = _lattice(dim)
        assert [tuple(o) for o in offsets.tolist()] == sorted(
            {tuple(o) for o in offsets.tolist()}
        )
        # every offset of L1 norm <= 3, once
        l1 = np.abs(offsets).sum(axis=1)
        assert l1.max() == 3
        assert len(offsets) == sum(
            2**j * math.comb(dim, j) * math.comb(3, j) for j in range(4)
        )
        ball2, nbr, stencil, stencil_nbr, center_nbr = _layout(dim)
        np.testing.assert_array_equal(ball2, np.flatnonzero(l1 <= 2))
        steps = offsets[nbr] - offsets[ball2][:, None, None, :]
        unit = np.eye(dim, dtype=int)
        assert (steps[:, :, 0] == unit).all() and (steps[:, :, 1] == -unit).all()
        # stencil rows: the center, then +e_0, -e_0, +e_1, ...
        rows = offsets[ball2[stencil]]
        assert not rows[0].any()
        pairs = np.stack([unit, -unit], axis=1).reshape(-1, dim)
        np.testing.assert_array_equal(rows[1:], pairs)
        # the stencil's neighbours, as ball positions and stencil positions
        np.testing.assert_array_equal(ball2[stencil_nbr], nbr[stencil])
        np.testing.assert_array_equal(stencil[center_nbr], stencil_nbr[0])


@pytest.mark.parametrize(
    "n, k, r, flipped", [(2, 1, 0.3, False), (3, 2, 0.7, True)]
)
def test_normal_orientation(n, k, r, flipped):
    """trace S (of C and of the germ) and the trace of <S d_i, d_j> are
    >= 0 at the center and every L1 <= 1 neighbour normal is aligned with
    the center one, whether or not the center's SVD normal had to be
    turned around (at x0 = 0 it must be on the n=3 k=2 tube, and not on
    the n=2 k=1 one).  The one pass gives the normals and shape stacks of
    the two-pass route: project the center's SVD normal off every ball
    point's tangents, orient by trace S from the center's S, then build
    the stencil's S from the oriented normals."""
    spec = build_submanifold(ModelParams(n=n, c=-4.0), k=k, phi=np.pi / 2)
    chart = tube_chart(spec, r=r)
    field = GermField(chart, np.zeros(chart.domain_dim))
    center = field.normal()
    shape = field._shape
    assert np.trace(shape["coeff"][0]) >= 0
    assert np.trace(field.germ().shape) >= 0
    assert np.trace(shape["second_fundamental"][0]) >= 0
    for neighbor in shape["normals"][field._stencil[1:]]:
        assert float(neighbor @ center) > 0
    # the orientation branch: the SVD normal at the center, turned or not
    _, _, vt = np.linalg.svd(field.tangents(), full_matrices=True)
    assert (float(vt[-1] @ center) < 0) == flipped

    def s_ambient(normals, stop=None):
        rows = field._stencil[:stop]
        dn = field._difference(normals, field._stencil_nbr[:stop])
        t = field._tangents[rows]
        return -(dn + field.model.koszul_connection(t, normals[rows][:, None, :]))

    tb = field._tangents
    along = np.linalg.solve(tb @ np.swapaxes(tb, 1, 2), (tb @ vt[-1])[..., None])
    nrm = vt[-1] - (np.swapaxes(tb, 1, 2) @ along)[..., 0]
    nrm /= np.linalg.norm(nrm, axis=1)[:, None]
    t0 = field.tangents()
    if np.trace(s_ambient(nrm, stop=1)[0] @ t0.T @ np.linalg.inv(t0 @ t0.T)) < 0:
        nrm = -nrm  # trace S < 0
    s_amb = s_ambient(nrm)
    ii = s_amb @ np.swapaxes(field._tangents[field._stencil], 1, 2)
    # == counts -0.0 and 0.0 as equal
    assert (shape["normals"] == nrm).all()
    assert (shape["s_ambient"] == s_amb).all()
    assert (shape["second_fundamental"] == ii).all()
    assert (shape["coeff"] == ii @ shape["inv_metric"]).all()


EPS = np.finfo(float).eps


def _worst_tangent_cosine(tangents, normals) -> float:
    """max |t . n| / |t| over the coordinate tangents t of every point."""
    dots = np.abs(tangents @ normals[..., None])[..., 0]
    return float(np.max(dots / np.linalg.norm(tangents, axis=-1)))


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(
    nk=st.integers(2, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
    sr_exp=st.floats(-4.0, math.log10(1.2)),
    step=st.sampled_from([1e-3, 5e-4]),
    x0=st.sampled_from([0.0, 0.04]),
)
def test_projected_normals_match_the_svd_oracle(nk, sr_exp, step, x0):
    """The ball normals, each the center's SVD normal minus its part
    along the point's tangents, are unit vectors within 8 eps kappa of
    the per-point SVD normals (``oracles.svd_normals``), and no further
    from normal to the tangents than those: on tubes for n = 2..5, every
    k, s*r in [1e-4, 1.2] (c = -4, s = 1) and the golden's two steps.
    kappa is the condition number of the point's tangents: the SVD's own
    null vector is good to about eps kappa (Wedin), which reaches 1e4 eps
    at s*r = 1e-4, where the normal-sphere tangents are that short."""
    (n, k), r = nk, min(10.0**sr_exp, 1.2)
    chart = tube_chart(build_submanifold(ModelParams(n=n, c=-4.0), k, np.pi / 2), r)
    field = GermField(chart, x0 * np.cos(np.arange(chart.domain_dim)), step)
    normals, tangents = field._shape["normals"], field._tangents
    oracle = svd_normals(tangents, field._center)
    oracle *= np.sign(oracle[field._center] @ normals[field._center])  # the trace S turn
    sv = np.linalg.svd(tangents, compute_uv=False)
    assert np.max(np.abs(np.linalg.norm(normals, axis=1) - 1.0)) <= 2 * EPS
    assert (np.linalg.norm(normals - oracle, axis=1) <= 8 * EPS * sv[:, 0] / sv[:, -1]).all()
    assert _worst_tangent_cosine(tangents, normals) <= _worst_tangent_cosine(tangents, oracle)


def test_field_derivative_helpers(tube_field):
    # scalar derivative of a coordinate function recovers the direction
    coords = tube_field._coords[tube_field._ball2[tube_field._stencil]]
    values = coords.sum(axis=1)
    direction = tube_field.tangents()[0]  # first coordinate tangent
    d = tube_field.scalar_derivative(values, direction)
    dcoords = float(np.sum(coords[1]) - np.sum(coords[2])) / (2 * tube_field.h)
    assert abs(d - dcoords) < 1e-9


def test_germ_field_rejects_a_center_of_the_wrong_dimension(tube_field):
    dom = tube_field.chart.domain_dim
    for x0 in (np.zeros(dom - 1), np.zeros(dom + 1), np.zeros((1, dom)), 0.0):
        with pytest.raises(ValueError, match="center point has wrong dimension"):
            GermField(tube_field.chart, x0)

def test_distance_to_base_orbit(tube_field):
    """Walking the inward numeric normal for time r returns to the orbit
    (its z-coordinate pattern: the endpoint lies on the subgroup where
    the chart's base points live)."""
    model = SolvableModel(tube_field.params)
    # trace(S) >= 0 orients the numeric normal inward, toward the orbit
    back, _ = model.integrate_geodesic(
        tube_field.coords(), tube_field.normal(), 0.7, step=1e-4
    )
    # the orbit through the identity: v-part confined to the base rows
    params = ModelParams(n=3, c=-4.0)
    spec = build_submanifold(params, k=2, phi=np.pi / 2)
    w_rows = spec.tangent_basis[2:, 2:]
    v = back[2:]
    proj = w_rows.T @ (w_rows @ v)
    assert np.linalg.norm(v - proj) < 1e-6
