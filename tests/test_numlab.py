"""Finite-difference laboratory tests: induced geometry of explicit
charts, Gauss/Codazzi residuals, the graded frame identities, and
convergence under step halving."""

import math
from functools import cached_property

import numpy as np
import pytest

from chgeom.construction import build_submanifold
from chgeom.model import ModelParams, SolvableModel
from chgeom.numlab import (
    GermField,
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
from chgeom.oracles import convergence_order, horosphere_chart
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
    # germ basis is orthonormal in frame components
    tb = tube_field.germ().tangent_basis
    assert np.allclose(tb @ tb.T, np.eye(tb.shape[0]), atol=1e-12)


def test_tube_spectrum_matches_closed_form(tube_field):
    germ = tube_field.germ()
    evals = np.sort(np.linalg.eigvalsh(germ.shape))
    expected = np.sort(tube_spectrum_closed(0.7, -4.0, 3, 2))
    assert np.max(np.abs(evals - expected)) < SPECTRUM_TOLERANCE


def test_numeric_germ_classifies(tube_field):
    res = classify(tube_field.germ(), tol=1e-4, grouping_tol=1e-5)
    assert res.model == "tube"
    assert res.k == 2
    assert abs(res.r - 0.7) < NUMERIC_CLASSIFY_TOLERANCE


def test_equidistant_chart_classifies():
    params = ModelParams(n=2, c=-4.0)
    spec = build_submanifold(params, k=1, phi=np.pi / 2)
    chart = tube_chart(spec, r=0.3)
    field = GermField(chart, np.zeros(chart.domain_dim))
    res = classify(field.germ(), tol=1e-4, grouping_tol=1e-5)
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
    """trace S and the trace of <S d_i, d_j> are >= 0 at the center and
    every L1 <= 1 neighbour normal is aligned with the center one, whether
    or not the first SVD normal had to be turned around (at x0 = 0 it must
    be on the n=3 k=2 tube, and not on the n=2 k=1 one).  The one pass
    gives the normals and shape stacks of the two-pass route: orient from
    the center's S, then build the stencil's S from the oriented normals."""
    spec = build_submanifold(ModelParams(n=n, c=-4.0), k=k, phi=np.pi / 2)
    chart = tube_chart(spec, r=r)
    field = GermField(chart, np.zeros(chart.domain_dim))
    center = field.normal()
    shape = field._shape
    assert np.trace(shape["coeff"][0]) >= 0
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

    nrm = np.linalg.svd(field._tangents, full_matrices=True)[2][:, -1]
    nrm = np.where((nrm @ nrm[field._center] < 0)[:, None], -nrm, nrm)
    if np.trace(s_ambient(nrm, stop=1)[0] @ field.tangents().T) < 0:
        nrm = -nrm
    s_amb = s_ambient(nrm)
    ii = s_amb @ np.swapaxes(field._tangents[field._stencil], 1, 2)
    # == counts -0.0 and 0.0 as equal
    assert (shape["normals"] == nrm).all()
    assert (shape["s_ambient"] == s_amb).all()
    assert (shape["second_fundamental"] == ii).all()
    assert (shape["coeff"] == ii @ shape["inv_metric"]).all()


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
