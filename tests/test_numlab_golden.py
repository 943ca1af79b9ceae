"""Golden values of the finite-difference residual suites.

Recorded with the per-offset GermField that preceded the lattice-array
one, as the repr of every value: the batched Gauss and Codazzi route must
reproduce them bit for bit, every other value to 1e-12 absolute.  Nine
Gauss and Codazzi values were re-recorded, each moved by at most 1.8e-15,
when those suites began to take the ambient curvature from
``model.ambient_curvature`` instead of a formula of their own.  A
horosphere field has h = 1, so it has no frame suites.

Every value was re-recorded when the lab's normals became projections of
the center's SVD normal (one stacked solve over the ball metrics) in
place of one SVD per ball point, whose normals carried uncorrelated
last-bit noise into the central differences.  Gauss and Codazzi moved by
at most 1.6e-6 relative (codazzi, crit9 at h = 5e-4).  Every other value
fell, most of the frame values by two to five orders (crit9 at h = 1e-3:
frame_u1_u1 2.606e-10 -> 4.229e-13), except frame_a_a at n3k2 and n4k3,
h = 1e-3, which read 0.0 and now read 5.55e-17 (2^-54, one rounding).

The bit-for-bit values also pin the floating-point build: numpy 2.4 on
x86-64 with OpenBLAS 0.3.31 (DYNAMIC_ARCH) running its SkylakeX
(AVX-512) kernels.  With the Haswell kernels (``OPENBLAS_CORETYPE=
Haswell`` or ``=Zen``, or a CPU without AVX-512) every tube case below
fails, and not on a last bit: the central differences magnify the
kernels' rounding, so ``gauss`` moves by about 5e-9 relative (crit9 at
h = 1e-3: 7.556435681e-05 -> 7.556435719e-05) and 11 of the 93 values
below leave their bounds (74 with the per-point SVD normals).  Such a
CPU also lacks numpy's X86_V4 loops, which moves the sweep bytes as
well; see ``test_classify_golden.py``.
"""

import numpy as np
import pytest

from chgeom.construction import build_submanifold
from chgeom.model import ModelParams
from chgeom.numlab import (
    RESIDUAL_SUITES,
    GermField,
    Indeterminate,
    frame_connection_residuals,
    gauss_codazzi_residuals,
    graded_connection_residuals,
    graded_curvature_residuals,
    real_eigenspace_residual,
    residual_suites,
    tube_chart,
    unit_pair_gauss_residual,
)
from chgeom.oracles import horosphere_chart

BIT_EXACT = ("gauss", "codazzi")
OTHER_TOLERANCE = 1e-12
TUBE_X0 = (0.05, -0.08, 0.11, 0.02, -0.04)
# name -> (n, k, r, center point; None: x0 = 0)
TUBES = {
    "crit9": (3, 2, 0.7, TUBE_X0),
    "n3k2": (3, 2, 0.5, None),
    "n4k3": (4, 3, 0.5, None),
}

GOLDEN = {
    ("crit9", 0.001): {
        "gauss": 7.556435681088658e-05,
        "codazzi": 3.137257499119528e-06,
        "real_eigenspace": 2.9383399176157307e-32,
        "graded_connection": 8.69310894054093e-12,
        "graded_curvature": 1.0806359527399152e-12,
        "unit_pair_gauss": 6.84194922939696e-11,
        "frame_u1_u1": 4.2289115907671777e-13,
        "frame_u1_u2": 7.197007695245689e-13,
        "frame_u1_a": 5.717919486537696e-13,
        "frame_a_u1": 6.040729231488529e-14,
        "frame_u2_u2": 5.588292794921694e-14,
        "frame_u2_u1": 9.287192900261037e-14,
        "frame_u2_a": 5.69161011585542e-14,
        "frame_a_u2": 9.387962609924059e-14,
        "frame_a_a": 6.526698574975893e-14,
    },
    ("crit9", 0.0005): {
        "gauss": 1.8891086465799845e-05,
        "codazzi": 7.843144880226305e-07,
        "real_eigenspace": 1.1148225164828692e-32,
        "graded_connection": 8.093805971313217e-11,
        "graded_curvature": 1.3100974047350364e-10,
        "unit_pair_gauss": 1.4020593575025941e-09,
        "frame_u1_u1": 2.991449736194139e-13,
        "frame_u1_u2": 9.76555676325855e-13,
        "frame_u1_a": 6.617440230732057e-13,
        "frame_a_u1": 1.3016884040534657e-13,
        "frame_u2_u2": 2.8317920637160934e-13,
        "frame_u2_u1": 3.004047476310855e-13,
        "frame_u2_a": 2.074938876752839e-13,
        "frame_a_u2": 9.714243695878502e-14,
        "frame_a_a": 1.3661819474839046e-13,
    },
    ("n3k2", 0.001): {
        "gauss": 3.2893522829979815e-05,
        "codazzi": 1.2258293018430066e-06,
        "real_eigenspace": 0.0,
        "graded_connection": 1.3478680854276471e-11,
        "graded_curvature": 7.892601114469087e-11,
        "unit_pair_gauss": 6.776366134886302e-10,
        "frame_u1_u1": 1.4432899320127035e-15,
        "frame_u1_u2": 3.6018140020540235e-15,
        "frame_u1_a": 6.268907512905593e-14,
        "frame_a_u1": 2.0014830212433605e-16,
        "frame_u2_u2": 1.1762602059271538e-15,
        "frame_u2_u1": 5.551115123125783e-17,
        "frame_u2_a": 4.8845089676229335e-14,
        "frame_a_u2": 2.482534153247273e-16,
        "frame_a_a": 5.551115123125783e-17,
    },
    ("n3k2", 0.0005): {
        "gauss": 8.223380705274508e-06,
        "codazzi": 3.064573828037709e-07,
        "real_eigenspace": 0.0,
        "graded_connection": 1.0752377065779461e-10,
        "graded_curvature": 5.177937738807818e-11,
        "unit_pair_gauss": 1.5621268723009507e-09,
        "frame_u1_u1": 9.155133597044475e-16,
        "frame_u1_u2": 2.458836977398138e-15,
        "frame_u1_a": 4.40109267240385e-14,
        "frame_a_u1": 2.0014830212433605e-16,
        "frame_u2_u2": 6.866350197783356e-16,
        "frame_u2_u1": 2.0014830212433605e-16,
        "frame_u2_a": 3.4330180219277946e-14,
        "frame_a_u2": 2.482534153247273e-16,
        "frame_a_a": 5.551115123125783e-17,
    },
    ("n4k3", 0.001): {
        "gauss": 3.2893522829979815e-05,
        "codazzi": 1.2258293018430066e-06,
        "real_eigenspace": 0.0,
        "graded_connection": 1.3502116018894621e-11,
        "graded_curvature": 7.892601114469086e-11,
        "unit_pair_gauss": 6.778089201020521e-10,
        "frame_u1_u1": 1.4432899320127035e-15,
        "frame_u1_u2": 3.6018140020540235e-15,
        "frame_u1_a": 6.268907512905593e-14,
        "frame_a_u1": 1.2412670766236366e-16,
        "frame_u2_u2": 1.319485001705613e-15,
        "frame_u2_u1": 5.551115123125783e-17,
        "frame_u2_a": 4.894321749572458e-14,
        "frame_a_u2": 2.482534153247273e-16,
        "frame_a_a": 5.551115123125783e-17,
    },
    ("n4k3", 0.0005): {
        "gauss": 8.223380705274508e-06,
        "codazzi": 3.064573828037709e-07,
        "real_eigenspace": 0.0,
        "graded_connection": 1.0754422719849831e-10,
        "graded_curvature": 5.2474683137013825e-11,
        "unit_pair_gauss": 1.5650987172932673e-09,
        "frame_u1_u1": 9.155133597044475e-16,
        "frame_u1_u2": 2.458836977398138e-15,
        "frame_u1_a": 4.40109267240385e-14,
        "frame_a_u1": 1.2412670766236366e-16,
        "frame_u2_u2": 8.252325904466732e-16,
        "frame_u2_u1": 2.0014830212433605e-16,
        "frame_u2_a": 3.4427700933731855e-14,
        "frame_a_u2": 2.482534153247273e-16,
        "frame_a_a": 5.551115123125783e-17,
    },
    ("horosphere", 0.001): {
        "gauss": 8.881367863367018e-13,
        "codazzi": 5.592748486549226e-14,
        "real_eigenspace": 0.0,
    },
}


def _field(name, h):
    if name == "horosphere":
        chart = horosphere_chart(ModelParams(n=2, c=-4.0))
        return GermField(chart, np.array([0.02, -0.03, 0.05]), fd_step=h)
    n, k, r, x0 = TUBES[name]
    chart = tube_chart(build_submanifold(ModelParams(n=n, c=-4.0), k, np.pi / 2), r)
    x0 = np.zeros(chart.domain_dim) if x0 is None else np.array(x0)
    return GermField(chart, x0, fd_step=h)


def _suite_values(field, frames):
    """The values ``chgeom residuals`` prints: the runner's; a field
    without frames (h = 1) skips exactly the four frame suites."""
    values, skipped, _ = residual_suites(field)
    assert skipped == (() if frames else RESIDUAL_SUITES[3:])
    return values


def _one_by_one(field):
    """The six suites called one by one, each on a fresh copy of the
    field: their values under the runner's names, and the suites that
    raise ``Indeterminate``."""
    suites = {
        "gauss_codazzi": gauss_codazzi_residuals,
        "real_eigenspace": real_eigenspace_residual,
        "graded_connection": graded_connection_residuals,
        "graded_curvature": graded_curvature_residuals,
        "unit_pair_gauss": unit_pair_gauss_residual,
        "frame_connection": frame_connection_residuals,
    }
    values, skipped = {}, []
    for name, suite in suites.items():
        try:
            value = suite(GermField(field.chart, field.x0, fd_step=field.h))
        except Indeterminate:
            skipped.append(name)
            continue
        if name == "frame_connection":
            values.update({f"frame_{key}": val for key, val in value.items()})
        elif isinstance(value, dict):
            values.update(value)
        else:
            values[name] = value
    return values, tuple(skipped)


@pytest.mark.parametrize("name, h", list(GOLDEN))
def test_runner_matches_the_suites_called_one_by_one(name, h):
    values, skipped, reason = residual_suites(_field(name, h))
    want, want_skipped = _one_by_one(_field(name, h))
    assert [(k, repr(v)) for k, v in values.items()] == [
        (k, repr(v)) for k, v in want.items()
    ]
    assert skipped == want_skipped
    assert (reason is None) == (not skipped)


@pytest.mark.parametrize("name, h", list(GOLDEN))
def test_residuals_match_golden_values(name, h):
    expected = GOLDEN[(name, h)]
    values = _suite_values(_field(name, h), frames=name != "horosphere")
    assert set(values) == set(expected)
    for key, want in expected.items():
        if key in BIT_EXACT:
            assert repr(values[key]) == repr(want), key
        else:
            assert abs(values[key] - want) <= OTHER_TOLERANCE, key
