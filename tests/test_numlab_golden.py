"""Golden values of the finite-difference residual suites.

Recorded with the per-offset GermField that preceded the lattice-array
one, as the repr of every value: the batched Gauss and Codazzi route must
reproduce them bit for bit, every other value to 1e-12 absolute.  A
horosphere field has h = 1, so it has no frame suites.

The bit-for-bit values also pin the floating-point build: numpy 2.4 on
x86-64 with OpenBLAS 0.3.31 (DYNAMIC_ARCH) running its SkylakeX
(AVX-512) kernels.  With the Haswell kernels (``OPENBLAS_CORETYPE=
Haswell`` or ``=Zen``, or a CPU without AVX-512) every case below fails,
and not on a last bit: the central differences magnify the kernels'
rounding, so ``gauss`` moves by about 4e-9 relative (crit9 at h = 1e-3:
7.556435684e-05 -> 7.556435715e-05) and 74 of the 93 values below leave
their bounds.  Such a CPU also lacks numpy's X86_V4 loops, which moves
the sweep bytes as well; see ``test_classify_golden.py``.
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
        "gauss": 7.556435684108465e-05,
        "codazzi": 3.1372568294329994e-06,
        "real_eigenspace": 1.7629421633583788e-30,
        "graded_connection": 3.7427794083693576e-10,
        "graded_curvature": 2.392227932491513e-10,
        "unit_pair_gauss": 9.715619420094548e-10,
        "frame_u1_u1": 2.605596267697301e-10,
        "frame_u1_u2": 8.576800046665144e-11,
        "frame_u1_a": 2.636324949102857e-10,
        "frame_a_u1": 1.1471880578896188e-11,
        "frame_u2_u2": 3.7432411311586945e-11,
        "frame_u2_u1": 7.826395707184816e-11,
        "frame_u2_a": 7.733076445745998e-11,
        "frame_a_u2": 3.729579088330315e-12,
        "frame_a_a": 1.2024436923075717e-11,
    },
    ("crit9", 0.0005): {
        "gauss": 1.8891086879690988e-05,
        "codazzi": 7.843157447950944e-07,
        "real_eigenspace": 2.3417288696950085e-31,
        "graded_connection": 2.0358966504107375e-09,
        "graded_curvature": 9.18199810832244e-10,
        "unit_pair_gauss": 2.582788553835875e-09,
        "frame_u1_u1": 3.032911662052729e-10,
        "frame_u1_u2": 1.88142424227336e-10,
        "frame_u1_a": 3.184686888230938e-10,
        "frame_a_u1": 6.865607615646423e-11,
        "frame_u2_u2": 1.6645444755023172e-10,
        "frame_u2_u1": 1.224704024859302e-10,
        "frame_u2_a": 1.2856407392875179e-10,
        "frame_a_u2": 6.24530034879152e-11,
        "frame_a_a": 7.219530357210219e-11,
    },
    ("n3k2", 0.001): {
        "gauss": 3.289352287971781e-05,
        "codazzi": 1.2258293022870959e-06,
        "real_eigenspace": 0.0,
        "graded_connection": 4.4213741622874004e-10,
        "graded_curvature": 3.281087022352196e-10,
        "unit_pair_gauss": 2.821787248308283e-09,
        "frame_u1_u1": 1.1894391959532506e-11,
        "frame_u1_u2": 7.925854257771137e-13,
        "frame_u1_a": 1.3122668463584241e-11,
        "frame_a_u1": 8.872679170706506e-14,
        "frame_u2_u2": 7.95905106185482e-12,
        "frame_u2_u1": 1.0276400785420521e-12,
        "frame_u2_a": 1.1927444106277576e-12,
        "frame_a_u2": 6.698788480822048e-14,
        "frame_a_a": 0.0,
    },
    ("n3k2", 0.0005): {
        "gauss": 8.223380492111687e-06,
        "codazzi": 3.064573834699047e-07,
        "real_eigenspace": 0.0,
        "graded_connection": 1.521834273371325e-09,
        "graded_curvature": 7.479464010744717e-09,
        "unit_pair_gauss": 6.074842584524731e-08,
        "frame_u1_u1": 5.065534161490051e-10,
        "frame_u1_u2": 8.093457111270828e-11,
        "frame_u1_a": 5.579029078226107e-10,
        "frame_a_u1": 7.914272255028382e-13,
        "frame_u2_u2": 2.8585316318558148e-11,
        "frame_u2_u1": 1.3837914481372778e-10,
        "frame_u2_a": 1.5238035940614403e-10,
        "frame_a_u2": 1.1329891241350763e-13,
        "frame_a_a": 6.206335383118183e-17,
    },
    ("n4k3", 0.001): {
        "gauss": 3.289352287971781e-05,
        "codazzi": 1.2258293020650513e-06,
        "real_eigenspace": 0.0,
        "graded_connection": 1.001624477784644e-10,
        "graded_curvature": 1.3650891528271814e-10,
        "unit_pair_gauss": 1.2752749967148702e-09,
        "frame_u1_u1": 1.1013865052604336e-11,
        "frame_u1_u2": 2.247504629145476e-12,
        "frame_u1_a": 1.2109158599507645e-11,
        "frame_a_u1": 8.844926378457183e-14,
        "frame_u2_u2": 7.802901484656457e-12,
        "frame_u2_u1": 3.4826644341790994e-12,
        "frame_u2_a": 3.8872231519684405e-12,
        "frame_a_u2": 6.671036287671376e-14,
        "frame_a_a": 0.0,
    },
    ("n4k3", 0.0005): {
        "gauss": 8.223380492111687e-06,
        "codazzi": 3.064573832478601e-07,
        "real_eigenspace": 0.0,
        "graded_connection": 1.4230010755093386e-09,
        "graded_curvature": 1.8503506962774572e-09,
        "unit_pair_gauss": 1.5608397045083518e-08,
        "frame_u1_u1": 5.065526714930283e-10,
        "frame_u1_u2": 8.093432289404855e-11,
        "frame_u1_a": 5.579023598949012e-10,
        "frame_a_u1": 7.917047523508756e-13,
        "frame_u2_u2": 2.8585042447473494e-11,
        "frame_u2_u1": 1.38378250395761e-10,
        "frame_u2_a": 1.5237934084139607e-10,
        "frame_a_u2": 1.1282172739943052e-13,
        "frame_a_a": 6.206335383118183e-17,
    },
    ("horosphere", 0.001): {
        "gauss": 9.069966999675216e-13,
        "codazzi": 3.197442310920451e-13,
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
