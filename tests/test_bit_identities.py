"""The bit-for-bit equivalences that the germ path's Python reads rely on.

``spectral``'s per-germ path reads each small array into Python once and
does some of its arithmetic on those floats, or on one stacked array,
where the numpy call on the array or on each row gives the same bits;
``classify``'s outputs, and the golden files that pin them, hold only
while each pair rounds alike.  Each test states one such equivalence
over finite doubles from subnormal up to overflow, so that a numpy or
OpenBLAS upgrade that breaks one fails here, by name, rather than in a
golden.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from chgeom.model import j_action
from chgeom.spectral import GERM_TOLERANCE, _allclose, _group_mean, _symmetric

SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)
# every finite double, subnormals and the largest included
FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
# a finite double, an infinity or a NaN, with repeats so that a drawn
# matrix is often exactly symmetric
ANY = st.one_of(FINITE, st.sampled_from([0.0, -0.0, 1.0, math.inf, -math.inf, math.nan]))


def _bits(x) -> str:
    """The bits of a double, with the sign of a zero and NaN as NaN."""
    x = float(x)
    return "nan" if x != x else x.hex()


@SETTINGS
@given(x=FINITE)
@example(x=5e-324)  # the square underflows to 0
@example(x=1.5e-154)  # the square is subnormal
@example(x=1.3e154)  # the square is near the largest double
@example(x=1.7976931348623157e308)  # the square overflows
@example(x=-0.0)
def test_one_term_dot_is_the_python_square(x):
    """A one-row group's J xi norm: ``math.sqrt(x * x)`` of its listed
    coefficient is ``math.sqrt(v.dot(v))`` of the one-element array."""
    v = np.array([x])
    with np.errstate(all="ignore"):  # the square may overflow
        square = v.dot(v)
    assert _bits(square) == _bits(x * x)
    assert _bits(math.sqrt(square)) == _bits(math.sqrt(x * x))


@SETTINGS
@given(
    stack=st.integers(1, 15).flatmap(
        lambda rows: st.integers(2, 14).flatmap(
            lambda size: arrays(float, (rows, size), elements=FINITE)
        )
    ),
    data=st.data(),
)
@example(stack=np.full((2, 3), 1.7976931348623157e308), data=None)  # the sum overflows
@example(stack=np.full((1, 9), 5e-324), data=None)
@example(stack=np.full((1, 2), -0.0), data=None)
def test_group_mean_of_a_stack_is_the_mean_of_each_row(stack, data):
    """A group's value, on one row or on the stencil's stacked rows: each
    row of the stacked ``_group_mean`` has the bits of the row's own and
    of the per-germ rule, the listed value of a one-value group (whose
    ``ndarray.sum`` turns -0.0 into 0.0) and ``float(ndarray.sum() /
    count)`` of a larger one."""
    size = stack.shape[1]
    lo, hi = (0, size) if data is None else sorted(
        data.draw(st.lists(st.integers(0, size), min_size=2, max_size=2, unique=True))
    )
    with np.errstate(all="ignore"):  # the sum may overflow
        stacked = _group_mean(stack, lo, hi)
        for row, got in zip(stack, stacked.tolist()):
            assert _bits(got) == _bits(_group_mean(row, lo, hi))
            if hi - lo == 1:
                assert _bits(got) == _bits(row.tolist()[lo])
            else:
                assert _bits(got) == _bits(float(row[lo:hi].sum() / (hi - lo)))


@SETTINGS
@given(
    rows=st.integers(1, 5).flatmap(
        lambda m: st.integers(2, 6).flatmap(
            lambda half: arrays(float, (m, 2 * half), elements=FINITE)
        )
    )
)
def test_stacked_j_action_row_is_the_row_alone(rows):
    """J on stacked rows gives each row the bits of J on the row alone
    (one product path for a stack, another for a vector), so that a
    frame built per germ and one built over a stack agree."""
    stacked = j_action(rows)
    for row, got in zip(rows, stacked):
        assert got.tobytes() == j_action(row).tobytes()


def _reference_symmetric(shape) -> bool:
    """The reference symmetry test: isfinite, then np.allclose's rule."""
    return bool(np.isfinite(shape).all()) and _allclose(shape, shape.T, GERM_TOLERANCE)


@SETTINGS
@given(
    shape=st.integers(1, 6).flatmap(lambda d: arrays(float, (d, d), elements=ANY)),
    mirror=st.booleans(),
)
@example(shape=np.array([[0.0, math.inf], [-math.inf, 0.0]]), mirror=False)
@example(shape=np.array([[1.7976931348623157e308, 1e308], [-1e308, 1.0]]), mirror=False)
def test_exact_symmetry_is_one_subtraction(shape, mirror):
    """``HypersurfaceGerm.validate``'s shape test: a finite, exactly
    symmetric matrix is the one whose S - S^T has no nonzero entry, and
    ``_symmetric`` answers as the isfinite and tolerance tests do."""
    if mirror:
        shape = np.triu(shape) + np.triu(shape, 1).T
    with np.errstate(all="ignore"):
        exact = not (shape - shape.T).any()
        assert exact == bool(np.isfinite(shape).all() and (shape == shape.T).all())
        assert _symmetric(shape) == _reference_symmetric(shape)


@SETTINGS
@given(cross=st.integers(1, 4).flatmap(lambda m: arrays(float, (m, m), elements=ANY)))
def test_one_row_blocks_are_read_off_the_diagonal(cross):
    """``totally_real_check`` on one-row Hopf spaces: the Python max of
    |diagonal entry| is the Python max over the 1 x 1 blocks of each
    block's numpy max of |entry|."""
    blocks = [float(np.abs(cross)[i:i + 1, i:i + 1].max()) for i in range(len(cross))]
    assert _bits(max(abs(x) for x in cross.diagonal().tolist())) == _bits(max(blocks))
