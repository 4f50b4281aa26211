"""The branch-free ``_sigmoid`` against the masked form it replaced.

The masked (boolean fancy-indexing) implementation is kept here as the
reference; the two must agree bit for bit, NaN position for position.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.models.drnn import _sigmoid


def masked_sigmoid(x, out=None):
    if out is None:
        out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


SPECIALS = [0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, np.nan, 1e-300, -1e-300]


def arrays(dtype):
    width = 32 if dtype == np.float32 else 64
    elements = st.floats(width=width, allow_nan=True, allow_infinity=True) | (
        st.sampled_from(SPECIALS)
    )
    return hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=3), elements=elements)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sigmoid_is_bit_identical_to_the_masked_form(dtype, data):
    x = data.draw(arrays(dtype))
    with np.errstate(all="ignore"):
        want = masked_sigmoid(x.copy())
        got = _sigmoid(x.copy())
        assert got.dtype == dtype and got.shape == x.shape
        np.testing.assert_array_equal(got, want)  # NaN == NaN position-wise
        # ``out`` aliasing ``x`` (how the layers call it), and a strided view
        aliased = x.copy()
        assert _sigmoid(aliased, out=aliased) is aliased
        np.testing.assert_array_equal(aliased, want)
        if x.ndim:
            wide = np.repeat(x[..., None], 2, axis=-1)
            view = wide[..., 0]
            assert not view.flags.c_contiguous or view.size <= 1
            _sigmoid(view, out=view)
            np.testing.assert_array_equal(view, want)
            np.testing.assert_array_equal(wide[..., 1], x)  # neighbours untouched


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sigmoid_special_values(dtype):
    x = np.array(SPECIALS, dtype=dtype)
    with np.errstate(all="ignore"):
        got = _sigmoid(x)
        np.testing.assert_array_equal(got, masked_sigmoid(x))
    assert got[0] == got[1] == 0.5
    assert got[2] == 1.0 and got[3] == 0.0
    assert got[4] == 1.0 and got[5] == 0.0
    assert np.isnan(got[6])
