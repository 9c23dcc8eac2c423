"""Properties of the psd_core kernel, checked with hypothesis.

The examples are derandomized, so every run checks the same ones; the
module is skipped where hypothesis is not installed.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from opmeans.psd_core import Spectral, op_norm, random_spd_stack, spd_power, spd_sqrt_pair  # noqa: E402

_PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)
_SEEDS = st.integers(0, 2**32 - 1)
_DIMS = st.integers(1, 5)
# a sign and a magnitude, so that negative exponents are as common as positive
# ones and not all within a few ulps of 0
_EXPONENTS = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(0.1, 3.0)).map(lambda p: p[0] * p[1])


def _stack(dim, seed, ratio):
    return random_spd_stack(dim, (0.5, 0.5 * ratio), [seed, seed + 1, seed + 2])


@_PROPERTY
@given(_DIMS, _SEEDS, st.floats(1.5, 10.0), _EXPONENTS)
def test_raised_spectral_is_the_power(dim, seed, ratio, r):
    # nothing is decomposed but a itself: the raised Spectral's matrix is
    # spd_power's bit for bit, and its spectrum is w**r in ascending order
    a = _stack(dim, seed, ratio)
    base = Spectral(a)
    raised = base.raised(r)
    np.testing.assert_array_equal(raised.a, spd_power(a, r))
    w, v = raised.eig
    assert np.all(np.diff(w, axis=-1) >= 0)
    np.testing.assert_array_equal(np.sort(w, axis=-1), np.sort(base.eig[0] ** r, axis=-1))
    assert np.abs(raised.apply(lambda x: x) - raised.a).max() <= 1e-14 * np.abs(raised.a).max()


@_PROPERTY
@given(_DIMS, _SEEDS, st.floats(1.5, 10.0), _EXPONENTS)
def test_raised_square_root_pair_matches_the_decomposed_power(dim, seed, ratio, r):
    a = _stack(dim, seed, ratio)
    for got, want in zip(Spectral(a).raised(r).sqrt_pair(), spd_sqrt_pair(spd_power(a, r))):
        err = np.linalg.norm(got - want, axis=(-2, -1)) / np.linalg.norm(want, axis=(-2, -1))
        assert err.max() <= 1e-12


@_PROPERTY
@given(_DIMS, _SEEDS, st.floats(1.5, 10.0), st.floats(1e-3, 1e3))
def test_norm_of_a_positive_multiple(dim, seed, ratio, c):
    # the bracket sides take c ||x|| for ||c x||, which differ by the
    # eigensolver's rounding: up to 14 ulps at dim 5 over 2,000 draws, so
    # the bound is 8 ulps per dimension
    x = _stack(dim, seed, ratio)
    want = c * op_norm(x)
    assert np.all(np.abs(op_norm(c * x) - want) <= 8 * dim * np.spacing(want))
