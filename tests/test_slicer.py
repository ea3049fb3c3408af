"""Tests for hard slicing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psed import DimensionError, DomainError, hard_slice, make_constellation

finite_complex = st.builds(
    complex,
    st.floats(-5, 5, allow_nan=False),
    st.floats(-5, 5, allow_nan=False),
)


class TestHardSlice:
    def test_qpsk_nearest_point(self, qpsk):
        out = hard_slice(np.array([0.9 + 0.8j]), qpsk)
        assert out.values[0] == qpsk.points[0]

    def test_constellation_points_are_fixed(self, qpsk):
        out = hard_slice(qpsk.points, qpsk)
        np.testing.assert_array_equal(out.values, qpsk.points)

    def test_bpsk_boundary_tie_goes_to_lowest_index(self, bpsk):
        assert hard_slice(np.array([0.0 + 0.0j]), bpsk).values[0] == 1.0 + 0.0j

    @settings(max_examples=60, deadline=None)
    @given(z=finite_complex)
    def test_idempotent(self, z):
        qpsk = make_constellation("QPSK")
        once = hard_slice(np.array([z]), qpsk).values
        twice = hard_slice(once, qpsk).values
        np.testing.assert_array_equal(once, twice)

    def test_output_on_grid(self, qpsk):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        out = hard_slice(z, qpsk)
        assert np.all(np.isin(out.values, qpsk.points))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_entry_rejected(self, qpsk, bad):
        # argmin over NaN distances would silently pick constellation point 0
        with pytest.raises(DomainError, match="^values "):
            hard_slice(np.array([bad, 1 + 1j]), qpsk)

    def test_multi_dimensional_input_rejected(self, qpsk):
        with pytest.raises(DimensionError, match="^values "):
            hard_slice(np.ones((2, 3), dtype=np.complex128), qpsk)
