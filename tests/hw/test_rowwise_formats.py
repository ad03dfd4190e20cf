"""Per-group format fitting must replicate the scalar fit bit-exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QuantizationError
from repro.hw.fixed_point import (
    FixedPointFormat,
    fit_frac_bits_from_stats,
    quantize_groups,
)


class TestRowwiseFit:
    """``quantize_groups`` fits one format per leading-axis row."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        bits=st.integers(4, 24),
        scale_exp=st.integers(-8, 8),
    )
    def test_matches_scalar_fit(self, seed, bits, scale_exp):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-4, 4, size=(4, 9)) * 2.0**scale_exp
        got = quantize_groups(values.copy(), bits)
        for row in range(len(values)):
            fmt = FixedPointFormat.fit(values[row], bits)
            assert np.array_equal(got[row], fmt.quantize(values[row]))

    def test_negative_power_of_two_boundary(self):
        """The guard case: the most negative value rounds onto -2^(b-1)."""
        for exponent in (-3, 0, 5, 11):
            values = np.array([[-(2.0**exponent), 2.0**exponent / 3]])
            bits = 8
            fmt = FixedPointFormat.fit(values[0], bits)
            assert np.array_equal(
                quantize_groups(values.copy(), bits)[0],
                fmt.quantize(values[0]),
            )

    def test_zero_row(self):
        values = np.zeros((2, 5))
        assert quantize_groups(values, 12) is values
        assert not values.any()

    def test_mixed_rows(self):
        values = np.stack([np.zeros(6), np.full(6, 100.0), np.full(6, 1e-3)])
        got = quantize_groups(values.copy(), 12)
        for row in range(3):
            fmt = FixedPointFormat.fit(values[row], 12)
            assert np.array_equal(got[row], fmt.quantize(values[row]))

    def test_groups_over_trailing_axes(self):
        """A (G, B, n) array fits one format per group over all B*n values."""
        rng = np.random.default_rng(3)
        values = rng.standard_normal((3, 4, 5)) * np.array([1e-3, 1.0, 50.0])[
            :, None, None
        ]
        got = quantize_groups(values.copy(), 10)
        for g in range(3):
            fmt = FixedPointFormat.fit(values[g], 10)
            assert np.array_equal(got[g], fmt.quantize(values[g]))

    def test_empty_raises(self):
        with pytest.raises(QuantizationError):
            quantize_groups(np.zeros((3, 0)), 12)


class TestFitFromStats:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10_000), bits=st.integers(4, 24))
    def test_matches_scalar_fit(self, seed, bits):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-4, 4, size=17) * 10.0 ** rng.integers(-5, 5)
        fmt = FixedPointFormat.fit(values, bits)
        got = fit_frac_bits_from_stats(
            float(np.max(np.abs(values))), float(values.min()), bits
        )
        assert got == fmt.frac_bits

    def test_positive_only_never_trips_guard(self):
        values = np.array([2.0**5 - 1e-9])
        fmt = FixedPointFormat.fit(values, 8)
        assert (
            fit_frac_bits_from_stats(float(values[0]), float(values[0]), 8)
            == fmt.frac_bits
        )

    def test_zero_peak(self):
        assert fit_frac_bits_from_stats(0.0, 0.0, 12) == 11
