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


def _same_bytes_up_to_negative_zero(got, want):
    """``quantize_groups`` keeps ``-0.0`` where the int64 round trip of
    ``FixedPointFormat.quantize`` gives ``+0.0``; adding ``+0.0`` maps the
    former onto the latter and changes nothing else."""
    assert (got + 0.0).tobytes() == want.tobytes()


class TestSingleGroup:
    """One group, the shape of every ``matvec_step`` call: a scalar path."""

    def _check(self, values, bits):
        got = quantize_groups(values[None].copy(), bits)[0]
        want = FixedPointFormat.fit(values, bits).quantize(values)
        _same_bytes_up_to_negative_zero(got, want)
        return got

    def test_all_zero_group(self):
        got = self._check(np.zeros((3, 4)), 12)
        assert not np.signbit(got).any()

    @pytest.mark.parametrize("exponent", [-3, 0, 5, 11])
    def test_negative_power_of_two_boundary(self, exponent):
        self._check(np.array([-(2.0**exponent), 2.0**exponent / 3]), 8)

    def test_tiny_peak_large_frac_bits(self):
        values = np.array([1e-300, -3e-301, 7e-302, 0.0])
        assert FixedPointFormat.fit(values, 16).frac_bits > 1000
        got = self._check(values, 16)
        assert got[0] != 0.0

    def test_negative_value_rounding_to_negative_zero(self):
        values = np.array([-1e-6, 1.0, 0.25])
        got = self._check(values, 8)
        assert got[0] == 0.0 and np.signbit(got[0])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        bits=st.integers(2, 24),
        scale_exp=st.integers(-60, 60),
    )
    def test_scalar_path_equals_grouped_path(self, seed, bits, scale_exp):
        """Byte for byte, ``-0.0`` included, the two branches agree."""
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((2, 3, 5)) * 2.0**scale_exp
        grouped = quantize_groups(values.copy(), bits)
        for g in range(2):
            alone = quantize_groups(values[g : g + 1].copy(), bits)
            assert alone[0].tobytes() == grouped[g].tobytes()


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
