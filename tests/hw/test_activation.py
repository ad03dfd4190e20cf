"""Piecewise-linear activation approximations."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.hw.activation import PiecewiseLinearActivation, pwl_sigmoid, pwl_tanh


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestConstruction:
    def test_from_function(self):
        pwl = PiecewiseLinearActivation.from_function(
            "tanh", np.tanh, 8, (-4, 4), (-1, 1)
        )
        assert pwl.segments == 8
        assert pwl.breakpoints[0] == -4.0

    def test_rejects_bad_segments(self):
        with pytest.raises(ConfigError):
            PiecewiseLinearActivation.from_function(
                "tanh", np.tanh, 1, (-4, 4), (-1, 1)
            )

    def test_rejects_bad_range(self):
        with pytest.raises(ConfigError):
            PiecewiseLinearActivation.from_function(
                "tanh", np.tanh, 4, (4, -4), (-1, 1)
            )


class TestAccuracy:
    def test_exact_at_breakpoints(self):
        pwl = pwl_tanh(16)
        assert np.allclose(pwl(pwl.breakpoints), np.tanh(pwl.breakpoints))

    def test_saturation_outside_range(self):
        pwl = pwl_sigmoid(16)
        assert pwl(np.array([-100.0]))[0] == 0.0
        assert pwl(np.array([100.0]))[0] == 1.0

    def test_monotone_nondecreasing(self, rng):
        pwl = pwl_tanh(16)
        grid = np.linspace(-6, 6, 500)
        values = pwl(grid)
        assert np.all(np.diff(values) >= -1e-12)

    def test_error_shrinks_with_segments(self):
        errors = [pwl_tanh(s).max_error(np.tanh) for s in (4, 8, 16, 32, 64)]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_16_segments_good_to_3e_2(self):
        assert pwl_sigmoid(16).max_error(sigmoid) < 1.5e-2
        assert pwl_tanh(16).max_error(np.tanh) < 3e-2

    def test_128_segments_good_to_1e_3(self):
        assert pwl_sigmoid(128).max_error(sigmoid) < 1e-3
        assert pwl_tanh(128).max_error(np.tanh) < 1e-3


class TestInterpContract:
    """The slope-table evaluation against the np.interp reference."""

    @staticmethod
    def _interp_reference(pwl, x):
        inside = np.interp(x, pwl.breakpoints, pwl.values)
        result = np.where(x < pwl.breakpoints[0], pwl.saturate_low, inside)
        return np.where(x > pwl.breakpoints[-1], pwl.saturate_high, result)

    def test_identical_away_from_breakpoints(self):
        rng = np.random.default_rng(0)
        for pwl in (pwl_sigmoid(16), pwl_tanh(64)):
            x = rng.uniform(-12, 12, 50_000)
            assert np.array_equal(pwl(x), self._interp_reference(pwl, x))

    def test_exact_breakpoints_and_saturation(self):
        for pwl in (pwl_sigmoid(16), pwl_tanh(16)):
            x = np.concatenate(
                [pwl.breakpoints, [pwl.breakpoints[0] - 5, pwl.breakpoints[-1] + 5]]
            )
            assert np.array_equal(pwl(x), self._interp_reference(pwl, x))

    def test_within_one_ulp_at_breakpoint_neighbours(self):
        """Arithmetic segment selection may pick the adjacent segment for
        inputs one ULP from a breakpoint; continuity bounds the value gap."""
        for pwl in (pwl_sigmoid(16), pwl_tanh(64)):
            x = np.concatenate([
                np.nextafter(pwl.breakpoints, -np.inf),
                np.nextafter(pwl.breakpoints, np.inf),
            ])
            got = pwl(x)
            want = self._interp_reference(pwl, x)
            gap = np.abs(got - want)
            assert np.all(gap <= np.spacing(np.abs(want)) + np.spacing(1.0))


def _frozen_pwl(pwl, x):
    """The three-``np.where`` evaluation ``__call__`` used before it moved
    to ``take``/in-place arithmetic/``putmask``, kept verbatim."""
    x = np.asarray(x, dtype=np.float64)
    breakpoints = pwl.breakpoints
    if pwl._inv_step is not None:
        index = ((x - breakpoints[0]) * pwl._inv_step).astype(np.int64)
        np.clip(index, 0, pwl.segments - 1, out=index)
    else:
        index = np.clip(
            np.searchsorted(breakpoints, x, side="right") - 1,
            0,
            pwl.segments - 1,
        )
    inside = pwl._slopes[index] * (x - breakpoints[index]) + pwl.values[index]
    inside = np.where(x == breakpoints[-1], pwl.values[-1], inside)
    result = np.where(x < breakpoints[0], pwl.saturate_low, inside)
    return np.where(x > breakpoints[-1], pwl.saturate_high, result)


def _non_uniform():
    # The last segment's slope * width + start value does not round to
    # tanh(2.3), so only the exact-endpoint override returns values[-1].
    breakpoints = np.array([-6.0, -2.5, -1.0, -0.25, 0.0, 0.5, 0.6, 2.3])
    return PiecewiseLinearActivation(
        "tanh-irregular", breakpoints, np.tanh(breakpoints), -1.0, 1.0
    )


class TestFrozenBytes:
    """``__call__`` returns the bytes of the frozen formula on every input."""

    PWLS = {
        "sigmoid": lambda: pwl_sigmoid(16),
        "tanh": lambda: pwl_tanh(16),
        "tanh-64": lambda: pwl_tanh(64),
        "non-uniform": _non_uniform,
    }

    @staticmethod
    def _assert_same_bytes(pwl, x):
        with np.errstate(invalid="ignore"):  # NaN/inf -> int64 index
            got, want = pwl(x), _frozen_pwl(pwl, x)
        assert got.shape == want.shape
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(PWLS))
    def test_breakpoints_and_ulp_neighbours(self, name):
        pwl = self.PWLS[name]()
        points = pwl.breakpoints
        x = np.concatenate([
            points,
            np.nextafter(points, -np.inf),
            np.nextafter(points, np.inf),
        ])
        self._assert_same_bytes(pwl, x)

    def test_non_uniform_table_takes_the_search_branch(self):
        assert _non_uniform()._inv_step is None
        assert pwl_sigmoid(16)._inv_step is not None

    @pytest.mark.parametrize("name", sorted(PWLS))
    def test_special_values(self, name):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300])
        self._assert_same_bytes(self.PWLS[name](), x)

    @pytest.mark.parametrize("name", sorted(PWLS))
    def test_random_draws(self, name):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((100, 100)) * 6.0
        self._assert_same_bytes(self.PWLS[name](), x)


class TestResources:
    def test_no_dsp_no_bram(self):
        resources = pwl_sigmoid(16).resources()
        assert resources.dsp == 0
        assert resources.bram_blocks == 0
        assert resources.lut > 0

    def test_cost_grows_with_segments(self):
        assert pwl_tanh(64).resources().lut > pwl_tanh(8).resources().lut
