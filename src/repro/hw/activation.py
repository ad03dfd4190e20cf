"""Piecewise-linear activation approximation (paper Sec. VIII-B1).

E-RNN implements sigmoid and tanh as piecewise-linear (PWL) interpolators
using only on-chip resources — one of the two reasons it beats ESE's
LUT-in-DDR activations.  :class:`PiecewiseLinearActivation` models the
approximation itself so accuracy experiments can run with the *exact*
function the hardware would compute, plus its LUT/FF cost for Phase II.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from repro.errors import ConfigError
from repro.hw.platform import ResourceVector

__all__ = ["PiecewiseLinearActivation", "pwl_sigmoid", "pwl_tanh"]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class PiecewiseLinearActivation:
    """Uniform-breakpoint PWL approximation of a saturating activation.

    Inside ``[low, high]`` the function is linearly interpolated between
    ``segments + 1`` sampled breakpoints; outside it clamps to the exact
    saturation values — the "overflow precaution" box of Fig. 13.
    """

    name: str
    breakpoints: np.ndarray
    values: np.ndarray
    saturate_low: float
    saturate_high: float

    def __post_init__(self) -> None:
        if self.breakpoints.ndim != 1 or self.breakpoints.size < 2:
            raise ConfigError("need at least two breakpoints")
        if self.values.shape != self.breakpoints.shape:
            raise ConfigError("breakpoints/values shape mismatch")
        if not np.all(np.diff(self.breakpoints) > 0):
            raise ConfigError("breakpoints must be strictly increasing")

    # ------------------------------------------------------------------
    @classmethod
    def from_function(
        cls,
        name: str,
        function: Callable[[np.ndarray], np.ndarray],
        segments: int,
        input_range: tuple[float, float],
        saturation: tuple[float, float],
    ) -> "PiecewiseLinearActivation":
        if segments < 2:
            raise ConfigError("segments must be at least 2")
        low, high = input_range
        if low >= high:
            raise ConfigError("input range must be increasing")
        breakpoints = np.linspace(low, high, segments + 1)
        return cls(
            name=name,
            breakpoints=breakpoints,
            values=np.asarray(function(breakpoints), dtype=np.float64),
            saturate_low=saturation[0],
            saturate_high=saturation[1],
        )

    @property
    def segments(self) -> int:
        return self.breakpoints.size - 1

    # ------------------------------------------------------------------
    @cached_property
    def _slopes(self) -> np.ndarray:
        """Per-segment slope table — the hardware's second ROM column."""
        return np.diff(self.values) / np.diff(self.breakpoints)

    @cached_property
    def _inv_step(self) -> float | None:
        """1/step for uniform breakpoints, ``None`` when spacing varies."""
        steps = np.diff(self.breakpoints)
        if np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            return float(1.0 / steps[0])
        return None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the PWL unit: segment select, slope multiply, add.

        Mirrors the hardware structure (comparator → table lookup → one
        multiply-add) instead of calling ``np.interp``, which re-derives
        each slope with a per-element division.  Uniform breakpoints (the
        ``from_function`` case) select segments arithmetically; irregular
        tables fall back to binary search.

        The arithmetic selection can pick the neighbouring segment for
        inputs within one ULP of a breakpoint; the PWL is continuous, so
        the value differs from ``np.interp`` by at most one ULP there and
        is identical everywhere else (test-pinned).  Both emulator
        execution paths and the benchmark seed baselines share this
        evaluation, so it cannot perturb any byte-identity invariant.
        """
        x = np.asarray(x, dtype=np.float64)
        breakpoints = self.breakpoints
        if self._inv_step is not None:
            index = ((x - breakpoints[0]) * self._inv_step).astype(np.int64)
        else:
            index = np.searchsorted(breakpoints, x, side="right") - 1
        # mode="clip" clamps every index onto a segment, [0, segments - 1].
        out = np.empty(x.shape, dtype=np.float64)
        self._slopes.take(index, out=out, mode="clip")
        out *= x - breakpoints[:-1].take(index, mode="clip")
        out += self.values[:-1].take(index, mode="clip")
        np.putmask(out, x == breakpoints[-1], self.values[-1])
        np.putmask(out, x < breakpoints[0], self.saturate_low)
        np.putmask(out, x > breakpoints[-1], self.saturate_high)
        return out

    def max_error(
        self,
        reference: Callable[[np.ndarray], np.ndarray],
        num_samples: int = 20001,
    ) -> float:
        """Worst-case absolute error over a dense grid spanning the range
        (plus a margin into the saturation regions)."""
        low, high = self.breakpoints[0], self.breakpoints[-1]
        margin = 0.5 * (high - low)
        grid = np.linspace(low - margin, high + margin, num_samples)
        return float(np.max(np.abs(self(grid) - reference(grid))))

    # ------------------------------------------------------------------
    def resources(self, bits: int = 12) -> ResourceVector:
        """LUT/FF cost model of one PWL unit.

        One comparator tree (log2(segments) levels), one subtract, one
        multiply (slope), one add per lookup — small; dominated by the
        breakpoint/slope table, ``2 · (segments + 1)`` words wide ``bits``.
        Entirely on-chip: no BRAM blocks and no DSP are charged (slope
        multiply fits a LUT-based multiplier at 12 bits).
        """
        table_bits = 2 * (self.segments + 1) * bits
        lut = 12 * self.segments + table_bits / 6.0 + 5 * bits
        ff = 3 * bits + self.segments
        return ResourceVector(dsp=0.0, bram_blocks=0.0, lut=lut, ff=ff)


def pwl_sigmoid(segments: int = 16) -> PiecewiseLinearActivation:
    """PWL logistic function over [-8, 8] (σ saturates to 3e-4 outside)."""
    return PiecewiseLinearActivation.from_function(
        "sigmoid", _sigmoid, segments, (-8.0, 8.0), (0.0, 1.0)
    )


def pwl_tanh(segments: int = 16) -> PiecewiseLinearActivation:
    """PWL tanh over [-4, 4] (tanh saturates to ±1 − 7e-4 outside)."""
    return PiecewiseLinearActivation.from_function(
        "tanh", np.tanh, segments, (-4.0, 4.0), (-1.0, 1.0)
    )
