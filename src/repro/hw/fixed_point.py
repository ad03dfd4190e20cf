"""Fixed-point number formats and quantization (paper Sec. VII-D).

The paper replaces floating point with fixed-point arithmetic, choosing the
integer/fractional split from the numerical range of inputs and trained
weights, with "an additional static scaling factor" per layer.
:class:`FixedPointFormat` models a signed two's-complement Q-format;
:meth:`FixedPointFormat.fit` implements the range analysis.
"""

from __future__ import annotations

# bit-exact: this module is on the fixed/float byte-identity surface
# (docs/analysis.md, REP003) — dtypes stay explicit, reductions ordered.

from dataclasses import dataclass

import numpy as np

from repro.errors import QuantizationError

__all__ = [
    "FixedPointFormat",
    "quantization_snr_db",
    "fit_frac_bits_from_stats",
    "quantize_groups",
]


@dataclass(frozen=True)
class FixedPointFormat:
    """Signed fixed point with ``total_bits`` bits, ``frac_bits`` fractional.

    Representable values are ``k / 2**frac_bits`` for integer ``k`` in
    ``[-2**(total_bits-1), 2**(total_bits-1) - 1]``.  ``frac_bits`` may
    exceed ``total_bits`` (or be negative): that encodes the per-layer static
    scaling factor the paper mentions — the hardware still moves
    ``total_bits``-wide integers.
    """

    total_bits: int
    frac_bits: int

    def __post_init__(self) -> None:
        if not 2 <= self.total_bits <= 64:
            raise QuantizationError(f"total_bits out of range: {self.total_bits}")

    @property
    def scale(self) -> float:
        return float(2.0**self.frac_bits)

    @property
    def resolution(self) -> float:
        """Spacing between adjacent representable values."""
        return 1.0 / self.scale

    @property
    def min_int(self) -> int:
        return -(2 ** (self.total_bits - 1))

    @property
    def max_int(self) -> int:
        return 2 ** (self.total_bits - 1) - 1

    @property
    def min_value(self) -> float:
        return self.min_int / self.scale

    @property
    def max_value(self) -> float:
        return self.max_int / self.scale

    # ------------------------------------------------------------------
    def to_int(self, values: np.ndarray) -> np.ndarray:
        """Round-to-nearest integer codes with saturation."""
        values = np.asarray(values, dtype=np.float64)
        codes = np.rint(values * self.scale)
        return np.clip(codes, self.min_int, self.max_int).astype(np.int64)

    def from_int(self, codes: np.ndarray) -> np.ndarray:
        # Deliberately dtype-preserving: int codes are range-checked below
        # and only then cast; forcing a dtype here would skip the check.
        codes = np.asarray(codes)  # repro: ignore[REP003] range check needs the caller's integer dtype intact
        if codes.size and (
            codes.min() < self.min_int or codes.max() > self.max_int
        ):
            raise QuantizationError("integer codes out of format range")
        return codes.astype(np.float64) / self.scale

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Project onto the representable grid (round-to-nearest, saturating)."""
        return self.from_int(self.to_int(values))

    def max_error(self, values: np.ndarray) -> float:
        return float(
            np.max(np.abs(self.quantize(values) - np.asarray(values, dtype=np.float64)))
        )

    # ------------------------------------------------------------------
    @classmethod
    def fit(cls, values: np.ndarray, total_bits: int) -> "FixedPointFormat":
        """Choose ``frac_bits`` so the value range is covered without overflow.

        This is the paper's range analysis: find the smallest integer width
        holding ``max |x|`` and give every remaining bit to the fraction.
        A zero array gets all-fractional precision.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise QuantizationError("cannot fit a format to an empty array")
        peak = float(np.max(np.abs(values)))
        if peak == 0.0:
            return cls(total_bits, total_bits - 1)
        # Need 2**(total_bits-1-frac) > peak  =>  frac < total-1-log2(peak).
        frac_bits = int(np.floor(total_bits - 1 - np.log2(peak) - 1e-12))
        fmt = cls(total_bits, frac_bits)
        # Guard against boundary rounding pushing past max_int.
        while np.any(np.abs(fmt.to_int(values)) > fmt.max_int):  # pragma: no cover
            frac_bits -= 1
            fmt = cls(total_bits, frac_bits)
        return fmt


def fit_frac_bits_from_stats(
    peak: float, vmin: float, total_bits: int
) -> int:
    """``FixedPointFormat.fit`` from range statistics alone, bit-exactly.

    ``peak`` is ``max |x|`` and ``vmin`` is ``min x`` over the values the
    format must hold.  The overflow guard in :meth:`FixedPointFormat.fit`
    triggers exactly when the most negative value rounds at or below
    ``min_int`` (positive overflow saturates to ``max_int`` and never
    trips the ``|code| > max_int`` check), so the whole fit reduces to
    scalar arithmetic on ``(peak, vmin)`` — the basis of the format caches
    that avoid re-scanning unchanged arrays.
    """
    if peak == 0.0:
        return total_bits - 1
    frac_bits = int(np.floor(total_bits - 1 - np.log2(peak) - 1e-12))
    min_int = -(2 ** (total_bits - 1))
    while np.rint(vmin * 2.0**frac_bits) <= min_int:
        frac_bits -= 1
    return frac_bits


def quantize_groups(values: np.ndarray, total_bits: int) -> np.ndarray:
    """Project each group ``values[g]`` onto its own fitted grid, in place.

    Group ``g`` ends up equal to
    ``FixedPointFormat.fit(values[g], total_bits).quantize(values[g])``: the
    format comes from the group's min/max through
    :func:`fit_frac_bits_from_stats`, and ``rint`` already yields integral
    floats below 2**53, so clip-and-scale skips the int64 round trip of
    :meth:`FixedPointFormat.to_int`/``from_int`` and lands on the same
    values.  The way back multiplies by the exact power of two
    ``2.0 ** -f`` instead of dividing by ``2.0 ** f``: both are the
    correctly rounded value of ``k * 2**-f``, so the bytes agree.  (A
    negative value that rounds to zero stays ``-0.0`` here; the int64
    round trip makes it ``+0.0``.)  One group, the shape of every
    ``matvec_step`` call, takes a scalar path.  ``values`` must be a writable
    float64 array; it is returned.
    """
    if values.size == 0:
        raise QuantizationError("cannot fit a format to an empty array")
    groups = values.shape[0]
    if groups == 1:
        vmin = float(values.min())
        frac = fit_frac_bits_from_stats(
            max(float(values.max()), -vmin), vmin, total_bits
        )
        scale: float | np.ndarray = 2.0**frac
        inverse: float | np.ndarray = 2.0**-frac
    else:
        flat = values.reshape(groups, -1)
        fracs = [
            fit_frac_bits_from_stats(max(vmax, -vmin), vmin, total_bits)
            for vmax, vmin in zip(
                np.maximum.reduce(flat, axis=1).tolist(),
                np.minimum.reduce(flat, axis=1).tolist(),
            )
        ]
        shape = (-1,) + (1,) * (values.ndim - 1)
        scale = np.array(
            [2.0**f for f in fracs], dtype=np.float64
        ).reshape(shape)
        inverse = np.array(
            [2.0**-f for f in fracs], dtype=np.float64
        ).reshape(shape)
    values *= scale
    np.rint(values, out=values)
    # The fit's guard leaves every code of the group above min_int, so
    # only positive overflow needs saturating.
    np.minimum(values, 2.0 ** (total_bits - 1) - 1, out=values)
    values *= inverse
    return values


def quantization_snr_db(values: np.ndarray, fmt: FixedPointFormat) -> float:
    """Signal-to-quantization-noise ratio in dB (diagnostic)."""
    values = np.asarray(values, dtype=np.float64)
    noise = values - fmt.quantize(values)
    signal_power = float(np.mean(values**2))
    noise_power = float(np.mean(noise**2))
    if noise_power == 0.0:
        return float("inf")
    if signal_power == 0.0:
        return float("-inf")
    return 10.0 * np.log10(signal_power / noise_power)
