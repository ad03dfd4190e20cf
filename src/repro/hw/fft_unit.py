"""Hardware FFT stage model: resources and timing of one pipelined FFT.

A PE (paper Fig. 10) contains two FFT operators (the second implements the
IFFT via conjugation + right-shift).  This module prices one such operator:
DSP cost follows the non-trivial-twiddle accounting of
:mod:`repro.core.cost_model` — radix-2 stages 1-2 are multiplier-free, each
later stage carries one complex multiplier (3 DSP at ≤18-bit operands).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config import is_power_of_two
from repro.errors import ConfigError
from repro.hw.platform import ResourceVector

__all__ = ["FFTUnit"]

#: DSP blocks per complex multiplier (3-multiplier decomposition).
DSP_PER_COMPLEX_MULT = 3


@dataclass(frozen=True)
class FFTUnit:
    """One pipelined radix-2 FFT of ``size`` points at ``bits`` precision."""

    size: int
    bits: int = 12

    def __post_init__(self) -> None:
        if self.size < 2 or not is_power_of_two(self.size):
            raise ConfigError(f"FFT size must be a power of two >= 2: {self.size}")
        if not 4 <= self.bits <= 32:
            raise ConfigError(f"unsupported FFT bit width {self.bits}")

    @property
    def stages(self) -> int:
        return int(math.log2(self.size))

    @property
    def multiplier_stages(self) -> int:
        """Stages that need a complex multiplier (stages 3..log2 N)."""
        return max(self.stages - 2, 0)

    @property
    def dsp(self) -> int:
        """At least one complex multiplier even for tiny FFTs (control/scale)."""
        return DSP_PER_COMPLEX_MULT * max(self.multiplier_stages, 1)

    def resources(self) -> ResourceVector:
        """DSP/LUT/FF of one streaming FFT operator.

        LUT: two adders per butterfly stage plus twiddle ROM mux;
        FF: stage pipeline registers.  Constants calibrated as part of the
        PE-level fit in :mod:`repro.hw.pe`.
        """
        lut = self.stages * 6 * self.bits + 40
        ff = self.stages * 4 * self.bits + 2 * self.bits
        return ResourceVector(dsp=float(self.dsp), lut=lut, ff=ff)

    @property
    def latency_cycles(self) -> int:
        """Pipeline fill: one cycle per stage plus I/O registering."""
        return self.stages + 2
