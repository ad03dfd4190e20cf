"""Processing-element model (paper Fig. 10 and Sec. VII-B).

A PE computes one circulant block product: FFT of the input block (weights
are pre-transformed in BRAM, Sec. V-A1), element-wise complex multiplication
against the stored spectrum, accumulation, and — after the accumulation,
thanks to FFT/IFFT decoupling — one IFFT per output block.

Resource model (calibrated once, then held fixed across every configuration
and platform):

* ``ΔDSP = 2·Lb + 3·max(log2 Lb − 2, 1)`` — ``2·Lb`` element-wise multiplier
  lanes (a Hermitian half-spectrum product is ``2·Lb − 2`` real mults, giving
  a two-cycle initiation interval) plus one complex twiddle multiplier per
  non-trivial FFT stage, time-shared between the FFT and IFFT phases.
* ``ΔLUT = (25·Lb − 40) · bits`` — butterfly adders, accumulator tree, muxes.
* ``ΔFF = (16·Lb + 50) · bits`` — pipeline and shift registers (Fig. 10's
  ``log2 N`` right-shifters).
* Each PE is fed by ``Lb`` dedicated BRAM banks holding its slice of the
  weight spectra (this is what makes Table III's BRAM utilization track PE
  count rather than model size).

The paper's PE-count rule ``#PE = min(⌊DSP/ΔDSP⌋, ⌊LUT/ΔLUT⌋)`` is applied in
:mod:`repro.hw.accelerator` after subtracting the CU/base overheads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config import is_power_of_two
from repro.core.cost_model import elementwise_real_mults
from repro.errors import ConfigError
from repro.hw.fft_unit import FFTUnit
from repro.hw.platform import ResourceVector

__all__ = ["ProcessingElement"]


@dataclass(frozen=True)
class ProcessingElement:
    """PE sized for circulant blocks of ``block_size`` at ``bits`` precision."""

    block_size: int
    bits: int = 12

    def __post_init__(self) -> None:
        if self.block_size < 2 or not is_power_of_two(self.block_size):
            raise ConfigError(
                f"PE block size must be a power of two >= 2: {self.block_size}"
            )

    # ------------------------------------------------------------------
    # Resources
    # ------------------------------------------------------------------
    @property
    def fft_unit(self) -> FFTUnit:
        return FFTUnit(self.block_size, self.bits)

    @property
    def dsp(self) -> int:
        stages = max(int(math.log2(self.block_size)) - 2, 1)
        return 2 * self.block_size + 3 * stages

    @property
    def lut(self) -> float:
        return (25 * self.block_size - 40) * self.bits

    @property
    def ff(self) -> float:
        return (16 * self.block_size + 50) * self.bits

    @property
    def bram_banks(self) -> int:
        """Dedicated weight-spectrum banks feeding this PE's lanes."""
        return self.block_size

    def resources(self) -> ResourceVector:
        return ResourceVector(
            dsp=float(self.dsp),
            bram_blocks=float(self.bram_banks),
            lut=self.lut,
            ff=self.ff,
        )

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    @property
    def mult_lanes(self) -> int:
        """Real multiplier lanes available for the element-wise product."""
        return 2 * self.block_size

    @property
    def cycles_per_block(self) -> int:
        """Initiation interval for one circulant block product.

        ``2·Lb − 2`` real multiplications over ``2·Lb`` lanes pipelines at one
        block per cycle only if the accumulator keeps up; the paper's adder
        tree takes the second cycle, giving II = 2 for every block size
        (matching the FFT8→FFT16 latency ratio of Table III, ~1.9×).
        """
        mults = elementwise_real_mults(self.block_size)
        return max(2, math.ceil(mults / self.mult_lanes) + 1)

    @property
    def pipeline_depth(self) -> int:
        """Fill latency: FFT + multiply + accumulate + IFFT."""
        return 2 * self.fft_unit.latency_cycles + 2

    def __repr__(self) -> str:
        return f"ProcessingElement(block={self.block_size}, bits={self.bits})"
