"""Whole-accelerator model: PE allocation, latency, FPS, power (Fig. 9).

Ties the pieces together for one (RNNSpec, AccelSpec, platform) triple:

1. **PE allocation** — the paper's rule ``#PE = min(⌊DSP/ΔDSP⌋, ⌊LUT/ΔLUT⌋)``
   (Sec. VII-B), extended with the BRAM-bank feed bound (each PE consumes
   ``Lb`` weight-spectrum banks) and applied after reserving the platform
   base (PCIe/controller) and per-CU overheads (point-wise block, buffers).
2. **CU partitioning** — PEs divide evenly over ``num_compute_units``
   (default 3: Table III's measured FPS × latency ≈ 3.0-3.2 pins the
   concurrency at three sequences in flight).
3. **Timing** — :class:`repro.hw.cu.ComputeUnitModel` gives frame cycles;
   latency = cycles × clock period, FPS = ``#CU × f / cycles``.
4. **Power** — utilization-based model of :mod:`repro.hw.power`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import AccelSpec, RNNSpec
from repro.core.compression import matrix_inventory
from repro.errors import FitError
from repro.hw.bram import storage_breakdown
from repro.hw.cu import ComputeUnitModel, CUTiming
from repro.hw.pe import ProcessingElement
from repro.hw.platform import FPGAPlatform, ResourceVector, get_platform
from repro.hw.power import energy_efficiency, power_watts

__all__ = [
    "AcceleratorDesign",
    "build_design",
    "pe_capacity",
    "DEFAULT_NUM_CUS",
]

#: Compute units (see module docstring for the Table III derivation).
DEFAULT_NUM_CUS = 3

#: Place-and-route headroom: synthesis cannot use every last cell.
MAX_UTILIZATION = 0.96

#: Host-interface + controller overhead (Fig. 9: PCIE controller, E-RNN
#: controller, data bus) and per-CU overhead (point-wise multiplier-adder
#: block of POINTWISE_LANES DSPs, activation PWL units, double buffers).
PLATFORM_BASE = ResourceVector(dsp=0, bram_blocks=32, lut=30_000, ff=40_000)
PER_CU_BASE = ResourceVector(dsp=128, bram_blocks=8, lut=8_000, ff=10_000)

#: PE-array efficiency of the C-LSTM design relative to E-RNN's optimized
#: PEs (the paper credits its 1.2-1.3× edge at equal block size to "hardware
#: system design, PE optimization, and quantization", Sec. VIII-B2).
CLSTM_PE_EFFICIENCY = 0.82


@dataclass(frozen=True)
class AcceleratorDesign:
    """A sized accelerator with its performance and power figures."""

    spec: RNNSpec
    accel: AccelSpec
    platform: FPGAPlatform
    num_pes: int
    num_cus: int
    pes_per_cu: int
    timing: CUTiming
    resources_used: ResourceVector

    @property
    def frame_cycles(self) -> float:
        return self.timing.frame_cycles

    @property
    def latency_us(self) -> float:
        return self.frame_cycles * self.accel.clock_period_ns / 1000.0

    @property
    def fps(self) -> float:
        return self.num_cus * self.accel.clock_mhz * 1e6 / self.frame_cycles

    @property
    def utilization(self) -> dict[str, float]:
        return self.platform.utilization(self.resources_used)

    @property
    def power_watts(self) -> float:
        return power_watts(self.platform, self.resources_used)

    @property
    def energy_efficiency(self) -> float:
        return energy_efficiency(self.fps, self.power_watts)


def _size(
    spec: RNNSpec, accel: AccelSpec
) -> tuple[FPGAPlatform, int, ProcessingElement, int]:
    """Platform, CU count, PE and the PE bound shared by both entry points.

    The PE bound is the paper's min-rule over DSP/LUT plus the BRAM-bank
    feed bound, after reserving the platform and per-CU overheads.
    """
    platform = get_platform(accel.platform)
    num_cus = (
        accel.num_compute_units
        if accel.num_compute_units is not None
        else DEFAULT_NUM_CUS
    )
    max_block = max(s.block_size for s in matrix_inventory(spec))
    if max_block <= 1:
        raise FitError(
            "the accelerator model requires a block-circulant spec; dense "
            "models are handled by the ESE baseline model"
        )
    pe = ProcessingElement(max_block, accel.weight_bits)
    headroom = min(MAX_UTILIZATION, platform.routing_headroom)
    overhead = PLATFORM_BASE + PER_CU_BASE.scale(num_cus)
    dsp_budget = platform.dsp * headroom - overhead.dsp
    lut_budget = platform.lut * headroom - overhead.lut
    ff_budget = platform.ff * headroom - overhead.ff
    bram_budget = platform.bram_blocks * headroom - overhead.bram_blocks
    bounds = (
        int(dsp_budget // pe.dsp),
        int(lut_budget // pe.lut),
        int(ff_budget // pe.ff),
        int(bram_budget // pe.bram_banks),
    )
    num_pes = min(bounds)
    if num_pes < num_cus:
        raise FitError(
            f"{platform.name} cannot host one PE per CU for "
            f"{spec.describe()} (bounds {bounds})"
        )
    return platform, num_cus, pe, num_pes


def build_design(
    spec: RNNSpec, accel: AccelSpec, pe_efficiency: float = 1.0
) -> AcceleratorDesign:
    """Size one accelerator for a circulant RNN.

    :class:`repro.api.engine.Engine` memoizes this call; everything inside
    the library (Phase II, the HLS flow, the experiment tables) goes through
    here.
    """
    platform, num_cus, pe, num_pes = _size(spec, accel)
    pes_per_cu = num_pes // num_cus
    num_pes = pes_per_cu * num_cus  # keep CUs symmetric
    used = PLATFORM_BASE + PER_CU_BASE.scale(num_cus)
    used = used + pe.resources().scale(num_pes)
    # Weight storage may exceed the bank-feed blocks for small PE counts.
    capacity_blocks = (
        storage_breakdown(spec, accel.weight_bits, num_cus).total / (36 * 1024)
    )
    if capacity_blocks + PLATFORM_BASE.bram_blocks > used.bram_blocks:
        used = ResourceVector(
            used.dsp,
            capacity_blocks + PLATFORM_BASE.bram_blocks,
            used.lut,
            used.ff,
        )
    cu = ComputeUnitModel(spec, accel, pes_per_cu, pe_efficiency=pe_efficiency)
    design = AcceleratorDesign(
        spec=spec,
        accel=accel,
        platform=platform,
        num_pes=num_pes,
        num_cus=num_cus,
        pes_per_cu=pes_per_cu,
        timing=cu.timing(),
        resources_used=used,
    )
    if not platform.fits(design.resources_used):
        raise FitError(f"design exceeds {platform.name}: {design.utilization}")
    return design


def pe_capacity(spec: RNNSpec, accel: AccelSpec) -> int:
    """How many PEs the platform can host for ``spec`` (the paper's min-rule).

    The allocation bound alone — before CU-symmetric rounding or timing —
    as quoted in Table IV's derived rows.
    """
    return _size(spec, accel)[3]
