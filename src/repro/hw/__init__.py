"""Hardware substrate: FPGA platform, PE/CU/accelerator, fixed point, power."""

from repro.hw.accelerator import (
    DEFAULT_NUM_CUS,
    AcceleratorDesign,
    build_design,
)
from repro.hw.activation import PiecewiseLinearActivation, pwl_sigmoid, pwl_tanh
from repro.hw.asic import TSMC28_LIKE, ASICProcess, ASICProjection, project_to_asic
from repro.hw.bram import (
    StorageBreakdown,
    fits_bram,
    min_block_size_for_bram,
    storage_breakdown,
    weight_storage_bits,
)
from repro.hw.cu import (
    GRU_TDM_SPEEDUP,
    POINTWISE_LANES,
    STAGE_OVERHEAD_CYCLES,
    ComputeUnitModel,
    CUTiming,
    matrix_block_grid,
)
from repro.hw.emulator import CUEmulator, SpectralWeights
from repro.hw.fft_fixed import FixedPointFFT, fixed_point_circulant_matvec
from repro.hw.fft_unit import FFTUnit
from repro.hw.fixed_point import FixedPointFormat, quantization_snr_db
from repro.hw.pe import ProcessingElement
from repro.hw.platform import (
    ADM_PCIE_7V3,
    PLATFORMS,
    XCKU060,
    FPGAPlatform,
    ResourceVector,
    get_platform,
)
from repro.hw.power import OFFCHIP_SUBSYSTEM_WATTS, energy_efficiency, power_watts
from repro.hw.report import ImplementationReport, format_table

__all__ = [
    "DEFAULT_NUM_CUS",
    "AcceleratorDesign",
    "build_design",
    "PiecewiseLinearActivation",
    "pwl_sigmoid",
    "pwl_tanh",
    "TSMC28_LIKE",
    "ASICProcess",
    "ASICProjection",
    "project_to_asic",
    "StorageBreakdown",
    "fits_bram",
    "min_block_size_for_bram",
    "storage_breakdown",
    "weight_storage_bits",
    "GRU_TDM_SPEEDUP",
    "POINTWISE_LANES",
    "STAGE_OVERHEAD_CYCLES",
    "ComputeUnitModel",
    "CUTiming",
    "matrix_block_grid",
    "FFTUnit",
    "CUEmulator",
    "SpectralWeights",
    "FixedPointFFT",
    "fixed_point_circulant_matvec",
    "FixedPointFormat",
    "quantization_snr_db",
    "ProcessingElement",
    "ADM_PCIE_7V3",
    "PLATFORMS",
    "XCKU060",
    "FPGAPlatform",
    "ResourceVector",
    "get_platform",
    "OFFCHIP_SUBSYSTEM_WATTS",
    "energy_efficiency",
    "power_watts",
    "ImplementationReport",
    "format_table",
]
