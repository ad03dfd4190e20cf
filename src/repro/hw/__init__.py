"""Hardware substrate: FPGA platform, PE/CU/accelerator, fixed point, power."""

from repro._lazy import attach

__getattr__, __dir__ = attach(
    __name__,
    {
        "accelerator": [
            "DEFAULT_NUM_CUS", "AcceleratorDesign", "build_design",
        ],
        "activation": ["PiecewiseLinearActivation", "pwl_sigmoid", "pwl_tanh"],
        "asic": [
            "TSMC28_LIKE", "ASICProcess", "ASICProjection", "project_to_asic",
        ],
        "bram": [
            "StorageBreakdown", "fits_bram", "min_block_size_for_bram",
            "storage_breakdown", "weight_storage_bits",
        ],
        "cu": [
            "GRU_TDM_SPEEDUP", "POINTWISE_LANES", "STAGE_OVERHEAD_CYCLES",
            "ComputeUnitModel", "CUTiming", "matrix_block_grid",
        ],
        "emulator": ["CUEmulator", "SpectralWeights"],
        "fft_fixed": ["FixedPointFFT", "fixed_point_circulant_matvec"],
        "fft_unit": ["FFTUnit"],
        "fixed_point": ["FixedPointFormat", "quantization_snr_db"],
        "pe": ["ProcessingElement"],
        "platform": [
            "ADM_PCIE_7V3", "PLATFORMS", "XCKU060", "FPGAPlatform",
            "ResourceVector", "get_platform",
        ],
        "power": [
            "OFFCHIP_SUBSYSTEM_WATTS", "energy_efficiency", "power_watts",
        ],
        "report": ["ImplementationReport", "format_table"],
    },
)

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
