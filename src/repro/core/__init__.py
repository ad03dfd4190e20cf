"""Core package: block-circulant algebra, ADMM training, design optimization."""

from repro._lazy import attach

__getattr__, __dir__ = attach(
    __name__,
    {
        "admm": ["ADMMConfig", "ADMMTrainer"],
        "block_matrix": ["BlockCirculantMatrix"],
        "ernn": ["ERNNResult", "run_two_phase_flow"],
        "phase1": [
            "PhaseIConfig", "PhaseIOptimizer", "PhaseIResult", "TrainingTrial",
        ],
        "phase2": [
            "PhaseIIConfig", "PhaseIIOptimizer", "PhaseIIResult",
            "select_pwl_segments",
        ],
        "circulant": [
            "circulant_from_first_column", "circulant_from_first_row",
            "circulant_matvec", "circulant_matvec_direct", "is_circulant",
            "reverse_index", "transpose_vector",
        ],
        "compression": [
            "PAPER_INPUT_DIM", "MatrixShape", "compression_ratio",
            "ese_effective_compression", "layer_matrix_params",
            "matrix_inventory", "total_matrix_params",
        ],
        "cost_model": [
            "ComputationBreakdown", "decoupling_counts",
            "elementwise_real_mults", "fft_complex_mults", "fig8_curve",
            "layer_multiplications", "normalized_multiplications",
            "recommended_block_upper_bound",
        ],
        "projection": [
            "circulant_distance", "project_block_to_circulant_vector",
            "project_to_block_circulant", "project_to_block_circulant_vectors",
        ],
    },
)

__all__ = [
    "ADMMConfig",
    "ADMMTrainer",
    "BlockCirculantMatrix",
    "ERNNResult",
    "run_two_phase_flow",
    "PhaseIConfig",
    "PhaseIOptimizer",
    "PhaseIResult",
    "TrainingTrial",
    "PhaseIIConfig",
    "PhaseIIOptimizer",
    "PhaseIIResult",
    "select_pwl_segments",
    "circulant_from_first_column",
    "circulant_from_first_row",
    "circulant_matvec",
    "circulant_matvec_direct",
    "is_circulant",
    "reverse_index",
    "transpose_vector",
    "PAPER_INPUT_DIM",
    "MatrixShape",
    "compression_ratio",
    "ese_effective_compression",
    "layer_matrix_params",
    "matrix_inventory",
    "total_matrix_params",
    "ComputationBreakdown",
    "decoupling_counts",
    "elementwise_real_mults",
    "fft_complex_mults",
    "fig8_curve",
    "layer_multiplications",
    "normalized_multiplications",
    "recommended_block_upper_bound",
    "circulant_distance",
    "project_block_to_circulant_vector",
    "project_to_block_circulant",
    "project_to_block_circulant_vectors",
]
