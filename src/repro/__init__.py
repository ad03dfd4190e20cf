"""E-RNN: Design Optimization for Efficient Recurrent Neural Networks in FPGAs.

A full Python reproduction of Li, Ding, Wang et al. (HPCA 2019): the
block-circulant + ADMM compression framework, the two-phase design
optimization, the FPGA hardware models, the HLS flow, and the ESE / C-LSTM
baselines — evaluated end to end on a synthetic TIMIT-like ASR task.

Quick start — the :mod:`repro.api` facade covers the whole flow::

    from repro.api import Design

    design = (Design.lstm(1024).blocks(8).peephole().project(512)
                    .on("XCKU060").bits(12))
    print(design.fit_check().describe())   # Phase-I BRAM sanity check
    print(design.bounds().describe())      # Phase-I block-size search range
    priced = design.price()                # Phase-II sizing (cached)
    print(priced.latency_us, priced.fps)
    design.codegen("ernn_cu.c")            # the HLS flow, C source out

Deployment — the :mod:`repro.runtime` layer runs what the build side
produces, over pluggable backends (float nn graph, fixed-point CU
emulation)::

    from repro import runtime

    compiled = runtime.compile(model, backend="fixed", weight_bits=12)
    logits = compiled.run(features)         # batched (T, B, D) -> (T, B, C)
    session = compiled.session()            # streaming, byte-identical
    with compiled.serve() as server:        # rounds: one row per session
        posteriors = server.session().push(frame)

The frozen spec types (:class:`RNNSpec`, :class:`AccelSpec`) remain the
interchange values underneath; ``Design`` compiles to them via
``.specs()``.  See README.md for the tour, docs/runtime.md for the serving
walkthrough, ROADMAP.md for where the system is heading, and PAPER.md for
the source paper's abstract.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(
    __name__,
    {
        "config": [
            "AccelSpec", "RNNSpec", "is_power_of_two", "validate_block_size",
        ],
        "core": [
            "ADMMConfig", "ADMMTrainer", "BlockCirculantMatrix", "ERNNResult",
            "PhaseIConfig", "PhaseIIConfig", "PhaseIIOptimizer",
            "PhaseIIResult", "PhaseIOptimizer", "PhaseIResult",
            "run_two_phase_flow",
        ],
        "errors": [
            "BlockSizeError", "ConfigError", "DecodingError", "FitError",
            "QuantizationError", "RegistryError", "ReproError",
            "SchedulingError", "ShapeError", "TrainingError",
        ],
        "api": [
            "ACTIVATION_REGISTRY", "CELL_REGISTRY", "PLATFORM_REGISTRY",
            "Design", "Engine", "default_engine", "register_activation",
            "register_cell", "register_platform",
        ],
        "runtime": [
            "BACKEND_REGISTRY", "CompiledModel", "Server", "Session",
            "compile_model", "register_backend",
        ],
    },
    submodules=["runtime"],
)

__version__ = "1.3.0"

__all__ = [
    "Design",
    "Engine",
    "default_engine",
    "runtime",
    "compile_model",
    "CompiledModel",
    "Session",
    "Server",
    "BACKEND_REGISTRY",
    "register_backend",
    "PLATFORM_REGISTRY",
    "CELL_REGISTRY",
    "ACTIVATION_REGISTRY",
    "register_platform",
    "register_cell",
    "register_activation",
    "AccelSpec",
    "RNNSpec",
    "is_power_of_two",
    "validate_block_size",
    "ADMMConfig",
    "ADMMTrainer",
    "BlockCirculantMatrix",
    "ERNNResult",
    "PhaseIConfig",
    "PhaseIIConfig",
    "PhaseIIOptimizer",
    "PhaseIIResult",
    "PhaseIOptimizer",
    "PhaseIResult",
    "run_two_phase_flow",
    "BlockSizeError",
    "ConfigError",
    "DecodingError",
    "FitError",
    "QuantizationError",
    "RegistryError",
    "ReproError",
    "SchedulingError",
    "ShapeError",
    "TrainingError",
    "__version__",
]
