"""`repro.api` — the library's front door.

One coherent facade over the whole E-RNN flow:

* :class:`Design` — a fluent, immutable builder that compiles to the frozen
  ``(RNNSpec, AccelSpec)`` pair and exposes every verb of the paper's
  workflow as a chained call::

      from repro.api import Design

      design = (Design.lstm(1024).blocks(8).peephole().project(512)
                      .on("XCKU060").bits(12))
      design.fit_check()     # Phase-I Step One: BRAM sanity check
      design.bounds()        # Phase-I block-size search range
      design.price()         # Phase-II sizing: latency / FPS / power
      design.codegen()       # the HLS flow: schedule + generated C
      design.compress(model, dataset)       # ADMM compression (Fig. 6)
      design.optimize(trainer, baseline_per=20.01)  # Phase I + II

* :class:`Engine` — a keyed LRU cache over built artifacts, so sweeps and
  benchmarks that revisit a spec pay for the build once; optionally backed
  by a persistent :class:`DiskCache` shared across processes and sessions.
* :class:`Sweep` — parallel design-space exploration over any set of design
  axes, returning an :class:`ExplorationResult` with Pareto-frontier
  extraction, top-k selection, and text/CSV/JSON reports::

      from repro.api import Design, Sweep

      result = (Sweep(Design.lstm(1024).peephole().project(512))
                .over(blocks=[4, 8, 16], bits=[8, 12, 16],
                      platform=["ADM-PCIE-7V3", "XCKU060"])
                .run(mode="thread"))
      result.pareto()          # PER proxy vs latency frontier
      result.top_k(3, "fps")
      print(result.describe())

* the component registries (:data:`PLATFORM_REGISTRY`, :data:`CELL_REGISTRY`,
  :data:`ACTIVATION_REGISTRY`) with their ``register_*`` hooks.

The module body stays import-light (registries only); the heavy façade
classes load on first attribute access so that low-level modules can import
``repro.api.registry`` during package initialization without cycles.
"""

from __future__ import annotations

from repro._lazy import attach
from repro.api.registry import (
    ACTIVATION_REGISTRY,
    CELL_REGISTRY,
    PLATFORM_REGISTRY,
    ActivationInfo,
    CellInfo,
    Registry,
    register_activation,
    register_cell,
    register_platform,
)

__all__ = [
    "Design",
    "Engine",
    "CacheStats",
    "default_engine",
    "set_default_engine",
    "DiskCache",
    "default_cache_root",
    "Sweep",
    "Candidate",
    "PointMetrics",
    "EvaluatedPoint",
    "ExplorationResult",
    "FitReport",
    "BoundsReport",
    "Registry",
    "CellInfo",
    "ActivationInfo",
    "PLATFORM_REGISTRY",
    "CELL_REGISTRY",
    "ACTIVATION_REGISTRY",
    "register_platform",
    "register_cell",
    "register_activation",
]

# The heavy facade classes resolve on first access (PEP 562), so a process
# that needs only the registries never loads the build stack.
__getattr__, __dir__ = attach(
    __name__,
    {
        "design": ["Design"],
        "engine": [
            "Engine", "CacheStats", "default_engine", "set_default_engine",
        ],
        "diskcache": ["DiskCache", "default_cache_root"],
        "explorer": [
            "Sweep", "Candidate", "PointMetrics", "EvaluatedPoint",
            "ExplorationResult",
        ],
        "reports": ["FitReport", "BoundsReport"],
    },
)
