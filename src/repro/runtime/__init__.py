"""``repro.runtime`` — the unified inference layer: compile → session → serve.

The build side of the library (``repro.api``) produces a compressed,
quantized design; this package is where that design *runs*.  One coherent
subsystem replaces the three historical ad-hoc inference surfaces
(``StackedRNNClassifier.__call__``, ``CUEmulator.forward``, the private
forward loop of ``asr.pipeline``):

* :func:`compile` — snapshot a trained model (or a spec/``Design``) into an
  immutable, serializable :class:`CompiledModel`; fingerprint-memoized
  through the build :class:`~repro.api.engine.Engine` and persistable as a
  schema-versioned ``.npz``.
* :data:`BACKEND_REGISTRY` — pluggable execution backends (``"float"`` nn
  graph, ``"fixed"`` CU emulator), extensible with
  :func:`register_backend` and held to a byte-level conformance contract
  (:func:`check_conformance`).
* :meth:`CompiledModel.session` — stateful frame-by-frame streaming,
  byte-identical to the one-shot batched :meth:`CompiledModel.run`.
* :class:`Server` — a thread-based micro-batching scheduler that steps
  concurrent sessions' rows in shared backend calls, one row per busy
  session per round, without perturbing any stream's bytes (the
  row-isolation contract).  The net workers run the same round core.
* :mod:`repro.runtime.net` — the process boundary: an NDJSON/TCP network
  front-end sharding the same stack across worker processes (stable-hash
  session routing, explicit ``busy`` backpressure, draining shutdown),
  with a blocking stdlib client.  Imported lazily — ``repro.runtime``
  itself stays dependency-light.
* :func:`evaluate_per` / :func:`evaluate_frame_accuracy` — dataset metrics
  routed through ``CompiledModel``, so the same call scores the float
  model or the fixed-point hardware emulation.

See ``docs/runtime.md`` for the walkthrough.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(
    __name__,
    {
        "backends": [
            "BACKEND_REGISTRY", "BackendInfo", "ConformanceError", "Executor",
            "check_conformance", "register_backend",
        ],
        "coerce": ["coerce_frame", "coerce_stream", "coerce_tokens"],
        "evaluate": [
            "as_compiled", "evaluate_frame_accuracy", "evaluate_per",
            "evaluate_perplexity",
        ],
        "model": [
            "CompiledModel", "LMMeta", "RuntimeMeta", "compile",
            "compile_model",
        ],
        "rounds": ["ServerStats"],
        "server": ["Server", "ServerSession"],
        "session": ["Session"],
        "workloads": [
            "WORKLOAD_REGISTRY", "WorkloadInfo", "register_workload",
        ],
    },
)

__all__ = [
    "compile",
    "compile_model",
    "CompiledModel",
    "RuntimeMeta",
    "LMMeta",
    "WorkloadInfo",
    "WORKLOAD_REGISTRY",
    "register_workload",
    "Session",
    "Server",
    "ServerSession",
    "ServerStats",
    "Executor",
    "BackendInfo",
    "BACKEND_REGISTRY",
    "register_backend",
    "check_conformance",
    "ConformanceError",
    "as_compiled",
    "coerce_frame",
    "coerce_stream",
    "coerce_tokens",
    "evaluate_per",
    "evaluate_frame_accuracy",
    "evaluate_perplexity",
]
