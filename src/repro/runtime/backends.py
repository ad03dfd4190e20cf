"""Pluggable inference backends and their conformance contract.

A *backend* turns a :class:`repro.runtime.CompiledModel` into an
:class:`Executor` — the object that actually computes posteriors.  Two ship
built in, registered in :data:`BACKEND_REGISTRY` exactly like the cell and
platform registries of :mod:`repro.api.registry`:

* ``"float"`` — the training-stack nn graph (dense or circulant weights,
  exact activations), byte-identical to ``StackedRNNClassifier.__call__``;
* ``"fixed"`` — the batched CU emulator of :mod:`repro.hw.emulator`:
  quantized spectra, fixed-point intermediates, PWL activations —
  byte-identical to ``CUEmulator.forward_reference``.

The conformance contract
------------------------

Every executor must satisfy three byte-level invariants, enforced by
:func:`check_conformance` (which the test suite and ``repro serve
--selftest`` both run):

1. **Streaming ≡ batched.**  ``run((T, B, D))`` equals ``T`` successive
   ``step`` calls threading the carried state — the default ``run`` *is*
   that loop, so a backend overriding it with a hoisted implementation
   (as ``fixed`` does) must keep the bytes.
2. **Row isolation.**  ``step_rows`` serves ``R`` independent batch-1
   streams in one call; row ``r`` of its output must be byte-identical to
   ``step(frames[r:r+1], states[r])``.  This is what lets the
   :class:`repro.runtime.Server` coalesce concurrent sessions without
   perturbing any stream.  The default implementation loops rows (always
   conformant); ``fixed`` vectorizes: formats are fit per row, and the
   spectral MAC is exact (integer multiples of one unit, well inside
   float64's mantissa), so one GEMM over all rows cannot change a row's
   bytes.  Only its float classifier GEMM, which is inexact, runs per row.
3. **Batch semantics are part of the result.**  Fixed-point formats are
   fit per frame *across* the batch (hardware semantics, Sec. V-A1), so a
   ``(T, B)`` batched run is not the concatenation of ``B`` independent
   streams — sessions carry their batch width from creation for exactly
   this reason.

Register a custom backend with :func:`register_backend`::

    @register_backend("my-accel", description="bit-accurate RTL emulator")
    def build_my_accel(compiled):
        return MyExecutor(compiled)
"""

from __future__ import annotations

# bit-exact: this module is on the fixed/float byte-identity surface
# (docs/analysis.md, REP003) — dtypes stay explicit, reductions ordered.

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.api.registry import Registry
from repro.errors import ConfigError, ReproError
from repro.runtime.coerce import coerce_stream

__all__ = [
    "Executor",
    "BackendInfo",
    "BACKEND_REGISTRY",
    "register_backend",
    "build_executor",
    "check_conformance",
    "ConformanceError",
]


class ConformanceError(ReproError):
    """An executor violated the backend conformance contract."""


class Executor(ABC):
    """One backend's stateless compute engine for a single compiled model.

    Executors hold weights (immutably) but never recurrent state — state
    is created by :meth:`initial_state` and threaded through :meth:`step`
    by the caller, which is what makes one executor safely shareable by
    every session and the server's loop thread.
    """

    #: Feature width the executor expects (set by concrete classes).
    input_size: int
    #: Output (phone-posterior) width.
    num_classes: int

    @abstractmethod
    def initial_state(self, batch: int) -> Any:
        """Fresh zero recurrent state for a ``batch``-wide stream."""

    @abstractmethod
    def step(self, frames: np.ndarray, state: Any) -> tuple[np.ndarray, Any]:
        """One frame: ``(B, D)`` + state → ``((B, C) logits, new state)``."""

    def run(self, inputs: np.ndarray) -> np.ndarray:
        """Whole-utterance inference: ``(T, B, D)`` → ``(T, B, C)`` logits.

        Default: the streaming loop itself, so it is byte-identical to a
        session by construction.  Backends may override with a hoisted
        implementation that keeps the bytes (invariant 1).
        """
        inputs = self.check_inputs(inputs)
        frames, batch, _ = inputs.shape
        state = self.initial_state(batch)
        logits = np.empty((frames, batch, self.num_classes), dtype=np.float64)
        for t in range(frames):
            logits[t], state = self.step(inputs[t], state)
        return logits

    def step_rows(
        self, frames: np.ndarray, states: Sequence[Any]
    ) -> tuple[np.ndarray, list[Any]]:
        """Micro-batched step over independent batch-1 streams.

        Default: a per-row loop over :meth:`step` — conformant with the
        row-isolation invariant on any platform.  Backends override it
        when they can vectorize without changing any row's bytes.
        """
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 2 or len(frames) != len(states):
            raise ConfigError(
                f"expected ({len(states)}, D) rows, got {frames.shape}"
            )
        out = np.empty((len(frames), self.num_classes), dtype=np.float64)
        new_states = []
        for r, state in enumerate(states):
            logits, new_state = self.step(frames[r : r + 1], state)
            out[r] = logits[0]
            new_states.append(new_state)
        return out, new_states

    # ------------------------------------------------------------------
    def check_inputs(self, inputs: np.ndarray) -> np.ndarray:
        return coerce_stream(inputs, self.input_size)


# ----------------------------------------------------------------------
# Built-in executors.
# ----------------------------------------------------------------------


class FloatExecutor(Executor):
    """The nn-graph backend: exact float math, graph-free inference.

    Replays exactly the op sequence of ``StackedRNNClassifier.forward``
    (cells, then the dense head) under ``no_grad``, so ``run`` is
    byte-identical to ``model(inputs).data`` — the invariant that keeps
    PER evaluation through the runtime equal to the legacy path.
    """

    def __init__(self, model: Any):
        self._model = model
        self.input_size = model.spec.input_size
        self.num_classes = model.spec.output_size

    def initial_state(self, batch: int) -> list:
        return [cell.initial_state(batch) for cell in self._model.cells]

    def step(self, frames: np.ndarray, state: list) -> tuple[np.ndarray, list]:
        from repro.nn.autograd import as_tensor, no_grad

        with no_grad():
            value = as_tensor(np.asarray(frames, dtype=np.float64))
            new_state = list(state)
            for index, cell in enumerate(self._model.cells):
                value, new_state[index] = cell(value, new_state[index])
            logits = self._model.classifier(value)
        return logits.data, new_state


class FixedExecutor(Executor):
    """The hardware backend: the CU emulator behind the runtime contract.

    ``run`` delegates to the hoisted layer-major ``CUEmulator.forward``
    and ``step``/``step_rows`` to the emulator's streaming surface — all
    byte-identical to ``forward_reference`` (test-enforced in
    ``tests/hw`` and re-checked at the runtime layer).
    """

    def __init__(self, emulator: Any):
        self._emulator = emulator
        self.input_size = emulator.spec.input_size
        self.num_classes = emulator.spec.output_size

    @property
    def emulator(self) -> Any:
        return self._emulator

    def initial_state(self, batch: int) -> list:
        return self._emulator.initial_states(batch)

    def step(self, frames: np.ndarray, state: list) -> tuple[np.ndarray, list]:
        return self._emulator.step(frames, state)

    def run(self, inputs: np.ndarray) -> np.ndarray:
        return self._emulator.forward(self.check_inputs(inputs))

    def step_rows(
        self, frames: np.ndarray, states: Sequence[Any]
    ) -> tuple[np.ndarray, list[Any]]:
        return self._emulator.step_rows(frames, list(states))


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BackendInfo:
    """One registered backend: a factory from compiled model to executor."""

    name: str
    factory: Callable[[Any], Executor]
    description: str = ""


BACKEND_REGISTRY = Registry("backend")


def register_backend(
    name: str, *, description: str = ""
) -> Callable[[Callable[[Any], Executor]], Callable[[Any], Executor]]:
    """Decorator registering ``factory(compiled) -> Executor`` under ``name``."""

    def decorate(factory: Callable[[Any], Executor]) -> Callable[[Any], Executor]:
        BACKEND_REGISTRY.register(
            name, BackendInfo(name=name, factory=factory, description=description)
        )
        return factory

    return decorate


@register_backend("float", description="nn graph: exact float inference")
def _build_float(compiled: Any) -> FloatExecutor:
    return FloatExecutor(compiled.to_model())


@register_backend(
    "fixed", description="CU emulator: fixed-point spectra, PWL activations"
)
def _build_fixed(compiled: Any) -> FixedExecutor:
    from repro.hw.emulator import CUEmulator

    options = compiled.options
    return FixedExecutor(
        CUEmulator(
            compiled.to_model(),
            weight_bits=options.get("weight_bits", 12),
            pwl_segments=options.get("pwl_segments", 16),
        )
    )


def build_executor(compiled: Any) -> Executor:
    """Instantiate ``compiled``'s backend executor via the registry."""
    info = BACKEND_REGISTRY.get(compiled.backend)
    return info.factory(compiled)


# ----------------------------------------------------------------------
# Conformance checking.
# ----------------------------------------------------------------------


def check_conformance(
    executor: Executor,
    inputs: np.ndarray,
    rows: int | None = None,
    workload: Any = None,
) -> None:
    """Assert the executor honours the backend contract on ``inputs``.

    ``inputs`` is a ``(T, B, D)`` probe.  Checks invariant 1 (``run`` ≡
    the step loop at width ``B``) and invariant 2 (``step_rows`` over
    ``rows`` batch-1 streams ≡ per-row ``step``; default ``min(B, 4)``).
    With a ``workload`` (a :class:`repro.runtime.workloads.WorkloadInfo`)
    that serves ``generate``, additionally pins the LM surface: a seeded
    generation driven through ``step`` must produce the same tokens as
    one driven through ``step_rows`` — the invariant that lets the server
    coalesce autoregressive rows with scoring rows.  Raises
    :class:`ConformanceError` naming the first mismatch.
    """
    inputs = executor.check_inputs(inputs)
    frames, batch, _ = inputs.shape

    hoisted = executor.run(inputs)
    state = executor.initial_state(batch)
    for t in range(frames):
        logits, state = executor.step(inputs[t], state)
        if not np.array_equal(hoisted[t], logits):
            raise ConformanceError(
                f"run() and step() disagree at frame {t}: streaming must be "
                "byte-identical to the batched path"
            )

    rows = min(batch, 4) if rows is None else rows
    row_frames = np.ascontiguousarray(inputs[0, :rows])
    states = [executor.initial_state(1) for _ in range(rows)]
    coalesced, _ = executor.step_rows(row_frames, states)
    for r in range(rows):
        single, _ = executor.step(
            row_frames[r : r + 1], executor.initial_state(1)
        )
        if not np.array_equal(coalesced[r], single[0]):
            raise ConformanceError(
                f"step_rows() row {r} differs from a standalone batch-1 "
                "step: micro-batching must not perturb a stream's bytes"
            )

    if workload is not None and "generate" in getattr(workload, "ops", ()):
        _check_lm_conformance(executor, workload)


def _check_lm_conformance(executor: Executor, workload: Any) -> None:
    """Generation must be invariant to the row-serving path."""
    vocab = executor.input_size
    if executor.num_classes != vocab:
        raise ConformanceError(
            "an LM executor needs input_size == num_classes == vocab_size, "
            f"got {vocab} vs {executor.num_classes}"
        )
    params = {
        "prompt": [0, vocab - 1],
        "steps": 8,
        "temperature": 0.7,
        "top_k": min(vocab, 8),
        "seed": 1234,
    }

    def sample(step_one: Callable[[np.ndarray, Any], tuple]) -> list[int]:
        driver = workload.make_driver(
            "generate", vocab_size=vocab, params=params
        )
        state = executor.initial_state(1)
        while True:
            row = driver.next_row()
            if row is None:
                return driver.result()["tokens"]
            logits, state = step_one(row, state)
            driver.feed(logits)

    def via_step(row: np.ndarray, state: Any) -> tuple:
        logits, state = executor.step(row[None, :], state)
        return logits[0], state

    def via_rows(row: np.ndarray, state: Any) -> tuple:
        logits, states = executor.step_rows(row[None, :], [state])
        return logits[0], states[0]

    if sample(via_step) != sample(via_rows):
        raise ConformanceError(
            "generate() diverges between step() and step_rows(): "
            "autoregressive sampling must be invariant to micro-batching"
        )
