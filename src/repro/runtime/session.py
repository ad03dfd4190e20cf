"""Stateful frame-by-frame streaming over a compiled model.

A :class:`Session` carries the recurrent hidden/cell state between frames,
which is what per-frame deployment (the paper's latency numbers are
per-frame) actually looks like: features arrive one frame at a time and
posteriors must come back before the next frame.

The defining invariant — enforced by ``tests/runtime`` — is that pushing
``T`` frames one by one produces *byte-identical* logits to the one-shot
batched :meth:`repro.runtime.CompiledModel.run` on the same ``(T, B, D)``
stack.  Batch width is fixed at session creation because the fixed-point
backend fits its data-dependent formats per frame *across* the batch
(hardware semantics): a width-4 stream is one stream of width-4 frames,
not four independent streams.  Independent streams multiplex through
:class:`repro.runtime.Server` instead.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ConfigError
from repro.runtime.coerce import coerce_frame, coerce_stream
from repro.runtime.workloads import WORKLOAD_REGISTRY

__all__ = ["Session"]


class Session:
    """A streaming handle: ``push(frame) -> logits`` with carried state.

    Sessions are cheap (state only — weights live on the shared executor)
    and single-threaded: use one session per caller; concurrent callers
    each open their own (or go through a :class:`~repro.runtime.Server`).

    The op surface beyond ``push`` is owned by the compiled model's
    *workload* (:mod:`repro.runtime.workloads`): an ``lm`` artifact adds
    :meth:`generate` and :meth:`score`, which drive the same executor
    ``step`` path as ``push`` — one one-hot row per token.
    """

    def __init__(self, compiled: Any, batch_size: int = 1):
        if batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {batch_size}")
        self._compiled = compiled
        self._executor = compiled.executor()
        # getattr with the asr default keeps duck-typed compiled stand-ins
        # (tests, custom wrappers) working: frame scoring needs no info.
        self._workload = getattr(compiled, "workload_info", None) or (
            WORKLOAD_REGISTRY.get("asr")
        )
        self._batch = batch_size
        self._state = self._executor.initial_state(batch_size)
        self._frames = 0

    # ------------------------------------------------------------------
    @property
    def batch_size(self) -> int:
        return self._batch

    @property
    def frames_pushed(self) -> int:
        """Frames consumed since creation or the last :meth:`reset`."""
        return self._frames

    @property
    def compiled(self) -> Any:
        return self._compiled

    # ------------------------------------------------------------------
    def push(self, frame: np.ndarray) -> np.ndarray:
        """Advance one frame; returns that frame's logits.

        ``frame`` is ``(B, D)`` — or, for width-1 sessions, a bare ``(D,)``
        vector, in which case a ``(C,)`` vector comes back.  The returned
        logits are byte-identical to row ``t`` of ``run()`` over the full
        stream (the streaming ≡ batched invariant).
        """
        frame, squeeze = coerce_frame(
            frame, self._batch, self._executor.input_size
        )
        logits, self._state = self._executor.step(frame, self._state)
        self._frames += 1
        return logits[0] if squeeze else logits

    def run(self, frames: np.ndarray) -> np.ndarray:
        """Push a ``(T, B, D)`` stack through the session, frame by frame.

        Unlike :meth:`CompiledModel.run` this *advances the session*: it is
        literally ``T`` pushes, returned stacked — handy for feeding a
        stream in chunks.
        """
        frames = coerce_stream(frames, self._executor.input_size)
        out = np.empty(
            (frames.shape[0], self._batch, self._executor.num_classes)
        )
        for t in range(frames.shape[0]):
            out[t] = self.push(frames[t])
        return out

    # ------------------------------------------------------------------
    # Workload ops (token-based sessions).
    # ------------------------------------------------------------------
    def _run_op(self, op: str, params: dict) -> dict:
        if self._batch != 1:
            raise ConfigError(
                f"{op} drives this session's own row stream and needs a "
                f"batch_size=1 session, not width {self._batch}"
            )
        driver = self._workload.make_driver(
            op, vocab_size=self._executor.input_size, params=params
        )
        while (row := driver.next_row()) is not None:
            logits, self._state = self._executor.step(row[None, :],
                                                      self._state)
            self._frames += 1
            driver.feed(logits[0])
        return driver.result()

    def generate(
        self,
        prompt,
        steps: int = 32,
        *,
        temperature: float = 1.0,
        top_k: int = 0,
        seed: int = 0,
    ) -> list[int]:
        """Sample ``steps`` tokens autoregressively after ``prompt``.

        Deterministic: the same compiled model, prompt, and sampling knobs
        yield the same tokens on every backend, transport, and process —
        the served byte-gate of :mod:`repro.lm.sampling`.  Advances the
        session by ``len(prompt) + steps - 1`` rows (the final sampled
        token is returned but not fed), so generation composes: a
        follow-up call with ``prompt=[tokens[-1]]`` continues the stream.
        """
        return self._run_op(
            "generate",
            {
                "prompt": prompt,
                "steps": steps,
                "temperature": temperature,
                "top_k": top_k,
                "seed": seed,
            },
        )["tokens"]

    def score(self, tokens) -> np.ndarray:
        """Per-token log-probs: ``(K-1,)`` float64 for ``tokens[1:]``.

        Feeds ``tokens[:-1]`` (advancing the session by ``K-1`` rows); to
        score a long text in chunks, overlap consecutive chunks by one
        token.
        """
        return self._run_op("score", {"tokens": tokens})["logprobs"]

    def reset(self) -> "Session":
        """Zero the carried state, as between utterances.  Returns self."""
        self._state = self._executor.initial_state(self._batch)
        self._frames = 0
        return self
