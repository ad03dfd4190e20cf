"""Workload registry: pluggable session semantics over one runtime.

A *workload* owns what a session means beyond raw frame scoring: which
ops it serves (``generate``, ``score``), how its inputs are coerced
(integer token ids vs float64 feature frames), and the step semantics of
each op.  Workloads register in :data:`WORKLOAD_REGISTRY` exactly like
backends, cells, and platforms — adding one is a registration call, not
edits across session/server/wire layers.

Two ship built in:

* ``"asr"`` — frame scoring, the original workload.  ``push`` only; the
  refactor onto this registry is byte-identical (same
  :func:`~repro.runtime.coerce.coerce_frame` path).
* ``"lm"`` — character-level language modeling.  Adds ``generate``
  (seeded temperature/top-k autoregressive sampling) and ``score``
  (per-token log-probs).  Token ids are fed to the model as one-hot
  float64 rows, so LM steps are ordinary scoring rows to every layer
  below.

The op semantics live in *row drivers* — small state machines with a
``next_row() -> (D,) row | None`` / ``feed((C,) logits)`` surface — and
every serving layer (in-process :class:`~repro.runtime.Session`, and the
round core of :mod:`repro.runtime.rounds` that the micro-batching
:class:`~repro.runtime.Server` and the net workers run) drives the
*same* driver classes.  That is what makes generation
byte-identical across backends, transports, and process boundaries: only
the transport differs, never the math.  A ``generate`` op advances the
session by ``len(prompt) + steps - 1`` rows (the last sampled token is
returned but never fed); ``score`` over ``K`` tokens advances by ``K-1``
rows and returns ``K-1`` log-probs for ``tokens[1:]``.  Both journal as
their equivalent one-hot rows, so reattach/failover replay rebuilds the
exact post-op state with the machinery frame scoring already has.
"""

from __future__ import annotations

# bit-exact: this module is on the fixed/float byte-identity surface
# (docs/analysis.md, REP003) — dtypes stay explicit, reductions ordered.

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from repro.api.registry import Registry
from repro.errors import ConfigError
from repro.lm.sampling import sample_token, validate_sampling
from repro.runtime.coerce import coerce_tokens, one_hot_rows

__all__ = [
    "WorkloadInfo",
    "WORKLOAD_REGISTRY",
    "register_workload",
    "GenerateDriver",
    "ScoreDriver",
    "generate_params",
    "score_params",
    "MAX_GENERATE_STEPS",
]

#: Upper bound on sampled tokens per ``generate`` op — one op is one
#: scheduling unit on a worker, so this caps how long a single request
#: can monopolize a session's turn.
MAX_GENERATE_STEPS = 65536


# ----------------------------------------------------------------------
# Row drivers.
# ----------------------------------------------------------------------


class GenerateDriver:
    """Autoregressive sampling as a strict next_row/feed state machine.

    Rows come out one at a time and each ``feed`` must land before the
    next ``next_row`` — token ``i+1``'s one-hot depends on the logits of
    row ``i``.  Sampling starts on the last prompt row's logits; the
    final sampled token is returned in the result but never fed.
    """

    __slots__ = (
        "_vocab",
        "_prompt",
        "_steps",
        "_temperature",
        "_top_k",
        "_rng",
        "_emitted",
        "_fed",
        "_tokens",
        "_total",
    )

    def __init__(
        self,
        vocab_size: int,
        prompt,
        steps: int,
        temperature: float,
        top_k: int,
        seed: int,
    ):
        self._vocab = int(vocab_size)
        self._prompt = coerce_tokens(prompt, self._vocab, min_len=1)
        if not isinstance(steps, (int, np.integer)) or isinstance(steps, bool):
            raise ConfigError(f"steps must be an integer, got {steps!r}")
        steps = int(steps)
        if not 1 <= steps <= MAX_GENERATE_STEPS:
            raise ConfigError(
                f"steps must be in [1, {MAX_GENERATE_STEPS}], got {steps}"
            )
        self._steps = steps
        self._temperature, self._top_k = validate_sampling(temperature, top_k)
        if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
            raise ConfigError(f"seed must be an integer, got {seed!r}")
        if int(seed) < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        self._rng = np.random.default_rng(int(seed))
        self._emitted = 0
        self._fed = 0
        self._tokens: list[int] = []
        self._total = self._prompt.shape[0] + steps - 1

    @property
    def rows_total(self) -> int:
        """Rows this op feeds — the session's sequence-number advance."""
        return self._total

    @property
    def done(self) -> bool:
        return self._fed >= self._total

    def next_row(self) -> np.ndarray | None:
        """The next one-hot row to step, or None when all rows are out."""
        if self._emitted >= self._total:
            return None
        if self._emitted > self._fed:
            raise ConfigError(
                "generate is autoregressive: feed the previous row's "
                "logits before requesting the next row"
            )
        index = self._emitted
        prompt_len = self._prompt.shape[0]
        if index < prompt_len:
            token = int(self._prompt[index])
        else:
            token = self._tokens[index - prompt_len]
        self._emitted += 1
        row = np.zeros(self._vocab, dtype=np.float64)
        row[token] = 1.0
        return row

    def feed(self, logits: np.ndarray) -> None:
        """Consume the logits of the most recently emitted row."""
        if self._fed >= self._emitted:
            raise ConfigError("feed() without a matching next_row()")
        logits = np.asarray(logits, dtype=np.float64).reshape(-1)
        if logits.shape[0] != self._vocab:
            raise ConfigError(
                f"expected ({self._vocab},) logits, got {logits.shape}"
            )
        if self._fed >= self._prompt.shape[0] - 1:
            self._tokens.append(
                sample_token(
                    logits,
                    temperature=self._temperature,
                    top_k=self._top_k,
                    rng=self._rng,
                )
            )
        self._fed += 1

    def fed_rows(self) -> np.ndarray:
        """The one-hot rows fed so far — the op's journal contribution."""
        sampled = self._tokens[: max(0, self._fed - self._prompt.shape[0])]
        tokens = np.concatenate(
            [
                self._prompt[: min(self._fed, self._prompt.shape[0])],
                np.asarray(sampled, dtype=np.int64),
            ]
        )
        return one_hot_rows(tokens, self._vocab)

    def result(self) -> dict[str, Any]:
        if not self.done:
            raise ConfigError(
                f"generate incomplete: {self._fed}/{self._total} rows fed"
            )
        return {"tokens": [int(t) for t in self._tokens]}


class ScoreDriver:
    """Per-token log-probs: feed ``tokens[:-1]``, score ``tokens[1:]``.

    Unlike generation, every row is known up front, so rows may be
    emitted ahead of their feeds (the worker batches them like
    ``push_many``); feeds still arrive in row order.
    """

    __slots__ = ("_vocab", "_tokens", "_emitted", "_fed", "_logprobs")

    def __init__(self, vocab_size: int, tokens):
        self._vocab = int(vocab_size)
        self._tokens = coerce_tokens(tokens, self._vocab, min_len=2)
        self._emitted = 0
        self._fed = 0
        self._logprobs = np.empty(self._tokens.shape[0] - 1, dtype=np.float64)

    @property
    def rows_total(self) -> int:
        return self._tokens.shape[0] - 1

    @property
    def done(self) -> bool:
        return self._fed >= self.rows_total

    def next_row(self) -> np.ndarray | None:
        if self._emitted >= self.rows_total:
            return None
        index = self._emitted
        self._emitted += 1
        row = np.zeros(self._vocab, dtype=np.float64)
        row[int(self._tokens[index])] = 1.0
        return row

    def feed(self, logits: np.ndarray) -> None:
        if self._fed >= self._emitted:
            raise ConfigError("feed() without a matching next_row()")
        logits = np.asarray(logits, dtype=np.float64).reshape(-1)
        if logits.shape[0] != self._vocab:
            raise ConfigError(
                f"expected ({self._vocab},) logits, got {logits.shape}"
            )
        target = int(self._tokens[self._fed + 1])
        peak = np.max(logits)
        lse = peak + np.log(np.sum(np.exp(logits - peak)))
        self._logprobs[self._fed] = logits[target] - lse
        self._fed += 1

    def fed_rows(self) -> np.ndarray:
        return one_hot_rows(self._tokens[: self._fed], self._vocab)

    def result(self) -> dict[str, Any]:
        if not self.done:
            raise ConfigError(
                f"score incomplete: {self._fed}/{self.rows_total} rows fed"
            )
        return {"logprobs": self._logprobs.copy()}


# ----------------------------------------------------------------------
# Wire-safe op parameter builders.
# ----------------------------------------------------------------------


def generate_params(
    prompt,
    steps: int,
    temperature: float = 1.0,
    top_k: int = 0,
    seed: int = 0,
    *,
    vocab_size: int,
) -> dict[str, Any]:
    """Validate and normalize ``generate`` parameters to a JSON-safe dict.

    Clients call this before the op crosses the wire; the serving side
    re-validates by constructing the driver from the same dict, so a
    malformed request fails identically on both ends.
    """
    driver = GenerateDriver(vocab_size, prompt, steps, temperature, top_k, seed)
    return {
        "prompt": [int(t) for t in driver._prompt],
        "steps": int(driver._steps),
        "temperature": float(driver._temperature),
        "top_k": int(driver._top_k),
        "seed": int(seed),
    }


def score_params(tokens, *, vocab_size: int) -> dict[str, Any]:
    """Validate and normalize ``score`` parameters to a JSON-safe dict."""
    driver = ScoreDriver(vocab_size, tokens)
    return {"tokens": [int(t) for t in driver._tokens]}


def _make_generate_driver(
    vocab_size: int, params: Mapping[str, Any]
) -> GenerateDriver:
    params = dict(params)
    prompt = params.pop("prompt", None)
    steps = params.pop("steps", None)
    temperature = params.pop("temperature", 1.0)
    top_k = params.pop("top_k", 0)
    seed = params.pop("seed", 0)
    if params:
        raise ConfigError(f"unknown generate parameters: {sorted(params)}")
    if prompt is None or steps is None:
        raise ConfigError("generate requires 'prompt' and 'steps'")
    return GenerateDriver(vocab_size, prompt, steps, temperature, top_k, seed)


def _make_score_driver(
    vocab_size: int, params: Mapping[str, Any]
) -> ScoreDriver:
    params = dict(params)
    tokens = params.pop("tokens", None)
    if params:
        raise ConfigError(f"unknown score parameters: {sorted(params)}")
    if tokens is None:
        raise ConfigError("score requires 'tokens'")
    return ScoreDriver(vocab_size, tokens)


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadInfo:
    """One registered workload: its op set and driver factories."""

    name: str
    description: str = ""
    #: Session ops beyond the frame core (push/push_many/reset/close).
    ops: tuple[str, ...] = ()
    #: True when sessions accept integer token ids (coerced to one-hots).
    token_input: bool = False
    driver_factories: Mapping[str, Callable[[int, Mapping[str, Any]], Any]] = (
        field(default_factory=dict)
    )

    def make_driver(
        self, op: str, *, vocab_size: int, params: Mapping[str, Any]
    ) -> Any:
        """Build the row driver serving one ``op`` request."""
        factory = self.driver_factories.get(op)
        if factory is None:
            raise ConfigError(
                f"workload {self.name!r} does not serve op {op!r} "
                f"(serves: {sorted(self.ops) or 'frame scoring only'})"
            )
        return factory(vocab_size, params)


WORKLOAD_REGISTRY = Registry("workload")


def register_workload(
    info: WorkloadInfo, aliases: tuple[str, ...] = ()
) -> WorkloadInfo:
    """Register a workload, mirroring ``register_backend``."""
    WORKLOAD_REGISTRY.register(info.name, info, aliases=aliases)
    return info


ASR_WORKLOAD = register_workload(
    WorkloadInfo(
        name="asr",
        description="framewise acoustic scoring (push -> phone posteriors)",
    )
)

LM_WORKLOAD = register_workload(
    WorkloadInfo(
        name="lm",
        description=(
            "char-level language modeling: seeded generate + per-token score"
        ),
        ops=("generate", "score"),
        token_input=True,
        driver_factories={
            "generate": _make_generate_driver,
            "score": _make_score_driver,
        },
    ),
    aliases=("rnnlm",),
)
