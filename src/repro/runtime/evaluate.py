"""Dataset-level evaluation through the unified runtime.

The accuracy metrics (corpus PER, framewise accuracy) used to live on a
private forward loop inside :mod:`repro.asr.pipeline` that only the float
nn graph could serve.  Routing them through :class:`CompiledModel` keeps
one forward implementation for *every* backend: the same call measures the
float model or the fixed-point CU emulation (``backend="fixed"``), which is
how the paper's Sec. VII-D quantization-degradation numbers are meant to be
read — the PER of the hardware computation, not of a float stand-in.

Byte-compatibility: for a raw :class:`~repro.nn.rnn.StackedRNNClassifier`
the float backend replays the exact op sequence of ``model(features)``, so
every PER and trial log produced through here matches the legacy pipeline
path bit for bit (test-enforced).
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "as_compiled",
    "evaluate_per",
    "evaluate_frame_accuracy",
    "evaluate_perplexity",
]


def as_compiled(model: Any, backend: str = "float", **options: Any) -> Any:
    """Coerce a model (or pass through a :class:`CompiledModel`) for eval.

    Raw models are compiled *uncached*: experiment sweeps evaluate many
    throwaway models (Phase-I trials, one per harness measurement), and
    pinning each one's full weight snapshot in the process-wide engine LRU
    would trade real memory for warmth nothing comes back for.  Callers
    that evaluate the same weights repeatedly should compile once and pass
    the :class:`CompiledModel` — the artifact amortizes across calls.
    """
    from repro.runtime.model import CompiledModel, compile

    if isinstance(model, CompiledModel):
        return model
    options.setdefault("cache", False)
    return compile(model, backend=backend, **options)


def _iter_eval_batches(dataset: Any, batch_size: int):
    """Deterministic evaluation batching (length-bucketed, unshuffled)."""
    from repro.nn.data import iterate_batches

    yield from iterate_batches(
        dataset.features,
        dataset.frame_labels,
        batch_size,
        rng=None,
        bucket_by_length=True,
    )


def _score_batch(
    compiled: Any, decoder: Any, phone_set: Any, batch: Any
) -> tuple[list[list[str]], list[list[str]]]:
    """Forward + decode one batch → (hypotheses, references).

    Runs through ``CompiledModel.run``, which is stateless per batch.
    """
    from repro.asr.decoder import collapse_repeats

    logits = compiled.run(batch.features)
    hypotheses = decoder.decode_batch(logits, batch.lengths)
    references = []
    for b, length in enumerate(batch.lengths):
        frame_refs = batch.labels[:length, b]
        tokens = collapse_repeats(list(frame_refs))
        phones = phone_set.decode(tokens)
        references.append(decoder.reference(phones))
    return hypotheses, references


def _score_batch_net(
    client: Any, decoder: Any, phone_set: Any, batch: Any, passes: Any
) -> tuple[list[list[str]], list[list[str]]]:
    """Forward one batch utterance-by-utterance over the wire + decode.

    Each utterance streams through its own width-1 net session
    (``push_many`` of its frames), because the served wire path *is*
    width-1: a fixed-backend :class:`CompiledModel` couples quantization
    format fitting to the batch it sees, so width-B batched logits are
    legitimately different bytes from the same utterance served alone.
    Scoring the transport therefore compares against the in-process
    ``batch_size=1`` path — that equality is exact and test-pinned.
    """
    import numpy as np

    from repro.asr.decoder import collapse_repeats

    hypotheses = []
    references = []
    for b, length in enumerate(batch.lengths):
        features = np.ascontiguousarray(batch.features[:length, b, :])
        session = client.session(f"per-eval-{next(passes)}", reattach=True)
        try:
            logits = session.push_many(features)
        finally:
            session.close()
        hypotheses.extend(
            decoder.decode_batch(logits[:, None, :], [length])
        )
        frame_refs = batch.labels[:length, b]
        tokens = collapse_repeats(list(frame_refs))
        phones = phone_set.decode(tokens)
        references.append(decoder.reference(phones))
    return hypotheses, references


def evaluate_per(
    model: Any,
    dataset: Any,
    decoder: Any = None,
    batch_size: int = 8,
    transport: str = "inprocess",
    address: tuple[str, int] | None = None,
) -> float:
    """Corpus phone error rate (percent) — the paper's accuracy metric.

    ``model`` is a :class:`~repro.runtime.CompiledModel` or a raw
    :class:`~repro.nn.rnn.StackedRNNClassifier` (compiled to the float
    backend on the fly).  Iteration order is deterministic
    (length-bucketed, no shuffling), and the hypothesis/reference pairing
    is re-derived from each decoded batch's frame labels, so PER is exact
    regardless of bucketing.

    ``transport="net"`` scores the *served* math: every utterance streams
    through a :class:`repro.runtime.net.Client` session — against
    ``address`` (a running NetServer or cluster gateway) when given,
    otherwise against an ephemeral single-worker NetServer spun up for
    the call — so the PER measured is the one deployment produces, wire
    framing, session routing and all.  Equality with the in-process
    ``batch_size=1`` PER is test-pinned (``tests/runtime/
    test_evaluate.py``); width-B in-process batching may differ on the
    fixed backend, where quantization format fitting is batch-coupled.
    """
    from repro.asr.decoder import FrameDecoder
    from repro.asr.metrics import corpus_error_rate

    if transport not in ("inprocess", "net"):
        from repro.errors import ConfigError

        raise ConfigError(
            f"transport must be 'inprocess' or 'net', got {transport!r}"
        )
    if transport == "net":
        return _evaluate_per_net(
            model, dataset, decoder, batch_size, address
        )
    compiled = as_compiled(model)
    if decoder is None:
        decoder = FrameDecoder(dataset.phone_set)
    references: list[list[str]] = []
    hypotheses: list[list[str]] = []
    for batch in _iter_eval_batches(dataset, batch_size):
        hyps, refs = _score_batch(compiled, decoder, dataset.phone_set, batch)
        hypotheses.extend(hyps)
        references.extend(refs)
    return corpus_error_rate(references, hypotheses)


def _evaluate_per_net(
    model: Any,
    dataset: Any,
    decoder: Any,
    batch_size: int,
    address: tuple[str, int] | None,
) -> float:
    """The served-PER path: score every utterance over real sockets."""
    import itertools

    from repro.asr.decoder import FrameDecoder
    from repro.asr.metrics import corpus_error_rate
    from repro.runtime.net import Client

    if decoder is None:
        decoder = FrameDecoder(dataset.phone_set)
    passes = itertools.count()

    def score_through(client: Any) -> float:
        references: list[list[str]] = []
        hypotheses: list[list[str]] = []
        # The in-process batches only bucket iteration order here — each
        # utterance is served width-1 regardless, so PER matches the
        # in-process batch_size=1 result bit for bit.
        for batch in _iter_eval_batches(dataset, batch_size):
            hyps, refs = _score_batch_net(
                client, decoder, dataset.phone_set, batch, passes
            )
            hypotheses.extend(hyps)
            references.extend(refs)
        return corpus_error_rate(references, hypotheses)

    if address is not None:
        client = Client(*address)
        try:
            return score_through(client)
        finally:
            client.close()
    from repro.runtime.net import NetServer

    compiled = as_compiled(model)
    with NetServer(compiled, workers=1) as server:
        client = Client(*server.address)
        try:
            return score_through(client)
        finally:
            client.close()


def evaluate_perplexity(
    model: Any,
    tokens: Any,
    chunk_size: int = 128,
    transport: str = "inprocess",
    address: tuple[str, int] | None = None,
) -> float:
    """Corpus perplexity of an LM artifact — the paper-style LM metric.

    ``model`` is an ``lm``-workload :class:`~repro.runtime.CompiledModel`
    (or a raw char-LM :class:`~repro.nn.rnn.StackedRNNClassifier`,
    compiled to the float backend on the fly); ``tokens`` is the
    evaluation token stream.  The stream is scored through one session in
    ``chunk_size``-target chunks that overlap by one token, so the
    carried state makes the result exactly the full-sequence score:
    ``exp(-mean(log p(tokens[1:])))``.

    ``transport="net"`` scores the *served* math over a
    :class:`repro.runtime.net.Client` session — against ``address`` (a
    NetServer or cluster gateway) when given, else an ephemeral
    single-worker NetServer — and is pinned byte-equal to the in-process
    path for both backends (``tests/runtime/test_evaluate.py``).
    """
    import numpy as np

    from repro.errors import ConfigError
    from repro.runtime.coerce import coerce_tokens

    if transport not in ("inprocess", "net"):
        raise ConfigError(
            f"transport must be 'inprocess' or 'net', got {transport!r}"
        )
    if chunk_size < 1:
        raise ConfigError(f"chunk_size must be positive, got {chunk_size}")

    from repro.runtime.model import CompiledModel

    if isinstance(model, CompiledModel):
        compiled = model
    else:
        compiled = as_compiled(model, workload="lm")
    if "score" not in compiled.workload_info.ops:
        raise ConfigError(
            f"workload {compiled.workload!r} has no score op; compile with "
            "workload='lm'"
        )
    tokens = coerce_tokens(tokens, compiled.input_size, min_len=2)

    def score_session(session: Any) -> float:
        logprobs: list[np.ndarray] = []
        start = 0
        while start + 1 < tokens.shape[0]:
            piece = tokens[start : start + chunk_size + 1]
            logprobs.append(np.asarray(session.score(piece)))
            start += chunk_size
        stacked = np.concatenate(logprobs)
        return float(np.exp(-np.mean(stacked)))

    if transport == "inprocess":
        return score_session(compiled.session())

    from repro.runtime.net import Client

    def score_through(client: Any) -> float:
        session = client.session("perplexity-eval", reattach=True)
        try:
            return score_session(session)
        finally:
            session.close()

    if address is not None:
        client = Client(*address)
        try:
            return score_through(client)
        finally:
            client.close()
    from repro.runtime.net import NetServer

    with NetServer(compiled, workers=1) as server:
        client = Client(*server.address)
        try:
            return score_through(client)
        finally:
            client.close()


def evaluate_frame_accuracy(
    model: Any,
    dataset: Any,
    batch_size: int = 8,
) -> float:
    """Framewise classification accuracy (diagnostic, not a paper metric)."""
    from repro.nn.loss import frame_accuracy

    compiled = as_compiled(model)
    total_correct = 0.0
    total_frames = 0
    for batch in _iter_eval_batches(dataset, batch_size):
        logits = compiled.run(batch.features)
        frames = batch.num_frames
        total_correct += frame_accuracy(logits, batch.labels, batch.mask) * frames
        total_frames += frames
    return total_correct / total_frames
