"""Runtime-routed dataset metrics: byte-compatibility and new backends."""

import warnings

import numpy as np
import pytest

from repro.nn.autograd import no_grad
from repro.nn.data import iterate_batches
from repro.runtime import as_compiled, compile, evaluate_frame_accuracy, evaluate_per


def _legacy_per(model, dataset, batch_size=8):
    """The pre-runtime scoring loop, inlined as the byte-compat oracle."""
    from repro.asr.decoder import FrameDecoder, collapse_repeats
    from repro.asr.metrics import corpus_error_rate

    decoder = FrameDecoder(dataset.phone_set)
    references, hypotheses = [], []
    for batch in iterate_batches(
        dataset.features, dataset.frame_labels, batch_size,
        rng=None, bucket_by_length=True,
    ):
        with no_grad():
            logits = model(batch.features)
        hypotheses.extend(decoder.decode_batch(logits.data, batch.lengths))
        for b, length in enumerate(batch.lengths):
            tokens = collapse_repeats(list(batch.labels[:length, b]))
            phones = dataset.phone_set.decode(tokens)
            references.append(decoder.reference(phones))
    return corpus_error_rate(references, hypotheses)


class TestByteCompatibility:
    def test_per_matches_legacy_pipeline_exactly(
        self, trained_dense, micro_datasets
    ):
        """PER through the runtime == the seed pipeline loop, bit for bit."""
        _, test = micro_datasets
        assert evaluate_per(trained_dense, test, batch_size=2) == _legacy_per(
            trained_dense, test, batch_size=2
        )

    @pytest.mark.parametrize("batch_size", [1, 4, 8])
    def test_per_matches_legacy_loop_at_batch_size(
        self, batch_size, trained_dense, micro_datasets
    ):
        _, test = micro_datasets
        assert evaluate_per(
            trained_dense, test, batch_size=batch_size
        ) == _legacy_per(trained_dense, test, batch_size=batch_size)

    @pytest.mark.parametrize(
        "metric", [evaluate_per, evaluate_frame_accuracy],
        ids=["evaluate_per", "evaluate_frame_accuracy"],
    )
    def test_metrics_warn_nothing(self, metric, trained_dense, micro_datasets):
        _, test = micro_datasets
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = metric(trained_dense, test, batch_size=4)
        assert not caught
        assert np.isfinite(value)

    def test_compiled_float_equals_raw_model(self, trained_dense, micro_datasets):
        _, test = micro_datasets
        compiled = compile(trained_dense, backend="float", cache=False)
        assert evaluate_per(compiled, test) == evaluate_per(trained_dense, test)


class TestFixedBackendEvaluation:
    def test_per_of_the_hardware_computation(self, micro_datasets):
        """The new capability: score the CU emulation itself, end to end."""
        from repro.config import RNNSpec
        from repro.nn.rnn import StackedRNNClassifier

        train, _ = micro_datasets
        spec = RNNSpec(
            "lstm", train.feature_dim, (16,), len(train.phone_set),
            block_sizes=(4,),
        )
        model = StackedRNNClassifier(
            spec, structured=True, rng=np.random.default_rng(0)
        )
        fixed = compile(model, backend="fixed", weight_bits=12, cache=False)
        per = evaluate_per(fixed, train, batch_size=4)
        assert 0.0 <= per <= 200.0
        assert per == evaluate_per(fixed, train, batch_size=4)  # deterministic


class TestFrameAccuracy:
    def test_matches_direct_computation(self, trained_dense, micro_datasets):
        from repro.nn.loss import frame_accuracy

        _, test = micro_datasets
        total_correct, total = 0.0, 0
        for batch in iterate_batches(
            test.features, test.frame_labels, 8, rng=None, bucket_by_length=True
        ):
            with no_grad():
                logits = trained_dense(batch.features)
            frames = batch.num_frames
            total_correct += (
                frame_accuracy(logits.data, batch.labels, batch.mask) * frames
            )
            total += frames
        assert evaluate_frame_accuracy(trained_dense, test) == (
            total_correct / total
        )


class TestNetTransport:
    def test_served_per_equals_inprocess_width1(
        self, trained_dense, micro_datasets
    ):
        """transport="net" scores the *served* math — and it must equal
        the in-process ``batch_size=1`` PER exactly.  (Width-1 is the
        honest baseline: the wire serves utterances one by one, and on
        the fixed backend quantization format fitting is batch-coupled,
        so width-B batched logits are legitimately different bytes.)"""
        _, test = micro_datasets
        compiled = compile(trained_dense, backend="float", cache=False)
        served = evaluate_per(compiled, test, transport="net")
        assert served == evaluate_per(compiled, test, batch_size=1)

    def test_served_per_fixed_backend(self, micro_datasets):
        """The deployment loop closed: PER of the quantized hardware
        math as actually served over sockets."""
        from repro.config import RNNSpec
        from repro.nn.rnn import StackedRNNClassifier

        train, _ = micro_datasets
        spec = RNNSpec(
            "lstm", train.feature_dim, (16,), len(train.phone_set),
            block_sizes=(4,),
        )
        model = StackedRNNClassifier(
            spec, structured=True, rng=np.random.default_rng(0)
        )
        fixed = compile(model, backend="fixed", weight_bits=12, cache=False)
        served = evaluate_per(fixed, train, transport="net", batch_size=4)
        assert served == evaluate_per(fixed, train, batch_size=1)

    def test_rejects_unknown_transport(self, trained_dense, micro_datasets):
        import pytest

        from repro.errors import ConfigError

        _, test = micro_datasets
        with pytest.raises(ConfigError):
            evaluate_per(trained_dense, test, transport="carrier-pigeon")


class TestAsCompiled:
    def test_passthrough_and_coercion(self, trained_dense):
        compiled = compile(trained_dense, backend="float", cache=False)
        assert as_compiled(compiled) is compiled
        coerced = as_compiled(trained_dense)
        assert coerced.backend == "float"
