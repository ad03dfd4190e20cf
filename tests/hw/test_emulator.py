"""Functional CU emulator: hardware-faithful inference matches the model."""

import numpy as np
import pytest

from repro.asr.pipeline import TrainConfig, train_model
from repro.runtime import evaluate_per
from repro.config import RNNSpec
from repro.errors import ConfigError
from repro.hw.emulator import CUEmulator, SpectralWeights
from repro.nn.autograd import no_grad
from repro.nn.circulant_layer import CirculantLinear
from repro.nn.rnn import StackedRNNClassifier


class TestSpectralWeights:
    def test_matvec_matches_layer_at_high_precision(self, rng):
        layer = CirculantLinear(8, 12, block_size=4, bias=False, rng=rng)
        weights = SpectralWeights.from_layer(layer, bits=24)
        x = rng.standard_normal((3, 8))
        from repro.nn.autograd import Tensor

        with no_grad():
            expected = layer(Tensor(x)).data
        assert np.allclose(weights.matvec(x, bits=24), expected, atol=1e-4)

    def test_quantization_noise_bounded_at_12_bits(self, rng):
        layer = CirculantLinear(16, 16, block_size=8, bias=False, rng=rng)
        weights = SpectralWeights.from_layer(layer, bits=12)
        x = rng.standard_normal((2, 16))
        from repro.nn.autograd import Tensor

        with no_grad():
            expected = layer(Tensor(x)).data
        got = weights.matvec(x, bits=12)
        scale = np.max(np.abs(expected)) + 1e-12
        assert np.max(np.abs(got - expected)) / scale < 0.05

    def test_input_width_checked(self, rng):
        layer = CirculantLinear(8, 8, block_size=4, bias=False, rng=rng)
        weights = SpectralWeights.from_layer(layer, bits=12)
        with pytest.raises(ConfigError):
            weights.matvec(np.zeros((1, 7)), bits=12)

    def test_bram_bits_accounting(self, rng):
        layer = CirculantLinear(8, 8, block_size=4, bias=False, rng=rng)
        weights = SpectralWeights.from_layer(layer, bits=12)
        # 2x2 blocks x 3 half-spectrum bins x 2 words x 12 bits.
        assert weights.bram_bits == 2 * 2 * 3 * 2 * 12


class TestCUEmulator:
    def test_rejects_dense_model(self, trained_dense):
        with pytest.raises(ConfigError):
            CUEmulator(trained_dense)

    def test_logits_close_to_float_model(self, structured_model, micro_datasets):
        _, test = micro_datasets
        emulator = CUEmulator(structured_model, weight_bits=14, pwl_segments=64)
        x = test.features[0][:, None, :]
        with no_grad():
            float_logits = structured_model(x).data
        hw_logits = emulator.forward(x)
        assert hw_logits.shape == float_logits.shape
        # Logit-level agreement within quantization + PWL tolerance.
        scale = np.max(np.abs(float_logits)) + 1e-12
        assert np.max(np.abs(hw_logits - float_logits)) / scale < 0.25

    def test_decisions_mostly_agree(self, structured_model, micro_datasets):
        _, test = micro_datasets
        emulator = CUEmulator(structured_model, weight_bits=12)
        x = test.features[0][:, None, :]
        with no_grad():
            float_choice = structured_model(x).data.argmax(-1)
        hw_choice = emulator.forward(x).argmax(-1)
        assert (hw_choice == float_choice).mean() > 0.85

    def test_per_close_to_quantized_model(self, structured_model, micro_datasets):
        """The emulator's PER is the number the FPGA would score."""
        from repro.asr.decoder import FrameDecoder, collapse_repeats
        from repro.asr.metrics import corpus_error_rate

        _, test = micro_datasets
        emulator = CUEmulator(structured_model, weight_bits=12)
        decoder = FrameDecoder(test.phone_set)
        refs, hyps = [], []
        for features, labels in zip(test.features, test.frame_labels):
            logits = emulator.forward(features[:, None, :])[:, 0, :]
            hyps.append(decoder.decode_utterance(logits))
            refs.append(
                decoder.reference(
                    test.phone_set.decode(collapse_repeats(list(labels)))
                )
            )
        hw_per = corpus_error_rate(refs, hyps)
        float_per = evaluate_per(structured_model, test)
        assert abs(hw_per - float_per) < 30.0  # micro-scale token noise

    def test_gru_emulation(self, micro_datasets):
        train, _ = micro_datasets
        spec = RNNSpec(
            "gru", train.feature_dim, (16,), len(train.phone_set),
            block_sizes=(4,),
        )
        model = StackedRNNClassifier(spec, structured=True,
                                     rng=np.random.default_rng(2))
        train_model(model, train, TrainConfig(epochs=2, seed=2))
        emulator = CUEmulator(model, weight_bits=14, pwl_segments=64)
        x = train.features[0][:6][:, None, :]
        with no_grad():
            float_logits = model(x).data
        hw_logits = emulator.forward(x)
        scale = np.max(np.abs(float_logits)) + 1e-12
        assert np.max(np.abs(hw_logits - float_logits)) / scale < 0.25

    def test_bram_accounting_positive(self, structured_model):
        emulator = CUEmulator(structured_model)
        assert emulator.bram_weight_bits() > 0
