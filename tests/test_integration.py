"""End-to-end integration: the whole paper pipeline on a micro corpus.

Corpus -> features -> dense training -> ADMM compression -> fixed-point CU
emulation (quantization + PWL activations) -> hardware sizing -> Phase I/II
— every subsystem touching every other, at a scale that finishes in seconds.
"""

import numpy as np
import pytest

from repro.asr.pipeline import TrainConfig, train_model
from repro.runtime import compile, evaluate_per
from repro.config import AccelSpec, RNNSpec
from repro.core.admm import ADMMConfig
from repro.core.flow import ernn_compress
from repro.core.phase2 import PhaseIIConfig, PhaseIIOptimizer
from repro.hls.framework import build_hls
from repro.hw.accelerator import build_design


@pytest.fixture(scope="module")
def compressed(trained_dense, micro_datasets):
    train, _ = micro_datasets
    target = trained_dense.spec.with_block_sizes((4,))
    result = ernn_compress(
        trained_dense,
        target,
        train,
        admm_config=ADMMConfig(rho=0.1, rho_growth=1.3),
        admm_train=TrainConfig(epochs=3, learning_rate=2e-3),
        retrain=TrainConfig(epochs=3, learning_rate=2e-3),
    )
    return result.model


class TestTrainCompressEvaluate:
    def test_compressed_model_is_usable(self, compressed, micro_datasets):
        _, test = micro_datasets
        per = evaluate_per(compressed, test)
        assert 0.0 <= per <= 150.0

    def test_compression_reduces_parameters(self, compressed, trained_dense):
        assert compressed.num_parameters() < trained_dense.num_parameters()

    def test_quantized_compressed_model(self, compressed, micro_datasets):
        _, test = micro_datasets
        hardware = compile(
            compressed, "fixed", weight_bits=12, pwl_segments=16, cache=False
        )
        per = evaluate_per(hardware, test)
        float_per = evaluate_per(compressed, test)
        assert abs(per - float_per) < 30.0  # one-token noise at micro scale


class TestHardwarePath:
    def test_accelerator_for_compressed_spec(self, compressed):
        design = build_design(compressed.spec, AccelSpec("XCKU060"))
        assert design.latency_us > 0
        assert design.fps > 0

    def test_hls_flow_for_compressed_spec(self, compressed):
        result = build_hls(compressed.spec, AccelSpec("XCKU060"))
        assert result.code.count("{") == result.code.count("}")
        assert result.frame_cycles > 0

    def test_phase2_on_compressed_spec(self, compressed, micro_datasets):
        _, test = micro_datasets
        float_per = evaluate_per(compressed, test)

        def quant_eval(bits: int) -> float:
            hardware = compile(
                compressed, "fixed", weight_bits=bits, pwl_segments=16,
                cache=False,
            )
            return evaluate_per(hardware, test)

        result = PhaseIIOptimizer(
            compressed.spec,
            PhaseIIConfig(
                platform="XCKU060",
                candidate_bits=(16, 12),
                quantization_budget=30.0,  # micro-scale noise floor
            ),
            quant_eval=quant_eval,
            float_per=float_per,
        ).run()
        assert result.accel.weight_bits in (12, 16)
        assert result.report.fps > 0


class TestTrainingContinuesAfterConversion:
    def test_structured_fine_tuning_improves_or_holds(
        self, compressed, micro_datasets
    ):
        train, _ = micro_datasets
        history = train_model(
            compressed, train, TrainConfig(epochs=2, learning_rate=1e-3, seed=3)
        )
        assert history.losses[-1] <= history.losses[0] * 1.5


class TestCrossCellTypes:
    def test_gru_end_to_end(self, micro_datasets):
        train, test = micro_datasets
        spec = RNNSpec(
            "gru", train.feature_dim, (16,), len(train.phone_set)
        )
        from repro.nn.rnn import StackedRNNClassifier

        dense = StackedRNNClassifier(spec, rng=np.random.default_rng(6))
        train_model(dense, train, TrainConfig(epochs=3, seed=6))
        result = ernn_compress(
            dense,
            spec.with_block_sizes((4,)),
            train,
            admm_train=TrainConfig(epochs=2),
            retrain=TrainConfig(epochs=2),
        )
        per = evaluate_per(result.model, test)
        assert 0.0 <= per <= 150.0
        design = build_design(result.model.spec, AccelSpec("XCKU060"))
        assert design.fps > 0
