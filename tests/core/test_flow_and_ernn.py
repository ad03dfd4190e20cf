"""End-to-end compression flow and the two-phase framework driver."""

import numpy as np
import pytest

from repro.asr.pipeline import TrainConfig
from repro.runtime import evaluate_per
from repro.config import RNNSpec
from repro.core.admm import ADMMConfig
from repro.core.ernn import run_two_phase_flow
from repro.core.flow import ernn_compress
from repro.core.phase1 import PhaseIConfig
from repro.core.phase2 import PhaseIIConfig
from repro.errors import ConfigError


class TestErnnCompress:
    def test_produces_structured_model(self, trained_dense, micro_datasets):
        train, test = micro_datasets
        target = trained_dense.spec.with_block_sizes((4,))
        result = ernn_compress(
            trained_dense,
            target,
            train,
            admm_train=TrainConfig(epochs=2, learning_rate=2e-3),
            retrain=TrainConfig(epochs=2, learning_rate=2e-3),
        )
        assert result.model.structured
        assert result.model.spec == target
        per = evaluate_per(result.model, test)
        assert 0.0 <= per <= 200.0
        assert len(result.admm_residuals) == 2

    def test_residuals_decrease(self, trained_dense, micro_datasets):
        train, _ = micro_datasets
        target = trained_dense.spec.with_block_sizes((4,))
        result = ernn_compress(
            trained_dense,
            target,
            train,
            admm_config=ADMMConfig(rho=0.2, rho_growth=1.3),
            admm_train=TrainConfig(epochs=4, learning_rate=2e-3),
            retrain=TrainConfig(epochs=1, learning_rate=1e-3),
        )
        assert result.admm_residuals[-1] < result.admm_residuals[0]

    def test_rejects_mismatched_architecture(self, trained_dense, micro_datasets):
        train, _ = micro_datasets
        other = RNNSpec("lstm", trained_dense.spec.input_size, (32,),
                        trained_dense.spec.output_size, block_sizes=(4,))
        with pytest.raises(ConfigError):
            ernn_compress(trained_dense, other, train)

    def test_rejects_dense_target(self, trained_dense, micro_datasets):
        train, _ = micro_datasets
        with pytest.raises(ConfigError):
            ernn_compress(trained_dense, trained_dense.spec, train)


class TestTwoPhaseFlow:
    def test_two_phase_optimization_with_oracle(self):
        baseline = RNNSpec(
            "lstm", 153, (1024, 1024), 39, peephole=True, projection_size=512
        )

        def oracle(spec: RNNSpec) -> float:
            import math

            per = 20.0
            for block in spec.effective_block_sizes:
                if block > 1:
                    per += 0.02 * math.log2(block)
            return per

        result = run_two_phase_flow(
            baseline,
            oracle,
            baseline_per=20.0,
            phase1_config=PhaseIConfig(accuracy_budget=0.4),
            phase2_config=PhaseIIConfig(platform="XCKU060"),
        )
        assert result.phase1.final_spec.is_block_circulant
        assert result.phase2.design.fps > 0
        assert result.phase1.num_training_trials <= 6
        assert "Phase I" in result.describe()
        assert "Phase II" in result.describe()
