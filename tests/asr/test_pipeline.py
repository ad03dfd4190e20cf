"""Training/evaluation pipeline on the micro corpus."""

import numpy as np
import pytest

from repro.asr.pipeline import TrainConfig, prepare_dataset, train_model
from repro.errors import TrainingError
from repro.nn.rnn import StackedRNNClassifier
from repro.runtime import evaluate_frame_accuracy, evaluate_per


class TestPrepareDataset:
    def test_components_aligned(self, micro_datasets):
        train, _ = micro_datasets
        for feat, lab in zip(train.features, train.frame_labels):
            assert feat.shape[0] == lab.shape[0]
        assert train.num_utterances == len(train.phone_sequences)

    def test_feature_dim_consistent(self, micro_datasets, micro_extractor):
        train, _ = micro_datasets
        assert train.feature_dim == micro_extractor.config.feature_dim


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(TrainingError):
            TrainConfig(epochs=0)
        with pytest.raises(TrainingError):
            TrainConfig(lr_decay=0.0)
        with pytest.raises(TrainingError):
            TrainConfig(admm_update_every=0)


class TestTraining:
    def test_loss_decreases(self, micro_spec, micro_datasets):
        train, _ = micro_datasets
        model = StackedRNNClassifier(micro_spec, rng=np.random.default_rng(2))
        history = train_model(
            model, train, TrainConfig(epochs=5, learning_rate=5e-3, seed=2)
        )
        assert history.losses[-1] < history.losses[0]
        assert len(history.losses) == 5
        assert len(history.frame_accuracies) == 5

    def test_deterministic_given_seed(self, micro_spec, micro_datasets):
        train, _ = micro_datasets
        runs = []
        for _ in range(2):
            model = StackedRNNClassifier(micro_spec, rng=np.random.default_rng(3))
            history = train_model(
                model, train, TrainConfig(epochs=2, seed=9)
            )
            runs.append(history.losses)
        assert runs[0] == runs[1]

    def test_admm_history_recorded(self, micro_spec, micro_datasets):
        from repro.core.admm import ADMMConfig, ADMMTrainer

        train, _ = micro_datasets
        spec = micro_spec.with_block_sizes((4,))
        model = StackedRNNClassifier(spec, rng=np.random.default_rng(4))
        trainer = ADMMTrainer(model.structured_targets(), ADMMConfig(rho=0.1))
        history = train_model(
            model,
            train,
            TrainConfig(epochs=3, admm_update_every=1, seed=4),
            admm=trainer,
        )
        assert len(history.admm_residuals) == 3


class TestEvaluation:
    def test_per_in_valid_range(self, trained_dense, micro_datasets):
        _, test = micro_datasets
        per = evaluate_per(trained_dense, test)
        assert 0.0 <= per <= 200.0

    def test_trained_beats_untrained(self, trained_dense, micro_spec, micro_datasets):
        _, test = micro_datasets
        untrained = StackedRNNClassifier(
            micro_spec, rng=np.random.default_rng(99)
        )
        trained_acc = evaluate_frame_accuracy(trained_dense, test)
        untrained_acc = evaluate_frame_accuracy(untrained, test)
        assert trained_acc > untrained_acc

    def test_per_deterministic(self, trained_dense, micro_datasets):
        _, test = micro_datasets
        assert evaluate_per(trained_dense, test) == evaluate_per(
            trained_dense, test
        )
