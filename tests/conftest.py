"""Shared fixtures: deterministic RNG and a session-scoped micro pipeline.

The micro corpus/model fixtures are session-scoped because several test
modules need *a* trained model and training even a tiny one costs a second
or two; tests must not mutate them (copies are cheap via state_dict).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.asr.features import FeatureConfig, FeatureExtractor
from repro.asr.phones import PhoneSet
from repro.asr.pipeline import TrainConfig, prepare_dataset, train_model
from repro.asr.timit import CorpusConfig, SyntheticTIMIT
from repro.config import RNNSpec
from repro.core.flow import ernn_compress
from repro.nn.rnn import StackedRNNClassifier


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the tests/golden/*.json fixtures from current outputs "
        "instead of comparing against them",
    )


@pytest.fixture
def update_golden(request: pytest.FixtureRequest) -> bool:
    return bool(request.config.getoption("--update-golden"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def micro_phones() -> PhoneSet:
    return PhoneSet.folded().subset(8)


@pytest.fixture(scope="session")
def micro_corpus(micro_phones) -> SyntheticTIMIT:
    return SyntheticTIMIT(
        CorpusConfig(
            phone_set=micro_phones,
            num_speakers=4,
            utterances_per_speaker=4,
            test_speakers=1,
            sample_rate=8000,
            phones_per_utterance=(3, 5),
            seed=11,
        )
    )


@pytest.fixture(scope="session")
def micro_extractor(micro_corpus) -> FeatureExtractor:
    extractor = FeatureExtractor(
        FeatureConfig(sample_rate=8000, num_filters=8, add_deltas=False)
    )
    extractor.fit_normalizer(micro_corpus.train)
    return extractor


@pytest.fixture(scope="session")
def micro_datasets(micro_corpus, micro_extractor, micro_phones):
    train = prepare_dataset(micro_corpus.train, micro_extractor, micro_phones)
    test = prepare_dataset(micro_corpus.test, micro_extractor, micro_phones)
    return train, test


@pytest.fixture(scope="session")
def micro_spec(micro_datasets) -> RNNSpec:
    train, _ = micro_datasets
    return RNNSpec("lstm", train.feature_dim, (16,), len(train.phone_set))


@pytest.fixture(scope="session")
def trained_dense(micro_spec, micro_datasets) -> StackedRNNClassifier:
    """A briefly-trained dense LSTM shared by compression/quantization tests."""
    train, _ = micro_datasets
    model = StackedRNNClassifier(micro_spec, rng=np.random.default_rng(5))
    train_model(
        model,
        train,
        TrainConfig(epochs=4, batch_size=4, learning_rate=5e-3, seed=5),
    )
    return model


@pytest.fixture(scope="session")
def structured_model(trained_dense, micro_datasets) -> StackedRNNClassifier:
    """``trained_dense`` ADMM-compressed to block 4: the fixed backend's input."""
    train, _ = micro_datasets
    result = ernn_compress(
        trained_dense,
        trained_dense.spec.with_block_sizes((4,)),
        train,
        admm_train=TrainConfig(epochs=2, learning_rate=2e-3),
        retrain=TrainConfig(epochs=3, learning_rate=2e-3),
    )
    return result.model
