"""Shared experiment harness: corpus, training, caching.

Accuracy experiments (Tables I-II, the ADMM ablation, Phase I) train many
RNNs.  The harness keeps that affordable and reproducible:

* one deterministic synthetic corpus per :class:`ExperimentSettings`;
* dense baselines cached per architecture (block-size rows reuse them, the
  way the paper's Phase I reuses one pretrained model per layer size);
* every measured PER cached in-process and, optionally, on disk through
  the shared :class:`repro.api.diskcache.DiskCache` tier (the ``per``
  namespace under ``REPRO_CACHE_DIR`` / ``~/.cache/repro-ernn``; set
  ``REPRO_NO_CACHE=1`` to re-measure from scratch).  Keys include the
  full settings, so changing any training budget invalidates cleanly —
  and concurrent benchmark runs share one atomic-rename-safe store.

Scale: layer sizes are the paper's ÷16 (1024→64, 512→32, 256→16) so numpy
training finishes in minutes; block sizes are the paper's own.  The claims
checked against Tables I-II are orderings between configurations trained
under one budget, not absolute PERs, so a uniform scale keeps them
comparable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.api.diskcache import DiskCache
from repro.asr.features import FeatureConfig, FeatureExtractor
from repro.asr.phones import PhoneSet
from repro.asr.pipeline import (
    PreparedDataset,
    TrainConfig,
    prepare_dataset,
    train_model,
)
from repro.runtime.evaluate import evaluate_per
from repro.asr.timit import CorpusConfig, SyntheticTIMIT
from repro.config import RNNSpec
from repro.core.admm import ADMMConfig
from repro.core.flow import ernn_compress
from repro.errors import ConfigError
from repro.nn.rnn import StackedRNNClassifier

__all__ = ["ExperimentSettings", "ExperimentHarness", "SCALE_FACTOR"]

#: Paper layer sizes divided by this give the reproduction's layer sizes.
SCALE_FACTOR = 16


@dataclass(frozen=True)
class ExperimentSettings:
    """Corpus and training budgets shared by all accuracy experiments."""

    num_phones: int = 16
    num_speakers: int = 10
    utterances_per_speaker: int = 10
    test_speakers: int = 3
    sample_rate: int = 8000
    noise_level: float = 0.25
    corpus_seed: int = 3
    num_filters: int = 13
    dense_epochs: int = 25
    admm_epochs: int = 8
    retrain_epochs: int = 12
    direct_epochs: int = 20  # C-LSTM-style from-scratch training
    batch_size: int = 8
    learning_rate: float = 5e-3
    seed: int = 7

    @classmethod
    def fast(cls) -> "ExperimentSettings":
        """Micro settings for the test suite (seconds, not minutes)."""
        return cls(
            num_phones=8,
            num_speakers=4,
            utterances_per_speaker=4,
            test_speakers=1,
            dense_epochs=4,
            admm_epochs=2,
            retrain_epochs=2,
            direct_epochs=4,
        )

    def cache_key(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


def _spec_key(spec: RNNSpec) -> str:
    return spec.describe()


class ExperimentHarness:
    """Trains and evaluates specs on the shared corpus with caching."""

    def __init__(
        self,
        settings: ExperimentSettings | None = None,
        cache_path: Path | str | None = None,
    ):
        self.settings = settings if settings is not None else ExperimentSettings()
        self._train: PreparedDataset | None = None
        self._test: PreparedDataset | None = None
        self._dense_models: dict[str, StackedRNNClassifier] = {}
        self._per_cache: dict[str, float] = {}
        # The persistent tier is the library-wide DiskCache (``per``
        # namespace); ``cache_path`` overrides the root *directory* and
        # REPRO_NO_CACHE disables it entirely.  Fail loudly on the legacy
        # single-file store rather than silently caching nothing.
        if cache_path is not None and Path(cache_path).is_file():
            raise ConfigError(
                f"cache_path now names a cache directory, but {cache_path} "
                "is a file (the legacy .bench_cache.json store); delete it "
                "or point at a directory"
            )
        self._disk = DiskCache.from_env(root=cache_path, namespace="per")

    # ------------------------------------------------------------------
    # Disk cache
    # ------------------------------------------------------------------
    def _disk_key(self, memo_key: str) -> str | None:
        if self._disk is None:
            return None
        return self._disk.key("per", self.settings.cache_key(), memo_key)

    # ------------------------------------------------------------------
    # Data
    # ------------------------------------------------------------------
    def datasets(self) -> tuple[PreparedDataset, PreparedDataset]:
        if self._train is None:
            cfg = self.settings
            phones = PhoneSet.folded().subset(cfg.num_phones)
            corpus = SyntheticTIMIT(
                CorpusConfig(
                    phone_set=phones,
                    num_speakers=cfg.num_speakers,
                    utterances_per_speaker=cfg.utterances_per_speaker,
                    test_speakers=cfg.test_speakers,
                    sample_rate=cfg.sample_rate,
                    phones_per_utterance=(5, 9),
                    noise_level=cfg.noise_level,
                    seed=cfg.corpus_seed,
                )
            )
            extractor = FeatureExtractor(
                FeatureConfig(
                    sample_rate=cfg.sample_rate, num_filters=cfg.num_filters
                )
            )
            extractor.fit_normalizer(corpus.train)
            self._train = prepare_dataset(corpus.train, extractor, phones)
            self._test = prepare_dataset(corpus.test, extractor, phones)
        assert self._test is not None
        return self._train, self._test

    @property
    def feature_dim(self) -> int:
        return self.datasets()[0].feature_dim

    @property
    def num_classes(self) -> int:
        return len(self.datasets()[0].phone_set)

    def make_spec(
        self,
        cell_type: str,
        layer_sizes: tuple[int, ...],
        block_sizes: tuple[int, ...] = (),
        peephole: bool = False,
        projection_size: int | None = None,
        io_block_size: int | None = None,
    ) -> RNNSpec:
        """Spec bound to the harness corpus dimensions."""
        return RNNSpec(
            cell_type=cell_type,
            input_size=self.feature_dim,
            layer_sizes=layer_sizes,
            output_size=self.num_classes,
            block_sizes=block_sizes,
            peephole=peephole,
            projection_size=projection_size,
            io_block_size=io_block_size,
        )

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def _train_config(self, epochs: int) -> TrainConfig:
        cfg = self.settings
        return TrainConfig(
            epochs=epochs,
            batch_size=cfg.batch_size,
            learning_rate=cfg.learning_rate,
            lr_decay=0.96,
            seed=cfg.seed,
        )

    def dense_model(self, spec: RNNSpec) -> StackedRNNClassifier:
        """Train (or fetch) the dense baseline for an architecture."""
        dense_spec = spec.with_block_sizes(()).with_io_block_size(None)
        key = _spec_key(dense_spec)
        if key not in self._dense_models:
            train, _ = self.datasets()
            model = StackedRNNClassifier(
                dense_spec, rng=np.random.default_rng(self.settings.seed)
            )
            train_model(model, train, self._train_config(self.settings.dense_epochs))
            self._dense_models[key] = model
        return self._dense_models[key]

    def measure_per(self, spec: RNNSpec, flavor: str = "ernn") -> float:
        """Test PER for a spec under a training flavor.

        * ``"ernn"`` — dense baseline for dense specs; pretrained + ADMM +
          structured retrain for circulant specs (the E-RNN flow).
        * ``"direct"`` — structured training from scratch (the C-LSTM flavor;
          circulant specs only).
        """
        key = f"{flavor}|{_spec_key(spec)}"
        if key in self._per_cache:
            return self._per_cache[key]
        disk_key = self._disk_key(key)
        if disk_key is not None:
            stored = self._disk.get(disk_key)
            if isinstance(stored, float):
                self._per_cache[key] = stored
                return stored

        train, test = self.datasets()
        cfg = self.settings
        if not spec.is_block_circulant:
            model = self.dense_model(spec)
            per = evaluate_per(model, test)
        elif flavor == "direct":
            model = StackedRNNClassifier(
                spec, structured=True, rng=np.random.default_rng(cfg.seed)
            )
            train_model(model, train, self._train_config(cfg.direct_epochs))
            per = evaluate_per(model, test)
        else:
            dense = self.dense_model(spec)
            result = ernn_compress(
                dense,
                spec,
                train,
                admm_config=ADMMConfig(rho=0.05, rho_growth=1.4),
                admm_train=replace(
                    self._train_config(cfg.admm_epochs),
                    learning_rate=2e-3,
                    admm_update_every=1,
                ),
                retrain=replace(
                    self._train_config(cfg.retrain_epochs),
                    learning_rate=3e-3,
                    lr_decay=0.92,
                ),
                rng=np.random.default_rng(cfg.seed),
            )
            per = evaluate_per(result.model, test)

        self._per_cache[key] = per
        if disk_key is not None:
            try:
                self._disk.put(disk_key, float(per))
            except OSError:
                pass
        return per

    def trainer(self, flavor: str = "ernn"):
        """``spec -> PER`` callable for the Phase-I optimizer."""

        def train_spec(spec: RNNSpec) -> float:
            return self.measure_per(spec, flavor=flavor)

        return train_spec
