"""End-to-end ASR *training* pipeline on the synthetic corpus.

Glues the substrates together the way the paper's experiments do: corpus →
features + frame labels → stacked RNN training (optionally with an ADMM
penalty).  The Table I/II rows and the Phase-I training trials all run
through :func:`train_model`.

Evaluation (corpus PER, frame accuracy) lives in :mod:`repro.runtime` —
metrics are computed through :class:`repro.runtime.CompiledModel`, so the
same call scores the float model or the fixed-point CU emulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.asr.decoder import FrameDecoder
from repro.asr.features import FeatureExtractor
from repro.asr.phones import PhoneSet
from repro.asr.timit import Utterance
from repro.core.admm import ADMMTrainer
from repro.errors import TrainingError
from repro.nn.data import iterate_batches
from repro.nn.loss import frame_accuracy, sequence_cross_entropy
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.rnn import StackedRNNClassifier

__all__ = [
    "PreparedDataset",
    "prepare_dataset",
    "TrainConfig",
    "TrainingHistory",
    "train_model",
]


@dataclass(frozen=True)
class PreparedDataset:
    """Feature matrices, frame labels and reference sequences for one split."""

    features: list[np.ndarray]
    frame_labels: list[np.ndarray]
    phone_sequences: list[list[str]]
    phone_set: PhoneSet

    def __post_init__(self) -> None:
        if not (
            len(self.features)
            == len(self.frame_labels)
            == len(self.phone_sequences)
        ):
            raise TrainingError("dataset component lengths disagree")
        if not self.features:
            raise TrainingError("dataset is empty")

    @property
    def feature_dim(self) -> int:
        return self.features[0].shape[1]

    @property
    def num_utterances(self) -> int:
        return len(self.features)


def prepare_dataset(
    utterances: list[Utterance],
    extractor: FeatureExtractor,
    phone_set: PhoneSet,
) -> PreparedDataset:
    """Extract normalized features and aligned frame labels for a split."""
    features = [extractor(u.waveform) for u in utterances]
    labels = [extractor.frame_labels(u, phone_set) for u in utterances]
    # Features and labels can differ by one frame at utterance edges; trim.
    for index, (feat, lab) in enumerate(zip(features, labels)):
        frames = min(feat.shape[0], lab.shape[0])
        features[index] = feat[:frames]
        labels[index] = lab[:frames]
    sequences = [u.phone_sequence() for u in utterances]
    return PreparedDataset(features, labels, sequences, phone_set)


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyper-parameters shared by all accuracy experiments."""

    epochs: int = 10
    batch_size: int = 8
    learning_rate: float = 3e-3
    grad_clip: float = 5.0
    weight_decay: float = 0.0
    admm_update_every: int = 1
    seed: int = 7
    lr_decay: float = 1.0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise TrainingError("epochs must be at least 1")
        if self.admm_update_every < 1:
            raise TrainingError("admm_update_every must be at least 1")
        if not 0 < self.lr_decay <= 1.0:
            raise TrainingError("lr_decay must be in (0, 1]")


@dataclass
class TrainingHistory:
    """Per-epoch loss/accuracy trace plus ADMM residual trajectory."""

    losses: list[float] = field(default_factory=list)
    frame_accuracies: list[float] = field(default_factory=list)
    admm_residuals: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


def train_model(
    model: StackedRNNClassifier,
    dataset: PreparedDataset,
    config: TrainConfig,
    admm: ADMMTrainer | None = None,
) -> TrainingHistory:
    """Train with Adam; optionally add the ADMM proximal term each step.

    When ``admm`` is given, the loop implements subproblem 1 of Sec. III-B
    (task loss + quadratic penalty) and calls ``admm.dual_update()`` every
    ``config.admm_update_every`` epochs (subproblem 2 + dual ascent).
    """
    rng = np.random.default_rng(config.seed)
    optimizer = Adam(
        model.parameters(),
        lr=config.learning_rate,
        weight_decay=config.weight_decay,
    )
    history = TrainingHistory()
    for epoch in range(config.epochs):
        optimizer.lr = config.learning_rate * (config.lr_decay**epoch)
        epoch_loss = 0.0
        epoch_correct = 0.0
        epoch_frames = 0
        for batch in iterate_batches(
            dataset.features, dataset.frame_labels, config.batch_size, rng=rng
        ):
            optimizer.zero_grad()
            logits = model(batch.features)
            loss = sequence_cross_entropy(logits, batch.labels, batch.mask)
            if admm is not None:
                loss = loss + admm.penalty()
            loss.backward()
            clip_grad_norm(model.parameters(), config.grad_clip)
            optimizer.step()
            frames = batch.num_frames
            epoch_loss += loss.item() * frames
            epoch_correct += (
                frame_accuracy(logits, batch.labels, batch.mask) * frames
            )
            epoch_frames += frames
        history.losses.append(epoch_loss / epoch_frames)
        history.frame_accuracies.append(epoch_correct / epoch_frames)
        if admm is not None and (epoch + 1) % config.admm_update_every == 0:
            residuals = admm.dual_update()
            history.admm_residuals.append(max(residuals.values()))
    return history
