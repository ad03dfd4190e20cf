"""ASR substrate: synthetic TIMIT-like corpus, features, decoding, metrics."""

from repro.asr.decoder import FrameDecoder, collapse_repeats, decode_frames, median_smooth
from repro.asr.features import FeatureConfig, FeatureExtractor, frame_signal, mel_filterbank
from repro.asr.metrics import EditOps, corpus_error_rate, error_rate, levenshtein
from repro.asr.phones import FOLD_61_TO_39, PHONES_39, PHONES_61, SILENCE, PhoneSet, fold_phone
from repro.asr.pipeline import (
    PreparedDataset,
    TrainConfig,
    TrainingHistory,
    prepare_dataset,
    train_model,
)
from repro.asr.timit import CorpusConfig, PhoneSegment, SyntheticTIMIT, Utterance

__all__ = [
    "FrameDecoder",
    "collapse_repeats",
    "decode_frames",
    "median_smooth",
    "FeatureConfig",
    "FeatureExtractor",
    "frame_signal",
    "mel_filterbank",
    "EditOps",
    "corpus_error_rate",
    "error_rate",
    "levenshtein",
    "FOLD_61_TO_39",
    "PHONES_39",
    "PHONES_61",
    "SILENCE",
    "PhoneSet",
    "fold_phone",
    "PreparedDataset",
    "TrainConfig",
    "TrainingHistory",
    "prepare_dataset",
    "train_model",
    "CorpusConfig",
    "PhoneSegment",
    "SyntheticTIMIT",
    "Utterance",
]
