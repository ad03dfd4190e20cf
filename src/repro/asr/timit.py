"""Synthetic TIMIT-like corpus generator.

The real TIMIT corpus is LDC-licensed and unavailable offline, so this module
synthesizes a corpus with the same *interface* and the same experimental
levers: 16 kHz waveforms, per-sample phone alignments, multiple
"speakers" with systematic vocal-tract variation, and train/test splits with
disjoint speakers.

Acoustic model of a phone
-------------------------
Each phone gets a deterministic prototype drawn from ranges typical of its
broad class (vowel / nasal / fricative / stop / glide / silence):

* voiced phones → a sum of 2-3 formant sinusoids with per-segment phase and
  small frequency jitter;
* fricatives → shaped noise plus a weak high-frequency carrier;
* stops → a closure (near-silence) followed by a noise burst;
* silence → low-amplitude noise.

Speakers scale all formant frequencies by a per-speaker factor (vocal-tract
length) and vary speaking rate and level.  This yields a framewise phone
classification task whose difficulty responds to model capacity and weight
structure — the property Tables I-III rely on — while remaining fully
deterministic given a seed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.asr.phones import SILENCE, PhoneSet
from repro.errors import ConfigError

__all__ = ["PhoneSegment", "Utterance", "CorpusConfig", "SyntheticTIMIT"]

# Broad phonetic classes drive duration and synthesis style.
_VOWELS = {
    "aa", "ae", "ah", "aw", "ay", "eh", "er", "ey", "ih", "iy", "ow",
    "oy", "uh", "uw",
}
_NASALS = {"m", "n", "ng"}
_FRICATIVES = {"ch", "dh", "f", "hh", "jh", "s", "sh", "th", "v", "z"}
_STOPS = {"b", "d", "dx", "g", "k", "p", "t"}
_GLIDES = {"l", "r", "w", "y"}


@dataclass(frozen=True)
class PhoneSegment:
    """A phone occupying waveform samples ``[start, end)``."""

    phone: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start or self.start < 0:
            raise ConfigError(f"bad segment bounds [{self.start}, {self.end})")

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Utterance:
    """One synthetic utterance with its time-aligned phonetic transcription."""

    utterance_id: str
    speaker_id: str
    waveform: np.ndarray
    sample_rate: int
    segments: tuple[PhoneSegment, ...]

    def phone_sequence(self, collapse_silence: bool = False) -> list[str]:
        """Reference phone string (adjacent duplicates kept — TIMIT style)."""
        phones = [seg.phone for seg in self.segments]
        if collapse_silence:
            phones = [p for p in phones if p != SILENCE]
        return phones

    def sample_labels(self, phone_set: PhoneSet) -> np.ndarray:
        """Per-sample integer phone labels (used to derive frame labels)."""
        labels = np.empty(len(self.waveform), dtype=np.int64)
        for seg in self.segments:
            labels[seg.start : seg.end] = phone_set.index(seg.phone)
        return labels


@dataclass(frozen=True)
class CorpusConfig:
    """Size/shape of the synthetic corpus.

    Defaults are sized for the scaled-down accuracy experiments; tests use
    much smaller values.  ``noise_level`` is a global SNR knob: higher values
    make the task harder and spread the PER differences between models.
    """

    phone_set: PhoneSet = field(default_factory=PhoneSet.folded)
    num_speakers: int = 10
    utterances_per_speaker: int = 12
    test_speakers: int = 3
    phones_per_utterance: tuple[int, int] = (6, 12)
    sample_rate: int = 16000
    noise_level: float = 0.35
    seed: int = 2019

    def __post_init__(self) -> None:
        if self.num_speakers <= self.test_speakers:
            raise ConfigError("need more speakers than test speakers")
        if self.test_speakers < 1:
            raise ConfigError("need at least one test speaker")
        low, high = self.phones_per_utterance
        if low < 1 or high < low:
            raise ConfigError(f"bad phones_per_utterance {self.phones_per_utterance}")
        if self.sample_rate < 4000:
            raise ConfigError("sample_rate must be at least 4000 Hz")


def _phone_class(phone: str) -> str:
    if phone == SILENCE:
        return "silence"
    if phone in _VOWELS:
        return "vowel"
    if phone in _NASALS:
        return "nasal"
    if phone in _FRICATIVES:
        return "fricative"
    if phone in _STOPS:
        return "stop"
    if phone in _GLIDES:
        return "glide"
    return "vowel"  # unknown symbols synthesize as vowels


@dataclass(frozen=True)
class _PhoneAcoustics:
    formants: tuple[float, ...]
    amplitudes: tuple[float, ...]
    noise: float
    voiced: bool
    burst: bool
    duration_ms: tuple[float, float]


def _prototype(phone: str) -> _PhoneAcoustics:
    """Deterministic per-phone acoustic prototype (seeded by the phone name).

    Uses a stable digest, not ``hash()`` — Python randomizes string hashing
    per process, which would give every pytest invocation a different
    corpus.
    """
    digest = zlib.crc32(phone.encode("utf-8"))
    rng = np.random.default_rng(digest)
    cls = _phone_class(phone)
    if cls == "silence":
        return _PhoneAcoustics((), (), 0.02, False, False, (50.0, 200.0))
    if cls == "vowel":
        f1 = rng.uniform(250, 850)
        f2 = rng.uniform(900, 2300)
        f3 = rng.uniform(2300, 3200)
        return _PhoneAcoustics(
            (f1, f2, f3), (0.5, 0.3, 0.15), 0.03, True, False, (60.0, 150.0)
        )
    if cls == "nasal":
        f1 = rng.uniform(200, 450)
        f2 = rng.uniform(1000, 1500)
        return _PhoneAcoustics((f1, f2), (0.4, 0.1), 0.03, True, False, (50.0, 110.0))
    if cls == "fricative":
        carrier = rng.uniform(2500, 3800)
        return _PhoneAcoustics(
            (carrier,), (0.15,), rng.uniform(0.2, 0.35), False, False, (50.0, 120.0)
        )
    if cls == "stop":
        burst_freq = rng.uniform(1500, 3500)
        return _PhoneAcoustics(
            (burst_freq,), (0.2,), rng.uniform(0.15, 0.3), False, True, (30.0, 80.0)
        )
    # glide
    f1 = rng.uniform(300, 600)
    f2 = rng.uniform(700, 1800)
    return _PhoneAcoustics((f1, f2), (0.45, 0.25), 0.03, True, False, (50.0, 120.0))


class SyntheticTIMIT:
    """Deterministic synthetic corpus with speaker-disjoint train/test splits.

    >>> corpus = SyntheticTIMIT(CorpusConfig(num_speakers=4, test_speakers=1))
    >>> len(corpus.train), len(corpus.test)
    (36, 12)
    """

    def __init__(self, config: CorpusConfig | None = None):
        self.config = config if config is not None else CorpusConfig()
        self._prototypes = {
            phone: _prototype(phone) for phone in self.config.phone_set.phones
        }
        self.train: list[Utterance] = []
        self.test: list[Utterance] = []
        self._generate()

    # ------------------------------------------------------------------
    def _generate(self) -> None:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        for speaker_index in range(cfg.num_speakers):
            speaker_id = f"spk{speaker_index:03d}"
            # Vocal-tract length scaling and speaking-rate/level variation.
            formant_scale = rng.uniform(0.88, 1.12)
            rate_scale = rng.uniform(0.85, 1.15)
            level = rng.uniform(0.8, 1.2)
            is_test = speaker_index >= cfg.num_speakers - cfg.test_speakers
            for utt_index in range(cfg.utterances_per_speaker):
                utterance = self._synthesize_utterance(
                    rng,
                    utterance_id=f"{speaker_id}_utt{utt_index:03d}",
                    speaker_id=speaker_id,
                    formant_scale=formant_scale,
                    rate_scale=rate_scale,
                    level=level,
                )
                (self.test if is_test else self.train).append(utterance)

    def _sample_phone_string(self, rng: np.random.Generator) -> list[str]:
        cfg = self.config
        low, high = cfg.phones_per_utterance
        count = int(rng.integers(low, high + 1))
        non_silence = [p for p in cfg.phone_set.phones if p != SILENCE]
        phones = [SILENCE]
        previous = SILENCE
        for _ in range(count):
            phone = str(rng.choice(non_silence))
            while phone == previous:  # adjacent repeats are unrecoverable
                phone = str(rng.choice(non_silence))
            phones.append(phone)
            previous = phone
        phones.append(SILENCE)
        return phones

    def _synthesize_utterance(
        self,
        rng: np.random.Generator,
        utterance_id: str,
        speaker_id: str,
        formant_scale: float,
        rate_scale: float,
        level: float,
    ) -> Utterance:
        cfg = self.config
        sr = cfg.sample_rate
        phones = self._sample_phone_string(rng)
        pieces: list[np.ndarray] = []
        segments: list[PhoneSegment] = []
        cursor = 0
        for phone in phones:
            proto = self._prototypes[phone]
            low_ms, high_ms = proto.duration_ms
            duration = int(rng.uniform(low_ms, high_ms) * rate_scale * sr / 1000.0)
            duration = max(duration, int(0.015 * sr))  # at least 1.5 frames
            samples = self._synthesize_phone(
                rng, proto, duration, sr, formant_scale, level
            )
            pieces.append(samples)
            segments.append(PhoneSegment(phone, cursor, cursor + duration))
            cursor += duration
        waveform = np.concatenate(pieces)
        waveform += cfg.noise_level * 0.1 * rng.standard_normal(waveform.size)
        return Utterance(
            utterance_id=utterance_id,
            speaker_id=speaker_id,
            waveform=waveform,
            sample_rate=sr,
            segments=tuple(segments),
        )

    def _synthesize_phone(
        self,
        rng: np.random.Generator,
        proto: _PhoneAcoustics,
        duration: int,
        sample_rate: int,
        formant_scale: float,
        level: float,
    ) -> np.ndarray:
        time = np.arange(duration) / sample_rate
        samples = np.zeros(duration)
        nyquist = sample_rate / 2.0
        for freq, amp in zip(proto.formants, proto.amplitudes):
            jitter = rng.uniform(0.95, 1.05)
            effective = min(freq * formant_scale * jitter, 0.95 * nyquist)
            phase = rng.uniform(0, 2 * np.pi)
            samples += amp * np.sin(2 * np.pi * effective * time + phase)
        samples += proto.noise * rng.standard_normal(duration)
        if proto.burst:
            # Stop consonant: first 60% closure, then the burst.
            closure = int(0.6 * duration)
            envelope = np.ones(duration)
            envelope[:closure] = 0.05
            samples *= envelope
        # 5 ms raised-cosine edges to avoid segment-boundary clicks.
        ramp = min(int(0.005 * sample_rate), duration // 2)
        if ramp > 0:
            window = 0.5 * (1 - np.cos(np.linspace(0, np.pi, ramp)))
            samples[:ramp] *= window
            samples[-ramp:] *= window[::-1]
        return level * samples

    # ------------------------------------------------------------------
    @property
    def phone_set(self) -> PhoneSet:
        return self.config.phone_set

    def __repr__(self) -> str:
        return (
            f"SyntheticTIMIT(train={len(self.train)}, test={len(self.test)}, "
            f"phones={len(self.phone_set)})"
        )
