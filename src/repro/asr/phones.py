"""TIMIT phone inventories and the standard 61→39 folding (Lee & Hon 1989).

The paper evaluates with phone error rate on TIMIT, which is universally
scored after folding the 61 transcription labels down to 39 classes.  Both
inventories and the folding map are reproduced here so the synthetic corpus
and the decoder score exactly the way the paper's numbers were scored.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["PHONES_61", "PHONES_39", "FOLD_61_TO_39", "PhoneSet", "SILENCE"]

#: The silence class every utterance starts and ends with.
SILENCE = "sil"

#: Full TIMIT transcription inventory (61 symbols).
PHONES_61 = (
    "aa", "ae", "ah", "ao", "aw", "ax", "ax-h", "axr", "ay", "b", "bcl",
    "ch", "d", "dcl", "dh", "dx", "eh", "el", "em", "en", "eng", "epi",
    "er", "ey", "f", "g", "gcl", "h#", "hh", "hv", "ih", "ix", "iy", "jh",
    "k", "kcl", "l", "m", "n", "ng", "nx", "ow", "oy", "p", "pau", "pcl",
    "q", "r", "s", "sh", "t", "tcl", "th", "uh", "uw", "ux", "v", "w",
    "y", "z", "zh",
)

#: The 39-class scoring inventory (CMU/MIT folding).
PHONES_39 = (
    "aa", "ae", "ah", "aw", "ay", "b", "ch", "d", "dh", "dx", "eh", "er",
    "ey", "f", "g", "hh", "ih", "iy", "jh", "k", "l", "m", "n", "ng",
    "ow", "oy", "p", "r", "s", "sh", SILENCE, "t", "th", "uh", "uw", "v",
    "w", "y", "z",
)

#: Lee & Hon folding.  Identity entries are omitted; ``q`` (glottal stop) is
#: conventionally deleted in scoring — we fold it into silence, the common
#: softer choice.
FOLD_61_TO_39: dict[str, str] = {
    "ao": "aa",
    "ax": "ah",
    "ax-h": "ah",
    "axr": "er",
    "hv": "hh",
    "ix": "ih",
    "el": "l",
    "em": "m",
    "en": "n",
    "nx": "n",
    "eng": "ng",
    "zh": "sh",
    "ux": "uw",
    "bcl": SILENCE,
    "dcl": SILENCE,
    "gcl": SILENCE,
    "pcl": SILENCE,
    "tcl": SILENCE,
    "kcl": SILENCE,
    "pau": SILENCE,
    "epi": SILENCE,
    "h#": SILENCE,
    "q": SILENCE,
}


def fold_phone(phone: str) -> str:
    """Map a 61-inventory phone to its 39-class scoring label."""
    if phone in FOLD_61_TO_39:
        return FOLD_61_TO_39[phone]
    if phone in PHONES_39:
        return phone
    raise ConfigError(f"unknown phone {phone!r}")


@dataclass(frozen=True)
class PhoneSet:
    """An ordered phone inventory with label-index mapping.

    ``PhoneSet.folded()`` is the 39-class scoring set used everywhere in the
    reproduction; smaller subsets (for fast tests) are built with
    :meth:`subset`.
    """

    phones: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.phones)) != len(self.phones):
            raise ConfigError("phone set contains duplicates")
        if SILENCE not in self.phones:
            raise ConfigError("phone set must include silence")

    @classmethod
    def folded(cls) -> "PhoneSet":
        return cls(PHONES_39)

    def subset(self, size: int) -> "PhoneSet":
        """First ``size`` non-silence phones plus silence (for micro tests)."""
        if size < 2 or size > len(self.phones):
            raise ConfigError(f"subset size {size} out of range")
        non_silence = [p for p in self.phones if p != SILENCE]
        return PhoneSet(tuple(non_silence[: size - 1]) + (SILENCE,))

    def __len__(self) -> int:
        return len(self.phones)

    def __contains__(self, phone: str) -> bool:
        return phone in self.phones

    def index(self, phone: str) -> int:
        try:
            return self.phones.index(phone)
        except ValueError:
            raise ConfigError(f"phone {phone!r} not in set") from None

    def label(self, index: int) -> str:
        if not 0 <= index < len(self.phones):
            raise ConfigError(f"phone index {index} out of range")
        return self.phones[index]

    @property
    def silence_index(self) -> int:
        return self.index(SILENCE)

    def encode(self, phones: list[str]) -> list[int]:
        return [self.index(p) for p in phones]

    def decode(self, indices: list[int]) -> list[str]:
        return [self.label(i) for i in indices]
