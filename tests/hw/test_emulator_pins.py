"""Absolute byte pins for the CU emulator.

Every other emulator test is relational (one execution path against
another), so a change to code the paths share — the PWL unit, the
point-wise stages — that moved all of them alike would pass those tests.
These pins fix the bytes themselves: the sha256 of the
``forward_reference`` logits and of a ``step_rows`` call, for four seeded
configurations.

The digests were computed at the commit before the grouped spectral
kernel (``SpectralWeights._matvec_groups``) replaced the per-frame GEMM
loop, the vectorized format fitting and the per-gate PWL calls, and were
not recomputed afterwards.  They depend on numpy's FFT and the BLAS the
classifier GEMM links against; a different build may need new pins, taken
only from a commit whose relational tests all pass.
"""

import hashlib

import numpy as np
import pytest

from repro.config import RNNSpec
from repro.hw.emulator import CUEmulator
from repro.nn.rnn import StackedRNNClassifier

CONFIGS = {
    "lstm-peep-proj-12": (
        RNNSpec("lstm", 20, (64,), 10, block_sizes=(8,),
                peephole=True, projection_size=32),
        12,
    ),
    "lstm-16": (RNNSpec("lstm", 20, (64,), 10, block_sizes=(8,)), 16),
    "gru-stack-6": (
        RNNSpec("gru", 20, (64, 32), 10, block_sizes=(8, 4)), 6,
    ),
    # The served asr_stream model: LSTM-64, block 8, 12-bit, 39 -> 39.
    "asr-stream": (
        RNNSpec("lstm", 39, (64,), 39, block_sizes=(8,)), 12,
    ),
}

FORWARD_REFERENCE = {
    "lstm-peep-proj-12": (
        "e041792f486336bb78011d7d569937f2"
        "1d99e3193def260cb4a80704065edcc8"
    ),
    "lstm-16": (
        "b74ffe5316e2e16e47fcd2043d7678c5"
        "7506a2f55d067a25d9f2040220381d7e"
    ),
    "gru-stack-6": (
        "fb04cdcda2e36652251b9c977a4089ff"
        "fba4c8e882613c66d3e017b1a1dbc7cc"
    ),
    "asr-stream": (
        "715bf93eea55b4475c79a23a558624dc"
        "bd1f88fd48e42358febf1fcef7e9ee29"
    ),
}

STEP_ROWS = {
    "lstm-peep-proj-12": (
        "0a065932ea82946ccacb933fa91f76a5"
        "3e87c2ec8151ce09708400d340fe36c2"
    ),
    "lstm-16": (
        "1ac0745343653a3147e0da81ddd508ce"
        "01fad0d053d2e6b71d1bd0fac71ff3fd"
    ),
    "gru-stack-6": (
        "6d343c7f9692b645d0dc9168e3999304"
        "f585563bc2b29127d59ae10d4eea2fc4"
    ),
    "asr-stream": (
        "bbea21a02fc363661f2bbc8f20a4bcae"
        "bb0e4214fa5206fc6cd1c9388ded0710"
    ),
}


def _emulator(name: str) -> CUEmulator:
    spec, bits = CONFIGS[name]
    model = StackedRNNClassifier(spec, structured=True,
                                 rng=np.random.default_rng(7))
    return CUEmulator(model, weight_bits=bits)


def _digest(arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array, dtype=np.float64)
        sha.update(repr(array.shape).encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def _state_arrays(states):
    for layer in states:
        yield from (layer if isinstance(layer, tuple) else (layer,))


def forward_reference_digest(name: str) -> str:
    emulator = _emulator(name)
    x = np.random.default_rng(11).standard_normal(
        (12, 3, emulator.spec.input_size)
    ) * 2.0
    return _digest([emulator.forward_reference(x)])


def step_rows_digest(name: str) -> str:
    """Three frames of four streams warm the states; the pinned bytes are
    the last ``step_rows`` call's logits and every row's new state."""
    emulator = _emulator(name)
    x = np.random.default_rng(12).standard_normal(
        (3, 4, emulator.spec.input_size)
    ) * 2.0
    states = [emulator.initial_states(1) for _ in range(4)]
    for t in range(3):
        logits, states = emulator.step_rows(x[t], states)
    return _digest(
        [logits, *(a for row in states for a in _state_arrays(row))]
    )


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_forward_reference_bytes_pinned(name):
    assert forward_reference_digest(name) == FORWARD_REFERENCE[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_step_rows_bytes_pinned(name):
    assert step_rows_digest(name) == STEP_ROWS[name]
