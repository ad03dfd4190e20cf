"""Self-tests of the benchmark's own checks.

    python3 -m pytest perfbench/tests -q

They prove the output gate and the teardown guard count what they must: a
benchmark that cannot see a wrong reply or a leaked process would report
``failed: 0`` for a broken program.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE.parent))

from harness import (  # noqa: E402
    OutputGate,
    start_ticks,
    check_teardown,
    shm_segments,
)
from served import (  # noqa: E402
    AsrStream,
    LmGenerate,
    _Recorder,
    _SessionEntry,
)


class _CorruptingEntry(_SessionEntry):
    """Opens in-process sessions whose reply to push number ``bad`` has
    one bit flipped."""

    def __init__(self, compiled, bad: int):
        super().__init__(compiled)
        self._bad = bad

    def open(self, name: str):
        return _Corrupting(self.compiled.session(), self._bad)


class _Corrupting:
    """Wraps a session; flips one bit of the reply to push number ``bad``."""

    def __init__(self, session, bad: int):
        self._session = session
        self._bad = bad
        self._pushes = 0

    def push(self, frame):
        logits = np.array(self._session.push(frame))
        if self._pushes == self._bad:
            logits.view(np.uint64)[0] ^= 1  # lowest mantissa bit
        self._pushes += 1
        return logits


def test_one_corrupted_asr_reply_is_counted():
    workload = AsrStream()
    compiled = workload.compile()
    utterance = workload.inputs(seed=5)[0][:20]
    expected = workload.oracle(compiled, utterance)
    gate = OutputGate()
    samples: list = []
    workload.run_item(_CorruptingEntry(compiled, bad=7), "u0", utterance,
                      expected, gate, samples, lambda end: True)
    assert gate.attempted == 20
    assert gate.mismatches == 1 and gate.failed == 1
    assert "frame 7" in gate.examples[0]


def test_a_wrong_token_is_counted():
    workload = LmGenerate()
    compiled = workload.compile()
    request = workload.inputs(seed=5)[0]
    expected = workload.oracle(compiled, request)
    gate = OutputGate()
    workload.run_item(_SessionEntry(compiled), "r0", request, expected, gate,
                      [], lambda end: True)
    assert (gate.attempted, gate.failed) == (1, 0)
    wrong = expected.copy()
    wrong[-1] = (wrong[-1] + 1) % compiled.num_classes
    workload.run_item(_SessionEntry(compiled), "r1", request, wrong, gate,
                      [], lambda end: True)
    assert (gate.attempted, gate.failed) == (2, 1)


def test_setup_first_op_is_one_push_checked_once_the_oracle_exists():
    workload = AsrStream()
    compiled = workload.compile()
    utterance = workload.inputs(seed=5)[0]
    expected = list(workload.oracle(compiled, utterance))
    recorder = _Recorder()
    workload.run_item(_SessionEntry(compiled), "setup", utterance, None,
                      recorder, [], lambda end: False)
    gate = OutputGate()
    recorder.replay(gate, expected)
    assert (gate.attempted, gate.failed) == (1, 0)
    recorder.replies[0][1][0] += 1.0
    recorder.replay(gate, expected)
    assert (gate.attempted, gate.failed) == (2, 1)
    _Recorder().replay(gate, expected)  # no reply at all
    assert (gate.attempted, gate.errors) == (3, 1)


def test_dtype_and_shape_are_part_of_the_bytes():
    gate = OutputGate()
    assert not gate.check("dtype", np.zeros(3, np.float32), np.zeros(3))
    assert not gate.check("shape", np.zeros((1, 3)), np.zeros(3))
    assert gate.check("same", np.arange(3.0), np.arange(3.0))
    assert (gate.attempted, gate.mismatches) == (3, 2)


def test_a_surviving_process_is_a_counted_leak_and_is_killed():
    leftover = subprocess.Popen([sys.executable, "-c",
                                 "import time; time.sleep(60)"])
    try:
        gate = OutputGate()
        tree = {leftover.pid: start_ticks(leftover.pid)}
        check_teardown(gate, tree, shm_before=shm_segments(), ports=set(),
                       grace_s=0.2)
        assert gate.leaks == 1 and gate.failed == 1
        assert leftover.wait(timeout=10) != 0  # SIGKILLed by the guard
    finally:
        if leftover.poll() is None:
            leftover.kill()
            leftover.wait()


def test_inputs_depend_only_on_the_seed():
    first, again, other = (AsrStream().inputs(s) for s in (3, 3, 4))
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not np.array_equal(first[0][:10], other[0][:10])
    assert LmGenerate().inputs(3) == LmGenerate().inputs(3)
    assert LmGenerate().inputs(3) != LmGenerate().inputs(4)
