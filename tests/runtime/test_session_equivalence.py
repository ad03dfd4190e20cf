"""Streaming ≡ batched: the runtime's defining byte-identity invariants.

`Session.push` frame by frame must equal the one-shot batched
`CompiledModel.run` on the same frames — for both backends, LSTM and GRU,
single and stacked layers, multiple bit widths — and for the fixed
backend both must equal `CUEmulator.forward_reference`, the per-frame
hardware oracle.  Quantization tolerance is not tolerated: the streaming
path claims to be the same computation, not a close one.
"""

import numpy as np
import pytest

from repro.config import RNNSpec
from repro.errors import ConfigError
from repro.nn.rnn import StackedRNNClassifier
from repro.runtime import check_conformance, compile
from repro.runtime.backends import ConformanceError, Executor

SPECS = {
    "lstm": RNNSpec("lstm", 20, (64,), 10, block_sizes=(8,)),
    "lstm-stack": RNNSpec("lstm", 20, (64, 32), 10, block_sizes=(8, 8)),
    "lstm-peep-proj": RNNSpec(
        "lstm", 20, (64,), 10, block_sizes=(8,),
        peephole=True, projection_size=32,
    ),
    "gru": RNNSpec("gru", 20, (64,), 10, block_sizes=(8,)),
    "gru-stack": RNNSpec("gru", 20, (64, 32), 10, block_sizes=(8, 4)),
}
BACKENDS = ("float", "fixed")


def _compiled(name: str, backend: str, bits: int = 12):
    model = StackedRNNClassifier(
        SPECS[name], structured=True, rng=np.random.default_rng(0)
    )
    return compile(model, backend=backend, weight_bits=bits, cache=False)


def _frames(name: str, frames: int = 15, batch: int = 3, seed: int = 9):
    return np.random.default_rng(seed).standard_normal(
        (frames, batch, SPECS[name].input_size)
    )


class TestStreamingEqualsBatched:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_push_byte_identical_to_run(self, name, backend):
        compiled = _compiled(name, backend)
        x = _frames(name)
        batched = compiled.run(x)
        session = compiled.session(batch_size=x.shape[1])
        for t in range(x.shape[0]):
            assert np.array_equal(session.push(x[t]), batched[t]), (
                f"{backend}/{name}: frame {t} diverged"
            )
        assert session.frames_pushed == x.shape[0]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bits", [6, 12, 16])
    def test_across_bit_widths(self, backend, bits):
        compiled = _compiled("lstm-peep-proj", backend, bits=bits)
        x = _frames("lstm-peep-proj", frames=10, batch=2, seed=3)
        streamed = compiled.session(batch_size=2).run(x)
        assert np.array_equal(streamed, compiled.run(x))

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_fixed_matches_forward_reference(self, name):
        """The fixed backend is the CU: streaming == the per-frame oracle."""
        compiled = _compiled(name, "fixed")
        x = _frames(name)
        oracle = compiled.executor().emulator.forward_reference(x)
        streamed = compiled.session(batch_size=x.shape[1]).run(x)
        assert np.array_equal(streamed, oracle)

    def test_float_matches_nn_forward(self):
        """The float backend replays ``model(x)`` bit for bit."""
        from repro.nn.autograd import no_grad

        model = StackedRNNClassifier(
            SPECS["lstm"], structured=True, rng=np.random.default_rng(0)
        )
        compiled = compile(model, backend="float", cache=False)
        x = _frames("lstm")
        with no_grad():
            legacy = model(x).data
        assert np.array_equal(compiled.run(x), legacy)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_width_one_vector_push(self, backend):
        compiled = _compiled("gru", backend)
        x = _frames("gru", frames=8, batch=1)
        batched = compiled.run(x)
        session = compiled.session()
        for t in range(8):
            logits = session.push(x[t, 0])  # bare (D,) in, (C,) out
            assert logits.shape == (10,)
            assert np.array_equal(logits, batched[t, 0])


class TestSessionState:
    def test_reset_restores_initial_stream(self):
        compiled = _compiled("lstm", "fixed")
        x = _frames("lstm", frames=6, batch=2)
        first = compiled.session(batch_size=2).run(x)
        session = compiled.session(batch_size=2)
        session.run(_frames("lstm", frames=4, batch=2, seed=77))
        session.reset()
        assert session.frames_pushed == 0
        assert np.array_equal(session.run(x), first)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sessions_are_isolated(self, backend):
        """Interleaved sessions never contaminate each other's state."""
        compiled = _compiled("gru-stack", backend)
        a = _frames("gru-stack", frames=10, batch=1, seed=1)
        b = _frames("gru-stack", frames=10, batch=1, seed=2)
        ref_a, ref_b = compiled.run(a), compiled.run(b)
        sess_a = compiled.session(batch_size=1)
        sess_b = compiled.session(batch_size=1)
        for t in range(10):
            out_a = sess_a.push(a[t])
            out_b = sess_b.push(b[t])
            assert np.array_equal(out_a, ref_a[t])
            assert np.array_equal(out_b, ref_b[t])

    def test_push_validates_shape(self):
        compiled = _compiled("lstm", "float")
        session = compiled.session(batch_size=2)
        with pytest.raises(ConfigError):
            session.push(np.zeros(20))  # bare vector on a width-2 session
        with pytest.raises(ConfigError):
            session.push(np.zeros((2, 21)))  # wrong feature width
        with pytest.raises(ConfigError):
            compiled.session(batch_size=0)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", ["lstm-peep-proj", "gru"])
    def test_step_rows_rejects_state_count_mismatch(self, name, backend):
        """One row with three states is an error, not a broadcast."""
        executor = _compiled(name, backend).executor()
        states = [executor.initial_state(1)] * 3
        with pytest.raises(ConfigError, match=r"expected \(3, D\) rows"):
            executor.step_rows(np.ones((1, 20)), states)
        with pytest.raises(ConfigError, match=r"expected \(1, D\) rows"):
            executor.step_rows(np.ones((3, 20)), states[:1])


class TestConformanceChecker:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_builtin_backends_conform(self, backend):
        compiled = _compiled("lstm-stack", backend)
        check_conformance(
            compiled.executor(), _frames("lstm-stack", frames=5, batch=4)
        )

    def test_detects_row_coupling(self):
        """An executor whose rows interact must fail the contract."""

        class Coupled(Executor):
            input_size = 4
            num_classes = 4

            def initial_state(self, batch):
                return None

            def step(self, frames, state):
                return frames + frames.sum(), None

            def step_rows(self, frames, states):
                # Vectorized across rows without isolating them: each row
                # now sees the *whole* coalesced batch's sum.
                return frames + frames.sum(), list(states)

        with pytest.raises(ConformanceError, match="step_rows"):
            check_conformance(
                Coupled(), np.random.default_rng(0).standard_normal((3, 4, 4))
            )

    def test_detects_streaming_mismatch(self):
        class Drifting(Executor):
            input_size = 4
            num_classes = 4

            def initial_state(self, batch):
                return None

            def step(self, frames, state):
                return frames * 2.0, None

            def run(self, inputs):  # claims to be hoisted, computes else
                return np.asarray(inputs) * 2.000001

        with pytest.raises(ConformanceError, match="byte-identical"):
            check_conformance(
                Drifting(), np.random.default_rng(0).standard_normal((3, 2, 4))
            )
