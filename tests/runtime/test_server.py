"""Concurrent-session safety and scheduling behavior of the Server."""

import threading

import numpy as np
import pytest

from repro.config import RNNSpec
from repro.errors import ConfigError
from repro.nn.rnn import StackedRNNClassifier
from repro.runtime import Server, compile

SPEC = RNNSpec("lstm", 10, (32,), 6, block_sizes=(4,))


@pytest.fixture(params=["float", "fixed"])
def compiled(request):
    model = StackedRNNClassifier(
        SPEC, structured=True, rng=np.random.default_rng(0)
    )
    return compile(model, backend=request.param, cache=False)


def _streams(count: int, frames: int, seed: int = 5) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(
        (count, frames, SPEC.input_size)
    )


class TestConcurrentSessions:
    def test_served_streams_byte_identical_to_standalone(self, compiled):
        """The headline guarantee: micro-batching never perturbs a stream.

        N threads push N distinct streams concurrently; every result must
        equal the same stream through a standalone width-1 session (which
        itself equals the batched run — see test_session_equivalence).
        """
        sessions, frames = 6, 12
        streams = _streams(sessions, frames)
        expected = [
            compiled.run(stream[:, None, :])[:, 0] for stream in streams
        ]
        results: list = [None] * sessions
        with compiled.serve(max_batch=sessions) as server:

            def client(index: int) -> None:
                with server.session() as session:
                    results[index] = np.stack(
                        [session.push(frame) for frame in streams[index]]
                    )

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(sessions)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = server.stats()

        for index in range(sessions):
            assert np.array_equal(results[index], expected[index]), (
                f"stream {index} perturbed by micro-batching"
            )
        assert stats.frames == sessions * frames
        assert stats.sessions_opened == sessions
        assert stats.sessions_active == 0
        assert 1 <= stats.max_coalesced <= sessions

    def test_coalescing_actually_happens(self, compiled):
        """Lockstep clients should land in shared backend calls."""
        sessions, frames = 4, 10
        streams = _streams(sessions, frames)
        with compiled.serve(max_batch=sessions) as server:
            barrier = threading.Barrier(sessions)

            def client(index: int) -> None:
                session = server.session()
                barrier.wait()
                for frame in streams[index]:
                    session.push(frame)
                session.close()

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(sessions)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = server.stats()
        # Far fewer backend calls than frames proves coalescing; the exact
        # grouping is timing-dependent, so assert the conservative bound.
        assert stats.batches < stats.frames
        assert stats.max_coalesced >= 2

    def test_idle_open_session_does_not_throttle_active_one(self, compiled):
        """An open-but-idle session must not hold back an active one.

        Regression: the scheduler once waited a full micro-batching
        window on every frame whenever any *open* session was silent,
        capping an active stream at ~1/window frames/s.  A round steps
        only sessions with queued work, so the idle one costs nothing.
        """
        import time

        frames = 10
        stream = _streams(1, frames, seed=9)[0]
        with compiled.serve(max_batch=8) as server:
            idle = server.session()  # never pushes
            active = server.session()
            start = time.perf_counter()
            for frame in stream:
                active.push(frame)
            elapsed = time.perf_counter() - start
            idle.close()
            stats = server.stats()
        # A scheduler waiting 0.25 s per frame would need >= 2.5 s.
        assert elapsed < 0.5 * frames * 0.25
        assert stats.frames == frames and stats.batches == frames

    def test_reset_between_utterances(self, compiled):
        stream = _streams(1, 8)[0]
        expected = compiled.run(stream[:, None, :])[:, 0]
        with compiled.serve() as server:
            session = server.session()
            first = np.stack([session.push(frame) for frame in stream])
            session.reset()
            assert session.frames_pushed == 0
            second = np.stack([session.push(frame) for frame in stream])
        assert np.array_equal(first, expected)
        assert np.array_equal(second, expected)


class TestServerLifecycle:
    def test_close_rejects_new_work(self, compiled):
        server = compiled.serve()
        session = server.session()
        server.close()
        with pytest.raises(ConfigError, match="closed"):
            session.push(np.zeros(SPEC.input_size))
        with pytest.raises(ConfigError, match="closed"):
            server.session()
        server.close()  # idempotent

    def test_closed_session_rejects_push(self, compiled):
        with compiled.serve() as server:
            session = server.session()
            session.close()
            with pytest.raises(ConfigError, match="closed"):
                session.push(np.zeros(SPEC.input_size))

    def test_push_validates_frame_shape(self, compiled):
        with compiled.serve() as server:
            session = server.session()
            with pytest.raises(ConfigError):
                session.push(np.zeros(SPEC.input_size + 1))
            with pytest.raises(ConfigError):
                session.push(np.zeros((2, SPEC.input_size)))
            # the server survives rejected frames
            out = session.push(np.zeros(SPEC.input_size))
            assert out.shape == (SPEC.output_size,)

    def test_constructor_validation(self, compiled):
        with pytest.raises(ConfigError):
            Server(compiled, max_batch=0)

    def test_stats_describe_mentions_coalescing(self, compiled):
        with compiled.serve() as server:
            session = server.session()
            session.push(np.zeros(SPEC.input_size))
            text = server.stats().describe()
        assert "frames" in text and "batches" in text


class TestCloseRace:
    def test_concurrent_close_and_push_never_leak_a_slot(self, compiled):
        """Regression: ServerSession.push reads `_open` under `_close_lock`.

        Race a pusher against a closer on the same session, repeatedly:
        every push either returns logits or raises ConfigError("closed"),
        and after the dust settles the server has released every slot.
        """
        frame = np.zeros(SPEC.input_size)
        with compiled.serve() as server:
            for _ in range(20):
                session = server.session()
                outcomes: list = []

                def pusher() -> None:
                    try:
                        for _ in range(5):
                            outcomes.append(session.push(frame))
                    except ConfigError as error:
                        outcomes.append(error)

                closer = threading.Thread(target=session.close)
                worker = threading.Thread(target=pusher)
                worker.start()
                closer.start()
                worker.join()
                closer.join()
                for outcome in outcomes:
                    assert isinstance(outcome, (np.ndarray, ConfigError))
            assert server.stats().sessions_active == 0
        assert server.stats().sessions_opened == 20
