"""Shutdown-race regression tests for the micro-batching Server.

These pin the shutdown guarantees with a deliberately slow backend stub
(every ``step_rows`` sleeps), which keeps requests in flight long enough
to make the races deterministic:

* a ``push()`` blocked on its op while another thread calls ``close()``
  must never hang — every accepted op either completes normally during
  the drain or fails with ``ConfigError``;
* ``close()`` is idempotent and **equivalent** under concurrent calls:
  no caller returns while the drain is still in flight;
* if the loop thread dies, queued ops are failed instead of hanging
  their callers forever.
"""

import threading
import time

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.runtime import Server
from repro.runtime.backends import Executor

INPUT, CLASSES = 4, 3
JOIN_TIMEOUT = 20.0


class SlowExecutor(Executor):
    """A conformant but deliberately slow backend: every batch sleeps."""

    input_size = INPUT
    num_classes = CLASSES

    def __init__(self, delay_s: float = 0.05):
        self.delay_s = delay_s
        self.batches = 0

    def initial_state(self, batch: int):
        return np.zeros(batch)

    def step(self, frames, state):
        time.sleep(self.delay_s)
        self.batches += 1
        return frames[:, :CLASSES] * 2.0, state + 1


class SlowCompiled:
    """The minimal Server-facing surface: just ``executor()``."""

    def __init__(self, delay_s: float = 0.05):
        self._executor = SlowExecutor(delay_s)

    def executor(self):
        return self._executor


def _join_all(threads):
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT)
    hung = [thread.name for thread in threads if thread.is_alive()]
    assert not hung, f"thread(s) hung: {hung}"


class TestCloseDuringBlockedPush:
    def test_every_push_completes_or_fails_no_hang(self):
        """close() racing blocked pushes: all resolve, none hang."""
        server = Server(SlowCompiled(delay_s=0.05), max_batch=4)
        outcomes: list[str] = []
        lock = threading.Lock()

        def client(index: int) -> None:
            session = server.session()
            for _ in range(3):
                frame = np.full(INPUT, float(index))
                try:
                    logits = session.push(frame)
                    assert np.array_equal(logits, frame[:CLASSES] * 2.0)
                    with lock:
                        outcomes.append("ok")
                except ConfigError:
                    with lock:
                        outcomes.append("rejected")

        threads = [
            threading.Thread(target=client, args=(i,), name=f"client-{i}", daemon=True)
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.06)  # at least one batch in flight, more queued
        server.close()
        _join_all(threads)
        # Every attempted push is accounted for: completed during the
        # drain, or failed loudly.  Nothing silently dropped, nothing hung.
        assert len(outcomes) == 12  # 4 clients x 3 pushes, all accounted
        assert set(outcomes) <= {"ok", "rejected"}
        assert "ok" in outcomes  # the in-flight batch completed

    def test_queued_requests_drain_with_results(self):
        """Requests already queued at close() still compute (the drain)."""
        server = Server(SlowCompiled(delay_s=0.05), max_batch=1)
        results: dict[int, np.ndarray] = {}
        failures: list[int] = []

        def client(index: int) -> None:
            session = server.session()
            try:
                results[index] = session.push(np.full(INPUT, float(index)))
            except ConfigError:
                failures.append(index)

        threads = [
            threading.Thread(target=client, args=(i,), daemon=True)
            for i in range(6)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.02)  # all six submitted; max_batch=1 serializes them
        server.close()
        _join_all(threads)
        assert len(results) + len(failures) == 6
        for index, logits in results.items():
            assert np.array_equal(
                logits, np.full(INPUT, float(index))[:CLASSES] * 2.0
            )


class TestConcurrentClose:
    def test_second_closer_waits_for_drain(self):
        """No close() returns while the loop is still draining."""
        server = Server(SlowCompiled(delay_s=0.3), max_batch=1)
        session = server.session()
        pusher = threading.Thread(
            target=lambda: _swallow_config_error(
                session.push, np.zeros(INPUT)
            ),
            name="pusher",
            daemon=True,
        )
        pusher.start()
        time.sleep(0.05)  # the 0.3s batch is now in flight

        alive_after_close: list[bool] = []
        barrier = threading.Barrier(2)

        def closer() -> None:
            barrier.wait()
            server.close()
            alive_after_close.append(server._thread.is_alive())

        closers = [
            threading.Thread(target=closer, name=f"closer-{i}", daemon=True)
            for i in range(2)
        ]
        for thread in closers:
            thread.start()
        _join_all(closers + [pusher])
        # Regression: the second concurrent close() used to return
        # immediately (early `if self._closed: return`) while the first
        # was still waiting out the drain.
        assert alive_after_close == [False, False]

    def test_close_idempotent_sequentially(self):
        server = Server(SlowCompiled(delay_s=0.01))
        server.close()
        server.close()
        with pytest.raises(ConfigError, match="closed"):
            server.session()


class TestLoopDeath:
    @pytest.mark.parametrize("where", ["take", "step_rows"])
    def test_pending_ops_fail_instead_of_hanging(self, monkeypatch, where):
        """A dead loop thread must fail queued pushes, not strand them.

        An unexpected exception on the loop thread — a poisoned
        ``Rounds.take`` before the round is taken, or one ``step_rows``
        does not relay, mid-round — must not leave an accepted op
        unanswered: the blocked ``push()`` would hang forever.  The
        exception still escapes the loop thread; it is captured and
        checked here.
        """
        escaped: list[BaseException] = []
        monkeypatch.setattr(
            threading, "excepthook", lambda args: escaped.append(args.exc_value)
        )
        server = Server(SlowCompiled(delay_s=0.01), max_batch=4)
        if where == "take":
            server._rounds.take = _raise_poisoned  # poison the loop
        else:
            server._executor.step_rows = _raise_poisoned
        session = server.session()
        outcome: list[str] = []

        def pusher() -> None:
            try:
                session.push(np.zeros(INPUT))
                outcome.append("ok")
            except ConfigError:
                outcome.append("config-error")

        thread = threading.Thread(target=pusher, name="pusher", daemon=True)
        thread.start()
        _join_all([thread])
        assert outcome == ["config-error"]
        # The server is now closed for business, loudly.
        with pytest.raises(ConfigError):
            server.session().push(np.zeros(INPUT))
        server.close()  # returns promptly: the loop is already dead
        assert len(escaped) == 1
        assert type(escaped[0]) is _Poisoned
        assert str(escaped[0]) == "poisoned scheduler (test-injected)"


def _swallow_config_error(fn, *args):
    try:
        fn(*args)
    except ConfigError:
        pass


class _Poisoned(BaseException):
    """Not an ``Exception``: the loop does not relay it to callers."""


def _raise_poisoned(*args):
    raise _Poisoned("poisoned scheduler (test-injected)")
