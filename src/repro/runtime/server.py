"""Micro-batching inference server over one compiled model.

Concurrent callers each hold a :class:`ServerSession`.  Every session op
(``push``, ``generate``, ``score``) is one op of the round core
(:mod:`repro.runtime.rounds`), which the server steps on one loop
thread: each round takes the next row of every busy session — oldest
first, up to ``max_batch`` rows — into **one** ``step_rows`` backend
call, with no wait for stragglers.  The caller blocks on its own op.
Because the backend contract requires *row isolation* — each coalesced
row computes exactly the bytes a standalone batch-1 step would —
micro-batching is semantically invisible: a session served this way
returns byte-identical logits to the same stream pushed through a plain
:class:`repro.runtime.Session`, regardless of how the rounds grouped
rows.  What changes is throughput: the Python/numpy dispatch cost of a
step is paid once per *round* instead of once per *row* (``repro bench
--only runtime_session`` records the speedup).

A :mod:`repro.runtime.net` worker hosts the same core on its ring
consumer, so both report the same :class:`ServerStats`.

>>> with compiled.serve(max_batch=16) as server:
...     session = server.session()
...     posteriors = session.push(frame)      # safe from any thread's session
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

from repro.errors import ConfigError
from repro.runtime.coerce import coerce_frame
from repro.runtime.rounds import Lane, Op, Rounds, ServerStats
from repro.runtime.workloads import WORKLOAD_REGISTRY

__all__ = ["Server", "ServerSession", "ServerStats"]


class _Lane(Lane):
    """A session's lane, with the condition its blocked caller waits on."""

    __slots__ = ("wake",)

    def __init__(self, state: Any, lock: threading.Lock):
        super().__init__(state)
        self.wake = threading.Condition(lock)


class Server:
    """Thread-based micro-batching scheduler for concurrent sessions.

    ``max_batch`` bounds rows per backend call.  Close with
    :meth:`close` or use as a context manager; accepted ops are drained
    before shutdown.
    """

    def __init__(self, compiled: Any, max_batch: int = 16):
        if max_batch < 1:
            raise ConfigError(f"max_batch must be positive, got {max_batch}")
        self._compiled = compiled
        self._executor = compiled.executor()

        # One lock guards the core; the loop waits on ``_work`` and each
        # caller on its own lane's condition over the same lock.
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._rounds = Rounds(max_batch, done=self._done)  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        self._sessions_opened = 0  # guarded-by: _lock
        self._sessions_active = 0  # guarded-by: _lock

        self._thread = threading.Thread(
            target=self._loop, name="repro-runtime-server", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    @property
    def compiled(self) -> Any:
        return self._compiled

    def session(self) -> "ServerSession":
        """Open a width-1 streaming session multiplexed onto this server."""
        with self._lock:
            if self._closed:
                raise ConfigError("server is closed")
            self._sessions_opened += 1
            self._sessions_active += 1
        return ServerSession(self)

    def stats(self) -> ServerStats:
        with self._lock:
            return self._rounds.stats(
                sessions_opened=self._sessions_opened,
                sessions_active=self._sessions_active,
            )

    def close(self) -> None:
        """Drain accepted ops, stop the loop, reject new work.

        Safe (and equivalent) under concurrent calls: *every* caller
        returns only after the loop thread has exited, and so after
        every accepted op has been answered — completed during the
        drain, or failed with :class:`ConfigError` if the loop died.  A
        caller blocked in ``push`` therefore can never outlive
        ``close()``.
        """
        with self._lock:
            self._closed = True
            self._work.notify()
        # Join unconditionally (not just for the first caller): a second
        # concurrent close() must not return while the drain is still in
        # flight.  Joining a finished thread is a no-op; joining from the
        # loop itself (an executor callback closing its own server)
        # cannot wait, and the loop drains once the callback returns.
        if threading.current_thread() is not self._thread:
            self._thread.join()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _run(self, lane: _Lane, op: Op) -> Op:
        """Submit ``op`` on ``lane`` and block until the loop finishes it."""
        with self._lock:
            if self._closed:
                raise ConfigError("server is closed")
            self._rounds.submit(lane, op)
            self._work.notify()  # only the loop waits on _work
            while not op.done:
                lane.wake.wait()
        if op.error is not None:
            raise op.error
        return op

    def _done(self, lane: _Lane, op: Op) -> None:  # holds-lock: _lock
        lane.wake.notify_all()

    def _release_session(self) -> None:
        with self._lock:
            self._sessions_active -= 1

    def _loop(self) -> None:
        try:
            while True:
                with self._lock:
                    while not self._rounds.busy and not self._closed:
                        self._work.wait()
                    if not self._rounds.busy:
                        return  # closed, every accepted op answered
                    rows, states = self._rounds.take()
                try:
                    logits, states = self._executor.step_rows(rows, states)
                except Exception as error:  # noqa: BLE001 — relayed to callers
                    with self._lock:
                        self._rounds.fail(error)
                else:
                    with self._lock:
                        self._rounds.give(logits, states)
        finally:
            # Loop exit — normal drain or death by unexpected exception.
            # Either way no accepted op may be left to hang its caller:
            # reject new work, then fail anything still queued.
            with self._lock:
                self._closed = True
                self._rounds.abandon(
                    ConfigError("server loop exited with work queued")
                )


class ServerSession:
    """A width-1 streaming session whose steps run on the server.

    Mirrors the :class:`repro.runtime.Session` surface (``push``,
    ``reset``, ``frames_pushed``) and the same byte-identity guarantee:
    the logits equal a standalone width-1 session on the same stream.
    Each op blocks until the rounds that step its rows return, so a
    session has at most one op in flight and stays strictly ordered.
    One session per caller thread; open as many as you need.
    """

    def __init__(self, server: Server):
        self._server = server
        self._executor = server._executor
        # getattr with the asr default keeps duck-typed compiled stand-ins
        # (tests, custom wrappers) working: frame scoring needs no info.
        self._workload = getattr(
            server.compiled, "workload_info", None
        ) or WORKLOAD_REGISTRY.get("asr")
        self._lane = _Lane(self._executor.initial_state(1), server._lock)
        self._close_lock = threading.Lock()
        self._open = True  # guarded-by: _close_lock

    @property
    def frames_pushed(self) -> int:
        return self._lane.frames

    def _check_open(self) -> None:
        # Read under the close lock: a concurrent close() publishes
        # ``_open = False`` there, and an unsynchronized read could submit
        # an op into a slot the server has already released.
        with self._close_lock:
            if not self._open:
                raise ConfigError("session is closed")

    def push(self, frame: np.ndarray) -> np.ndarray:
        """One frame in, that frame's logits out.

        Accepts a bare ``(D,)`` vector (returns ``(C,)``) or a ``(1, D)``
        frame (returns ``(1, C)``) — the same shapes, via the same
        :func:`~repro.runtime.coerce.coerce_frame`, as a width-1
        :class:`repro.runtime.Session`.
        """
        self._check_open()
        frame, squeezed = coerce_frame(frame, 1, self._executor.input_size)
        (logits,) = self._server._run(self._lane, Op(rows=frame)).collected
        return logits if squeezed else logits[None, :]

    # ------------------------------------------------------------------
    # Workload ops (token-based sessions).
    # ------------------------------------------------------------------
    def _run_op(self, op: str, params: dict) -> dict:
        self._check_open()
        driver = self._workload.make_driver(
            op, vocab_size=self._executor.input_size, params=params
        )
        return self._server._run(self._lane, Op(driver=driver)).driver.result()

    def generate(
        self,
        prompt,
        steps: int = 32,
        *,
        temperature: float = 1.0,
        top_k: int = 0,
        seed: int = 0,
    ) -> list[int]:
        """Sample ``steps`` tokens after ``prompt`` (lm workload only).

        Each autoregressive row joins the server's rounds, so it
        coalesces with other sessions' rows — and by row isolation the
        tokens are byte-identical to a standalone
        :meth:`repro.runtime.Session.generate` with the same seed.
        """
        return self._run_op(
            "generate",
            {
                "prompt": prompt,
                "steps": steps,
                "temperature": temperature,
                "top_k": top_k,
                "seed": seed,
            },
        )["tokens"]

    def score(self, tokens) -> np.ndarray:
        """Per-token log-probs for ``tokens[1:]`` (lm workload only)."""
        return self._run_op("score", {"tokens": tokens})["logprobs"]

    def reset(self) -> "ServerSession":
        """Zero the carried state, as between utterances.  Returns self."""
        self._lane.state = self._executor.initial_state(1)
        self._lane.frames = 0
        return self

    def close(self) -> None:
        """Release the session's server slot.  Idempotent, thread-safe."""
        with self._close_lock:
            if not self._open:
                return
            self._open = False
        self._server._release_session()

    def __enter__(self) -> "ServerSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
