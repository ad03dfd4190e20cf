"""Micro-batching inference server over one compiled model.

Concurrent callers each hold a :class:`ServerSession` and push frames; a
single dispatcher thread coalesces whatever pushes are pending (up to
``max_batch``, waiting at most ``max_delay_s`` for stragglers) into one
``step_rows`` backend call.  Because the backend contract requires *row
isolation* — each coalesced row computes exactly the bytes a standalone
batch-1 step would — micro-batching is semantically invisible: a session
served this way returns byte-identical logits to the same stream pushed
through a plain :class:`repro.runtime.Session`, regardless of how the
scheduler happened to group frames.  What changes is throughput: the
Python/numpy dispatch cost of a step is paid once per *batch* instead of
once per *frame* (``repro bench --only runtime_session`` records the
speedup).

This is the in-process server: caller threads, one dispatcher.  A
:mod:`repro.runtime.net` worker needs neither; it coalesces its wire
sessions' rows in its own single-threaded round loop and reports the
same :class:`ServerStats`.

>>> with compiled.serve(max_batch=16) as server:
...     session = server.session()
...     posteriors = session.push(frame)      # safe from any thread's session
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import ConfigError
from repro.runtime.coerce import coerce_frame
from repro.runtime.workloads import WORKLOAD_REGISTRY, run_driver

__all__ = ["Server", "ServerSession", "ServerStats"]


@dataclass(frozen=True)
class ServerStats:
    """A snapshot of one server's scheduling counters."""

    frames: int
    batches: int
    sessions_opened: int
    sessions_active: int
    max_coalesced: int
    max_batch: int

    @property
    def mean_coalesced(self) -> float:
        """Average rows per backend call — the micro-batching win."""
        return self.frames / self.batches if self.batches else 0.0

    def describe(self) -> str:
        return (
            f"server: {self.frames} frames in {self.batches} batches "
            f"(mean {self.mean_coalesced:.2f}, max {self.max_coalesced} of "
            f"{self.max_batch} rows), {self.sessions_active}/"
            f"{self.sessions_opened} sessions active"
        )

    def to_dict(self) -> dict:
        """JSON-ready snapshot (the net layer's ``stats`` reply format)."""
        return {
            "frames": self.frames,
            "batches": self.batches,
            "sessions_opened": self.sessions_opened,
            "sessions_active": self.sessions_active,
            "max_coalesced": self.max_coalesced,
            "max_batch": self.max_batch,
            "mean_coalesced": self.mean_coalesced,
        }


class _Request:
    __slots__ = ("session", "frame", "state", "future")

    def __init__(self, session: Any, frame: np.ndarray, state: Any):
        self.session = session
        self.frame = frame
        self.state = state
        self.future: Future = Future()


class Server:
    """Thread-based micro-batching scheduler for concurrent sessions.

    ``max_batch`` bounds rows per backend call; ``max_delay_s`` is how
    long the dispatcher holds an under-full batch open for more pushes
    (clients that push in lockstep — the steady serving state — coalesce
    fully without ever waiting the whole window).  Close with
    :meth:`close` or use as a context manager; pending pushes are drained
    before shutdown.
    """

    def __init__(
        self,
        compiled: Any,
        max_batch: int = 16,
        max_delay_s: float = 0.002,
    ):
        if max_batch < 1:
            raise ConfigError(f"max_batch must be positive, got {max_batch}")
        if max_delay_s < 0:
            raise ConfigError(f"max_delay_s must be >= 0, got {max_delay_s}")
        self._compiled = compiled
        self._executor = compiled.executor()
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s

        self._cond = threading.Condition()
        self._queue: deque[_Request] = deque()  # guarded-by: _cond
        # Sessions whose frames were in the previous batch: mid-stream, so
        # their next push is expected momentarily (the lockstep pattern).
        self._expected: set[int] = set()  # guarded-by: _cond
        self._closed = False  # guarded-by: _cond
        self._frames = 0  # guarded-by: _cond
        self._batches = 0  # guarded-by: _cond
        self._max_coalesced = 0  # guarded-by: _cond
        self._sessions_opened = 0  # guarded-by: _cond
        self._sessions_active = 0  # guarded-by: _cond

        self._dispatcher = threading.Thread(
            target=self._loop, name="repro-runtime-server", daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------
    @property
    def compiled(self) -> Any:
        return self._compiled

    def session(self) -> "ServerSession":
        """Open a width-1 streaming session multiplexed onto this server."""
        with self._cond:
            if self._closed:
                raise ConfigError("server is closed")
            self._sessions_opened += 1
            self._sessions_active += 1
        return ServerSession(self)

    def stats(self) -> ServerStats:
        with self._cond:
            return ServerStats(
                frames=self._frames,
                batches=self._batches,
                sessions_opened=self._sessions_opened,
                sessions_active=self._sessions_active,
                max_coalesced=self._max_coalesced,
                max_batch=self.max_batch,
            )

    def close(self) -> None:
        """Drain pending pushes, stop the dispatcher, reject new work.

        Safe (and equivalent) under concurrent calls: *every* caller
        returns only after the dispatcher has exited and every queued
        push has been resolved — completed normally during the drain, or
        failed with :class:`ConfigError`.  A push blocked in
        ``future.result()`` therefore can never outlive ``close()``.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        # Join unconditionally (not just for the first caller): a second
        # concurrent close() must not return while the drain is still in
        # flight.  Joining a finished thread is a no-op; joining from the
        # dispatcher itself (an executor callback closing its own server)
        # cannot wait, so fall through to the queue sweep instead.
        if threading.current_thread() is not self._dispatcher:
            self._dispatcher.join()
        self._fail_pending("server is closed")

    def _fail_pending(self, reason: str) -> None:
        """Fail every still-queued request — none may be silently dropped.

        Normally the dispatcher drains the queue before exiting and this
        sweeps nothing; it exists for the abnormal paths (dispatcher
        death, close() from inside the dispatcher) where queued futures
        would otherwise hang their callers forever.
        """
        with self._cond:
            pending, self._queue = list(self._queue), deque()
        for request in pending:
            if not request.future.done():
                request.future.set_exception(ConfigError(reason))

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _submit(self, session: Any, frame: np.ndarray, state: Any) -> Future:
        request = _Request(session, frame, state)
        with self._cond:
            if self._closed:
                raise ConfigError("server is closed")
            self._queue.append(request)
            self._cond.notify()  # only the dispatcher waits on the condition
        return request.future

    def _release_session(self, session: Any) -> None:
        with self._cond:
            self._sessions_active -= 1
            self._expected.discard(id(session))

    def _fill_target(self) -> int:  # holds-lock: _cond
        """Rows worth waiting for: sessions queued now or mid-stream.

        Counting *open* sessions instead would let one idle-but-open
        session (a client between utterances) make every other stream wait
        the full ``max_delay_s`` window on every frame.  A session counts
        only while it has a push queued or was in the immediately previous
        batch — i.e. its next lockstep push is genuinely imminent.
        """
        live = {id(request.session) for request in self._queue}
        live |= self._expected
        return max(1, min(self.max_batch, len(live)))

    def _loop(self) -> None:
        try:
            self._loop_inner()
        finally:
            # Dispatcher exit — normal drain or death by unexpected
            # exception.  Either way no queued future may be left to hang
            # its caller: mark the server closed so new pushes are
            # rejected, then fail anything still queued.
            with self._cond:
                self._closed = True
            self._fail_pending("server dispatcher exited with work queued")

    def _loop_inner(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue and self._closed:
                    return
                # Micro-batching window: hold the batch open briefly so
                # lockstep clients land in one backend call.  The target is
                # re-derived as pushes arrive (a fresh session joining the
                # window raises it; it never exceeds the rows that can
                # actually show up, so the window cannot stall on idle or
                # finished sessions).
                if len(self._queue) < self._fill_target() and self.max_delay_s > 0:
                    deadline = time.monotonic() + self.max_delay_s
                    while (
                        len(self._queue) < self._fill_target()
                        and not self._closed
                    ):
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._cond.wait(remaining)
                count = min(self.max_batch, len(self._queue))
                batch = [self._queue.popleft() for _ in range(count)]
                self._expected = {id(request.session) for request in batch}
                self._batches += 1
                self._frames += count
                self._max_coalesced = max(self._max_coalesced, count)
            try:
                frames = np.stack([request.frame for request in batch])
                logits, states = self._executor.step_rows(
                    frames, [request.state for request in batch]
                )
                for index, request in enumerate(batch):
                    request.future.set_result((logits[index], states[index]))
            except BaseException as error:  # noqa: BLE001 — relayed to callers
                for request in batch:
                    if not request.future.done():
                        request.future.set_exception(error)


class ServerSession:
    """A width-1 streaming session whose steps run on the server.

    Mirrors the :class:`repro.runtime.Session` surface (``push``,
    ``reset``, ``frames_pushed``) and the same byte-identity guarantee:
    the logits equal a standalone width-1 session on the same stream.
    ``push`` blocks until the coalesced backend call returns, so a
    session has at most one frame in flight and stays strictly ordered.
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
        self._state = self._executor.initial_state(1)
        self._frames = 0
        self._close_lock = threading.Lock()
        self._open = True  # guarded-by: _close_lock

    @property
    def frames_pushed(self) -> int:
        return self._frames

    def push(self, frame: np.ndarray) -> np.ndarray:
        """One frame in, that frame's logits out.

        Accepts a bare ``(D,)`` vector (returns ``(C,)``) or a ``(1, D)``
        frame (returns ``(1, C)``) — the same shapes, via the same
        :func:`~repro.runtime.coerce.coerce_frame`, as a width-1
        :class:`repro.runtime.Session`.
        """
        # Read under the close lock: a concurrent close() publishes
        # ``_open = False`` there, and an unsynchronized read could submit
        # a frame into a slot the server has already released.
        with self._close_lock:
            if not self._open:
                raise ConfigError("session is closed")
        frame, squeezed = coerce_frame(frame, 1, self._executor.input_size)
        future = self._server._submit(self, frame[0], self._state)
        logits, self._state = future.result()
        self._frames += 1
        return logits if squeezed else logits[None, :]

    # ------------------------------------------------------------------
    # Workload ops (token-based sessions).
    # ------------------------------------------------------------------
    def _step_row(self, row: np.ndarray) -> np.ndarray:
        future = self._server._submit(self, row, self._state)
        logits, self._state = future.result()
        self._frames += 1
        return logits

    def _run_op(self, op: str, params: dict) -> dict:
        with self._close_lock:
            if not self._open:
                raise ConfigError("session is closed")
        driver = self._workload.make_driver(
            op, vocab_size=self._executor.input_size, params=params
        )
        return run_driver(driver, self._step_row)

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

        Each autoregressive row goes through the dispatcher, so it
        coalesces with other sessions' pushes — and by row isolation the
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
        self._state = self._executor.initial_state(1)
        self._frames = 0
        return self

    def close(self) -> None:
        """Release the session's server slot.  Idempotent, thread-safe."""
        with self._close_lock:
            if not self._open:
                return
            self._open = False
        self._server._release_session(self)

    def __enter__(self) -> "ServerSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
