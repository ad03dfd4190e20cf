"""The serving worker process of :mod:`repro.runtime.net`.

Each worker is one OS process that loads the compiled ``.npz`` artifact
from disk and runs its **own** micro-batching
:class:`repro.runtime.Server` — numpy compute in ``N`` workers scales
across cores where one Python process cannot.  Session state lives here:
the parent routes every request for a session name to the same worker
(stable hash), so the recurrent state never crosses a process boundary.

Scheduling (PR 7) is event-driven rather than thread-per-session: a
single :class:`_Scheduler` owns every session's op queue and drives the
micro-batching server through its non-blocking :meth:`~repro.runtime.\
Server.submit` hook.  Per-session order is strict — one op executes at a
time per session, its completion callback submits the next — while
concurrent sessions' rows still coalesce into shared ``step_rows``
batches exactly as blocking threads would.  A ``push_many`` batch is
applied frame by frame through the same path, so its logits are
byte-identical to the equivalent sequence of single pushes.  When
exactly one session is busy there is nothing to coalesce with, so its
rows run inline on the consumer thread (:meth:`~repro.runtime.Server.\
step_inline`) instead of paying two dispatcher wakeups per frame.

Transport: every worker has a :class:`~repro.runtime.net.ring.RingPair`.
Request payloads arrive in shared-memory ring slots and result payloads
leave the same way.  Wake-ups for both rings are one-byte doorbell pipes
(coalesced through the ring's kick flags): the consumer thread blocks on
its request doorbell and the request queue together, and rings the
response doorbell that the parent's event loop watches.  The pickled
queues carry only control traffic and payloads larger than a slot.
Every per-ticket reply — ring or queue — carries a per-worker
``emit_seq`` so the parent restores emission order across the two paths.

Parent → worker messages (tuples on the request queue)::

    ("payload", bytes)              # oversized ring entry's payload
    ("stats", token)
    ("sessions", token)             # list live sessions
    ("sweep", ttl_s)                # evict sessions idle >= ttl
    ("hb", token)                   # heartbeat probe
    ("shutdown",)

Worker → parent messages (on this worker's own reply queue — never
shared between workers, so one worker's death cannot poison another's
queue locks)::

    ("ready", index)                    # artifact loaded, serving
    ("res", key, emit_seq, reply)       # reply dict; key = ticket or stats token
    ("hb", index, token)                # heartbeat echo
    ("fatal", index, message)           # the worker is dead

Session lifecycle (PR 8): every session records ``last_used``; the
parent's periodic ``sweep`` evicts sessions idle at least the server's
``session_ttl_s``, and a ``session_cap`` bounds the table — a new open
at the cap sheds the least-recently-used idle session (LRU), or fails
if every session is busy.  Eviction counters ride the ``stats`` reply.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import Future
from multiprocessing.connection import wait as wait_readable
from queue import Empty
from typing import Any

import numpy as np

from repro.errors import ReproError
from repro.runtime.coerce import coerce_frame, coerce_stream
from repro.runtime.net.faults import FaultInjector
from repro.runtime.net.protocol import MAX_PUSH_MANY_FRAMES, UnknownSessionError
from repro.runtime.net.ring import (
    OP_CLOSE,
    OP_EVICT,
    OP_GENERATE,
    OP_OPEN,
    OP_PUSH,
    OP_PUSH_MANY,
    OP_RESET,
    OP_SCORE,
    RingPair,
    ring_doorbell,
    take_doorbell,
)

__all__ = ["worker_main"]

_OP_NAMES = {OP_OPEN: "open", OP_PUSH: "push", OP_PUSH_MANY: "push_many",
             OP_RESET: "reset", OP_CLOSE: "close", OP_EVICT: "evict",
             OP_GENERATE: "generate", OP_SCORE: "score"}


def _watch_parent(shm_name: str) -> None:
    """Die with the parent: a SIGKILLed NetServer must not leave workers.

    The request queue cannot signal parent death — this process holds
    its own write end, so the pipe never reaches EOF.  The parent
    *process sentinel* does: it fires exactly when the parent exits, at
    which point nobody is pumping our replies and the only honest move
    is immediate exit (``os._exit``: no drain — the drain's audience is
    gone).  Without this, every crashed-host drill in the cluster tier
    (gateway failover tests, ``BackendFleet.kill``) would orphan one
    worker per kill.

    A parent that died without closing left our ring segment behind, so
    the orphan unlinks it first; ``unlink`` also unregisters it from the
    resource tracker this process shares with its ancestors, which
    would otherwise report it leaked at exit.
    """
    import multiprocessing as mp
    from multiprocessing import shared_memory

    parent = mp.parent_process()
    if parent is None:  # directly invoked, not spawned: nothing to watch
        return
    parent.join()
    try:
        shared_memory.SharedMemory(name=shm_name).unlink()
    except FileNotFoundError:  # the parent closed cleanly and unlinked it
        pass
    os._exit(2)


def _error(error: BaseException) -> dict:
    return {
        "ok": False,
        "type": "error",
        "kind": type(error).__name__,
        "error": str(error),
    }


class _WireSession:
    """One named stream's worker-side state: strictly ordered op queue."""

    __slots__ = ("name", "state", "frames", "ops", "busy", "last_used")

    def __init__(self, name: str, state: Any):
        self.name = name
        self.state = state
        self.frames = 0
        self.ops: deque[_Op] = deque()
        self.busy = False  # an op's rows are in the micro-batch server
        self.last_used = time.monotonic()  # refreshed on every accepted op


class _Op:
    """One accepted session op, with multi-frame progress for push_many.

    A workload op (``generate``/``score``) carries a *row driver*
    instead of pre-materialized rows: each row to step comes from
    ``driver.next_row()`` and its logits go back through
    ``driver.feed()`` — the identical driver classes every in-process
    surface runs, which is why the emitted bytes cannot differ.
    """

    __slots__ = ("ticket", "op", "rows", "many", "cursor", "collected",
                 "driver")

    def __init__(self, ticket: int, op: int,
                 rows: np.ndarray | None, many: bool, driver: Any = None):
        self.ticket = ticket
        self.op = op
        self.rows = rows  # (K, D) float64; push applies row 0 only
        self.many = many
        self.cursor = 0
        self.collected: list[np.ndarray] = []
        self.driver = driver  # workload row driver (generate/score)


class _Scheduler:
    """Event-driven session scheduler over the micro-batching server.

    All state transitions run inside :meth:`_run_pump`, a reentrancy-safe
    work pump: whichever thread (ring consumer or server dispatcher)
    schedules work while no pump is active becomes the pumper and drains
    the queue; a thread that schedules into a live pump just appends.
    This serializes every mutation without a thread per session and
    without recursion through already-completed futures.
    """

    def __init__(self, index: int, compiled: Any, server: Any,
                 rings: RingPair, replies: Any, *, bell: Any,
                 session_cap: int | None = None,
                 faults: FaultInjector | None = None):
        self._index = index
        self._server = server
        self._rings = rings
        self._bell_fd = bell.fileno()
        self._replies = replies
        self._session_cap = session_cap
        self._faults = faults if faults else None
        self._input_size = compiled.input_size
        self._workload = compiled.workload_info
        self.meta = {
            "backend": compiled.backend,
            "input_size": compiled.input_size,
            "num_classes": compiled.num_classes,
            "worker": index,
        }
        self._lock = threading.Lock()
        self._work: deque[tuple] = deque()  # guarded-by: _lock
        self._pumping = False  # guarded-by: _lock
        self._outstanding = 0  # guarded-by: _lock
        self._idle = threading.Condition(self._lock)
        # Pump-only state (serialized by the pump, no lock needed).
        self._sessions: dict[str, _WireSession] = {}
        self._busy_count = 0  # sessions with rows in (or bound for) the server
        self._emit_seq = 0
        self._evicted = {"idle": 0, "lru": 0, "admin": 0}

    # ------------------------------------------------------------------
    @property
    def session_count(self) -> int:
        return len(self._sessions)

    def lifecycle_stats(self) -> dict:
        """Session-table counters for the ``stats`` reply."""
        return {
            "sessions": len(self._sessions),
            "evicted_idle": self._evicted["idle"],
            "evicted_lru": self._evicted["lru"],
            "evicted_admin": self._evicted["admin"],
        }

    def list_sessions(self, token: str) -> None:
        """Schedule a session-table snapshot reply (any thread)."""
        self._schedule(("sessions", token))

    def sweep(self, ttl_s: float) -> None:
        """Schedule an idle-TTL eviction pass (any thread)."""
        self._schedule(("sweep", ttl_s))

    def schedule_op(self, ticket: int, op: int, session: str,
                    payload: bytes | None, shape: tuple[int, ...]) -> None:
        """Accept one parent request (ring consumer thread)."""
        with self._lock:
            self._outstanding += 1
        self._schedule(("op", ticket, op, session, payload, shape))

    def wait_idle(self, timeout: float) -> bool:
        """Block until every accepted op has emitted its reply."""
        with self._lock:
            return self._idle.wait_for(
                lambda: self._outstanding == 0, timeout=timeout
            )

    # ------------------------------------------------------------------
    def _schedule(self, item: tuple) -> None:
        with self._lock:
            self._work.append(item)
            if self._pumping:
                return
            self._pumping = True
        self._run_pump()

    def _run_pump(self) -> None:
        while True:
            with self._lock:
                if not self._work:
                    self._pumping = False
                    return
                item = self._work.popleft()
            if item[0] == "op":
                self._accept(*item[1:])
            elif item[0] == "done":
                self._complete(*item[1:])
            elif item[0] == "sweep":
                self._evict_idle(item[1])
            else:  # ("sessions", token)
                self._emit_sessions(item[1])

    # ------------------------------------------------------------------
    def _accept(self, ticket: int, op: int, session: str,
                payload: bytes | None, shape: tuple[int, ...]) -> None:
        sess = self._sessions.get(session)
        if op == OP_OPEN and sess is None:
            if (
                self._session_cap is not None
                and len(self._sessions) >= self._session_cap
                and not self._shed_lru()
            ):
                self._emit(ticket, _error(ReproError(
                    f"worker session table is full "
                    f"(cap {self._session_cap}) and every session is busy"
                )))
                return
            try:
                self._server.register_session()
                sess = _WireSession(session, self._server.initial_state())
            except ReproError as error:
                self._emit(ticket, _error(error))
                return
            self._sessions[session] = sess
            self._emit(ticket, {
                "ok": True, "type": "open", "session": session,
                "existing": False, "seq": 0, **self.meta,
            })
            return
        if op == OP_EVICT and sess is None:
            # Evicting a session that does not exist is the goal state.
            self._emit(ticket, {"ok": True, "type": "evict",
                                "session": session, "evicted": False})
            return
        if sess is None:
            self._emit(ticket, _error(UnknownSessionError(
                f"unknown session {session!r}; send an open request first"
            )))
            return
        sess.last_used = time.monotonic()
        rows = driver = None
        if op in (OP_PUSH, OP_PUSH_MANY):
            try:
                rows = self._coerce(op, payload, shape)
            except ReproError as error:
                self._emit(ticket, _error(error))
                return
        elif op in (OP_GENERATE, OP_SCORE):
            try:
                driver = self._make_driver(op, payload, shape)
            except ReproError as error:
                self._emit(ticket, _error(error))
                return
        sess.ops.append(_Op(ticket, op, rows, many=op == OP_PUSH_MANY,
                            driver=driver))
        self._pump_session(sess)

    def _coerce(self, op: int, payload: bytes | None,
                shape: tuple[int, ...]) -> np.ndarray:
        try:
            frames = np.frombuffer(payload, dtype="<f8").reshape(shape)
        except (TypeError, ValueError) as error:
            raise ReproError(f"undecodable frame payload: {error}") from None
        if op == OP_PUSH:
            coerced, _ = coerce_frame(frames, 1, self._input_size)
            return coerced  # (1, D)
        if frames.ndim != 2:
            raise ReproError(
                f"push_many wants (K, D) frames, got shape {list(shape)}"
            )
        if not 1 <= len(frames) <= MAX_PUSH_MANY_FRAMES:
            raise ReproError(
                f"push_many carries {len(frames)} frames; the server "
                f"accepts 1..{MAX_PUSH_MANY_FRAMES} per batch"
            )
        # Whole-batch validation up front: a bad frame rejects the batch
        # with NOTHING applied, exactly like the client-side contract.
        return coerce_stream(frames[:, None, :], self._input_size)[:, 0, :]

    def _make_driver(self, op: int, payload: bytes | None,
                     shape: tuple[int, ...]) -> Any:
        """Build the workload row driver serving one generate/score op.

        The driver re-validates everything (the client validated with
        the same code), so a malformed request fails identically on
        both ends — with NOTHING applied to the session.
        """
        if op == OP_GENERATE:
            try:
                params = json.loads(payload or b"{}")
            except (ValueError, UnicodeDecodeError) as error:
                raise ReproError(
                    f"undecodable generate parameters: {error}"
                ) from None
            if not isinstance(params, dict):
                raise ReproError("generate parameters must be a JSON object")
            return self._workload.make_driver(
                "generate", vocab_size=self._input_size, params=params
            )
        try:
            tokens = np.frombuffer(payload, dtype="<i8").reshape(shape)
        except (TypeError, ValueError) as error:
            raise ReproError(f"undecodable token payload: {error}") from None
        driver = self._workload.make_driver(
            "score", vocab_size=self._input_size, params={"tokens": tokens}
        )
        if driver.rows_total > MAX_PUSH_MANY_FRAMES:
            raise ReproError(
                f"score feeds {driver.rows_total} rows; the server accepts "
                f"1..{MAX_PUSH_MANY_FRAMES} per request — chunk the tokens "
                "(overlap chunks by one; state continuity makes the "
                "log-probs identical)"
            )
        return driver

    def _pump_session(self, sess: _WireSession) -> None:
        while not sess.busy and sess.ops:
            op_item = sess.ops.popleft()
            if op_item.op == OP_OPEN:
                self._emit(op_item.ticket, {
                    "ok": True, "type": "open", "session": sess.name,
                    "existing": True, "seq": sess.frames, **self.meta,
                })
            elif op_item.op == OP_RESET:
                sess.state = self._server.initial_state()
                sess.frames = 0
                self._emit(op_item.ticket, {"ok": True, "type": "reset"})
            elif op_item.op in (OP_CLOSE, OP_EVICT):
                del self._sessions[sess.name]
                self._server.release_session(sess)
                for stale in sess.ops:
                    self._emit(stale.ticket, _error(ReproError(
                        f"session {sess.name!r} was closed with this "
                        "request still queued behind the close"
                    )))
                sess.ops.clear()
                if op_item.op == OP_EVICT:
                    self._evicted["admin"] += 1
                    self._emit(op_item.ticket, {
                        "ok": True, "type": "evict", "session": sess.name,
                        "evicted": True,
                    })
                else:
                    self._emit(op_item.ticket, {"ok": True, "type": "close"})
                return
            else:
                sess.busy = True
                self._busy_count += 1
                self._submit_next(sess, op_item)

    def _submit_next(self, sess: _WireSession, op_item: _Op) -> None:
        # A driver op's next row comes from its state machine (for
        # generate it one-hots the token just sampled from the previous
        # row's logits); plain pushes index their materialized rows.
        # Either way the row takes the same step path below, coalescing
        # with other sessions' rows — autoregressive steps and
        # micro-batched scoring rows share the batches.
        if op_item.driver is not None:
            row = op_item.driver.next_row()
        else:
            row = op_item.rows[op_item.cursor]
        # Fast path: with exactly one busy session there is nothing to
        # coalesce with, so the micro-batch dispatcher hop (two thread
        # wakeups per row) buys nothing — compute the row inline on this
        # thread instead.  step_inline runs the identical 1-row
        # step_rows call, so the bytes cannot differ; completion still
        # goes through the pump as a pre-resolved future to keep one
        # code path.  The moment a second session has rows in flight,
        # rows revert to submit() and coalesce as before.
        if self._busy_count == 1:
            future: Future = Future()
            try:
                future.set_result(self._server.step_inline(row, sess.state))
            except BaseException as error:  # noqa: BLE001 — relayed below
                future.set_exception(error)
            self._schedule(("done", sess, op_item, future))
            return
        try:
            future = self._server.submit(sess, row, sess.state)
        except ReproError as error:
            sess.busy = False
            self._busy_count -= 1
            self._emit(op_item.ticket, _error(error))
            return
        future.add_done_callback(
            lambda fut: self._schedule(("done", sess, op_item, fut))
        )

    def _complete(self, sess: _WireSession, op_item: _Op, future: Any) -> None:
        try:
            logits, state = future.result()
        except BaseException as error:  # noqa: BLE001 — relayed to the client
            sess.busy = False
            self._busy_count -= 1
            self._emit(op_item.ticket, _error(error))
            self._pump_session(sess)
            return
        sess.state = state
        sess.frames += 1
        sess.last_used = time.monotonic()
        if op_item.driver is not None:
            try:
                op_item.driver.feed(logits)
            except ReproError as error:
                # e.g. NaN logits refusing to sample: the session state
                # HAS advanced by the rows already fed, so the error
                # reply leaves the client's seq reconcile (reattach +
                # journal replay) to restore a known state.
                sess.busy = False
                self._busy_count -= 1
                self._emit(op_item.ticket, _error(error))
                self._pump_session(sess)
                return
            if not op_item.driver.done:
                self._submit_next(sess, op_item)
                return
            sess.busy = False
            self._busy_count -= 1
            self._emit_driver_result(sess, op_item)
            self._pump_session(sess)
            return
        op_item.collected.append(logits)
        op_item.cursor += 1
        if op_item.cursor < len(op_item.rows):
            self._submit_next(sess, op_item)
            return
        sess.busy = False
        self._busy_count -= 1
        self._emit_result(sess, op_item)
        self._pump_session(sess)

    # -- session lifecycle (pump-only) ---------------------------------
    def _evictable(self) -> list[_WireSession]:
        """Sessions safe to drop right now: not computing, nothing queued."""
        return [
            sess for sess in self._sessions.values()
            if not sess.busy and not sess.ops
        ]

    def _evict_one(self, sess: _WireSession, reason: str) -> None:
        del self._sessions[sess.name]
        self._server.release_session(sess)
        self._evicted[reason] += 1

    def _evict_idle(self, ttl_s: float) -> None:
        """A parent sweep: drop every idle session past its TTL."""
        cutoff = time.monotonic() - ttl_s
        for sess in self._evictable():
            if sess.last_used <= cutoff:
                self._evict_one(sess, "idle")

    def _shed_lru(self) -> bool:
        """Drop the least-recently-used idle session to admit a new one."""
        candidates = self._evictable()
        if not candidates:
            return False
        self._evict_one(min(candidates, key=lambda s: s.last_used), "lru")
        return True

    def _emit_sessions(self, token: str) -> None:
        """Session-table snapshot, straight onto the reply queue."""
        now = time.monotonic()
        self._replies.put(("res", token, None, {
            "ok": True, "type": "sessions", "worker": self._index,
            "sessions": [
                {
                    "session": sess.name,
                    "worker": self._index,
                    "seq": sess.frames,
                    "idle_s": round(max(0.0, now - sess.last_used), 3),
                    "busy": sess.busy or bool(sess.ops),
                }
                for sess in self._sessions.values()
            ],
        }))

    # ------------------------------------------------------------------
    def _next_emit(self) -> int:
        seq = self._emit_seq
        self._emit_seq += 1
        return seq

    def _emit(self, ticket: int, payload: dict) -> None:
        """Control/error reply: always a dict on the queue, in emit order."""
        self._replies.put(("res", ticket, self._next_emit(), payload))
        self._settle_one()

    def _emit_result(self, sess: _WireSession, op_item: _Op) -> None:
        """Logits reply: ring slot when it fits, queue dict otherwise."""
        op_name = _OP_NAMES[op_item.op]
        if op_item.many:
            values = np.ascontiguousarray(
                np.stack(op_item.collected), dtype=np.float64
            )
        else:
            values = np.ascontiguousarray(
                op_item.collected[0], dtype=np.float64
            )
        payload = values.astype("<f8", copy=False).tobytes()
        action = self._faults.on_publish() if self._faults else None
        if action == "drop":
            # A lost reply: no emit_seq is consumed (the op "never
            # replied"), so only this one request hangs parent-side and
            # the client's timeout + reattach is the recovery path.
            self._settle_one()
            return
        self._publish(sess, op_item, op_name, values, payload, action)

    def _emit_driver_result(self, sess: _WireSession, op_item: _Op) -> None:
        """A completed generate/score op's reply.

        ``score`` results are payload arrays and ride the response ring
        like push results (queue fallback when oversized); ``generate``
        results are a small token list and stay on the JSON control
        plane.  Both carry the post-op ``seq`` so the client can verify
        its ``rows_total`` advance.
        """
        result = op_item.driver.result()
        action = self._faults.on_publish() if self._faults else None
        if action == "drop":
            self._settle_one()  # lost reply: client timeout + reattach
            return
        if op_item.op == OP_SCORE:
            values = np.ascontiguousarray(
                result["logprobs"], dtype=np.float64
            )
            payload = values.astype("<f8", copy=False).tobytes()
            self._publish(sess, op_item, "score", values, payload, action)
            return
        self._replies.put(("res", op_item.ticket, self._next_emit(), {
            "ok": True, "type": "generate", "seq": sess.frames,
            "tokens": result["tokens"],
        }))
        self._settle_one()

    def _publish(self, sess: _WireSession, op_item: _Op, op_name: str,
                 values: np.ndarray, payload: bytes,
                 action: str | None) -> None:
        """One payload reply: ring slot + doorbell when it fits, else a
        queue dict carrying the raw bytes."""
        emit_seq = self._next_emit()
        rings = self._rings
        if (
            len(payload) <= rings.responses.payload_capacity
            and rings.responses.try_push(
                op_item.op, op_item.ticket, values.shape, payload,
                seq_no=sess.frames, emit_seq=emit_seq,
            )
        ):
            if action == "corrupt":
                # Published, then torn: the parent's seqlock check must
                # refuse the slot and the supervisor replace this worker.
                rings.responses.corrupt_last_published()
            if rings.ring_kick(responses=True):
                ring_doorbell(self._bell_fd)
        else:
            self._replies.put(("res", op_item.ticket, emit_seq, {
                "ok": True, "type": op_name, "seq": sess.frames,
                "raw": (payload, list(values.shape)),
            }))
        self._settle_one()

    def _settle_one(self) -> None:
        with self._lock:
            self._outstanding -= 1
            if self._outstanding == 0:
                self._idle.notify_all()


class _Consumer:
    """The worker's request loop: queue messages + request-ring drains."""

    def __init__(self, scheduler: _Scheduler, rings: RingPair,
                 requests: Any, replies: Any, server: Any, *,
                 kick: Any, faults: FaultInjector | None = None):
        self._scheduler = scheduler
        self._rings = rings
        self._requests = requests
        self._replies = replies
        self._server = server
        self._kick = kick  # request doorbell (read end); None after EOF
        # The queue's own pipe, polled next to the doorbell so control
        # messages wake the same blocking wait.
        self._queue_reader = requests._reader
        self._faults = faults if faults else None
        self._payloads: deque[bytes] = deque()
        self._shutdown = False

    def run(self) -> None:
        """One blocking wait over the live fds, until ``shutdown``.

        The doorbell pipe carries the per-frame hot-path kicks, the
        queue's reader connection the cold-path control traffic; no
        feeder or relay thread stands between the parent's publish and
        this wake-up.  After the doorbell's EOF only the queue is
        watched, so the same loop serves the post-EOF tail.
        """
        while not self._shutdown:
            ready = wait_readable(
                [fd for fd in (self._kick, self._queue_reader)
                 if fd is not None]
            )
            if self._kick in ready:
                self._take_kick()
            if self._queue_reader in ready and not self._shutdown:
                try:
                    # The drain may already have consumed this message
                    # (an oversized entry's payload): never block here.
                    message = self._requests.get(block=False)
                except Empty:
                    continue
                self._handle(message)

    def _take_kick(self) -> None:
        """Take the doorbell bytes, clear the kick flag, drain the ring.

        The order is the no-lost-wakeup protocol: a publish racing this
        drain either finds the flag still set (its entry is drained
        below) or re-arms it after the clear and rings again.
        """
        if not take_doorbell(self._kick.fileno()):
            # EOF: the parent closed its end (it is replacing or leaving
            # us).  Stop watching the fd rather than spin on it; control
            # traffic — and the shutdown message — still arrive.
            self._kick = None
        self._rings.clear_kick(responses=False)
        self._drain_ring()

    def _handle(self, message: tuple) -> None:
        kind = message[0]
        if kind == "shutdown":
            self._shutdown = True
        elif kind == "payload":
            self._payloads.append(message[1])
        elif kind == "stats":
            self._replies.put(("res", message[1], None, {
                "ok": True,
                "type": "stats",
                "worker": self._scheduler.meta["worker"],
                "stats": self._server.stats().to_dict(),
                **self._scheduler.lifecycle_stats(),
            }))
        elif kind == "sessions":
            self._scheduler.list_sessions(message[1])
        elif kind == "sweep":
            self._scheduler.sweep(message[1])
        elif kind == "hb":
            # Echoed straight back: answered only while this thread can
            # still take work, which is exactly what the probe measures.
            self._replies.put(
                ("hb", self._scheduler.meta["worker"], message[1])
            )

    def _drain_ring(self) -> None:
        ring = self._rings.requests
        while True:
            entry = ring.peek()
            if entry is None:
                return
            if entry.external:
                payload = self._await_payload()
                if payload is None:  # shutdown raced the oversized payload
                    return
            else:
                payload = bytes(entry.payload)
            # Copy out, then free the slot for the parent before the op
            # runs — ring capacity bounds dispatch, never compute.
            ticket, op = entry.ticket, entry.op
            session, shape = entry.session, entry.shape
            ring.advance()
            if self._faults:
                self._faults.on_request()
            self._scheduler.schedule_op(ticket, op, session, payload, shape)

    def _await_payload(self) -> bytes | None:
        """The ring entry was published after its queue payload: take it.

        Other message kinds may sit in between; they are handled inline.
        """
        while not self._payloads:
            self._handle(self._requests.get())
            if self._shutdown:
                return None
        return self._payloads.popleft()


def worker_main(
    index: int,
    artifact_path: str,
    requests: Any,
    replies: Any,
    max_batch: int,
    max_delay_s: float,
    shm_name: str,
    ring_slots: int,
    slot_bytes: int,
    session_cap: int | None,
    faults: list | None,
    kick: Any,
    bell: Any,
) -> None:
    """Entry point of one worker process (spawn-safe, module-level).

    ``shm_name`` names the ring pair the parent created for this
    generation; ``kick`` and ``bell`` are its doorbell pipe ends (the
    request doorbell's read end, the response doorbell's write end).
    """
    # The parent owns interactive shutdown; a Ctrl-C must not produce a
    # worker traceback race while the parent is draining.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass

    threading.Thread(target=_watch_parent, args=(shm_name,),
                     name="parent-watch", daemon=True).start()

    try:
        from repro.runtime.model import CompiledModel
        from repro.runtime.server import Server

        rings = RingPair.attach(shm_name, ring_slots, slot_bytes)
        os.set_blocking(kick.fileno(), False)
        os.set_blocking(bell.fileno(), False)
        compiled = CompiledModel.load(artifact_path)
        server = Server(compiled, max_batch=max_batch, max_delay_s=max_delay_s)
    except BaseException as error:  # noqa: BLE001 — parent must learn of it
        replies.put(("fatal", index, f"worker {index} failed to start: {error}"))
        return

    injector = FaultInjector(index, faults) if faults else None
    scheduler = _Scheduler(index, compiled, server, rings, replies,
                           bell=bell, session_cap=session_cap,
                           faults=injector)
    consumer = _Consumer(scheduler, rings, requests, replies, server,
                         kick=kick, faults=injector)
    replies.put(("ready", index))

    try:
        consumer.run()
    except BaseException as error:  # noqa: BLE001 — parent must learn of it
        replies.put(("fatal", index, f"worker {index} died: {error}"))
    finally:
        # Drain: every accepted op emits its reply (the parent is still
        # pumping this worker's queue), then the micro-batching server
        # closes — which drains its own queued rows in turn.
        scheduler.wait_idle(timeout=30)
        server.close()
        rings.close()
