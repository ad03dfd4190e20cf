"""The serving worker process of :mod:`repro.runtime.net`.

Each worker is one OS process that loads the compiled ``.npz`` artifact
from disk and steps its sessions' rows on the backend executor — numpy
compute in ``N`` workers scales across cores where one Python process
cannot.  Session state lives here: the parent routes every request for
a session name to the same worker (stable hash), so the recurrent state
never crosses a process boundary.

Scheduling is one loop on one thread, hosting the round core of
:mod:`repro.runtime.rounds` that the in-process
:class:`~repro.runtime.Server` runs too.  Each pass drains the request
ring and the control queue (without blocking while any session is
busy), then steps one round in one ``step_rows`` call, so a long
``push_many`` shares the rounds with other sessions, heartbeats and
``stats`` instead of holding them off until it ends.  What this module
adds is the wire policy: request decoding, the control ops' replies,
the session table's TTL and LRU cap, publishing results, and faults.

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
import select
import signal
import threading
import time
from collections import deque
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
from repro.runtime.rounds import Lane, Op, Rounds, ServerStats

__all__ = ["worker_main"]

#: The reply ``type`` of each op whose result is a payload.
_OP_NAMES = {OP_PUSH: "push", OP_PUSH_MANY: "push_many", OP_SCORE: "score"}


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


class _WireSession(Lane):
    """One named stream's worker-side lane."""

    __slots__ = ("name", "last_used")

    def __init__(self, name: str, state: Any):
        super().__init__(state)
        self.name = name
        self.last_used = time.monotonic()  # refreshed by every op


class _Scheduler:
    """Every session of one worker, on the round core.

    Single-threaded: the consumer thread calls every method, so no
    state here needs a lock.
    """

    def __init__(self, index: int, compiled: Any, rings: RingPair,
                 replies: Any, *, bell: Any, max_batch: int,
                 session_cap: int | None = None,
                 faults: FaultInjector | None = None):
        self._index = index
        self._executor = compiled.executor()
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
        self._sessions: dict[str, _WireSession] = {}
        self._rounds = Rounds(max_batch, done=self._done,
                              control=self._control)
        self._emit_seq = 0
        self._evicted = {"idle": 0, "lru": 0, "admin": 0}
        self._opened = 0

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True while some session has a row to step."""
        return self._rounds.busy

    def stats(self) -> ServerStats:
        """Row and round counters for the ``stats`` reply."""
        return self._rounds.stats(sessions_opened=self._opened,
                                  sessions_active=len(self._sessions))

    def lifecycle_stats(self) -> dict:
        """Session-table counters for the ``stats`` reply."""
        return {
            "sessions": len(self._sessions),
            "evicted_idle": self._evicted["idle"],
            "evicted_lru": self._evicted["lru"],
            "evicted_admin": self._evicted["admin"],
        }

    def step_round(self) -> None:
        """Step one round of the core in one ``step_rows`` call."""
        rows, states = self._rounds.take()
        try:
            logits, states = self._executor.step_rows(rows, states)
        except Exception as error:  # noqa: BLE001 — relayed to the clients
            self._rounds.fail(error)
        else:
            self._rounds.give(logits, states)

    def finish(self, timeout: float) -> None:
        """Step rounds until every accepted op has replied (shutdown)."""
        deadline = time.monotonic() + timeout
        while self.busy and time.monotonic() < deadline:
            self.step_round()

    # ------------------------------------------------------------------
    def accept(self, ticket: int, op: int, session: str,
               payload: bytes | None, shape: tuple[int, ...]) -> None:
        """Take one parent request off the ring."""
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
            sess = _WireSession(session, self._executor.initial_state(1))
            self._sessions[session] = sess
            self._opened += 1
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
        self._rounds.submit(sess, Op(op, ticket, rows=rows, driver=driver))

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

    def _control(self, sess: _WireSession, op_item: Op) -> None:
        """A control op's turn has come: apply it and reply."""
        if op_item.kind == OP_OPEN:
            self._emit(op_item.ticket, {
                "ok": True, "type": "open", "session": sess.name,
                "existing": True, "seq": sess.frames, **self.meta,
            })
        elif op_item.kind == OP_RESET:
            sess.state = self._executor.initial_state(1)
            sess.frames = 0
            self._emit(op_item.ticket, {"ok": True, "type": "reset"})
        else:  # OP_CLOSE, OP_EVICT
            del self._sessions[sess.name]
            for stale in sess.ops:
                self._emit(stale.ticket, _error(ReproError(
                    f"session {sess.name!r} was closed with this "
                    "request still queued behind the close"
                )))
            sess.ops.clear()
            if op_item.kind == OP_EVICT:
                self._evicted["admin"] += 1
                self._emit(op_item.ticket, {
                    "ok": True, "type": "evict", "session": sess.name,
                    "evicted": True,
                })
            else:
                self._emit(op_item.ticket, {"ok": True, "type": "close"})

    def _done(self, sess: _WireSession, op_item: Op) -> None:
        """A row op finished: reply with its result or its error.

        Payload results (push, push_many, score) ride the response ring
        when they fit; ``generate``'s small token list stays on the JSON
        control plane.  Each carries the post-op ``seq`` so the client
        can verify its advance.
        """
        sess.last_used = time.monotonic()
        if op_item.error is not None:
            # A driver's feed error leaves the session advanced by the
            # rows already fed; the client's seq reconcile (reattach +
            # journal replay) restores a known state.
            self._emit(op_item.ticket, _error(op_item.error))
            return
        action = self._faults.on_publish() if self._faults else None
        if action == "drop":
            # A lost reply: no emit_seq is consumed (the op "never
            # replied"), so only this one request hangs parent-side and
            # the client's timeout + reattach is the recovery path.
            return
        if op_item.kind == OP_GENERATE:
            self._replies.put(("res", op_item.ticket, self._next_emit(), {
                "ok": True, "type": "generate", "seq": sess.frames,
                "tokens": op_item.driver.result()["tokens"],
            }))
            return
        if op_item.kind == OP_SCORE:
            values = op_item.driver.result()["logprobs"]
        elif op_item.kind == OP_PUSH_MANY:
            values = np.stack(op_item.collected)
        else:
            values = op_item.collected[0]
        self._publish(sess, op_item,
                      np.ascontiguousarray(values, dtype=np.float64), action)

    # -- session lifecycle ---------------------------------------------
    def _evictable(self) -> list[_WireSession]:
        """Sessions safe to drop right now: not computing, nothing queued."""
        return [
            sess for sess in self._sessions.values()
            if not sess.busy and not sess.ops
        ]

    def _evict_one(self, sess: _WireSession, reason: str) -> None:
        del self._sessions[sess.name]
        self._evicted[reason] += 1

    def sweep(self, ttl_s: float) -> None:
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

    def list_sessions(self, token: str) -> None:
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

    def _publish(self, sess: _WireSession, op_item: Op, values: np.ndarray,
                 action: str | None) -> None:
        """One payload reply: ring slot + doorbell when it fits, else a
        queue dict carrying the raw bytes."""
        payload = values.astype("<f8", copy=False).tobytes()
        emit_seq = self._next_emit()
        rings = self._rings
        if (
            len(payload) <= rings.responses.payload_capacity
            and rings.responses.try_push(
                op_item.kind, op_item.ticket, values.shape, payload,
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
                "ok": True, "type": _OP_NAMES[op_item.kind],
                "seq": sess.frames,
                "raw": (payload, list(values.shape)),
            }))


class _Consumer:
    """The worker's one loop: take what arrived, then step a round."""

    def __init__(self, scheduler: _Scheduler, rings: RingPair,
                 requests: Any, replies: Any, *,
                 kick: Any, faults: FaultInjector | None = None):
        self._scheduler = scheduler
        self._rings = rings
        self._requests = requests
        self._replies = replies
        self._kick = kick  # request doorbell (read end); None after EOF
        # The queue's own pipe, polled next to the doorbell so control
        # messages wake the same wait.
        self._queue_fd = requests._reader.fileno()
        self._poller = select.poll()
        self._poller.register(kick.fileno(), select.POLLIN)
        self._poller.register(self._queue_fd, select.POLLIN)
        self._faults = faults if faults else None
        self._payloads: deque[bytes] = deque()
        self._shutdown = False

    def run(self) -> None:
        """Rounds until ``shutdown``.

        The doorbell pipe carries the per-frame hot-path kicks, the
        queue's reader connection the cold-path control traffic; no
        feeder or relay thread stands between the parent's publish and
        this wake-up.  The wait blocks only while no session is busy;
        otherwise it just looks, so whatever arrived joins the next
        round.  After the doorbell's EOF only the queue is watched, so
        the same loop serves the post-EOF tail.
        """
        scheduler = self._scheduler
        while not self._shutdown:
            ready = self._poller.poll(0 if scheduler.busy else None)
            for fd, _ in ready:
                if fd == self._queue_fd:
                    self._drain_queue()
                else:
                    self._take_kick()
            if scheduler.busy and not self._shutdown:
                scheduler.step_round()

    def _drain_queue(self) -> None:
        while not self._shutdown:
            try:
                # The ring drain may already have consumed a message
                # (an oversized entry's payload): never block here.
                message = self._requests.get(block=False)
            except Empty:
                return
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
            self._poller.unregister(self._kick.fileno())
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
                "stats": self._scheduler.stats().to_dict(),
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
            self._scheduler.accept(ticket, op, session, payload, shape)

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

        rings = RingPair.attach(shm_name, ring_slots, slot_bytes)
        os.set_blocking(kick.fileno(), False)
        os.set_blocking(bell.fileno(), False)
        injector = FaultInjector(index, faults) if faults else None
        scheduler = _Scheduler(index, CompiledModel.load(artifact_path),
                               rings, replies, bell=bell,
                               max_batch=max_batch, session_cap=session_cap,
                               faults=injector)
    except BaseException as error:  # noqa: BLE001 — parent must learn of it
        replies.put(("fatal", index, f"worker {index} failed to start: {error}"))
        return

    consumer = _Consumer(scheduler, rings, requests, replies,
                         kick=kick, faults=injector)
    replies.put(("ready", index))

    try:
        consumer.run()
        # Drain: every accepted op steps to its reply (the parent is
        # still pumping this worker's queue) before the rings close.
        scheduler.finish(timeout=30)
    except BaseException as error:  # noqa: BLE001 — parent must learn of it
        replies.put(("fatal", index, f"worker {index} died: {error}"))
    finally:
        rings.close()
