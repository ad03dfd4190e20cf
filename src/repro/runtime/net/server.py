"""The network front-end: an asyncio TCP server over worker processes.

:class:`NetServer` is the process boundary the runtime stack stops at
after PR 4.  The parent process owns the listening socket and the
connection protocol only — **no model math runs here**.  It spawns
``workers`` worker processes (:mod:`repro.runtime.net.worker`), each of
which loads the compiled ``.npz`` artifact and steps its sessions' rows
in coalesced ``step_rows`` rounds; requests are routed to a worker by a
**stable hash of the session id**, so a named stream's carried recurrent
state stays worker-local for its whole life — across pushes,
connections, and reconnects.

Two framings share every connection (PR 7): NDJSON v1 for all control
traffic and for v1 clients, and the length-prefixed binary v2 frames for
``push``/``push_many`` payloads once a client negotiates ``protocol: 2``
in its ``open`` handshake.  Payloads cross the process boundary through
a per-worker ``multiprocessing.shared_memory`` ring
(:mod:`repro.runtime.net.ring`) — wake-ups are coalesced one-byte
doorbell pipes the event loop watches directly, slots seqlock-checked.
Every worker has its ring pair: a segment that cannot be created is a
spawn failure, not a switch to a slower protocol.  The pickled queues
carry control traffic and payloads larger than a slot.

Flow control is explicit: each connection may have at most
``queue_limit`` requests in flight; one more gets an immediate ``busy``
frame instead of unbounded buffering (the client resends after backoff —
a busy'd frame was *not* applied).  A full request ring or a worker with
every response slot spoken for answers ``busy`` the same way.
``close()`` — and SIGTERM via :meth:`serve_forever` — drains: the
listener stops, in-flight frames complete and their replies flush, then
workers shut down (each finishing the ops it accepted first).

The network-facing half — request reading, the JSON preamble, the loop
thread and the event journal — is :mod:`repro.runtime.net.front`, shared
with the cluster gateway; this module is the policy: admission, ring
dispatch and supervision.

>>> with NetServer(compiled, workers=2) as server:
...     client = Client(*server.address)
...     logits = client.session("stream-7").push(frame)
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import itertools
import json
import os
import tempfile
import threading
import time
import uuid
from collections import deque
from pathlib import Path
from queue import Empty
from typing import Any

from repro.errors import ConfigError
from repro.runtime.net.arrays import frame_payload_bytes, token_payload_bytes
from repro.runtime.net.faults import coerce_faults
from repro.runtime.net.front import BinaryFrame, Front, Journal
from repro.runtime.net.protocol import (
    BIN_REQUEST_NAMES,
    BIN_RESULT,
    BIN_RESULT_MANY,
    BIN_SCORE_RESULT,
    MAX_BIN_NDIM,
    MAX_PROTOCOL,
    PROTOCOL_VERSION,
    SESSION_OPS,
    NetError,
    build_binary_frame,
    check_binary_header,
    error_reply,
)
from repro.runtime.net.ring import (
    OP_CLOSE,
    OP_EVICT,
    OP_GENERATE,
    OP_OPEN,
    OP_PUSH,
    OP_PUSH_MANY,
    OP_RESET,
    OP_SCORE,
    RingError,
    RingPair,
    ring_doorbell,
    take_doorbell,
)

__all__ = ["NetServer", "route_session"]

#: Longest accepted session id — routing keys, not payloads.
_MAX_SESSION_ID = 256

#: Wire op name → worker ring op code.
_WIRE_OPS = {"open": OP_OPEN, "push": OP_PUSH, "push_many": OP_PUSH_MANY,
             "generate": OP_GENERATE, "score": OP_SCORE,
             "reset": OP_RESET, "close": OP_CLOSE, "evict": OP_EVICT}

#: The parent-side fan-out ops (one reply aggregated from every worker).
_FANOUT_OPS = frozenset({"stats", "sessions"})

#: The ops carrying a float64 frame payload in the request.
_PUSH_OPS = frozenset({"push", "push_many"})

#: The ops whose replies occupy a worker response-ring slot (``score``
#: results are payload arrays and ride the ring like push results;
#: ``generate`` replies are small JSON dicts on the queue).
_RING_RESULT_OPS = frozenset({"push", "push_many", "score"})


def route_session(session: str, workers: int) -> int:
    """Worker index for a session id: stable across processes and runs.

    ``hash()`` is salted per process (PYTHONHASHSEED), so it would route
    the same session differently after a restart; a truncated SHA-256 is
    stable everywhere, which is what lets a reconnecting client find its
    carried state again.
    """
    digest = hashlib.sha256(session.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % workers


class _Doorbells:
    """The parent's ends of one worker generation's doorbell pipes.

    ``kick`` wakes the worker after a request-ring publish; ``bell`` is
    the response doorbell the event loop watches with ``add_reader``.
    Both ends are non-blocking.  :meth:`close` is idempotent — EOF,
    worker death and shutdown may each reach it.
    """

    __slots__ = ("gen", "watched", "_kick", "_bell")

    def __init__(self, gen: int, kick: Any, bell: Any):
        self.gen = gen
        self.watched = False  # registered with the event loop
        self._kick = kick
        self._bell = bell
        os.set_blocking(kick.fileno(), False)
        os.set_blocking(bell.fileno(), False)

    @property
    def bell_fd(self) -> int:
        return self._bell.fileno()

    def kick(self) -> None:
        if self._kick is not None:
            ring_doorbell(self._kick.fileno())

    def take(self) -> bool:
        """Swallow pending response wake-ups; False at EOF or once closed."""
        return self._bell is not None and take_doorbell(self._bell.fileno())

    def close(self) -> None:
        for end in (self._kick, self._bell):
            if end is not None:
                end.close()
        self._kick = self._bell = None


class _Spawn:
    """One worker generation as spawned: its process and its channels."""

    __slots__ = ("index", "gen", "proc", "requests", "replies", "rings",
                 "bells")

    def __init__(self, index: int, gen: int, rings: RingPair,
                 bells: _Doorbells):
        self.index = index
        self.gen = gen
        self.proc: Any = None
        self.requests: Any = None
        self.replies: Any = None
        self.rings = rings
        self.bells = bells

    def discard(self) -> None:
        """Tear down a generation that was never installed."""
        if self.proc is not None and self.proc.is_alive():
            self.proc.terminate()
        self.rings.close()
        self.rings.unlink()
        self.bells.close()


class _Conn:
    """Per-connection state; touched only on the event-loop thread."""

    __slots__ = ("id", "writer", "pending", "protocol")

    def __init__(self, conn_id: int, writer: asyncio.StreamWriter):
        self.id = conn_id
        self.writer = writer
        self.pending = 0
        self.protocol = PROTOCOL_VERSION  # raised to 2 by negotiation


class NetServer(Front):
    """Serve one compiled model over TCP, sharded across worker processes.

    ``compiled`` is a :class:`repro.runtime.CompiledModel` (saved to a
    temporary artifact for the workers) or pass ``artifact_path`` to an
    existing ``.npz``.  ``port=0`` binds an ephemeral port — read
    :attr:`address` after :meth:`start`.  ``max_batch`` bounds the rows
    a worker steps in one ``step_rows`` round.  ``queue_limit`` bounds
    each connection's in-flight requests (the ``busy`` threshold).

    Each worker gets a shared-memory ring pair of ``ring_slots`` slots
    of ``slot_bytes`` each; larger payloads ride the request/reply
    queues.  When shared memory cannot be created, :meth:`start` raises
    :class:`~repro.errors.ConfigError`.  ``max_protocol=1`` disables v2
    negotiation entirely (a v1-only server, for compatibility testing).

    Supervision (PR 8): the parent watches every worker (process
    sentinel + heartbeat probes answered on the reply queue).  A worker
    that dies — or stalls past ``heartbeat_timeout_s``, or corrupts a
    response-ring slot — has its in-flight requests failed with
    structured **retryable** error frames, and is respawned from the
    compiled artifact on a fresh shared-memory segment with its
    ``emit_seq`` holdback resynced.  ``restart_budget`` restarts per
    ``restart_window_s`` (per worker) bound the crash-loop: past the
    budget the worker degrades and its shard answers non-retryable
    ``unavailable`` errors instead.  The blast radius is exactly the
    dead worker's sessions; every other worker's streams never notice.
    ``spawn_timeout_s`` caps both the initial spawn and each respawn.

    Session lifecycle: ``session_ttl_s`` evicts sessions idle past the
    TTL (periodic sweeps), ``session_cap`` bounds each worker's table
    with LRU shedding on open.  ``faults`` arms deterministic fault
    injection (see :mod:`repro.runtime.net.faults`) and ``fault_log``
    appends every supervision event to a JSONL file.
    """

    _kind = "net server"
    _thread_name = "repro-net-server"
    _conn_type = _Conn

    def __init__(
        self,
        compiled: Any = None,
        *,
        artifact_path: str | Path | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        max_batch: int = 16,
        queue_limit: int = 32,
        drain_timeout_s: float = 10.0,
        max_protocol: int = MAX_PROTOCOL,
        ring_slots: int = 128,
        slot_bytes: int = 32768,
        spawn_timeout_s: float = 120.0,
        restart_budget: int = 3,
        restart_window_s: float = 60.0,
        heartbeat_timeout_s: float | None = 10.0,
        session_ttl_s: float | None = None,
        session_cap: int | None = None,
        faults: Any = None,
        fault_log: str | Path | None = None,
    ):
        if compiled is None and artifact_path is None:
            raise ConfigError("NetServer needs a compiled model or artifact_path")
        if workers < 1:
            raise ConfigError(f"workers must be positive, got {workers}")
        if max_batch < 1:
            raise ConfigError(f"max_batch must be positive, got {max_batch}")
        if queue_limit < 1:
            raise ConfigError(f"queue_limit must be positive, got {queue_limit}")
        if not PROTOCOL_VERSION <= max_protocol <= MAX_PROTOCOL:
            raise ConfigError(
                f"max_protocol must be {PROTOCOL_VERSION}.."
                f"{MAX_PROTOCOL}, got {max_protocol}"
            )
        if ring_slots < 2:
            raise ConfigError(f"ring_slots must be >= 2, got {ring_slots}")
        if slot_bytes < 1024:
            raise ConfigError(f"slot_bytes must be >= 1024, got {slot_bytes}")
        if spawn_timeout_s <= 0:
            raise ConfigError(
                f"spawn_timeout_s must be positive, got {spawn_timeout_s}"
            )
        if restart_budget < 0:
            raise ConfigError(
                f"restart_budget must be >= 0, got {restart_budget}"
            )
        if restart_window_s <= 0:
            raise ConfigError(
                f"restart_window_s must be positive, got {restart_window_s}"
            )
        if heartbeat_timeout_s is not None and heartbeat_timeout_s <= 0:
            raise ConfigError(
                "heartbeat_timeout_s must be positive or None, got "
                f"{heartbeat_timeout_s}"
            )
        if session_ttl_s is not None and session_ttl_s <= 0:
            raise ConfigError(
                f"session_ttl_s must be positive or None, got {session_ttl_s}"
            )
        if session_cap is not None and session_cap < 1:
            raise ConfigError(
                f"session_cap must be >= 1 or None, got {session_cap}"
            )
        if artifact_path is not None and compiled is None:
            from repro.runtime.model import CompiledModel

            compiled = CompiledModel.load(artifact_path)
        super().__init__(host, port, Journal("repro.net", fault_log))
        self._join_timeout_s = drain_timeout_s + 30
        self._compiled = compiled
        self._artifact_path = Path(artifact_path) if artifact_path else None
        self.workers = workers
        self.max_batch = max_batch
        self.queue_limit = queue_limit
        self.drain_timeout_s = drain_timeout_s
        self.max_protocol = max_protocol
        self.ring_slots = ring_slots
        self.slot_bytes = slot_bytes
        self.spawn_timeout_s = spawn_timeout_s
        self.restart_budget = restart_budget
        self.restart_window_s = restart_window_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.session_ttl_s = session_ttl_s
        self.session_cap = session_cap
        self.faults = coerce_faults(faults)

        # Supervision state.  The per-worker arrays live on the event
        # loop thread once serving; generations invalidate stale pump
        # callbacks after a restart.
        self._gen: list[int] = []
        self._worker_state: list[str] = []  # up|down|restarting|degraded
        self._restarts: list[int] = []
        self._restart_times: list[deque] = []
        self._started_at: list[float] = []
        self._last_hb: list[float] = []
        self._last_hb_sent = 0.0
        self._last_sweep = 0.0
        self._restart_threads: list[threading.Thread] = []
        self.retryable_errors_total = 0

        self._tmpdir: tempfile.TemporaryDirectory | None = None
        self._procs: list[Any] = []
        self._worker_queues: list[Any] = []
        # One reply queue (and pump thread) PER worker, never shared: a
        # worker killed between its queue-feeder's pipe write and lock
        # release would poison a shared queue's write lock and silently
        # hang every *surviving* worker's replies.  Isolated queues bound
        # the blast radius to the dead worker's own (already lost) replies.
        self._reply_queues: list[Any] = []
        # A worker in state "up" has its ring pair and doorbells; the
        # slots of a down, restarting or degraded worker hold None.
        self._rings: list[RingPair | None] = []
        self._doorbells: list[_Doorbells | None] = []
        # (worker index, generation, thread) — the generation lets
        # shutdown skip pumps whose queue a dead worker may have poisoned.
        self._pumps: list[tuple[int, int, threading.Thread]] = []
        self._reaper: asyncio.Task | None = None

        # Event-loop-thread state.  Stats fan-out tracking is keyed by a
        # server-generated token (an unguessable per-server prefix +
        # counter), NOT the client-chosen request id: a client reusing one
        # id for a push and a stats request must not be able to collide a
        # push reply into a stats aggregate and corrupt the admission
        # accounting.
        self._stats_prefix = f"stats:{uuid.uuid4().hex}:"
        self._stats_seq = itertools.count(1)
        # token -> (op, conn_id, rid, parts) for stats/sessions fan-outs.
        self._aggregates: dict[str, tuple[str, int, Any, list[dict]]] = {}
        self._stats_owed: dict[str, set[int]] = {}
        # Session-op dispatch: every in-flight request gets a compact
        # parent-side ticket (the worker echoes it; payload routing never
        # carries the client-chosen rid).  _by_rid backs duplicate-id
        # rejection and reaper accounting.
        self._ticket_seq = itertools.count(1)
        self._inflight_reqs: dict[int, tuple] = {}
        self._by_rid: dict[tuple[int, Any], int] = {}
        # Per-worker response-slot budget and emission-order restore.
        self._ring_results: list[int] = []
        self._emit_expected: list[int] = []
        self._emit_holdback: list[dict[int, tuple]] = []
        self._inflight = 0
        self._draining = False

    # ------------------------------------------------------------------
    def _workload_hello(self) -> dict:
        """Workload metadata advertised in the hello frame.

        ASR servers keep their pre-workload hello byte-identical; a
        token-input server announces its workload (and vocabulary when
        the artifact carries one) so clients can validate token ids and
        decode generated text without a side channel.
        """
        workload = getattr(self._compiled, "workload", "asr")
        if workload == "asr":
            return {}
        extra: dict[str, Any] = {"workload": workload}
        try:
            extra["vocab"] = list(self._compiled.vocab().chars)
        except (ConfigError, AttributeError):
            pass  # token workload without a saved vocabulary
        return extra

    def _hello(self) -> dict:
        return {
            "type": "hello",
            "protocol": PROTOCOL_VERSION,
            "max_protocol": self.max_protocol,
            "backend": self._compiled.backend,
            "input_size": self._compiled.input_size,
            "num_classes": self._compiled.num_classes,
            "workers": self.workers,
            "queue_limit": self.queue_limit,
            **self._workload_hello(),
        }

    def _before_start(self) -> None:
        self._spawn_workers()

    def _opened(self) -> None:
        for index, bells in enumerate(self._doorbells):
            self._watch_doorbell(index, bells)
        self._reaper = asyncio.ensure_future(self._reap_loop())
        self._pumps = [
            (index, 0, threading.Thread(
                target=self._pump_replies,
                args=(index, 0, queue),
                name=f"repro-net-pump-{index}",
                daemon=True,
            ))
            for index, queue in enumerate(self._reply_queues)
        ]
        for _index, _gen, pump in self._pumps:
            pump.start()

    async def _drain(self) -> None:
        """Refuse new work and wait for every dispatched frame's reply
        (the readers stay alive so those replies still reach clients)."""
        self._reaper.cancel()
        self._draining = True
        deadline = time.monotonic() + self.drain_timeout_s
        while self._inflight > 0 and time.monotonic() < deadline:
            # Requests owed by a dead worker can never drain; fail them
            # now rather than waiting out the whole timeout.  (No
            # respawns during drain — _on_worker_down checks _draining.)
            self._supervise_tick()
            await asyncio.sleep(0.005)

    def _teardown(self) -> None:
        for thread in self._restart_threads:
            thread.join(timeout=15)
        self._shutdown_workers()
        if self._tmpdir is not None:
            # The artifact saved for the workers goes with them (a start
            # retried after a failure saves it afresh).
            self._tmpdir.cleanup()
            self._tmpdir = self._artifact_path = None

    # ------------------------------------------------------------------
    # Worker lifecycle (caller threads).
    # ------------------------------------------------------------------
    def _spawn_workers(self) -> None:
        if self._artifact_path is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-net-")
            self._artifact_path = (
                Path(self._tmpdir.name) / f"{self._compiled.fingerprint}.npz"
            )
            self._compiled.save(self._artifact_path)

        count = self.workers
        self._ring_results = [0] * count
        self._emit_expected = [0] * count
        self._emit_holdback = [dict() for _ in range(count)]
        now = time.monotonic()
        self._gen = [0] * count
        self._worker_state = ["up"] * count
        self._restarts = [0] * count
        self._restart_times = [deque() for _ in range(count)]
        self._started_at = [now] * count
        self._last_hb = [now] * count
        self._procs = [None] * count
        self._worker_queues = [None] * count
        self._reply_queues = [None] * count
        self._rings = [None] * count
        self._doorbells = [None] * count
        spawns: list[_Spawn] = []
        try:
            # Start every process before waiting on any: the fleet loads
            # its artifact in parallel.
            for index in range(count):
                spawns.append(self._spawn_worker(index, 0))
                self._place(spawns[-1])
            deadline = time.monotonic() + self.spawn_timeout_s
            for spawn in spawns:
                self._await_ready(spawn, deadline)
        except BaseException:
            self._shutdown_workers()
            raise

    def _spawn_worker(self, index: int, gen: int) -> _Spawn:
        """Start one worker generation: queues, ring, doorbells, process.

        The one spawn path for the initial fleet and every respawn; wait
        for ``ready`` with :meth:`_await_ready`.  Faults arm generation 0
        only — respawns come up clean.
        """
        import multiprocessing as mp

        from repro.runtime.net.worker import worker_main

        # "spawn" everywhere: the parent runs an event loop plus threads,
        # which fork() would duplicate into undefined territory.
        ctx = mp.get_context("spawn")
        try:
            rings = RingPair.create(self.ring_slots, self.slot_bytes)
        except (OSError, ValueError, RingError) as error:
            raise ConfigError(
                f"worker {index}: shared memory is unavailable for its "
                f"ring pair ({error})"
            ) from None
        kick_rx, kick_tx = ctx.Pipe(duplex=False)
        bell_rx, bell_tx = ctx.Pipe(duplex=False)
        spawn = _Spawn(index, gen, rings, _Doorbells(gen, kick_tx, bell_rx))
        spawn.requests, spawn.replies = ctx.Queue(), ctx.Queue()
        for queue in (spawn.requests, spawn.replies):
            # Never let interpreter exit join our feeder threads: a
            # worker killed while holding a queue's write lock leaves
            # that feeder blocked forever, and multiprocessing's atexit
            # finalizer would join it WITHOUT a timeout, hanging the
            # whole process at shutdown.  Everything that must arrive is
            # confirmed out-of-band (worker joins / ready handshakes), so
            # dropping unflushed bytes at exit is safe.
            queue.cancel_join_thread()
        spawn.proc = ctx.Process(
            target=worker_main,
            args=(
                index, str(self._artifact_path), spawn.requests,
                spawn.replies, self.max_batch,
                rings.name, self.ring_slots, self.slot_bytes,
                self.session_cap, (self.faults or None) if gen == 0 else None,
                kick_rx, bell_tx,
            ),
            name=f"repro-net-worker-{index}" + (f"g{gen}" if gen else ""),
            daemon=True,
        )
        try:
            spawn.proc.start()
        except BaseException:
            spawn.discard()
            raise
        finally:
            # The child holds its own copies now.  Closing the parent's
            # is what lets the response doorbell reach EOF when the
            # worker dies.
            kick_rx.close()
            bell_tx.close()
        return spawn

    def _await_ready(self, spawn: _Spawn, deadline: float) -> None:
        """Block until a spawned worker reports ``ready`` (caller thread)."""
        proc = spawn.proc
        while not self._closing:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ConfigError(
                    f"worker {spawn.index} not ready after "
                    f"{self.spawn_timeout_s:g}s (spawn_timeout_s)"
                )
            try:
                message = spawn.replies.get(timeout=min(remaining, 0.2))
            except (Empty, OSError, ValueError):
                if not proc.is_alive() and proc.exitcode not in (0, None):
                    raise ConfigError(
                        f"worker process {proc.name} died during startup"
                    ) from None
                continue
            if message[0] == "ready":
                return
            if message[0] == "fatal":
                raise ConfigError(message[2])
        raise ConfigError("server is closing")

    def _place(self, spawn: _Spawn) -> None:
        """Make a spawned generation the live one for its worker slot."""
        index = spawn.index
        self._procs[index] = spawn.proc
        self._worker_queues[index] = spawn.requests
        self._reply_queues[index] = spawn.replies
        self._rings[index] = spawn.rings
        self._doorbells[index] = spawn.bells

    def _watch_doorbell(self, index: int, bells: _Doorbells) -> None:
        """Route a generation's response doorbell into the event loop."""
        self._loop.add_reader(bells.bell_fd, self._on_doorbell, index, bells)
        bells.watched = True

    def _retire_doorbells(self, bells: _Doorbells | None) -> None:
        """Unregister (if watched) and close one generation's doorbells.

        Event-loop thread, or any thread once the loop has stopped.
        """
        if bells is None:
            return
        if bells.watched:
            bells.watched = False
            if self._loop is not None and not self._loop.is_closed():
                self._loop.remove_reader(bells.bell_fd)
        bells.close()

    def _shutdown_workers(self) -> None:
        for q in self._worker_queues:
            if q is None:
                continue
            try:
                q.put(("shutdown",))
            except (ValueError, OSError):
                # The queue was closed, or its pipe broken by a dead
                # worker; the join/terminate below still reaps the
                # process (worker death is a supervised event, not a
                # surprise).
                pass
        for proc in self._procs:
            if proc is None:
                continue  # an initial spawn failed before this slot
            proc.join(timeout=15)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        for queue in self._reply_queues:
            if queue is None:
                continue
            try:
                queue.put(None)  # stop that worker's pump
            except (ValueError, OSError):
                # A dead worker may have broken the queue; its pump
                # stays a daemon thread by design.
                pass
        for bells in self._doorbells:
            self._retire_doorbells(bells)
        for index, gen, pump in self._pumps:
            # Join only pumps of the CURRENT generation whose worker
            # exited cleanly: a worker that died uncleanly (or an old
            # generation's queue) may have poisoned its reply queue's
            # locks, and that pump can stay blocked (daemon thread)
            # rather than stall close() waiting for a join that cannot
            # succeed.
            proc = self._procs[index] if index < len(self._procs) else None
            current = index < len(self._gen) and gen == self._gen[index]
            if current and (proc is None or proc.exitcode == 0):
                pump.join(timeout=10)
        for rings in self._rings:
            # Workers have exited (or been terminated): the parent owns
            # the segment's end of life.  Slots of a worker that is down
            # or was never spawned hold None.
            if rings is not None:
                rings.close()
                rings.unlink()
        self._rings = []
        self._doorbells = []
        self._pumps = []
        self._procs = []
        self._worker_queues = []
        self._reply_queues = []

    def _pump_replies(self, index: int, gen: int, replies: Any) -> None:
        """Move one worker's replies onto the event loop (which owns conns).

        Only cold-path traffic travels here — control and error replies,
        oversized payloads, heartbeats, fatal reports; ring results wake
        the loop through the response doorbell instead.  Each pump
        serves exactly one worker *generation*; after a restart the
        event-loop handlers drop anything tagged with a stale
        generation, so a late reply from a replaced worker can never
        corrupt the new one's emission order.
        """
        while True:
            message = replies.get()
            if message is None:
                return
            kind = message[0]
            try:
                if kind == "res":
                    _, key, emit_seq, payload = message
                    self._loop.call_soon_threadsafe(
                        self._deliver_queued, index, gen, key, emit_seq,
                        payload,
                    )
                elif kind == "hb":
                    self._loop.call_soon_threadsafe(
                        self._note_heartbeat, index, gen
                    )
                elif kind == "fatal":
                    self._loop.call_soon_threadsafe(
                        self._on_worker_fatal, index, gen, message[2]
                    )
            except RuntimeError:
                return  # loop closed mid-drain; workers are next

    # ------------------------------------------------------------------
    # Event-loop side.
    # ------------------------------------------------------------------
    async def _frame(self, conn: _Conn, frame: BinaryFrame) -> None:
        """One v2 request frame, already read in full.

        The frame is self-delimiting, so every *semantic* defect (bad
        version/op/dtype, shape vs payload mismatch) costs one
        structured JSON error and the connection stays usable.
        """
        header = frame.header
        rid = header.rid
        try:
            check_binary_header(
                header.version, header.opcode, header.dtype_code,
                frame.dims, frame.nbytes, expect_request=True,
            )
        except NetError as error:
            self._write(conn, error_reply(rid, error))
            return
        if conn.protocol < 2:
            self._write(conn, error_reply(rid, (
                "binary framing was not negotiated on this connection; "
                "send an open request with \"protocol\": 2 first"
            )))
            return
        if self._draining:
            self._write(conn, error_reply(
                rid, "server is draining for shutdown; no new work accepted"
            ))
            return
        self._dispatch(
            conn, rid, BIN_REQUEST_NAMES[header.opcode], frame.session,
            frame.payload, frame.dims, binary=True,
        )

    async def _request(self, conn: _Conn, rid: Any, op: str, message: dict,
                       line: bytes) -> None:
        if op == "health":
            # Parent-only: no worker round trip, so it answers even while
            # every worker is down, restarting, or the server is draining.
            self._write(conn, {"id": rid, "ok": True, "type": "health",
                               **self._health_snapshot()})
            return
        if self._draining:
            self._write(conn, error_reply(
                rid, "server is draining for shutdown; no new work accepted"
            ))
            return
        if op in _FANOUT_OPS:
            if not self._admit(conn, rid):
                return
            token = self._stats_prefix + str(next(self._stats_seq))
            parts: list[dict] = []
            owed: set[int] = set()
            for index in range(self.workers):
                if self._worker_state[index] == "up":
                    owed.add(index)
                else:
                    # A worker that cannot answer contributes a synthetic
                    # part instead of wedging the whole aggregate.
                    parts.append({
                        "worker": index, "ok": False,
                        "error": f"worker {index} is "
                                 f"{self._worker_state[index]}",
                    })
            self._aggregates[token] = (op, conn.id, rid, parts)
            self._stats_owed[token] = owed
            for index in sorted(owed):
                try:
                    self._worker_queues[index].put((op, token))
                except (ValueError, OSError):
                    # Broken queue: the supervisor is about to declare the
                    # worker down, and _fill_owed substitutes its part.
                    pass
            self._maybe_finish_aggregate(token)  # all-degraded fleet
            return
        if op in SESSION_OPS:
            session = message.get("session")
            payload = shape = None
            merge = None
            if op in _PUSH_OPS:
                field = "frame" if op == "push" else "frames"
                try:
                    payload, shape = frame_payload_bytes(message.get(field))
                except NetError as error:
                    self._write(conn, error_reply(rid, error))
                    return
            elif op == "score":
                try:
                    payload, shape = token_payload_bytes(
                        message.get("tokens")
                    )
                except NetError as error:
                    self._write(conn, error_reply(rid, error))
                    return
            elif op == "generate":
                # The op parameters travel to the worker as JSON bytes in
                # a payload-shaped slot (shape ()); the worker's driver
                # construction is the validator, so a malformed request
                # fails there with nothing applied.
                params = {
                    key: message[key]
                    for key in ("prompt", "steps", "temperature", "top_k",
                                "seed")
                    if key in message
                }
                try:
                    payload = json.dumps(
                        params, separators=(",", ":"), allow_nan=False
                    ).encode("utf-8")
                except (TypeError, ValueError) as error:
                    self._write(conn, error_reply(
                        rid, f"unencodable generate parameters: {error}"
                    ))
                    return
            elif op == "open":
                # v2 negotiation rides the open handshake: the grant is
                # effective immediately (binary frames may follow before
                # the open reply returns) and acknowledged with
                # "protocol": 2 in the reply.
                want = message.get("protocol")
                if (
                    isinstance(want, int)
                    and want >= 2
                    and self.max_protocol >= 2
                ):
                    conn.protocol = 2
                    merge = {"protocol": 2}
            self._dispatch(
                conn, rid, op, session, payload,
                tuple(shape) if shape else (), merge=merge,
            )
            return
        self._unknown_op(conn, rid, op)

    def _dispatch(
        self,
        conn: _Conn,
        rid: Any,
        op: str,
        session: Any,
        payload: bytes | None,
        shape: tuple[int, ...],
        *,
        binary: bool = False,
        merge: dict | None = None,
    ) -> None:
        """Admission + transport for one session op (event-loop thread)."""
        if not isinstance(session, str) or not session:
            self._write(conn, error_reply(
                rid, f"op {op!r} needs a non-empty string session id"
            ))
            return
        session_bytes = session.encode("utf-8")
        if len(session) > _MAX_SESSION_ID or len(session_bytes) > _MAX_SESSION_ID:
            self._write(conn, error_reply(
                rid, f"session id exceeds {_MAX_SESSION_ID} characters"
            ))
            return
        if len(shape) > MAX_BIN_NDIM:
            self._write(conn, error_reply(
                rid, f"frame shape {list(shape)} has more than "
                f"{MAX_BIN_NDIM} dims"
            ))
            return
        worker = route_session(session, self.workers)
        state = self._worker_state[worker]
        if state == "up" and not self._procs[worker].is_alive():
            # The next supervisor tick would notice anyway; noticing now
            # turns a doomed dispatch into the same retryable error every
            # in-flight request gets.
            self._on_worker_down(
                worker,
                f"process died (exitcode {self._procs[worker].exitcode})",
            )
            state = self._worker_state[worker]
        if state == "degraded":
            self._write(conn, error_reply(rid, (
                f"worker {worker} exceeded its restart budget "
                f"({self.restart_budget} per {self.restart_window_s:g}s) "
                f"and is degraded; session {session!r} is unavailable"
            )))
            return
        if state != "up":
            self.retryable_errors_total += 1
            self._write(conn, error_reply(rid, (
                f"worker process {worker} died and is being restarted; "
                f"session {session!r} and its carried state are lost — "
                "reopen and replay to recover"
            ), retryable=True))
            return
        if (conn.id, rid) in self._by_rid:
            # Reply matching is by id: a duplicate in-flight id would
            # overwrite the tracking entry and leak an admission slot
            # when its reply is mistaken for a reaped duplicate.
            self._write(conn, error_reply(
                rid, f"request id {rid!r} is already in flight on "
                "this connection; ids must be unique until answered"
            ))
            return
        rings = self._rings[worker]  # an "up" worker always has its rings
        if (
            rings.requests.free_slots() < 1
            or (op in _RING_RESULT_OPS
                and self._ring_results[worker] >= rings.nslots)
        ):
            # The worker's ring is saturated: same contract as the
            # per-connection cap — the frame was NOT applied, resend.
            self._write(conn, {
                "id": rid, "ok": False, "type": "busy",
                "limit": self.queue_limit,
            })
            return
        if not self._admit(conn, rid):
            return
        ticket = next(self._ticket_seq)
        self._inflight_reqs[ticket] = (conn.id, rid, worker, binary, merge, op)
        self._by_rid[(conn.id, rid)] = ticket
        if op in _RING_RESULT_OPS:
            self._ring_results[worker] += 1
        external = (
            payload is not None
            and len(payload) > rings.requests.payload_capacity
        )
        if external:
            # Payload first, ring entry second: by the time the worker
            # sees the flagged entry the bytes are already in (or ahead
            # in) its queue — order within the session is the ring's.
            self._worker_queues[worker].put(("payload", payload))
        rings.requests.try_push(
            _WIRE_OPS[op], ticket, shape, None if external else payload,
            session=session_bytes, external=external,
        )
        if rings.ring_kick(responses=False):
            self._doorbells[worker].kick()

    def _admit(self, conn: _Conn, rid: Any) -> bool:
        """Bounded per-connection admission: full queue means ``busy``."""
        if conn.pending >= self.queue_limit:
            self._write(conn, {
                "id": rid,
                "ok": False,
                "type": "busy",
                "limit": self.queue_limit,
            })
            return False
        conn.pending += 1
        self._inflight += 1
        return True

    async def _reap_loop(self) -> None:
        """The supervisor's clock: liveness, heartbeats, TTL sweeps."""
        try:
            while True:
                await asyncio.sleep(0.2)
                self._supervise_tick()
        except asyncio.CancelledError:
            pass

    # ------------------------------------------------------------------
    # Supervision (event-loop thread unless noted).
    # ------------------------------------------------------------------
    def _supervise_tick(self) -> None:
        """One supervisor pass: detect dead/stalled workers, probe, sweep."""
        now = time.monotonic()
        for index in range(self.workers):
            if (index >= len(self._worker_state)
                    or self._worker_state[index] != "up"):
                continue
            proc = self._procs[index] if index < len(self._procs) else None
            if proc is None or not proc.is_alive():
                exitcode = proc.exitcode if proc is not None else None
                self._on_worker_down(
                    index, f"process died (exitcode {exitcode})"
                )
                continue
            timeout = self.heartbeat_timeout_s
            age = now - self._last_hb[index]
            if timeout and age > timeout:
                # Alive but unresponsive (stalled consumer, wedged
                # compute): from a client's perspective that IS death,
                # so make it one and let the restart path recover.
                self._journal.log("heartbeat_timeout", worker=index,
                                  age_s=round(age, 3))
                proc.kill()
                self._on_worker_down(
                    index, f"heartbeat unanswered for {age:.1f}s"
                )
        if self._draining or self._closing:
            return
        timeout = self.heartbeat_timeout_s
        if timeout and now - self._last_hb_sent >= max(0.2, timeout / 5):
            self._last_hb_sent = now
            self._probe_workers(("hb", now))
        ttl = self.session_ttl_s
        if ttl and now - self._last_sweep >= max(0.2, min(1.0, ttl / 4)):
            self._last_sweep = now
            self._probe_workers(("sweep", ttl))

    def _probe_workers(self, message: tuple) -> None:
        for index in range(self.workers):
            if self._worker_state[index] != "up":
                continue
            try:
                self._worker_queues[index].put(message)
            except (ValueError, OSError):
                pass  # queue broken: the liveness check is about to see it

    def _note_heartbeat(self, index: int, gen: int) -> None:
        if index < len(self._gen) and gen == self._gen[index]:
            self._last_hb[index] = time.monotonic()

    def _on_worker_fatal(self, index: int, gen: int, message: str) -> None:
        """The worker announced its own death (unhandled consumer error)."""
        if index >= len(self._gen) or gen != self._gen[index]:
            return
        self._journal.log("worker_fatal", worker=index, message=message)
        proc = self._procs[index]
        if proc.is_alive():
            proc.terminate()
        self._on_worker_down(index, f"worker reported fatal: {message}")

    def _on_worker_down(self, index: int, reason: str) -> None:
        """One worker is gone: fail its in-flight work, plan its return.

        The blast radius is exactly this worker's sessions — every
        in-flight request routed to it gets a structured *retryable*
        error frame, its emission-order state is voided, and (budget
        permitting) a fresh process is spawned from the same artifact.
        Other workers' streams never notice.
        """
        if self._worker_state[index] != "up":
            return  # already being handled
        self._worker_state[index] = "down"
        self._gen[index] += 1  # invalidates the dead generation's pump
        self._journal.log("worker_down", worker=index, reason=reason,
                          restarts=self._restarts[index])
        # Fail in-flight requests BEFORE resetting ring accounting:
        # _settle decrements _ring_results per push op.
        self._fail_worker_inflight(index, reason)
        self._fill_owed(index)
        self._emit_holdback[index].clear()
        self._emit_expected[index] = 0
        self._ring_results[index] = 0
        self._retire_doorbells(self._doorbells[index])
        self._doorbells[index] = None
        self._rings[index].close()
        self._rings[index].unlink()
        self._rings[index] = None
        try:
            # Wake the dead generation's pump so it exits (best-effort:
            # a poisoned queue leaves it a blocked daemon thread).
            self._reply_queues[index].put(None)
        except (ValueError, OSError):
            pass
        self._schedule_restart(index)

    def _fail_worker_inflight(self, index: int, reason: str) -> None:
        for ticket, info in list(self._inflight_reqs.items()):
            if info[2] != index:
                continue
            self._inflight_reqs.pop(ticket, None)
            conn = self._settle(info)
            self.retryable_errors_total += 1
            if conn is not None:
                self._write(conn, error_reply(info[1], (
                    f"worker process {index} died with the request in "
                    f"flight ({reason}); its sessions' carried state is "
                    "lost — reopen and replay to recover"
                ), retryable=True))

    def _fill_owed(self, index: int) -> None:
        """Substitute a synthetic part for a dead worker's owed fan-outs."""
        for token, owed in list(self._stats_owed.items()):
            if index not in owed:
                continue
            owed.discard(index)
            aggregate = self._aggregates.get(token)
            if aggregate is not None:
                aggregate[3].append({
                    "worker": index, "ok": False,
                    "error": f"worker {index} died during aggregation",
                })
            self._maybe_finish_aggregate(token)

    def _schedule_restart(self, index: int) -> None:
        """Budget check, then respawn on a thread (never the event loop)."""
        if self._draining or self._closing:
            return  # shutting down; _shutdown_workers owns the rest
        times = self._restart_times[index]
        now = time.monotonic()
        while times and now - times[0] > self.restart_window_s:
            times.popleft()
        if len(times) >= self.restart_budget:
            self._worker_state[index] = "degraded"
            self._journal.log(
                "worker_degraded", worker=index,
                restarts_in_window=len(times),
                window_s=self.restart_window_s,
            )
            return
        times.append(now)
        self._restarts[index] += 1
        self._worker_state[index] = "restarting"
        gen = self._gen[index]
        thread = threading.Thread(
            target=self._restart_worker,
            args=(index, gen),
            name=f"repro-net-restart-{index}g{gen}",
            daemon=True,
        )
        self._restart_threads.append(thread)
        thread.start()

    def _restart_worker(self, index: int, gen: int) -> None:
        """Respawn one worker from the artifact (restart thread).

        The spawn and ready-wait take whole seconds (interpreter +
        numpy + artifact load), far too long for the event loop; only
        the final installation hop is marshalled back onto it.
        """
        began = time.monotonic()
        spawn = None
        try:
            spawn = self._spawn_worker(index, gen)
            self._await_ready(spawn, began + self.spawn_timeout_s)
            box = {"installed": False}
            done = threading.Event()

            def install() -> None:
                try:
                    box["installed"] = self._install_worker(spawn, began)
                finally:
                    done.set()

            self._loop.call_soon_threadsafe(install)
            if not done.wait(timeout=15) or not box["installed"]:
                raise ConfigError(
                    f"worker {index} respawn could not be installed"
                )
        except (ConfigError, OSError, ValueError, RuntimeError) as error:
            if spawn is not None:
                spawn.discard()
            try:
                self._loop.call_soon_threadsafe(
                    self._on_restart_failed, index, gen, str(error)
                )
            except RuntimeError:
                pass  # loop gone; close() owns the cleanup from here

    def _install_worker(self, spawn: _Spawn, began: float) -> bool:
        """Adopt a respawned worker (event loop).  False rejects it."""
        index, gen = spawn.index, spawn.gen
        if (
            self._closing
            or self._draining
            or index >= len(self._gen)
            or gen != self._gen[index]
            or self._worker_state[index] != "restarting"
        ):
            return False
        self._place(spawn)
        self._watch_doorbell(index, spawn.bells)
        now = time.monotonic()
        self._worker_state[index] = "up"
        self._started_at[index] = now
        self._last_hb[index] = now
        self._emit_expected[index] = 0
        self._emit_holdback[index].clear()
        self._ring_results[index] = 0
        pump = threading.Thread(
            target=self._pump_replies,
            args=(index, gen, spawn.replies),
            name=f"repro-net-pump-{index}g{gen}",
            daemon=True,
        )
        self._pumps.append((index, gen, pump))
        pump.start()
        self._journal.log(
            "worker_restarted", worker=index, generation=gen,
            took_ms=round((now - began) * 1000, 1),
        )
        return True

    def _on_restart_failed(self, index: int, gen: int, reason: str) -> None:
        """A respawn attempt died; the budget decides retry vs degrade."""
        if (
            index >= len(self._gen)
            or gen != self._gen[index]
            or self._worker_state[index] != "restarting"
        ):
            return
        self._journal.log("worker_restart_failed", worker=index,
                          reason=reason)
        self._worker_state[index] = "down"
        self._schedule_restart(index)

    def _worker_health(self, index: int) -> dict:
        now = time.monotonic()
        state = self._worker_state[index]
        return {
            "state": state,
            "restarts": self._restarts[index],
            "uptime_s": (
                round(now - self._started_at[index], 3)
                if state == "up" else 0.0
            ),
        }

    def _supervisor_summary(self) -> dict:
        return {
            "restarts_total": sum(self._restarts),
            "retryable_errors_total": self.retryable_errors_total,
            "degraded": [
                index for index, state in enumerate(self._worker_state)
                if state == "degraded"
            ],
        }

    def _health_snapshot(self) -> dict:
        """The parent-only ``health`` reply: no worker round trip, so it
        answers even while every worker is down or restarting."""
        now = time.monotonic()
        entries = []
        for index in range(self.workers):
            proc = self._procs[index] if index < len(self._procs) else None
            entries.append({
                "worker": index,
                "state": self._worker_state[index],
                "alive": bool(proc is not None and proc.is_alive()),
                "generation": self._gen[index],
                "restarts": self._restarts[index],
                "uptime_s": round(now - self._started_at[index], 3),
                "heartbeat_age_s": round(now - self._last_hb[index], 3),
            })
        return {
            "workers": entries,
            "draining": self._draining,
            **self._supervisor_summary(),
        }

    # -- worker reply paths (event-loop thread) ------------------------
    def _on_doorbell(self, worker: int, bells: _Doorbells) -> None:
        """A response doorbell is readable (``add_reader`` callback)."""
        if not bells.take():
            # EOF: the worker's end closed, so the worker exited.
            # Unregister first so the loop never spins on a dead fd; the
            # supervisor tick owns the death itself.  Results it
            # published before dying are still drained below.
            self._retire_doorbells(bells)
        self._drain_responses(worker, bells.gen)

    def _drain_responses(self, worker: int, gen: int) -> None:
        """Clear the response kick, then drain the response ring."""
        if worker >= len(self._rings) or gen != self._gen[worker]:
            return  # a replaced generation's doorbell; its ring is gone
        rings = self._rings[worker]  # the current generation is "up"
        rings.clear_kick(responses=True)
        ring = rings.responses
        while True:
            try:
                entry = ring.peek()
            except RingError as error:
                # A torn slot means the worker died mid-publish or the
                # segment is corrupt; either way nothing it publishes can
                # be trusted again — replace the worker.  Drop the prior
                # iteration's entry first: its payload view would keep
                # the doomed segment mapped through the close below.
                entry = None  # noqa: F841
                proc = self._procs[worker]
                if proc.is_alive():
                    proc.kill()
                self._on_worker_down(
                    worker,
                    f"response ring failed its seqlock check: {error}",
                )
                return
            if entry is None:
                return
            item = ("slot", entry.op, entry.seq_no,
                    bytes(entry.payload), entry.shape, entry.ticket)
            ring.advance()
            self._deliver_ordered(worker, entry.emit_seq, item)

    def _deliver_queued(self, worker: int, gen: int, key: Any,
                        emit_seq: Any, payload: dict) -> None:
        """A queue reply arrived (fan-out token or ticketed dict)."""
        if worker >= len(self._gen) or gen != self._gen[worker]:
            return  # late reply from a replaced worker; already failed
        if isinstance(key, str):
            self._deliver_fanout_part(key, payload)
            return
        if emit_seq is None:
            self._deliver_item(("dict", key, payload))
            return
        self._deliver_ordered(worker, emit_seq, ("dict", key, payload))

    def _deliver_ordered(self, worker: int, emit_seq: int,
                         item: tuple) -> None:
        """Restore the worker's emission order across ring + queue paths."""
        holdback = self._emit_holdback[worker]
        holdback[emit_seq] = item
        while self._emit_expected[worker] in holdback:
            next_item = holdback.pop(self._emit_expected[worker])
            self._emit_expected[worker] += 1
            self._deliver_item(next_item)

    def _deliver_item(self, item: tuple) -> None:
        if item[0] == "slot":
            _, opcode, seq_no, payload, shape, ticket = item
            info = self._inflight_reqs.pop(ticket, None)
            if info is None:
                return  # reaped: the client already has its error
            conn = self._settle(info)
            if conn is None:
                return
            self._write_result(conn, info, seq_no, payload, list(shape))
            return
        _, ticket, payload = item
        info = self._inflight_reqs.pop(ticket, None)
        if info is None:
            return
        conn = self._settle(info)
        if conn is None:
            return
        raw = payload.pop("raw", None)
        if raw is not None:
            self._write_result(conn, info, payload.get("seq", 0), *raw)
            return
        merge = info[4]
        if merge:
            payload = {**payload, **merge}
        self._write(conn, {"id": info[1], **payload})

    def _write_result(self, conn: _Conn, info: tuple, seq_no: int,
                      payload: bytes, shape: list[int]) -> None:
        """One push/push_many/score result, framed to mirror its request."""
        _conn_id, rid, _worker, binary, _merge, op = info
        if conn.writer.is_closing():
            return  # the peer left; its replies have no reader
        if binary:
            opcode = {"push": BIN_RESULT, "push_many": BIN_RESULT_MANY,
                      "score": BIN_SCORE_RESULT}[op]
            try:
                conn.writer.write(build_binary_frame(
                    opcode, rid, shape, payload, seq=seq_no
                ))
            except Exception:  # repro: ignore[REP005] connection torn down mid-write; the reader path cleans up
                pass
            return
        key = "logprobs" if op == "score" else "logits"
        self._write(conn, {
            "id": rid, "ok": True, "type": op, "seq": seq_no,
            key: {
                "dtype": "<f8",
                "shape": shape,
                "b64": base64.b64encode(payload).decode("ascii"),
            },
        })

    def _deliver_fanout_part(self, token: str, payload: dict) -> None:
        """One worker's contribution to a stats/sessions aggregate."""
        aggregate = self._aggregates.get(token)
        if aggregate is None:
            return  # already answered (synthetic fill or failure)
        owed = self._stats_owed.get(token)
        if owed is not None:
            owed.discard(payload.get("worker"))
        aggregate[3].append(payload)
        self._maybe_finish_aggregate(token)

    def _maybe_finish_aggregate(self, token: str) -> None:
        """Answer a fan-out once no worker owes it a part."""
        owed = self._stats_owed.get(token)
        if owed is None or owed:
            return
        del self._stats_owed[token]
        aggregate = self._aggregates.pop(token, None)
        if aggregate is None:
            return
        kind, conn_id, rid, parts = aggregate
        parts.sort(key=lambda part: part.get("worker", 0))
        if kind == "sessions":
            sessions: list[dict] = []
            for part in parts:
                sessions.extend(part.get("sessions", ()))
            self._finish(conn_id, rid, {
                "ok": True, "type": "sessions",
                "sessions": sessions, "workers": parts,
            })
            return
        self._finish(conn_id, rid, {
            "ok": True, "type": "stats", "workers": parts,
            "supervisor": self._supervisor_summary(),
        })

    def _settle(self, info: tuple) -> _Conn | None:
        """Release one ticketed request's accounting; None if conn gone."""
        conn_id, rid, worker, _binary, _merge, op = info
        self._by_rid.pop((conn_id, rid), None)
        if op in _RING_RESULT_OPS:
            self._ring_results[worker] -= 1
        self._inflight -= 1
        conn = self._conns.get(conn_id)
        if conn is None:
            return None  # client went away; the frame still ran
        conn.pending -= 1
        return conn

    def _finish(self, conn_id: int, rid: Any, payload: dict) -> None:
        """Settle one stats-style request: accounting, then the reply."""
        self._inflight -= 1
        conn = self._conns.get(conn_id)
        if conn is None:
            return  # client went away
        conn.pending -= 1
        self._write(conn, {"id": rid, **payload})
