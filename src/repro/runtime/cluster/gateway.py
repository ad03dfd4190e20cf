"""The cluster tier: a consistent-hash gateway over N NetServer backends.

:class:`Gateway` is the layer above :class:`repro.runtime.net.NetServer`
— one TCP front door for a fleet of backend servers, speaking the
existing v1/v2 wire protocol *transparently*: a client dials the gateway
exactly as it would dial a single server, and every session op is
forwarded verbatim to the backend that owns the session.  Binary v2
frames are proxied **without re-encode** — the gateway reads the fixed
header (to learn the routing session id and request id), then forwards
the original bytes; payloads are never decoded to arrays.

Routing is a SHA-256 vnode ring (:mod:`repro.runtime.cluster.hashring`),
not modulo: adding or removing one of ``N`` backends remaps only ~1/N of
sessions.  A **placement table** pins each opened session to the backend
its ``open`` chose, so ring changes never move a *live* stream — only
sessions that re-place (reattach after their backend died, or reopen
after an eviction) walk the new ring.

Failure model — built on the PR 8 reattach contract:

* A backend that drops its connections or misses ``down_after`` health
  probes is marked **down**: its placements are dropped, every in-flight
  request to it is answered with the existing structured *retryable*
  error frame, and new requests route around it.  A reattaching
  :class:`~repro.runtime.net.client.NetSession` then reconnects, reopens
  (landing on the ring's next backend), sees ``seq: 0``, and replays its
  journal — the stream continues **byte-identically** on the new node.
* ``cluster_drain`` rolls a backend out without dropping a frame: new
  placement stops immediately, pinned sessions either finish on their
  own (close / idle-TTL eviction) or are force-migrated by evicting them
  — which triggers exactly the reattach replay above — and once the
  backend reports zero sessions it is removed from the ring.

The gateway is a policy on the front it shares with NetServer
(:mod:`repro.runtime.net.front`): request reading, the JSON preamble,
the loop thread and the event journal are that module's.

The gateway's own control plane (``cluster_health``, ``cluster_drain``,
``cluster_undrain``, ``cluster_add``) rides the same NDJSON framing as
every other op, so :class:`~repro.runtime.net.client.Client` drives it
with plain requests.

>>> with Gateway(["127.0.0.1:7001", "127.0.0.1:7002"]) as gw:
...     client = Client(*gw.address)
...     logits = client.session("stream-7").push(frame)  # routed + pinned
"""

from __future__ import annotations

import asyncio
import itertools
import json
from collections import Counter
from typing import Any, Iterable

from repro.errors import ConfigError
from repro.runtime.cluster.hashring import DEFAULT_VNODES, HashRing
from repro.runtime.net.front import (
    BinaryFrame,
    FrameReader,
    Front,
    Journal,
    read_binary_frame,
)
from repro.runtime.net.protocol import (
    BIN_MAGIC,
    BIN_REQUEST_NAMES,
    CLUSTER_OPS,
    MAX_FRAME_BYTES,
    MAX_LINE_BYTES,
    OPS,
    SESSION_OPS,
    FramingError,
    NetError,
    dump_line,
    error_reply,
    parse_line,
)

__all__ = ["Gateway", "backend_key"]

#: Ops fanned out to every reachable backend over the admin connections.
_FANOUT_OPS = frozenset({"stats", "sessions"})

#: Session ops whose ok reply releases the session's placement.
_RELEASE_OPS = frozenset({"close", "evict"})


def backend_key(spec: Any) -> str:
    """Normalize a backend spec (``"host:port"`` or ``(host, port)``)."""
    if isinstance(spec, str):
        host, sep, port = spec.rpartition(":")
        if not sep or not host or not port.isdigit():
            raise ConfigError(
                f"backend spec {spec!r} is not 'host:port'"
            )
        return f"{host}:{int(port)}"
    try:
        host, port = spec
        return f"{host}:{int(port)}"
    except (TypeError, ValueError):
        raise ConfigError(
            f"backend spec {spec!r} is not 'host:port' or (host, port)"
        ) from None


class _Backend:
    """One backend's gateway-side record (event-loop thread)."""

    __slots__ = ("key", "host", "port", "state", "hello", "misses",
                 "writer", "frames", "admin_lock", "prober",
                 "drain_task", "remaining", "last_health")

    def __init__(self, key: str):
        self.key = key
        host, _, port = key.rpartition(":")
        self.host = host
        self.port = int(port)
        self.state = "up"  # up | down | draining | removed
        self.hello: dict = {}
        self.misses = 0
        self.writer = None       # admin connection (prober + fan-outs)
        self.frames: FrameReader | None = None
        self.admin_lock: asyncio.Lock | None = None
        self.prober: asyncio.Task | None = None
        self.drain_task: asyncio.Task | None = None
        self.remaining = 0       # sessions left at the last drain poll
        self.last_health: dict = {}

    def placeable(self) -> bool:
        """May this backend keep serving its *pinned* sessions?"""
        return self.state in ("up", "draining")


class _Upstream:
    """One lazily dialed (client connection, backend) forwarding link."""

    __slots__ = ("key", "writer", "frames", "pending", "pump", "gone",
                 "binary")

    def __init__(self, key: str, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.key = key
        self.writer = writer
        self.frames = FrameReader(reader)
        self.pending: dict[Any, tuple[str, str]] = {}  # rid -> (op, session)
        self.pump: asyncio.Task | None = None
        self.gone = False
        self.binary = False      # has this link granted protocol v2?


class _ClientConn:
    """Per-client-connection state (event-loop thread only)."""

    __slots__ = ("id", "writer", "upstreams")

    def __init__(self, conn_id: int, writer: asyncio.StreamWriter):
        self.id = conn_id
        self.writer = writer
        self.upstreams: dict[str, _Upstream] = {}


class Gateway(Front):
    """Front N NetServer backends behind one consistent-hash TCP endpoint.

    ``backends`` are ``"host:port"`` specs (or ``(host, port)`` pairs) of
    running :class:`~repro.runtime.net.NetServer` instances; all of them
    must be reachable — and serving the same model shape — at
    :meth:`start`.  ``port=0`` binds an ephemeral port; read
    :attr:`address` after start.

    Health probing: every ``probe_interval_s`` each backend's ``health``
    op is polled on a dedicated admin connection; ``down_after``
    consecutive misses (or any connection-level failure on a forwarding
    link) marks the backend down.  A down backend keeps being probed and
    rejoins placement when its probes answer again.

    ``drain_timeout_s`` is the default ``cluster_drain`` wait before the
    reply reports progress instead of completion (the drain keeps
    running in the background either way).
    """

    _kind = "gateway"
    _thread_name = "repro-gateway"
    _start_timeout_s = 60.0
    _ops = OPS + CLUSTER_OPS
    _conn_type = _ClientConn

    def __init__(
        self,
        backends: Iterable[Any],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        vnodes: int = DEFAULT_VNODES,
        probe_interval_s: float = 0.5,
        probe_timeout_s: float = 5.0,
        down_after: int = 3,
        connect_timeout_s: float = 10.0,
        drain_poll_s: float = 0.25,
        drain_timeout_s: float = 30.0,
    ):
        keys = [backend_key(spec) for spec in backends]
        if not keys:
            raise ConfigError("Gateway needs at least one backend")
        if len(set(keys)) != len(keys):
            raise ConfigError(f"duplicate backends in {keys}")
        if probe_interval_s <= 0 or probe_timeout_s <= 0:
            raise ConfigError("probe interval/timeout must be positive")
        if down_after < 1:
            raise ConfigError(f"down_after must be >= 1, got {down_after}")
        super().__init__(host, port, Journal("repro.cluster"))
        self._backend_keys = keys
        self._vnodes = vnodes
        self._probe_interval_s = probe_interval_s
        self._probe_timeout_s = probe_timeout_s
        self._down_after = down_after
        self._connect_timeout_s = connect_timeout_s
        self._drain_poll_s = drain_poll_s
        self._drain_timeout_s = drain_timeout_s

        # Event-loop-thread state (no locks: the loop owns all of it).
        self._backends: dict[str, _Backend] = {}
        self._removed: list[str] = []
        self._ring = HashRing(vnodes=vnodes)
        self._placements: dict[str, str] = {}  # session -> backend key
        self._admin_ids = itertools.count(1)
        self._hello_meta: dict = {}
        self.retryable_errors_total = 0

    # ------------------------------------------------------------------
    # Lifecycle hooks (the loop thread itself is the shared front's).
    # ------------------------------------------------------------------
    async def _open(self) -> None:
        for key in self._backend_keys:
            backend = _Backend(key)
            backend.admin_lock = asyncio.Lock()
            await self._admin_connect(backend)  # raises if unreachable
            self._check_meta(backend)
            self._backends[key] = backend
            self._ring.add(key)

    def _opened(self) -> None:
        for backend in self._backends.values():
            backend.prober = asyncio.ensure_future(self._probe_loop(backend))

    async def _stopped(self) -> None:
        tasks = []
        for backend in self._backends.values():
            for task in (backend.prober, backend.drain_task):
                if task is not None:
                    tasks.append(task)
                    task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for backend in self._backends.values():
            await self._admin_close(backend)

    def _check_meta(self, backend: _Backend) -> None:
        """Every backend must serve the same model shape — a fleet that
        disagrees on ``input_size``/``num_classes`` would answer a
        session's frames differently depending on placement, which is a
        deployment error, not a routing decision."""
        hello = backend.hello
        if not self._hello_meta:
            self._hello_meta = {
                "backend": hello.get("backend"),
                "input_size": hello.get("input_size"),
                "num_classes": hello.get("num_classes"),
                # Workload metadata (absent on ASR backends) passes
                # through so LM clients can validate tokens and decode
                # text against the gateway exactly as against one server.
                "workload": hello.get("workload"),
                "vocab": hello.get("vocab"),
            }
            return
        for field in ("backend", "input_size", "num_classes", "workload",
                      "vocab"):
            if hello.get(field) != self._hello_meta[field]:
                raise ConfigError(
                    f"backend {backend.key} serves {field}="
                    f"{hello.get(field)!r} but the fleet serves "
                    f"{self._hello_meta[field]!r}; one gateway fronts one "
                    "model"
                )

    # ------------------------------------------------------------------
    # Admin connections (prober, fan-outs, drain polls).
    # ------------------------------------------------------------------
    async def _admin_connect(self, backend: _Backend) -> None:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(backend.host, backend.port),
            self._connect_timeout_s,
        )
        frames = FrameReader(reader)
        line = await asyncio.wait_for(
            frames.read_line(MAX_LINE_BYTES), self._connect_timeout_s
        )
        if line is None:
            writer.close()
            raise ConfigError(
                f"backend {backend.key} closed without a hello"
            )
        hello = parse_line(line)
        if hello.get("type") != "hello":
            writer.close()
            raise ConfigError(
                f"backend {backend.key} did not greet with a hello frame"
            )
        backend.writer, backend.frames = writer, frames
        backend.hello = hello

    async def _admin_close(self, backend: _Backend) -> None:
        writer = backend.writer
        backend.writer = backend.frames = None
        if writer is not None:
            try:
                writer.close()
            except OSError:
                pass

    async def _admin_request(self, backend: _Backend, op: str,
                             timeout: float | None = None,
                             **fields: Any) -> dict:
        """One JSON round trip on the backend's admin connection."""
        timeout = self._probe_timeout_s if timeout is None else timeout
        async with backend.admin_lock:
            if backend.writer is None:
                await self._admin_connect(backend)
            rid = f"gw-{next(self._admin_ids)}"
            try:
                backend.writer.write(dump_line({"id": rid, "op": op,
                                                **fields}))
                await backend.writer.drain()
                line = await asyncio.wait_for(
                    backend.frames.read_line(MAX_FRAME_BYTES), timeout
                )
            except (OSError, ConnectionError, asyncio.TimeoutError):
                await self._admin_close(backend)
                raise
            if line is None:
                await self._admin_close(backend)
                raise ConnectionError(
                    f"backend {backend.key} closed its admin connection"
                )
            reply = parse_line(line)
            if reply.get("id") != rid:
                await self._admin_close(backend)
                raise NetError(
                    f"backend {backend.key} answered out of order on the "
                    "admin connection"
                )
            return reply

    async def _probe_loop(self, backend: _Backend) -> None:
        """The health prober: one backend, forever (until removed)."""
        try:
            while True:
                await asyncio.sleep(self._probe_interval_s)
                if backend.state == "removed" or self._closing:
                    return
                try:
                    reply = await self._admin_request(backend, "health")
                except (OSError, ConnectionError, asyncio.TimeoutError,
                        NetError):
                    backend.misses += 1
                    if (backend.misses >= self._down_after
                            and backend.state in ("up", "draining")):
                        self._backend_down(
                            backend,
                            f"health probe missed x{backend.misses}",
                        )
                    continue
                backend.misses = 0
                backend.last_health = {
                    key: value for key, value in reply.items()
                    if key not in ("id", "ok", "type")
                }
                if backend.state == "down":
                    self._backend_up(backend)
        except asyncio.CancelledError:
            pass

    # ------------------------------------------------------------------
    # Backend state transitions (event-loop thread).
    # ------------------------------------------------------------------
    def _backend_down(self, backend: _Backend, reason: str) -> None:
        """One backend is gone: drop its placements, fail its in-flight.

        The blast radius is exactly this backend's sessions.  Each gets
        the PR 8 retryable error frame; their reattaching clients reopen
        through the gateway, land on the ring's next backend, and replay
        their journals — byte-identical recovery, now across nodes.
        """
        if backend.state in ("down", "removed"):
            return
        was_draining = backend.state == "draining"
        backend.state = "down"
        self._journal.log("backend_down", backend=backend.key, reason=reason,
                          draining=was_draining)
        self._drop_placements(backend.key)
        for conn in list(self._conns.values()):
            up = conn.upstreams.get(backend.key)
            if up is not None:
                self._fail_upstream(conn, up, reason)

    def _backend_up(self, backend: _Backend) -> None:
        if backend.state != "down":
            return
        # A backend that died mid-drain comes back *draining*: the
        # operator asked for it to leave, and death is not a rollback.
        backend.state = "draining" if backend.drain_task else "up"
        self._journal.log("backend_up", backend=backend.key,
                          state=backend.state)

    def _drop_placements(self, key: str) -> None:
        for session in [s for s, k in self._placements.items() if k == key]:
            del self._placements[session]

    def _remove_backend(self, backend: _Backend) -> None:
        """Post-drain removal: the node leaves the ring for good."""
        if backend.state == "removed":
            return
        backend.state = "removed"
        if backend.key in self._ring:
            self._ring.remove(backend.key)
        self._drop_placements(backend.key)
        if backend.prober is not None:
            backend.prober.cancel()
        for conn in list(self._conns.values()):
            up = conn.upstreams.get(backend.key)
            if up is not None:
                self._fail_upstream(conn, up, "backend removed after drain")
        self._backends.pop(backend.key, None)
        self._removed.append(backend.key)
        self._journal.log("backend_removed", backend=backend.key,
                          ring=sorted(self._ring.nodes))

    # ------------------------------------------------------------------
    # Client connections.
    # ------------------------------------------------------------------
    def _hello(self) -> dict:
        """The gateway's hello: the fleet presented as one server."""
        live = [b for b in self._backends.values() if b.placeable()]
        pool = live or list(self._backends.values())
        return {
            "type": "hello",
            "protocol": 1,
            # The grant is negotiated per upstream open; advertising the
            # fleet *minimum* means a client never negotiates v2 through
            # the gateway unless every backend it could land on grants it.
            "max_protocol": min(
                int(b.hello.get("max_protocol", 1)) for b in pool
            ),
            "backend": self._hello_meta.get("backend"),
            "input_size": self._hello_meta.get("input_size"),
            "num_classes": self._hello_meta.get("num_classes"),
            "workers": sum(int(b.hello.get("workers", 1)) for b in pool),
            "queue_limit": min(
                int(b.hello.get("queue_limit", 1)) for b in pool
            ),
            "gateway": True,
            "backends": len(pool),
            # Mirror the backend hello shape: workload keys only appear
            # when the fleet actually serves a token workload.
            **{
                key: self._hello_meta[key]
                for key in ("workload", "vocab")
                if self._hello_meta.get(key) is not None
            },
        }

    def _release_conn(self, conn: _ClientConn) -> None:
        for up in list(conn.upstreams.values()):
            up.gone = True
            if up.pump is not None:
                up.pump.cancel()
            try:
                up.writer.close()
            except OSError:
                pass

    async def _frame(self, conn: _ClientConn, frame: BinaryFrame) -> None:
        """One v2 frame off a client: header-route, forward verbatim.

        Only the prefix and the shape header were inspected (for the
        session id, request id and frame length); the payload passes
        through untouched and the backend validates the rest.
        """
        header = frame.header
        if not frame.session:
            self._write(conn, error_reply(
                header.rid, "binary frames need a non-empty session id"
            ))
            return
        op = (BIN_REQUEST_NAMES.get(header.opcode)
              or f"binary op {header.opcode}")
        await self._forward(conn, header.rid, op, frame.session, frame.raw,
                            binary=True)

    async def _request(self, conn: _ClientConn, rid: Any, op: str,
                       message: dict, line: bytes) -> None:
        if op in ("health", "cluster_health"):
            self._write(conn, {"id": rid, "ok": True, "type": op,
                               **self._cluster_snapshot()})
            return
        if op == "cluster_drain":
            await self._op_cluster_drain(conn, rid, message)
            return
        if op == "cluster_undrain":
            self._op_cluster_undrain(conn, rid, message)
            return
        if op == "cluster_add":
            await self._op_cluster_add(conn, rid, message)
            return
        if op in _FANOUT_OPS:
            await self._fanout(conn, rid, op)
            return
        if op in SESSION_OPS:
            session = message.get("session")
            if not isinstance(session, str) or not session:
                self._write(conn, error_reply(
                    rid, f"op {op!r} needs a non-empty string session id"
                ))
                return
            await self._forward(conn, rid, op, session, line)
            return
        self._unknown_op(conn, rid, op)

    # ------------------------------------------------------------------
    # Forwarding.
    # ------------------------------------------------------------------
    def _route(self, session: str, *, placing: bool) -> _Backend | None:
        """The backend owning a session: placement first, ring second."""
        key = self._placements.get(session)
        if key is not None:
            backend = self._backends.get(key)
            if backend is not None and backend.placeable():
                return backend
            del self._placements[session]
        exclude = {key for key, b in self._backends.items()
                   if b.state != "up"}
        key = self._ring.route(session, exclude=exclude)
        if key is None:
            return None
        backend = self._backends[key]
        if placing:
            self._placements[session] = key
        return backend

    async def _forward(self, conn: _ClientConn, rid: Any, op: str,
                       session: str, raw: bytes,
                       binary: bool = False) -> None:
        """Route one session op and forward its original bytes."""
        backend = self._route(session, placing=(op == "open"))
        if backend is None:
            self.retryable_errors_total += 1
            self._write(conn, error_reply(rid, (
                f"no backend available for session {session!r} (every "
                "backend is down or draining); retry when the fleet heals"
            ), retryable=True))
            return
        up = await self._upstream(conn, backend)
        if up is None:
            self.retryable_errors_total += 1
            self._write(conn, error_reply(rid, (
                f"backend {backend.key} is unreachable; session "
                f"{session!r} will be re-placed — reopen and replay to "
                "recover"
            ), retryable=True))
            return
        if binary and not up.binary:
            # The session just moved (failover or drain) to a backend this
            # connection has never negotiated v2 with; forwarding the raw
            # frame would earn a *non-retryable* framing error.  Bounce the
            # client into its reattach path instead: the reopen is JSON,
            # renegotiates v2 on this link, and the journal replays.
            self.retryable_errors_total += 1
            self._write(conn, error_reply(rid, (
                f"session {session!r} was re-placed onto backend "
                f"{backend.key}, which has not negotiated binary framing "
                "on this connection; reopen and replay to recover"
            ), retryable=True))
            return
        up.pending[rid] = (op, session)
        try:
            up.writer.write(raw)
            await up.writer.drain()
        except (OSError, ConnectionError):
            self._backend_down(backend, "forwarding write failed")

    async def _upstream(self, conn: _ClientConn,
                        backend: _Backend) -> _Upstream | None:
        """The (connection, backend) link, dialing it on first use."""
        up = conn.upstreams.get(backend.key)
        if up is not None and not up.gone:
            return up
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(backend.host, backend.port),
                self._connect_timeout_s,
            )
        except (OSError, asyncio.TimeoutError):
            self._backend_down(backend, "connect refused or timed out")
            return None
        up = _Upstream(backend.key, reader, writer)
        hello = await up.frames.read_line(MAX_LINE_BYTES)
        if hello is None:
            self._backend_down(backend, "closed before hello")
            return None
        conn.upstreams[backend.key] = up
        up.pump = asyncio.ensure_future(self._pump_upstream(conn, up))
        self._tasks.add(up.pump)
        up.pump.add_done_callback(self._tasks.discard)
        return up

    async def _pump_upstream(self, conn: _ClientConn, up: _Upstream) -> None:
        """Forward one upstream's replies to the client, verbatim.

        Binary results: the header is read for the request id (to settle
        the pending map), then the original bytes are written through.
        JSON replies are parsed only to settle bookkeeping (placement
        release on ``close``/``evict``) — the forwarded line is the
        backend's own bytes either way.
        """
        reason = "backend closed the connection"
        try:
            while True:
                first = await up.frames.peek_byte()
                if first is None:
                    break
                if first == BIN_MAGIC:
                    try:
                        frame = await read_binary_frame(up.frames)
                    except FramingError:
                        frame = None
                    if frame is None:
                        reason = "backend reply stream desynced"
                        break
                    up.pending.pop(frame.header.rid, None)
                    conn.writer.write(frame.raw)
                else:
                    line = await up.frames.read_line(MAX_FRAME_BYTES)
                    if line is None:
                        break
                    self._settle_line(up, line)
                    conn.writer.write(line)
                await conn.writer.drain()
        except asyncio.CancelledError:
            up.gone = True
            return
        except (OSError, ConnectionError):
            reason = "backend connection failed"
        if up.gone or self._closing:
            return
        backend = self._backends.get(up.key)
        if backend is not None and backend.state == "up":
            # An unexpected EOF on a live link IS the death signal — no
            # need to wait for the prober to miss thrice.
            self._backend_down(backend, reason)
        else:
            self._fail_upstream(conn, up, reason)

    def _settle_line(self, up: _Upstream, line: bytes) -> None:
        try:
            reply = json.loads(line)
        except ValueError:
            return  # forwarded anyway; the client owns the complaint
        if not isinstance(reply, dict):
            return
        meta = up.pending.pop(reply.get("id"), None)
        if meta is None:
            return
        op, session = meta
        if op == "open" and reply.get("ok") and reply.get("protocol") == 2:
            up.binary = True
        if op in _RELEASE_OPS and reply.get("ok"):
            if self._placements.get(session) == up.key:
                del self._placements[session]

    def _fail_upstream(self, conn: _ClientConn, up: _Upstream,
                       reason: str) -> None:
        """Answer an upstream's in-flight requests with retryable frames."""
        if up.gone:
            return
        up.gone = True
        pending, up.pending = up.pending, {}
        for rid, (op, session) in pending.items():
            self.retryable_errors_total += 1
            self._write(conn, error_reply(rid, (
                f"backend {up.key} failed with the {op!r} request in "
                f"flight ({reason}); session {session!r} will be re-placed "
                "— reopen and replay to recover"
            ), retryable=True))
        if up.pump is not None and up.pump is not asyncio.current_task():
            up.pump.cancel()
        try:
            up.writer.close()
        except OSError:
            pass
        if conn.upstreams.get(up.key) is up:
            del conn.upstreams[up.key]

    # ------------------------------------------------------------------
    # Admin plane.
    # ------------------------------------------------------------------
    def _cluster_snapshot(self) -> dict:
        placed = Counter(self._placements.values())
        return {
            "gateway": True,
            "backends": [
                {
                    "backend": backend.key,
                    "state": backend.state,
                    "probe_misses": backend.misses,
                    "sessions_placed": placed.get(backend.key, 0),
                    "draining": backend.drain_task is not None
                    and backend.state != "removed",
                    "remaining": backend.remaining,
                    "health": backend.last_health,
                }
                for backend in self._backends.values()
            ],
            "removed": list(self._removed),
            "ring": {
                "vnodes": self._ring.vnodes,
                "nodes": sorted(self._ring.nodes),
            },
            "placements": len(self._placements),
            "retryable_errors_total": self.retryable_errors_total,
        }

    async def _fanout(self, conn: _ClientConn, rid: Any, op: str) -> None:
        """stats/sessions across the fleet, merged like NetServer's
        per-worker fan-out — one level up."""
        keys = [key for key, b in self._backends.items()
                if b.state in ("up", "draining")]
        results = await asyncio.gather(
            *(self._admin_request(self._backends[key], op) for key in keys),
            return_exceptions=True,
        )
        parts: list[dict] = []
        merged: list[dict] = []
        for key, result in zip(keys, results):
            if isinstance(result, BaseException):
                parts.append({"backend": key, "ok": False,
                              "error": str(result)})
                continue
            parts.append({"backend": key, "ok": bool(result.get("ok"))})
            field = "sessions" if op == "sessions" else "workers"
            for entry in result.get(field, ()):
                merged.append({**entry, "backend": key})
        for key, backend in self._backends.items():
            if backend.state == "down":
                parts.append({"backend": key, "ok": False,
                              "error": f"backend {key} is down"})
        payload: dict[str, Any] = {"id": rid, "ok": True, "type": op,
                                   "backends": parts}
        payload["sessions" if op == "sessions" else "workers"] = merged
        self._write(conn, payload)

    async def _op_cluster_drain(self, conn: _ClientConn, rid: Any,
                                message: dict) -> None:
        try:
            key = backend_key(message.get("backend"))
        except ConfigError as error:
            self._write(conn, error_reply(rid, error))
            return
        backend = self._backends.get(key)
        if backend is None:
            self._write(conn, error_reply(
                rid, f"unknown backend {key!r}; cluster_health lists the "
                "fleet"
            ))
            return
        if len([b for b in self._backends.values()
                if b.state in ("up", "draining")]) <= 1:
            self._write(conn, error_reply(
                rid, f"cannot drain {key!r}: it is the last placeable "
                "backend; add capacity first"
            ))
            return
        force = bool(message.get("force"))
        wait_s = message.get("wait_s", self._drain_timeout_s)
        if backend.drain_task is None:
            if backend.state == "up":
                backend.state = "draining"
            self._journal.log("drain_started", backend=key, force=force)
            backend.drain_task = asyncio.ensure_future(
                self._drain_backend(backend, force)
            )
        try:
            await asyncio.wait_for(
                asyncio.shield(backend.drain_task), float(wait_s)
            )
        except asyncio.TimeoutError:
            pass
        drained = backend.state == "removed"
        self._write(conn, {
            "id": rid, "ok": True, "type": "cluster_drain", "backend": key,
            "drained": drained,
            "remaining": 0 if drained else backend.remaining,
        })

    async def _drain_backend(self, backend: _Backend, force: bool) -> None:
        """Roll one backend out: no new placements (state alone does
        that), then wait out — or force-migrate — its pinned sessions."""
        while not self._closing:
            if backend.state == "down":
                # The node died mid-drain: its sessions are already lost
                # (and their clients already reattaching elsewhere), so
                # the only work left is taking it off the ring.
                break
            try:
                reply = await self._admin_request(backend, "sessions")
                names = [entry.get("session")
                         for entry in reply.get("sessions", ())]
            except (OSError, ConnectionError, asyncio.TimeoutError,
                    NetError):
                await asyncio.sleep(self._drain_poll_s)
                continue
            backend.remaining = len(names)
            if not names:
                break
            if force:
                for name in names:
                    if self._placements.get(name) == backend.key:
                        # Placement first: by the time the evicted
                        # session's client reopens, the ring (minus this
                        # draining node) owns it.
                        del self._placements[name]
                    try:
                        await self._admin_request(
                            backend, "evict", session=name
                        )
                    except (OSError, ConnectionError,
                            asyncio.TimeoutError, NetError):
                        break
            await asyncio.sleep(self._drain_poll_s)
        if self._closing:
            return
        # An undrain may have landed after this task's last await (cancel()
        # only takes effect at an await point, and there is none between
        # the final poll and here): it clears ``drain_task`` and restores
        # the state, so removal is no longer this task's to perform.
        if backend.drain_task is not asyncio.current_task():
            return
        backend.remaining = 0
        self._remove_backend(backend)

    def _op_cluster_undrain(self, conn: _ClientConn, rid: Any,
                            message: dict) -> None:
        try:
            key = backend_key(message.get("backend"))
        except ConfigError as error:
            self._write(conn, error_reply(rid, error))
            return
        backend = self._backends.get(key)
        if backend is None:
            self._write(conn, error_reply(
                rid, f"unknown backend {key!r} (already removed?)"
            ))
            return
        if backend.drain_task is not None:
            backend.drain_task.cancel()
            backend.drain_task = None
        if backend.state == "draining":
            backend.state = "up"
        self._journal.log("drain_cancelled", backend=key,
                          state=backend.state)
        self._write(conn, {"id": rid, "ok": True, "type": "cluster_undrain",
                           "backend": key, "state": backend.state})

    async def _op_cluster_add(self, conn: _ClientConn, rid: Any,
                              message: dict) -> None:
        try:
            key = backend_key(message.get("backend"))
        except ConfigError as error:
            self._write(conn, error_reply(rid, error))
            return
        if key in self._backends:
            self._write(conn, error_reply(
                rid, f"backend {key!r} is already in the fleet"
            ))
            return
        backend = _Backend(key)
        backend.admin_lock = asyncio.Lock()
        try:
            await self._admin_connect(backend)
            self._check_meta(backend)
        except (OSError, asyncio.TimeoutError, ConfigError,
                NetError) as error:
            self._write(conn, error_reply(
                rid, f"backend {key!r} cannot join: {error}"
            ))
            return
        self._backends[key] = backend
        if key in self._removed:
            self._removed.remove(key)
        self._ring.add(key)
        backend.prober = asyncio.ensure_future(self._probe_loop(backend))
        self._journal.log("backend_added", backend=key,
                          ring=sorted(self._ring.nodes))
        self._write(conn, {"id": rid, "ok": True, "type": "cluster_add",
                           "backend": key,
                           "backends": len(self._backends)})
