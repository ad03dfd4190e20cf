"""The asyncio front both TCP servers share: NetServer and the Gateway.

:class:`~repro.runtime.net.NetServer` and the cluster
:class:`~repro.runtime.cluster.Gateway` face the network identically and
differ only in policy: NetServer admits requests and dispatches them to
worker processes, the Gateway routes them to backend NetServers.  This
module is the one copy of the network-facing machinery — the request
reader (:func:`read_request` over a :class:`FrameReader`, binary lengths
checked by the sans-IO parse in :mod:`~repro.runtime.net.protocol`),
the event :class:`Journal`, and the :class:`Front` base class: the
loop-thread lifecycle, the connection read loop and the JSON request
preamble.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import signal
import sys
import threading
import time
from pathlib import Path
from typing import Any, NamedTuple

from repro.errors import ConfigError
from repro.runtime.net.protocol import (
    BIN_MAGIC,
    BIN_PREFIX,
    MAX_LINE_BYTES,
    OPS,
    BinaryHeader,
    FramingError,
    NetError,
    dump_line,
    error_reply,
    parse_binary_prefix,
    parse_binary_shape,
    parse_line,
)

__all__ = ["FrameReader", "BinaryFrame", "Rejected", "read_binary_frame",
           "read_request", "Journal", "Front"]


class LineTooLong(Exception):
    """An NDJSON line overran its cap; the stream is resynced."""


class FrameReader:
    """Buffered reads over a StreamReader for the dual-framing protocol.

    asyncio's own ``readline`` raises on an oversized line *after
    garbling its buffer*, which would force a hang-up.  This reader owns
    the buffer: an oversized line is discarded through its terminating
    newline, so the caller can send a structured error and keep the
    connection.
    """

    __slots__ = ("_reader", "_buf", "_eof")

    def __init__(self, reader: asyncio.StreamReader):
        self._reader = reader
        self._buf = bytearray()
        self._eof = False

    async def _fill(self) -> bool:
        if self._eof:
            return False
        chunk = await self._reader.read(65536)
        if not chunk:
            self._eof = True
            return False
        self._buf += chunk
        return True

    async def peek_byte(self) -> int | None:
        """First buffered byte without consuming it; None at EOF."""
        while not self._buf:
            if not await self._fill():
                return None
        return self._buf[0]

    async def read_exactly(self, count: int) -> bytes | None:
        """``count`` bytes, or None if the peer hung up first."""
        while len(self._buf) < count:
            if not await self._fill():
                return None
        taken = bytes(self._buf[:count])
        del self._buf[:count]
        return taken

    async def read_line(self, limit: int) -> bytes | None:
        """One newline-terminated line of at most ``limit`` bytes.

        Raises :class:`LineTooLong` — after consuming the whole
        oversized line, so the stream stays in sync — when the cap is
        exceeded.  Returns None at EOF.
        """
        overflow = False
        while True:
            index = self._buf.find(b"\n")
            if index != -1:
                line = bytes(self._buf[: index + 1])
                del self._buf[: index + 1]
                if overflow or index > limit:
                    raise LineTooLong()
                return line
            if len(self._buf) > limit:
                # Bound memory while discarding toward the newline.
                overflow = True
                self._buf.clear()
            if not await self._fill():
                if not overflow and self._buf:
                    line = bytes(self._buf)  # unterminated trailing line
                    self._buf.clear()
                    return line
                return None


class BinaryFrame:
    """One v2 frame as read off the wire: header, dims and bytes."""

    __slots__ = ("header", "dims", "head", "body", "session")

    def __init__(self, header: BinaryHeader, dims: tuple[int, ...],
                 head: bytes, body: bytes):
        self.header = header
        self.dims = dims
        self.head = head      # prefix + shape header
        self.body = body      # session id + payload
        self.session = ""     # decoded by read_request

    @property
    def nbytes(self) -> int:
        return len(self.body) - self.header.slen

    @property
    def payload(self) -> bytes:
        return self.body[self.header.slen:]

    @property
    def raw(self) -> bytes:
        """The whole frame, byte for byte as it arrived."""
        return self.head + self.body


class Rejected(NamedTuple):
    """A request answered with a structured error instead of served.

    ``fatal`` rejections leave the stream unsynchronizable: the front
    replies, then hangs up.
    """

    reply: dict
    fatal: bool


async def read_binary_frame(frames: FrameReader) -> BinaryFrame | None:
    """One binary frame; None if the peer hung up mid-frame.

    Raises :class:`~repro.runtime.net.protocol.FramingError` when the
    header's lengths break the caps (nothing is left to resynchronize
    on).
    """
    prefix = await frames.read_exactly(BIN_PREFIX.size)
    if prefix is None:
        return None
    header = parse_binary_prefix(prefix)
    shape = await frames.read_exactly(header.shape_size)
    if shape is None:
        return None
    dims, nbytes = parse_binary_shape(header, shape)
    body = await frames.read_exactly(header.slen + nbytes)
    if body is None:
        return None
    return BinaryFrame(header, dims, prefix + shape, body)


async def read_request(
    frames: FrameReader,
) -> bytes | BinaryFrame | Rejected | None:
    """The next request off a client connection, whatever bytes arrive.

    A JSON line (bytes), a binary frame with its session id decoded, a
    :class:`Rejected` error reply, or None at EOF — including EOF in the
    middle of a frame.  Never anything else.
    """
    first = await frames.peek_byte()
    if first is None:
        return None
    if first != BIN_MAGIC:
        try:
            return await frames.read_line(MAX_LINE_BYTES)
        except LineTooLong:
            return Rejected(error_reply(
                None, f"request line exceeds {MAX_LINE_BYTES} bytes"
            ), fatal=False)
    try:
        frame = await read_binary_frame(frames)
    except FramingError as error:
        # The text, not the exception: the reply's kind stays "NetError".
        return Rejected(error_reply(error.rid, str(error)), fatal=True)
    if frame is None:
        return None
    try:
        frame.session = frame.body[:frame.header.slen].decode("utf-8")
    except UnicodeDecodeError:
        return Rejected(
            error_reply(frame.header.rid, "session id is not UTF-8"),
            fatal=False,
        )
    return frame


class Journal:
    """A front's event journal: one entry per event, kept in memory.

    Each event is also printed as one ``<prefix>: <event> k=v ...`` line
    on stderr (fields in the order they were given) and, when
    ``fault_log`` is set, appended to that file as a JSON line.
    """

    def __init__(self, prefix: str, fault_log: str | Path | None = None):
        self._prefix = prefix
        self._fault_log = Path(fault_log) if fault_log else None
        self._events: list[dict] = []  # guarded-by: _lock
        self._lock = threading.Lock()

    def snapshot(self) -> list[dict]:
        with self._lock:
            return list(self._events)

    def log(self, event: str, **detail: Any) -> None:
        """Record one event (any thread)."""
        entry: dict[str, Any] = {"ts": round(time.time(), 3), "event": event,
                                 **detail}
        with self._lock:
            self._events.append(entry)
        tail = "".join(f" {key}={value}" for key, value in detail.items())
        print(f"{self._prefix}: {event}{tail}", file=sys.stderr)
        if self._fault_log is not None:
            try:
                with open(self._fault_log, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(entry, sort_keys=True) + "\n")
            except OSError:
                # Journaling must never take the data path down with it.
                self._fault_log = None


class Front:
    """One asyncio TCP server whose event loop runs on a daemon thread.

    Subclasses supply the policy: ``_conn_type`` (per-connection state,
    built from ``(conn_id, writer)`` and exposing both as ``id`` and
    ``writer``), ``_hello()`` (the greeting),
    ``async _request(conn, rid, op, message, line)`` (a JSON request past
    the preamble) and ``async _frame(conn, frame)`` (a binary request).
    The optional hooks, in lifecycle order: :meth:`_before_start` (caller
    thread, before the loop exists), :meth:`_open` (on the loop, before
    the bind), :meth:`_opened` (after it), :meth:`_drain` (after the
    listener closes, before the readers are cancelled), :meth:`_stopped`
    (after they are), :meth:`_teardown` (caller thread, after a failed
    start and at close), and :meth:`_release_conn` as each connection
    ends.
    """

    #: Named in start errors ("<kind> failed to start: ...").
    _kind = "front"
    _thread_name = "repro-front"
    _start_timeout_s = 30.0
    _join_timeout_s = 30.0
    #: The ops a request may name, listed in op errors.
    _ops: tuple[str, ...] = OPS
    _conn_type: Any = None

    def __init__(self, host: str, port: int, journal: Journal):
        self._host = host
        self._port = port
        self._journal = journal
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._stop_async: asyncio.Event | None = None
        self._stop_serving = threading.Event()
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._lifecycle = threading.Lock()
        self._state = "new"  # guarded-by: _lifecycle (new -> started -> closed)
        self._closing = False
        # Event-loop-thread state.
        self._conns: dict[int, Any] = {}
        self._conn_ids = itertools.count(1)
        self._tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (resolves ``port=0``)."""
        return self._host, self._port

    @property
    def port(self) -> int:
        return self._port

    @property
    def events(self) -> list[dict]:
        """Snapshot of the event journal (restarts, downs, drains, ...)."""
        return self._journal.snapshot()

    def __enter__(self) -> Any:
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Lifecycle (caller threads).
    # ------------------------------------------------------------------
    def start(self) -> Any:
        """Bind the socket and begin serving.  Returns self."""
        with self._lifecycle:
            if self._state == "started":
                return self
            if self._state == "closed":
                raise ConfigError(
                    f"{type(self).__name__} cannot be restarted after close()"
                )
            self._before_start()
            self._loop = asyncio.new_event_loop()
            self._loop_thread = threading.Thread(
                target=self._run_loop, name=self._thread_name, daemon=True
            )
            self._loop_thread.start()
            self._started.wait(timeout=self._start_timeout_s)
            failure = None
            if self._startup_error is not None:
                failure = f"{self._kind} failed to start: {self._startup_error}"
            elif not self._started.is_set():
                failure = (f"{self._kind} did not start within "
                           f"{self._start_timeout_s:g}s")
            if failure is not None:
                self._teardown()
                raise ConfigError(failure)
            self._state = "started"
            return self

    def close(self) -> None:
        """Drain, shut down and release the port; idempotent and safe
        under concurrent calls — every caller returns only after the
        teardown is complete."""
        self._stop_serving.set()  # release any serve_forever() caller
        with self._lifecycle:
            if self._state == "started":
                self._closing = True
                loop, stop = self._loop, self._stop_async
                if loop is not None and stop is not None:
                    try:
                        loop.call_soon_threadsafe(stop.set)
                    except RuntimeError:
                        pass  # loop already dead
                if self._loop_thread is not None:
                    self._loop_thread.join(timeout=self._join_timeout_s)
            if self._state != "closed":
                self._teardown()
            self._state = "closed"

    def serve_forever(self, install_signals: bool = True) -> None:
        """Block until SIGTERM/SIGINT — or ``close()`` from another
        thread — then shut down (CLI mode)."""
        self.start()
        previous = {}
        if install_signals:
            def handler(signum: int, frame: Any) -> None:
                self._stop_serving.set()

            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    previous[signum] = signal.signal(signum, handler)
                except ValueError:
                    pass  # not the main thread; close() can still stop us
        try:
            self._stop_serving.wait()
        finally:
            for signum, old in previous.items():
                signal.signal(signum, old)
            self.close()

    # -- hooks (default: nothing) ---------------------------------------
    def _before_start(self) -> None:
        """Caller thread, under the lifecycle lock, before the loop runs."""

    async def _open(self) -> None:
        """On the loop before the bind; raising fails :meth:`start`."""

    def _opened(self) -> None:
        """On the loop once bound, just before :meth:`start` returns."""

    async def _drain(self) -> None:
        """Shutdown: the listener is closed, connections still read."""

    async def _stopped(self) -> None:
        """Shutdown: every connection reader has been cancelled."""

    def _teardown(self) -> None:
        """Caller thread, under the lifecycle lock: after a failed start,
        and at close (once the loop stopped, if it ever ran)."""

    def _release_conn(self, conn: Any) -> None:
        """On the loop, as one connection's reader ends."""

    # ------------------------------------------------------------------
    # Event-loop side.
    # ------------------------------------------------------------------
    def _run_loop(self) -> None:
        loop = self._loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._serve_main())
        except BaseException as error:  # noqa: BLE001 — surfaced by start()
            self._startup_error = error
            self._started.set()
        finally:
            loop.close()

    async def _serve_main(self) -> None:
        self._stop_async = asyncio.Event()
        await self._open()
        listener = await asyncio.start_server(
            self._handle_conn, self._host, self._port
        )
        self._port = listener.sockets[0].getsockname()[1]
        self._opened()
        self._started.set()
        await self._stop_async.wait()
        listener.close()
        await self._drain()
        readers = list(self._tasks)
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        # Only now: since Python 3.12 ``wait_closed`` also waits for every
        # accepted connection to close, which the readers just did (a peer
        # that never reads its unflushed replies is not waited out).
        try:
            await asyncio.wait_for(listener.wait_closed(), 1.0)
        except asyncio.TimeoutError:
            pass
        await self._stopped()
        self._conns.clear()

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = self._conn_type(next(self._conn_ids), writer)
        self._conns[conn.id] = conn
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
        self._write(conn, self._hello())
        frames = FrameReader(reader)
        try:
            while True:
                request = await read_request(frames)
                if request is None:
                    break
                if isinstance(request, BinaryFrame):
                    await self._frame(conn, request)
                elif isinstance(request, bytes):
                    await self._handle_line(conn, request)
                else:
                    self._write(conn, request.reply)
                    if request.fatal:
                        break
                await writer.drain()
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            self._conns.pop(conn.id, None)
            self._release_conn(conn)
            try:
                writer.close()
                # Awaiting the close retrieves its outcome: a peer that
                # reset the connection leaves no unretrieved exception.
                await asyncio.wait_for(writer.wait_closed(), 1.0)
            except Exception:  # repro: ignore[REP005] the connection is gone either way; closing must not mask why the reader ended
                pass
            finally:
                if task is not None:
                    self._tasks.discard(task)

    async def _handle_line(self, conn: Any, line: bytes) -> None:
        """The JSON request preamble: parse, scalar id, string op, ping."""
        try:
            message = parse_line(line)
        except NetError as error:
            self._write(conn, error_reply(None, error))
            return
        rid = message.get("id")
        if isinstance(rid, (dict, list)):
            self._write(conn, error_reply(
                None, "request id must be a JSON scalar"
            ))
            return
        op = message.get("op")
        if not isinstance(op, str):
            # A non-string op must fail as "unknown", not crash the
            # policy's frozenset membership tests with an unhashable type.
            self._write(conn, error_reply(
                rid, f"op must be a string naming one of {', '.join(self._ops)}"
            ))
            return
        if op == "ping":
            self._write(conn, {"id": rid, "ok": True, "type": "pong"})
            return
        await self._request(conn, rid, op, message, line)

    def _unknown_op(self, conn: Any, rid: Any, op: str) -> None:
        self._write(conn, error_reply(
            rid, f"unknown op {op!r}; expected one of {', '.join(self._ops)}"
        ))

    def _write(self, conn: Any, message: dict) -> None:
        if conn.writer.is_closing():
            return  # the peer left; its replies have no reader
        try:
            conn.writer.write(dump_line(message))
        except Exception:  # repro: ignore[REP005] connection torn down mid-write; the reader path cleans up
            pass
