"""Blocking, stdlib-only client for the :mod:`repro.runtime.net` protocol.

Mirrors the in-process surfaces: :class:`Client` is the connection,
:meth:`Client.session` opens a named streaming :class:`NetSession` whose
``push``/``reset``/``close`` behave like :class:`repro.runtime.Session` —
and return **byte-identical** logits, which is the point: the wire adds
transport, never arithmetic.

The client negotiates protocol v2 (binary payload frames) inside the
first ``open`` handshake when the server's ``hello`` advertises
``max_protocol >= 2``; against an older or v1-pinned server the request
is simply not acknowledged and everything stays NDJSON.  Pass
``protocol=1`` to the constructor to pin a connection to v1 explicitly.

A :class:`Client` is single-threaded by design (one socket, strictly
ordered request/reply); concurrent callers each open their own, exactly
as with in-process sessions.

Every :class:`NetSession` op sends one request and waits for its reply,
so a recovery never starts with a request of its own still unanswered.
A supervised server answers a dying worker's requests with **retryable**
error frames, and a dropped connection surfaces as
:class:`~repro.runtime.net.protocol.ConnectionLostError`.  A
:class:`NetSession` recovers from both on its own: it keeps a journal of
every acknowledged frame since the last reset, and on a retryable
failure it reconnects, reopens the session by name, reconciles the
server's ``seq`` against its own — and when the carried state is gone
(the worker was restarted) it resets and replays the journal, so the
stream's remaining logits are **byte-identical** to an uninterrupted
run.  ``reattach=False`` fails fast instead.

>>> client = Client("127.0.0.1", 7653)
>>> session = client.session("caller-42")
>>> posterior = session.push(frame)          # blocking round trip
>>> logits = session.run(frames)             # push_many chunks, same bytes
"""

from __future__ import annotations

import functools
import itertools
import socket
import time
from collections import deque
from typing import Any, Callable, Iterator

import numpy as np

from repro.runtime.coerce import coerce_frame, coerce_stream, one_hot_rows
from repro.runtime.net.arrays import decode_array, encode_array
from repro.runtime.net.protocol import (
    BIN_DTYPE_F8,
    BIN_DTYPE_I8,
    BIN_MAGIC,
    BIN_PREFIX,
    BIN_PUSH,
    BIN_PUSH_MANY,
    BIN_RESULT,
    BIN_RESULT_MANY,
    BIN_SCORE,
    BIN_SCORE_RESULT,
    MAX_PROTOCOL,
    MAX_PUSH_MANY_FRAMES,
    BusyError,
    ConnectionLostError,
    NetError,
    RetryableError,
    UnknownSessionError,
    build_binary_frame,
    check_binary_header,
    dump_line,
    parse_binary_prefix,
    parse_binary_shape,
    parse_line,
)
from repro.runtime.workloads import generate_params, score_params

__all__ = ["Client", "NetSession"]

#: Reconnect/reopen/replay cycles one operation may consume before the
#: recovery machinery gives up and lets the retryable error escape.
_MAX_RECOVERY_CYCLES = 5

#: Frames per ``push_many`` request when :meth:`NetSession.run` streams
#: or a recovery replays the journal (bounded by the server's cap).
_CHUNK_FRAMES = min(64, MAX_PUSH_MANY_FRAMES)


def _chunks(rows: np.ndarray) -> Iterator[np.ndarray]:
    """``(T, D)`` rows as consecutive ``_CHUNK_FRAMES``-row slices."""
    for start in range(0, len(rows), _CHUNK_FRAMES):
        yield rows[start:start + _CHUNK_FRAMES]


class Client:
    """One TCP connection to a :class:`~repro.runtime.net.NetServer`.

    ``protocol`` is the highest protocol version this client is willing
    to negotiate (default: everything it speaks).  The *effective*
    version — :attr:`protocol` — starts at 1 and is raised when a
    server grants v2 in an ``open`` handshake.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0,
                 protocol: int = MAX_PROTOCOL):
        if not 1 <= protocol <= MAX_PROTOCOL:
            raise NetError(
                f"protocol must be 1..{MAX_PROTOCOL}, got {protocol}"
            )
        self._host = host
        self._port = port
        self._timeout = timeout
        self._want_protocol = protocol
        self._protocol = 1
        self._ids = itertools.count(1)
        self._closed = False
        self.reconnects = 0
        self._connect()

    def _connect(self) -> None:
        try:
            self._sock = socket.create_connection(
                (self._host, self._port), timeout=self._timeout
            )
        except OSError as error:
            raise ConnectionLostError(
                f"connect to {self._host}:{self._port} failed: {error}"
            ) from None
        self._sock.settimeout(self._timeout)
        self._file = self._sock.makefile("rwb")
        self.hello = self._recv()
        if self.hello.get("type") != "hello":
            raise NetError(
                f"expected a hello frame, got {self.hello.get('type')!r}"
            )

    def reconnect(self) -> "Client":
        """Drop the connection and dial the same server again.

        Discards any unread replies with the old socket, and resets the
        effective protocol to v1 — framing, like sessions, is negotiated
        per connection, so the next ``open`` renegotiates v2.  Request
        ids keep counting up: uniqueness per connection is preserved.
        """
        for closer in (self._file.close, self._sock.close):
            try:
                closer()
            except OSError:
                pass  # tearing down a broken transport; dialing anew
        self._closed = False
        self._protocol = 1
        self.reconnects += 1
        self._connect()
        return self

    # ------------------------------------------------------------------
    @property
    def input_size(self) -> int:
        return int(self.hello["input_size"])

    @property
    def num_classes(self) -> int:
        return int(self.hello["num_classes"])

    @property
    def backend(self) -> str:
        return str(self.hello["backend"])

    @property
    def workload(self) -> str:
        """The served workload ("asr" unless the hello says otherwise)."""
        return str(self.hello.get("workload", "asr"))

    @property
    def vocab_chars(self) -> list[str] | None:
        """The LM vocabulary's characters, when the server advertises one."""
        chars = self.hello.get("vocab")
        if chars is None:
            return None
        return [str(char) for char in chars]

    @property
    def queue_limit(self) -> int:
        return int(self.hello["queue_limit"])

    @property
    def protocol(self) -> int:
        """Effective protocol version on this connection (1 until a v2
        grant comes back in an ``open`` reply)."""
        return self._protocol

    def _wants_v2(self) -> bool:
        return (
            self._want_protocol >= 2
            and int(self.hello.get("max_protocol", 1)) >= 2
        )

    # ------------------------------------------------------------------
    def _send(self, op: str, **fields: Any) -> int:
        if self._closed:
            raise NetError("client is closed")
        rid = next(self._ids)
        try:
            self._file.write(dump_line({"id": rid, "op": op, **fields}))
            self._file.flush()
        except OSError as error:
            raise ConnectionLostError(f"send failed: {error}") from None
        return rid

    def _send_binary(self, op: int, session: str, payload: bytes,
                     shape: tuple[int, ...],
                     dtype_code: int = BIN_DTYPE_F8) -> int:
        if self._closed:
            raise NetError("client is closed")
        rid = next(self._ids)
        try:
            self._file.write(build_binary_frame(
                op, rid, shape, payload, session=session.encode("utf-8"),
                dtype_code=dtype_code,
            ))
            self._file.flush()
        except OSError as error:
            raise ConnectionLostError(f"send failed: {error}") from None
        return rid

    def _read_exactly(self, count: int) -> bytes:
        data = self._file.read(count)
        if data is None or len(data) < count:
            raise ConnectionLostError("server closed the connection mid-frame")
        return data

    def _recv(self) -> dict:
        """One reply, either framing, normalized to a dict.

        Binary results carry their logits as a ready ndarray under
        ``"logits_array"``; JSON replies keep the base64 ``"logits"``
        payload (decoded lazily by the caller).
        """
        try:
            first = self._file.read(1)
            if not first:
                raise ConnectionLostError("server closed the connection")
            if first[0] != BIN_MAGIC:
                line = first + self._file.readline()
                return parse_line(line)
            header = parse_binary_prefix(
                first + self._read_exactly(BIN_PREFIX.size - 1)
            )
            dims, nbytes = parse_binary_shape(
                header, self._read_exactly(header.shape_size)
            )
            body = self._read_exactly(header.slen + nbytes)
            check_binary_header(
                header.version, header.opcode, header.dtype_code, dims,
                nbytes, expect_request=False,
            )
            values = np.asarray(
                np.frombuffer(body[header.slen:], dtype="<f8"),
                dtype=np.float64,
            ).reshape(dims)
            return {
                "id": header.rid,
                "ok": True,
                "type": {BIN_RESULT: "push", BIN_RESULT_MANY: "push_many",
                         BIN_SCORE_RESULT: "score"}[header.opcode],
                "seq": header.seq,
                "logits_array": values,
            }
        except socket.timeout:
            # Indistinguishable from a worker whose reply was lost (e.g.
            # a dropped publish): retryable, so a reattaching session
            # resets and replays instead of hanging on a reply that will
            # never come.
            raise ConnectionLostError(
                "timed out waiting for a reply"
            ) from None
        except OSError as error:
            raise ConnectionLostError(f"receive failed: {error}") from None

    def _recv_for(self, rid: int) -> dict:
        reply = self._recv()
        if reply.get("id") != rid:
            raise NetError(
                f"reply id {reply.get('id')!r} does not match request {rid} "
                "(one Client per thread; replies are strictly ordered)"
            )
        return reply

    def request(self, op: str, **fields: Any) -> dict:
        """One blocking round trip.  Raises on error/busy replies."""
        reply = self._recv_for(self._send(op, **fields))
        return self._check(reply)

    @staticmethod
    def _check(reply: dict) -> dict:
        if reply.get("ok", False):
            return reply
        if reply.get("type") == "busy":
            limit = reply.get("limit")
            raise BusyError(
                f"server busy (limit {limit}); the frame was not applied "
                "— back off and resend it before newer frames",
                limit=limit if isinstance(limit, int) else None,
            )
        kind = reply.get("kind", "error")
        message = f"{kind}: {reply.get('error', reply)}"
        if reply.get("retryable"):
            # The server's supervisor failed this request (worker died
            # in flight / is restarting) and promises a resend is safe.
            raise RetryableError(message)
        if kind == "UnknownSessionError":
            # Not blindly retryable — the session must be reopened (and
            # its state replayed) first, which is exactly what a
            # reattaching NetSession does with it.
            raise UnknownSessionError(message)
        raise NetError(message)

    @staticmethod
    def _logits(reply: dict) -> np.ndarray:
        """The logits array of a push-style reply, either framing."""
        values = reply.get("logits_array")
        if values is not None:
            return values
        return decode_array(reply["logits"])

    # ------------------------------------------------------------------
    def ping(self) -> float:
        """Round-trip time of an empty request, in seconds."""
        start = time.perf_counter()
        self.request("ping")
        return time.perf_counter() - start

    def stats(self) -> list[dict]:
        """Per-worker :class:`~repro.runtime.ServerStats` snapshots."""
        return self.request("stats")["workers"]

    def health(self) -> dict:
        """The supervisor's snapshot: per-worker state, restarts, uptime.

        Answered by the parent alone, so it works even while every
        worker is down, restarting, or the server is draining.
        """
        return self.request("health")

    def sessions(self) -> list[dict]:
        """Every live session across all reachable workers
        (``session``/``worker``/``seq``/``idle_s``/``busy`` each)."""
        return self.request("sessions")["sessions"]

    def evict(self, session: str) -> bool:
        """Administratively drop one session's worker-side state.

        True when a session was actually evicted, False when no such
        session existed (the goal state either way).
        """
        return bool(self.request("evict", session=session).get("evicted"))

    def cluster_health(self) -> dict:
        """The gateway's cluster snapshot (backend states, ring, drains).

        Only meaningful against a :class:`repro.runtime.cluster.Gateway`
        endpoint; a plain NetServer rejects the op.
        """
        return self.request("cluster_health")

    def cluster_drain(self, backend: str, *, force: bool = False,
                      wait_s: float | None = None) -> dict:
        """Start (or keep waiting on) a rolling drain of one backend.

        Returns the gateway's reply: ``drained`` (bool) and
        ``remaining`` (sessions still pinned).  ``force`` evicts pinned
        sessions so their clients migrate by journal replay instead of
        waiting for natural close/TTL.  The drain keeps running in the
        background after the reply — call again to re-check.
        """
        fields: dict[str, Any] = {"backend": backend, "force": force}
        if wait_s is not None:
            fields["wait_s"] = wait_s
        return self.request("cluster_drain", **fields)

    def cluster_undrain(self, backend: str) -> dict:
        """Cancel a drain-in-progress and return the backend to service."""
        return self.request("cluster_undrain", backend=backend)

    def cluster_add(self, backend: str) -> dict:
        """Join a running NetServer (``"host:port"``) into the fleet."""
        return self.request("cluster_add", backend=backend)

    def session(self, name: str, **retry: Any) -> "NetSession":
        """Open (or re-attach to) the named streaming session."""
        return NetSession(self, name, **retry)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class NetSession:
    """A named server-side streaming session reached over the wire.

    The session id — not the connection — owns the carried recurrent
    state: reconnect with the same name and the stream continues where it
    left off, on the same worker (stable-hash routing).

    Every op sends one request and waits for its reply.
    ``retries``/``backoff_s``/``max_backoff_s`` set the session's ``busy``
    retry policy, the only one its ops use: the sleep grows linearly from
    ``backoff_s`` but never beyond ``max_backoff_s``, and after
    ``retries`` resends a :class:`BusyError` carrying the server's
    advertised ``limit`` is raised.

    With ``reattach=True`` (the default) the session also recovers from
    retryable failures — worker deaths surfaced as retryable error
    frames, dropped connections, unknown-session replies after a worker
    restart: it reconnects, reopens by name, and when the server-side
    ``seq`` shows the carried state is gone, resets and replays its
    journal of acknowledged frames (capped at ``journal_limit``; an
    overflowed journal makes state loss unrecoverable and the retryable
    error escapes instead).  :attr:`recoveries` and
    :attr:`replayed_frames` count what the machinery did.
    :attr:`discarded_frames` counts the frames the server had applied
    when a recovery reset them away (the ``seq`` each reset started
    from); the server computes each of those frames twice.
    """

    def __init__(self, client: Client, name: str, *, retries: int = 20,
                 backoff_s: float = 0.02, max_backoff_s: float = 0.25,
                 reattach: bool = True, journal_limit: int = 4096):
        if retries < 0:
            raise NetError(f"retries must be >= 0, got {retries}")
        if journal_limit < 0:
            raise NetError(
                f"journal_limit must be >= 0, got {journal_limit}"
            )
        self._client = client
        self._name = name
        self._retries = retries
        self._backoff_s = backoff_s
        self._max_backoff_s = max_backoff_s
        self._reattach = reattach
        self._journal_limit = journal_limit
        self._journal: deque[bytes] = deque()  # acked rows since reset
        self._journal_ok = True  # False once the cap truncated it
        self.recoveries = 0
        self.replayed_frames = 0
        self.discarded_frames = 0
        self.meta = self._open(allow_recovery=reattach)
        self._frames = int(self.meta.get("seq", 0))
        self._closed = False

    def _open(self, *, allow_recovery: bool) -> dict:
        """The open handshake (with v2 negotiation), retried through
        retryable failures when the session reattaches."""
        fields: dict[str, Any] = {"session": self._name}
        attempt = 0
        while True:
            if self._client._wants_v2():
                fields["protocol"] = 2
            else:
                fields.pop("protocol", None)
            try:
                reply = self._client.request("open", **fields)
            except (RetryableError, UnknownSessionError):
                if not allow_recovery or attempt >= self._retries:
                    raise
                attempt += 1
                time.sleep(min(self._max_backoff_s,
                               self._backoff_s * attempt))
                try:
                    self._client.reconnect()
                except ConnectionLostError:
                    continue  # server not back yet; keep backing off
                continue
            if reply.get("protocol") == 2:
                self._client._protocol = 2
            return reply

    @property
    def name(self) -> str:
        return self._name

    @property
    def worker(self) -> int:
        """Index of the worker holding this session's state."""
        return int(self.meta["worker"])

    @property
    def frames_pushed(self) -> int:
        return self._frames

    # -- reattach machinery --------------------------------------------
    def _journal_rows(self, rows: np.ndarray) -> None:
        """Remember acknowledged ``(K, D)`` rows for a potential replay."""
        if not self._reattach or not self._journal_ok:
            return
        for row in rows:
            self._journal.append(row.astype("<f8", copy=False).tobytes())
        if len(self._journal) > self._journal_limit:
            # A partial journal cannot rebuild recurrent state (every
            # frame feeds the next), so past the cap the memory is
            # reclaimed and reattach-after-state-loss disabled until the
            # next reset() starts a fresh journal.
            self._journal.clear()
            self._journal_ok = False

    def _with_recovery(self, attempt: Any) -> Any:
        """Run one operation, recovering through retryable failures."""
        cycles = 0
        while True:
            try:
                return attempt()
            except (RetryableError, UnknownSessionError) as error:
                cycles += 1
                if not self._reattach or cycles > _MAX_RECOVERY_CYCLES:
                    raise
                self._recover(error)

    def _recover(self, cause: NetError) -> None:
        """Reconnect, reopen, and restore the stream's carried state.

        The failed frame was NOT applied (that is the retryable
        contract), so after this returns the caller simply resends it.
        """
        self.recoveries += 1
        last: NetError = cause
        for attempt in range(self._retries + 1):
            try:
                self._client.reconnect()
                self._reopen_and_replay()
                return
            except (RetryableError, UnknownSessionError, BusyError) as error:
                last = error
                time.sleep(min(self._max_backoff_s,
                               self._backoff_s * (attempt + 1)))
        raise NetError(
            f"session {self._name!r} could not reattach after "
            f"{self._retries + 1} attempts: {last}"
        ) from cause

    def _reopen_and_replay(self) -> None:
        """Reopen by name; replay the journal if the state is gone."""
        self.meta = self._open(allow_recovery=False)
        seq = int(self.meta.get("seq", 0))
        if seq == self._frames:
            return  # carried state intact (the connection died, not the worker)
        if not self._journal_ok or len(self._journal) != self._frames:
            raise NetError(
                f"session {self._name!r} lost its carried state at frame "
                f"{self._frames} and the client journal cannot replay it "
                f"(journal_limit {self._journal_limit}); reset the stream"
            )
        if seq != 0:
            # A stale partial state (the worker restarted mid-history or
            # another client advanced it): replay only works from zero.
            self._client.request("reset", session=self._name)
            self.discarded_frames += seq
        # self._frames stays the authoritative acked count throughout: if
        # the replay itself is interrupted, the next recovery pass sees
        # server seq != self._frames and replays from zero again.
        rows = np.frombuffer(b"".join(self._journal), dtype="<f8").reshape(
            -1, self._client.input_size
        )
        replayed = 0
        for chunk in _chunks(rows):
            reply = self._request_rows(chunk)
            replayed += len(chunk)
            if reply.get("seq") != replayed:
                raise NetError(
                    f"replay of session {self._name!r} desynced: expected "
                    f"frame {replayed}, server reports {reply.get('seq')}"
                )
        self.replayed_frames += replayed

    def _push_with_retry(self, send: Any) -> dict:
        """Resend through ``busy`` replies with a capped linear backoff.

        Safe because nothing newer is in flight, so the resend preserves
        stream order.  The refused frame was NOT applied, which is also
        why exhaustion is an error the caller must handle — dropping the
        frame silently would desync the stream's carried state.
        """
        for attempt in range(self._retries + 1):
            try:
                return self._client._check(
                    self._client._recv_for(send())
                )
            except BusyError as busy:
                if attempt == self._retries:
                    raise BusyError(
                        f"server still busy after {self._retries + 1} "
                        f"attempts (per-connection limit {busy.limit}); the "
                        "frame was not applied — the stream is still in "
                        "sync, retry later or raise the retry budget",
                        limit=busy.limit,
                    ) from None
                time.sleep(min(self._max_backoff_s,
                               self._backoff_s * (attempt + 1)))
        raise AssertionError("unreachable")

    def _request_rows(self, rows: np.ndarray) -> dict:
        """Send coerced float64 rows in one request, resent through
        ``busy``: a ``(D,)`` frame as ``push``, ``(K, D)`` frames as
        ``push_many``; a binary frame on a v2 connection, NDJSON on v1.

        Called afresh on every recovery attempt, so the framing follows
        the connection: a reconnect drops it back to v1 until the reopen
        renegotiates.
        """
        many = rows.ndim == 2
        if self._client.protocol >= 2:
            send = functools.partial(
                self._client._send_binary,
                BIN_PUSH_MANY if many else BIN_PUSH, self._name,
                rows.astype("<f8", copy=False).tobytes(), rows.shape,
            )
        elif many:
            send = functools.partial(
                self._client._send, "push_many", session=self._name,
                frames=encode_array(rows),
            )
        else:
            send = functools.partial(
                self._client._send, "push", session=self._name,
                frame=encode_array(rows),
            )
        return self._push_with_retry(send)

    def _coerce_rows(self, frames: np.ndarray, op: str) -> np.ndarray:
        """Validate and coerce a whole ``(K, D)`` batch before any of it
        is sent: a bad frame anywhere raises with nothing applied."""
        frames = np.asarray(frames)
        if frames.ndim != 2:
            raise NetError(f"{op} wants (K, D) frames, got {frames.shape}")
        return np.ascontiguousarray(coerce_stream(
            frames[:, None, :], self._client.input_size
        )[:, 0, :])

    def _advance(self, request: Callable[[], dict], count: int,
                 journal: Callable[[dict], np.ndarray]) -> dict:
        """One op that advances the stream by ``count`` rows: ``request``
        is retried through recovery, the reply's ``seq`` accepted, and
        the rows ``journal(reply)`` names kept for a replay."""
        reply = self._with_recovery(request)
        self._accept_seq(reply, count)
        self._journal_rows(journal(reply))
        return reply

    def _push_chunk(self, rows: np.ndarray) -> np.ndarray:
        """Coerced ``(K, D)`` rows as one ``push_many`` → ``(K, C)``."""
        reply = self._advance(lambda: self._request_rows(rows), len(rows),
                              lambda _: rows)
        return self._client._logits(reply).copy().reshape(
            len(rows), self._client.num_classes
        )

    def push(self, frame: np.ndarray) -> np.ndarray:
        """One blocking frame: coerce, send, return its logits.

        Shapes mirror :meth:`repro.runtime.Session.push`: a bare ``(D,)``
        vector returns ``(C,)``; a ``(1, D)`` frame returns ``(1, C)``.
        """
        self._check_open()
        coerced, squeezed = coerce_frame(frame, 1, self._client.input_size)
        reply = self._advance(lambda: self._request_rows(coerced[0]), 1,
                              lambda _: coerced)
        # copy(): the decoded logits view wire bytes; Session.push parity
        # means handing back a writable array.
        logits = self._client._logits(reply).copy()
        return logits if squeezed else logits[None, :]

    def push_many(self, frames: np.ndarray) -> np.ndarray:
        """``(K, D)`` frames in one round trip → ``(K, C)`` logits.

        One wire frame, one admission slot, one reply — the batched hot
        path of protocol v2 (a v1 connection sends the same batch as a
        single JSON ``push_many`` request).  The batch is applied frame
        by frame server-side, so the logits are byte-identical to ``K``
        single pushes; a rejected batch applies NOTHING.
        """
        self._check_open()
        rows = self._coerce_rows(frames, "push_many")
        if len(rows) == 0:  # run() parity: nothing to send
            return np.empty((0, self._client.num_classes))
        return self._push_chunk(rows)

    def run(self, frames: np.ndarray) -> np.ndarray:
        """A whole stream: ``(T, D)`` frames → ``(T, C)`` logits.

        The stream is validated and coerced up front, so a bad frame
        anywhere raises with nothing sent; then it goes out as
        ``push_many`` requests of up to 64 frames, each answered before
        the next is sent.  Byte-identical to ``T`` blocking pushes.
        """
        self._check_open()
        rows = self._coerce_rows(frames, "run()")
        if len(rows) == 0:  # Session.run parity: empty stream, empty result
            return np.empty((0, self._client.num_classes))
        return np.concatenate([self._push_chunk(chunk)
                               for chunk in _chunks(rows)])

    def generate(
        self,
        prompt: Any,
        steps: int = 32,
        *,
        temperature: float = 1.0,
        top_k: int = 0,
        seed: int = 0,
    ) -> list[int]:
        """Seeded autoregressive sampling on the server (LM workload).

        One round trip: the op's parameters cross as JSON, the sampled
        token ids come back.  Byte-identical to
        :meth:`repro.runtime.Session.generate` — the sampling runs
        worker-side from the same seeded driver.  The op advances the
        session by ``len(prompt) + steps - 1`` rows and journals their
        one-hot equivalents, so reattach/failover replay rebuilds the
        post-op state exactly; a resend after recovery reproduces the
        same tokens because the seed rides the request.
        """
        self._check_open()
        params = generate_params(
            prompt, steps, temperature, top_k, seed,
            vocab_size=self._client.input_size,
        )
        send = functools.partial(
            self._client._send, "generate", session=self._name, **params
        )

        def tokens(reply: dict) -> list[int]:
            return [int(token) for token in reply.get("tokens", ())]

        def fed(reply: dict) -> np.ndarray:
            ids = np.asarray(params["prompt"] + tokens(reply)[:-1],
                             dtype=np.int64)
            return one_hot_rows(ids, self._client.input_size)

        reply = self._advance(lambda: self._push_with_retry(send),
                              len(params["prompt"]) + params["steps"] - 1,
                              fed)
        return tokens(reply)

    def score(self, tokens: Any) -> np.ndarray:
        """Per-token log-probs for ``tokens[1:]`` (LM workload).

        ``K`` token ids in one round trip → ``(K-1,)`` float64
        log-probs, byte-identical to
        :meth:`repro.runtime.Session.score`.  On a v2 connection the
        ids travel as a binary int64 frame and the log-probs return as
        a binary float64 frame; a v1 connection uses JSON both ways.
        Advances the session by ``K-1`` rows (``tokens[:-1]`` fed as
        one-hots), journaled for replay like any other rows.
        """
        self._check_open()
        params = score_params(tokens, vocab_size=self._client.input_size)
        ids = np.asarray(params["tokens"], dtype=np.int64)
        count = ids.shape[0] - 1
        payload = ids.astype("<i8", copy=False).tobytes()

        def send() -> int:
            if self._client.protocol >= 2:
                return self._client._send_binary(
                    BIN_SCORE, self._name, payload, ids.shape,
                    dtype_code=BIN_DTYPE_I8,
                )
            return self._client._send(
                "score", session=self._name, tokens=params["tokens"]
            )

        reply = self._advance(
            lambda: self._push_with_retry(send), count,
            lambda _: one_hot_rows(ids[:-1], self._client.input_size),
        )
        values = reply.get("logits_array")
        if values is None:
            values = decode_array(reply["logprobs"])
        return values.copy().reshape(count)

    def _accept_seq(self, reply: dict, count: int) -> None:
        """Enforce exactly-once, in-order delivery per stream.

        Every push reply carries the worker-side frame counter; a gap or
        repeat means a frame was dropped, duplicated or reordered in
        transit — state-corrupting for a recurrent stream, so it is a
        hard error, not a warning.
        """
        seq = reply.get("seq")
        if seq != self._frames + count:
            raise NetError(
                f"stream {self._name!r} out of sync: expected frame "
                f"{self._frames + count}, server reports {seq} (a frame was "
                "dropped, duplicated or reordered; reset the session)"
            )
        self._frames = seq

    def reset(self) -> "NetSession":
        """Zero the carried state, as between utterances.  Returns self."""
        self._check_open()
        # Journal and counter first: if the reset round trip needs
        # recovery, the reattach must rebuild toward the ZEROED state
        # (an empty journal), not replay the pre-reset history.
        self._frames = 0
        self._journal.clear()
        self._journal_ok = True
        self._with_recovery(
            lambda: self._client.request("reset", session=self._name)
        )
        return self

    def close(self) -> None:
        """Close the server-side session (frees its worker bookkeeping).

        Idempotent and best-effort: a second close — e.g. an explicit
        close inside a ``with`` block — is a no-op, and a close the
        server can no longer honour (it is draining, or the connection
        is gone) is swallowed rather than raised out of ``__exit__`` —
        the server reclaims every session at shutdown anyway.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._client.request("close", session=self._name)
        except NetError:
            pass

    def _check_open(self) -> None:
        if self._closed:
            raise NetError(f"session {self._name!r} is closed")

    def __enter__(self) -> "NetSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
