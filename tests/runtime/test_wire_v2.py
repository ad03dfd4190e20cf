"""Wire protocol v2 (PR 7): negotiation, binary framing, regressions.

The v1↔v2 compatibility matrix over real sockets: a v1 client against a
v2 server is byte-for-byte untouched, a v2 client degrades gracefully on
a v1-only server, and a negotiated connection mixes binary payload
frames with JSON control traffic.  Malformed binary headers draw
structured errors *without* losing the connection (the frame is
self-delimiting); only length-cap violations disconnect.  Plus the PR 7
regression fixes: an oversized request line answers with a protocol
error instead of tearing the connection down, and ``NetSession``'s busy
retry is bounded with the server's admission limit in the final error.
"""

import json
import os
import signal
import socket
import struct

import numpy as np
import pytest

from repro.config import RNNSpec
from repro.nn.rnn import StackedRNNClassifier
from repro.runtime import compile
from repro.runtime.net import BusyError, Client, NetServer, encode_array
from repro.runtime.net.protocol import (
    BIN_MAGIC,
    BIN_PREFIX,
    BIN_PUSH,
    BIN_PUSH_MANY,
    BIN_RESULT,
    BIN_VERSION,
    MAX_LINE_BYTES,
    build_binary_frame,
)

SPEC = RNNSpec("lstm", 10, (32,), 6, block_sizes=(4,))
TIMEOUT = 15.0


def _compiled(backend: str):
    model = StackedRNNClassifier(
        SPEC, structured=True, rng=np.random.default_rng(0)
    )
    return compile(model, backend=backend, cache=False)


def _standalone(compiled, stream: np.ndarray) -> np.ndarray:
    return compiled.session().run(stream[:, None, :])[:, 0]


def _stream(frames: int, seed: int = 5) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(
        (frames, SPEC.input_size)
    )


@pytest.fixture(scope="module")
def fixed_compiled():
    return _compiled("fixed")


@pytest.fixture(scope="module")
def float_compiled():
    return _compiled("float")


@pytest.fixture(scope="module")
def v2_server(fixed_compiled):
    """One 1-worker v2-capable server shared by this module's tests."""
    with NetServer(fixed_compiled, workers=1, queue_limit=32) as server:
        yield server


class _RawConn:
    """A hand-driven socket connection for byte-level protocol tests."""

    def __init__(self, server: NetServer):
        self.sock = socket.create_connection(server.address, timeout=TIMEOUT)
        self.sock.settimeout(TIMEOUT)
        self.file = self.sock.makefile("rwb")
        self.hello = json.loads(self.file.readline())

    def send_json(self, **message) -> None:
        self.file.write(json.dumps(message).encode("utf-8") + b"\n")
        self.file.flush()

    def send_raw(self, data: bytes) -> None:
        self.file.write(data)
        self.file.flush()

    def recv_json(self) -> dict:
        line = self.file.readline()
        assert line, "server closed the connection"
        assert line[0] != BIN_MAGIC, "expected a JSON reply, got binary"
        return json.loads(line)

    def recv_binary(self) -> tuple[int, int, tuple[int, ...], bytes]:
        """Read one binary result frame -> (op, seq, shape, payload)."""
        prefix = self.file.read(BIN_PREFIX.size)
        assert len(prefix) == BIN_PREFIX.size
        magic, version, op, dtype, rid, seq, slen, ndim, _ = (
            BIN_PREFIX.unpack(prefix)
        )
        assert magic == BIN_MAGIC and version == BIN_VERSION
        rest = self.file.read(4 * ndim + 4)
        *dims, nbytes = struct.unpack(f"<{ndim}II", rest)
        assert slen == 0  # results never carry a session id
        payload = self.file.read(nbytes)
        assert len(payload) == nbytes
        return op, seq, tuple(dims), payload

    def negotiate(self, session: str, rid: int = 1) -> dict:
        self.send_json(id=rid, op="open", session=session, protocol=2)
        reply = self.recv_json()
        assert reply["ok"] and reply["protocol"] == 2
        return reply

    def ping_ok(self, rid: int = 999) -> None:
        """The connection-usability probe: a ping still round-trips."""
        self.send_json(id=rid, op="ping")
        assert self.recv_json() == {"id": rid, "ok": True, "type": "pong"}

    def close(self) -> None:
        try:
            self.file.close()
        finally:
            self.sock.close()


def _frame_bytes(frame: np.ndarray) -> bytes:
    return np.ascontiguousarray(frame, dtype="<f8").tobytes()


# ----------------------------------------------------------------------
# Negotiation matrix.
# ----------------------------------------------------------------------
class TestNegotiation:
    def test_hello_advertises_both_protocols(self, v2_server):
        with Client(*v2_server.address, timeout=TIMEOUT) as client:
            assert client.hello["protocol"] == 1  # pinned: v1 field untouched
            assert client.hello["max_protocol"] == 2

    def test_v1_client_on_v2_server_is_untouched(
        self, v2_server, fixed_compiled
    ):
        stream = _stream(8)
        with Client(*v2_server.address, timeout=TIMEOUT, protocol=1) as client:
            session = client.session("neg-v1-client")
            got = np.stack([session.push(frame) for frame in stream])
            assert client.protocol == 1
            assert "protocol" not in session.meta
        assert got.tobytes() == _standalone(fixed_compiled, stream).tobytes()

    def test_v2_client_falls_back_on_v1_only_server(self, fixed_compiled):
        stream = _stream(6)
        with NetServer(fixed_compiled, workers=1, max_protocol=1) as server:
            with Client(*server.address, timeout=TIMEOUT) as client:
                assert client.hello["max_protocol"] == 1
                session = client.session("neg-fallback")
                got = np.stack([session.push(frame) for frame in stream])
                assert client.protocol == 1
        assert got.tobytes() == _standalone(fixed_compiled, stream).tobytes()

    def test_v2_negotiated_end_to_end(self, v2_server, fixed_compiled):
        stream = _stream(10)
        with Client(*v2_server.address, timeout=TIMEOUT) as client:
            session = client.session("neg-v2")
            got = np.stack([session.push(frame) for frame in stream])
            assert client.protocol == 2
            assert session.meta["protocol"] == 2
        assert got.tobytes() == _standalone(fixed_compiled, stream).tobytes()

    def test_json_push_on_negotiated_conn_replies_json(
        self, v2_server, fixed_compiled
    ):
        """Replies mirror the request framing, not the connection state:
        a JSON push on a v2-negotiated connection gets a JSON reply."""
        frame = _stream(1)[0]
        conn = _RawConn(v2_server)
        try:
            conn.negotiate("neg-mirror")
            conn.send_json(
                id=2, op="push", session="neg-mirror",
                frame=encode_array(np.ascontiguousarray(frame)),
            )
            reply = conn.recv_json()
            assert reply["ok"] and reply["type"] == "push"
            assert reply["logits"]["shape"] == [SPEC.output_size]
        finally:
            conn.close()

    def test_binary_push_before_negotiation_is_rejected(self, v2_server):
        """Binary framing without the open-handshake grant: structured
        error naming the negotiation, connection stays usable."""
        conn = _RawConn(v2_server)
        try:
            conn.send_json(id=1, op="open", session="neg-early")  # v1 open
            assert conn.recv_json()["ok"]
            conn.send_raw(build_binary_frame(
                BIN_PUSH, 2, (SPEC.input_size,),
                _frame_bytes(_stream(1)[0]), session=b"neg-early",
            ))
            reply = conn.recv_json()
            assert not reply["ok"]
            assert "negotiat" in reply["error"]
            conn.ping_ok()
        finally:
            conn.close()


# ----------------------------------------------------------------------
# Malformed binary frames: recoverable errors vs disconnects.
# ----------------------------------------------------------------------
class TestMalformedBinary:
    def _negotiated(self, server: NetServer, name: str) -> _RawConn:
        conn = _RawConn(server)
        conn.negotiate(name)
        return conn

    def _good_frame(self, rid: int, session: str) -> bytearray:
        return bytearray(build_binary_frame(
            BIN_PUSH, rid, (SPEC.input_size,),
            _frame_bytes(_stream(1)[0]), session=session.encode("utf-8"),
        ))

    def test_bad_version_is_recoverable(self, v2_server):
        conn = self._negotiated(v2_server, "mal-version")
        try:
            frame = self._good_frame(2, "mal-version")
            frame[1] = 9  # version byte
            conn.send_raw(bytes(frame))
            reply = conn.recv_json()
            assert not reply["ok"] and reply["id"] == 2
            assert "version" in reply["error"]
            conn.ping_ok()
        finally:
            conn.close()

    def test_bad_dtype_is_recoverable(self, v2_server):
        conn = self._negotiated(v2_server, "mal-dtype")
        try:
            frame = self._good_frame(3, "mal-dtype")
            frame[3] = 7  # dtype code
            conn.send_raw(bytes(frame))
            reply = conn.recv_json()
            assert not reply["ok"] and reply["id"] == 3
            assert "dtype" in reply["error"]
            conn.ping_ok()
        finally:
            conn.close()

    def test_result_op_in_a_request_is_recoverable(self, v2_server):
        conn = self._negotiated(v2_server, "mal-op")
        try:
            conn.send_raw(build_binary_frame(
                BIN_RESULT, 4, (SPEC.input_size,),
                _frame_bytes(_stream(1)[0]), session=b"mal-op",
            ))
            reply = conn.recv_json()
            assert not reply["ok"] and reply["id"] == 4
            assert "op code" in reply["error"]
            conn.ping_ok()
        finally:
            conn.close()

    def test_payload_shape_mismatch_is_recoverable(self, v2_server):
        """nbytes disagreeing with the declared shape: the frame is
        self-delimiting, so the server consumes it whole and recovers."""
        conn = self._negotiated(v2_server, "mal-shape")
        try:
            frame = self._good_frame(5, "mal-shape")
            # Rewrite the declared shape without touching the payload.
            struct.pack_into("<I", frame, BIN_PREFIX.size, SPEC.input_size + 3)
            conn.send_raw(bytes(frame))
            reply = conn.recv_json()
            assert not reply["ok"] and reply["id"] == 5
            assert "bytes for shape" in reply["error"]
            conn.ping_ok()
        finally:
            conn.close()

    def test_ndim_over_cap_disconnects(self, v2_server):
        """Length-cap violations are the one fatal class: the stream
        position can't be trusted, so the server errors and hangs up."""
        conn = self._negotiated(v2_server, "mal-ndim")
        try:
            prefix = BIN_PREFIX.pack(
                BIN_MAGIC, BIN_VERSION, BIN_PUSH, 1, 6, 0, 0, 200, 0
            )
            conn.send_raw(prefix)
            reply = conn.recv_json()
            assert not reply["ok"]
            assert "out of range" in reply["error"]
            assert conn.file.readline() == b""  # server hung up
        finally:
            conn.close()


# ----------------------------------------------------------------------
# Oversized request lines (PR 7 regression): error frame, not teardown.
# ----------------------------------------------------------------------
class TestOversizedLine:
    @pytest.mark.parametrize("negotiated", [False, True])
    def test_oversized_line_draws_error_and_keeps_conn(
        self, v2_server, negotiated
    ):
        conn = _RawConn(v2_server)
        try:
            if negotiated:
                conn.negotiate(f"oversize-{negotiated}")
            filler = b'{"id": 1, "op": "ping", "pad": "' + (
                b"x" * (MAX_LINE_BYTES + 64)
            ) + b'"}\n'
            conn.send_raw(filler)
            reply = conn.recv_json()
            assert not reply["ok"]
            assert "exceeds" in reply["error"]
            conn.ping_ok()
        finally:
            conn.close()


# ----------------------------------------------------------------------
# push_many byte-identity: both framings x both backends.
# ----------------------------------------------------------------------
class TestPushMany:
    @pytest.mark.parametrize("backend", ["float", "fixed"])
    @pytest.mark.parametrize("protocol", [1, 2])
    def test_push_many_matches_standalone(
        self, backend, protocol, fixed_compiled, float_compiled
    ):
        compiled = fixed_compiled if backend == "fixed" else float_compiled
        stream = _stream(12, seed=9)
        with NetServer(compiled, workers=1) as server:
            with Client(
                *server.address, timeout=TIMEOUT, protocol=protocol
            ) as client:
                session = client.session("many")
                got = session.push_many(stream)
                assert client.protocol == protocol
                # Batch advanced the stream exactly len(stream) frames.
                follow = session.push(stream[-1])
        expected = _standalone(compiled, stream)
        assert got.tobytes() == expected.tobytes()
        assert follow.shape == (SPEC.output_size,)

    def test_push_many_interleaves_with_push(self, v2_server, fixed_compiled):
        stream = _stream(9, seed=11)
        with Client(*v2_server.address, timeout=TIMEOUT) as client:
            session = client.session("many-mix")
            first = session.push(stream[0])
            middle = session.push_many(stream[1:8])
            last = session.push(stream[8])
        got = np.concatenate([first[None], middle, last[None]])
        assert got.tobytes() == _standalone(fixed_compiled, stream).tobytes()

    def test_empty_push_many_is_local(self, v2_server):
        with Client(*v2_server.address, timeout=TIMEOUT) as client:
            session = client.session("many-empty")
            got = session.push_many(_stream(0))
            assert got.shape == (0, SPEC.output_size)
            assert session.frames_pushed == 0

    def test_inline_steps_count_in_stats(self, v2_server):
        """Every row a worker steps lands in its stats counters —
        monitoring sees every frame."""
        stream = _stream(5, seed=19)
        with Client(*v2_server.address, timeout=TIMEOUT) as client:
            before = sum(e["stats"]["frames"] for e in client.stats())
            session = client.session("inline-stats")
            for frame in stream:
                session.push(frame)
            after = sum(e["stats"]["frames"] for e in client.stats())
        assert after - before == len(stream)


# ----------------------------------------------------------------------
# Payloads larger than a ring slot ride the worker queues.
# ----------------------------------------------------------------------
#: Interleaved batch sizes: 1 is a single ``push``; 200 and 180 frames
#: overflow a 1 KiB slot in both the request (80 B/frame) and the reply
#: (48 B/frame), the rest fit.
_OVERSIZED_PLAN = (1, 200, 3, 1, 2, 180, 1)


def _send_batch(client: Client, session: str, rows: np.ndarray) -> int:
    """Send one push (a single row) or push_many without awaiting it."""
    if len(rows) == 1:
        if client.protocol >= 2:
            return client._send_binary(
                BIN_PUSH, session, rows[0].tobytes(), rows[0].shape
            )
        return client._send("push", session=session,
                            frame=encode_array(rows[0]))
    if client.protocol >= 2:
        return client._send_binary(
            BIN_PUSH_MANY, session, rows.tobytes(), rows.shape
        )
    return client._send("push_many", session=session,
                        frames=encode_array(rows))


@pytest.fixture(scope="module")
def small_slot_server(fixed_compiled):
    """A server whose 1 KiB slots force large batches onto the queues."""
    with NetServer(fixed_compiled, workers=1, slot_bytes=1024) as server:
        yield server


class TestOversizedPayloads:
    @pytest.mark.parametrize("protocol", [1, 2])
    def test_blocking_interleave_matches_standalone(
        self, small_slot_server, fixed_compiled, protocol
    ):
        stream = _stream(sum(_OVERSIZED_PLAN), seed=23)
        got, start = [], 0
        with Client(
            *small_slot_server.address, timeout=TIMEOUT, protocol=protocol
        ) as client:
            session = client.session(f"oversized-{protocol}")
            assert client.protocol == protocol  # negotiated by the open
            for count in _OVERSIZED_PLAN:
                rows = stream[start:start + count]
                if count == 1:
                    got.append(session.push(rows[0])[None])
                else:
                    got.append(session.push_many(rows))
                start += count
                # push/push_many check every reply's seq against the
                # frames sent so far: a gap or repeat raises.
                assert session.frames_pushed == start
        assert np.concatenate(got).tobytes() == (
            _standalone(fixed_compiled, stream).tobytes()
        )

    @pytest.mark.parametrize("protocol", [1, 2])
    def test_pipelined_replies_keep_emit_order(
        self, small_slot_server, fixed_compiled, protocol
    ):
        """Every batch in flight at once: small results leave through
        the response ring, large ones through the reply queue, and the
        parent must still answer in request order with gapless seqs."""
        stream = _stream(sum(_OVERSIZED_PLAN), seed=29)
        name = f"oversized-pipelined-{protocol}"
        with Client(
            *small_slot_server.address, timeout=TIMEOUT, protocol=protocol
        ) as client:
            client.session(name)
            rids, start = [], 0
            for count in _OVERSIZED_PLAN:
                rids.append(
                    _send_batch(client, name, stream[start:start + count])
                )
                start += count
            got, seq = [], 0
            for rid, count in zip(rids, _OVERSIZED_PLAN):
                reply = client._check(client._recv_for(rid))
                seq += count
                assert reply["seq"] == seq
                got.append(client._logits(reply).reshape(count, -1))
        assert np.concatenate(got).tobytes() == (
            _standalone(fixed_compiled, stream).tobytes()
        )


# ----------------------------------------------------------------------
# Busy retry (PR 7 regression): bounded backoff, limit in the error.
# ----------------------------------------------------------------------
class TestBusyRetry:
    def test_exhausted_retries_raise_with_server_limit(self, fixed_compiled):
        """Saturate a queue_limit=1 server whose only worker is stopped:
        the retry loop must give up after the configured attempts and
        surface the server's admission limit in the error.

        Determinism: the fill push and the retried push ride the same
        connection, and the server parses a connection's requests in
        order — the fill is admitted (pending=1) before the retried
        push is even read, so every attempt draws ``busy``.
        """
        stream = _stream(2)
        with NetServer(fixed_compiled, workers=1, queue_limit=1) as server:
            pid = server._procs[0].pid
            with Client(*server.address, timeout=TIMEOUT) as client:
                session = client.session(
                    "busy-cap", retries=2, backoff_s=0.001
                )
                os.kill(pid, signal.SIGSTOP)
                try:
                    client._send(
                        "push", session="busy-cap",
                        frame=encode_array(
                            np.ascontiguousarray(stream[0])
                        ),
                    )
                    with pytest.raises(BusyError) as excinfo:
                        session.push(stream[1])
                finally:
                    os.kill(pid, signal.SIGCONT)
        assert excinfo.value.limit == 1
        assert "3 attempts" in str(excinfo.value)
        assert "limit 1" in str(excinfo.value)
        assert "was not applied" in str(excinfo.value)

    def test_backoff_sleep_is_capped(self, monkeypatch, fixed_compiled):
        """The per-attempt sleep must clamp at max_backoff_s instead of
        growing linearly without bound (the PR 7 bug)."""
        from repro.runtime.net import client as client_mod

        sleeps: list[float] = []

        with NetServer(fixed_compiled, workers=1, queue_limit=1) as server:
            pid = server._procs[0].pid
            with Client(*server.address, timeout=TIMEOUT) as client:
                session = client.session(
                    "busy-sleep", retries=30, backoff_s=0.05,
                    max_backoff_s=0.12,
                )
                os.kill(pid, signal.SIGSTOP)
                try:
                    client._send(
                        "push", session="busy-sleep",
                        frame=encode_array(
                            np.ascontiguousarray(_stream(1)[0])
                        ),
                    )
                    monkeypatch.setattr(
                        client_mod.time, "sleep", sleeps.append
                    )
                    with pytest.raises(BusyError):
                        session.push(_stream(1)[0])
                finally:
                    os.kill(pid, signal.SIGCONT)
        assert sleeps, "retry loop never slept"
        assert max(sleeps) <= 0.12 + 1e-9
        assert sleeps.count(0.12) >= 25  # clamped, not linear
