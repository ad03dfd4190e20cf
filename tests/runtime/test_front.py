"""The asyncio front NetServer and the Gateway share (``runtime/net/front``).

Both TCP fronts read requests through one reader, so hostile bytes must
draw the same answer from either: a structured error, then a hang-up
only when a binary header's lengths cannot be trusted.  The reader is
also fuzzed directly with arbitrary bytes — it may only ever yield a
line, a frame, a structured rejection or a clean stop.  The journal's
stderr lines and the gateway's op label on failed binary requests are
pinned here too.
"""

import asyncio
import json
import socket
import socketserver
import struct
import threading
import time
from contextlib import ExitStack, contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RNNSpec
from repro.nn.rnn import StackedRNNClassifier
from repro.runtime import compile
from repro.runtime.cluster import BackendFleet, Gateway
from repro.runtime.net import NetServer, front
from repro.runtime.net.front import BinaryFrame, Journal, Rejected
from repro.runtime.net.protocol import (
    BIN_DTYPE_I8,
    BIN_MAGIC,
    BIN_PREFIX,
    BIN_PUSH,
    BIN_SCORE,
    BIN_VERSION,
    MAX_BIN_SESSION,
    MAX_FRAME_BYTES,
    MAX_LINE_BYTES,
    build_binary_frame,
    dump_line,
)

SPEC = RNNSpec("lstm", 10, (32,), 6, block_sizes=(4,))
TIMEOUT = 30.0


@pytest.fixture(scope="module")
def compiled():
    model = StackedRNNClassifier(
        SPEC, structured=True, rng=np.random.default_rng(0)
    )
    return compile(model, backend="float", cache=False)


@pytest.fixture(scope="module", params=["netserver", "gateway"])
def served(request, compiled):
    """A 1-worker NetServer, or a Gateway over a 1-backend fleet."""
    with ExitStack() as stack:
        if request.param == "netserver":
            yield stack.enter_context(NetServer(compiled, workers=1))
        else:
            fleet = stack.enter_context(
                BackendFleet(compiled, count=1, workers=1)
            )
            yield stack.enter_context(Gateway(fleet.keys))


class _RawConn:
    """A hand-driven socket for byte-level protocol tests."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=TIMEOUT)
        self.sock.settimeout(TIMEOUT)
        self.file = self.sock.makefile("rwb")
        self.hello = json.loads(self.file.readline())

    def send_raw(self, data: bytes) -> None:
        self.file.write(data)
        self.file.flush()

    def send_json(self, **message) -> None:
        self.send_raw(json.dumps(message).encode("utf-8") + b"\n")

    def recv_json(self) -> dict:
        line = self.file.readline()
        assert line, "the server closed the connection"
        assert line[0] != BIN_MAGIC, "expected a JSON reply, got binary"
        return json.loads(line)

    def error(self) -> dict:
        reply = self.recv_json()
        assert reply["ok"] is False and reply["type"] == "error", reply
        return reply

    def ping_ok(self, rid: int = 999) -> None:
        self.send_json(id=rid, op="ping")
        assert self.recv_json() == {"id": rid, "ok": True, "type": "pong"}

    def hung_up(self) -> bool:
        return self.file.readline() == b""

    def close(self) -> None:
        try:
            self.file.close()
        finally:
            self.sock.close()


@pytest.fixture
def conn(served):
    raw = _RawConn(served.address)
    yield raw
    raw.close()


def _push_frame(rid: int, session: bytes) -> bytes:
    payload = np.zeros(SPEC.input_size, dtype="<f8").tobytes()
    return build_binary_frame(BIN_PUSH, rid, (SPEC.input_size,), payload,
                              session=session)


class TestHostileBytesParity:
    """Every case runs against a NetServer and through a Gateway."""

    @pytest.mark.parametrize("ndim, slen", [(200, 0),
                                            (1, MAX_BIN_SESSION + 1)])
    def test_lengths_over_the_caps_error_then_hang_up(self, conn, ndim,
                                                      slen):
        conn.send_raw(BIN_PREFIX.pack(BIN_MAGIC, BIN_VERSION, BIN_PUSH, 1,
                                      6, 0, slen, ndim, 0))
        reply = conn.error()
        assert reply["id"] == 6 and reply["kind"] == "NetError"
        assert "out of range" in reply["error"]
        assert conn.hung_up()

    def test_payload_over_the_cap_errors_then_hangs_up(self, conn):
        conn.send_raw(
            BIN_PREFIX.pack(BIN_MAGIC, BIN_VERSION, BIN_PUSH, 1, 8, 0, 0, 1, 0)
            + struct.pack("<II", 1, MAX_FRAME_BYTES + 1)
        )
        reply = conn.error()
        assert reply["id"] == 8
        assert f"exceeds the {MAX_FRAME_BYTES}-byte cap" in reply["error"]
        assert conn.hung_up()

    def test_oversized_line_errors_and_keeps_the_connection(self, conn):
        conn.send_raw(b'{"id": 1, "op": "ping", "pad": "'
                      + b"x" * (MAX_LINE_BYTES + 64) + b'"}\n')
        assert "exceeds" in conn.error()["error"]
        conn.ping_ok()

    def test_non_utf8_session_errors_and_keeps_the_connection(self, conn):
        conn.send_raw(_push_frame(7, b"\xff\xfe"))
        reply = conn.error()
        assert reply["id"] == 7 and "not UTF-8" in reply["error"]
        conn.ping_ok()

    def test_non_scalar_id_and_non_string_op_error(self, conn):
        conn.send_json(id=[1], op="ping")
        reply = conn.error()
        assert reply["id"] is None and "JSON scalar" in reply["error"]
        conn.send_json(id=3, op=5)
        reply = conn.error()
        assert reply["id"] == 3 and "op must be a string" in reply["error"]
        conn.ping_ok()

    def test_frame_truncated_at_eof_closes_cleanly(self, conn):
        frame = _push_frame(9, b"cut-short")
        conn.send_raw(frame[: len(frame) // 2])
        conn.sock.shutdown(socket.SHUT_WR)
        assert conn.hung_up()  # no error reply, no hang


# ----------------------------------------------------------------------
# The shared reader under arbitrary bytes.
# ----------------------------------------------------------------------
_FUZZ_LINE_CAP = 48  # small enough that generated lines overflow it


def _frames():
    """Binary frames with plausible-to-hostile headers and bodies."""
    prefix = st.builds(
        BIN_PREFIX.pack,
        st.just(BIN_MAGIC), st.integers(0, 255), st.integers(0, 255),
        st.integers(0, 255), st.integers(0, 2**64 - 1), st.integers(0, 3),
        st.one_of(st.integers(0, 8), st.integers(0, 2**16 - 1)),
        st.one_of(st.integers(0, 5), st.integers(0, 255)),
        st.integers(0, 255),
    )
    return st.tuples(prefix, st.binary(max_size=48)).map(b"".join)


@st.composite
def _valid_frames(draw):
    """Well-formed frames (their session ids may still not be UTF-8)."""
    dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    return build_binary_frame(
        draw(st.integers(0, 255)), draw(st.integers(0, 2**64 - 1)), dims,
        draw(st.binary(min_size=8 * int(np.prod(dims)),
                       max_size=8 * int(np.prod(dims)))),
        session=draw(st.binary(max_size=8)),
    )


def _lines():
    return st.binary(max_size=80).map(lambda body: body + b"\n")


_STREAMS = st.lists(
    st.one_of(st.binary(max_size=64), _frames(), _valid_frames(), _lines()),
    max_size=8,
).map(b"".join)


async def _drain_reader(data: bytes) -> list:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    frames = front.FrameReader(reader)
    items = []
    while True:
        item = await front.read_request(frames)
        if item is None:
            return items
        items.append(item)
        if isinstance(item, Rejected) and item.fatal:
            return items
        assert len(items) <= len(data), "the reader stopped consuming"


class TestReaderFuzz:
    @settings(max_examples=150, deadline=None)
    @given(_STREAMS)
    def test_arbitrary_bytes_yield_only_requests_errors_or_a_stop(self,
                                                                  data):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(front, "MAX_LINE_BYTES", _FUZZ_LINE_CAP)
            items = asyncio.run(asyncio.wait_for(_drain_reader(data), 5.0))
        pieces = []
        for item in items:
            if isinstance(item, bytes):
                assert item and len(item) <= _FUZZ_LINE_CAP + 1
                pieces.append(item)
            elif isinstance(item, BinaryFrame):
                assert len(item.dims) == item.header.ndim
                assert len(item.payload) == item.nbytes
                pieces.append(item.raw)
            else:
                assert isinstance(item, Rejected)
                assert item.reply["ok"] is False
                assert item.reply["type"] == "error" and item.reply["error"]
        if len(pieces) == len(items):
            # Nothing rejected: the reader walked the bytes in order and
            # left at most a truncated tail unread — it never desynced.
            assert data.startswith(b"".join(pieces))


# ----------------------------------------------------------------------
# The journal and the gateway's op label.
# ----------------------------------------------------------------------
def test_journal_lines_keep_their_prefix_and_field_order(capsys, tmp_path):
    log = tmp_path / "faults.jsonl"
    journal = Journal("repro.net", fault_log=log)
    journal.log("worker_down", worker=1, reason="process died", restarts=0)
    Journal("repro.cluster").log("backend_up", backend="h:1", state="up")
    assert capsys.readouterr().err.splitlines() == [
        "repro.net: worker_down worker=1 reason=process died restarts=0",
        "repro.cluster: backend_up backend=h:1 state=up",
    ]
    (entry,) = journal.snapshot()
    assert list(entry) == ["ts", "event", "worker", "reason", "restarts"]
    assert json.loads(log.read_text()) == {**entry}


class _HangUpOnBinary(socketserver.StreamRequestHandler):
    """A fake backend: answers JSON, hangs up on the first binary frame."""

    def handle(self) -> None:
        self.wfile.write(dump_line({
            "type": "hello", "protocol": 1, "max_protocol": 2,
            "backend": "float", "input_size": SPEC.input_size,
            "num_classes": SPEC.output_size, "workers": 1,
            "queue_limit": 32,
        }))
        while True:
            first = self.rfile.peek(1)[:1]
            if not first or first[0] == BIN_MAGIC:
                return  # the frame stays in flight at the gateway
            message = json.loads(self.rfile.readline())
            reply = {"id": message["id"], "ok": True, "type": message["op"]}
            if message["op"] == "open":
                reply.update(session=message["session"], seq=0, protocol=2)
            self.wfile.write(dump_line(reply))


@contextmanager
def _fake_backend():
    backend = socketserver.ThreadingTCPServer(("127.0.0.1", 0),
                                              _HangUpOnBinary)
    backend.daemon_threads = True
    thread = threading.Thread(target=backend.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = backend.server_address
        yield f"{host}:{port}"
    finally:
        backend.shutdown()
        backend.server_close()
        thread.join(timeout=5)


def test_gateway_names_the_binary_op_that_was_in_flight():
    with _fake_backend() as key, Gateway([key]) as gateway:
        conn = _RawConn(gateway.address)
        try:
            conn.send_json(id=1, op="open", session="lm", protocol=2)
            assert conn.recv_json()["protocol"] == 2
            tokens = np.arange(4, dtype="<i8").tobytes()
            conn.send_raw(build_binary_frame(
                BIN_SCORE, 5, (4,), tokens, session=b"lm",
                dtype_code=BIN_DTYPE_I8,
            ))
            reply = conn.error()
            assert reply["id"] == 5 and reply["retryable"] is True
            assert "the 'score' request in flight" in reply["error"]
        finally:
            conn.close()


@pytest.mark.parametrize("kind", ["netserver", "gateway"])
def test_close_returns_while_a_client_stays_connected(kind, compiled):
    """Since Python 3.12 ``Server.wait_closed`` waits for every accepted
    connection, so awaiting it before the readers are cancelled would
    hold ``close()`` until the join timeout."""
    with ExitStack() as stack:
        if kind == "netserver":
            server = NetServer(compiled, workers=1)
        else:
            server = Gateway([stack.enter_context(_fake_backend())])
        server.start()
        conn = _RawConn(server.address)  # connected and idle
        try:
            began = time.monotonic()
            server.close()
            assert time.monotonic() - began < 10
            assert conn.hung_up()
        finally:
            conn.close()
