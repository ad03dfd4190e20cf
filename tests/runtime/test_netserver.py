"""The network serving front-end, end to end over real sockets.

Everything here runs against real worker processes on an ephemeral
localhost port.  The headline invariants:

* logits served over the wire are **byte-identical** to a standalone
  ``repro.runtime.Session`` on the same stream, for both backends;
* named sessions survive reconnects and always land on the same worker
  (stable-hash routing), so carried state stays worker-local;
* backpressure is explicit (``busy`` frames, never unbounded buffering)
  and a busy'd frame is provably **not** applied to the stream;
* ``close()`` drains: every dispatched frame's reply reaches its client;
* the soak test: 8 concurrent clients x 50 frames against 2 workers with
  zero dropped/duplicated/reordered responses (sequence-checked) and
  byte-identity throughout.
"""

import gc
import json
import logging

import numpy as np
import pytest

from repro.config import RNNSpec
from repro.errors import ConfigError
from repro.nn.rnn import StackedRNNClassifier
from repro.runtime import compile
from repro.runtime.net import (
    Client,
    NetError,
    NetServer,
    decode_array,
    encode_array,
    route_session,
)
from repro.runtime.net.client import _CHUNK_FRAMES
from repro.runtime.net.protocol import (
    MAX_PUSH_MANY_FRAMES,
    dump_line,
    error_reply,
    parse_line,
)

SPEC = RNNSpec("lstm", 10, (32,), 6, block_sizes=(4,))
TIMEOUT = 15.0


def _compiled(backend: str):
    model = StackedRNNClassifier(
        SPEC, structured=True, rng=np.random.default_rng(0)
    )
    return compile(model, backend=backend, cache=False)


def _streams(count: int, frames: int, seed: int = 5) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(
        (count, frames, SPEC.input_size)
    )


def _standalone(compiled, stream: np.ndarray) -> np.ndarray:
    """The baseline bytes: one stream through a width-1 Session."""
    return compiled.session().run(stream[:, None, :])[:, 0]


@pytest.fixture(scope="module")
def fixed_compiled():
    return _compiled("fixed")


@pytest.fixture(scope="module")
def net_server(fixed_compiled):
    """One 2-worker fixed-backend server shared by this module's tests."""
    with NetServer(fixed_compiled, workers=2, queue_limit=32) as server:
        yield server


def _client(server: NetServer) -> Client:
    return Client(*server.address, timeout=TIMEOUT)


# ----------------------------------------------------------------------
# Protocol building blocks (no sockets).
# ----------------------------------------------------------------------


class TestProtocol:
    def test_array_roundtrip_is_exact(self):
        values = np.random.default_rng(0).standard_normal(64)
        assert np.array_equal(decode_array(encode_array(values)), values)

    def test_list_arrays_accepted(self):
        assert np.array_equal(
            decode_array([1.5, -2.25, 3.0]), np.array([1.5, -2.25, 3.0])
        )

    def test_bad_payloads_raise(self):
        with pytest.raises(NetError, match="base64 dict or a list"):
            decode_array("nope")
        with pytest.raises(NetError, match="malformed array"):
            decode_array({"dtype": "<f8", "shape": [2], "b64": "!!!"})
        with pytest.raises(NetError, match="wire dtype"):
            decode_array({"dtype": "<f4", "shape": [1], "b64": "AAAA"})

    def test_lines_roundtrip(self):
        message = {"id": 3, "op": "ping"}
        line = dump_line(message)
        assert line.endswith(b"\n")
        assert parse_line(line) == message

    def test_parse_rejects_non_objects(self):
        with pytest.raises(NetError, match="JSON object"):
            parse_line(b"[1, 2]\n")
        with pytest.raises(NetError, match="not valid JSON"):
            parse_line(b"{nope\n")

    def test_error_reply_shape(self):
        reply = error_reply(7, ConfigError("boom"))
        assert reply == {
            "id": 7, "ok": False, "type": "error",
            "kind": "ConfigError", "error": "boom",
        }

    def test_route_session_is_stable_and_in_range(self):
        for workers in (1, 2, 5):
            for name in ("a", "stream-42", "x" * 100):
                index = route_session(name, workers)
                assert 0 <= index < workers
                assert index == route_session(name, workers)  # pure
        # Pinned: must never change across releases, or restarted servers
        # would route carried state to the wrong worker.
        assert route_session("selftest-0", 2) == 1
        assert route_session("selftest-1", 2) == 0

    def test_constructor_validation(self, fixed_compiled):
        with pytest.raises(ConfigError, match="compiled model"):
            NetServer()
        with pytest.raises(ConfigError, match="workers"):
            NetServer(fixed_compiled, workers=0)
        with pytest.raises(ConfigError, match="queue_limit"):
            NetServer(fixed_compiled, queue_limit=0)
        with pytest.raises(ConfigError, match="max_batch"):
            NetServer(fixed_compiled, max_batch=0)


# ----------------------------------------------------------------------
# Byte identity over the wire.
# ----------------------------------------------------------------------


class TestNetByteIdentity:
    @pytest.mark.parametrize("protocol", [1, 2])
    @pytest.mark.parametrize("frames", [10, 2 * _CHUNK_FRAMES + 7])
    def test_blocking_and_run_match_standalone(
        self, net_server, fixed_compiled, frames, protocol
    ):
        """``run`` sends push_many chunks; a stream longer than two of
        them must still match blocking pushes and a standalone session."""
        stream = _streams(1, frames, seed=11)[0]
        expected = _standalone(fixed_compiled, stream)
        with Client(*net_server.address, timeout=TIMEOUT,
                    protocol=protocol) as client:
            blocking = client.session(f"identity-blocking-{frames}-{protocol}")
            got_blocking = np.stack([blocking.push(f) for f in stream])
            streamed = client.session(f"identity-run-{frames}-{protocol}")
            got_run = streamed.run(stream)
            assert client.protocol == protocol
        assert np.array_equal(got_blocking, expected)
        assert got_run.tobytes() == expected.tobytes()
        assert streamed.frames_pushed == frames

    @pytest.mark.parametrize("protocol", [1, 2])
    def test_run_keeps_one_request_in_flight(
        self, net_server, fixed_compiled, protocol, monkeypatch
    ):
        """Each chunk's reply is read before the next chunk is sent, so a
        recovery never leaves requests of its own behind it."""
        stream = _streams(1, 2 * _CHUNK_FRAMES + 7, seed=23)[0]
        with Client(*net_server.address, timeout=TIMEOUT,
                    protocol=protocol) as client:
            session = client.session(f"one-in-flight-{protocol}")
            outstanding, peaks = [0], []

            def counted(send):
                def wrapped(*args, **kwargs):
                    outstanding[0] += 1
                    peaks.append(outstanding[0])
                    return send(*args, **kwargs)
                return wrapped

            recv_for = client._recv_for

            def answered(rid):
                reply = recv_for(rid)
                outstanding[0] -= 1
                return reply

            monkeypatch.setattr(client, "_send", counted(client._send))
            monkeypatch.setattr(client, "_send_binary",
                                counted(client._send_binary))
            monkeypatch.setattr(client, "_recv_for", answered)
            got = session.run(stream)
        assert peaks == [1, 1, 1]  # three chunks, one at a time
        assert got.tobytes() == _standalone(fixed_compiled, stream).tobytes()

    def test_float_backend_over_the_wire(self):
        compiled = _compiled("float")
        streams = _streams(2, 8, seed=13)
        with NetServer(compiled, workers=1) as server:
            with Client(*server.address, timeout=TIMEOUT) as client:
                for index, stream in enumerate(streams):
                    session = client.session(f"float-{index}")
                    got = session.run(stream)
                    assert np.array_equal(
                        got, _standalone(compiled, stream)
                    ), f"float stream {index} perturbed by the wire"

    def test_integer_frames_over_the_wire(self, net_server, fixed_compiled):
        """Surface 4 of the shared-coercion contract (see test_coerce)."""
        rng = np.random.default_rng(17)
        stream = rng.integers(
            -4, 5, size=(6, SPEC.input_size)
        ).astype(np.int32)
        expected = _standalone(fixed_compiled, stream.astype(np.float64))
        with _client(net_server) as client:
            session = client.session("identity-int32")
            got = np.stack([session.push(frame) for frame in stream])
        assert np.array_equal(got, expected)

    def test_reset_between_utterances(self, net_server, fixed_compiled):
        stream = _streams(1, 6, seed=19)[0]
        expected = _standalone(fixed_compiled, stream)
        with _client(net_server) as client:
            session = client.session("identity-reset")
            first = session.run(stream)
            session.reset()
            assert session.frames_pushed == 0
            second = session.run(stream)
        assert np.array_equal(first, expected)
        assert np.array_equal(second, expected)


# ----------------------------------------------------------------------
# Session routing, persistence, stats.
# ----------------------------------------------------------------------


class TestSessionsAndStats:
    def test_session_survives_reconnect_on_same_worker(
        self, net_server, fixed_compiled
    ):
        stream = _streams(1, 10, seed=23)[0]
        expected = _standalone(fixed_compiled, stream)
        name = "reconnect-me"
        with _client(net_server) as client:
            session = client.session(name)
            assert session.meta["existing"] is False
            first_worker = session.worker
            first_half = np.stack([session.push(f) for f in stream[:5]])
        # The connection is gone; the named stream's state is not.
        with _client(net_server) as client:
            session = client.session(name)
            assert session.meta["existing"] is True
            assert session.meta["seq"] == 5
            assert session.worker == first_worker
            assert first_worker == route_session(name, net_server.workers)
            second_half = np.stack([session.push(f) for f in stream[5:]])
            session.close()
        got = np.concatenate([first_half, second_half])
        assert np.array_equal(got, expected)

    def test_stats_aggregates_every_worker(self, net_server):
        with _client(net_server) as client:
            client.session("stats-probe").push(
                np.zeros(SPEC.input_size)
            )
            entries = client.stats()
        assert [entry["worker"] for entry in entries] == [0, 1]
        assert all(entry["ok"] for entry in entries)
        totals = sum(entry["stats"]["frames"] for entry in entries)
        assert totals >= 1
        assert all(
            entry["stats"]["max_batch"] == net_server.max_batch
            for entry in entries
        )

    def test_hello_advertises_the_contract(self, net_server):
        with _client(net_server) as client:
            assert client.hello["protocol"] == 1
            assert client.backend == "fixed"
            assert client.input_size == SPEC.input_size
            assert client.num_classes == SPEC.output_size
            assert client.queue_limit == 32
            assert client.hello["workers"] == 2
            assert client.ping() < TIMEOUT


# ----------------------------------------------------------------------
# Errors and protocol abuse.
# ----------------------------------------------------------------------


class TestErrorFrames:
    def test_push_to_unknown_session(self, net_server):
        with _client(net_server) as client:
            rid = client._send(
                "push", session="never-opened",
                frame=encode_array(np.zeros(SPEC.input_size)),
            )
            reply = client._recv_for(rid)
        assert reply["ok"] is False
        assert "unknown session" in reply["error"]

    def test_wrong_frame_width_is_a_config_error(self, net_server):
        with _client(net_server) as client:
            client.session("bad-shape")
            rid = client._send(
                "push", session="bad-shape",
                frame=encode_array(np.zeros(SPEC.input_size + 1)),
            )
            reply = client._recv_for(rid)
        assert reply["ok"] is False and reply["kind"] == "ConfigError"
        assert "expected a" in reply["error"]

    def test_non_finite_frame_rejected_serverside(self, net_server):
        poisoned = np.full(SPEC.input_size, np.inf)
        with _client(net_server) as client:
            client.session("poisoned")
            rid = client._send(
                "push", session="poisoned", frame=encode_array(poisoned)
            )
            reply = client._recv_for(rid)
        assert reply["ok"] is False and reply["kind"] == "ConfigError"
        assert "NaN or Inf" in reply["error"]

    def test_unknown_op(self, net_server):
        with _client(net_server) as client:
            with pytest.raises(NetError, match="unknown op"):
                client.request("frobnicate")

    def test_malformed_json_line_keeps_the_connection(self, net_server):
        with _client(net_server) as client:
            client._file.write(b"{this is not json\n")
            client._file.flush()
            reply = client._recv()
            assert reply["ok"] is False and reply["id"] is None
            assert "not valid JSON" in reply["error"]
            client.ping()  # still alive

    def test_missing_session_id(self, net_server):
        with _client(net_server) as client:
            with pytest.raises(NetError, match="session id"):
                client.request("open")

    def test_run_validates_whole_stream_before_sending(
        self, net_server, fixed_compiled
    ):
        """A bad frame in a later push_many chunk raises before the
        first chunk is sent."""
        stream = _streams(1, 2 * _CHUNK_FRAMES, seed=43)[0].copy()
        stream[_CHUNK_FRAMES + 7, 0] = np.nan  # poison the SECOND chunk
        with _client(net_server) as client:
            session = client.session("late-poison")
            with pytest.raises(ConfigError, match="NaN or Inf"):
                session.run(stream)
            # Nothing was sent: the session is untouched and the
            # connection is still in sync.
            assert session.frames_pushed == 0
            seqs = {entry["session"]: entry["seq"]
                    for entry in client.sessions()}
            assert seqs["late-poison"] == 0
            good = _streams(1, 4, seed=44)[0]
            got = session.run(good)
            assert np.array_equal(got, _standalone(fixed_compiled, good))

    def test_session_close_is_idempotent(self, net_server):
        """Review regression: explicit close inside a with-block used to
        raise 'unknown session' from __exit__."""
        with _client(net_server) as client:
            with client.session("close-twice") as session:
                session.push(np.zeros(SPEC.input_size))
                session.close()  # __exit__ closes again: must be a no-op
            with pytest.raises(NetError, match="is closed"):
                session.push(np.zeros(SPEC.input_size))

    def test_stats_id_collision_with_pipelined_push(self, net_server):
        """Review regression: a stats request reusing an in-flight push's
        client-chosen id used to swallow the push reply into the stats
        aggregate and corrupt the admission accounting."""
        frame = encode_array(np.zeros(SPEC.input_size))
        with _client(net_server) as client:
            client.session("collide")
            # Hand-roll two requests with the SAME id, push first so its
            # worker reply is in flight when the stats fan-out starts.
            client._file.write(dump_line(
                {"id": 99, "op": "push", "session": "collide",
                 "frame": frame}
            ))
            client._file.write(dump_line({"id": 99, "op": "stats"}))
            client._file.flush()
            replies = [client._recv() for _ in range(2)]
            by_type = {reply["type"]: reply for reply in replies}
        assert set(by_type) == {"push", "stats"}
        assert by_type["push"]["ok"] and "logits" in by_type["push"]
        stats = by_type["stats"]
        assert stats["ok"] and len(stats["workers"]) == 2
        assert all("stats" in part for part in stats["workers"])

    def test_dead_worker_surfaces_as_error_reply(self, fixed_compiled):
        """A killed worker must produce an actionable error, not a hang.

        ``reattach=False`` pins the PR 5 fail-fast contract: without the
        recovery machinery the client sees exactly one structured
        *retryable* error frame (the supervisor answers for the dead
        worker while its replacement spawns).
        """
        import time

        from repro.runtime.net import RetryableError

        with NetServer(fixed_compiled, workers=2) as server:
            with Client(*server.address, timeout=TIMEOUT) as client:
                session = client.session("doomed", reattach=False)
                victim = session.worker
                proc = server._procs[victim]
                proc.terminate()
                proc.join(timeout=10)
                time.sleep(0.1)
                with pytest.raises(RetryableError, match="died"):
                    session.push(np.zeros(SPEC.input_size))
                # The other worker keeps serving.
                survivor = next(
                    name for name in ("a", "b", "c", "d")
                    if route_session(name, 2) != victim
                )
                other = client.session(survivor)
                out = other.push(np.zeros(SPEC.input_size))
                assert out.shape == (SPEC.output_size,)

    def test_inflight_request_reaped_when_worker_dies(self, fixed_compiled):
        """Review regression: a worker dying AFTER dispatch used to leak
        the admission slot and stall every drain; the reaper must fail
        the in-flight request with an error reply instead."""
        import os
        import signal as _signal
        import time

        with NetServer(fixed_compiled, workers=2) as server:
            with Client(*server.address, timeout=TIMEOUT) as client:
                session = client.session("doomed-midflight")
                proc = server._procs[session.worker]
                # Freeze the worker so the push is dispatched but never
                # answered, then kill it mid-flight.
                os.kill(proc.pid, _signal.SIGSTOP)
                rid = client._send(
                    "push", session="doomed-midflight",
                    frame=encode_array(np.zeros(SPEC.input_size)),
                )
                time.sleep(0.2)  # reader admits + dispatches the push
                os.kill(proc.pid, _signal.SIGKILL)
                reply = client._recv_for(rid)  # the supervisor's answer
                assert reply["ok"] is False
                assert "died" in reply["error"]
                # PR 8: in-flight failures are marked safe to resend.
                assert reply.get("retryable") is True
        # Context exit ran close(): the reap freed _inflight, so the
        # drain returned promptly instead of waiting out its timeout.

    def test_negative_shape_dims_cannot_kill_a_worker(
        self, net_server, fixed_compiled
    ):
        """Review regression: shape [-2, -4] has a positive product, so
        it passed validation and the worker-side reshape blew up the
        whole worker process (and every session pinned to it)."""
        import base64

        evil = {
            "dtype": "<f8",
            "shape": [-2, -4],
            "b64": base64.b64encode(b"\x00" * 64).decode(),
        }
        with _client(net_server) as client:
            session = client.session("evil-shape")
            rid = client._send("push", session="evil-shape", frame=evil)
            reply = client._recv_for(rid)
            assert reply["ok"] is False
            assert "negative dimension" in reply["error"]
            # The worker survived: the same session still serves.
            out = session.push(np.zeros(SPEC.input_size))
            assert np.array_equal(
                out,
                _standalone(
                    fixed_compiled, np.zeros((1, SPEC.input_size))
                )[0],
            )

    def test_session_close_is_best_effort_on_dead_connection(
        self, net_server
    ):
        """Review regression: close() raising out of __exit__ when the
        server can no longer honour it turned orderly shutdowns into
        client crashes."""
        client = _client(net_server)
        session = client.session("orphaned-close")
        client.close()  # connection gone before the session close
        session.close()  # must swallow, not raise

    def test_duplicate_inflight_id_rejected(self, net_server):
        """Review regression: two in-flight pushes sharing an id used to
        corrupt the admission accounting (second reply dropped as a
        presumed reaper duplicate, slot leaked forever)."""
        frame = encode_array(np.zeros(SPEC.input_size))
        with _client(net_server) as client:
            client.session("dup-id")
            for _ in range(2):
                client._file.write(dump_line(
                    {"id": 77, "op": "push", "session": "dup-id",
                     "frame": frame}
                ))
            client._file.flush()
            replies = [client._recv() for _ in range(2)]
            kinds = sorted(r["type"] for r in replies)
            assert kinds == ["error", "push"]
            error = next(r for r in replies if r["type"] == "error")
            assert "already in flight" in error["error"]
            # Accounting intact: the connection still serves normally.
            client.ping()
            session = client.session("dup-id-after")
            assert session.push(np.zeros(SPEC.input_size)).shape == (
                SPEC.output_size,
            )

    def test_push_returns_writable_logits(self, net_server):
        """Review regression: push handed back the read-only wire view,
        breaking in-place math that works on a local Session."""
        with _client(net_server) as client:
            out = client.session("writable").push(
                np.zeros(SPEC.input_size)
            )
        assert out.flags.writeable
        out -= out.max()  # the Session-parity idiom must not raise

    def test_close_releases_serve_forever(self, fixed_compiled):
        """Review regression: serve_forever() could only be stopped by
        its own signal handlers, so close() from another thread leaked
        the serving thread forever."""
        import threading

        server = NetServer(fixed_compiled, workers=1)
        thread = threading.Thread(
            target=lambda: server.serve_forever(install_signals=False),
            daemon=True,
        )
        thread.start()
        deadline = 10.0
        import time

        start = time.monotonic()
        while server._state != "started":
            assert time.monotonic() - start < deadline, "never started"
            time.sleep(0.01)
        server.close()
        thread.join(timeout=deadline)
        assert not thread.is_alive(), "serve_forever did not return"

    def test_empty_stream_run_returns_empty(self, net_server):
        """Review regression: run() on a (0, D) stream used to crash in
        np.stack instead of mirroring Session.run's empty result."""
        with _client(net_server) as client:
            session = client.session("empty-stream")
            out = session.run(np.empty((0, SPEC.input_size)))
        assert out.shape == (0, SPEC.output_size)

    def test_client_coerces_before_sending(self, net_server):
        with _client(net_server) as client:
            session = client.session("client-coerce")
            with pytest.raises(ConfigError, match="NaN or Inf"):
                session.push(np.full(SPEC.input_size, np.nan))
            with pytest.raises(ConfigError, match="expected a"):
                session.push(np.zeros(SPEC.input_size + 2))


# ----------------------------------------------------------------------
# Worker rounds: busy sessions share step_rows calls and take turns.
# ----------------------------------------------------------------------


class TestWorkerRounds:
    @pytest.mark.parametrize("backend,max_batch,per_round", [
        ("fixed", 16, 2), ("fixed", 1, 1), ("float", 16, 2),
    ])
    def test_held_requests_coalesce_into_shared_rounds(
        self, fixed_compiled, backend, max_batch, per_round
    ):
        """Two sessions' ``push_many`` requests land in one ring drain
        (the worker stalls on reading the first), so every round steps
        one row of each — up to ``max_batch`` rows per call — through
        the real worker process, on both backends."""
        compiled = fixed_compiled if backend == "fixed" else _compiled(backend)
        frames = 12
        streams = _streams(2, frames, seed=47)
        names = ["round-a", "round-b"]
        with NetServer(
            compiled, workers=1, max_batch=max_batch,
            faults="stall:after=2,seconds=0.5",  # after the two opens
        ) as server:
            with _client(server) as client:
                for name in names:
                    client.session(name)
                rids = [
                    client._send("push_many", session=name,
                                 frames=encode_array(stream))
                    for name, stream in zip(names, streams)
                ]
                replies = {}
                for _ in rids:
                    reply = client._check(client._recv())
                    replies[reply["id"]] = reply
                (entry,) = client.stats()
        stats = entry["stats"]
        assert stats["max_coalesced"] == per_round
        assert stats["frames"] == 2 * frames
        assert stats["batches"] == 2 * frames // per_round
        for rid, stream in zip(rids, streams):
            assert replies[rid]["seq"] == frames
            got = Client._logits(replies[rid])
            assert got.tobytes() == _standalone(compiled, stream).tobytes()

    def test_a_push_overtakes_a_long_push_many(self, fixed_compiled):
        """A long ``push_many`` steps one row per round, so another
        session's push — and a ``stats`` probe — are answered between
        its rounds, long before it completes."""
        long = _streams(1, MAX_PUSH_MANY_FRAMES, seed=53)[0]
        frame = _streams(1, 1, seed=59)[0, 0]
        with NetServer(fixed_compiled, workers=1) as server:
            with _client(server) as client:
                client.session("long")
                client.session("short")
                long_rid = client._send("push_many", session="long",
                                        frames=encode_array(long))
                push_rid = client._send("push", session="short",
                                        frame=encode_array(frame))
                stats_rid = client._send("stats")
                replies = [client._check(client._recv()) for _ in range(3)]
        order = [reply["id"] for reply in replies]
        assert order[-1] == long_rid, order
        assert set(order[:2]) == {push_rid, stats_rid}
        by_id = {reply["id"]: reply for reply in replies}
        assert Client._logits(by_id[push_rid]).tobytes() == (
            _standalone(fixed_compiled, frame[None]).tobytes()
        )
        assert Client._logits(by_id[long_rid]).tobytes() == (
            _standalone(fixed_compiled, long).tobytes()
        )


# ----------------------------------------------------------------------
# Backpressure: bounded queues, busy frames, no silent application.
# ----------------------------------------------------------------------


class TestBackpressure:
    def test_flood_draws_busy_and_busy_frames_are_not_applied(
        self, fixed_compiled
    ):
        """Flooding past queue_limit gets explicit busy frames, and a
        busy'd frame provably never touched the session's state."""
        flood = 24
        stream = _streams(1, flood, seed=29)[0]
        with NetServer(fixed_compiled, workers=1, queue_limit=2) as server:
            with Client(*server.address, timeout=TIMEOUT) as client:
                session = client.session("flooded")
                rids = [
                    client._send(
                        "push", session="flooded",
                        frame=encode_array(frame),
                    )
                    for frame in stream
                ]
                replies = {}
                for _ in rids:
                    reply = client._recv()
                    replies[reply["id"]] = reply
        assert len(replies) == flood  # nothing dropped silently
        busy = [r for r in rids if replies[r].get("type") == "busy"]
        accepted = [r for r in rids if replies[r].get("ok")]
        assert busy, "the flood never drew a busy frame"
        assert accepted, "the flood starved every frame"
        # Accepted pushes kept stream order: seq is 1..len(accepted).
        seqs = [replies[r]["seq"] for r in accepted]
        assert seqs == list(range(1, len(accepted) + 1))
        # The decisive check: replaying only the accepted frames through a
        # standalone session reproduces the served bytes exactly — so the
        # busy'd frames were never applied server-side.
        session = fixed_compiled.session()
        index_of = {rid: i for i, rid in enumerate(rids)}
        for rid in accepted:
            expected = session.push(stream[index_of[rid]])
            got = decode_array(replies[rid]["logits"])
            assert np.array_equal(got, expected)


# ----------------------------------------------------------------------
# Drain on close.
# ----------------------------------------------------------------------


class TestDrain:
    def test_close_delivers_every_inflight_reply(self, fixed_compiled):
        """close() must flush dispatched frames' replies, not drop them."""
        import threading
        import time

        frames = 30
        stream = _streams(1, frames, seed=37)[0]
        server = NetServer(fixed_compiled, workers=1, queue_limit=64).start()
        client = Client(*server.address, timeout=TIMEOUT)
        session = client.session("drained")
        rids = [
            client._send(
                "push", session="drained", frame=encode_array(frame)
            )
            for frame in stream
        ]
        time.sleep(0.05)  # let the reader admit all 30 into worker queues
        closer = threading.Thread(target=server.close, name="closer")
        closer.start()
        replies = [client._recv() for _ in rids]
        closer.join(timeout=TIMEOUT)
        assert not closer.is_alive(), "close() hung during drain"
        assert [r["id"] for r in replies] == rids  # ordered, complete
        assert all(r.get("ok") for r in replies)
        got = np.stack([decode_array(r["logits"]) for r in replies])
        assert np.array_equal(got, _standalone(fixed_compiled, stream))
        # After the drain the server is gone: the connection reports EOF.
        with pytest.raises(NetError, match="closed the connection"):
            client.request("ping")
        client.close()

    def test_replies_to_a_departed_client_are_dropped_quietly(
        self, fixed_compiled, caplog
    ):
        """A client that sends pushes and closes its connection without
        reading the replies: the server must drop them quietly rather
        than log asyncio's teardown noise.  A held first publish keeps
        every reply owed until after the close."""
        import time

        caplog.set_level(logging.WARNING, logger="asyncio")
        frames = 24
        stream = _streams(1, frames, seed=43)[0]
        with NetServer(
            fixed_compiled, workers=1,
            faults="delay_publish:seconds=0.3,times=1",
        ) as server:
            client = Client(*server.address, timeout=TIMEOUT)
            client.session("departed")
            for frame in stream:
                client._send(
                    "push", session="departed", frame=encode_array(frame)
                )
            client.close()
            # The session outlives its connection: once its seq reaches
            # the stream's length every owed reply has been settled.
            with Client(*server.address, timeout=TIMEOUT) as probe:
                deadline = time.monotonic() + TIMEOUT
                while frames not in [entry["seq"] for entry
                                     in probe.sessions()
                                     if entry["session"] == "departed"]:
                    assert time.monotonic() < deadline, "pushes never applied"
                    time.sleep(0.01)
        gc.collect()  # an unretrieved exception is logged on collection
        noise = [
            record.getMessage() for record in caplog.records
            if record.name == "asyncio" and any(
                text in record.getMessage() for text in (
                    "socket.send() raised exception",
                    "Future exception was never retrieved",
                )
            )
        ]
        assert noise == []

    def test_close_is_idempotent(self, fixed_compiled):
        server = NetServer(fixed_compiled, workers=1).start()
        server.close()
        server.close()
        with pytest.raises(ConfigError, match="restarted"):
            server.start()


# ----------------------------------------------------------------------
# The soak test (ISSUE 5 satellite): 8 clients x 50 frames, 2 workers.
# ----------------------------------------------------------------------


class TestSoak:
    def test_eight_clients_fifty_frames_two_workers(self, fixed_compiled):
        """Zero dropped/duplicated/reordered responses, byte-identity.

        Every push reply carries the worker-side stream counter and the
        client enforces gapless, strictly-increasing sequence numbers
        (``NetSession._accept_seq``) — so a dropped, duplicated or
        reordered response surfaces as a hard ``NetError`` here, not as
        silent corruption.  On top of that, every stream's logits must be
        byte-identical to its standalone session.
        """
        import threading

        clients, frames = 8, 50
        streams = _streams(clients, frames, seed=41)
        expected = [
            _standalone(fixed_compiled, stream) for stream in streams
        ]
        results: list = [None] * clients
        discarded = [0] * clients
        recoveries = [0] * clients
        errors: list = []

        with NetServer(
            fixed_compiled, workers=2, queue_limit=16
        ) as server:

            def soak_client(index: int) -> None:
                try:
                    with Client(*server.address, timeout=TIMEOUT) as client:
                        session = client.session(f"soak-{index}")
                        results[index] = session.run(streams[index])
                        assert session.frames_pushed == frames
                        discarded[index] = session.discarded_frames
                        recoveries[index] = session.recoveries
                except Exception as error:  # noqa: BLE001 — asserted below
                    errors.append(f"client {index}: {error!r}")

            threads = [
                threading.Thread(
                    target=soak_client, args=(i,), name=f"soak-{i}"
                )
                for i in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            hung = [t.name for t in threads if t.is_alive()]
            assert not hung, f"soak client(s) hung: {hung}"

            with Client(*server.address, timeout=TIMEOUT) as client:
                entries = client.stats()

        assert not errors, f"soak errors: {errors}"
        served = sum(entry["stats"]["frames"] for entry in entries)
        # Every frame exactly once: with one request in flight per
        # session a busy is resent, never recovered by a reset.
        assert served == clients * frames, (
            f"recoveries {recoveries}, discarded frames {discarded}"
        )
        assert recoveries == [0] * clients
        for index in range(clients):
            assert results[index] is not None, f"stream {index} dropped"
            assert np.array_equal(results[index], expected[index]), (
                f"stream {index} not byte-identical over the wire"
            )
        # Both workers actually carried load (8 hashed names over 2
        # workers; pinned by route_session stability).
        busy_workers = [
            entry["worker"] for entry in entries
            if entry["stats"]["frames"] > 0
        ]
        assert len(busy_workers) == 2


def test_session_names_route_both_workers():
    """Guard for the soak's two-worker assertion: the 8 soak names do
    not all hash to one worker (would silently weaken the test)."""
    routed = {route_session(f"soak-{i}", 2) for i in range(8)}
    assert routed == {0, 1}


def test_wire_json_is_plain_ndjson(fixed_compiled):
    """One request per line, one JSON object per reply — pin the framing."""
    with NetServer(fixed_compiled, workers=1) as server:
        import socket

        with socket.create_connection(server.address, timeout=TIMEOUT) as sock:
            sock.settimeout(TIMEOUT)
            file = sock.makefile("rwb")
            hello = json.loads(file.readline())
            assert hello["type"] == "hello"
            file.write(b'{"id": 1, "op": "ping"}\n')
            file.flush()
            assert json.loads(file.readline()) == {
                "id": 1, "ok": True, "type": "pong",
            }
