"""The round core, and the NetServer worker's wire policy around it.

The round invariants are asserted once, against
:class:`repro.runtime.rounds.Rounds` hosted as both servers host it,
through a recording executor that shows every ``step_rows`` call's rows
and can inject a failure.  The worker's single-threaded ``_Scheduler``
runs here without worker processes or sockets, its replies read off a
list: control-op order, malformed requests, the session table, the
response ring, the LM drivers and ``finish``.
"""

import json
import os

import numpy as np
import pytest

from repro.config import RNNSpec
from repro.errors import ConfigError
from repro.lm import DEMO_TEXT, CharVocab, build_char_lm
from repro.nn.rnn import StackedRNNClassifier
from repro.runtime import Session, compile
from repro.runtime.net.protocol import MAX_PUSH_MANY_FRAMES
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
)
from repro.runtime.net.worker import _Scheduler
from repro.runtime.rounds import Lane, Op, Rounds
from repro.runtime.workloads import generate_params

SPEC = RNNSpec("lstm", 10, (32,), 6, block_sizes=(4,))
VOCAB = CharVocab.from_text(DEMO_TEXT)
TOKENS = VOCAB.encode(DEMO_TEXT)


def _asr(backend: str):
    model = StackedRNNClassifier(
        SPEC, structured=True, rng=np.random.default_rng(0)
    )
    return compile(model, backend=backend, cache=False)


@pytest.fixture(scope="module")
def fixed_asr():
    return _asr("fixed")


@pytest.fixture(scope="module")
def float_asr():
    return _asr("float")


@pytest.fixture(scope="module")
def float_lm():
    model = build_char_lm(
        VOCAB.size, layer_sizes=(16,), cell_type="gru",
        block_sizes=(4,), seed=3,
    )
    return compile(model, backend="float", workload="lm", vocab=VOCAB,
                   cache=False)


class _Replies(list):
    """The worker's reply queue: every ``put`` lands in order."""

    put = list.append


class _Recorder:
    """The real executor, with every ``step_rows`` round recorded.

    ``rounds`` holds each call's rows' first features, which the tests
    set to tell sessions apart; ``fail_next`` makes the next call raise.
    """

    def __init__(self, inner):
        self._inner = inner
        self.input_size = inner.input_size
        self.num_classes = inner.num_classes
        self.rounds: list[list[float]] = []
        self.fail_next: Exception | None = None

    def initial_state(self, batch):
        return self._inner.initial_state(batch)

    def step_rows(self, rows, states):
        self.rounds.append([float(row[0]) for row in rows])
        if self.fail_next is not None:
            error, self.fail_next = self.fail_next, None
            raise error
        return self._inner.step_rows(rows, states)


class Core:
    """The round core, hosted the way the servers host it, over a recorder.

    ``finished`` lists the ops in the order the core finished them.
    """

    def __init__(self, compiled, *, max_batch=16):
        self.recorder = _Recorder(compiled.executor())
        self.finished = []
        self.rounds = Rounds(
            max_batch, done=lambda lane, op: self.finished.append(op)
        )
        self.lanes = {}

    def submit(self, name, rows):
        if name not in self.lanes:
            self.lanes[name] = Lane(self.recorder.initial_state(1))
        op = Op(rows=rows.reshape(-1, SPEC.input_size))
        self.rounds.submit(self.lanes[name], op)
        return op

    def step(self):
        rows, states = self.rounds.take()
        try:
            logits, states = self.recorder.step_rows(rows, states)
        except RuntimeError as error:
            self.rounds.fail(error)
        else:
            self.rounds.give(logits, states)

    def run(self):
        while self.rounds.busy:
            self.step()


class _Compiled:
    """What ``_Scheduler`` reads of a ``CompiledModel``, over a recorder."""

    def __init__(self, compiled):
        self.recorder = _Recorder(compiled.executor())
        self.backend = compiled.backend
        self.input_size = compiled.input_size
        self.num_classes = compiled.num_classes
        self.workload_info = compiled.workload_info

    def executor(self):
        return self.recorder


class Worker:
    """One in-process scheduler, its rings and its reply list.

    ``slot_bytes=8`` fits no result in a ring slot, so every reply —
    results included — lands on the reply list in emission order.
    """

    def __init__(self, compiled, *, max_batch=16, session_cap=None,
                 slot_bytes=8):
        self._compiled = _Compiled(compiled)
        self.recorder = self._compiled.recorder
        self.rings = RingPair.create(4, slot_bytes)
        read_fd, write_fd = os.pipe()
        os.set_blocking(write_fd, False)
        self._bell_read = os.fdopen(read_fd, "rb")
        self.bell = os.fdopen(write_fd, "wb")
        self.replies = _Replies()
        self.scheduler = _Scheduler(
            0, self._compiled, self.rings, self.replies, bell=self.bell,
            max_batch=max_batch, session_cap=session_cap,
        )
        self._tickets = 0

    def close(self):
        self.rings.close()
        self.rings.unlink()
        self.bell.close()
        self._bell_read.close()

    # -- requests --------------------------------------------------------
    def request(self, op, session, payload=None, shape=()):
        self._tickets += 1
        self.scheduler.accept(self._tickets, op, session, payload,
                              tuple(shape))
        return self._tickets

    def open(self, session):
        return self.request(OP_OPEN, session)

    def push(self, session, frame):
        frame = np.asarray(frame, dtype="<f8")
        return self.request(OP_PUSH, session, frame.tobytes(), frame.shape)

    def push_many(self, session, frames):
        frames = np.asarray(frames, dtype="<f8")
        return self.request(OP_PUSH_MANY, session, frames.tobytes(),
                            frames.shape)

    def run(self):
        """Step rounds until no session has a row left."""
        while self.scheduler.busy:
            self.scheduler.step_round()

    # -- replies ---------------------------------------------------------
    def order(self):
        """Tickets in the order the worker emitted their replies."""
        return [item[1] for item in sorted(
            (item for item in self.replies if item[2] is not None),
            key=lambda item: item[2],
        )]

    def reply(self, ticket):
        (reply,) = [item[3] for item in self.replies if item[1] == ticket]
        return reply

    def values(self, ticket):
        payload, shape = self.reply(ticket)["raw"]
        return np.frombuffer(payload, dtype="<f8").reshape(shape)

    def session_seq(self, session):
        self.scheduler.list_sessions("t")
        listing = self.replies.pop()[3]["sessions"]
        (entry,) = [e for e in listing if e["session"] == session]
        return entry["seq"]


@pytest.fixture
def make_worker():
    workers = []

    def make(compiled, **kwargs):
        worker = Worker(compiled, **kwargs)
        workers.append(worker)
        return worker

    yield make
    for worker in workers:
        worker.close()


def _tagged(tag: float, count: int) -> np.ndarray:
    """``count`` frames whose first feature is ``tag`` (the row's owner)."""
    frames = np.random.default_rng(int(tag)).standard_normal(
        (count, SPEC.input_size)
    )
    frames[:, 0] = tag
    return frames


def _standalone(compiled, frames: np.ndarray) -> np.ndarray:
    return compiled.session().run(frames[:, None, :])[:, 0]


# ----------------------------------------------------------------------
# Round composition.
# ----------------------------------------------------------------------


class TestRounds:
    @pytest.mark.parametrize("max_batch, sizes", [
        (1, [1] * 15),
        (2, [2] * 7 + [1]),
        (4, [4, 4, 4, 3]),
        (8, [5, 5, 5]),
    ])
    def test_a_round_takes_one_row_of_each_busy_session(
        self, fixed_asr, max_batch, sizes
    ):
        core = Core(fixed_asr, max_batch=max_batch)
        for tag in range(5):
            core.submit(f"s{tag}", _tagged(tag, 3))
        core.run()
        assert [len(r) for r in core.recorder.rounds] == sizes
        for row_tags in core.recorder.rounds:
            assert len(set(row_tags)) == len(row_tags)  # one row each
        stats = core.rounds.stats(sessions_opened=5, sessions_active=5)
        assert (stats.frames, stats.batches) == (15, len(sizes))
        assert stats.max_coalesced == max(sizes)
        assert stats.max_batch == max_batch

    def test_oldest_first_and_the_unfinished_rejoin_at_the_back(
        self, fixed_asr
    ):
        core = Core(fixed_asr, max_batch=2)
        core.submit("a", _tagged(1, 3))
        core.submit("b", _tagged(2, 1))
        core.submit("c", _tagged(3, 2))
        core.run()
        assert core.recorder.rounds == [[1, 2], [3, 1], [3, 1]]

    def test_a_session_added_mid_op_joins_the_next_round(self, fixed_asr):
        core = Core(fixed_asr)
        core.submit("long", _tagged(1, 4))
        core.step()
        core.submit("late", _tagged(2, 1))
        core.run()
        assert core.recorder.rounds == [[1], [1, 2], [1], [1]]

    def test_a_session_runs_its_ops_one_at_a_time_in_order(self, fixed_asr):
        core = Core(fixed_asr)
        frames = _tagged(1, 4)
        first = core.submit("s", frames[:3])
        second = core.submit("s", frames[3])
        core.run()
        assert [len(r) for r in core.recorder.rounds] == [1, 1, 1, 1]
        assert core.finished == [first, second]
        expected = _standalone(fixed_asr, frames)
        assert np.stack(first.collected).tobytes() == expected[:3].tobytes()
        assert second.collected[0].tobytes() == expected[3].tobytes()
        assert core.lanes["s"].frames == 4

    @pytest.mark.parametrize("backend", ["fixed", "float"])
    def test_coalesced_rows_compute_the_bytes_of_lone_rows(
        self, fixed_asr, float_asr, backend
    ):
        compiled = {"fixed": fixed_asr, "float": float_asr}[backend]
        streams = [_tagged(tag, 6 + tag) for tag in range(4)]
        results = {}
        for max_batch in (1, 16):
            core = Core(compiled, max_batch=max_batch)
            ops = [core.submit(f"s{tag}", stream)
                   for tag, stream in enumerate(streams)]
            core.run()
            results[max_batch] = [np.stack(op.collected) for op in ops]
            assert core.rounds.max_coalesced == min(max_batch, 4)
        for tag, stream in enumerate(streams):
            expected = _standalone(compiled, stream)
            assert results[1][tag].tobytes() == expected.tobytes()
            assert results[16][tag].tobytes() == expected.tobytes()

    def test_a_step_rows_failure_fails_every_op_in_its_round(
        self, fixed_asr
    ):
        core = Core(fixed_asr, max_batch=2)
        frames = {name: _tagged(tag, 2) for tag, name in
                  enumerate("abc", start=1)}
        failed_a = core.submit("a", frames["a"])
        failed_b = core.submit("b", frames["b"][0])
        spared_c = core.submit("c", frames["c"][0])
        after_a = core.submit("a", frames["a"][1])
        error = RuntimeError("backend fell over")
        core.recorder.fail_next = error
        core.run()
        assert core.recorder.rounds[0] == [1, 2]
        assert core.finished[:2] == [failed_a, failed_b]
        assert failed_a.error is error and failed_b.error is error
        assert failed_a.collected == failed_b.collected == []
        # The round's failure touched no state: c's row and a's next op
        # run from where each session stood.
        assert spared_c.error is None and after_a.error is None
        expected_c = _standalone(fixed_asr, frames["c"][:1])
        assert spared_c.collected[0].tobytes() == expected_c[0].tobytes()
        expected_a = _standalone(fixed_asr, frames["a"][1:])
        assert after_a.collected[0].tobytes() == expected_a[0].tobytes()
        assert (core.lanes["a"].frames, core.lanes["b"].frames) == (1, 0)


    def test_a_driver_refusing_its_logits_fails_only_its_op(
        self, fixed_asr
    ):
        class Refusing:
            done = False

            def next_row(self):
                return _tagged(2, 1)[0]

            def feed(self, logits):
                raise ConfigError("NaN logits")

        core = Core(fixed_asr)
        spared = core.submit("a", _tagged(1, 2))
        lane = Lane(fixed_asr.executor().initial_state(1))
        refused = Op(driver=Refusing())
        core.rounds.submit(lane, refused)
        core.run()
        assert core.recorder.rounds == [[1, 2], [1]]
        assert str(refused.error) == "NaN logits" and lane.frames == 1
        assert spared.error is None and len(spared.collected) == 2


# ----------------------------------------------------------------------
# Per-session order.
# ----------------------------------------------------------------------


class TestSessionOrder:
    def test_a_reset_waits_behind_the_rows_before_it(
        self, make_worker, fixed_asr
    ):
        worker = make_worker(fixed_asr)
        worker.open("s")
        frames = _tagged(1, 3)
        many = worker.push_many("s", frames[:2])
        reset = worker.request(OP_RESET, "s")
        push = worker.push("s", frames[2])
        assert reset not in worker.order()  # held behind the push_many
        worker.run()
        assert worker.order()[-3:] == [many, reset, push]
        assert worker.reply(reset) == {"ok": True, "type": "reset"}
        fresh = _standalone(fixed_asr, frames[2:])
        assert worker.values(push).tobytes() == fresh[0].tobytes()
        assert worker.session_seq("s") == 1

    def test_a_close_fails_the_ops_queued_behind_it(
        self, make_worker, fixed_asr
    ):
        worker = make_worker(fixed_asr)
        worker.open("s")
        many = worker.push_many("s", _tagged(1, 2))
        close = worker.request(OP_CLOSE, "s")
        stale = worker.push("s", _tagged(1, 1)[0])
        worker.run()
        assert worker.order()[-3] == many
        assert set(worker.order()[-2:]) == {close, stale}
        assert worker.reply(close) == {"ok": True, "type": "close"}
        assert "still queued behind the close" in worker.reply(stale)["error"]
        assert worker.scheduler.lifecycle_stats()["sessions"] == 0
        assert len(worker.recorder.rounds) == 2  # the stale push never ran

    def test_a_reopen_reports_the_existing_session_and_its_seq(
        self, make_worker, fixed_asr
    ):
        worker = make_worker(fixed_asr)
        first = worker.open("s")
        worker.push_many("s", _tagged(1, 3))
        again = worker.open("s")
        worker.run()
        assert worker.reply(first)["existing"] is False
        assert worker.reply(again)["existing"] is True
        assert worker.reply(again)["seq"] == 3
        assert worker.scheduler.stats().sessions_opened == 1


# ----------------------------------------------------------------------
# Failures and shutdown.
# ----------------------------------------------------------------------


class TestFailures:
    def test_a_failed_round_replies_with_its_error(
        self, make_worker, fixed_asr
    ):
        worker = make_worker(fixed_asr)
        worker.open("s")
        worker.recorder.fail_next = RuntimeError("backend fell over")
        ticket = worker.push("s", _tagged(1, 1)[0])
        worker.run()
        assert worker.reply(ticket) == {
            "ok": False, "type": "error", "kind": "RuntimeError",
            "error": "backend fell over",
        }
        assert worker.session_seq("s") == 0

    @pytest.mark.parametrize("shape", [
        (3, SPEC.input_size + 1),
        (3 * SPEC.input_size,),
        (0, SPEC.input_size),
        (MAX_PUSH_MANY_FRAMES + 1, SPEC.input_size),
    ], ids=["wrong-width", "one-dim", "empty", "over-the-cap"])
    def test_a_malformed_push_many_applies_nothing(
        self, make_worker, fixed_asr, shape
    ):
        worker = make_worker(fixed_asr)
        worker.open("s")
        ticket = worker.push_many("s", np.zeros(shape))
        assert worker.reply(ticket)["ok"] is False
        assert not worker.scheduler.busy
        assert worker.recorder.rounds == []
        assert worker.session_seq("s") == 0

    def test_a_request_for_an_unknown_session_is_refused(
        self, make_worker, fixed_asr
    ):
        worker = make_worker(fixed_asr)
        reply = worker.reply(worker.push("nobody", _tagged(1, 1)[0]))
        assert reply["kind"] == "UnknownSessionError"
        assert worker.recorder.rounds == []

    def test_a_driver_op_the_workload_lacks_is_refused(
        self, make_worker, fixed_asr
    ):
        worker = make_worker(fixed_asr)
        worker.open("s")
        tokens = np.arange(4, dtype="<i8")
        reply = worker.reply(worker.request(
            OP_SCORE, "s", tokens.tobytes(), tokens.shape
        ))
        assert reply["ok"] is False
        assert "does not serve op 'score'" in reply["error"]
        assert not worker.scheduler.busy

    def test_finish_replies_to_every_accepted_op(self, make_worker, fixed_asr):
        worker = make_worker(fixed_asr, max_batch=2)
        tickets = []
        for tag in range(3):
            worker.open(f"s{tag}")
            tickets.append(worker.push_many(f"s{tag}", _tagged(tag, 5)))
        worker.scheduler.finish(timeout=30)
        assert not worker.scheduler.busy
        for ticket in tickets:
            assert worker.values(ticket).shape == (5, fixed_asr.num_classes)

    def test_finish_stops_at_its_deadline(self, make_worker, fixed_asr):
        worker = make_worker(fixed_asr)
        worker.open("s")
        ticket = worker.push_many("s", _tagged(1, 3))
        worker.scheduler.finish(timeout=0)
        assert worker.scheduler.busy
        assert worker.recorder.rounds == []
        assert ticket not in worker.order()


# ----------------------------------------------------------------------
# Session table.
# ----------------------------------------------------------------------


class TestSessionTable:
    def test_evict_counts_and_an_unknown_evict_succeeds(
        self, make_worker, fixed_asr
    ):
        worker = make_worker(fixed_asr)
        worker.open("s")
        evicted = worker.reply(worker.request(OP_EVICT, "s"))
        missing = worker.reply(worker.request(OP_EVICT, "s"))
        assert (evicted["evicted"], missing["evicted"]) == (True, False)
        counters = worker.scheduler.lifecycle_stats()
        assert (counters["sessions"], counters["evicted_admin"]) == (0, 1)

    def test_the_cap_sheds_the_least_recently_used_idle_session(
        self, make_worker, fixed_asr
    ):
        worker = make_worker(fixed_asr, session_cap=2)
        worker.open("old")
        worker.open("busy")
        worker.push_many("busy", _tagged(1, 2))  # busy: never shed
        assert worker.reply(worker.open("new"))["ok"] is True
        assert worker.scheduler.lifecycle_stats()["evicted_lru"] == 1
        worker.run()
        worker.scheduler.list_sessions("t")
        names = {e["session"] for e in worker.replies.pop()[3]["sessions"]}
        assert names == {"busy", "new"}

    def test_a_cap_full_of_busy_sessions_refuses_an_open(
        self, make_worker, fixed_asr
    ):
        worker = make_worker(fixed_asr, session_cap=1)
        worker.open("busy")
        worker.push_many("busy", _tagged(1, 2))
        reply = worker.reply(worker.open("new"))
        assert reply["ok"] is False
        assert "every session is busy" in reply["error"]

    def test_a_sweep_evicts_only_idle_sessions(self, make_worker, fixed_asr):
        worker = make_worker(fixed_asr)
        worker.open("idle")
        worker.open("busy")
        worker.push_many("busy", _tagged(1, 2))
        worker.scheduler.sweep(0.0)
        counters = worker.scheduler.lifecycle_stats()
        assert (counters["sessions"], counters["evicted_idle"]) == (1, 1)
        worker.run()
        assert worker.session_seq("busy") == 2

    def test_a_result_that_fits_rides_the_response_ring(
        self, make_worker, fixed_asr
    ):
        worker = make_worker(fixed_asr, slot_bytes=1024)
        worker.open("s")
        frame = _tagged(1, 1)[0]
        ticket = worker.push("s", frame)
        worker.run()
        assert ticket not in [item[1] for item in worker.replies]
        entry = worker.rings.responses.peek()
        values = np.frombuffer(bytes(entry.payload), dtype="<f8")
        entry.payload = None  # a live view would block close()
        worker.rings.responses.advance()
        assert (entry.op, entry.ticket, entry.seq_no) == (OP_PUSH, ticket, 1)
        assert entry.emit_seq == 1  # after the open's reply
        expected = _standalone(fixed_asr, frame[None, :])[0]
        assert values.tobytes() == expected.tobytes()
        assert worker.rings.responses.peek() is None


# ----------------------------------------------------------------------
# Workload drivers share the rounds.
# ----------------------------------------------------------------------


class TestDrivers:
    def test_concurrent_scores_coalesce_and_match_a_session(
        self, make_worker, float_lm
    ):
        worker = make_worker(float_lm)
        chunks = [np.asarray(TOKENS[:9], dtype="<i8"),
                  np.asarray(TOKENS[9:15], dtype="<i8")]
        tickets = []
        for index, tokens in enumerate(chunks):
            worker.open(f"s{index}")
            tickets.append(worker.request(
                OP_SCORE, f"s{index}", tokens.tobytes(), tokens.shape
            ))
        worker.run()
        assert [len(r) for r in worker.recorder.rounds] == [2] * 5 + [1] * 3
        for ticket, tokens in zip(tickets, chunks):
            expected = Session(float_lm).score(tokens)
            assert worker.values(ticket).tobytes() == expected.tobytes()
            assert worker.reply(ticket)["seq"] == len(tokens) - 1

    def test_generate_beside_a_push_many_matches_a_session(
        self, make_worker, float_lm
    ):
        worker = make_worker(float_lm)
        prompt = TOKENS[:4].tolist()
        params = generate_params(prompt, 10, temperature=0.8, top_k=5,
                                 seed=7, vocab_size=VOCAB.size)
        worker.open("gen")
        worker.open("push")
        ticket = worker.request(OP_GENERATE, "gen",
                                json.dumps(params).encode(), ())
        worker.push_many("push", np.eye(VOCAB.size)[TOKENS[:20]])
        worker.run()
        expected = Session(float_lm).generate(
            prompt, steps=10, temperature=0.8, top_k=5, seed=7
        )
        reply = worker.reply(ticket)
        assert reply["tokens"] == expected
        assert reply["seq"] == len(prompt) + 10 - 1
        assert worker.scheduler.stats().max_coalesced == 2
