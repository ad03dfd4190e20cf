"""Deterministic fault injection: grammar, arming, and the damage paths.

The publish-path faults run against real servers: a delayed publish must
change latency and nothing else, a dropped publish must be recovered by
the client's timeout + reattach (byte-identically), and a corrupted ring
slot must trip the parent's seqlock check and get the worker replaced —
never served as data.
"""

import numpy as np
import pytest

from repro.config import RNNSpec
from repro.errors import ConfigError
from repro.nn.rnn import StackedRNNClassifier
from repro.runtime import compile
from repro.runtime.net import Client, FaultSpec, NetServer, parse_fault
from repro.runtime.net.client import _CHUNK_FRAMES
from repro.runtime.net.faults import FaultInjector, coerce_faults

SPEC = RNNSpec("lstm", 10, (32,), 6, block_sizes=(4,))
TIMEOUT = 15.0


@pytest.fixture(scope="module")
def fixed_compiled():
    model = StackedRNNClassifier(
        SPEC, structured=True, rng=np.random.default_rng(0)
    )
    return compile(model, backend="fixed", cache=False)


def _stream(frames: int) -> np.ndarray:
    return np.random.default_rng(3).standard_normal(
        (frames, SPEC.input_size)
    )


def _standalone(compiled, stream: np.ndarray) -> np.ndarray:
    return compiled.session().run(stream[:, None, :])[:, 0]


class TestGrammar:
    def test_full_spec_round_trip(self):
        spec = parse_fault("kill:worker=1,after=5")
        assert spec == FaultSpec("kill", worker=1, after=5)

    def test_defaults(self):
        spec = parse_fault("drop_publish")
        assert spec.kind == "drop_publish"
        assert spec.worker is None and spec.after == 0 and spec.times == 1

    def test_seconds_is_float(self):
        assert parse_fault("delay_publish:seconds=0.05").seconds == 0.05

    @pytest.mark.parametrize("text", [
        "explode",                      # unknown kind
        "kill:after",                   # missing =
        "kill:pid=3",                   # unknown field
        "kill:after=soon",              # non-integer value
        "stall:worker=0",               # stall needs seconds > 0
        "delay_publish:seconds=0",      # delay needs seconds > 0
    ])
    def test_bad_specs_are_config_errors(self, text):
        with pytest.raises(ConfigError):
            parse_fault(text)

    def test_coerce_accepts_strings_specs_and_none(self):
        assert coerce_faults(None) == []
        assert coerce_faults("kill") == [FaultSpec("kill")]
        spec = FaultSpec("stall", seconds=1.0)
        assert coerce_faults([spec, "kill:worker=1"]) == [
            spec, FaultSpec("kill", worker=1),
        ]
        with pytest.raises(ConfigError, match="FaultSpec"):
            coerce_faults([42])


class TestInjector:
    def test_worker_filter(self):
        armed = FaultInjector(0, [FaultSpec("drop_publish", worker=1)])
        assert not armed  # fault targets worker 1, this is worker 0
        assert FaultInjector(1, [FaultSpec("drop_publish", worker=1)])
        assert FaultInjector(7, [FaultSpec("drop_publish")])  # None = all

    def test_after_and_times_accounting(self):
        injector = FaultInjector(
            0, [FaultSpec("drop_publish", after=2, times=2)]
        )
        actions = [injector.on_publish() for _ in range(6)]
        assert actions == [None, None, "drop", "drop", None, None]


class TestPublishFaults:
    def test_delay_publish_changes_latency_not_bytes(self, fixed_compiled):
        stream = _stream(6)
        with NetServer(
            fixed_compiled, workers=1,
            faults="delay_publish:seconds=0.05,times=3",
        ) as server:
            with Client(*server.address, timeout=TIMEOUT) as client:
                got = client.session("delayed").run(stream)
        assert got.tobytes() == _standalone(fixed_compiled, stream).tobytes()

    def test_drop_publish_recovered_by_client_timeout(self, fixed_compiled):
        """A swallowed reply is invisible to the parent (it looks like
        slow compute), so the CLIENT timeout is the recovery path: the
        reattaching session reconnects, resets, replays, and the final
        stream is still byte-identical."""
        stream = _stream(8)
        with NetServer(
            fixed_compiled, workers=1, faults="drop_publish:after=4",
            drain_timeout_s=1.0,
        ) as server:
            with Client(*server.address, timeout=2.0) as client:
                session = client.session("dropped")
                got = np.stack([session.push(frame) for frame in stream])
                assert session.recoveries >= 1
        assert got.tobytes() == _standalone(fixed_compiled, stream).tobytes()

    @pytest.mark.parametrize("protocol", [1, 2])
    def test_dropped_chunk_reply_is_reset_and_recomputed(
        self, fixed_compiled, protocol
    ):
        """``run``'s second ``push_many`` chunk is applied but its reply
        is dropped.  The reopen finds the server one chunk ahead of the
        client, so the recovery resets and replays the first chunk: the
        frames the reset threw away (both chunks) are computed twice,
        and ``discarded_frames`` counts exactly them."""
        stream = _stream(2 * _CHUNK_FRAMES + 8)
        with NetServer(
            fixed_compiled, workers=1, faults="drop_publish:after=1",
            drain_timeout_s=1.0,
        ) as server:
            with Client(*server.address, timeout=2.0,
                        protocol=protocol) as client:
                session = client.session("dropped-chunk")
                got = session.run(stream)
                entries = client.stats()
        assert session.recoveries == 1
        assert session.discarded_frames == 2 * _CHUNK_FRAMES
        assert session.replayed_frames == _CHUNK_FRAMES
        assert session.frames_pushed == len(stream)
        served = sum(entry["stats"]["frames"] for entry in entries)
        assert served == len(stream) + session.discarded_frames
        assert got.tobytes() == _standalone(fixed_compiled, stream).tobytes()

    def test_corrupt_slot_is_caught_never_served(self, fixed_compiled):
        """A scribbled seq word must trip the parent's seqlock check and
        get the worker replaced — the client sees a recovered stream (or
        a structured retryable error), NEVER corrupt logits."""
        stream = _stream(10)
        with NetServer(
            fixed_compiled, workers=1, faults="corrupt_slot:after=5",
        ) as server:
            with Client(*server.address, timeout=TIMEOUT) as client:
                session = client.session("torn")
                got = np.stack([session.push(frame) for frame in stream])
                assert session.recoveries >= 1
            events = [event["event"] for event in server.events]
            assert "worker_down" in events
            assert "worker_restarted" in events
        assert got.tobytes() == _standalone(fixed_compiled, stream).tobytes()
