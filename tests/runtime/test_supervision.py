"""Self-healing NetServer: supervision, lifecycle, and client reattach.

Every test here runs a real server with real worker processes and kills,
stalls, caps or evicts something, then pins the PR 8 contracts:

* a dead worker is respawned and only *its* sessions ever notice
  (blast radius);
* in-flight requests on the dead worker fail with structured
  **retryable** error frames — never a hang, never silent loss;
* a reattaching :class:`NetSession` replays its journal and the final
  stream is byte-identical to a standalone session;
* past the restart budget the shard degrades to non-retryable
  ``unavailable`` answers while the rest of the fleet keeps serving;
* idle TTL, per-worker session caps with LRU shedding, and the
  ``sessions`` / ``evict`` / ``health`` admin ops behave as documented;
* every worker generation's doorbell pipes are closed and unregistered
  with it — no leaked fds, no spinning on a dead worker's pipe, and a
  replaced generation's doorbell cannot drain its successor's ring;
* a worker whose shared-memory ring pair cannot be created is a spawn
  failure: ``start()`` raises, a respawn spends the restart budget.
"""

import gc
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import Future

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
    RetryableError,
    UnknownSessionError,
    encode_array,
    route_session,
)
from repro.runtime.net.client import _CHUNK_FRAMES
from repro.runtime.net.ring import RingPair

SPEC = RNNSpec("lstm", 10, (32,), 6, block_sizes=(4,))
TIMEOUT = 15.0


@pytest.fixture(scope="module")
def fixed_compiled():
    model = StackedRNNClassifier(
        SPEC, structured=True, rng=np.random.default_rng(0)
    )
    return compile(model, backend="fixed", cache=False)


def _stream(frames: int, seed: int = 7) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(
        (frames, SPEC.input_size)
    )


def _standalone(compiled, stream: np.ndarray) -> np.ndarray:
    return compiled.session().run(stream[:, None, :])[:, 0]


def _name_routed_to(worker: int, workers: int, hint: str = "s") -> str:
    """A session name whose stable hash routes to ``worker``."""
    for attempt in range(10_000):
        name = f"{hint}-{attempt}"
        if route_session(name, workers) == worker:
            return name
    raise AssertionError("no session name found for worker")


def _wait_for(predicate, timeout: float, what: str) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {what}")


def _open_fds() -> int:
    gc.collect()  # dropped queues and processes close their fds on collection
    return len(os.listdir("/proc/self/fd"))


def _on_loop(server, fn):
    """Run ``fn`` on the server's event-loop thread; return its result."""
    done: Future = Future()

    def run() -> None:
        try:
            done.set_result(fn())
        except BaseException as error:  # noqa: BLE001 - reraised below
            done.set_exception(error)

    server._loop.call_soon_threadsafe(run)
    return done.result(timeout=TIMEOUT)


def _wait_respawned(server, client, worker: int, generation: int) -> None:
    def up() -> bool:
        entry = client.health()["workers"][worker]
        return entry["state"] == "up" and entry["generation"] == generation

    _wait_for(up, 60, f"worker {worker} generation {generation}")


class TestKnobs:
    def test_spawn_timeout_must_be_positive(self, fixed_compiled):
        with pytest.raises(ConfigError, match="spawn_timeout_s"):
            NetServer(fixed_compiled, spawn_timeout_s=0)

    def test_spawn_timeout_is_enforced(self, fixed_compiled):
        """An interpreter cannot spawn + import + load in 10ms, so a
        tiny budget must surface as a ConfigError naming the knob —
        not a 120s hang (the old hardcoded wait)."""
        server = NetServer(fixed_compiled, workers=1, spawn_timeout_s=0.01)
        try:
            with pytest.raises(ConfigError, match="spawn_timeout_s"):
                server.start()
        finally:
            server.close()

    @pytest.mark.parametrize("kwargs", [
        {"restart_budget": -1},
        {"restart_window_s": 0},
        {"heartbeat_timeout_s": 0},
        {"session_ttl_s": 0},
        {"session_cap": 0},
    ])
    def test_supervision_knob_validation(self, fixed_compiled, kwargs):
        with pytest.raises(ConfigError):
            NetServer(fixed_compiled, **kwargs)


class TestSupervision:
    def test_respawn_and_blast_radius(self, fixed_compiled):
        """SIGKILL one worker mid-stream: its session reattaches and
        stays byte-identical; the OTHER worker's session never even
        reconnects.  Afterwards health shows the restart."""
        victim, survivor = 0, 1
        victim_name = _name_routed_to(victim, 2, "victim")
        survivor_name = _name_routed_to(survivor, 2, "survivor")
        stream = _stream(24)
        want = _standalone(fixed_compiled, stream)
        with NetServer(fixed_compiled, workers=2) as server:
            with Client(*server.address, timeout=TIMEOUT) as client:
                bad = client.session(victim_name)
                good = client.session(survivor_name)
                out_bad, out_good = [], []
                for index, frame in enumerate(stream):
                    if index == 9:
                        os.kill(server._procs[victim].pid, signal.SIGKILL)
                    out_bad.append(bad.push(frame))
                    out_good.append(good.push(frame))
                assert np.stack(out_bad).tobytes() == want.tobytes()
                assert np.stack(out_good).tobytes() == want.tobytes()
                # Blast radius: only the dead worker's session recovered.
                assert bad.recoveries >= 1 and bad.replayed_frames >= 1
                assert good.recoveries == 0
                health = client.health()
                states = {w["worker"]: w for w in health["workers"]}
                assert states[victim]["restarts"] >= 1
                assert states[victim]["state"] == "up"
                assert states[survivor]["restarts"] == 0
                assert health["restarts_total"] >= 1
        events = [event["event"] for event in server.events]
        assert "worker_down" in events and "worker_restarted" in events

    def test_inflight_failure_is_retryable_not_a_hang(self, fixed_compiled):
        """With reattach disabled the dead worker's session gets exactly
        one structured retryable error, promptly."""
        name = _name_routed_to(0, 1)
        with NetServer(fixed_compiled, workers=1) as server:
            with Client(*server.address, timeout=TIMEOUT) as client:
                session = client.session(name, reattach=False)
                session.push(_stream(1)[0])
                os.kill(server._procs[0].pid, signal.SIGKILL)
                began = time.monotonic()
                with pytest.raises(RetryableError, match="died"):
                    for frame in _stream(8, seed=11):
                        session.push(frame)
                assert time.monotonic() - began < TIMEOUT
        assert server.retryable_errors_total >= 0  # counter exists

    def test_restart_budget_exhaustion_degrades_only_that_shard(
        self, fixed_compiled
    ):
        """restart_budget=0: the first death degrades the shard — its
        sessions answer non-retryable ``unavailable`` errors (no retry
        storm, no hang) while the other worker keeps serving."""
        victim, survivor = 0, 1
        victim_name = _name_routed_to(victim, 2, "doomed")
        survivor_name = _name_routed_to(survivor, 2, "fine")
        stream = _stream(6)
        want = _standalone(fixed_compiled, stream)
        with NetServer(fixed_compiled, workers=2, restart_budget=0) as server:
            with Client(*server.address, timeout=TIMEOUT) as client:
                bad = client.session(victim_name, reattach=False)
                os.kill(server._procs[victim].pid, signal.SIGKILL)
                _wait_for(
                    lambda: client.health()["degraded"] == [victim],
                    TIMEOUT, "shard to degrade",
                )
                with pytest.raises(NetError, match="unavailable") as info:
                    bad.push(stream[0])
                assert not isinstance(info.value, RetryableError)
                # A reattaching session must give up promptly too: the
                # degraded answer is non-retryable by design.
                with pytest.raises(NetError, match="unavailable"):
                    client.session(_name_routed_to(victim, 2, "doomed2"))
                got = client.session(survivor_name).run(stream)
                assert got.tobytes() == want.tobytes()
                health = client.health()
                states = {w["worker"]: w["state"] for w in health["workers"]}
                assert states == {victim: "degraded", survivor: "up"}

    def test_heartbeat_timeout_replaces_a_stalled_worker(
        self, fixed_compiled
    ):
        """A worker that is alive but wedged (stall fault) must be
        killed by the heartbeat supervisor and replaced; the reattaching
        session ends byte-identical."""
        stream = _stream(10)
        want = _standalone(fixed_compiled, stream)
        with NetServer(
            fixed_compiled, workers=1, heartbeat_timeout_s=1.0,
            faults="stall:after=4,seconds=60",
        ) as server:
            with Client(*server.address, timeout=TIMEOUT) as client:
                session = client.session("wedged")
                got = np.stack([session.push(frame) for frame in stream])
                assert session.recoveries >= 1
        assert got.tobytes() == want.tobytes()
        reasons = [
            event.get("reason", "") for event in server.events
            if event["event"] == "worker_down"
        ]
        assert any("heartbeat" in reason for reason in reasons)

    def test_busy_backoff_then_death_is_one_clean_retryable(
        self, fixed_compiled
    ):
        """Regression: a client stuck in busy-backoff against a
        saturated worker that then dies must come out through the
        retryable-error path — one structured error, no hang.

        Ring saturation is arranged honestly: the worker is SIGSTOPped,
        a second connection sends enough raw pushes to fill the 2-slot
        request ring, and only then does the probe client push."""
        filler_name = _name_routed_to(0, 1, "filler")
        probe_name = _name_routed_to(0, 1, "probe")
        stream = _stream(4)
        with NetServer(fixed_compiled, workers=1, ring_slots=2) as server:
            filler_client = Client(*server.address, timeout=TIMEOUT)
            probe_client = Client(*server.address, timeout=TIMEOUT)
            try:
                filler_client.session(filler_name, reattach=False)
                probe = probe_client.session(
                    probe_name, reattach=False,
                    retries=100, backoff_s=0.05, max_backoff_s=0.05,
                )
                proc = server._procs[0]
                os.kill(proc.pid, signal.SIGSTOP)
                for frame in stream:
                    filler_client._send(
                        "push", session=filler_name,
                        frame=encode_array(frame),
                    )
                time.sleep(0.3)  # let the raw pushes fill the ring
                killer = threading.Timer(
                    0.4, lambda: os.kill(proc.pid, signal.SIGKILL)
                )
                killer.start()
                began = time.monotonic()
                with pytest.raises(RetryableError):
                    probe.push(stream[0])
                assert time.monotonic() - began < TIMEOUT
                killer.join()
                # The ring-held pushes died with the worker: the filler
                # reads retryable errors, not a hang.
                replies = [filler_client._recv() for _ in stream]
                assert any(reply.get("retryable") for reply in replies)
            finally:
                filler_client.close()
                probe_client.close()


def _no_shared_memory(cls, nslots: int, payload_capacity: int) -> RingPair:
    raise OSError("shared memory is not available here")


class TestSharedMemoryUnavailable:
    def test_initial_spawn_failure_raises_and_leaves_no_worker(
        self, fixed_compiled, monkeypatch
    ):
        """Worker 0 gets its rings and starts; worker 1 cannot get
        any.  start() must fail naming shared memory and tear worker 0
        down again, not serve on a slower protocol."""
        create = RingPair.create
        calls = []

        def second_call_fails(cls, nslots, payload_capacity):
            calls.append(nslots)
            if len(calls) > 1:
                return _no_shared_memory(cls, nslots, payload_capacity)
            return create(nslots, payload_capacity)

        monkeypatch.setattr(RingPair, "create", classmethod(second_call_fails))
        before = set(multiprocessing.active_children())
        server = NetServer(fixed_compiled, workers=2)
        try:
            with pytest.raises(ConfigError, match="shared memory"):
                server.start()
        finally:
            server.close()
        assert len(calls) == 2
        assert set(multiprocessing.active_children()) <= before

    def test_respawn_failure_spends_budget_then_degrades(
        self, fixed_compiled, monkeypatch
    ):
        """Shared memory vanishes after a clean start and a worker is
        SIGKILLed: every respawn fails, the budget runs out, the shard
        degrades — and the other worker's stream stays byte-identical."""
        victim, survivor = 0, 1
        name = _name_routed_to(survivor, 2, "steady")
        stream = _stream(12)
        want = _standalone(fixed_compiled, stream)
        with NetServer(fixed_compiled, workers=2, restart_budget=2) as server:
            with Client(*server.address, timeout=TIMEOUT) as client:
                session = client.session(name)
                got = [session.push(frame) for frame in stream[:6]]
                monkeypatch.setattr(
                    RingPair, "create", classmethod(_no_shared_memory)
                )
                os.kill(server._procs[victim].pid, signal.SIGKILL)
                _wait_for(
                    lambda: client.health()["degraded"] == [victim],
                    TIMEOUT, "shard to degrade",
                )
                got += [session.push(frame) for frame in stream[6:]]
                assert session.recoveries == 0
        assert np.stack(got).tobytes() == want.tobytes()
        journal = [
            event for event in server.events if event.get("worker") == victim
        ]
        assert [event["event"] for event in journal] == [
            "worker_down", "worker_restart_failed", "worker_restart_failed",
            "worker_degraded",
        ]
        assert all(
            "shared memory" in event["reason"]
            for event in journal if event["event"] == "worker_restart_failed"
        )


class TestSessionLifecycle:
    def test_idle_ttl_evicts_and_counts(self, fixed_compiled):
        with NetServer(
            fixed_compiled, workers=1, session_ttl_s=0.3,
        ) as server:
            with Client(*server.address, timeout=TIMEOUT) as client:
                session = client.session("ephemeral", reattach=False)
                session.push(_stream(1)[0])
                assert [s["session"] for s in client.sessions()] == [
                    "ephemeral"
                ]
                _wait_for(
                    lambda: not client.sessions(), TIMEOUT, "TTL eviction"
                )
                stats = client.stats()[0]
                assert stats["evicted_idle"] >= 1
                with pytest.raises(UnknownSessionError):
                    session.push(_stream(1)[0])

    def test_ttl_eviction_is_invisible_to_a_reattaching_session(
        self, fixed_compiled
    ):
        """The journal makes idle eviction recoverable: the session
        reopens, replays, and the stream stays byte-identical."""
        stream = _stream(8)
        want = _standalone(fixed_compiled, stream)
        with NetServer(
            fixed_compiled, workers=1, session_ttl_s=0.3,
        ) as server:
            with Client(*server.address, timeout=TIMEOUT) as client:
                session = client.session("patient")
                out = [session.push(frame) for frame in stream[:4]]
                _wait_for(
                    lambda: not client.sessions(), TIMEOUT, "TTL eviction"
                )
                out += [session.push(frame) for frame in stream[4:]]
                assert session.recoveries >= 1
        assert np.stack(out).tobytes() == want.tobytes()

    def test_session_cap_sheds_least_recently_used(self, fixed_compiled):
        with NetServer(fixed_compiled, workers=1, session_cap=2) as server:
            with Client(*server.address, timeout=TIMEOUT) as client:
                first = client.session("first", reattach=False)
                client.session("second", reattach=False)
                first.push(_stream(1)[0])  # "second" is now the LRU
                client.session("third", reattach=False)
                names = sorted(s["session"] for s in client.sessions())
                assert names == ["first", "third"]
                assert client.stats()[0]["evicted_lru"] >= 1

    def test_admin_evict_op(self, fixed_compiled):
        with NetServer(fixed_compiled, workers=2) as server:
            with Client(*server.address, timeout=TIMEOUT) as client:
                session = client.session("target", reattach=False)
                session.push(_stream(1)[0])
                assert client.evict("target") is True
                assert client.evict("target") is False  # already gone
                assert client.sessions() == []
                with pytest.raises(UnknownSessionError):
                    session.push(_stream(1)[0])
                assert client.stats()[
                    route_session("target", 2)
                ]["evicted_admin"] >= 1

    def test_sessions_listing_fields(self, fixed_compiled):
        with NetServer(fixed_compiled, workers=2) as server:
            with Client(*server.address, timeout=TIMEOUT) as client:
                session = client.session("listed", reattach=False)
                session.push(_stream(1)[0])
                (entry,) = client.sessions()
                assert entry["session"] == "listed"
                assert entry["worker"] == route_session("listed", 2)
                assert entry["seq"] == 1
                assert entry["idle_s"] >= 0 and entry["busy"] is False

    def test_health_op_shape(self, fixed_compiled):
        with NetServer(fixed_compiled, workers=2) as server:
            with Client(*server.address, timeout=TIMEOUT) as client:
                health = client.health()
                assert health["draining"] is False
                assert health["degraded"] == []
                assert health["restarts_total"] == 0
                assert len(health["workers"]) == 2
                for entry in health["workers"]:
                    assert entry["state"] == "up" and entry["alive"] is True
                    assert entry["generation"] == 0
                    assert entry["uptime_s"] >= 0


class TestChaosSoak:
    def test_concurrent_clients_survive_a_worker_kill(self, fixed_compiled):
        """The acceptance soak: five concurrent streaming clients, one
        worker SIGKILLs itself mid-soak (kill fault).  Every stream must
        come back byte-identical — zero drops, duplicates or reorders —
        with only the dead worker's sessions recovering.  Four push_many
        chunks per stream give worker 0's two sessions ten requests, so
        the kill after six lands mid-stream."""
        workers, sessions = 2, 5
        stream = _stream(4 * _CHUNK_FRAMES)
        want = _standalone(fixed_compiled, stream).tobytes()
        with NetServer(
            fixed_compiled, workers=workers, faults="kill:worker=0,after=6",
        ) as server:
            results: dict[int, bytes] = {}
            recoveries: dict[int, int] = {}
            errors: list = []

            def soak(index: int) -> None:
                try:
                    with Client(*server.address, timeout=TIMEOUT) as client:
                        session = client.session(f"soak-{index}")
                        results[index] = session.run(stream).tobytes()
                        recoveries[index] = session.recoveries
                except Exception as error:  # noqa: BLE001 - reraised below
                    errors.append((index, error))

            threads = [
                threading.Thread(target=soak, args=(index,), daemon=True)
                for index in range(sessions)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive(), "soak client hung"
            assert errors == [], f"soak clients failed: {errors}"
            assert all(results[i] == want for i in range(sessions))
            for index in range(sessions):
                if route_session(f"soak-{index}", workers) != 0:
                    assert recoveries[index] == 0  # blast radius
            events = [event["event"] for event in server.events]
            assert "worker_down" in events
            assert "worker_restarted" in events


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs procfs")
class TestDoorbells:
    """The per-generation doorbell pipes' lifecycle in the parent."""

    def test_fds_return_to_baseline(self, fixed_compiled):
        """Three start/close cycles and two respawns leave no fd behind:
        each generation's doorbells, queues and segment die with it."""
        frame = _stream(1)[0]
        with NetServer(fixed_compiled, workers=1):
            pass  # the first server starts the resource tracker (one pipe)
        baseline = _open_fds()
        for _ in range(3):
            with NetServer(fixed_compiled, workers=1) as server:
                with Client(*server.address, timeout=TIMEOUT) as client:
                    client.session("fd-cycle").push(frame)
        assert _open_fds() == baseline

        with NetServer(fixed_compiled, workers=2) as server:
            running = _open_fds()
            with Client(*server.address, timeout=TIMEOUT) as client:
                for worker in (0, 1):
                    name = _name_routed_to(worker, 2, "fd")
                    client.session(name, reattach=False).push(frame)
                    os.kill(server._procs[worker].pid, signal.SIGKILL)
                    _wait_respawned(server, client, worker, 1)
                    client.session(name, reattach=False).push(frame)
            assert sum(server._restarts) == 2
            _wait_for(lambda: _open_fds() == running, TIMEOUT,
                      "the replaced generations' fds to close")
        assert _open_fds() == baseline

    def test_dead_worker_doorbell_is_not_spun_on(self, fixed_compiled):
        """A SIGKILLed worker's response doorbell reads EOF forever; the
        event loop must unregister it rather than spin.  The supervisor
        tick is paused for the window, so only the doorbell's own EOF
        handling can stop a spin."""
        frame = _stream(1)[0]
        with NetServer(fixed_compiled, workers=1) as server:
            with Client(*server.address, timeout=TIMEOUT) as client:
                client.session("spin", reattach=False).push(frame)
                bells = server._doorbells[0]
                server._supervise_tick = lambda: None
                began = time.process_time()
                os.kill(server._procs[0].pid, signal.SIGKILL)
                time.sleep(1.0)
                spent = time.process_time() - began
                del server._supervise_tick  # supervision resumes
                assert spent < 0.2, f"parent burned {spent:.2f}s CPU"
                assert not bells.watched
                _wait_respawned(server, client, 0, 1)
                client.session("spin", reattach=False).push(frame)

    def test_stale_generation_doorbell_drains_nothing(self, fixed_compiled):
        """Ringing a replaced generation's response doorbell after a
        respawn leaves the new generation's ring alone, and the reopened
        session stays byte-identical to a standalone one."""
        name = _name_routed_to(0, 1)
        stream = _stream(12)
        want = _standalone(fixed_compiled, stream)
        with NetServer(fixed_compiled, workers=1) as server:
            with Client(*server.address, timeout=TIMEOUT) as client:
                client.session(name, reattach=False).push(stream[0])
                stale = server._doorbells[0]
                os.kill(server._procs[0].pid, signal.SIGKILL)
                _wait_respawned(server, client, 0, 1)
                assert stale.gen == 0

                def ring_stale() -> tuple[bool, bool]:
                    rings, bells = server._rings[0], server._doorbells[0]
                    # Arm the new ring's kick as if results were pending
                    # (the worker is idle, so nothing races this): a
                    # drain would clear it.
                    assert rings.ring_kick(responses=True)
                    server._on_doorbell(0, stale)
                    armed = not rings.ring_kick(responses=True)
                    rings.clear_kick(responses=True)
                    return armed, bells.watched

                armed, watched = _on_loop(server, ring_stale)
                assert armed, "a stale doorbell drained the new ring"
                assert watched, "a stale doorbell unregistered the new one"
                session = client.session(name, reattach=False)
                got = np.stack([session.push(frame) for frame in stream])
        assert got.tobytes() == want.tobytes()
