"""The cluster tier end to end: real backends, real sockets, real kills.

The headline invariants, mirroring the single-node netserver suite one
layer up:

* streams served **through the gateway** are byte-identical to
  standalone in-process sessions, on both wire protocols;
* placement is sticky (a session's frames all land on one backend) and
  ring-deterministic;
* SIGKILL of a whole backend process mid-stream loses nothing: the
  reattach journal replays onto the ring's next backend and the stream
  stays byte-identical — zero non-retryable client errors;
* a rolling drain (force) migrates every pinned session via the same
  replay and removes the node from the ring, again byte-identically;
* the admin plane (``cluster_health``/``cluster_add``/``cluster_drain``/
  ``cluster_undrain``, fan-out ``stats``/``sessions``) answers through a
  stock :class:`Client`.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.config import RNNSpec
from repro.errors import ConfigError
from repro.nn.rnn import StackedRNNClassifier
from repro.runtime import compile
from repro.runtime.cluster import BackendFleet, Gateway, backend_key
from repro.runtime.net import Client, NetError

SPEC = RNNSpec("lstm", 10, (32,), 6, block_sizes=(4,))
TIMEOUT = 30.0


@pytest.fixture(scope="module")
def compiled():
    model = StackedRNNClassifier(
        SPEC, structured=True, rng=np.random.default_rng(0)
    )
    return compile(model, backend="float", cache=False)


def _streams(count, frames, seed=11):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((frames, SPEC.input_size))
            for _ in range(count)]


SHM = Path("/dev/shm")


def _segments():
    """The POSIX shared-memory segments ``SharedMemory`` named."""
    return {path.name for path in SHM.glob("psm_*")}


def _standalone(compiled, stream):
    return compiled.session().run(stream[:, None, :])[:, 0]


@pytest.fixture(scope="module")
def cluster(compiled):
    """A 2-backend fleet behind a gateway, shared by the read-only tests."""
    with BackendFleet(compiled, count=2) as fleet:
        with Gateway(fleet.keys, probe_interval_s=0.25, down_after=2) as gw:
            yield fleet, gw


class TestByteIdentityThroughGateway:
    def test_v2_streams_match_standalone(self, cluster, compiled):
        _, gw = cluster
        client = Client(*gw.address, timeout=TIMEOUT)
        try:
            for i, stream in enumerate(_streams(4, 20)):
                got = client.session(f"ident-v2-{i}").run(stream)
                assert np.array_equal(got, _standalone(compiled, stream))
        finally:
            client.close()

    def test_v1_streams_match_standalone(self, cluster, compiled):
        _, gw = cluster
        client = Client(*gw.address, timeout=TIMEOUT, protocol=1)
        try:
            for i, stream in enumerate(_streams(2, 16, seed=12)):
                got = client.session(f"ident-v1-{i}").run(stream)
                assert np.array_equal(got, _standalone(compiled, stream))
        finally:
            client.close()

    def test_hello_presents_the_fleet_as_one_server(self, cluster):
        _, gw = cluster
        client = Client(*gw.address, timeout=TIMEOUT)
        try:
            hello = client.hello
            assert hello["gateway"] is True
            assert hello["backends"] == 2
            assert hello["input_size"] == SPEC.input_size
            assert hello["workers"] == 2  # summed across backends
        finally:
            client.close()


class TestRoutingAndAdminPlane:
    def test_sessions_are_pinned_to_one_backend(self, cluster):
        _, gw = cluster
        client = Client(*gw.address, timeout=TIMEOUT)
        try:
            names = [f"pin-{i}" for i in range(8)]
            sessions = [client.session(name) for name in names]
            stream = _streams(1, 6, seed=13)[0]
            for _ in range(2):
                for sess in sessions:
                    for t in range(3):
                        sess.push(stream[t])
            listed = {e["session"]: e["backend"]
                      for e in client.sessions() if e["session"] in names}
            assert set(listed) == set(names)
            health = client.cluster_health()
            placed = sum(b["sessions_placed"] for b in health["backends"])
            assert placed >= len(names)
            for sess in sessions:
                sess.close()
        finally:
            client.close()

    def test_cluster_health_shape(self, cluster):
        fleet, gw = cluster
        client = Client(*gw.address, timeout=TIMEOUT)
        try:
            health = client.cluster_health()
            assert health["gateway"] is True
            assert sorted(b["backend"] for b in health["backends"]) == sorted(
                fleet.keys
            )
            assert all(b["state"] == "up" for b in health["backends"])
            assert sorted(health["ring"]["nodes"]) == sorted(fleet.keys)
            assert health["ring"]["vnodes"] == 128
        finally:
            client.close()

    def test_stats_fan_out_merges_all_workers(self, cluster, compiled):
        _, gw = cluster
        client = Client(*gw.address, timeout=TIMEOUT)
        try:
            workers = client.stats()
            assert len(workers) == 2  # one worker per backend
            assert {w["backend"] for w in workers} == set(
                b["backend"]
                for b in client.cluster_health()["backends"]
            )
        finally:
            client.close()

    def test_unknown_and_malformed_ops(self, cluster):
        _, gw = cluster
        client = Client(*gw.address, timeout=TIMEOUT)
        try:
            with pytest.raises(NetError, match="unknown op"):
                client.request("warp_cores")
            with pytest.raises(NetError, match="session"):
                client.request("push")  # session op without a session
            with pytest.raises(NetError, match="unknown backend"):
                client.cluster_drain("10.9.9.9:1")
        finally:
            client.close()

    def test_backend_key_normalization(self):
        assert backend_key("127.0.0.1:7001") == "127.0.0.1:7001"
        assert backend_key(("127.0.0.1", 7001)) == "127.0.0.1:7001"
        with pytest.raises(ConfigError):
            backend_key("no-port")
        with pytest.raises(ConfigError):
            backend_key(42)

    def test_gateway_requires_reachable_backends(self):
        with pytest.raises(ConfigError, match="failed to start"):
            Gateway(["127.0.0.1:1"]).start()

    def test_gateway_rejects_empty_and_duplicate_fleets(self):
        with pytest.raises(ConfigError):
            Gateway([])
        with pytest.raises(ConfigError):
            Gateway(["a:1", "a:1"])


class TestFailover:
    def test_sigkill_failover_is_byte_identical(self, compiled):
        """Kill a whole backend mid-stream: every session reattaches to
        the surviving backend and every stream stays byte-identical."""
        streams = _streams(6, 30, seed=17)
        expected = [_standalone(compiled, s) for s in streams]
        with BackendFleet(compiled, count=2) as fleet:
            with Gateway(fleet.keys, probe_interval_s=0.2,
                         down_after=2) as gw:
                client = Client(*gw.address, timeout=60)
                sessions = [client.session(f"kill-{i}", reattach=True)
                            for i in range(len(streams))]
                outs = [[] for _ in streams]
                for i, sess in enumerate(sessions):
                    for t in range(15):
                        outs[i].append(sess.push(streams[i][t]))
                health = client.cluster_health()
                placed = {b["backend"]: b["sessions_placed"]
                          for b in health["backends"]}
                assert sum(placed.values()) == len(streams)

                fleet.kill(0)

                for i, sess in enumerate(sessions):
                    for t in range(15, 30):
                        outs[i].append(sess.push(streams[i][t]))
                for i in range(len(streams)):
                    assert np.array_equal(np.stack(outs[i]), expected[i]), (
                        f"stream {i} diverged across the failover"
                    )
                health = client.cluster_health()
                states = {b["backend"]: b["state"]
                          for b in health["backends"]}
                assert states[fleet.keys[0]] == "down"
                assert states[fleet.keys[1]] == "up"
                # all surviving placements moved to the live backend
                placed = {b["backend"]: b["sessions_placed"]
                          for b in health["backends"]}
                assert placed[fleet.keys[0]] == 0
                events = [e["event"] for e in gw.events]
                assert "backend_down" in events
                for sess in sessions:
                    sess.close()
                client.close()

    @pytest.mark.skipif(not SHM.is_dir(), reason="no /dev/shm to count")
    def test_sigkilled_backend_leaves_no_ring_segment(self, compiled):
        """The killed backend cannot unlink its workers' ring segments;
        each orphaned worker does it before exiting, so the segments a
        backend created are gone within a few seconds of its SIGKILL."""
        before = _segments()
        with BackendFleet(compiled, count=1) as fleet:
            created = _segments() - before
            assert created, "the backend's worker created no ring segment"
            fleet.kill(0)
            deadline = time.monotonic() + 10
            while _segments() & created and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _segments() & created


class TestRollingDrain:
    def test_single_session_v2_connection_renegotiates(self, compiled):
        """Regression: when a v2 connection's ONLY session is drained
        away, its next binary push routes to a backend this connection
        never negotiated v2 with.  The gateway must bounce the client
        into its reattach path (retryable error), not forward the frame
        and surface the backend's non-retryable framing complaint."""
        stream = _streams(1, 20, seed=23)[0]
        expected = _standalone(compiled, stream)
        with BackendFleet(compiled, count=2) as fleet:
            with Gateway(fleet.keys, probe_interval_s=0.2, down_after=2,
                         drain_poll_s=0.1) as gw:
                client = Client(*gw.address, timeout=60)
                assert client.protocol == 2 or client.hello[
                    "max_protocol"] >= 2
                sess = client.session("solo", reattach=True)
                outs = [sess.push(stream[t]) for t in range(10)]
                owner = next(e["backend"] for e in client.sessions()
                             if e["session"] == "solo")
                admin = Client(*gw.address, timeout=60)
                reply = admin.cluster_drain(owner, force=True, wait_s=25)
                assert reply["drained"], reply
                outs += [sess.push(stream[t]) for t in range(10, 20)]
                assert np.array_equal(np.stack(outs), expected)
                assert sess.recoveries >= 1
                admin.close()
                sess.close()
                client.close()

    def test_force_drain_migrates_byte_identically(self, compiled):
        """`cluster drain --force`: pinned sessions are evicted, their
        clients replay onto the ring's survivor, the node leaves the
        ring — and no stream drops or corrupts a frame."""
        streams = _streams(5, 24, seed=19)
        expected = [_standalone(compiled, s) for s in streams]
        with BackendFleet(compiled, count=2) as fleet:
            with Gateway(fleet.keys, probe_interval_s=0.2, down_after=2,
                         drain_poll_s=0.1) as gw:
                client = Client(*gw.address, timeout=60)
                sessions = [client.session(f"drain-{i}", reattach=True)
                            for i in range(len(streams))]
                outs = [[] for _ in streams]
                for i, sess in enumerate(sessions):
                    for t in range(12):
                        outs[i].append(sess.push(streams[i][t]))

                victim = fleet.keys[0]
                reply = client.cluster_drain(victim, force=True, wait_s=25)
                assert reply["drained"], reply
                assert reply["remaining"] == 0

                health = client.cluster_health()
                assert victim not in health["ring"]["nodes"]
                assert victim in health["removed"]

                # the survivor is now the last placeable backend, and
                # the gateway refuses to drain it out from under us
                with pytest.raises(NetError, match="last placeable"):
                    client.cluster_drain(fleet.keys[1])

                for i, sess in enumerate(sessions):
                    for t in range(12, 24):
                        outs[i].append(sess.push(streams[i][t]))
                for i in range(len(streams)):
                    assert np.array_equal(np.stack(outs[i]), expected[i]), (
                        f"stream {i} diverged across the drain"
                    )

                # drain ≠ kill: the backend process is still alive and
                # can rejoin the fleet
                assert fleet.alive(0)
                reply = client.cluster_add(victim)
                assert reply["backends"] == 2
                health = client.cluster_health()
                assert victim in health["ring"]["nodes"]

                # undrain cancels a pending drain and restores placement
                drain = client.cluster_drain(victim, wait_s=0)
                if not drain["drained"]:
                    client.cluster_undrain(victim)
                    states = {b["backend"]: b["state"]
                              for b in client.cluster_health()["backends"]}
                    assert states[victim] == "up"

                for sess in sessions:
                    sess.close()
                client.close()
