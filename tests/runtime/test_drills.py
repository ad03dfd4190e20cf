"""The serving drills behind ``repro serve/gateway --selftest``.

The runner is driven directly against real targets with real disruptions
(4 sessions × 16 frames each): it must pass, and print the evidence that
the disruption happened.  The gate-trip cases go through the CLI and prove
the drill fails when it should — an armed fault that never fires, and a
baseline that disagrees with the served bytes.
"""

import time
from contextlib import ExitStack

import numpy as np
import pytest

from repro.cli import main
from repro.config import RNNSpec
from repro.nn.rnn import StackedRNNClassifier
from repro.runtime import compile, drills
from repro.runtime.cluster import BackendFleet, Gateway
from repro.runtime.net import NetServer

SESSIONS, FRAMES = 4, 16


@pytest.fixture(scope="module")
def lm():
    return drills.lm_fixture_artifact("fixed", 12)


@pytest.fixture(scope="module")
def asr():
    spec = RNNSpec("lstm", 10, (32,), 6, block_sizes=(4,))
    model = StackedRNNClassifier(spec, structured=True,
                                 rng=np.random.default_rng(0))
    return compile(model, backend="fixed", cache=False)


def _cluster(stack, compiled, count):
    fleet = stack.enter_context(BackendFleet(compiled, count=count))
    gateway = stack.enter_context(
        Gateway(fleet.keys, probe_interval_s=0.25, down_after=2)
    )
    return fleet, gateway


def lm_net_worker_faults(stack, lm, asr):
    compiled, vocab = lm
    server = stack.enter_context(NetServer(
        compiled, workers=2,
        faults=["kill:worker=0,after=4", "kill:worker=1,after=7"],
    ))
    plan = drills.LmPlan(compiled, vocab, SESSIONS, FRAMES)
    return (drills.net_target(server, 2), plan,
            [drills.WorkerFaults(server)], "worker death(s)")


def lm_gateway_drain(stack, lm, asr):
    compiled, vocab = lm
    fleet, gateway = _cluster(stack, compiled, 2)
    plan = drills.LmPlan(compiled, vocab, SESSIONS, FRAMES)
    return (drills.gateway_target(gateway, 2), plan,
            [drills.Drain(gateway, fleet)], "drain ok")


def asr_gateway_kill_and_drain(stack, lm, asr):
    fleet, gateway = _cluster(stack, asr, 3)
    kill = drills.BackendKill(gateway, fleet)
    plan = drills.AsrPlan(asr, SESSIONS, FRAMES)
    return (drills.gateway_target(gateway, 1), plan,
            [kill, drills.Drain(gateway, fleet, kill)], "chaos ok")


@pytest.mark.parametrize("case", [
    lm_net_worker_faults, lm_gateway_drain, asr_gateway_kill_and_drain,
])
def test_drill_passes_with_evidence(case, lm, asr, capsys):
    with ExitStack() as stack:
        target, plan, evidence, proof = case(stack, lm, asr)
        code = drills.run_drill(target, plan, evidence)
    out, err = capsys.readouterr()
    assert code == 0, err
    assert proof in out
    assert "SELFTEST FAILED" not in err


def test_kill_takes_a_loaded_node_and_the_drain_another(asr, capsys):
    with ExitStack() as stack:
        fleet, gateway = _cluster(stack, asr, 3)
        kill = drills.BackendKill(gateway, fleet)
        drain = drills.Drain(gateway, fleet, kill)
        plan = drills.AsrPlan(asr, SESSIONS, FRAMES)

        def disrupt():
            kill.fire()
            drain.fire()

        result = drills.soak(drills.gateway_target(gateway, 2), plan, disrupt)
    assert not result.errors
    assert kill.placed[kill.node] == max(kill.placed.values()) > 0
    assert drain.node not in (None, kill.node)


class _Recording:
    """A local session with a wire session's ``push``/``run`` shapes that
    records the call sequence."""

    def __init__(self, compiled):
        self.session = compiled.session()
        self.calls = []

    def push(self, frame):
        self.calls.append("push")
        return self.session.push(frame)

    def run(self, frames):
        self.calls.append(("run", len(frames)))
        return self.session.run(frames[:, None, :])[:, 0]


def test_asr_plan_has_a_run_block_answered_before_the_midpoint(asr):
    """The first of the second half's ``run`` blocks belongs to the
    first half, so a midpoint disruption fires with every stream under
    way and the other blocks still to send."""
    plan = drills.AsrPlan(asr, 1, FRAMES)
    block = FRAMES // 2 // plan.BLOCKS
    session = _Recording(asr)
    rows = plan.first(session, 0)
    assert session.calls == ["push"] * (FRAMES // 2) + [("run", block)]
    del session.calls[:]
    served = plan.second(session, 0, rows)
    assert session.calls == [("run", block)] * (plan.BLOCKS - 1)
    assert np.array_equal(served, plan.baseline()[0])


@pytest.mark.parametrize("where", ["in-process", "net"])
def test_push_plan_times_every_push(asr, where):
    plan = drills.PushPlan(asr, SESSIONS, FRAMES)
    with ExitStack() as stack:
        if where == "net":
            server = stack.enter_context(NetServer(asr, workers=2))
            target = drills.net_target(server, 2)
        else:
            server = stack.enter_context(asr.serve(max_batch=SESSIONS))
            target = drills.in_process_target(server)
        for _ in range(2):  # each soak starts the clients' lists afresh
            result = drills.soak(target, plan)
            assert not result.errors
            assert [len(timed) for timed in plan.latencies] == (
                [FRAMES] * SESSIONS
            )
            assert min(min(timed) for timed in plan.latencies) > 0
            assert drills.mismatches(plan, result, plan.baseline()) == []


def test_a_client_error_names_its_client_and_skips_the_disruption(asr):
    class Failing(drills.PushPlan):
        def first(self, session, index):
            if index == 2:
                raise RuntimeError("boom")
            return super().first(session, index)

    fired = []
    with asr.serve(max_batch=SESSIONS) as server:
        result = drills.soak(drills.in_process_target(server),
                             Failing(asr, SESSIONS, FRAMES),
                             lambda: fired.append(True))
    # Only the root cause: the other clients' broken midpoint waits are
    # its consequence, not errors of their own.
    assert result.errors == ["stream 2: boom"]
    assert not fired


def test_a_barrier_timeout_still_reports_an_error(asr, monkeypatch):
    class Late(drills.PushPlan):
        def first(self, session, index):
            if index == 1:
                time.sleep(0.6)  # past the midpoint timeout below
            return super().first(session, index)

    monkeypatch.setattr(drills, "_MIDPOINT_TIMEOUT_S", 0.2)
    fired = []
    with asr.serve(max_batch=SESSIONS) as server:
        result = drills.soak(drills.in_process_target(server),
                             Late(asr, SESSIONS, FRAMES),
                             lambda: fired.append(True))
    assert result.errors
    assert all("midpoint barrier broke" in error for error in result.errors)
    assert not fired


class TestGateTrips:
    SPEC_ARGS = ["serve", "--layers", "32", "--block", "4",
                 "--sessions", "2", "--frames", "6", "--selftest"]

    def test_chaos_whose_fault_never_fires_exits_one(self, capsys):
        code = main(self.SPEC_ARGS + [
            "--port", "0", "--workers", "1", "--chaos",
            "--fault", "kill:after=100000",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "SELFTEST FAILED" in err and "never fired" in err

    @pytest.mark.parametrize("extra", [
        [], ["--port", "0", "--workers", "1"],
    ], ids=["in-process", "wire"])
    def test_perturbed_baseline_exits_one(self, capsys, monkeypatch, extra):
        baseline = drills.AsrPlan.baseline

        def perturbed(plan):
            expected = baseline(plan)
            expected[1] = expected[1] + 1e-3
            return expected

        monkeypatch.setattr(drills.AsrPlan, "baseline", perturbed)
        code = main(self.SPEC_ARGS + extra)
        err = capsys.readouterr().err
        assert code == 1
        assert "SELFTEST FAILED" in err and "differ" in err
        assert "stream(s) [1]" in err
