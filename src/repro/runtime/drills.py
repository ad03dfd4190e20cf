"""Serving drills: the one soak behind every ``--selftest``.

E-RNN's Phase II promises that the deployed hardware computes what the
trained block-circulant model computes; a drill checks that promise for
the serving stack.  ``N`` client threads each drive one session against a
target — the in-process :class:`~repro.runtime.Server`, a
:class:`~repro.runtime.net.NetServer`, or a
:class:`~repro.runtime.cluster.Gateway` over a ``BackendFleet`` — and
every session's output must equal its in-process baseline byte for byte,
even when a disruption lands mid-soak.  Three parts:

* :func:`soak` — the one loop.  Every client runs its plan's first half,
  waits at a midpoint barrier (aborted when a client errors) where the
  disruptions fire, then runs the second half.
* one plan per workload — :class:`PushPlan` pushes a seeded stream
  frame by frame and times every push; :class:`AsrPlan` is the same with
  its second half streamed through ``run`` in blocks, the first
  answered before the midpoint; :class:`LmPlan` runs generate → score →
  generate.  A plan owns its conformance probe and its in-process
  baseline.
* one evidence check per disruption — :class:`WorkerFaults` (armed
  ``--fault`` specs), :class:`BackendKill`, :class:`Drain` — proving the
  disruption happened, so a drill cannot pass by never being disrupted.

:func:`run_drill` strings them together, prints the success lines or one
``SELFTEST FAILED`` line on stderr, and returns the exit code.  ``repro
serve --selftest`` and ``repro gateway --selftest`` are its front-ends;
``docs/runtime.md`` (§CLI) tables what each drill asserts.  The serving
suites of ``repro bench`` drive the same :func:`soak` and gate with
:func:`mismatches`.
"""

from __future__ import annotations

import operator
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, ContextManager, Iterator, Sequence

import numpy as np

from repro import runtime
from repro.runtime.net import Client

__all__ = [
    "AsrPlan", "BackendKill", "Drain", "LmPlan", "PushPlan", "Soak",
    "Target", "WorkerFaults", "gateway_target", "in_process_target",
    "lm_fixture_artifact", "mismatches", "net_target", "run_drill", "soak",
]


@dataclass
class Target:
    """Where a drill's sessions live, and how its lines name them."""

    kind: str  # "server" | "net" | "gateway"
    open: Callable[[str], ContextManager]  # session name -> session
    clients: str  # who was served, for the ASR summary line
    wire: int | None = None


def in_process_target(server: Any) -> Target:
    return Target("server", lambda name: server.session(),
                  "concurrent sessions")


def _wire_target(kind: str, address: Any, clients: str, wire: int) -> Target:
    @contextmanager
    def open_session(name: str) -> Iterator[Any]:
        with Client(*address, protocol=wire, timeout=120) as client:
            with client.session(name) as session:
                yield session

    return Target(kind, open_session, clients, wire)


def net_target(server: Any, wire: int) -> Target:
    return _wire_target("net", server.address,
                        f"net clients across {server.workers} workers", wire)


def gateway_target(gateway: Any, wire: int) -> Target:
    return _wire_target("gateway", gateway.address,
                        "net clients through the gateway", wire)


_VIA = {"net": "over the wire", "gateway": "through the gateway"}


#: How long the midpoint waits for every client before it breaks.
_MIDPOINT_TIMEOUT_S = 120


@dataclass
class Soak:
    outputs: list
    recoveries: list[int]
    errors: list[str]
    elapsed: float


def soak(target: Target, plan: Any,
         disrupt: Callable[[], None] | None = None) -> Soak:
    """Run ``plan.sessions`` clients; ``disrupt`` fires at the midpoint
    once every client reached it, and never after a client failed."""
    count = plan.sessions
    outputs: list = [None] * count
    recoveries = [0] * count
    errors: list[str] = []
    stranded: list[int] = []  # clients whose midpoint wait broke
    midpoint = threading.Barrier(count + 1, timeout=_MIDPOINT_TIMEOUT_S)

    def client(index: int) -> None:
        try:
            with target.open(f"{plan.prefix}-{index}") as session:
                state = plan.first(session, index)
                midpoint.wait()
                outputs[index] = plan.second(session, index, state)
                recoveries[index] = getattr(session, "recoveries", 0)
        except threading.BrokenBarrierError:
            # Another client's abort (already in ``errors``) or the
            # timeout: not a root cause of its own.
            stranded.append(index)
        except Exception as error:  # noqa: BLE001 — reported by the caller
            errors.append(f"{plan.unit} {index}: {error}")
            midpoint.abort()

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(count)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    try:
        midpoint.wait()
        met = True
    except threading.BrokenBarrierError:
        met = False
    try:
        if disrupt is not None and met and not errors:
            disrupt()
    finally:
        for thread in threads:
            thread.join()
    if stranded and not errors:
        errors.extend(
            f"{plan.unit} {index}: the midpoint barrier broke with no client "
            f"error (not every client arrived within {_MIDPOINT_TIMEOUT_S}s)"
            for index in sorted(stranded)
        )
    return Soak(outputs, recoveries, errors, time.perf_counter() - start)


class PushPlan:
    """One seeded synthetic feature stream per session, every frame pushed
    blocking and timed: client ``i``'s per-push seconds of the latest soak
    land in ``latencies[i]`` (the bench suites' latency percentiles)."""

    workload, prefix, unit = "asr", "push", "stream"

    def __init__(self, compiled: Any, sessions: int, frames: int,
                 seed: int = 0):
        self.compiled = compiled
        self.sessions = sessions
        self.streams = np.random.default_rng(seed).standard_normal(
            (sessions, frames, compiled.input_size)
        )
        self.half = frames // 2
        self.latencies: list[list[float]] = [[] for _ in range(sessions)]

    def conform(self) -> None:
        runtime.check_conformance(
            self.compiled.executor(),
            np.ascontiguousarray(self.streams.transpose(1, 0, 2)),
        )

    def baseline(self) -> list:
        return [self.compiled.run(s[:, None, :])[:, 0] for s in self.streams]

    def _push(self, session: Any, index: int, frames: np.ndarray) -> list:
        timed = self.latencies[index]
        rows = []
        for frame in frames:
            start = time.perf_counter()
            rows.append(session.push(frame))
            timed.append(time.perf_counter() - start)
        return rows

    def first(self, session: Any, index: int) -> list:
        self.latencies[index] = []
        return self._push(session, index, self.streams[index][:self.half])

    def second(self, session: Any, index: int, rows: list) -> np.ndarray:
        rest = self.streams[index][self.half:]
        return np.vstack([*rows, *self._push(session, index, rest)])

    same = staticmethod(np.array_equal)

    def summary(self, target: Target, result: Soak) -> str:
        total = self.streams.shape[0] * self.streams.shape[1]
        wire = "" if target.wire is None else f"; wire v{target.wire}"
        return (f"served {total} frames to {self.sessions} {target.clients} "
                f"in {result.elapsed * 1e3:.1f} ms "
                f"({total / result.elapsed:,.0f} frames/s{wire})")


class AsrPlan(PushPlan):
    """:class:`PushPlan` with its second half streamed through ``run`` in
    ``BLOCKS`` blocks, as a live ASR client sends audio as it arrives:
    over the wire each block is ``push_many`` chunks, one request in
    flight.  The first block is answered before the midpoint, so a
    disruption fires with every stream under way and the other blocks
    run into it.  The in-process ``ServerSession`` has no ``run`` and
    pushes the half frame by frame."""

    prefix = "selftest"
    BLOCKS = 4

    def _blocks(self, index: int) -> list:
        return np.array_split(self.streams[index][self.half:], self.BLOCKS)

    def first(self, session: Any, index: int) -> list:
        rows = super().first(session, index)
        if hasattr(session, "run"):
            rows.extend(session.run(self._blocks(index)[0]))
        return rows

    def second(self, session: Any, index: int, rows: list) -> np.ndarray:
        if not hasattr(session, "run"):
            return super().second(session, index, rows)
        blocks = [session.run(block) for block in self._blocks(index)[1:]]
        return np.vstack([*rows, *blocks])


def lm_fixture_artifact(backend: str, bits: int) -> tuple[Any, Any]:
    """The built-in selftest char-LM: trained on the demo corpus, seeded.

    Every ``--lm`` drill re-derives it deterministically, so the byte gate
    has a known-good baseline without a checkpoint file.  Returns
    ``(compiled, vocab)``.
    """
    from repro.lm import (
        DEMO_TEXT,
        CharVocab,
        LMTrainConfig,
        build_char_lm,
        train_char_lm,
    )

    vocab = CharVocab.from_text(DEMO_TEXT)
    model = build_char_lm(vocab.size, layer_sizes=(32,), cell_type="gru",
                          block_sizes=(4,), seed=0)
    train_char_lm(model, vocab.encode(DEMO_TEXT), LMTrainConfig(epochs=2))
    compiled = runtime.compile(model, backend=backend, weight_bits=bits,
                               workload="lm", vocab=vocab)
    return compiled, vocab


class LmPlan:
    """Seeded generate → score → generate on one session per client; the
    second generation continues from the state the first two ops built,
    so a midpoint disruption must be replayed exactly."""

    workload, prefix, unit = "lm", "lm-selftest", "lm session"
    SAMPLING = {"temperature": 0.8, "top_k": 5}

    def __init__(self, compiled: Any, vocab: Any, sessions: int,
                 frames: int):
        from repro.lm import DEMO_TEXT

        self.compiled = compiled
        self.sessions = sessions
        self.steps = max(4, frames // 2)
        corpus = [int(t) for t in vocab.encode(DEMO_TEXT)]
        self.score_tokens = corpus[:24]
        wrap = max(1, len(corpus) - 4)
        self.prompts = [corpus[3 * i % wrap:3 * i % wrap + 4]
                        for i in range(sessions)]

    def conform(self) -> None:
        probe = np.eye(self.compiled.input_size)[:8]
        runtime.check_conformance(
            self.compiled.executor(),
            np.ascontiguousarray(probe[:, None, :]),
            workload=self.compiled.workload_info,
        )

    def baseline(self) -> list:
        sessions = [runtime.Session(self.compiled) for _ in self.prompts]
        return [self.second(s, i, self.first(s, i))
                for i, s in enumerate(sessions)]

    def first(self, session: Any, index: int) -> tuple:
        tokens = session.generate(self.prompts[index], steps=self.steps,
                                  seed=101 + index, **self.SAMPLING)
        return tuple(tokens), session.score(self.score_tokens).tobytes()

    def second(self, session: Any, index: int, state: tuple) -> tuple:
        tokens, logprobs = state
        more = session.generate([tokens[-1]], steps=self.steps,
                                seed=257 + index, **self.SAMPLING)
        return tokens, logprobs, tuple(more)

    same = staticmethod(operator.eq)

    def summary(self, target: Target, result: Soak) -> str:
        return (f"lm selftest: {self.sessions} generation sessions "
                f"(generate → score → generate) byte-identical "
                f"{_VIA[target.kind]} in {result.elapsed * 1e3:.1f} ms "
                f"(wire v{target.wire})")


class WorkerFaults:
    """Faults armed on a NetServer: a worker died, restarted and healed.

    The faults fire on their own, so :meth:`fire` has nothing to do.
    """

    HINT = {"asr": "raise --frames or lower after=", "lm": "lower after="}
    DEGRADED = {"asr": "; the restart budget was exhausted instead of the "
                       "fleet healing", "lm": ""}

    def __init__(self, server: Any):
        self.server = server

    def fire(self) -> None:
        pass

    def verify(self, result: Soak, workload: str) -> str | None:
        with Client(*self.server.address) as client:
            health = client.health()
        kills = [event for event in self.server.events
                 if event["event"] == "worker_down"]
        if not kills or not health["restarts_total"]:
            return ("chaos was armed but no worker death and supervised "
                    "restart were observed — the faults never fired "
                    f"({self.HINT[workload]})")
        if health["degraded"]:
            return (f"worker(s) degraded under chaos ({health['degraded']})"
                    + self.DEGRADED[workload])
        deaths = (f"chaos: {len(kills)} worker death(s), "
                  f"{health['restarts_total']} restart(s), "
                  f"{sum(result.recoveries)}")
        if workload == "lm":
            print(f"{deaths} session recovery(ies) — seeded generation "
                  "reproduced byte-identically through the journal replay")
        else:
            print(f"{deaths} client recovery(ies), degraded workers: none")
            print("chaos selftest ok: every stream byte-identical through "
                  "worker deaths, supervised restarts, and client reattach")
        return None


def _cluster_health(gateway: Any) -> dict:
    with Client(*gateway.address, timeout=120) as admin:
        return admin.cluster_health()


class BackendKill:
    """SIGKILL the backend holding the most sessions at the midpoint, so
    the failover evidence never depends on where the ring put them."""

    NO_FAILOVER = {"asr": "no client session recovered",
                   "lm": "no generation session failed over"}
    OK = {"asr": "chaos ok: {n} session recovery(ies) across the killed "
                 "backend, every stream byte-identical",
          "lm": "chaos ok: {n} session failover(s) — seeded generation "
                "replayed byte-identically onto the surviving backend"}

    def __init__(self, gateway: Any, fleet: Any):
        self.gateway, self.fleet = gateway, fleet
        self.node: str | None = None
        #: The ``sessions_placed`` snapshot the kill chose its node from.
        self.placed: dict[str, int] = {}

    def fire(self) -> None:
        self.placed = placed = {
            entry["backend"]: entry["sessions_placed"]
            for entry in _cluster_health(self.gateway)["backends"]
        }
        keys = self.fleet.keys
        index = max(range(len(keys)), key=lambda i: placed.get(keys[i], 0))
        self.node = keys[index]
        self.fleet.kill(index)
        print(f"chaos: SIGKILLed backend {self.node} mid-soak")

    def verify(self, result: Soak, workload: str) -> str | None:
        events = [event["event"] for event in self.gateway.events]
        states = {entry["backend"]: entry["state"]
                  for entry in _cluster_health(self.gateway)["backends"]}
        if "backend_down" not in events or states.get(self.node) != "down":
            return ("chaos was armed but the gateway never marked "
                    f"{self.node} down (events: {events})")
        if not sum(result.recoveries):
            return (f"a backend died but {self.NO_FAILOVER[workload]} — the "
                    "kill landed after the soak finished (raise --frames)")
        print(self.OK[workload].format(n=sum(result.recoveries)))
        return None


class Drain:
    """Force-drain the fleet's last backend at the midpoint — the last one
    a ``kill`` that fires first did not take."""

    NOUN = {"asr": "stream", "lm": "generation"}

    def __init__(self, gateway: Any, fleet: Any,
                 kill: BackendKill | None = None):
        self.gateway, self.fleet, self.kill = gateway, fleet, kill
        self.node: str | None = None

    def fire(self) -> None:
        killed = self.kill.node if self.kill else None
        self.node = [key for key in self.fleet.keys if key != killed][-1]
        with Client(*self.gateway.address, timeout=120) as admin:
            reply = admin.cluster_drain(self.node, force=True, wait_s=60)
        print(f"drain: rolled {self.node} out mid-soak "
              f"(drained={reply['drained']})")

    def verify(self, result: Soak, workload: str) -> str | None:
        events = [event["event"] for event in self.gateway.events]
        ring = _cluster_health(self.gateway)["ring"]["nodes"]
        if "backend_removed" not in events or self.node in ring:
            return (f"drain of {self.node} never completed (ring: {ring}, "
                    f"events: {events})")
        print(f"drain ok: {self.node} left the ring mid-soak, every "
              f"{self.NOUN[workload]} byte-identical")
        return None


_MISMATCH = {
    ("server", "asr"): "served bytes differ on stream(s) {bad}",
    ("net", "asr"): "logits served over the wire differ from standalone "
                    "sessions on stream(s) {bad}",
    ("gateway", "asr"): "logits served through the gateway differ from "
                        "standalone sessions on stream(s) {bad}",
    ("net", "lm"): "generation served over the wire differs from "
                   "in-process sessions on {bad}",
    ("gateway", "lm"): "generation served through the gateway differs "
                       "from in-process sessions on {bad}",
}
_OK = {
    ("server", "asr"): "selftest ok: every served stream byte-identical to "
                       "its standalone batched run",
    ("net", "asr"): "selftest ok: every stream served over the wire "
                    "byte-identical to its standalone session",
    ("gateway", "asr"): "gateway selftest ok: every stream served through "
                        "the cluster tier byte-identical to its standalone "
                        "session",
    ("gateway", "lm"): "gateway lm selftest ok: seeded generation and "
                       "scoring served through the cluster tier "
                       "byte-identical to in-process sessions",
}


def mismatches(plan: Any, result: Soak, expected: Sequence) -> list[int]:
    """The clients whose served output differs from ``expected``."""
    return [index for index, (served, want)
            in enumerate(zip(result.outputs, expected))
            if not plan.same(served, want)]


def _failed(message: str) -> int:
    print(f"SELFTEST FAILED: {message}", file=sys.stderr)
    return 1


def run_drill(target: Target, plan: Any, evidence: Sequence[Any] = (),
              selftest: bool = True) -> int:
    """Conformance, baseline, soak, byte compare, evidence → exit code.

    ``selftest=False`` (the in-process load demo) runs the soak alone.
    """
    expected = None
    if selftest:
        try:
            plan.conform()
        except runtime.ConformanceError as error:
            return _failed(
                f"backend {plan.compiled.backend!r} violates the serving "
                f"conformance contract: {error}\n"
                "  this artifact must not be served; fix the backend's "
                "step/step_rows/run implementation (see docs/runtime.md, "
                "'The conformance contract') and re-run repro serve "
                "--selftest"
            )
        expected = plan.baseline()

    def disrupt() -> None:
        for check in evidence:
            check.fire()

    result = soak(target, plan, disrupt)
    if result.errors:
        return _failed("client error(s): " + "; ".join(result.errors))
    if expected is not None:
        bad = mismatches(plan, result, expected)
        if bad:
            return _failed(
                _MISMATCH[target.kind, plan.workload].format(bad=bad)
            )
    print(plan.summary(target, result))
    for check in evidence:
        failure = check.verify(result, plan.workload)
        if failure is not None:
            return _failed(failure)
    if selftest and (target.kind, plan.workload) in _OK:
        print(_OK[target.kind, plan.workload])
    return 0
