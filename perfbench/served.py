"""The served workload: ``asr_stream``.

It drives the north-star stack — ``Session`` → micro-batching ``Server``
→ ``NetServer`` worker process → ``Gateway`` — hosted by ``launcher.py`` in
its own process tree, from a generator of two closed-loop connections (the
main thread and one more): each waits for its reply before sending again.

The untraced run measures the end-to-end metrics through the gateway.  The
traced run replays the same seeded inputs at four entry points — depth 0 an
in-process ``Session``, depth 1 in-process ``Server`` sessions, depth 2 a
``Client`` straight to the backend ``NetServer``, depth 3 a ``Client`` to
the ``Gateway`` — and reports the per-layer differences, per-process CPU
from ``/proc`` and the ``stats``/``health`` counters.  It also replays
seeded char-LM ``generate`` requests in-process for the float backend and
the sampler, which ASR does not use.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from contextlib import ExitStack, nullcontext
from pathlib import Path

import numpy as np

from harness import (
    OutputGate,
    ServedSystem,
    Tracer,
    bracketed,
    cpu_seconds,
    host_speed,
    percentile,
    repeated_setup,
    setup_metrics,
    spectral_work,
    wrapped,
)

#: Untimed closed-loop traffic through the gateway before any timing.
WARMUP_S = 1.5
#: Closed loops pause this often for a probe of the host's speed.
SLICE_S = 1.0
#: Longest a caller waits at a pause for the other caller.
PAUSE_TIMEOUT_S = 60.0


def _always(end: float) -> bool:
    return True


def _never(end: float) -> bool:
    return False


# ----------------------------------------------------------------------
# Workload definitions.
# ----------------------------------------------------------------------


class AsrStream:
    """Frame-by-frame ASR scoring: LSTM-64, block 8, 12-bit fixed, 39→39.

    One frame's compute is ~0.3 ms while a served round trip is ~2 ms, so
    the client codec, gateway hop, parent admission, shm ring and worker
    scheduling do most of the work here.
    """

    #: Push latency percentiles in the report: a 40-s run holds 25000-40000
    #: pushes, so 250+ lie beyond p99.
    report_q = (50.0, 95.0, 99.0)
    pool_size = 16
    #: Utterances replayed at each entry point in a traced run.
    depth_items = 8

    def compile(self):
        from repro.config import RNNSpec
        from repro.runtime import compile as compile_model

        spec = RNNSpec(cell_type="lstm", layer_sizes=(64,), block_sizes=(8,),
                       input_size=39, output_size=39)
        return compile_model(spec, backend="fixed", weight_bits=12,
                             cache=False)

    def inputs(self, seed: int) -> list[np.ndarray]:
        """Utterances of TIMIT-like length, 200..400 frames of 39 features.

        The lengths are evenly spaced and only their order is seeded, so
        every seed streams the same mix of lengths and the metrics do not
        move with the seed's draw of sizes.
        """
        rng = np.random.default_rng([seed, 1])
        lengths = rng.permutation(np.linspace(200, 400, self.pool_size))
        return [rng.standard_normal((int(n), 39)) for n in lengths]

    def oracle(self, compiled, utterance: np.ndarray) -> np.ndarray:
        return compiled.session().run(utterance[:, None, :])[:, 0]

    def run_item(self, entry, label: str, utterance, expected,
                 gate: OutputGate, samples: list, more) -> None:
        """Stream one utterance in its own session, timing each push;
        after each push ``more(end)`` may pause the caller, and stops the
        utterance early when it returns False."""
        session = entry.open(label)
        try:
            push = session.push
            for t in range(len(utterance)):
                start = time.perf_counter()
                logits = push(utterance[t])
                end = time.perf_counter()
                samples.append((end, end - start, 1))
                gate.check(f"{label} frame {t}", logits,
                           None if expected is None else expected[t])
                if not more(end):
                    return
        finally:
            entry.release(session)


class LmGenerate:
    """Seeded char-LM generation: GRU-32, block 4, float backend, replayed
    in-process in the traced ``asr_stream`` run for the float backend's
    ``step_rows`` and the sampler.

    Each request is ~100 backend steps of a deterministically initialised
    (untrained) model; temperature 0.8, top-k 5.
    """

    #: Requests replayed at each in-process entry point.
    pool_size = 24
    temperature = 0.8
    top_k = 5

    def compile(self):
        from repro.lm import DEMO_TEXT, CharVocab, build_char_lm
        from repro.runtime import compile as compile_model

        vocab = CharVocab.from_text(DEMO_TEXT)
        model = build_char_lm(vocab.size, layer_sizes=(32,), cell_type="gru",
                              block_sizes=(4,), seed=0)
        return compile_model(model, backend="float", workload="lm",
                             vocab=vocab, cache=False)

    def inputs(self, seed: int) -> list[dict]:
        """Requests with prompts of 4..16 tokens and 64..128 steps.

        As for ``asr_stream``, the sizes are evenly spaced and the seed
        picks their pairing and order, the prompt tokens and the sampling
        seeds.
        """
        from repro.lm import DEMO_TEXT, CharVocab

        vocab_size = CharVocab.from_text(DEMO_TEXT).size
        rng = np.random.default_rng([seed, 2])
        prompts = rng.permutation(np.linspace(4, 16, self.pool_size))
        steps = rng.permutation(np.linspace(64, 128, self.pool_size))
        return [
            {
                "prompt": [int(t) for t in rng.integers(
                    0, vocab_size, int(round(length)))],
                "steps": int(round(count)),
                "seed": int(rng.integers(0, 2**31)),
            }
            for length, count in zip(prompts, steps)
        ]

    def _generate(self, session, request: dict) -> list[int]:
        return session.generate(
            request["prompt"], steps=request["steps"],
            temperature=self.temperature, top_k=self.top_k,
            seed=request["seed"],
        )

    def oracle(self, compiled, request: dict) -> np.ndarray:
        return np.asarray(self._generate(compiled.session(), request))

    def run_item(self, entry, label: str, request, expected,
                 gate: OutputGate, samples: list, more) -> None:
        """One request, timed from opening its session to closing it."""
        start = time.perf_counter()
        session = entry.open(label)
        try:
            tokens = self._generate(session, request)
        finally:
            entry.release(session)
        end = time.perf_counter()
        samples.append((end, end - start, request["steps"]))
        gate.check(f"{label} generate", np.asarray(tokens), expected)



# ----------------------------------------------------------------------
# Entry points (depths) and the closed-loop generator.
# ----------------------------------------------------------------------


class _NetEntry:
    """Depth 2/3: one ``Client`` connection, one named session per item."""

    def __init__(self, address):
        from repro.runtime.net import Client

        self.client = Client(*address, timeout=30.0)
        self.recoveries = 0
        self.replayed = 0

    def open(self, name: str):
        return self.client.session(name)

    def release(self, session) -> None:
        self.recoveries += session.recoveries
        self.replayed += session.replayed_frames
        session.close()

    def close(self) -> None:
        self.client.close()


class _ServerEntry:
    """Depth 1: sessions multiplexed on an in-process ``Server``."""

    def __init__(self, server):
        self.server = server
        self.recoveries = self.replayed = 0

    def open(self, name: str):
        return self.server.session()

    def release(self, session) -> None:
        session.close()

    def close(self) -> None:
        pass


class _SessionEntry:
    """Depth 0: a plain in-process ``Session`` per item."""

    def __init__(self, compiled):
        self.compiled = compiled
        self.recoveries = self.replayed = 0

    def open(self, name: str):
        return self.compiled.session()

    def release(self, session) -> None:
        pass

    def close(self) -> None:
        pass


class PassResult:
    """What one pass measured: its ops as ``(end, latency, units)`` and
    its slices as ``(start, end, host speed)``."""

    def __init__(self, samples: list, slices: list, recoveries: int,
                 replayed: int):
        self.samples = samples
        self.slices = slices
        self._starts = [start for start, _, _ in slices]
        self.elapsed = sum(end - start for start, end, _ in slices)
        self.recoveries = recoveries
        self.replayed = replayed

    @property
    def ops(self) -> int:
        return len(self.samples)

    @property
    def items(self) -> int:
        return sum(units for _, _, units in self.samples)

    def latency(self, q: float) -> float:
        return percentile([lat for _, lat, _ in self.samples], q)

    @property
    def scaled_elapsed(self) -> float:
        """Time measured, at reference speed (harness.host_speed)."""
        return sum((end - start) * speed for start, end, speed
                   in self.slices)

    def scaled_latency(self, q: float) -> float:
        """Percentile of the op latencies, each at reference speed by the
        speed of the slice it ended in."""
        speeds = [speed for _, _, speed in self.slices]
        return percentile(
            [lat * speeds[max(0, bisect.bisect_right(self._starts, end) - 1)]
             for end, lat, _ in self.samples], q)


class _Connection:
    """One caller's connection at one entry point.  A failed op is counted
    and drops the connection; the next op reconnects."""

    def __init__(self, connect):
        self._connect = connect
        self._entry = None
        self.recoveries = 0
        self.replayed = 0

    def run(self, workload, name: str, item, expected, gate: OutputGate,
            samples: list, more) -> None:
        try:
            if self._entry is None:
                self._entry = self._connect()
            workload.run_item(self._entry, name, item, expected, gate,
                              samples, more)
        except Exception as error:  # counted: a failed op, not a crash
            gate.error(name, error)
            self.close()

    def close(self) -> None:
        entry, self._entry = self._entry, None
        if entry is None:
            return
        self.recoveries += entry.recoveries
        self.replayed += entry.replayed
        try:
            entry.close()
        except Exception:  # the connection is already broken
            pass


class _Slicer:
    """Cuts a two-caller closed loop into slices of ``SLICE_S``.  A caller
    past the slice's end waits for the other; with both paused the host's
    speed is probed, then the next slice starts."""

    def __init__(self, seconds: float):
        self.count = max(1, round(seconds / SLICE_S))
        self.length = seconds / self.count
        self.speeds = [host_speed()]
        self.starts = [time.perf_counter()]
        self.ends: list[float] = []
        self.deadline = self.starts[0] + self.length
        self.done = False
        self._barrier = threading.Barrier(2, action=self._turn)

    def _turn(self) -> None:  # runs once per pause, both callers waiting
        self.ends.append(time.perf_counter())
        self.speeds.append(host_speed())
        if len(self.ends) == self.count:
            self.done = True
            return
        self.starts.append(time.perf_counter())
        self.deadline = self.starts[-1] + self.length

    def more(self, now: float) -> bool:
        """After each op: False once the pass is over."""
        if self.done:
            return False
        if now >= self.deadline:
            self._barrier.wait(PAUSE_TIMEOUT_S)
        return not self.done

    def abort(self) -> None:
        """Release a caller waiting at a pause: the pass is over."""
        self.done = True
        self._barrier.abort()

    def slices(self) -> list:
        return list(zip(self.starts, self.ends, bracketed(self.speeds)))


def closed_loop(workload, connect, pool, oracles, seconds: float,
                gate: OutputGate, label: str) -> PassResult:
    """Two callers (this thread and one more), each sending its next op
    only after the previous reply, until ``seconds`` of slices have passed
    (:class:`_Slicer`).  Each caller walks the whole pool cyclically, the
    second starting half a pool later, so both offer the same mix of item
    sizes whatever the seed's order.
    """
    slicer = _Slicer(seconds)
    per_caller: list = [None, None]

    def caller(k: int) -> None:
        connection = _Connection(connect)
        samples: list = []
        offset = k * (len(pool) // 2)
        n = 0
        try:
            while slicer.more(time.perf_counter()):
                index = (offset + n) % len(pool)
                connection.run(workload, f"{label}-{k}-{n}", pool[index],
                               oracles[index], gate, samples, slicer.more)
                n += 1
        except threading.BrokenBarrierError as error:
            gate.error(f"{label}-{k} pause", error)
        finally:
            connection.close()
            per_caller[k] = (samples, connection.recoveries,
                             connection.replayed)

    # Daemonic so that a watchdog abort cannot hang interpreter exit.
    other = threading.Thread(target=caller, args=(1,), name="caller-1",
                             daemon=True)
    other.start()
    try:
        caller(0)
    finally:
        if other.is_alive():
            slicer.abort()
    other.join()
    (first, rec0, rep0), (second, rec1, rep1) = per_caller
    return PassResult(sorted(first + second), slicer.slices(), rec0 + rec1,
                      rep0 + rep1)


def interleaved_replay(workload, depths: list, pool, oracles, count: int,
                       gate: OutputGate) -> list[PassResult]:
    """The first ``count`` pool items, each run at every entry point in
    turn with one connection per entry point.  Nothing contends (two
    in-process threads would mostly measure the GIL), op ``i`` at one
    depth pairs with op ``i`` at the next, and the order of the depths
    reverses from one item to the next, so a drift in machine speed hits
    every depth alike.  ``depths`` holds ``(label, connect, instrument)``;
    ``instrument()`` is active only while that depth runs.
    """
    connections = [_Connection(connect) for _, connect, _ in depths]
    samples: list = [[] for _ in depths]
    started = time.perf_counter()
    for i in range(count):
        index = i % len(pool)
        order = range(len(depths))
        for d in order if i % 2 == 0 else reversed(order):
            label, _, instrument = depths[d]
            with instrument():
                connections[d].run(workload, f"{label}-{i}", pool[index],
                                   oracles[index], gate, samples[d],
                                   _always)
    for connection in connections:
        connection.close()
    ended = time.perf_counter()
    return [PassResult(part, [(started, ended, 1.0)],
                       connection.recoveries, connection.replayed)
            for part, connection in zip(samples, connections)]


# ----------------------------------------------------------------------
# Set-up.
# ----------------------------------------------------------------------


class _Recorder:
    """Stands in for the gate during set-up's first op, which runs before
    the oracle exists: replies are kept and checked once it does."""

    def __init__(self):
        self.replies: list = []

    def check(self, label: str, got, expected) -> None:
        self.replies.append((label, np.array(got)))

    def replay(self, gate: OutputGate, parts: list) -> None:
        """Check the kept replies against the first oracle parts."""
        if not 0 < len(self.replies) <= len(parts):
            gate.error("setup first op",
                       RuntimeError(f"{len(self.replies)} replies for "
                                    f"{len(parts)} expected"))
            return
        for (label, got), expected in zip(self.replies, parts):
            gate.check(label, got, expected)


def _first_op(workload, system: ServedSystem, item) -> tuple[float, _Recorder]:
    """The first op through the gateway — one push of an utterance, one
    generate request — with its connect and session open: its wall time
    and its reply."""
    recorder = _Recorder()
    entry = _NetEntry(system.gateway)
    start = time.perf_counter()
    try:
        workload.run_item(entry, "setup-first-op", item, None, recorder,
                          [], _never)
    finally:
        entry.close()
    return time.perf_counter() - start, recorder


def setup_system(workload, run_dir: Path, gate: OutputGate, first_item):
    """Compile, save, launch and serve a first op, ``SETUP_REPEATS``
    times; each system but the last is stopped (through the teardown
    guard) when the next set-up starts.  Returns ``(system, artifact,
    breakdown, recorders)``."""
    recorders = []
    systems: list = []

    def once(repeat: int):
        if systems:
            systems.pop().stop()
        start = time.perf_counter()
        compiled = workload.compile()
        compiled_at = time.perf_counter()
        artifact = run_dir / f"asr_stream-{repeat}.npz"
        compiled.save(artifact)
        saved_at = time.perf_counter()
        system = ServedSystem(artifact, gate)
        systems.append(system)
        first_s, recorder = _first_op(workload, system, first_item)
        recorders.append(recorder)
        return (system, artifact), {
            "total_s": time.perf_counter() - start,
            "compile_s": compiled_at - start,
            "artifact_s": saved_at - compiled_at,
            "spawn_s": system.spawn_s,
            "gateway_s": system.gateway_s,
            "launch_s": system.ready_s,
            "first_op_ms": first_s * 1e3,
        }

    try:
        (system, artifact), breakdown = repeated_setup(once)
    except BaseException:
        for system in systems:
            system.stop()
        raise
    return system, artifact, breakdown, recorders


# ----------------------------------------------------------------------
# Runs.
# ----------------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool, gate: OutputGate,
        run_dir: Path) -> dict:
    from repro.runtime import CompiledModel

    workload = AsrStream()
    pool = workload.inputs(seed)
    system = None
    try:
        system, artifact, setup, recorders = setup_system(
            workload, run_dir, gate, pool[0])
        # Oracles come from the very artifact the running fleet loaded.
        compiled = CompiledModel.load(artifact)
        oracles = [workload.oracle(compiled, item) for item in pool]
        for recorder in recorders:
            recorder.replay(gate, list(oracles[0]))

        def gateway():
            return _NetEntry(system.gateway)

        closed_loop(workload, gateway, pool, oracles, WARMUP_S, gate,
                    "warmup")
        if trace:
            result = _traced(workload, system, compiled, pool, oracles,
                             seconds, gate, setup)
            result["metrics"].update(lm_layers(seed, gate))
        else:
            result = _untraced(workload, system, pool, oracles, seconds,
                               gate, setup)
    finally:
        if system is not None:
            system.stop()
    return result


def _untraced(workload, system, pool, oracles, seconds, gate, setup) -> dict:
    def gateway():
        return _NetEntry(system.gateway)

    cpu_before = system.cpu()
    measured = closed_loop(workload, gateway, pool, oracles, seconds, gate,
                           "timed")
    cpu_after = system.cpu()
    cpu_s = {role: cpu_after[role] - cpu_before[role] for role in cpu_after}

    # Scaled to reference speed (harness.host_speed): the CPU by the pass's
    # mean speed, as the load keeps the system equally busy in every slice.
    speed = measured.scaled_elapsed / measured.elapsed
    metrics = {
        "setup_s": (setup["total_s"], "s"),
        "cpu_ms_per_frame": (cpu_s["total"] * speed * 1e3 / measured.items,
                             "ms"),
    }
    report = {
        "frames_per_s": (measured.items / measured.scaled_elapsed,
                         "frames/s"),
        "push_samples": (float(measured.ops), "ops"),
        "host_speed": (speed, "x"),
    }
    for q in workload.report_q:
        report[f"push_p{q:g}_ms"] = (measured.scaled_latency(q) * 1e3, "ms")
        report[f"beyond_p{q:g}"] = (measured.ops * (100.0 - q) / 100.0,
                                    "ops")
    details = {
        "ops": measured.ops,
        "items": measured.items,
        "elapsed_s": measured.elapsed,
        "raw_frames_per_s": measured.items / measured.elapsed,
        "raw_push_ms": {q: measured.latency(q) * 1e3
                        for q in workload.report_q},
        "cpu_s_by_role": cpu_s,
        "slices": measured.slices,
        "setup": setup,
        "recoveries": measured.recoveries,
    }
    return {"metrics": metrics, "report": report, "details": details}


def _stats_totals(client) -> tuple[int, int, int]:
    """``(frames, batches, max rows)`` of every worker's ``Server``."""
    stats = [worker["stats"] for worker in client.stats()]
    return (sum(int(s["frames"]) for s in stats),
            sum(int(s["batches"]) for s in stats),
            max(int(s["max_coalesced"]) for s in stats))


def _traced(workload, system, compiled, pool, oracles, seconds, gate,
            setup) -> dict:
    from repro.hw.emulator import SpectralWeights
    from repro.runtime.net import Client

    executor_cls = type(compiled.executor())

    def gateway():
        return _NetEntry(system.gateway)

    def backend():
        return _NetEntry(system.backends[0])

    # The end-to-end load (two connections through the gateway), nothing
    # wrapped: per-process CPU and the Server counters over it.
    with Client(*system.gateway, timeout=30.0) as admin:
        stats_before = _stats_totals(admin)
        cpu_before = system.cpu()
        client_before = cpu_seconds(os.getpid())
        load = closed_loop(workload, gateway, pool, oracles, seconds, gate,
                           "load")
        client_after = cpu_seconds(os.getpid())
        cpu_after = system.cpu()
        stats_after = _stats_totals(admin)

    # The replay: four plain depths give the latencies and the latency
    # each layer adds; depths 1 and 0 run once more with the in-process
    # calls wrapped, for the per-call breakdown and the tracing cost.
    d1_tracer, d0_tracer = Tracer(), Tracer()

    def d1_instrument():
        return wrapped(executor_cls, "step_rows", d1_tracer, "step_rows",
                       lambda self, frames, states: {"rows": len(frames)})

    def d0_instrument():
        stack = ExitStack()
        stack.enter_context(wrapped(executor_cls, "step", d0_tracer, "step"))
        for method in ("matvec_step", "matvec_frames"):
            stack.enter_context(wrapped(SpectralWeights, method, d0_tracer,
                                        "spectral", spectral_work))
        return stack

    with compiled.serve() as server:
        def in_server():
            return _ServerEntry(server)

        def in_session():
            return _SessionEntry(compiled)

        d3, d2, d1, d1_wrapped, d0, d0_wrapped = interleaved_replay(
            workload, [
                ("d3", gateway, nullcontext),
                ("d2", backend, nullcontext),
                ("d1", in_server, nullcontext),
                ("d1w", in_server, d1_instrument),
                ("d0", in_session, nullcontext),
                ("d0w", in_session, d0_instrument),
            ], pool, oracles, workload.depth_items, gate)

    with Client(*system.backends[0], timeout=30.0) as direct:
        health = direct.health()

    depths = (d0, d1, d2, d3)
    rows = d1_tracer.counters["rows"]
    rows_s = d1_tracer.totals("step_rows")[1]
    frames, steps_s = d0_tracer.totals("step")  # one step per frame
    spectral_n, spectral_s = d0_tracer.totals("spectral")
    load_ops = load.ops
    metrics = {
        "trace_overhead_pct": (
            (percentile(np.concatenate([_ratios(d0_wrapped, d0),
                                        _ratios(d1_wrapped, d1)]), 50)
             - 1.0) * 100.0, "%"),
        "session.us_per_op": (d0.latency(50) * 1e6, "us"),
        "server.added_us_per_op": (_added_us(d1, d0), "us"),
        "net.added_us_per_op": (_added_us(d2, d1), "us"),
        "gateway.added_us_per_op": (_added_us(d3, d2), "us"),
        "gateway.cpu_ms_per_op": (
            (cpu_after["gateway"] - cpu_before["gateway"]) * 1e3 / load_ops,
            "ms"),
        "netserver.parent_cpu_ms_per_op": (
            (cpu_after["netserver"] - cpu_before["netserver"]) * 1e3
            / load_ops, "ms"),
        "worker.cpu_ms_per_op": (
            (cpu_after["worker"] - cpu_before["worker"]) * 1e3 / load_ops,
            "ms"),
        "client.cpu_ms_per_op": (
            (client_after - client_before) * 1e3 / load_ops, "ms"),
        "server.rows_per_call": (
            (stats_after[0] - stats_before[0])
            / max(1, stats_after[1] - stats_before[1]), "rows"),
        "server.max_rows_per_call": (float(stats_after[2]), "rows"),
        "backend.step_rows_us_per_row": (rows_s * 1e6 / rows, "us"),
        "backend.run_us_per_frame": (steps_s * 1e6 / frames, "us"),
        "emulator.spectral_us_per_frame": (spectral_s * 1e6 / frames, "us"),
        "emulator.spectral_calls_per_frame": (spectral_n / frames, "count"),
        "emulator.pointwise_us_per_frame": (
            (steps_s - spectral_s) * 1e6 / frames, "us"),
        "emulator.spectral_mac_gflop_per_s": (
            d0_tracer.counters["mac_flop"] / spectral_s / 1e9, "GFLOP/s"),
        "emulator.spectral_mb_per_frame": (
            d0_tracer.counters["bytes"] / 1e6 / frames, "MB"),
        **setup_metrics(setup),
        "client.recoveries": (
            float(sum(r.recoveries for r in (load, d3, d2))), "count"),
        "client.replayed_frames": (
            float(sum(r.replayed for r in (load, d3, d2))), "count"),
        "netserver.retryable_errors": (
            float(health.get("retryable_errors_total", 0)), "count"),
        "netserver.restarts": (float(health.get("restarts_total", 0)),
                               "count"),
    }
    details = {
        "ops_by_depth": [r.ops for r in depths],
        "p50_us_by_depth": [r.latency(50) * 1e6 for r in depths],
        "load_ops": load_ops,
        "stats_delta": {
            "frames": stats_after[0] - stats_before[0],
            "batches": stats_after[1] - stats_before[1],
        },
        "health": health,
        "setup": setup,
    }
    return {"metrics": metrics, "report": {}, "details": details}


def lm_layers(seed: int, gate: OutputGate) -> dict:
    """The float backend's ``step_rows`` and the sampler, which ASR does
    not use: seeded char-LM ``generate`` requests replayed in-process, each
    through a ``Server`` session (``step_rows`` wrapped) and a plain
    ``Session`` (``sample_token`` wrapped), every reply checked against
    ``Session.generate``."""
    from repro.runtime import workloads as runtime_workloads

    workload = LmGenerate()
    compiled = workload.compile()
    pool = workload.inputs(seed)
    oracles = [workload.oracle(compiled, request) for request in pool]
    tracer = Tracer()
    executor_cls = type(compiled.executor())

    def in_server():
        return wrapped(executor_cls, "step_rows", tracer, "step_rows",
                       lambda self, frames, states: {"rows": len(frames)})

    def in_session():
        return wrapped(runtime_workloads, "sample_token", tracer, "sample")

    with compiled.serve() as server:
        interleaved_replay(workload, [
            ("lm-d1", lambda: _ServerEntry(server), in_server),
            ("lm-d0", lambda: _SessionEntry(compiled), in_session),
        ], pool, oracles, len(pool), gate)
    rows = tracer.counters["rows"]
    samples_n, sample_s = tracer.totals("sample")
    return {
        "lm.step_rows_us_per_row": (
            tracer.totals("step_rows")[1] * 1e6 / rows, "us"),
        "lm.sample_us_per_token": (sample_s * 1e6 / samples_n, "us"),
    }


def _paired(outer: PassResult, inner: PassResult):
    """Latencies of the ops two replayed entry points have in common, in
    pairs (same item, same position)."""
    count = min(outer.ops, inner.ops)
    return (np.array([lat for _, lat, _ in outer.samples[:count]]),
            np.array([lat for _, lat, _ in inner.samples[:count]]))


def _ratios(wrapped_pass: PassResult, plain: PassResult) -> np.ndarray:
    """Per paired op: latency with the calls wrapped over latency without."""
    with_wrappers, without = _paired(wrapped_pass, plain)
    return with_wrappers / without


def _added_us(outer: PassResult, inner: PassResult) -> float:
    """Median over paired ops of the latency one entry point adds over the
    next one in."""
    outer_lat, inner_lat = _paired(outer, inner)
    return percentile(outer_lat - inner_lat, 50) * 1e6
