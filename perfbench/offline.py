"""The offline workload: ``asr_offline``.

In-process ``CompiledModel.run`` over seeded (T=300, B=8) feature batches
at the paper's Table I scale — LSTM-1024, block 8, peephole, projection
512, 153→39 — on the fixed-point backend.  No serving layer runs, so the
hoisted ``CUEmulator.forward`` does all of the work: this is where kernel
changes show.  Every output is compared byte for byte with
``CUEmulator.forward_reference`` (the per-frame oracle) computed from the
same ``.npz`` artifact.
"""

from __future__ import annotations

import os
import time
from contextlib import ExitStack, nullcontext
from pathlib import Path

import numpy as np

from harness import (
    OutputGate,
    Tracer,
    cpu_seconds,
    host_speed,
    percentile,
    repeated_setup,
    setup_metrics,
    spectral_work,
    wrapped,
)

FRAMES, BATCH, FEATURES = 300, 8, 153
POOL_SIZE = 2
#: Untimed runs after set-up; throughput ramps over the first few.
WARMUP_RUNS = 2
#: Batch time percentiles in the report: 40-60 batches fit in a 40-s
#: run, so p75 has at least ten beyond it.
REPORT_Q = (50.0, 75.0)


def compile_paper_scale():
    from repro.config import RNNSpec
    from repro.runtime import compile as compile_model

    spec = RNNSpec(cell_type="lstm", layer_sizes=(1024,), block_sizes=(8,),
                   input_size=FEATURES, output_size=39, peephole=True,
                   projection_size=512)
    return compile_model(spec, backend="fixed", weight_bits=12, cache=False)


def inputs(seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng([seed, 3])
    return [rng.standard_normal((FRAMES, BATCH, FEATURES))
            for _ in range(POOL_SIZE)]


def _setup(run_dir: Path, first_batch: np.ndarray):
    """Compile, save, load and run once, ``SETUP_REPEATS`` times."""
    from repro.runtime import CompiledModel

    def once(repeat: int):
        start = time.perf_counter()
        compiled = compile_paper_scale()
        compiled_at = time.perf_counter()
        artifact = run_dir / f"asr_offline-{repeat}.npz"
        compiled.save(artifact)
        loaded = CompiledModel.load(artifact)
        loaded.executor()
        loaded_at = time.perf_counter()
        first = loaded.run(first_batch)
        return (loaded, first), {
            "total_s": time.perf_counter() - start,
            "compile_s": compiled_at - start,
            "artifact_s": loaded_at - compiled_at,
            "spawn_s": 0.0,
            "gateway_s": 0.0,
            "first_op_ms": (time.perf_counter() - loaded_at) * 1e3,
        }

    (loaded, first), breakdown = repeated_setup(once)
    return loaded, first, breakdown


def _timed(compiled, pool, oracles, seconds, gate, label,
           contexts=(nullcontext,)) -> list[dict]:
    """Run batches from the pool until ``seconds`` have passed; each
    batch's wall time, the CPU this process spent on it (every BLAS
    thread included) and the host's speed around it, probed before each
    batch and after the last.  Batch ``n`` runs inside
    ``contexts[n % k]()`` and is returned in that context's part, so parts
    alternate batch by batch and a drift in machine speed hits them
    alike."""
    parts = [{"latencies": [], "cpu": [], "speeds": [], "frames": 0}
             for _ in contexts]
    speeds = [host_speed()]
    started = time.perf_counter()
    deadline = started + seconds
    n = 0
    while time.perf_counter() < deadline:
        index = n % len(pool)
        part = parts[n % len(contexts)]
        with contexts[n % len(contexts)]():
            cpu_before = cpu_seconds(os.getpid())
            start = time.perf_counter()
            out = compiled.run(pool[index])
            part["latencies"].append(time.perf_counter() - start)
            part["cpu"].append(cpu_seconds(os.getpid()) - cpu_before)
        speeds.append(host_speed())
        part["speeds"].append((speeds[-2] + speeds[-1]) / 2.0)
        part["frames"] += FRAMES * BATCH
        gate.check(f"{label} batch {n}", out, oracles[index])
        n += 1
    for part in parts:
        part["elapsed"] = time.perf_counter() - started
        # Each batch's times at reference speed.
        part["scaled_latencies"] = [
            lat * speed for lat, speed in zip(part["latencies"],
                                              part["speeds"])]
        part["scaled_cpu"] = [
            cpu * speed for cpu, speed in zip(part["cpu"], part["speeds"])]
    return parts


def run(seed: int, seconds: float, trace: bool, gate: OutputGate,
        run_dir: Path) -> dict:
    from repro.hw.emulator import CUEmulator, SpectralWeights

    pool = inputs(seed)
    compiled, first, setup = _setup(run_dir, pool[0])
    emulator = compiled.executor().emulator
    oracles = [emulator.forward_reference(batch) for batch in pool]
    gate.check("setup first op", first, oracles[0])
    for n in range(WARMUP_RUNS):
        gate.check(f"warmup {n}", compiled.run(pool[n % POOL_SIZE]),
                   oracles[n % POOL_SIZE])

    if not trace:
        (timed,) = _timed(compiled, pool, oracles, seconds, gate, "timed")
        frames = timed["frames"]
        latencies = timed["scaled_latencies"]
        # Scaled to reference speed (harness.host_speed), batch by batch.
        metrics = {
            "setup_s": (setup["total_s"], "s"),
            "cpu_ms_per_frame": (sum(timed["scaled_cpu"]) * 1e3 / frames,
                                 "ms"),
        }
        report = {
            "frames_per_s": (frames / sum(latencies), "frames/s"),
            "batches": (len(latencies), "runs"),
            "host_speed": (float(np.mean(timed["speeds"])), "x"),
        }
        for q in REPORT_Q:
            report[f"run_p{q:g}_ms"] = (percentile(latencies, q) * 1e3, "ms")
        details = {"ops": len(latencies), "items": frames,
                   "elapsed_s": timed["elapsed"], "cpu_s": timed["cpu"],
                   "latencies_s": timed["latencies"],
                   "speeds": timed["speeds"], "setup": setup}
        return {"metrics": metrics, "report": report, "details": details}

    tracer = Tracer()

    def instrument():
        stack = ExitStack()
        stack.enter_context(wrapped(CUEmulator, "forward", tracer,
                                    "forward"))
        for method in ("matvec_step", "matvec_frames"):
            stack.enter_context(wrapped(SpectralWeights, method, tracer,
                                        "spectral", spectral_work))
        return stack

    plain, traced = _timed(compiled, pool, oracles, seconds, gate, "timed",
                           (nullcontext, instrument))
    # Run time from the plain batches; the breakdown from the wrapped ones.
    frames = traced["frames"]
    forward_n, forward_s = tracer.totals("forward")
    spectral_n, spectral_s = tracer.totals("spectral")
    metrics = {
        "trace_overhead_pct": (
            (percentile(traced["latencies"], 50)
             / percentile(plain["latencies"], 50) - 1.0) * 100.0, "%"),
        "backend.run_us_per_frame": (
            sum(plain["latencies"]) * 1e6 / plain["frames"], "us"),
        "emulator.spectral_us_per_frame": (spectral_s * 1e6 / frames, "us"),
        "emulator.spectral_calls_per_frame": (spectral_n / frames, "count"),
        "emulator.pointwise_us_per_frame": (
            (forward_s - spectral_s) * 1e6 / frames, "us"),
        "emulator.spectral_mac_gflop_per_s": (
            tracer.counters["mac_flop"] / spectral_s / 1e9, "GFLOP/s"),
        "emulator.spectral_mb_per_frame": (
            tracer.counters["bytes"] / 1e6 / frames, "MB"),
        **setup_metrics(setup),
    }
    details = {"ops": [len(plain["latencies"]), len(traced["latencies"])],
               "forward_calls": forward_n, "setup": setup}
    return {"metrics": metrics, "report": {}, "details": details}
