"""perfbench: the repository's benchmark, one workload per invocation.

    python3 perfbench/run.py --workload asr_stream --seed 1 --seconds 40 --trace 0

Workloads: ``asr_stream`` (served through the Gateway stack) and
``asr_offline`` (in-process, paper scale).  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` is a separate run that prints the
per-layer metrics.  Every output is checked byte for byte against an
in-process oracle.  A readable report goes to stdout first; the last line
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The full record of the run (environment, sample counts, set-up repeats)
is written under ``.perfbench/`` in the repository root.

See ``perfbench/README.md`` for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("asr_stream", "asr_offline")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
#: A run that has not finished by then is abandoned (its system is still
#: stopped through the teardown guard) so the command ends within 180 s.
WATCHDOG_S = 170


class _Overrun(BaseException):
    """Not an Exception: the handlers that count a failed op must not
    swallow it."""


def _overrun(signum, frame):
    raise _Overrun(f"run exceeded {WATCHDOG_S}s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one perfbench workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics instead of end-to-end")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    # One BLAS thread, here and in the served tree, which inherits the
    # environment; set before numpy loads.  With one thread per CPU a
    # thread whose CPU is taken spins its peers: CPU time then grows with
    # other tenants' load instead of with the program's work.
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"

    import harness

    load_before = harness.loadavg()
    ticks_before = harness.host_ticks()
    shm_before = harness.shm_segments()
    gate = harness.OutputGate()
    out_dir = ROOT / ".perfbench"
    run_dir = out_dir / f"run-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(WATCHDOG_S)
    started = time.perf_counter()
    try:
        if args.workload == "asr_offline":
            import offline

            result = offline.run(args.seed, args.seconds, bool(args.trace),
                                 gate, run_dir)
        else:
            import served

            result = served.run(args.seed, args.seconds, bool(args.trace),
                                gate, run_dir)
    finally:
        signal.alarm(0)
        shutil.rmtree(run_dir, ignore_errors=True)
    if args.trace:
        # A layer the workload bypasses (the serving stack and the LM on
        # asr_offline) reports 0.
        listed = json.loads((ROOT / "BENCHMARK.json").read_text())
        for metric in listed["per_layer"]:
            result["metrics"].setdefault(metric["name"], (0.0, metric["unit"]))
    # Whatever the workload started must be gone by now.
    leftovers = harness.descendants(os.getpid())
    harness.check_teardown(
        gate, {pid: harness.start_ticks(pid) for pid in leftovers},
        shm_before, set(), grace_s=5.0)

    outcome = gate.snapshot()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "gate": outcome,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
        "report": result["report"],
        "details": result["details"],
        "environment": harness.environment_record(load_before, ticks_before),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))

    attempted, failed = outcome["attempted"], gate.failed
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in result["report"].items():
        print(f"  {name:28s} {value:14.4f} {unit}")
    print(f"  {'failed_pct':28s} {100.0 * failed / max(1, attempted):14.4f}"
          f"   ({failed} of {attempted} ops; {outcome['mismatches']} "
          f"mismatched, {outcome['errors']} errors, {outcome['leaks']} "
          "leaks)")
    for example in outcome["examples"]:
        print(f"  failure: {example}")
    for name, entry in record["metrics"].items():
        print(f"  {name:34s} {entry['value']:14.4f} {entry['unit']}")
    env = record["environment"]
    print(f"  environment: nproc={env['nproc']} blas={env['blas']} "
          f"threads={env['blas_threads']} python={env['python']} "
          f"numpy={env['numpy']} load={env['loadavg_before']}"
          f"->{env['loadavg_after']} steal={env['steal_pct']:.1f}%")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
