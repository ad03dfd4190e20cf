"""Command-line interface: a thin argparse skin over :mod:`repro.api`.

Every spec-taking subcommand builds one fluent :class:`repro.api.Design`
from the flags and calls the matching facade verb, so the CLI, the
examples, and programmatic callers share a single implementation (and the
``price``/``codegen`` paths share the process-wide build cache).

Subcommands map onto the paper's workflow:

* ``fit-check``  — Phase I Step One: BRAM sanity check for a spec/platform.
* ``bounds``     — Phase I block-size bounds (BRAM lower, Fig. 8 upper).
* ``price``      — Phase II hardware sizing: latency / FPS / power report.
* ``codegen``    — run the HLS flow and write the generated C source.
* ``explore``    — parallel design-space sweep with Pareto/top-k reports.
* ``bench``      — run the performance suites, emit ``BENCH_*.json``.
* ``table3``     — regenerate the paper's headline comparison table.
* ``fig8``       — print the multiplication-count curves.
* ``lint``       — static analysis of the project invariants (REP001-REP003, REP005, REP006).

Examples::

    repro price --cell lstm --layers 1024 --block 8 \\
        --projection 512 --peephole --platform XCKU060
    repro codegen --cell gru --layers 1024 --block 16 -o cu.c
    repro explore --layers 1024 --peephole --projection 512 \\
        --sweep-blocks 4 8 16 --sweep-bits 8 12 16 --mode thread
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from repro.api import CELL_REGISTRY
from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.api import Design

__all__ = ["build_parser", "main"]


def _design_from_args(args: argparse.Namespace) -> Design:
    from repro.api import Design

    design = Design.cell(args.cell, *args.layers)
    if args.block is not None:
        design = design.blocks(args.block)
    return (
        design.io(args.input_size, args.output_size)
        .io_block(args.io_block)
        .peephole(args.peephole)
        .project(args.projection)
        .on(args.platform)
        .bits(args.bits)
    )


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cell", choices=CELL_REGISTRY.names(), default="lstm",
        help="registered RNN cell type (default: lstm)",
    )
    parser.add_argument(
        "--layers", type=int, nargs="+", default=[1024],
        help="hidden sizes, one per layer (default: 1024)",
    )
    parser.add_argument("--block", type=int, default=None,
                        help="uniform circulant block size (default: dense)")
    parser.add_argument("--io-block", type=int, default=None,
                        help="coarser block size for input/output matrices")
    parser.add_argument("--input-size", type=int, default=153)
    parser.add_argument("--output-size", type=int, default=39)
    parser.add_argument("--projection", type=int, default=None)
    parser.add_argument("--peephole", action="store_true")
    parser.add_argument(
        "--platform", default="XCKU060",
        help="registered FPGA platform or alias (default: XCKU060)",
    )
    parser.add_argument("--bits", type=int, default=12)


def _add_runtime_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.runtime import BACKEND_REGISTRY

    parser.add_argument(
        "--backend", choices=BACKEND_REGISTRY.names(), default="fixed",
        help="inference backend (default: fixed — the CU emulation)",
    )
    parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="saved model checkpoint to compile; default: a "
             "deterministically-initialized model from the spec flags",
    )
    parser.add_argument("--frames", type=int, default=64,
                        help="frames per stream (default: 64)")
    parser.add_argument("--seed", type=int, default=0,
                        help="feature-synthesis seed (default: 0)")


def _cmd_fit_check(args: argparse.Namespace) -> int:
    report = _design_from_args(args).fit_check()
    print(report.describe())
    return 0 if report.fits else 1


def _cmd_bounds(args: argparse.Namespace) -> int:
    report = _design_from_args(args).bounds()
    if not report.feasible:
        print(report.describe(), file=sys.stderr)
        return 1
    print(report.describe())
    return 0


def _cmd_price(args: argparse.Namespace) -> int:
    design = _design_from_args(args)
    priced = design.price()
    utilization = ", ".join(
        f"{k.upper()} {100 * v:.1f}%" for k, v in priced.utilization.items()
    )
    print(f"{priced.spec.describe()} on {args.platform} "
          f"@ {priced.accel.clock_mhz:.0f} MHz:")
    print(f"  {priced.num_pes} PEs in {priced.num_cus} CUs "
          f"({priced.pes_per_cu} per CU)")
    print(f"  latency {priced.latency_us:.2f} us/frame, {priced.fps:,.0f} FPS")
    print(f"  power {priced.power_watts:.1f} W "
          f"({priced.energy_efficiency:,.0f} FPS/W)")
    print(f"  utilization: {utilization}")
    return 0


def _cmd_codegen(args: argparse.Namespace) -> int:
    result = _design_from_args(args).codegen(args.output)
    summary = result.summary()
    print(f"wrote {args.output} ({summary['code_lines']:.0f} lines)")
    print(f"  {summary['num_ops']:.0f} ops in {summary['num_stages']:.0f} "
          f"CGPipe stages, {summary['frame_cycles']:.0f} cycles/frame "
          f"({summary['latency_us']:.2f} us)")
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.api import PLATFORM_REGISTRY, DiskCache, Engine, Sweep

    base = _design_from_args(args)
    platforms = args.sweep_platforms or list(PLATFORM_REGISTRY.names())
    sweep = Sweep(base).over(
        blocks=args.sweep_blocks,
        bits=args.sweep_bits,
        platform=platforms,
    )
    if args.random is not None:
        sweep = sweep.random(args.random, seed=args.seed)

    engine = None
    if not args.no_cache:
        # Engine itself honours the REPRO_NO_CACHE kill switch.
        engine = Engine(disk=DiskCache(root=args.cache_dir, namespace="engine"))
    result = sweep.run(mode=args.mode, workers=args.workers, engine=engine)

    if args.format == "json":
        text = result.to_json()
    elif args.format == "csv":
        text = result.to_csv()
    else:
        objectives = [o for o in args.objectives.split(",") if o]
        text = result.describe(args.top, stats=True)
        if objectives != ["per_proxy", "latency_us"]:
            front = result.pareto(objectives)
            if front:
                text += (
                    f"\n  Pareto frontier ({' vs '.join(objectives)}): "
                    + ", ".join(f"[{p.index}] {p.label()}" for p in front)
                )
    if args.output:
        from pathlib import Path

        if not text.endswith("\n"):
            text += "\n"
        Path(args.output).write_text(text)
        print(f"wrote {args.output} ({len(result)} candidates)")
    else:
        print(text)
    return 0 if result.ok() else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import benchmark_names, run_benchmarks, write_result

    if args.compare:
        from repro.bench.compare import compare_files

        old_path, new_path = args.compare
        thresholds = ({} if args.threshold is None
                      else {"timing_threshold": args.threshold})
        report = compare_files(old_path, new_path, **thresholds)
        print(report.format())
        return 0 if report.ok else 1
    if args.list:
        for name in benchmark_names():
            print(name)
        return 0
    results = run_benchmarks(args.only or None, quick=args.quick)
    for result in results:
        print(result.describe())
        if not args.no_json:
            path = write_result(result, args.out_dir)
            print(f"  wrote {path}")
    return 0


def _compiled_from_args(args: argparse.Namespace):
    """Build a :class:`repro.runtime.CompiledModel` from run/serve flags."""
    from repro import runtime

    if args.checkpoint:
        from pathlib import Path

        from repro.errors import ConfigError
        from repro.nn.serialization import load_model

        if not Path(args.checkpoint).is_file():
            raise ConfigError(f"checkpoint {args.checkpoint} does not exist")
        source = load_model(args.checkpoint)
    else:
        source = _design_from_args(args)
    return runtime.compile(source, backend=args.backend, weight_bits=args.bits)


def _cmd_run(args: argparse.Namespace) -> int:
    import time

    import numpy as np

    compiled = _compiled_from_args(args)
    print(compiled.describe())
    rng = np.random.default_rng(args.seed)
    features = rng.standard_normal(
        (args.frames, args.batch, compiled.input_size)
    )
    start = time.perf_counter()
    if args.stream:
        session = compiled.session(batch_size=args.batch)
        logits = np.stack([session.push(frame) for frame in features])
        mode = "streamed (frame-by-frame session)"
    else:
        logits = compiled.run(features)
        mode = "batched run"
    elapsed = time.perf_counter() - start
    total = args.frames * args.batch
    print(
        f"{mode}: {args.frames} frames x batch {args.batch} -> "
        f"logits {logits.shape}"
    )
    print(
        f"  {elapsed * 1e3:.2f} ms total, "
        f"{elapsed / args.frames * 1e3:.3f} ms/frame, "
        f"{total / elapsed:,.0f} frames/s"
    )
    print(f"  logits checksum {float(np.sum(logits)):+.6e}")
    return 0


def _drill_plan(args: argparse.Namespace):
    """The artifact a selftest serves and the drill plan that gates it."""
    from repro.runtime import drills

    if args.lm:
        compiled, vocab = drills.lm_fixture_artifact(args.backend, args.bits)
        return drills.LmPlan(compiled, vocab, args.sessions, args.frames)
    return drills.AsrPlan(_compiled_from_args(args), args.sessions,
                          args.frames, args.seed)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.runtime import drills

    if args.port is not None:
        return _cmd_serve_net(args)
    if args.lm:
        print("--lm needs network serving: add --port (and --selftest)",
              file=sys.stderr)
        return 2

    plan = _drill_plan(args)
    print(plan.compiled.describe())
    with plan.compiled.serve(max_batch=args.max_batch) as server:
        # Without --selftest this is the load demo: the same soak, no gate.
        code = drills.run_drill(drills.in_process_target(server), plan,
                                selftest=args.selftest)
        stats = server.stats()
    if code == 0:
        print(f"  {stats.describe()}")
    return code


def _cmd_serve_net(args: argparse.Namespace) -> int:
    """Network serving mode: repro serve --port ... [--selftest]."""
    from repro.runtime import drills
    from repro.runtime.net import Client, NetServer

    if args.chaos and not args.selftest:
        print("--chaos only makes sense with --selftest", file=sys.stderr)
        return 2
    if args.lm and not args.selftest:
        print("--lm is a selftest mode (add --selftest)", file=sys.stderr)
        return 2
    faults = list(args.fault or [])
    if args.chaos and not faults:
        # Default chaos: every worker SIGKILLs itself once, staggered so
        # the restarts do not all land in the same instant.
        faults = [
            f"kill:worker={index},after={4 + 3 * index}"
            for index in range(args.workers)
        ]
    plan = _drill_plan(args)
    print(plan.compiled.describe())
    server = NetServer(
        plan.compiled,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        max_protocol=args.wire,
        spawn_timeout_s=args.spawn_timeout,
        restart_budget=args.restart_budget,
        heartbeat_timeout_s=args.heartbeat_timeout or None,
        session_ttl_s=args.session_ttl,
        session_cap=args.session_cap,
        faults=faults or None,
        fault_log=args.fault_log,
    )
    server.start()
    host, port = server.address
    print(
        f"serving on {host}:{port} with {args.workers} worker process(es) "
        f"(max_batch {args.max_batch}, queue_limit {args.queue_limit}, "
        f"wire <= v{server.max_protocol})"
    )
    if faults:
        print(f"fault injection armed: {', '.join(faults)}")

    if not args.selftest:
        print("press Ctrl-C (or send SIGTERM) to drain and stop")
        try:
            server.serve_forever()
        finally:
            server.close()
        print("drained; bye")
        return 0

    try:
        evidence = [drills.WorkerFaults(server)] if args.chaos else []
        code = drills.run_drill(drills.net_target(server, args.wire), plan,
                                evidence)
        if code == 0:
            with Client(host, port) as client:
                for entry in client.stats():
                    if not entry.get("ok", True):
                        print(f"  worker {entry.get('worker')}: "
                              f"{entry.get('error')}")
                        continue
                    stats = entry["stats"]
                    print(
                        f"  worker {entry['worker']}: {stats['frames']} "
                        f"frames in {stats['batches']} batches "
                        f"(mean {stats['mean_coalesced']:.2f} rows)"
                    )
        return code
    finally:
        server.close()


def _cmd_gateway(args: argparse.Namespace) -> int:
    """Cluster tier: front N NetServer backends behind one endpoint."""
    from repro.runtime import drills
    from repro.runtime.cluster import BackendFleet, Gateway
    from repro.runtime.net import Client

    if (args.chaos or args.drain) and not args.selftest:
        print("--chaos/--drain only make sense with --selftest",
              file=sys.stderr)
        return 2
    if args.lm and not args.selftest:
        print("--lm is a selftest mode (add --selftest)", file=sys.stderr)
        return 2
    if args.backends and (args.selftest or args.chaos or args.drain):
        print(
            "--selftest needs locally spawned backends (drop --backends): "
            "the byte-identity baseline comes from the local model, and "
            "chaos kills local processes",
            file=sys.stderr,
        )
        return 2
    if args.chaos and args.drain and args.count < 3:
        print("--chaos with --drain removes two backends; use --count >= 3",
              file=sys.stderr)
        return 2

    fleet = None
    if args.backends:
        backend_keys = [part.strip() for part in args.backends.split(",")
                        if part.strip()]
    else:
        plan = _drill_plan(args)
        print(plan.compiled.describe())
        fleet = BackendFleet(
            plan.compiled,
            count=args.count,
            workers=args.workers,
            queue_limit=args.queue_limit,
            max_protocol=args.wire,
        )
        fleet.start()
        backend_keys = fleet.keys
        print(f"spawned {args.count} local backend(s): "
              + ", ".join(backend_keys))

    gateway = Gateway(
        backend_keys,
        host=args.host,
        port=args.port or 0,
        probe_interval_s=args.probe_interval,
        down_after=args.down_after,
    )
    try:
        gateway.start()
        host, port = gateway.address
        print(
            f"gateway on {host}:{port} fronting {len(backend_keys)} "
            f"backend(s) (consistent-hash ring, probe every "
            f"{args.probe_interval:g}s, down after {args.down_after} misses)"
        )

        if not args.selftest:
            print("press Ctrl-C (or send SIGTERM) to stop the gateway")
            gateway.serve_forever()
            print("gateway stopped; bye")
            return 0

        # The kill fires first, while every stream is still in flight.
        kill = drills.BackendKill(gateway, fleet) if args.chaos else None
        evidence = [kill] if kill else []
        if args.drain:
            evidence.append(drills.Drain(gateway, fleet, kill))
        code = drills.run_drill(drills.gateway_target(gateway, args.wire),
                                plan, evidence)
        if code == 0:
            with Client(host, port, timeout=120) as admin:
                for entry in admin.cluster_health()["backends"]:
                    print(f"  backend {entry['backend']}: state "
                          f"{entry['state']}, {entry['sessions_placed']} "
                          "session(s) placed")
        return code
    finally:
        gateway.close()
        if fleet is not None:
            fleet.close()


def _cmd_generate(args: argparse.Namespace) -> int:
    """Sample seeded text from a char-LM: train locally or dial a server."""
    from repro.errors import ReproError
    from repro.lm import CharVocab

    if args.steps < 1:
        print("--steps must be at least 1", file=sys.stderr)
        return 2

    if args.connect:
        from repro.runtime.net import Client

        host, sep, port_text = args.connect.rpartition(":")
        if not sep or not host or not port_text.isdigit():
            print(f"--connect wants HOST:PORT, got {args.connect!r}",
                  file=sys.stderr)
            return 2
        try:
            with Client(host, int(port_text)) as client:
                if client.workload != "lm":
                    print(
                        f"server at {args.connect} serves workload "
                        f"{client.workload!r}, not a language model",
                        file=sys.stderr,
                    )
                    return 1
                if client.vocab_chars is None:
                    print(
                        f"server at {args.connect} has no vocabulary in its "
                        "hello; it cannot decode text prompts",
                        file=sys.stderr,
                    )
                    return 1
                vocab = CharVocab(client.vocab_chars)
                prompt_text = args.prompt or vocab.chars[0]
                prompt = vocab.encode(prompt_text)
                session = client.session(f"cli-generate-{args.seed}")
                tokens = session.generate(
                    prompt.tolist(), steps=args.steps,
                    temperature=args.temperature, top_k=args.top_k,
                    seed=args.seed,
                )
                session.close()
        except ReproError as error:
            print(f"generate failed: {error}", file=sys.stderr)
            return 1
        print(f"# {len(tokens)} tokens from {args.connect} "
              f"(seed {args.seed}, temperature {args.temperature:g}, "
              f"top_k {args.top_k})")
        print(prompt_text + vocab.decode(tokens))
        return 0

    from pathlib import Path

    from repro import runtime
    from repro.lm import DEMO_TEXT, LMTrainConfig, build_char_lm, train_char_lm

    if args.corpus:
        corpus_path = Path(args.corpus)
        if not corpus_path.is_file():
            print(f"corpus {args.corpus} does not exist", file=sys.stderr)
            return 2
        text = corpus_path.read_text(encoding="utf-8")
    else:
        text = DEMO_TEXT
    try:
        vocab = CharVocab.from_text(text)
        model = build_char_lm(
            vocab.size,
            layer_sizes=tuple(args.layers),
            cell_type=args.cell,
            block_sizes=(args.block,) * len(args.layers) if args.block else (),
            seed=args.train_seed,
        )
        history = train_char_lm(
            model, vocab.encode(text),
            LMTrainConfig(epochs=args.epochs, seed=args.train_seed),
        )
        compiled = runtime.compile(
            model, backend=args.backend, weight_bits=args.bits,
            workload="lm", vocab=vocab,
        )
        print(compiled.describe())
        print(
            f"trained {args.epochs} epoch(s) on {len(text)} chars "
            f"(vocab {vocab.size}): final loss {history.final_loss:.4f}, "
            f"{history.tokens_per_sec:,.0f} tokens/s"
        )
        prompt_text = args.prompt or text[:4]
        prompt = vocab.encode(prompt_text)
        tokens = runtime.Session(compiled).generate(
            prompt.tolist(), steps=args.steps,
            temperature=args.temperature, top_k=args.top_k, seed=args.seed,
        )
        print(f"# {len(tokens)} tokens (seed {args.seed}, temperature "
              f"{args.temperature:g}, top_k {args.top_k})")
        print(prompt_text + vocab.decode(tokens))
        if args.perplexity:
            perplexity = runtime.evaluate_perplexity(
                compiled, vocab.encode(text)
            )
            print(f"corpus perplexity: {perplexity:.4f} "
                  f"(backend {compiled.backend})")
    except ReproError as error:
        print(f"generate failed: {error}", file=sys.stderr)
        return 1
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.experiments.table3 import format_comparison, run_table3

    print(format_comparison(run_table3()))
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    from repro.experiments.fig8 import format_fig8, run_fig8

    print(format_fig8(run_fig8()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="E-RNN reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit-check", help="Phase-I BRAM sanity check")
    _add_spec_arguments(fit)
    fit.set_defaults(handler=_cmd_fit_check)

    bounds = sub.add_parser("bounds", help="Phase-I block-size bounds")
    _add_spec_arguments(bounds)
    bounds.set_defaults(handler=_cmd_bounds)

    price = sub.add_parser("price", help="Phase-II hardware sizing")
    _add_spec_arguments(price)
    price.set_defaults(handler=_cmd_price)

    codegen = sub.add_parser("codegen", help="run the HLS flow, emit C")
    _add_spec_arguments(codegen)
    codegen.add_argument("-o", "--output", default="ernn_cu.c")
    codegen.set_defaults(handler=_cmd_codegen)

    explore = sub.add_parser(
        "explore",
        help="parallel design-space sweep (Pareto frontier, top-k, reports)",
    )
    _add_spec_arguments(explore)
    explore.add_argument(
        "--sweep-blocks", type=int, nargs="+", default=[2, 4, 8, 16, 32],
        help="block-size axis (default: 2 4 8 16 32)",
    )
    explore.add_argument(
        "--sweep-bits", type=int, nargs="+", default=[8, 12, 16],
        help="fixed-point width axis (default: 8 12 16)",
    )
    explore.add_argument(
        "--sweep-platforms", nargs="+", default=None,
        help="platform axis (default: every registered platform)",
    )
    explore.add_argument(
        "--random", type=int, default=None, metavar="N",
        help="randomly subsample the grid to N candidates",
    )
    explore.add_argument("--seed", type=int, default=0,
                         help="seed for --random sampling (default: 0)")
    explore.add_argument(
        "--mode", choices=("serial", "thread", "process"), default="thread",
        help="evaluation strategy (default: thread)",
    )
    explore.add_argument("--workers", type=int, default=None,
                         help="pool size for thread/process modes")
    explore.add_argument(
        "--top", type=int, default=5, help="top-k rows in the text report"
    )
    explore.add_argument(
        "--objectives", default="per_proxy,latency_us",
        help="comma-separated Pareto objectives; prefix one with - to "
             "maximize it (default: per_proxy,latency_us)",
    )
    explore.add_argument(
        "--format", choices=("text", "csv", "json"), default="text",
    )
    explore.add_argument("-o", "--output", default=None,
                         help="write the report to a file instead of stdout")
    explore.add_argument(
        "--cache-dir", default=None,
        help="disk-cache root (default: REPRO_CACHE_DIR or ~/.cache/repro-ernn)",
    )
    explore.add_argument(
        "--no-cache", action="store_true",
        help="skip the persistent disk cache for this run",
    )
    explore.set_defaults(handler=_cmd_explore)

    run = sub.add_parser(
        "run",
        help="compile a model and run inference (batched or streaming)",
    )
    _add_spec_arguments(run)
    _add_runtime_arguments(run)
    run.add_argument(
        "--stream", action="store_true",
        help="push frames through a stateful session instead of one "
             "batched run (outputs are byte-identical either way)",
    )
    run.add_argument("--batch", type=int, default=1,
                     help="stream width B (default: 1)")
    # The fixed backend needs circulant weights: default run/serve demos to
    # the paper's block size instead of a dense spec.
    run.set_defaults(handler=_cmd_run, block=8)

    serve = sub.add_parser(
        "serve",
        help="serve a model: in-process demo, or over TCP with --port",
        description="Serve a model to concurrent sessions.  Both modes run "
                    "one round scheduler: each round steps the next row of "
                    "every busy session, oldest first, up to --max-batch "
                    "rows, in one backend call, with no wait for "
                    "stragglers.  Without --port the rounds run on one "
                    "thread of this process; with --port each worker "
                    "process runs them.",
    )
    _add_spec_arguments(serve)
    _add_runtime_arguments(serve)
    serve.add_argument("--sessions", type=int, default=8,
                       help="concurrent client sessions (default: 8)")
    serve.add_argument("--max-batch", type=int, default=16,
                       help="rows per round's backend call (default: 16)")
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address for network serving (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=None, metavar="PORT",
        help="serve over TCP on this port (0 = ephemeral); without --port "
             "the command runs the in-process thread demo",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="worker processes for network serving (default: 2)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=32,
        help="per-connection in-flight bound before busy replies "
             "(default: 32)",
    )
    serve.add_argument(
        "--wire", type=int, choices=(1, 2), default=2,
        help="highest wire protocol the server offers (and the selftest "
             "clients request): 2 = negotiated binary payload frames "
             "(default), 1 = NDJSON only",
    )
    serve.add_argument(
        "--spawn-timeout", type=float, default=120.0, metavar="SECONDS",
        help="how long each worker may take to load the artifact and "
             "report ready — initial spawns and supervised respawns alike "
             "(default: 120)",
    )
    serve.add_argument(
        "--restart-budget", type=int, default=3, metavar="N",
        help="supervised worker restarts allowed per worker per 60s "
             "window before the worker degrades and its shard answers "
             "errors (default: 3)",
    )
    serve.add_argument(
        "--heartbeat-timeout", type=float, default=10.0, metavar="SECONDS",
        help="a worker silent this long is presumed wedged, killed, and "
             "restarted; 0 disables the heartbeat (default: 10)",
    )
    serve.add_argument(
        "--session-ttl", type=float, default=None, metavar="SECONDS",
        help="evict sessions idle at least this long (default: no TTL)",
    )
    serve.add_argument(
        "--session-cap", type=int, default=None, metavar="N",
        help="per-worker session-table bound; a new open at the cap sheds "
             "the least-recently-used idle session (default: unbounded)",
    )
    serve.add_argument(
        "--fault", action="append", default=None, metavar="SPEC",
        help="arm a deterministic fault, e.g. kill:worker=1,after=5 or "
             "corrupt_slot:after=4 (repeatable; kinds: kill, stall, "
             "delay_publish, drop_publish, corrupt_slot)",
    )
    serve.add_argument(
        "--fault-log", default=None, metavar="PATH",
        help="append every supervision event (worker deaths, restarts, "
             "degradations) to this JSONL file",
    )
    serve.add_argument(
        "--selftest", action="store_true",
        help="verify backend conformance and that every served stream is "
             "byte-identical to its standalone run — over the wire when "
             "--port is given; non-zero exit on mismatch (used by CI)",
    )
    serve.add_argument(
        "--chaos", action="store_true",
        help="with --selftest: SIGKILL-grade faults are armed (defaults "
             "injected if no --fault is given) and the selftest asserts "
             "the streams survive worker deaths byte-identically via "
             "supervised restart + client reattach",
    )
    serve.add_argument(
        "--lm", action="store_true",
        help="with --port --selftest: serve the built-in fixture char-LM "
             "instead of the ASR spec and byte-gate seeded generation + "
             "scoring over the wire (composes with --chaos)",
    )
    serve.set_defaults(handler=_cmd_serve, block=8)

    gateway = sub.add_parser(
        "gateway",
        help="front a fleet of NetServer backends behind one consistent-"
             "hash endpoint (cluster tier)",
    )
    _add_spec_arguments(gateway)
    _add_runtime_arguments(gateway)
    gateway.add_argument(
        "--backends", default=None, metavar="HOST:PORT,...",
        help="comma-separated already-running backends to front; without "
             "this the command spawns --count local backends from the "
             "model flags",
    )
    gateway.add_argument(
        "--count", type=int, default=2,
        help="local backends to spawn when --backends is absent "
             "(default: 2)",
    )
    gateway.add_argument(
        "--host", default="127.0.0.1",
        help="gateway bind address (default: 127.0.0.1)",
    )
    gateway.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="gateway listen port (default: 0 = ephemeral)",
    )
    gateway.add_argument(
        "--workers", type=int, default=1,
        help="worker processes per spawned backend (default: 1)",
    )
    gateway.add_argument(
        "--queue-limit", type=int, default=32,
        help="per-connection in-flight bound on spawned backends "
             "(default: 32)",
    )
    gateway.add_argument(
        "--wire", type=int, choices=(1, 2), default=2,
        help="highest wire protocol the fleet offers (default: 2)",
    )
    gateway.add_argument(
        "--probe-interval", type=float, default=0.5, metavar="SECONDS",
        help="health-probe period per backend (default: 0.5)",
    )
    gateway.add_argument(
        "--down-after", type=int, default=3, metavar="N",
        help="consecutive probe misses before a backend is marked down "
             "and its sessions fail over (default: 3)",
    )
    gateway.add_argument(
        "--sessions", type=int, default=8,
        help="concurrent selftest client sessions (default: 8)",
    )
    gateway.add_argument(
        "--selftest", action="store_true",
        help="serve --sessions streams through the gateway and verify "
             "each is byte-identical to its standalone session; non-zero "
             "exit on mismatch (used by CI)",
    )
    gateway.add_argument(
        "--chaos", action="store_true",
        help="with --selftest: SIGKILL one whole backend mid-soak and "
             "assert every stream fails over byte-identically",
    )
    gateway.add_argument(
        "--drain", action="store_true",
        help="with --selftest: force-drain one backend mid-soak (rolling "
             "maintenance drill) and assert byte-identical migration",
    )
    gateway.add_argument(
        "--lm", action="store_true",
        help="with --selftest: front the built-in fixture char-LM and "
             "byte-gate seeded generation sessions through the cluster "
             "tier (composes with --chaos/--drain failover replay)",
    )
    gateway.set_defaults(handler=_cmd_gateway, block=8)

    generate = sub.add_parser(
        "generate",
        help="train (or connect to) a char-LM and sample seeded text",
    )
    generate.add_argument(
        "--corpus", default=None, metavar="PATH",
        help="UTF-8 text file to train on (default: the built-in demo "
             "corpus)",
    )
    generate.add_argument(
        "--prompt", default=None,
        help="seed text; every character must occur in the corpus "
             "(default: the corpus' first 4 characters)",
    )
    generate.add_argument("--steps", type=int, default=120,
                          help="tokens to sample (default: 120)")
    generate.add_argument(
        "--temperature", type=float, default=0.8,
        help="softmax temperature; <= 0 means greedy argmax (default: 0.8)",
    )
    generate.add_argument(
        "--top-k", type=int, default=5,
        help="sample only among the k most likely tokens; 0 = full "
             "distribution (default: 5)",
    )
    generate.add_argument("--seed", type=int, default=0,
                          help="sampling seed (default: 0)")
    generate.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="generate against a running LM server or gateway instead of "
             "training locally (the vocabulary comes from the hello)",
    )
    generate.add_argument(
        "--backend", default="fixed",
        help="inference backend for local generation (default: fixed)",
    )
    generate.add_argument("--bits", type=int, default=12)
    generate.add_argument(
        "--layers", type=int, nargs="+", default=[64],
        help="hidden sizes, one per layer (default: 64)",
    )
    generate.add_argument(
        "--cell", default="gru",
        help="registered RNN cell type (default: gru)",
    )
    generate.add_argument(
        "--block", type=int, default=4,
        help="circulant block size; 0 = dense (default: 4)",
    )
    generate.add_argument("--epochs", type=int, default=4,
                          help="training epochs (default: 4)")
    generate.add_argument("--train-seed", type=int, default=0,
                          help="init + batch-order seed (default: 0)")
    generate.add_argument(
        "--perplexity", action="store_true",
        help="also report the model's perplexity on its training corpus "
             "(local mode only)",
    )
    generate.set_defaults(handler=_cmd_generate)

    bench = sub.add_parser(
        "bench",
        help="run the performance suites and write BENCH_<name>.json artifacts",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="smoke-test sizes (seconds; CI uses this — timings are "
             "recorded but not asserted)",
    )
    bench.add_argument(
        "--only", nargs="+", default=None, metavar="NAME",
        help="run only the named suites (see --list)",
    )
    bench.add_argument("--list", action="store_true",
                       help="list registered suites and exit")
    bench.add_argument(
        "--out-dir", default=".",
        help="directory for BENCH_<name>.json artifacts (default: cwd)",
    )
    bench.add_argument("--no-json", action="store_true",
                       help="print results without writing artifacts")
    bench.add_argument(
        "--compare", nargs=2, metavar=("OLD.json", "NEW.json"), default=None,
        help="noise-aware diff of two BENCH_<name>.json artifacts instead "
             "of running suites; exits 1 on regression (timings are only "
             "judged when quick flags and CPU counts match — otherwise "
             "structural checks still apply)",
    )
    bench.add_argument(
        "--threshold", type=float, default=None,
        help="with --compare: relative timing slowdown allowed before the "
             "gate fails (default 0.30)",
    )
    bench.set_defaults(handler=_cmd_bench)

    table3 = sub.add_parser("table3", help="regenerate the Table III comparison")
    table3.set_defaults(handler=_cmd_table3)

    fig8 = sub.add_parser("fig8", help="print the Fig. 8 curves")
    fig8.set_defaults(handler=_cmd_fig8)

    from repro.analysis.cli import add_lint_parser, run_lint

    lint = add_lint_parser(sub)
    lint.set_defaults(handler=run_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
