"""Command-line interface: run the survey's experiments without writing code.

Usage::

    python -m repro.cli list
    python -m repro.cli survey                 # the E14 comparison table
    python -m repro.cli overhead aegis mixed   # one engine, one workload
    python -m repro.cli attack --memory 512    # Kuhn attack demo
    python -m repro.cli protocol               # Figure-1 walkthrough
    python -m repro.cli area                   # gate counts for all engines
    python -m repro.cli bench --quick          # the full E01-E19 suite
    python -m repro.cli trace e02              # one experiment's event trace
    python -m repro.cli faults integrity-stream # fault-injection campaigns
    python -m repro.cli campaign --engines stream xom  # design-space sweep
    python -m repro.cli serve --port 7205      # simulation-as-a-service
    python -m repro.cli stream xom dma-burst --accesses 1000000
                                               # chunk-streamed execution

Engine construction goes through the registry (:mod:`repro.core.registry`);
``bench`` drives the parallel experiment runner (:mod:`repro.runner`) and
writes machine-readable metrics JSON; ``campaign`` drives the sharded
design-space coordinator (:mod:`repro.campaign`).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .analysis import format_gates, format_percent, format_table
from .api import (attack_summary, engine_overhead, engine_overheads,
                  trace_experiment)
from .attacks import rate_engine
from .core import run_distribution
from .core.registry import engine_names, list_engines, make_engine
from .crypto import DRBG
from .traces import LONG_HORIZON_NAMES, MCU_KERNELS, WORKLOAD_NAMES


def cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for name, spec in list_engines(survey_only=not args.all):
        engine = make_engine(name)
        # Wrapper engines (integrity/Merkle/scrambling) are rated by their
        # inner confidentiality engine.
        rated = getattr(engine, "inner", engine)
        try:
            withstands = rate_engine(rated.name).highest_class_withstood
        except KeyError:
            withstands = None
        rows.append([
            name, spec.section,
            withstands or "none",
            spec.summary,
        ])
    print(format_table(
        ["engine", "survey section", "class withstood", "summary"],
        rows, title="Engines",
    ))
    print()
    print("Workloads:", ", ".join(WORKLOAD_NAMES))
    print("Long-horizon (streaming):", ", ".join(LONG_HORIZON_NAMES))
    print("MCU kernels:", ", ".join(f"mcu-{k}" for k in MCU_KERNELS))
    return 0


def cmd_overhead(args: argparse.Namespace) -> int:
    if args.engine not in engine_names():
        print(f"unknown engine {args.engine!r}; see `list`", file=sys.stderr)
        return 2
    # An unknown workload name or a degenerate trace parameter (zero
    # accesses, an out-of-range probability) is an operator mistake:
    # one line on stderr and exit 2, never a traceback.
    try:
        result = engine_overhead(
            args.engine, args.workload, accesses=args.accesses,
            cache_size=args.cache, mem_latency=args.latency,
        )
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else type(exc).__name__
        print(f"overhead: {message}", file=sys.stderr)
        return 2
    print(format_table(
        ["metric", "value"],
        [
            ["engine", args.engine],
            ["workload", args.workload],
            ["accesses", result.secured.accesses],
            ["baseline miss rate", f"{result.baseline.miss_rate:.1%}"],
            ["baseline cycles", result.baseline.cycles],
            ["secured cycles", result.secured.cycles],
            ["bus transactions", result.secured.bus_transactions],
            ["bytes enciphered", result.secured.bytes_enciphered],
            ["overhead", format_percent(result.overhead)],
        ],
        title="Overhead measurement",
    ))
    return 0


def cmd_survey(args: argparse.Namespace) -> int:
    names = engine_names(survey_only=True)
    try:
        results = engine_overheads(names, "mixed", accesses=args.accesses)
    except ValueError as exc:
        message = exc.args[0] if exc.args else type(exc).__name__
        print(f"survey: {message}", file=sys.stderr)
        return 2
    rows = []
    for name, result in zip(names, results):
        engine = make_engine(name)
        rating = rate_engine(engine.name)
        rows.append([
            name, format_percent(result.overhead),
            format_gates(engine.area().total),
            rating.highest_class_withstood or "none",
        ])
    print(format_table(
        ["engine", "mixed overhead", "area", "withstands class"],
        rows, title="The survey, measured (mixed workload)",
    ))
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    # A memory size the board or the dump gadget cannot take is an
    # operator mistake: one line on stderr and exit 2.
    try:
        summary = attack_summary(memory=args.memory, seed=args.seed,
                                 verbose=not args.quiet)
    except ValueError as exc:
        message = exc.args[0] if exc.args else type(exc).__name__
        print(f"attack: {message}", file=sys.stderr)
        return 2
    print(format_table(
        ["result", "value"],
        [
            ["bytes recovered",
             f"{summary['bytes_recovered']}/{summary['memory_bytes']}"],
            ["probe runs", summary["probe_runs"]],
            ["ambiguous cells", summary["ambiguous_cells"]],
        ],
        title="Cipher Instruction Search",
    ))
    return 0 if summary["fully_recovered"] else 1


def cmd_protocol(args: argparse.Namespace) -> int:
    software = DRBG(args.seed).random_bytes(args.size)
    processor, eve, session_key = run_distribution(
        software, seed=args.seed, key_bits=args.key_bits,
    )
    print(format_table(
        ["check", "value"],
        [
            ["session key established",
             processor._session_key == session_key],
            ["eavesdropper saw K", eve.saw(session_key)],
            ["eavesdropper saw software", eve.saw(software[:16])],
            ["messages observed", len(eve.transcript)],
            ["bytes observed", eve.total_bytes],
        ],
        title="Figure-1 distribution protocol",
    ))
    return 0


def cmd_area(args: argparse.Namespace) -> int:
    for name in engine_names(survey_only=True):
        print(make_engine(name).area())
        print()
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .runner import ExperimentRunner, to_canonical_json
    from .runner.experiments import EXPERIMENTS

    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    experiments = args.experiments or sorted(EXPERIMENTS)
    unknown = [e for e in experiments if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}; "
              f"known: {', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
        return 2

    progress = (lambda line: print(f"  {line}", flush=True)) \
        if args.verbose else None
    runner = ExperimentRunner(
        experiments=experiments,
        workers=args.workers,
        quick=args.quick,
        cache_dir=None if args.no_cache else Path(args.cache_dir),
        render=args.tables,
        observe=not args.no_obs,
        progress=progress,
    )
    result = runner.run()

    if args.tables:
        for exp_id in experiments:
            if exp_id in result.renders:
                print()
                print(result.renders[exp_id])

    out = Path(args.out)
    out.write_text(result.metrics_json(), encoding="utf-8")
    profile_path = out.with_name(out.stem + "_profile.json")
    profile_path.write_text(to_canonical_json(result.profile),
                            encoding="utf-8")

    checks = {
        exp_id: doc["checks"]
        for exp_id, doc in result.metrics["experiments"].items()
    }
    failed = sorted(e for e, c in checks.items() if c["passed"] is False)
    print(f"bench: {len(checks)} experiments, "
          f"{sum(1 for c in checks.values() if c['passed'])} checks passed"
          f", wall {result.profile['wall_seconds']}s"
          f" (cache hits {result.profile['cache']['hits']})")
    print(f"bench: metrics -> {out}, profile -> {profile_path}")
    if failed:
        for exp_id in failed:
            print(f"bench: CHECK FAILED {exp_id}: {checks[exp_id]['error']}",
                  file=sys.stderr)
        return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .serve import ExperimentServer

    if args.workers < 0:
        print(f"--workers must be >= 0, got {args.workers}", file=sys.stderr)
        return 2

    async def _serve() -> dict:
        server = ExperimentServer(
            host=args.host,
            port=args.port,
            workers=args.workers,
            max_pending=args.max_pending,
            idle_timeout=args.idle_timeout,
            cache_dir=None if args.no_cache else Path(args.cache_dir),
            log=(lambda line: print(f"serve: {line}", flush=True)),
        )
        await server.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(
                sig, lambda: asyncio.ensure_future(server.stop(drain=True)))
        await server.serve_forever()
        return server.stats_document()

    stats = asyncio.run(_serve())
    counters = stats["counters"]
    print(f"serve: {counters['connections']} connections, "
          f"{counters['requests']} requests "
          f"({counters['responses']} responses, {counters['errors']} errors"
          f", {counters['overloaded']} overloaded), "
          f"{counters['executed']} executions, "
          f"dedup joins {stats['dedup']['joins']}")
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    import time

    from .api import run_stream

    engine = None if args.engine in (None, "", "baseline") else args.engine
    try:
        start = time.perf_counter()
        doc = run_stream(
            engine=engine, workload=args.workload, accesses=args.accesses,
            chunk_size=args.chunk_size, seed=args.seed,
        )
        wall = time.perf_counter() - start
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else type(exc).__name__
        print(f"stream: {message}", file=sys.stderr)
        return 2
    metrics = doc["metrics"]
    rate = args.accesses / wall if wall else 0.0
    print(format_table(
        ["metric", "value"],
        [
            ["engine", doc["engine"]],
            ["workload", doc["workload"]],
            ["accesses", metrics["accesses"]],
            ["chunk size", doc["chunk_size"] or "whole trace"],
            ["cycles", metrics["cycles"]],
            ["cache hit rate", f"{metrics['cache_hit_rate']:.1%}"],
            ["bus transactions", metrics["bus_transactions"]],
            ["bytes enciphered", metrics["bytes_enciphered"]],
            ["wall seconds", f"{wall:.2f}"],
            ["accesses/sec", f"{rate:,.0f}"],
        ],
        title="Chunk-streamed execution",
    ))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from .runner.experiments import EXPERIMENTS

    if args.experiment not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; "
              f"known: {', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
        return 2

    summary = trace_experiment(
        args.experiment, quick=not args.full, max_events=args.max_events,
    )

    if args.jsonl:
        from .obs import JsonlSink, replay
        with JsonlSink(args.jsonl) as sink:
            replay(summary.events, sink)
        print(f"trace: {len(summary.events)} events -> {args.jsonl}")

    shown = summary.events[: args.limit] if args.limit else summary.events
    for event in shown:
        parts = [f"{event.kind:16s}"]
        if event.addr:
            parts.append(f"addr={event.addr:#08x}")
        if event.size:
            parts.append(f"size={event.size}")
        if event.cycle:
            parts.append(f"cycle={event.cycle}")
        if event.detail:
            parts.append(f"({event.detail})")
        print("  " + " ".join(parts))
    hidden = len(summary.events) - len(shown)
    if hidden or summary.dropped:
        print(f"  ... {hidden + summary.dropped} more events not shown")

    print()
    print(summary.format())
    print()
    totals = summary.totals
    print(f"trace: {summary.total_events} events, "
          f"{totals['bus_transactions']} bus transactions, "
          f"{totals['lines_enciphered']} cipher ops, "
          f"checks {'passed' if summary.result.passed else 'FAILED'}")
    return 0 if summary.result.passed else 1


def cmd_faults(args: argparse.Namespace) -> int:
    from .api import fault_campaign
    from .attacks import attack_class_required
    from .faults import FAULT_KINDS, campaign_labels

    labels = campaign_labels()
    if args.engine == "all":
        selected = labels
    elif args.engine in labels:
        selected = [args.engine]
    else:
        print(f"unknown campaign label {args.engine!r}; known: "
              f"{', '.join(labels)} (or 'all')", file=sys.stderr)
        return 2
    kinds = [None] + [k for k in FAULT_KINDS
                      if not args.kinds or k in args.kinds]

    rows = []
    all_conform = True
    for label in selected:
        for result in fault_campaign(label, kinds, seed=args.seed,
                                     quick=not args.full):
            all_conform = all_conform and result.conforms
            attacker = ("-" if result.kind is None else
                        f"class {int(attack_class_required(result.kind))}")
            rows.append([
                result.label, result.kind or "baseline", attacker,
                result.verdict,
                "yes" if result.expected_detect else "no",
                "yes" if result.conforms else "NO",
            ])
    print(format_table(
        ["engine", "attack", "adversary", "verdict", "claims detect",
         "conforms"],
        rows, title="Fault-injection campaigns (active-attack matrix)",
    ))
    conforming = sum(1 for row in rows if row[-1] == "yes")
    print(f"faults: {conforming}/{len(rows)} campaigns conform")
    return 0 if all_conform else 1


def cmd_campaign(args: argparse.Namespace) -> int:
    import json

    from .api import run_campaign
    from .campaign import CampaignSpec
    from .runner import to_canonical_json

    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    # A degenerate grid (empty axis, unknown field, unreadable or invalid
    # spec file) is an operator mistake: report it as one line, never as
    # a traceback.
    try:
        if args.spec:
            doc = json.loads(Path(args.spec).read_text(encoding="utf-8"))
            if not isinstance(doc, dict):
                raise ValueError(
                    f"campaign spec {args.spec} must be a JSON object"
                )
            # Inline axis flags override the spec file's values.
            overrides = {
                "kind": args.kind, "engines": args.engines,
                "workloads": args.workloads, "accesses": args.accesses,
                "cache_sizes": args.cache_sizes,
                "line_sizes": args.line_sizes,
                "associativities": args.associativities,
                "latencies": args.latencies, "seeds": args.seeds,
                "fault_kinds": args.fault_kinds,
            }
            doc.update({k: v for k, v in overrides.items() if v})
            spec = CampaignSpec.from_dict(doc)
        else:
            spec = CampaignSpec(
                kind=args.kind or "overhead",
                engines=tuple(args.engines or ("stream",)),
                workloads=tuple(args.workloads or ("mixed",)),
                accesses=tuple(args.accesses or (256,)),
                cache_sizes=tuple(args.cache_sizes or (4096,)),
                line_sizes=tuple(args.line_sizes or (32,)),
                associativities=tuple(args.associativities or (2,)),
                latencies=tuple(args.latencies or (40,)),
                seeds=tuple(args.seeds or (2005,)),
                fault_kinds=tuple(args.fault_kinds) if args.fault_kinds
                else (None,),
            )
        spec.validate()
    except (KeyError, OSError, TypeError, ValueError) as exc:
        message = str(exc) or type(exc).__name__
        print(f"campaign: {message}", file=sys.stderr)
        return 2

    progress = (lambda line: print(f"  {line}", flush=True)) \
        if args.verbose else None
    try:
        result = run_campaign(
            spec,
            workers=args.workers,
            shards=args.shards,
            cache_dir=None if args.no_cache else Path(args.cache_dir),
            progress=progress,
        )
    except (KeyError, ValueError) as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        return 2

    out = Path(args.out)
    out.write_text(result.metrics_json(), encoding="utf-8")
    profile_path = out.with_name(out.stem + "_profile.json")
    profile_path.write_text(to_canonical_json(result.profile),
                            encoding="utf-8")

    profile = result.profile
    print(f"campaign: {profile['points']} points "
          f"({result.executed} executed, {result.cached} cached) in "
          f"{profile['wall_seconds']}s — {result.tasks_per_second} tasks/s "
          f"on {profile['workers']} worker(s), {profile['shards']} shard(s)")
    if spec.kind == "overhead":
        rows = [
            [engine, stats["points"],
             format_percent(stats["mean_overhead"]),
             format_percent(stats["max_overhead"])]
            for engine, stats in result.summary["by_engine"].items()
        ]
        print(format_table(
            ["engine", "points", "mean overhead", "max overhead"],
            rows, title="Campaign summary",
        ))
    else:
        summary = result.summary
        print(f"campaign: {summary['conforming']}/{summary['points']} "
              f"fault points conform; verdicts: "
              + ", ".join(f"{v}={n}" for v, n in
                          summary["verdicts"].items()))
    print(f"campaign: metrics -> {out}, profile -> {profile_path}")
    return 0


def seed_type(text: str) -> int:
    """The argparse type of every ``--seed``: an int the DRBG accepts."""
    try:
        seed = int(text)
        DRBG(seed)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}: {exc}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bus-encryption engines: the DATE 2005 survey, runnable.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list engines and workloads")
    p.add_argument("--all", action="store_true",
                   help="include extension/wrapper engines")

    p = sub.add_parser("overhead", help="measure one engine on one workload")
    p.add_argument("engine", help="engine name (see `list`)")
    p.add_argument(
        "workload", nargs="?", default="mixed",
        help="workload name (see `list`); unknown names exit 2 with the "
             "known list on stderr",
    )
    p.add_argument("--accesses", type=int, default=4000)
    p.add_argument("--cache", type=int, default=4096)
    p.add_argument("--latency", type=int, default=40)

    p = sub.add_parser("survey", help="the full engine comparison table")
    p.add_argument("--accesses", type=int, default=4000)

    p = sub.add_parser("attack", help="run the Kuhn attack demo")
    p.add_argument("--memory", type=int, default=512)
    p.add_argument("--seed", type=seed_type, default=2005)
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("protocol", help="run the Figure-1 key exchange")
    p.add_argument("--size", type=int, default=2048)
    p.add_argument("--seed", type=seed_type, default=2005)
    p.add_argument("--key-bits", type=int, default=512)

    sub.add_parser("area", help="gate-count estimates for all engines")

    p = sub.add_parser(
        "bench",
        help="run the E01-E19 experiment suite, write metrics JSON",
    )
    p.add_argument("--experiments", nargs="*", metavar="EXP",
                   help="experiment ids (default: all)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (metrics are identical for any "
                        "count)")
    p.add_argument("--quick", action="store_true",
                   help="scaled-down traces, sub-minute full suite")
    p.add_argument("--out", default="BENCH_metrics.json",
                   help="metrics JSON path (profile JSON lands next to it)")
    p.add_argument("--cache-dir", default=".bench_cache",
                   help="on-disk result cache directory")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the result cache")
    p.add_argument("--tables", action="store_true",
                   help="also print each experiment's human-readable tables")
    p.add_argument("--no-obs", action="store_true",
                   help="skip event-counter aggregation (omits the "
                        "observability sections from the metrics JSON)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print per-task progress lines")

    p = sub.add_parser(
        "faults",
        help="run fault-injection campaigns against an engine "
             "(or 'all' for the full matrix)",
    )
    p.add_argument("engine",
                   help="campaign label (see `list --all`), or 'all'")
    p.add_argument("--kinds", nargs="*", metavar="KIND",
                   choices=("spoof", "splice", "replay", "glitch"),
                   help="fault classes to run (default: all four + "
                        "baseline)")
    p.add_argument("--seed", type=seed_type, default=2005)
    p.add_argument("--full", action="store_true",
                   help="full-size campaign sweeps (default: quick)")

    p = sub.add_parser(
        "campaign",
        help="run a sharded, resumable design-space sweep "
             "(engine x workload x cache geometry x latency grid)",
    )
    p.add_argument("--spec", metavar="PATH",
                   help="JSON campaign spec (inline axis flags override "
                        "its fields)")
    p.add_argument("--kind", choices=("overhead", "faults"),
                   help="point family (default: overhead)")
    p.add_argument("--engines", nargs="*", metavar="ENGINE",
                   help="engine names (faults: campaign labels)")
    p.add_argument("--workloads", nargs="*", metavar="NAME")
    p.add_argument("--accesses", nargs="*", type=int, metavar="N")
    p.add_argument("--cache-sizes", nargs="*", type=int, metavar="BYTES")
    p.add_argument("--line-sizes", nargs="*", type=int, metavar="BYTES")
    p.add_argument("--associativities", nargs="*", type=int, metavar="WAYS")
    p.add_argument("--latencies", nargs="*", type=int, metavar="CYCLES")
    p.add_argument("--seeds", nargs="*", type=seed_type, metavar="SEED")
    p.add_argument("--fault-kinds", nargs="*", metavar="KIND",
                   choices=("spoof", "splice", "replay", "glitch"),
                   help="fault classes for --kind faults")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (metrics are identical for any "
                        "count)")
    p.add_argument("--shards", type=int, default=None,
                   help="key-space partitions (default: one per worker)")
    p.add_argument("--out", default="BENCH_campaign_metrics.json",
                   help="metrics JSON path (profile JSON lands next to it)")
    p.add_argument("--cache-dir", default=".bench_campaign_cache",
                   help="on-disk result cache (enables resume after an "
                        "interrupt)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the result cache (and resume)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print per-point progress lines")

    p = sub.add_parser(
        "serve",
        help="serve experiments and campaigns over the framed "
             "socket protocol (see repro.serve)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7205,
                   help="listen port (0 = ephemeral; the actual port is "
                        "printed at startup)")
    p.add_argument("--workers", type=int, default=2,
                   help="fork-pool worker processes (0 = execute "
                        "in-process on a thread)")
    p.add_argument("--max-pending", type=int, default=64,
                   help="admission bound: queued-or-running executions "
                        "beyond this get explicit overloaded frames")
    p.add_argument("--idle-timeout", type=float, default=30.0,
                   help="seconds before an idle connection is dropped")
    p.add_argument("--cache-dir", default=".bench_serve_cache",
                   help="on-disk result cache (completed requests and "
                        "campaign points; enables resume)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the result cache")

    p = sub.add_parser(
        "stream",
        help="run a chunk-streamed workload in bounded memory "
             "(long-horizon generators: phased, multi-tenant, dma-burst)",
    )
    p.add_argument("engine", nargs="?", default=None,
                   help="engine name, or 'baseline'/omitted for the "
                        "plaintext baseline")
    p.add_argument("workload", nargs="?", default="mixed",
                   help="workload name (named suite, long-horizon "
                        "generators, or mcu-<kernel>)")
    p.add_argument("--accesses", type=int, default=200_000)
    p.add_argument("--chunk-size", type=int, default=65536,
                   help="accesses per executed chunk (0 = materialize "
                        "the whole trace; metrics are identical)")
    p.add_argument("--seed", type=seed_type, default=2005)

    p = sub.add_parser(
        "trace",
        help="run one experiment recording its event stream",
    )
    p.add_argument("experiment", help="experiment id (e.g. e02)")
    p.add_argument("--full", action="store_true",
                   help="full-size traces (default: quick)")
    p.add_argument("--limit", type=int, default=40,
                   help="events to print (0 = all recorded)")
    p.add_argument("--max-events", type=int, default=10000,
                   help="events to record verbatim before dropping")
    p.add_argument("--jsonl", metavar="PATH",
                   help="also dump recorded events as JSON lines")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": cmd_list,
        "overhead": cmd_overhead,
        "survey": cmd_survey,
        "attack": cmd_attack,
        "protocol": cmd_protocol,
        "area": cmd_area,
        "bench": cmd_bench,
        "campaign": cmd_campaign,
        "serve": cmd_serve,
        "stream": cmd_stream,
        "trace": cmd_trace,
        "faults": cmd_faults,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
