"""Command-line interface: ``python -m repro <command>``.

Subcommands:

``report``
    Build a world, run both measurement systems, print the full study
    report (the §5/§6 analyses).
``export``
    Run a study and write its derived datasets (RSDoS feed records,
    prefix2AS, AS2Org, anycast census, open-resolver scan) to a
    directory in the library's text formats.
``case``
    Replay one of the scripted case studies (``transip`` or ``russia``)
    and print its timeline tables.
``visibility``
    Print the §4.3 limitations quantified against ground truth.
``cache``
    Inspect and maintain an artifact cache directory: ``ls`` the
    manifest, ``gc`` down to a byte cap, or ``clear`` everything.
``packs``
    List the registered scenario packs (:mod:`repro.attacks.packs`):
    ``packs ls`` prints each pack's name and description. Study
    commands select one with ``--scenario-pack``; unknown names are
    rejected with the list of available packs.
``graph``
    Print the declared phase DAG (:mod:`repro.engine`) — every
    pipeline phase and lazy analysis with its inputs — as text or,
    with ``--dot``, in Graphviz DOT form; ``--from-journal PATH``
    annotates the DOT nodes with last-run phase durations taken from a
    run journal.
``obs``
    The observability toolbox (:mod:`repro.obs.cli`): ``summary`` and
    ``tail`` digest a run journal or telemetry snapshot, ``diff``
    compares two snapshots, ``bench-diff`` compares fresh
    ``BENCH_*.json`` benchmark results against the committed
    baselines and flags regressions.
``serve``
    Build (or incrementally refresh) a day-sharded measurement store
    in an artifact cache and serve study queries over HTTP/JSON
    (:mod:`repro.serve`): impact of an attack on a domain, per-NSSet
    time slices, top-N tables, event lookups. ``--build-only`` stops
    after the incremental build; ``--plan`` prints the per-day
    compute/reuse plan as JSON without running anything;
    ``--edit-day``/``--edit-scale`` rescale one day's attacks to
    demonstrate single-day invalidation.
``reactive``
    Drive the production-rate reactive platform
    (:mod:`repro.reactive`) over a synthetic trigger storm: admission
    control, backpressure, and — with ``--chaos`` — worker kills
    recovered exactly-once from checkpoints. The stdout summary is
    byte-identical with chaos on or off (that is the point); kill and
    restore counts go to stderr.

Every subcommand accepts ``--trace`` (print the phase-timing tree to
stderr afterwards), ``--metrics-out PATH`` (write the run's
``repro.obs/v2`` telemetry snapshot as JSON), ``--journal PATH``
(append the structured run journal, JSONL) and ``--profile``
(per-phase CPU/RSS/allocation gauges). All of them only observe:
stdout is byte-identical with or without them.

Every study-running subcommand also accepts ``--cache-dir PATH``: phase
outputs (telescope feed, crawl store, join, events) are cached there by
config fingerprint, and later runs with the same config skip those
phases — with bit-identical stdout (see ``docs/caching.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import ChaosConfig, WorldConfig, run_study
from repro.attacks.packs import UnknownPackError
from repro.core.visibility import analyze_visibility
from repro.datasets.io import dataset_bundle_dump
from repro.obs import NULL_TELEMETRY, RunTelemetry
from repro.util.tables import Table, format_pct


def _add_world_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--domains", type=int, default=8000,
                        help="registered domains (default 8000)")
    parser.add_argument("--attacks-per-month", type=int, default=1200)
    parser.add_argument("--start", default="2020-11-01")
    parser.add_argument("--end", default="2022-04-01",
                        help="end date, exclusive")
    parser.add_argument("--scenario-pack", default="volumetric",
                        metavar="NAME",
                        help="run under scenario pack NAME (see `repro "
                             "packs ls`; default volumetric = the plain "
                             "background schedule)")
    parser.add_argument("--chaos", choices=("light", "moderate", "heavy"),
                        default=None, metavar="LEVEL",
                        help="inject seeded faults at LEVEL "
                             "(light/moderate/heavy) and run the "
                             "hardened pipeline")
    parser.add_argument("--chaos-seed", type=int, default=0,
                        help="fault-schedule seed (default 0; independent "
                             "of the world --seed)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="accepted for compatibility: the crawl is "
                             "serial, and N other than 1 warns and "
                             "changes nothing (default 1)")
    _add_cache_args(parser)


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", metavar="PATH", default=None,
                        help="cache phase outputs under PATH (created if "
                             "missing) and skip phases already cached for "
                             "this config; outputs are bit-identical warm "
                             "or cold, and chaos runs use it only for the "
                             "phases no fault reaches")


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", action="store_true",
                        help="record phase spans and print the "
                             "phase-timing tree (stderr) after the "
                             "command; outputs are unchanged")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the run's telemetry snapshot "
                             "(repro.obs/v2 JSON: metrics + spans) to "
                             "PATH")
    parser.add_argument("--journal", metavar="PATH", default=None,
                        help="write the structured run journal (JSONL: "
                             "phases, cache traffic, faults, worker "
                             "lifecycle) to PATH; stdout is unchanged")
    parser.add_argument("--profile", action="store_true",
                        help="record per-phase CPU, peak-RSS and "
                             "allocation gauges (repro.profile.*); "
                             "outputs are unchanged")


def _telemetry_from(args: argparse.Namespace) -> RunTelemetry:
    """An enabled bundle when any telemetry flag is set, else the no-op
    one (whose clock is still real, so wall-time prints keep working).

    ``--journal`` opens the journal here — attached to the bundle
    rather than handed to ``run_study`` to own — so commands that keep
    observing after the pipeline returns (lazy report analyses, the
    reactive drain) land in the same file; :func:`_emit_telemetry`
    closes it.
    """
    if (getattr(args, "trace", False) or getattr(args, "metrics_out", None)
            or getattr(args, "journal", None)
            or getattr(args, "profile", False)):
        telemetry = RunTelemetry.create()
        path = getattr(args, "journal", None)
        if path:
            from repro.obs import RunJournal

            telemetry.attach_journal(RunJournal(
                path, run_id=telemetry.run_id, clock=telemetry.clock,
                started_at_utc=telemetry.started_at_utc))
        return telemetry
    return NULL_TELEMETRY


def _emit_telemetry(args: argparse.Namespace,
                    telemetry: RunTelemetry) -> None:
    """Print the trace tree / write the snapshot, as flags request.

    Everything goes to stderr or to the ``--metrics-out`` file: stdout
    stays byte-identical to a run without telemetry flags.
    """
    if getattr(args, "trace", False):
        tree = telemetry.render_trace()
        if tree:
            print(f"phase timings:\n{tree}", file=sys.stderr)
    path = getattr(args, "metrics_out", None)
    if path:
        telemetry.write_json(path)
        print(f"telemetry snapshot written to {path}", file=sys.stderr)
    journal = telemetry.journal
    if journal.enabled:
        journal.close()
        print(f"run journal written to {journal.path}", file=sys.stderr)


def _config_from(args: argparse.Namespace) -> WorldConfig:
    return WorldConfig(
        seed=args.seed,
        start=args.start,
        end_exclusive=args.end,
        n_domains=args.domains,
        attacks_per_month=args.attacks_per_month,
        scenario_pack=getattr(args, "scenario_pack", "volumetric"),
    )


def _run(args: argparse.Namespace):
    config = _config_from(args)
    chaos = None
    if getattr(args, "chaos", None):
        chaos = ChaosConfig.preset(args.chaos, seed=args.chaos_seed)
        print(f"chaos enabled ({args.chaos}, seed {args.chaos_seed}):\n"
              f"{chaos.describe()}", file=sys.stderr)
    print(f"running study {config.start} .. {config.end_exclusive} "
          f"({config.n_domains} domains, "
          f"{config.attacks_per_month} attacks/month)...", file=sys.stderr)
    # Wall time comes from the telemetry clock (monotonic even when the
    # bundle itself is the no-op one), so the ad-hoc "done in" line and
    # the --trace span tree measure on the same axis.
    telemetry = _telemetry_from(args)
    clock = telemetry.clock
    t0 = clock.now()
    study = run_study(config, chaos=chaos,
                      n_workers=getattr(args, "workers", 1),
                      telemetry=telemetry,
                      cache=getattr(args, "cache_dir", None),
                      journal=(telemetry.journal
                               if telemetry.journal.enabled else None),
                      profile=getattr(args, "profile", False))
    print(f"done in {clock.now() - t0:.1f}s", file=sys.stderr)
    if study.chaos is not None:
        print(study.chaos.summary(), file=sys.stderr)
        print(f"join rejected {len(study.join.rejected)} records; "
              f"{len(study.degraded_events)}/{len(study.events)} events "
              f"degraded; store rejected {study.store.n_rejected} rows",
              file=sys.stderr)
    return study


def cmd_report(args: argparse.Namespace) -> int:
    study = _run(args)
    print(study.report())
    _emit_telemetry(args, study.telemetry)
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    study = _run(args)
    with study.telemetry.tracer.span("export"):
        dataset_bundle_dump(
            args.output,
            feed=study.feed,
            prefix2as=study.world.prefix2as,
            as2org=study.world.as2org,
            census=study.world.census,
            openresolvers=study.open_resolvers,
        )
    print(f"datasets written to {args.output}/", file=sys.stderr)
    _emit_telemetry(args, study.telemetry)
    return 0


def cmd_case(args: argparse.Namespace) -> int:
    script = {"transip": "transip_case_study",
              "russia": "russian_infrastructure"}[args.name]
    # The case scripts live in examples/; execute them in-process.
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "examples",
        f"{script}.py")
    if not os.path.exists(path):
        print(f"case script not found: {path}", file=sys.stderr)
        return 1
    telemetry = _telemetry_from(args)
    spec = importlib.util.spec_from_file_location(script, path)
    module = importlib.util.module_from_spec(spec)
    with telemetry.tracer.span(f"case.{args.name}"):
        with telemetry.tracer.span("load"):
            spec.loader.exec_module(module)
        with telemetry.tracer.span("run"):
            status = module.main()
    _emit_telemetry(args, telemetry)
    return status


def cmd_visibility(args: argparse.Namespace) -> int:
    study = _run(args)
    with study.telemetry.tracer.span("visibility"):
        report = analyze_visibility(study.world.attacks, study.feed)
    table = Table(["attack class", "detected", "total", "rate"],
                  title="Telescope visibility (§4.3 oracle)")
    for name, (detected, total) in sorted(report.by_class.items()):
        table.add_row([name, detected, total,
                       format_pct(detected / total if total else 0.0)])
    print(table.render())
    if report.multivector_underestimate is not None:
        print(f"\nmulti-vector rate seen: "
              f"{report.multivector_underestimate:.0%} of truth")
    _emit_telemetry(args, study.telemetry)
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.artifacts.store import ArtifactStore

    if not args.cache_dir:
        print("cache commands require --cache-dir", file=sys.stderr)
        return 2
    store = ArtifactStore(args.cache_dir)
    if args.action == "ls":
        # Stable listing order (by key) so two `ls` runs over the same
        # cache are byte-identical regardless of manifest insert order.
        entries = sorted(store.entries(), key=lambda e: e.key)
        if getattr(args, "json", False):
            import json

            print(json.dumps({
                "dir": args.cache_dir,
                "n_entries": len(entries),
                "total_bytes": store.total_bytes,
                "entries": [
                    {"key": entry.key, "phase": entry.phase or None,
                     "size": entry.size, "created": entry.created,
                     "last_used": entry.last_used}
                    for entry in entries
                ],
            }, sort_keys=True, indent=2))
            return 0
        table = Table(["key", "phase", "size (B)", "size", "created",
                       "last used"],
                      title=f"Artifact cache {args.cache_dir} "
                            f"({len(entries)} entries, "
                            f"{store.total_bytes} bytes)")
        for entry in entries:
            table.add_row([entry.key[:16], entry.phase or "-", entry.size,
                           _format_size(entry.size),
                           _format_ts(entry.created),
                           _format_ts(entry.last_used)])
        print(table.render())
        return 0
    if args.action == "gc":
        if args.max_bytes is None:
            print("cache gc requires --max-bytes", file=sys.stderr)
            return 2
        evicted = store.gc(args.max_bytes)
        freed = sum(e.size for e in evicted)
        print(f"evicted {len(evicted)} entries ({freed} bytes); "
              f"{len(store)} remain ({store.total_bytes} bytes)")
        return 0
    if args.action == "clear":
        dropped = store.clear()
        print(f"cleared {dropped} entries from {args.cache_dir}")
        return 0
    raise AssertionError(f"unknown cache action {args.action!r}")


def cmd_packs(args: argparse.Namespace) -> int:
    from repro.attacks.packs import available_packs, get_pack

    # Only `ls` today; argparse enforces the choice.
    table = Table(["pack", "description"],
                  title="Registered scenario packs")
    for name in available_packs():
        pack = get_pack(name)
        table.add_row([name + (" (default)" if name == "volumetric"
                               else ""),
                       pack.description])
    table.caption = ("select one with --scenario-pack NAME on report/"
                     "export/visibility runs")
    print(table.render())
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    from repro.core.pipeline import study_graph

    graph = study_graph(analyses=not args.no_analyses)
    durations = None
    if args.from_journal:
        from repro.obs.journal import phase_durations

        durations = phase_durations(args.from_journal)
    print(graph.to_dot(durations=durations) if args.dot
          else graph.render_text())
    return 0


def cmd_reactive(args: argparse.Namespace) -> int:
    from repro import build_world
    from repro.chaos.injector import FaultInjector
    from repro.reactive import (
        ReactiveService,
        fast_transport,
        synthetic_triggers,
    )
    from repro.util.timeutil import HOUR

    config = WorldConfig(
        seed=args.seed,
        start=args.start,
        end_exclusive=args.end,
        n_domains=args.domains,
        n_selfhosted_providers=max(10, args.domains // 30),
        n_filler_providers=max(5, args.domains // 75),
        attacks_per_month=120,
    )
    telemetry = _telemetry_from(args)
    injector = None
    if args.chaos:
        chaos = ChaosConfig.reactive_preset(args.chaos, seed=args.chaos_seed)
        injector = FaultInjector(chaos, telemetry=telemetry)
        print(f"chaos enabled ({args.chaos}, seed {args.chaos_seed}):\n"
              f"{chaos.describe()}", file=sys.stderr)
    clock = telemetry.clock
    t0 = clock.now()
    print(f"building world ({config.n_domains} domains)...", file=sys.stderr)
    world = build_world(config)
    triggers = synthetic_triggers(world, args.triggers,
                                  seed=args.trigger_seed,
                                  invalid_share=args.invalid_share)
    service = ReactiveService(
        world,
        probes_per_window=args.probes_per_window,
        post_attack_s=int(args.post_attack_hours * HOUR),
        probe_budget=args.probe_budget,
        feed_capacity=args.capacity,
        backpressure=args.backpressure,
        transport=fast_transport(seed=config.seed),
        telemetry=telemetry)
    print(f"running {len(triggers)} triggers...", file=sys.stderr)
    report = service.run(triggers, injector=injector)
    print(f"done in {clock.now() - t0:.1f}s", file=sys.stderr)
    # stdout carries only the deterministic summary: a --chaos run must
    # byte-match a clean one (exactly-once recovery); the chaos side
    # goes to stderr.
    print(report.summary())
    print(report.chaos_summary(), file=sys.stderr)
    if injector is not None and injector.counts:
        faults = ", ".join(
            f"{surface}.{kind}={n}"
            for (surface, kind), n in sorted(injector.counts.items()))
        print(f"faults injected: {faults}", file=sys.stderr)
    _emit_telemetry(args, telemetry)
    return 0


def _format_ts(ts: float) -> str:
    import datetime

    if not ts:
        return "-"
    return datetime.datetime.fromtimestamp(ts).strftime("%Y-%m-%d %H:%M:%S")


def _format_size(n: int) -> str:
    """``n`` bytes, human-readable (1536 -> ``1.5 KiB``)."""
    if n < 1024:
        return f"{n} B"
    value = float(n)
    for unit in ("KiB", "MiB", "GiB"):
        value /= 1024.0
        if value < 1024:
            return f"{value:.1f} {unit}"
    return f"{value / 1024.0:.1f} TiB"


def cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.serve import (
        QueryService,
        ShardedStudyStore,
        run_server,
        scale_attacks_on_day,
    )
    from repro.util.timeutil import parse_ts

    if not args.cache_dir:
        print("serve requires --cache-dir", file=sys.stderr)
        return 2
    config = _config_from(args)
    telemetry = _telemetry_from(args)
    if telemetry is NULL_TELEMETRY:
        # /metrics is the server's own observability surface: it must be
        # live even when no --metrics-out/--trace flag was passed.
        telemetry = RunTelemetry.create()
    edit = None
    if args.edit_day:
        day = parse_ts(args.edit_day)
        factor = args.edit_scale

        def edit(attacks):
            return scale_attacks_on_day(attacks, day, factor)

    store = ShardedStudyStore(config, args.cache_dir, telemetry=telemetry,
                              edit=edit)
    if args.plan:
        print(json.dumps([plan.to_doc() for plan in store.plan()],
                         sort_keys=True, indent=2))
        _emit_telemetry(args, telemetry)
        return 0
    clock = telemetry.clock
    t0 = clock.now()
    print(f"building shard store in {args.cache_dir} "
          f"({config.start} .. {config.end_exclusive}, "
          f"{config.n_domains} domains)...", file=sys.stderr)
    report = store.build()
    print(f"built in {clock.now() - t0:.1f}s", file=sys.stderr)
    print(report.summary())
    if args.build_only:
        _emit_telemetry(args, telemetry)
        return 0
    service = QueryService(store, telemetry=telemetry)
    run_server(service, host=args.host, port=args.port)
    _emit_telemetry(args, telemetry)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Investigating the impact of DDoS "
                    "attacks on DNS infrastructure' (IMC 2022)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="run a study, print the report")
    _add_world_args(p_report)
    _add_obs_args(p_report)
    p_report.set_defaults(func=cmd_report)

    p_export = sub.add_parser("export", help="export derived datasets")
    _add_world_args(p_export)
    _add_obs_args(p_export)
    p_export.add_argument("--output", default="./repro-datasets",
                          help="output directory")
    p_export.set_defaults(func=cmd_export)

    p_case = sub.add_parser("case", help="replay a scripted case study")
    p_case.add_argument("name", choices=("transip", "russia"))
    _add_obs_args(p_case)
    p_case.set_defaults(func=cmd_case)

    p_vis = sub.add_parser("visibility",
                           help="quantify telescope blind spots (§4.3)")
    _add_world_args(p_vis)
    _add_obs_args(p_vis)
    p_vis.set_defaults(func=cmd_visibility)

    p_cache = sub.add_parser("cache",
                             help="inspect/maintain an artifact cache")
    p_cache.add_argument("action", choices=("ls", "gc", "clear"))
    _add_cache_args(p_cache)
    p_cache.add_argument("--max-bytes", type=int, default=None, metavar="N",
                         help="gc: evict least-recently-used entries until "
                              "the cache fits N bytes")
    p_cache.add_argument("--json", action="store_true",
                         help="ls: print the listing as JSON (full keys, "
                              "sorted, machine-readable)")
    p_cache.set_defaults(func=cmd_cache)

    p_serve = sub.add_parser(
        "serve",
        help="serve study queries from a sharded measurement store")
    p_serve.add_argument("--seed", type=int, default=42)
    p_serve.add_argument("--domains", type=int, default=2000,
                         help="registered domains (default 2000)")
    p_serve.add_argument("--attacks-per-month", type=int, default=400)
    p_serve.add_argument("--start", default="2021-03-01")
    p_serve.add_argument("--end", default="2021-04-01",
                         help="end date, exclusive")
    p_serve.add_argument("--cache-dir", metavar="PATH", required=True,
                         help="the shard store: day-partitioned phase "
                              "outputs cached under PATH by per-day "
                              "fingerprint keys; rebuilds recompute only "
                              "days whose inputs changed")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080,
                         help="listen port (0 picks a free one)")
    p_serve.add_argument("--build-only", action="store_true",
                         help="build/refresh the shard store and exit "
                              "without starting the HTTP server")
    p_serve.add_argument("--plan", action="store_true",
                         help="print the per-day compute/reuse plan as "
                              "JSON and exit without running anything")
    p_serve.add_argument("--edit-day", metavar="DATE", default=None,
                         help="rescale the attacks starting on DATE "
                              "(YYYY-MM-DD) before building, to exercise "
                              "single-day invalidation")
    p_serve.add_argument("--edit-scale", type=float, default=2.0,
                         metavar="FACTOR",
                         help="pps factor applied by --edit-day "
                              "(default 2.0)")
    _add_obs_args(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_reactive = sub.add_parser(
        "reactive",
        help="drive the production-rate reactive platform")
    p_reactive.add_argument("--seed", type=int, default=42)
    p_reactive.add_argument("--domains", type=int, default=600,
                            help="registered domains (default 600)")
    p_reactive.add_argument("--start", default="2021-03-01")
    p_reactive.add_argument("--end", default="2021-04-01",
                            help="end date, exclusive")
    p_reactive.add_argument("--triggers", type=int, default=200, metavar="N",
                            help="synthetic attack triggers to replay "
                                 "(default 200)")
    p_reactive.add_argument("--trigger-seed", type=int, default=0,
                            help="trigger-storm seed (independent of the "
                                 "world --seed)")
    p_reactive.add_argument("--invalid-share", type=float, default=0.02,
                            help="share of triggers damaged to exercise "
                                 "the invalid-trigger path (default 0.02)")
    p_reactive.add_argument("--probes-per-window", type=int, default=10,
                            metavar="N",
                            help="domains probed per campaign per 5-minute "
                                 "window (paper: 50; default 10)")
    p_reactive.add_argument("--probe-budget", type=int, default=100,
                            metavar="N",
                            help="global domain-probes per window across "
                                 "all campaigns; overflow waits, throttles, "
                                 "or sheds — loudly (default 100)")
    p_reactive.add_argument("--post-attack-hours", type=float, default=2.0,
                            help="probing tail after each attack ends "
                                 "(paper: 24h; default 2 for quick runs)")
    p_reactive.add_argument("--capacity", type=int, default=None, metavar="N",
                            help="bound the trigger topic to N records "
                                 "(default unbounded)")
    p_reactive.add_argument("--backpressure",
                            choices=("block", "shed_oldest"),
                            default="block",
                            help="bounded-topic overflow policy "
                                 "(default block)")
    p_reactive.add_argument("--chaos",
                            choices=("light", "moderate", "heavy"),
                            default=None, metavar="LEVEL",
                            help="kill the worker with per-tick probability "
                                 "by LEVEL; recovery restores from the last "
                                 "checkpoint and stdout stays byte-identical")
    p_reactive.add_argument("--chaos-seed", type=int, default=0,
                            help="kill-schedule seed (default 0)")
    _add_obs_args(p_reactive)
    p_reactive.set_defaults(func=cmd_reactive)

    p_packs = sub.add_parser("packs",
                             help="list the registered scenario packs")
    p_packs.add_argument("action", choices=("ls",))
    p_packs.set_defaults(func=cmd_packs)

    p_graph = sub.add_parser("graph",
                             help="print the declared phase DAG")
    p_graph.add_argument("--dot", action="store_true",
                         help="emit Graphviz DOT instead of text")
    p_graph.add_argument("--no-analyses", action="store_true",
                         help="pipeline phases only, without the lazy "
                              "analysis.* nodes")
    p_graph.add_argument("--from-journal", metavar="PATH", default=None,
                         dest="from_journal",
                         help="annotate --dot nodes with last-run phase "
                              "durations read from a run journal")
    p_graph.set_defaults(func=cmd_graph)

    from repro.obs.cli import add_obs_parser

    add_obs_parser(sub)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnknownPackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
