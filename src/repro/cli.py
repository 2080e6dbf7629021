"""Command-line interface: ``python -m repro <command>``.

Commands
--------
list-workloads          the synthetic workload catalog
list-experiments        every reproducible table/figure
run EXPERIMENT... [--fast] [--parallel N] [--cache-dir DIR]
                 [--fault-plan FILE] [--no-fast-forward] [--trace FILE]
                 [--policy NAME]
                        regenerate tables/figures (``all`` = whole suite)
tournament [--fast] [--policies NAME ...] [--scenarios NAME ...]
           [--workers N] [--metrics FILE] [--report FILE]
                        run every power policy across the scenario matrix
simulate WORKLOAD [--trace FILE]
                        run a workload under the GreenDIMM daemon
fleet [--servers N] [--hours H] [--workers N] [--report FILE]
                        replay a sharded datacenter trace across servers
report METRICS [--trace FILE] [--out FILE] [--html]
                        render a metrics JSONL into a run report
figures run|check|bless [--fast] [--only ID] [--expected-dir DIR]
                        [--report-dir DIR]
                        regenerate every figure/table, write per-figure
                        REPORT.md files, and diff the numbers against the
                        committed expectations (check exits non-zero on
                        drift; bless re-pins after an intentional change)
faults storm|show       generate or inspect deterministic fault plans
serve [--servers N] [--workers N] [--port P] [--policy NAME] [--ksm]
                        keep a resident simulator fleet warm behind a
                        REST/JSON control plane, one process per worker
ctl <action> [...]      drive a running service: status, servers, workers,
                        ingest, advance, snapshot/restore, migrate,
                        fault, retune, reshard, shutdown
topology [--capacity]   show a platform's geometry and power envelope
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, Optional

from repro import __version__
from repro.analysis.report import Table
from repro.core.config import GreenDIMMConfig
from repro.core.system import GreenDIMMSystem
from repro.dram.address import AddressMapping
from repro.dram.organization import scaled_server_memory, spec_server_memory
from repro.errors import ReproError
from repro.power.model import DRAMPowerModel
from repro.sim.server import ServerSimulator
from repro.units import GIB, MIB
from repro.workloads.registry import all_profiles, profile_by_name


def _experiment_runners() -> Dict[str, Callable]:
    """Name -> run callable for every experiment module."""
    from repro.experiments.registry import runners

    return runners()


def cmd_list_workloads(_args: argparse.Namespace) -> int:
    table = Table("Workload catalog",
                  ["name", "suite", "peak footprint", "MPKI", "notes"])
    for name, profile in sorted(all_profiles().items()):
        notes = "latency-critical" if profile.latency_critical else (
            "memory-intensive" if profile.memory_intensive else "cpu-bound")
        table.add_row(name, profile.suite.value,
                      f"{profile.peak_footprint_bytes / GIB:.2f} GiB",
                      f"{profile.mpki:g}", notes)
    print(table.render())
    return 0


def cmd_list_experiments(_args: argparse.Namespace) -> int:
    from repro.analysis.paper import PAPER

    table = Table("Reproducible tables and figures", ["id", "description"])
    for name in _experiment_runners():
        key = name.replace("-", "_")
        description = PAPER.get(name, PAPER.get(key, {})).get(
            "description", "(extension beyond the paper)")
        table.add_row(name, description)
    print(table.render())
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis.aggregate import SuiteAggregator
    from repro.runner import (
        MetricsBus,
        ParallelRunner,
        ResultCache,
        suite_jobs,
    )

    runners = _experiment_runners()
    requested = args.experiments
    unknown = [n for n in requested if n != "all" and n not in runners]
    if unknown:
        print(f"unknown experiment {unknown[0]!r}; "
              f"try: {', '.join(runners)}", file=sys.stderr)
        return 2

    plan_json = None
    if args.fault_plan:
        from repro.faults import FaultPlan

        plan_json = FaultPlan.from_file(args.fault_plan).canonical()
    if args.policy:
        from repro.policies import policy_names

        if args.policy not in policy_names():
            print(f"unknown policy {args.policy!r}; "
                  f"try: {', '.join(policy_names())}", file=sys.stderr)
            return 2
    jobs = suite_jobs(requested, fast=args.fast, fault_plan=plan_json,
                      fast_forward=not args.no_fast_forward,
                      policy=args.policy)
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    metrics = MetricsBus(path=args.metrics)
    engine = ParallelRunner(workers=args.parallel, cache=cache,
                            metrics=metrics)
    aggregator = SuiteAggregator(canonical_order=list(runners))
    if args.trace:
        from repro.obs.tracer import trace_scope

        with trace_scope(True):
            outcomes = engine.run(jobs)
        _append_trace_events((o.account.get("trace") for o in outcomes),
                             args.trace)
    else:
        outcomes = engine.run(jobs)
    aggregator.extend(outcomes)

    for result in aggregator.results().values():
        print(result.render())
        print()
    if len(jobs) > 1 or aggregator.failures():
        print(aggregator.render())
    return 0 if not aggregator.failures() else 1


def _append_trace_events(snapshots, path: str) -> None:
    """Append the events of drained tracer *snapshots* to *path* as JSONL."""
    import json as _json
    import pathlib as _pathlib

    target = _pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with target.open("a") as handle:
        for snapshot in snapshots:
            for event in (snapshot or {}).get("events", []):
                handle.write(_json.dumps(event, sort_keys=True) + "\n")
                count += 1
    print(f"wrote {count} trace events to {path}")


def cmd_simulate(args: argparse.Namespace) -> int:
    profile = profile_by_name(args.workload)
    organization = (scaled_server_memory(args.capacity)
                    if args.capacity else spec_server_memory())
    config = GreenDIMMConfig(block_bytes=args.block_mb * MIB)
    fault_plan = None
    if args.fault_plan:
        from repro.faults import FaultPlan

        fault_plan = FaultPlan.from_file(args.fault_plan)
    system = GreenDIMMSystem(organization=organization, config=config,
                             fault_plan=fault_plan, seed=args.seed)
    simulator = ServerSimulator(system, seed=args.seed,
                                fast_forward=not args.no_fast_forward)
    if args.trace:
        from repro.obs.tracer import GLOBAL_TRACER, trace_scope

        with trace_scope(True):
            result = simulator.run_workload(profile, n_copies=args.copies)
        dumped = GLOBAL_TRACER.dump(args.trace)
        GLOBAL_TRACER.drain()
        print(f"wrote {dumped} trace events to {args.trace}")
    else:
        result = simulator.run_workload(profile, n_copies=args.copies)
    table = Table(f"{profile.name} on {organization.describe()}",
                  ["metric", "value"])
    table.add_row("off-lining events", result.offline_events)
    table.add_row("on-lining events", result.online_events)
    table.add_row("failures (EBUSY/EAGAIN)",
                  f"{result.ebusy_failures}/{result.eagain_failures}")
    table.add_row("mean offline blocks",
                  f"{result.mean_offline_blocks:.1f}/{system.mm.num_blocks}")
    table.add_row("DRAM energy saved", f"{result.dram_energy_saving:.1%}")
    table.add_row("execution-time overhead",
                  f"{result.overhead_fraction:.2%}")
    table.add_row("swap I/O pages", simulator.swap.stats.total_io_pages)
    fractions = result.residency.fractions()
    if fractions:
        table.add_row("state residencies",
                      ", ".join(f"{state}={share:.0%}"
                                for state, share in fractions.items()
                                if share > 0))
    if system.fault_injector is not None:
        stats = system.fault_injector.stats
        counts = ", ".join(f"{k}={v}" for k, v in
                           sorted(stats.as_dict().items())) or "none"
        table.add_row("injected faults", f"{stats.total} ({counts})")
    print(table.render())
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.figures import render_suite, run_suite

    runners = _experiment_runners()
    names = list(runners)
    if args.only:
        unknown = [n for n in args.only if n not in runners]
        if unknown:
            print(f"unknown experiment {unknown[0]!r}; "
                  f"try: {', '.join(runners)}", file=sys.stderr)
            return 2
        names = list(args.only)
    workers = args.workers
    if workers is None:
        workers = int(os.environ.get("GREENDIMM_FIGURES_WORKERS") or 1)
    suite = run_suite(names, action=args.action, fast=args.fast,
                      expected_dir=args.expected_dir,
                      report_dir=args.report_dir,
                      all_names=list(runners), workers=workers)
    print(render_suite(suite))
    for outcome in suite.outcomes:
        if outcome.report_path is not None:
            print(f"wrote {outcome.report_path}")
    if args.action == "check":
        return 0 if suite.passed else 1
    return 0 if not any(o.error for o in suite.outcomes) else 1


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.obs.tracer import GLOBAL_TRACER, trace_scope
    from repro.runner import MetricsBus
    from repro.sim.fleet import FleetSource, run_fleet

    source = FleetSource(num_servers=args.servers,
                         duration_s=args.hours * 3600.0, seed=args.seed)
    metrics = MetricsBus(path=args.metrics)
    trace_enabled = bool(args.trace or args.report)
    with trace_scope(trace_enabled):
        result = run_fleet(source, workers=args.workers, metrics=metrics)
    GLOBAL_TRACER.drain()
    if args.trace:
        # The per-server traces were drained into the job_end events by
        # the fan-out (that is how they survive pool workers); flatten
        # them back out for the standalone trace file.
        _append_trace_events(
            (e.get("trace") for e in metrics.events
             if e.get("event") == "job_end"), args.trace)

    table = Table(f"fleet replay: {args.servers} servers x "
                  f"{args.hours:g} h (seed {args.seed})",
                  ["metric", "value"])
    table.add_row("fleet DRAM energy saving",
                  f"{result.fleet_dram_energy_saving:.1%}")
    table.add_row("best / worst server saving",
                  f"{result.best_server_saving:.1%} / "
                  f"{result.worst_server_saving:.1%}")
    table.add_row("p95 peak offline blocks",
                  f"{result.p95_max_offline_blocks}"
                  f"/{result.total_blocks_per_server}")
    table.add_row("emergency on-linings", result.total_emergency_onlines)
    table.add_row("VM events",
                  sum(s.vm_events for s in result.servers))
    print(table.render())

    if args.report:
        from repro.obs.report import write_report

        target = write_report(
            metrics.events, args.report,
            title=f"GreenDIMM fleet run ({args.servers} servers)")
        print(f"wrote report to {target}")
    return 0


def cmd_tournament(args: argparse.Namespace) -> int:
    from repro.experiments.tournament import run as run_tournament
    from repro.runner import MetricsBus

    metrics = MetricsBus(path=args.metrics)
    result = run_tournament(fast=args.fast, policies=args.policies,
                            scenarios=args.scenarios,
                            workers=args.workers, metrics=metrics)
    print(result.render())
    if args.report:
        from repro.obs.report import write_report

        target = write_report(metrics.events, args.report,
                              title="GreenDIMM policy tournament")
        print(f"wrote report to {target}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    import pathlib

    from repro.obs.report import build_report, load_jsonl, markdown_to_html

    events = load_jsonl(args.metrics)
    trace_events = load_jsonl(args.trace) if args.trace else None
    title = args.title or "GreenDIMM run report"
    markdown = build_report(events, trace_events=trace_events, title=title)
    if args.out:
        target = pathlib.Path(args.out)
        target.parent.mkdir(parents=True, exist_ok=True)
        if args.html or target.suffix.lower() in (".html", ".htm"):
            target.write_text(markdown_to_html(markdown, title=title))
        else:
            target.write_text(markdown)
        print(f"wrote report to {target}")
    elif args.html:
        print(markdown_to_html(markdown, title=title))
    else:
        print(markdown)
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults import FaultPlan, storm_plan

    if args.action == "storm":
        plan = storm_plan(args.seed, intensity=args.intensity,
                          duration_s=args.duration, num_blocks=args.blocks,
                          name=args.name)
        if args.out:
            plan.save(args.out)
            print(f"wrote {len(plan.rules)} rules to {args.out} "
                  f"(plan {plan.name!r}, seed {plan.seed})")
        else:
            print(plan.canonical())
        return 0

    # action == "show": validate a plan file and summarize it.
    plan = FaultPlan.from_file(args.plan_file)
    table = Table(f"fault plan {plan.name!r} (seed {plan.seed})",
                  ["property", "value"])
    table.add_row("rules", len(plan.rules))
    by_kind: Dict[str, int] = {}
    sticky = 0
    targeted = 0
    horizon = 0.0
    for rule in plan.rules:
        key = f"{rule.op}:{rule.error}"
        by_kind[key] = by_kind.get(key, 0) + 1
        if rule.count < 0:
            sticky += 1
        if rule.target is not None:
            targeted += 1
        if rule.end_s != float("inf"):
            horizon = max(horizon, rule.end_s)
    for key in sorted(by_kind):
        table.add_row(f"  {key}", by_kind[key])
    table.add_row("targeted rules", targeted)
    table.add_row("sticky rules", sticky)
    table.add_row("horizon", f"{horizon:g} s" if horizon else "unbounded")
    print(table.render())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import FleetService, serve

    with FleetService(num_servers=args.servers, num_workers=args.workers,
                      policy=args.policy, seed=args.seed,
                      epoch_s=args.epoch, enable_ksm=args.ksm,
                      pinned_churn=args.churn) as service:
        try:
            asyncio.run(serve(service, host=args.host, port=args.port))
        except KeyboardInterrupt:
            print("repro service: interrupted, shutting down",
                  file=sys.stderr)
    return 0


def _parse_overrides(pairs: List[str]) -> Dict[str, object]:
    """``key=value`` pairs -> typed config overrides."""
    overrides: Dict[str, object] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ReproError(f"expected key=value, got {pair!r}")
        value: object
        if raw.lower() in ("true", "false"):
            value = raw.lower() == "true"
        else:
            try:
                value = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
        overrides[key] = value
    return overrides


def cmd_ctl(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from repro.service import ControlClient

    client = ControlClient(args.url)
    action = args.action
    if action == "status":
        result = client.status()
    elif action == "servers":
        result = client.servers()
    elif action == "workers":
        result = client.workers()
    elif action == "server":
        result = client.server(args.index)
    elif action == "events":
        result = client.events(args.index, limit=args.n)
    elif action == "ingest":
        result = client.ingest(vm_id=args.vm_id,
                               memory_bytes=int(args.memory_gib * GIB),
                               time_s=args.time,
                               lifetime_s=args.lifetime,
                               vcpus=args.vcpus, image_id=args.image)
    elif action == "depart":
        result = client.depart(args.vm_id, time_s=args.time)
    elif action == "advance":
        result = (client.advance(dt_s=args.dt) if args.dt is not None
                  else client.advance(until_s=args.until))
    elif action == "snapshot":
        blob = client.snapshot(args.index)
        pathlib.Path(args.out).write_bytes(blob)
        result = {"server": args.index, "out": args.out,
                  "bytes": len(blob)}
    elif action == "restore":
        blob = pathlib.Path(args.snapshot_file).read_bytes()
        result = client.restore(args.index, blob)
    elif action == "migrate":
        result = client.migrate(args.index, args.worker)
    elif action == "fault":
        plan = json.loads(pathlib.Path(args.plan_file).read_text())
        result = client.inject_fault_plan(args.index, plan)
    elif action == "retune":
        result = client.retune(_parse_overrides(args.overrides),
                               server=args.server)
    elif action == "reshard":
        result = client.reshard(args.workers)
    elif action == "shutdown":
        result = client.shutdown()
    else:  # pragma: no cover - argparse enforces choices
        raise ReproError(f"unknown ctl action {action!r}")
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_validate(_args: argparse.Namespace) -> int:
    from repro.validate import render_validation, run_validation

    results = run_validation()
    print(render_validation(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_topology(args: argparse.Namespace) -> int:
    organization = (scaled_server_memory(args.capacity)
                    if args.capacity else spec_server_memory())
    mapping = AddressMapping(organization)
    model = DRAMPowerModel(organization)
    idle = model.idle_power()
    busy = model.busy_power(14e9, active_residency=0.6)
    table = Table(organization.describe(), ["property", "value"])
    table.add_row("device", organization.device.name)
    table.add_row("ranks / banks", f"{organization.total_ranks} / "
                                   f"{organization.total_banks}")
    table.add_row("sub-array groups",
                  f"{organization.num_subarray_groups} x "
                  f"{organization.min_power_unit_bytes // MIB} MiB")
    table.add_row("groups contiguous", str(mapping.group_is_contiguous()))
    table.add_row("idle power", f"{idle.total_w:.1f} W")
    table.add_row("busy power (16x mcf)", f"{busy.total_w:.1f} W")
    table.add_row("background share (busy)",
                  f"{busy.background_fraction:.0%}")
    print(table.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GreenDIMM (MICRO 2021) reproduction toolkit")
    parser.add_argument("--version", action="version",
                        version=f"greendimm-repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-workloads").set_defaults(func=cmd_list_workloads)
    sub.add_parser("list-experiments").set_defaults(func=cmd_list_experiments)

    run_p = sub.add_parser(
        "run", help="regenerate tables/figures ('all' = whole suite)")
    run_p.add_argument("experiments", nargs="+", metavar="experiment")
    run_p.add_argument("--fast", action="store_true",
                       help="shrink trace lengths")
    run_p.add_argument("--parallel", type=int, default=1, metavar="N",
                       help="worker processes (1 = serial reference path)")
    run_p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="memoize results on disk, keyed by "
                            "(experiment, config, code version)")
    run_p.add_argument("--metrics", default=None, metavar="FILE",
                       help="append per-job JSONL metrics to FILE")
    run_p.add_argument("--fault-plan", default=None, metavar="FILE",
                       help="inject the fault plan in FILE into every "
                            "system the experiments build")
    run_p.add_argument("--no-fast-forward", action="store_true",
                       help="force per-epoch stepping through quiescent "
                            "spans in every simulator the experiments "
                            "build (results are identical either way; "
                            "the flag keys the result cache)")
    run_p.add_argument("--trace", default=None, metavar="FILE",
                       help="enable structured run tracing and append the "
                            "collected events to FILE as JSONL")
    run_p.add_argument("--policy", default=None, metavar="NAME",
                       help="select the power policy every system the "
                            "experiments build should run (default: the "
                            "GreenDIMM daemon; see 'repro tournament' "
                            "for the catalog)")
    run_p.set_defaults(func=cmd_run)

    tour_p = sub.add_parser(
        "tournament",
        help="run every power policy across the scenario matrix")
    tour_p.add_argument("--fast", action="store_true",
                        help="shrink scenario durations")
    tour_p.add_argument("--policies", action="append", metavar="NAME",
                        help="restrict to one policy (repeatable; "
                             "default: all registered policies)")
    tour_p.add_argument("--scenarios", action="append", metavar="NAME",
                        help="restrict to one scenario (repeatable; "
                             "default: the full matrix)")
    tour_p.add_argument("--workers", type=int, default=1, metavar="N",
                        help="fan the cells out over N processes "
                             "(results are identical to a serial run)")
    tour_p.add_argument("--metrics", default=None, metavar="FILE",
                        help="append per-cell JSONL metrics to FILE")
    tour_p.add_argument("--report", default=None, metavar="FILE",
                        help="write a markdown/HTML run report to FILE")
    tour_p.set_defaults(func=cmd_tournament)

    sim_p = sub.add_parser("simulate", help="run a workload under GreenDIMM")
    sim_p.add_argument("workload")
    sim_p.add_argument("--capacity", type=int, default=0,
                       help="server capacity in GiB (default: 64GB platform)")
    sim_p.add_argument("--block-mb", type=int, default=128)
    sim_p.add_argument("--copies", type=int, default=1)
    sim_p.add_argument("--seed", type=int, default=1)
    sim_p.add_argument("--fault-plan", default=None, metavar="FILE",
                       help="inject the fault plan in FILE")
    sim_p.add_argument("--no-fast-forward", action="store_true",
                       help="force per-epoch stepping through quiescent "
                            "spans (results are identical either way)")
    sim_p.add_argument("--trace", default=None, metavar="FILE",
                       help="enable structured run tracing and append the "
                            "collected events to FILE as JSONL")
    sim_p.set_defaults(func=cmd_simulate)

    fleet_p = sub.add_parser(
        "fleet", help="replay a sharded datacenter trace across servers")
    fleet_p.add_argument("--servers", type=int, default=2, metavar="N")
    fleet_p.add_argument("--hours", type=float, default=2.0,
                         help="trace duration per server")
    fleet_p.add_argument("--seed", type=int, default=7)
    fleet_p.add_argument("--workers", type=int, default=1, metavar="N",
                         help="worker processes for the shard fan-out")
    fleet_p.add_argument("--metrics", default=None, metavar="FILE",
                         help="append per-server JSONL metrics to FILE")
    fleet_p.add_argument("--report", default=None, metavar="FILE",
                         help="write a markdown/HTML run report to FILE "
                              "(enables tracing for the replay)")
    fleet_p.add_argument("--trace", default=None, metavar="FILE",
                         help="enable structured run tracing and append "
                              "the collected events to FILE as JSONL")
    fleet_p.set_defaults(func=cmd_fleet)

    report_p = sub.add_parser(
        "report", help="render a metrics JSONL into a run report")
    report_p.add_argument("metrics", help="metrics JSONL file "
                                          "(from --metrics)")
    report_p.add_argument("--trace", default=None, metavar="FILE",
                          help="fold a trace JSONL (from --trace) into "
                               "the report")
    report_p.add_argument("--out", default=None, metavar="FILE",
                          help="write here instead of stdout (.html "
                               "renders HTML)")
    report_p.add_argument("--title", default=None)
    report_p.add_argument("--html", action="store_true",
                          help="render HTML regardless of the suffix")
    report_p.set_defaults(func=cmd_report)

    figures_p = sub.add_parser(
        "figures",
        help="regenerate every figure/table and gate the numbers "
             "against the committed expectations")
    figures_p.add_argument(
        "action", choices=("run", "check", "bless"),
        help="run = regenerate + report; check = also fail on drift or "
             "stale expectations; bless = re-pin the expectations")
    figures_p.add_argument("--fast", action="store_true",
                           help="fast-mode experiment settings (the mode "
                                "the committed expectations are pinned at)")
    figures_p.add_argument("--only", action="append", metavar="ID",
                           help="restrict to one experiment (repeatable)")
    figures_p.add_argument("--expected-dir", default=None, metavar="DIR",
                           help="expectation files "
                                "(default: tests/expected/figures)")
    figures_p.add_argument("--report-dir", default=None, metavar="DIR",
                           help="per-figure REPORT.md output "
                                "(default: reports/figures)")
    figures_p.add_argument("--workers", type=int, default=None, metavar="N",
                           help="fan the figures out over N processes "
                                "(default: $GREENDIMM_FIGURES_WORKERS or 1; "
                                "outcomes and reports are byte-identical "
                                "to a serial run)")
    figures_p.set_defaults(func=cmd_figures)

    faults_p = sub.add_parser(
        "faults", help="generate or inspect deterministic fault plans")
    faults_sub = faults_p.add_subparsers(dest="action", required=True)
    storm_p = faults_sub.add_parser(
        "storm", help="expand a seed into a concrete storm plan")
    storm_p.add_argument("--seed", type=int, default=303)
    storm_p.add_argument("--intensity", type=float, default=1.0,
                         help="expected fault windows per 4 s of run")
    storm_p.add_argument("--duration", type=float, default=120.0,
                         metavar="SECONDS")
    storm_p.add_argument("--blocks", type=int, default=64,
                         help="block-index space for targeted rules")
    storm_p.add_argument("--name", default=None,
                         help="plan name (default: derived from the seed)")
    storm_p.add_argument("--out", default=None, metavar="FILE",
                         help="write the plan JSON here instead of stdout")
    storm_p.set_defaults(func=cmd_faults)
    show_p = faults_sub.add_parser(
        "show", help="validate a plan file and summarize its rules")
    show_p.add_argument("plan_file")
    show_p.set_defaults(func=cmd_faults)

    serve_p = sub.add_parser(
        "serve", help="run a resident simulator fleet with a REST "
                      "control plane")
    serve_p.add_argument("--servers", type=int, default=4, metavar="N")
    serve_p.add_argument("--workers", type=int, default=2, metavar="N",
                         help="worker processes, each ticking its shard "
                              "of the servers in parallel (elastic at "
                              "runtime via 'repro ctl reshard')")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8023)
    serve_p.add_argument("--policy", default=None,
                         help="power policy for every server "
                              "(default: greendimm)")
    serve_p.add_argument("--seed", type=int, default=7)
    serve_p.add_argument("--epoch", type=float, default=5.0,
                         metavar="SECONDS")
    serve_p.add_argument("--ksm", action="store_true",
                         help="enable KSM on every server")
    serve_p.add_argument("--churn", action="store_true",
                         help="enable pinned-page churn on every server")
    serve_p.set_defaults(func=cmd_serve, policy="greendimm")

    ctl_p = sub.add_parser(
        "ctl", help="control a running 'repro serve' fleet")
    ctl_p.add_argument("--url", default="http://127.0.0.1:8023",
                       help="service base URL")
    ctl_sub = ctl_p.add_subparsers(dest="action", required=True)
    ctl_sub.add_parser("status", help="fleet summary")
    ctl_sub.add_parser("servers", help="per-server summaries")
    ctl_sub.add_parser("workers",
                       help="worker processes: pid, servers, peak RSS")
    one_p = ctl_sub.add_parser("server", help="one server's detail")
    one_p.add_argument("index", type=int)
    events_p = ctl_sub.add_parser("events", help="daemon decision log")
    events_p.add_argument("index", type=int)
    events_p.add_argument("-n", type=int, default=20,
                          help="events to show")
    ingest_p = ctl_sub.add_parser("ingest", help="admit a VM")
    ingest_p.add_argument("vm_id", type=int)
    ingest_p.add_argument("memory_gib", type=float)
    ingest_p.add_argument("--time", type=float, default=None,
                          help="arrival time (default: service now)")
    ingest_p.add_argument("--lifetime", type=float, default=None,
                          help="seconds until automatic departure")
    ingest_p.add_argument("--vcpus", type=int, default=2)
    ingest_p.add_argument("--image", type=int, default=0,
                          help="image id (shared content for KSM)")
    depart_p = ctl_sub.add_parser("depart", help="retire a VM")
    depart_p.add_argument("vm_id", type=int)
    depart_p.add_argument("--time", type=float, default=None)
    advance_p = ctl_sub.add_parser("advance",
                                   help="tick the fleet clock")
    advance_group = advance_p.add_mutually_exclusive_group(required=True)
    advance_group.add_argument("--until", type=float, metavar="SECONDS")
    advance_group.add_argument("--dt", type=float, metavar="SECONDS")
    snap_p = ctl_sub.add_parser("snapshot",
                                help="checkpoint a server to a file")
    snap_p.add_argument("index", type=int)
    snap_p.add_argument("-o", "--out", required=True, metavar="FILE")
    restore_p = ctl_sub.add_parser(
        "restore", help="restore a server from a checkpoint file")
    restore_p.add_argument("index", type=int)
    restore_p.add_argument("snapshot_file")
    migrate_p = ctl_sub.add_parser(
        "migrate", help="move a server to another worker")
    migrate_p.add_argument("index", type=int)
    migrate_p.add_argument("worker", type=int)
    fault_p = ctl_sub.add_parser(
        "fault", help="arm a fault plan on a live server")
    fault_p.add_argument("index", type=int)
    fault_p.add_argument("plan_file", help="fault plan JSON "
                                           "(see 'repro faults storm')")
    retune_p = ctl_sub.add_parser(
        "retune", help="retune daemon thresholds without restart")
    retune_p.add_argument("overrides", nargs="+", metavar="key=value",
                          help="GreenDIMMConfig fields, e.g. "
                               "off_thr_fraction=0.15")
    retune_p.add_argument("--server", type=int, default=None,
                          help="one server (default: whole fleet)")
    reshard_p = ctl_sub.add_parser(
        "reshard", help="change the worker count (checkpoint-based)")
    reshard_p.add_argument("workers", type=int)
    ctl_sub.add_parser("shutdown", help="stop the service")
    ctl_p.set_defaults(func=cmd_ctl)

    top_p = sub.add_parser("topology", help="inspect a platform")
    top_p.add_argument("--capacity", type=int, default=0)
    top_p.set_defaults(func=cmd_topology)

    val_p = sub.add_parser("validate",
                           help="check model anchors against the paper")
    val_p.set_defaults(func=cmd_validate)
    return parser


def _install_sigterm_handler() -> None:
    """Route SIGTERM through the KeyboardInterrupt path.

    A polite ``kill`` then behaves like Ctrl-C: pools cancel queued
    work, the metrics stream records an interrupted ``suite_end``, and
    the exit code is non-zero — instead of dying mid-write with the
    JSONL stream reading as a complete run.
    """
    import signal

    def _raise(_signum, _frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _raise)
    except ValueError:  # not the main thread (embedded use)
        pass


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _install_sigterm_handler()
    try:
        return args.func(args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
