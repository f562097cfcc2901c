"""Command-line interface.

Mirrors the artifact's make-target workflow with subcommands::

    python -m repro list                       # the registered suite
    python -m repro run mahony --arch m4       # one kernel, one core
    python -m repro sweep --kernels mahony,p3p --out results.json
    python -m repro sweep --jobs 4 --cache-dir .trace-cache \
        --out results.json                     # parallel + cached; rerun resumes
    python -m repro tables --table 4           # regenerate a paper table
    python -m repro mission hover --arch m33   # closed-loop evaluation
    python -m repro faults --fault brownout --mission hover \
        --severities 0.25,0.5,1.0 --out resilience.json
    python -m repro trace mission hover        # profile: phase report
    python -m repro sweep --trace sweep.trace.json   # Perfetto-loadable
    python -m repro scenarios list             # tiered scenario catalog
    python -m repro scenarios generate --tier b --count 100 --seed 42 \
        --out scenarios.json                   # content-addressed set
    python -m repro scenarios run --tier b --count 1000 --seed 42 \
        --jobs 4 --out campaign.json           # campaign-scale study
    python -m repro lint                       # layering + determinism rules
    python -m repro lint --format json         # canonical machine report
    python -m repro serve --port 7453          # benchmark-query service
    python -m repro query characterize --kernel mahony --arch m33

Observability: ``sweep``, ``mission``, and ``faults`` accept ``--trace``
(Chrome trace-event JSON, open in https://ui.perfetto.dev) and
``--metrics-out`` (JSONL metric dump); ``repro trace <cmd>`` runs the
same command with tracing on and prints a hottest-first phase report.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import List, Optional

from repro.core import registry
from repro.core.config import HarnessConfig
from repro.core.harness import Harness
from repro.backends import arch_names, characterization_archs
from repro.mcu.arch import get_arch
from repro.mcu.cache import CACHE_OFF, CACHE_ON
from repro.scalar import parse_scalar


def _cmd_list(args) -> int:
    print(f"{'stage':6s} {'kernel':18s} {'category':16s} {'dataset':16s}")
    print("-" * 60)
    for name in registry.names():
        problem = registry.create(name)
        print(f"{problem.stage:6s} {name:18s} {problem.category:16s} "
              f"{problem.dataset_name:16s}")
    return 0


def _cmd_backends(args) -> int:
    from repro.backends import list_backends

    if args.backends_command == "list":
        print(f"{'backend':10s} {'archs':34s} characterization")
        print("-" * 78)
        for row in list_backends():
            print(f"{row['backend']:10s} {', '.join(row['archs']):34s} "
                  f"{', '.join(row['characterization'])}")
            print(f"{'':10s} {row['description']}")
        return 0
    if args.backends_command == "show":
        from repro.backends import backend_for

        arch = get_arch(args.arch)
        fpu = ("DP" if arch.fpu.double
               else ("SP" if arch.fpu.single else "soft-float"))
        print(f"{arch.name}: {arch.core} ({arch.isa}) on {arch.board}")
        print(f"  backend: {backend_for(arch).name}")
        print(f"  clock: {arch.clock_mhz:.0f} MHz  pipeline: "
              f"{arch.pipeline_stages} stages  fpu: {fpu}")
        print(f"  caches: {arch.cache.icache_bytes // 1024} KB I / "
              f"{arch.cache.dcache_bytes // 1024} KB D")
        print(f"  memory: {arch.memory.flash_bytes // 1024} KB flash "
              f"(+{arch.memory.flash_wait_cycles:g} waits), "
              f"{arch.memory.sram_bytes // 1024} KB SRAM "
              f"(+{arch.memory.sram_wait_cycles:g} waits)")
        print(f"  power: {arch.power.active_mw:g} mW active, "
              f"{arch.power.idle_mw:g} mW idle, "
              f"{arch.process_node_nm} nm node")
        return 0
    raise ValueError(f"unknown backends command {args.backends_command!r}")


def _cmd_run(args) -> int:
    arch = get_arch(args.arch)
    config = HarnessConfig(reps=args.reps, warmup_reps=args.warmup)
    kwargs = {}
    if args.scalar:
        kwargs["scalar"] = parse_scalar(args.scalar)
    problem = registry.create(args.kernel, **kwargs)
    harness = Harness(arch, config)
    cache = CACHE_ON if args.cache else CACHE_OFF
    result = harness.run(problem, cache)
    if not result.fits:
        print(f"{args.kernel} does not fit {arch.name}: {result.skip_reason}")
        return 1
    print(f"kernel    : {args.kernel} [{problem.scalar}] on {arch.core} "
          f"({cache.label})")
    print(f"validated : {result.all_valid}")
    print(f"cycles    : {result.unit_cycles:,.0f} per unit "
          f"({result.work_units} units/solve)")
    print(f"latency   : {result.unit_latency_us:.2f} us")
    print(f"energy    : {result.unit_energy_uj:.3f} uJ")
    print(f"peak power: {result.peak_power_mw:.0f} mW")
    return 0 if result.all_valid else 1


@contextmanager
def _observation(args, report: bool = False):
    """Enable tracing/metrics around a command when the flags ask for it.

    Args:
        args: Parsed CLI namespace; ``--trace`` / ``--metrics-out`` paths
            are read from it when present.
        report: Also print the text phase report after the command (the
            ``repro trace`` wrapper sets this).

    Yields:
        None; on exit the requested exports are written and the process
        returns to the zero-overhead disabled defaults.
    """
    import repro.obs as obs

    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics_out", None)
    if not (trace_path or metrics_path or report):
        yield
        return
    tracer, metrics = obs.observe()
    try:
        yield
    finally:
        if report:
            print()
            print(obs.phase_report(tracer))
        if trace_path:
            path = obs.save_chrome_trace(tracer, trace_path)
            print(f"trace     : {path} (open in https://ui.perfetto.dev)")
        if metrics_path:
            path = obs.save_metrics_jsonl(metrics, metrics_path)
            print(f"metrics   : {path}")
        obs.unobserve()


def _engine_options(args):
    """Build EngineOptions from the shared --jobs/--cache-dir flags."""
    from repro.engine import EngineOptions

    return EngineOptions(jobs=args.jobs, cache_dir=args.cache_dir)


def _cmd_sweep(args) -> int:
    from dataclasses import replace

    from repro.api import SweepSpec, sweep, sweep_summary
    from repro.core.experiment_io import (
        save_results_csv,
        save_results_json,
        save_telemetry_json,
        telemetry_path_for,
    )
    from repro.obs import MetricsRegistry, get_metrics

    kernels = (args.kernels.split(",") if args.kernels else registry.suite())
    archs = ([get_arch(a) for a in args.archs.split(",")]
             if args.archs else list(characterization_archs()))
    spec = SweepSpec(
        kernels=kernels,
        archs=archs,
        config=HarnessConfig(reps=args.reps, warmup_reps=args.warmup),
    )
    # With observation on (--trace, --metrics-out, `repro trace`) the
    # sweep records into the process-wide registry, so the metrics dump
    # and the sidecar read the same counters.
    metrics = get_metrics()
    if not metrics.enabled:
        metrics = MetricsRegistry()
    options = _engine_options(args)
    cache = options.make_cache()
    results = sweep(spec, options=replace(options, trace_cache=cache),
                    telemetry=metrics,
                    progress=print if args.verbose else None)
    summary = sweep_summary(metrics, cache.stats)
    print(f"{len(results)} configurations, {results.datapoints()} datapoints")
    print(
        f"engine    : {summary['solves_executed']} solves, "
        f"{summary['cache_hits']} cache hits "
        f"({summary['cache_hit_rate']:.0%}), "
        f"{summary['wall_s']:.2f}s wall "
        f"(~{summary['est_speedup_vs_serial']:.1f}x vs serial)"
    )
    if args.out:
        if args.out.endswith(".csv"):
            path = save_results_csv(results, args.out)
        else:
            path = save_results_json(results, args.out)
        print(f"saved: {path}")
        tpath = save_telemetry_json(summary, telemetry_path_for(args.out))
        print(f"telemetry: {tpath}")
    return 0


def _cmd_tables(args) -> int:
    from repro.analysis import attitude_study, flops, tables

    config = HarnessConfig(reps=args.reps, warmup_reps=args.warmup)
    table = args.table
    if table == 3:
        print(tables.render_table3(tables.table3_static()))
    elif table == 4:
        sweep = tables.table4_dynamic(
            config=config, jobs=args.jobs, cache_dir=args.cache_dir
        )
        print(tables.render_table4(sweep, kernels=tables.TABLE_KERNELS))
    elif table == 5:
        print(tables.render_table5(tables.table5_architectures()))
    elif table == 6:
        print(tables.render_table6(tables.table6_perception(config=config)))
    elif table == 7:
        print(attitude_study.render_table7(
            attitude_study.table7_attitude(config=config)))
    elif table == 8:
        print(flops.render_table8(flops.table8_flops(config=config)))
    else:
        print(f"no such table: {table} (know 3-8)", file=sys.stderr)
        return 2
    return 0


def _cmd_mission(args) -> int:
    from repro.api import MissionSpec, run_mission

    arch = get_arch(args.arch)
    result = run_mission(MissionSpec(mission=args.mission, arch=args.arch))
    print(f"mission   : {result.name} on {arch.core}")
    print(f"completed : {result.completed}")
    print(f"path error: rms={result.path_error_rms_m:.4f} "
          f"max={result.path_error_max_m:.4f}")
    print(f"rate      : {result.effective_rate_hz:.0f} Hz "
          f"(deadline hit {result.deadline_hit_rate:.0%})")
    print(f"compute   : {result.compute_energy_mj:.3f} mJ, "
          f"{result.compute_latency_s * 1e6:.1f} us/step")
    return 0 if result.completed else 1


def _cmd_faults(args) -> int:
    from repro.faults import (
        FaultCampaignSpec,
        build_report,
        fault_names,
        get_fault,
        render_report,
        run_campaign,
        save_report,
    )

    if args.list:
        print(f"{'fault':16s} {'seams':22s} summary")
        print("-" * 76)
        for name in fault_names():
            fault = get_fault(name)
            print(f"{name:16s} {'/'.join(fault.kinds):22s} {fault.summary}")
        return 0
    if args.fault is None:
        print("--fault is required (or --list)", file=sys.stderr)
        return 2

    severities = tuple(float(s) for s in args.severities.split(","))
    missions = tuple(args.mission.split(",")) if args.mission else ()
    kernels = tuple(args.kernels.split(",")) if args.kernels else ()
    if not missions and not kernels:
        print("nothing to do: give --mission and/or --kernels",
              file=sys.stderr)
        return 2
    spec = FaultCampaignSpec(
        fault=args.fault,
        severities=severities,
        missions=missions,
        kernels=kernels,
        archs=tuple(args.archs.split(",")),
        seed=args.seed,
        reps=args.reps,
    )
    campaign = run_campaign(spec, options=_engine_options(args))
    report = build_report(campaign)
    print(render_report(report))
    if args.out:
        path = save_report(report, args.out)
        print(f"\nsaved: {path}")
    return 0


def _cmd_serve(args) -> int:
    import time

    from repro.api import ServiceServer, ShardPool

    pool = ShardPool(
        config=HarnessConfig(reps=args.reps, warmup_reps=args.warmup),
        engine_options=_engine_options(args),
        capacity=args.capacity,
        spill_dir=args.spill_dir,
        max_inflight=args.max_inflight,
    )
    server = ServiceServer(pool, host=args.host, port=args.port)
    host, port = server.address
    try:
        with server:
            print(f"serving   : {host}:{port} (JSONL over TCP)")
            print(f"try       : repro query characterize --kernel mahony "
                  f"--port {port}")
            if args.duration is not None:
                time.sleep(args.duration)
            else:
                while True:  # serve until Ctrl-C
                    time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        pool.close()
    print("stopped")
    return 0


def _service_request(args) -> dict:
    """Assemble the JSONL wire request the query flags describe."""
    request = {"op": args.op}
    if args.op == "characterize":
        if not args.kernel:
            raise SystemExit("characterize needs --kernel")
        request.update(kernel=args.kernel, arch=args.arch, cache=args.cache)
    elif args.op == "mission":
        request.update(mission=args.mission, arch=args.arch)
    elif args.op == "campaign":
        if not args.fault:
            raise SystemExit("campaign needs --fault")
        request.update(
            fault=args.fault,
            severities=[float(s) for s in args.severities.split(",")],
            archs=args.archs.split(","),
            seed=args.seed,
            reps=args.reps,
            warmup=args.warmup,
        )
        if args.kernels:
            request["kernels"] = args.kernels.split(",")
        if args.missions:
            request["missions"] = args.missions.split(",")
    return request


def _cmd_query(args) -> int:
    import json

    from repro.api import QueryOptions, ServiceClient, ServiceError, query
    from repro.service.errors import error_record

    request = _service_request(args)
    options = QueryOptions(priority=args.priority, timeout=args.timeout)
    if args.local:
        if args.op in ("ping", "stats"):
            print(f"--local answers benchmark queries, not {args.op}",
                  file=sys.stderr)
            return 2
        payload = query(request, options=options)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    with ServiceClient(args.host, args.port, timeout=args.timeout) as client:
        if args.op in ("ping", "stats"):
            response = client.query(request)
        else:
            try:
                response = client.ask_with_retry(
                    request, options=options, retries=args.retries
                )
            except ServiceError as exc:
                response = {"ok": False, "error": error_record(exc)}
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if response.get("ok") else 1


def _cmd_scenarios(args) -> int:
    from repro.api import ScenarioSet, generate_scenarios, run_scenarios
    from repro.scenarios import render_report, save_report, tier_a_set

    cmd = args.scenarios_command
    if cmd == "list":
        print("tier a (the paper's platforms):")
        for scenario in tier_a_set().scenarios:
            mission = (scenario.mission["kind"] if scenario.mission
                       else "kernel-only")
            print(f"  {scenario.name:20s} arch={scenario.arch:7s} "
                  f"mission={mission:12s} "
                  f"kernels={','.join(scenario.kernels)}")
        print("tier b: seeded synthetic generation "
              "(scenarios generate --tier b --count N --seed S)")
        return 0
    if cmd == "generate":
        sset = generate_scenarios(tier=args.tier, count=args.count,
                                  seed=args.seed)
        print(f"generated : {len(sset)} tier-{sset.tier} scenario(s), "
              f"seed {sset.seed}")
        print(f"address   : {sset.address}")
        if args.out:
            path = sset.save(args.out)
            print(f"saved     : {path}")
        return 0
    # cmd == "run"
    if args.set:
        sset = ScenarioSet.load(args.set)
        print(f"loaded    : {len(sset)} tier-{sset.tier} scenario(s) "
              f"from {args.set}")
    else:
        sset = generate_scenarios(tier=args.tier, count=args.count,
                                  seed=args.seed)
    report = run_scenarios(sset, options=_engine_options(args))
    print(render_report(report))
    if args.out:
        path = save_report(report, args.out)
        print(f"\nsaved: {path}")
    return 0


def _cmd_lint(args) -> int:
    from repro.lint import (
        Baseline,
        default_baseline_path,
        default_root,
        render_json,
        render_rule_list,
        render_sarif,
        render_text,
        run_lint,
    )

    if args.list:
        print(render_rule_list())
        return 0
    root = Path(args.root) if args.root else default_root()
    rules = args.rules.split(",") if args.rules else None
    baseline_path = (Path(args.baseline) if args.baseline
                     else default_baseline_path(root))
    if args.update_baseline:
        result = run_lint(root=root, rules=rules, use_baseline=False,
                          analyze=args.analyze)
        try:
            _, others = Baseline.load(baseline_path).split(result.rules)
        except ValueError:  # an unsupported old version is regenerated
            others = Baseline()
        fresh = Baseline.from_findings(result.all_findings)
        fresh.counts.update(others.counts)
        path = fresh.save(baseline_path)
        print(f"baseline  : {path} "
              f"({len(result.all_findings)} finding(s) grandfathered)")
        return 0
    if args.prune_baseline:
        result = run_lint(root=root, rules=rules, use_baseline=False,
                          analyze=args.analyze)
        judged, others = Baseline.load(baseline_path).split(result.rules)
        pruned, dropped = judged.prune(result.all_findings)
        pruned.counts.update(others.counts)
        path = pruned.save(baseline_path)
        kept = sum(pruned.counts.values())
        print(f"baseline  : {path} "
              f"({len(dropped)} stale "
              f"entr{'y' if len(dropped) == 1 else 'ies'} pruned, "
              f"{kept} finding(s) kept)")
        return 0
    result = run_lint(root=root, rules=rules, baseline_path=baseline_path,
                      analyze=args.analyze)
    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result))
    return 0 if result.clean else 1


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    """The shared observability export flags (--trace / --metrics-out)."""
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write a Chrome trace-event JSON here "
                        "(open in https://ui.perfetto.dev)")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write a JSONL metrics dump here")


def _add_sweep_args(p: argparse.ArgumentParser) -> None:
    """The full sweep flag set (shared with ``repro trace sweep``)."""
    p.add_argument("--kernels", default=None,
                   help="comma-separated (default: full suite)")
    p.add_argument("--archs", default=None,
                   help="comma-separated (default: every backend's "
                        "characterization set)")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--warmup", type=int, default=0)
    p.add_argument("--out", default=None, help=".json or .csv path")
    p.add_argument("--verbose", action="store_true",
                   help="print one ok/skip line per priced cell")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel solve workers (default: 1 = serial)")
    p.add_argument("--cache-dir", default=None,
                   help="persistent trace-cache directory")
    _add_obs_args(p)


def _add_mission_args(p: argparse.ArgumentParser) -> None:
    """The mission flag set (shared with ``repro trace mission``)."""
    from repro.closedloop import mission_names

    # Choices come from the mission registry — the one source of truth —
    # so missions registered by studies appear here automatically.
    p.add_argument("mission", choices=mission_names())
    p.add_argument("--arch", default="m33", choices=sorted(arch_names()))
    _add_obs_args(p)


def _add_faults_args(p: argparse.ArgumentParser) -> None:
    """The fault-campaign flag set (shared with ``repro trace faults``)."""
    p.add_argument("--list", action="store_true",
                   help="list registered fault models and exit")
    p.add_argument("--fault", default=None,
                   help="fault model name (see --list)")
    p.add_argument("--mission", default=None,
                   help="comma-separated missions (hover,waypoints,steer)")
    p.add_argument("--kernels", default=None,
                   help="comma-separated kernels for the static grid")
    p.add_argument("--severities", default="0.25,0.5,0.75,1.0",
                   help="comma-separated severities in [0,1]; "
                        "the 0 baseline is always included")
    p.add_argument("--archs", default="m33",
                   help="comma-separated cores (default: m33)")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (per-cell seeds derive from it)")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers for solves and mission cells")
    p.add_argument("--cache-dir", default=None,
                   help="persistent trace-cache directory")
    p.add_argument("--out", default=None,
                   help="write the resilience report JSON here")
    _add_obs_args(p)


def _add_serve_args(p: argparse.ArgumentParser) -> None:
    """The query-service server flag set (``repro serve``)."""
    from repro.service import DEFAULT_PORT

    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: localhost only)")
    p.add_argument("--port", type=int, default=DEFAULT_PORT,
                   help=f"TCP port (default: {DEFAULT_PORT}; 0 = ephemeral)")
    p.add_argument("--jobs", type=int, default=1,
                   help="engine workers behind the broker (kernel "
                        "solves and campaign missions)")
    p.add_argument("--cache-dir", default=None,
                   help="persistent trace-cache directory")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--capacity", type=int, default=1024,
                   help="in-memory answer-cache entries (LRU beyond)")
    p.add_argument("--shards", type=int, default=1, choices=(1,),
                   help="broker count; the service runs one broker, "
                        "so only 1 is accepted")
    p.add_argument("--spill-dir", default=None,
                   help="L2 directory: answers evicted from the "
                        "in-memory LRU spill here instead of vanishing")
    p.add_argument("--max-inflight", type=int, default=64,
                   help="admitted-but-unfinished query bound; beyond it, "
                        "queries shed with a retry_after hint")
    p.add_argument("--duration", type=float, default=None,
                   help="serve for N seconds then exit (default: forever)")


def _add_query_args(p: argparse.ArgumentParser) -> None:
    """The query-client flag set (``repro query``)."""
    from repro.service import DEFAULT_PORT

    p.add_argument("op",
                   choices=("characterize", "mission", "campaign",
                            "ping", "stats"),
                   help="what to ask the service")
    p.add_argument("--kernel", default=None,
                   help="kernel to characterize")
    p.add_argument("--arch", default="m33", choices=sorted(arch_names()))
    p.add_argument("--cache", default="C", choices=("C", "NC"),
                   help="cache state for characterize cells")
    p.add_argument("--mission", default="hover",
                   help="mission name for mission queries")
    p.add_argument("--fault", default=None,
                   help="fault model for campaign queries")
    p.add_argument("--severities", default="0.25,0.5,0.75,1.0",
                   help="comma-separated campaign severities")
    p.add_argument("--kernels", default=None,
                   help="comma-separated campaign kernels")
    p.add_argument("--missions", default=None,
                   help="comma-separated campaign missions")
    p.add_argument("--archs", default="m33",
                   help="comma-separated campaign cores")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--warmup", type=int, default=0)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=DEFAULT_PORT)
    p.add_argument("--timeout", type=float, default=120.0,
                   help="seconds to wait for the answer")
    p.add_argument("--priority", default="interactive",
                   choices=("interactive", "batch"),
                   help="admission priority (batch sheds first under load)")
    p.add_argument("--retries", type=int, default=3,
                   help="retries with backoff when the service sheds "
                        "the query as overloaded")
    p.add_argument("--local", action="store_true",
                   help="answer in-process (no server needed)")


def _add_scenarios_args(p: argparse.ArgumentParser) -> None:
    """The tiered scenario flag sets (``repro scenarios``)."""
    from repro.scenarios import TIERS

    sub = p.add_subparsers(dest="scenarios_command", required=True)
    sub.add_parser("list", help="list the tier-A platform scenarios")

    def _generation_flags(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--tier", default="b", choices=TIERS,
                        help="a = the paper's platforms, b = seeded "
                             "synthetic generation (default: b)")
        sp.add_argument("--count", type=int, default=25,
                        help="tier-b scenarios to generate (default: 25)")
        sp.add_argument("--seed", type=int, default=0,
                        help="generation seed (same seed = byte-identical "
                             "scenario set)")

    generate = sub.add_parser(
        "generate", help="generate a content-addressed scenario set"
    )
    _generation_flags(generate)
    generate.add_argument("--out", default=None,
                          help="write the scenario set JSON here")

    run = sub.add_parser(
        "run", help="execute a scenario campaign (sweeps + mission grids)"
    )
    _generation_flags(run)
    run.add_argument("--set", default=None, metavar="PATH",
                     help="run a saved scenario set instead of generating")
    run.add_argument("--jobs", type=int, default=1,
                     help="parallel workers for solves and mission jobs")
    run.add_argument("--cache-dir", default=None,
                     help="persistent trace-cache directory")
    run.add_argument("--out", default=None,
                     help="write the campaign report JSON here")
    _add_obs_args(run)


def _add_lint_args(p: argparse.ArgumentParser) -> None:
    """The static-analysis flag set (``repro lint``)."""
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text",
                   help="report format (json is the canonical machine "
                        "report; sarif uploads to code-scanning "
                        "dashboards)")
    p.add_argument("--analyze", choices=("basic", "deep"), default="basic",
                   help="basic = per-module + import-graph rules; "
                        "deep adds call-graph taint, shared-state race "
                        "and API-contract analysis")
    p.add_argument("--rules", default=None,
                   help="comma-separated rule ids to run "
                        "(default: all; see --list)")
    p.add_argument("--baseline", default=None, metavar="PATH",
                   help="baseline file for grandfathered findings "
                        "(default: lint-baseline.json at the repo root)")
    p.add_argument("--update-baseline", action="store_true",
                   help="grandfather the current findings of the rules "
                        "that ran into the baseline and exit")
    p.add_argument("--prune-baseline", action="store_true",
                   help="drop baseline entries of the rules that ran "
                        "that no live finding matches, and exit")
    p.add_argument("--root", default=None, metavar="PATH",
                   help="package directory to scan "
                        "(default: the installed repro package)")
    p.add_argument("--list", action="store_true",
                   help="list the rule catalog and exit")


#: Commands ``repro trace`` can wrap with a phase report.
TRACEABLE_COMMANDS = ("sweep", "mission", "faults")


def build_parser() -> argparse.ArgumentParser:
    """The complete ``repro`` argparse tree (single source of truth).

    ``tests/test_docs.py`` walks this tree to assert that every flag the
    documentation mentions actually exists, so new flags belong here.
    """
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the registered kernel suite")

    backends = sub.add_parser(
        "backends", help="inspect the ISA backend registry"
    )
    backends_sub = backends.add_subparsers(
        dest="backends_command", required=True
    )
    backends_sub.add_parser(
        "list", help="list registered backends and their archs"
    )
    show = backends_sub.add_parser(
        "show", help="show one architecture's full spec"
    )
    show.add_argument("arch", choices=sorted(arch_names()))

    run = sub.add_parser("run", help="benchmark one kernel on one core")
    run.add_argument("kernel")
    run.add_argument("--arch", default="m4", choices=sorted(arch_names()))
    run.add_argument("--scalar", default=None,
                     help="f32 / f64 / qM.N (default: f32)")
    run.add_argument("--reps", type=int, default=3)
    run.add_argument("--warmup", type=int, default=1)
    run.add_argument("--no-cache", dest="cache", action="store_false")

    sweep = sub.add_parser("sweep", help="run a kernel x core x cache sweep")
    _add_sweep_args(sweep)

    tables_p = sub.add_parser("tables", help="regenerate a paper table")
    tables_p.add_argument("--table", type=int, required=True, choices=range(3, 9))
    tables_p.add_argument("--reps", type=int, default=1)
    tables_p.add_argument("--warmup", type=int, default=0)
    tables_p.add_argument("--jobs", type=int, default=1,
                          help="parallel solve workers (table 4)")
    tables_p.add_argument("--cache-dir", default=None,
                          help="persistent trace-cache directory (table 4)")

    mission = sub.add_parser("mission", help="closed-loop mission evaluation")
    _add_mission_args(mission)

    faults = sub.add_parser(
        "faults", help="fault-injection campaign with resilience report"
    )
    _add_faults_args(faults)

    scenarios = sub.add_parser(
        "scenarios",
        help="tiered scenario generation and campaign-scale studies",
    )
    _add_scenarios_args(scenarios)

    lint = sub.add_parser(
        "lint", help="static analysis: layering + determinism rules"
    )
    _add_lint_args(lint)

    serve = sub.add_parser(
        "serve", help="run the benchmark-query service (JSONL over TCP)"
    )
    _add_serve_args(serve)

    query = sub.add_parser(
        "query", help="ask the benchmark-query service one question"
    )
    _add_query_args(query)

    trace = sub.add_parser(
        "trace",
        help="run a command with tracing on and print a phase report",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    _add_sweep_args(trace_sub.add_parser(
        "sweep", help="profile a sweep (same flags as `repro sweep`)"))
    _add_mission_args(trace_sub.add_parser(
        "mission", help="profile a mission (same flags as `repro mission`)"))
    _add_faults_args(trace_sub.add_parser(
        "faults", help="profile a campaign (same flags as `repro faults`)"))

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Parse ``argv`` and dispatch to the subcommand handler."""
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "backends": _cmd_backends,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "tables": _cmd_tables,
        "mission": _cmd_mission,
        "faults": _cmd_faults,
        "scenarios": _cmd_scenarios,
        "lint": _cmd_lint,
        "serve": _cmd_serve,
        "query": _cmd_query,
    }
    command = args.command
    report = command == "trace"
    if report:
        command = args.trace_command
    with _observation(args, report=report):
        return handlers[command](args)


if __name__ == "__main__":
    sys.exit(main())
