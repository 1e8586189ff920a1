"""Command-line entry point: regenerate any paper table or figure.

Usage::

    python -m repro list                  # show available experiments
    python -m repro fig18                 # reproduce Fig 18
    python -m repro fig7 fig24 tab1       # several at once (parallel)
    python -m repro all                   # everything (cached+parallel)
    python -m repro sweep design_space --param frequency=0.5,1,2,4
    python -m repro serve-sim             # serving percentiles, all scenarios
    python -m repro serve-sim bursty --policy fixed --replicas 4
    python -m repro serve-sim diurnal --autoscale 1:8   # scale on queue depth
    python -m repro serve-sim diurnal --scale holt --slo 2000  # predictive
    python -m repro serve-sim overload --slo 1500 --shed 64   # SLO + shedding
    python -m repro serve-sim steady --fail 2 --replicas 3    # outage storm
    python -m repro serve-sim hot-model --flush edf --priority ResNet50=1
    python -m repro serve-sim bursty --steal --dispatch round_robin
    python -m repro serve-sim failure-storm --slo 3000 --resilience hedge
    python -m repro serve-sim bursty --slo 2000 --resilience retry:budget=1
    python -m repro serve-sim --persist-memo    # warm layer memo across runs
    python -m repro serve-sim bursty --trace out.jsonl  # telemetry trace
    python -m repro serve-sim steady --shards 4 --replicas 4 --requests 1000000
    python -m repro report                # fleet dashboard -> HTML
    python -m repro report --json         # ... or the report as JSON
    python -m repro report --rows grid.json --trace out.jsonl -o fleet.html
    python -m repro runs                  # recent runs from the ledger
    python -m repro cache                 # result-cache statistics
    python -m repro cache clear           # drop every cached result

Flags (anywhere on the line)::

    --json         machine-readable rows instead of tables
    --serial       run jobs inline instead of a worker pool
    --no-cache     bypass the content-addressed result cache
    --workers N    worker-pool width
    --limit N      how many ledger rows ``runs`` shows (default 20)
    --job-timeout S  per-job wall-clock bound; a hung job becomes a
                     per-job error instead of wedging the batch
"""

from __future__ import annotations

import ast
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass
from datetime import datetime
from typing import Optional

from repro.errors import ConfigError
from repro.eval import report
from repro.runtime import Job, ResultCache, RunStore, Runtime, Sweep
from repro.runtime import registry


def _figure_experiments() -> dict:
    """CLI name -> (callable, description), paper figures only."""
    return {e.name: (e.func, e.description)
            for e in registry.all_experiments() if e.figure}


#: Experiment registry view: CLI name -> (callable, description).
EXPERIMENTS = _figure_experiments()


@dataclass
class CliOptions:
    """Flags shared by every subcommand."""

    as_json: bool = False
    serial: bool = False
    no_cache: bool = False
    workers: Optional[int] = None
    limit: int = 20
    job_timeout: Optional[float] = None


def _parse_flags(argv: list[str]) -> tuple[CliOptions, list[str]]:
    """Split flags out of ``argv``; raises ConfigError on bad usage."""
    opts = CliOptions()
    args: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token == "--json":
            opts.as_json = True
        elif token == "--serial":
            opts.serial = True
        elif token == "--no-cache":
            opts.no_cache = True
        elif token.partition("=")[0] == "--job-timeout":
            name, eq, value = token.partition("=")
            if not eq:
                i += 1
                if i >= len(argv):
                    raise ConfigError("--job-timeout needs seconds")
                value = argv[i]
            try:
                seconds = float(value)
            except ValueError:
                raise ConfigError(
                    f"--job-timeout needs seconds, got {value!r}"
                ) from None
            if seconds <= 0:
                raise ConfigError("--job-timeout must be positive")
            opts.job_timeout = seconds
        elif token.partition("=")[0] in ("--workers", "--limit"):
            name, eq, value = token.partition("=")
            if eq and not value:
                raise ConfigError(f"{name} needs a number")
            if not eq:
                i += 1
                if i >= len(argv):
                    raise ConfigError(f"{name} needs a number")
                value = argv[i]
            try:
                number = int(value)
            except ValueError:
                raise ConfigError(f"{name} needs a number, got {value!r}")
            if number < 1:
                raise ConfigError(f"{name} must be >= 1")
            if name == "--workers":
                opts.workers = number
            else:
                opts.limit = number
        else:
            args.append(token)
        i += 1
    return opts, args


def _make_runtime(opts: CliOptions) -> Runtime:
    return Runtime(mode="inline" if opts.serial else "auto",
                   max_workers=opts.workers,
                   use_cache=not opts.no_cache,
                   job_timeout=opts.job_timeout)


def run(name: str) -> None:
    """Run one experiment serially and print its table."""
    experiment = registry.get(name)
    print(f"\n=== {name}: {experiment.description} ===")
    print(report.render_rows(experiment.func()))


def _print_results(results, opts: CliOptions) -> None:
    if opts.as_json:
        print(report.to_json([{
            "experiment": r.job.experiment,
            "params": dict(r.job.params),
            "cached": r.cached,
            "elapsed_s": r.elapsed_s,
            "error": r.error,
            "rows": r.rows,
        } for r in results]))
        return
    for r in results:
        experiment = registry.get(r.job.experiment)
        suffix = " [cached]" if r.cached else ""
        print(f"\n=== {r.job.label}: {experiment.description}{suffix} ===")
        if r.error:
            print(f"ERROR: {r.error}")
        else:
            print(report.render_rows(r.rows))


def _print_summary(runtime: Runtime) -> None:
    s = runtime.last_summary
    print(f"\n{s.jobs} job(s) in {s.wall_s:.2f}s wall "
          f"({s.cache_hits} cache hit(s), {s.executed} executed, "
          f"{s.errors} error(s))")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------
def _cmd_list() -> int:
    print(__doc__)
    experiments = registry.all_experiments()
    width = max(len(e.name) for e in experiments)
    for e in experiments:
        if e.figure:
            print(f"  {e.name.ljust(width)}  {e.description}")
    print("\nsweep targets:")
    for e in experiments:
        if not e.figure:
            print(f"  {e.name.ljust(width)}  {e.description}")
    return 0


def _cmd_run(names: list[str], opts: CliOptions) -> int:
    if names == ["all"]:
        names = [e.name for e in registry.all_experiments() if e.figure]
    unknown = [n for n in names if n not in registry.names()]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}; "
              f"try 'python -m repro list'")
        return 2
    runtime = _make_runtime(opts)
    results = runtime.run_jobs([Job(n) for n in names])
    _print_results(results, opts)
    if len(results) > 1 and not opts.as_json:
        _print_summary(runtime)
    return 1 if any(r.error for r in results) else 0


def _split_values(raw: str) -> list[str]:
    """Split on commas outside brackets, so ``(16,32),(64,128)`` works."""
    chunks, depth, current = [], 0, []
    for char in raw:
        if char in "([{":
            depth += 1
        elif char in ")]}":
            depth -= 1
        if char == "," and depth == 0:
            chunks.append("".join(current))
            current = []
        else:
            current.append(char)
    chunks.append("".join(current))
    return chunks


def _parse_param(token: str) -> tuple[str, list]:
    name, eq, raw = token.partition("=")
    if not eq or not name or not raw:
        raise ConfigError(f"bad --param {token!r}; expected name=v1,v2,...")
    values = []
    for chunk in _split_values(raw):
        try:
            values.append(ast.literal_eval(chunk))
        except (ValueError, SyntaxError):
            values.append(chunk)
    return name, values


def _cmd_sweep(args: list[str], opts: CliOptions) -> int:
    if not args:
        print("usage: python -m repro sweep <experiment> "
              "--param name=v1,v2,... [--param ...]")
        return 2
    name, rest = args[0], args[1:]
    grid = {}
    i = 0
    try:
        while i < len(rest):
            if rest[i] != "--param":
                raise ConfigError(f"unexpected argument {rest[i]!r}")
            if i + 1 >= len(rest):
                raise ConfigError("--param needs name=v1,v2,...")
            axis, values = _parse_param(rest[i + 1])
            grid[axis] = values
            i += 2
        sweep = Sweep(name, grid=grid)
        runtime = _make_runtime(opts)
        results = runtime.run_sweep(sweep)
    except ConfigError as exc:
        print(f"error: {exc}")
        return 2
    _print_results(results, opts)
    if not opts.as_json:
        _print_summary(runtime)
    return 1 if any(r.error for r in results) else 0


def _cmd_serve_sim(args: list[str], opts: CliOptions) -> int:
    """Serve simulated request traffic and print percentile rows."""
    from repro.models import model_names
    from repro.serving import (LayerMemoCache, POLICIES, Telemetry,
                               get_scenario)
    from repro.serving.experiments import (make_slo, parse_autoscale,
                                           parse_priorities,
                                           serving_grid)
    from repro.serving.memo import (load_persistent_memo,
                                    store_persistent_memo)
    from repro.serving.policies import (make_flush, make_resilience,
                                        make_scale)
    from repro.serving.sharding import validate_sharding
    from repro.serving.simulator import DISPATCH_STRATEGIES

    scenarios: list[str] = []
    policies = list(POLICIES)
    requests, replicas, batch_size, seed = 2000, 2, 8, 7
    accelerator, dispatch = "SMART", "round_robin"
    slo_us, shed_depth, autoscale, faults = 0.0, 0, "", 0
    flush, scale, steal, persist_memo = "fifo", "", False, False
    resilience = ""
    trace_path = ""
    shards, dispatch_given = 1, False
    replicas_given, accelerator_given = False, False
    geo_raw, geo_policy, topology, storms = "", "home", "mesh", 0
    priority_specs: list[str] = []
    try:
        i = 0
        while i < len(args):
            token = args[i]
            if token in ("--requests", "--replicas", "--batch-size",
                         "--seed", "--shed", "--fail", "--shards",
                         "--geo-storms"):
                if i + 1 >= len(args):
                    raise ConfigError(f"{token} needs a value")
                try:
                    value = int(args[i + 1])
                except ValueError:
                    raise ConfigError(
                        f"{token} needs a number, got {args[i + 1]!r}"
                    ) from None
                if (token not in ("--seed", "--fail", "--geo-storms")
                        and value < 1):
                    raise ConfigError(f"{token} must be >= 1")
                if token in ("--fail", "--geo-storms") and value < 0:
                    raise ConfigError(f"{token} must be >= 0")
                if token == "--requests":
                    requests = value
                elif token == "--replicas":
                    replicas = value
                    replicas_given = True
                elif token == "--batch-size":
                    batch_size = value
                elif token == "--shed":
                    shed_depth = value
                elif token == "--fail":
                    faults = value
                elif token == "--shards":
                    shards = value
                elif token == "--geo-storms":
                    storms = value
                else:
                    seed = value
                i += 2
            elif token == "--slo":
                if i + 1 >= len(args):
                    raise ConfigError("--slo needs a value")
                try:
                    slo_us = float(args[i + 1])
                except ValueError:
                    raise ConfigError(
                        f"--slo needs microseconds, got {args[i + 1]!r}"
                    ) from None
                if slo_us <= 0:
                    raise ConfigError("--slo must be positive")
                i += 2
            elif token == "--autoscale":
                if i + 1 >= len(args):
                    raise ConfigError("--autoscale needs MIN:MAX")
                autoscale = args[i + 1]
                parse_autoscale(autoscale)  # validate the spec early
                i += 2
            elif token == "--flush":
                if i + 1 >= len(args):
                    raise ConfigError("--flush needs a policy name "
                                      "(fifo or edf)")
                flush = args[i + 1]
                i += 2
            elif token == "--scale":
                if i + 1 >= len(args):
                    raise ConfigError("--scale needs a policy name "
                                      "(reactive, ewma or holt)")
                scale = args[i + 1]
                i += 2
            elif token == "--priority":
                if i + 1 >= len(args):
                    raise ConfigError("--priority needs model=N")
                priority_specs.append(args[i + 1])
                i += 2
            elif token == "--resilience":
                if i + 1 >= len(args):
                    raise ConfigError(
                        "--resilience needs a policy spec (none, "
                        "retry, hedge or degrade, with optional "
                        "name:key=value,... options)")
                resilience = args[i + 1]
                make_resilience(resilience)  # fail fast on a bad spec
                i += 2
            elif token == "--trace":
                if i + 1 >= len(args):
                    raise ConfigError("--trace needs an output path")
                trace_path = args[i + 1]
                i += 2
            elif token == "--geo":
                if i + 1 >= len(args):
                    raise ConfigError("--geo needs a region count or "
                                      "comma-separated stock region "
                                      "names")
                geo_raw = args[i + 1]
                i += 2
            elif token == "--geo-policy":
                if i + 1 >= len(args):
                    from repro.serving.policies import GEO_POLICIES
                    raise ConfigError(
                        "--geo-policy needs a name; known: "
                        f"{', '.join(GEO_POLICIES)}"
                    )
                geo_policy = args[i + 1]
                i += 2
            elif token == "--topology":
                if i + 1 >= len(args):
                    from repro.serving.interconnect import TOPOLOGIES
                    raise ConfigError(
                        "--topology needs a name; known: "
                        f"{', '.join(TOPOLOGIES)}"
                    )
                topology = args[i + 1]
                i += 2
            elif token == "--steal":
                steal = True
                i += 1
            elif token == "--persist-memo":
                persist_memo = True
                i += 1
            elif token in ("--policy", "--accelerator", "--dispatch"):
                if i + 1 >= len(args):
                    raise ConfigError(f"{token} needs a value")
                value = args[i + 1]
                if token == "--policy":
                    policies = value.split(",")
                    for name in policies:
                        if name not in POLICIES:
                            raise ConfigError(
                                f"unknown batching policy '{name}'; "
                                f"known: {', '.join(POLICIES)}"
                            )
                elif token == "--dispatch":
                    if value not in DISPATCH_STRATEGIES:
                        raise ConfigError(
                            f"unknown dispatch '{value}'; known: "
                            f"{', '.join(DISPATCH_STRATEGIES)}"
                        )
                    dispatch = value
                    dispatch_given = True
                else:
                    accelerator = value
                    accelerator_given = True
                i += 2
            elif token.startswith("-"):
                raise ConfigError(f"unknown serve-sim flag {token!r}")
            else:
                scenarios.append(token)
                i += 1
        from repro.core import make_accelerator
        make_accelerator(accelerator)  # validate before the grid runs
        res_policy = make_resilience(resilience)
        if res_policy is not None:
            # fail fast when the spec carries no deadline and there is
            # no SLO target to inherit one from
            res_policy.timeout_s(make_slo(slo_us, shed_depth))
        else:
            make_slo(slo_us, shed_depth)
        priority = ",".join(priority_specs)
        priorities = parse_priorities(priority)
        for model in priorities:
            if model not in model_names():
                raise ConfigError(
                    f"unknown model '{model}' in --priority; known: "
                    f"{', '.join(model_names())}"
                )
        make_flush(flush, priorities or None)  # validate the pair
        if scale:
            make_scale(scale, parse_autoscale(autoscale))
        for name in scenarios:
            get_scenario(name)
        geo_regions: tuple = ()
        if geo_raw:
            from repro.serving.geo import (STOCK_REGIONS,
                                           default_regions,
                                           validate_geo)
            try:
                geo_regions = default_regions(int(geo_raw))
            except ValueError:
                stock = {spec.name: spec for spec in STOCK_REGIONS}
                unknown = [n for n in geo_raw.split(",")
                           if n not in stock]
                if unknown:
                    raise ConfigError(
                        f"unknown region(s) {', '.join(unknown)}; "
                        f"stock regions: {', '.join(stock)}"
                    ) from None
                geo_regions = tuple(stock[n]
                                    for n in geo_raw.split(","))
            validate_geo(geo_regions, geo=geo_policy,
                         topology=topology, storms=storms)
            if shards > 1:
                raise ConfigError(
                    "cannot combine --geo with --shards: regions "
                    "already fan across worker processes"
                )
            if replicas_given or accelerator_given:
                raise ConfigError(
                    "--geo regions carry their own accelerator and "
                    "replica counts; drop --replicas/--accelerator"
                )
            if faults:
                raise ConfigError(
                    "--fail is not plumbed through --geo; use "
                    "--geo-storms for region-granularity outages or a "
                    "fault-carrying scenario (failure-storm)"
                )
            if (shed_depth or autoscale or scale or steal
                    or flush != "fifo" or priority_specs):
                raise ConfigError(
                    "--geo supports --policy/--dispatch/--slo/"
                    "--resilience/--trace/--persist-memo riders only; "
                    "shed, autoscale, scale, steal, flush and "
                    "priority are not plumbed through region engines"
                )
        elif geo_policy != "home" or topology != "mesh" or storms:
            raise ConfigError(
                "--geo-policy/--topology/--geo-storms need --geo"
            )
        if shards > 1:
            # a bare --shards N implies the shard-stable dispatch;
            # an explicit conflicting one is rejected below
            if not dispatch_given:
                dispatch = "shard"
            if flush != "fifo" or priority_specs:
                raise ConfigError(
                    "sharded runs use the default fifo flush; priority "
                    "flush queues are not plumbed across worker shards"
                )
            validate_sharding(shards, replicas=replicas,
                              dispatch=dispatch, autoscale=autoscale,
                              scale=scale, steal=steal, shed=shed_depth,
                              fail=faults, scenarios=scenarios,
                              resilience=resilience)
    except ConfigError as exc:
        print(f"error: {exc}")
        return 2

    if geo_regions:
        return _serve_sim_geo(
            opts, scenarios=scenarios, policies=policies,
            requests=requests, batch_size=batch_size, seed=seed,
            dispatch=dispatch, slo_us=slo_us, regions=geo_regions,
            geo_policy=geo_policy, topology=topology, storms=storms,
            trace_path=trace_path, resilience=resilience,
            persist_memo=persist_memo,
        )
    if shards > 1:
        return _serve_sim_sharded(
            opts, scenarios=scenarios, policies=policies,
            requests=requests, replicas=replicas,
            batch_size=batch_size, seed=seed, accelerator=accelerator,
            dispatch=dispatch, slo_us=slo_us, shards=shards,
            trace_path=trace_path, resilience=resilience,
            persist_memo=persist_memo,
        )

    cache = LayerMemoCache()
    memo_store = ResultCache() if persist_memo else None
    loaded = (load_persistent_memo(cache, memo_store)
              if persist_memo else 0)
    # 200us matches the autoscaler's default control-loop interval, so
    # a traced run without --scale still gets a metrics timeline
    telemetry = Telemetry(tick=200e-6) if trace_path else None
    rows = serving_grid(
        requests=requests, accelerator=accelerator, replicas=replicas,
        batch_size=batch_size, dispatch=dispatch, seed=seed,
        scenarios=scenarios or None, policies=policies, cache=cache,
        slo_us=slo_us, shed_depth=shed_depth, autoscale=autoscale,
        faults=faults, flush=flush, priority=priority, scale=scale,
        steal=steal, telemetry=telemetry, resilience=resilience,
    )
    stored = (store_persistent_memo(cache, memo_store)
              if persist_memo else 0)
    if telemetry is not None:
        telemetry.save(trace_path)
    if opts.as_json:
        print(report.to_json(rows))
        return 0
    extras = "".join(
        part for part, on in (
            (f", slo {slo_us:g}us", slo_us),
            (f", shed@{shed_depth}", shed_depth),
            (f", autoscale {autoscale}", autoscale),
            (f", scale {scale}", scale),
            (f", flush {flush}", flush != "fifo"),
            (", stealing", steal),
            (f", {faults} fault(s)", faults),
            (f", resilience {resilience}",
             resilience and resilience != "none"),
        ) if on
    )
    print(f"\n=== serve-sim: {accelerator} x{replicas} "
          f"({dispatch}), {requests} requests/scenario{extras} ===")
    print(report.render_rows(rows))
    if persist_memo and loaded and not len(cache):
        # a fully warm start: every lookup came from persisted totals,
        # so the layer-level memo never saw a single simulation
        print(f"\nlayer-memo: warm start, every lookup served from "
              f"the persisted pool ({cache.stats.hit_rate:.1%} hit "
              f"rate, 0 layer simulations)")
    else:
        print(f"\nlayer-memo: {len(cache)} distinct layer x batch "
              f"results, {cache.stats.hit_rate:.1%} hit rate")
    if persist_memo:
        print(f"persisted memo: {loaded} totals loaded, "
              f"{stored} stored")
    if telemetry is not None:
        print(f"telemetry trace: {trace_path} "
              f"({telemetry.counters['runs']} run(s), "
              f"{len(telemetry.rows)} row(s))")
    return 0


def _merged_telemetry(results: list, summary_rows=lambda result: ()):
    """One trace sink for a grid of fan-out runs: every worker's tagged
    rows (then ``summary_rows(result)``) and the summed counters."""
    from repro.serving import Telemetry

    telemetry = Telemetry()
    counters: Counter = Counter()
    for result in results:
        counters.update(result.counters)
        telemetry.rows.extend(result.telemetry_rows)
        telemetry.rows.extend(summary_rows(result))
    telemetry.counters.update(counters)
    return telemetry


def _serve_sim_sharded(opts: CliOptions, *, scenarios: list[str],
                       policies: list[str], requests: int,
                       replicas: int, batch_size: int, seed: int,
                       accelerator: str, dispatch: str, slo_us: float,
                       shards: int, trace_path: str,
                       resilience: str = "",
                       persist_memo: bool = False) -> int:
    """The ``serve-sim --shards N`` path: fan out, merge, report.

    Every cell's engine calibrates and prewarms through one shared
    parent-side memo, so the broadcast snapshot grows across cells;
    ``--persist-memo`` loads the persisted totals pool into that memo
    up front (a fully warm fleet) and stores it back after the grid.
    """
    from repro.serving import LayerMemoCache, SCENARIOS
    from repro.serving.memo import (load_persistent_memo,
                                    store_persistent_memo)
    from repro.serving.sharding import ShardedEngine

    memo_cache = LayerMemoCache()
    memo_store = ResultCache() if persist_memo else None
    loaded = (load_persistent_memo(memo_cache, memo_store)
              if persist_memo else 0)
    # fault-carrying scenarios are not shard-stable, so the default
    # grid skips them (asking for one explicitly is an exit-2 error)
    names = scenarios or [name for name, s in SCENARIOS.items()
                          if not s.faults]
    trace = bool(trace_path)
    rows: list[dict] = []
    results = []
    for name in names:
        for policy in policies:
            engine = ShardedEngine(
                shards, accelerator=accelerator, replicas=replicas,
                policy=policy, batch_size=batch_size, dispatch=dispatch,
                slo_us=slo_us, trace=trace, resilience=resilience,
                memo_cache=memo_cache,
            )
            result = engine.run_scenario(name, requests, seed)
            results.append(result)
            rows.append(result.to_row())
    stored = (store_persistent_memo(memo_cache, memo_store)
              if persist_memo else 0)
    if trace:
        # merge the shard-tagged worker traces into one JSONL sink
        telemetry = _merged_telemetry(results)
        telemetry.save(trace_path)
    if opts.as_json:
        print(report.to_json(rows))
        return 0
    total = sum(r.requests for r in results)
    wall = sum(r.wall_s for r in results)
    extras = f", slo {slo_us:g}us" if slo_us else ""
    print(f"\n=== serve-sim: {accelerator} x{replicas} ({dispatch}), "
          f"{requests} requests/scenario across {shards} shard "
          f"worker(s){extras} ===")
    print(report.render_rows(rows))
    print(f"\nscale-out: {total} requests simulated in {wall:.2f}s "
          f"wall ({total / wall:,.0f} aggregate req/s)" if wall
          else f"\nscale-out: {total} requests simulated")
    seeded = sum(r.cache.seeded for r in results)
    if seeded:
        print(f"warm fleet: {seeded} snapshot cells shipped, "
              f"{sum(r.cache.seed_hits for r in results)} warm hits "
              f"across shard workers")
    if persist_memo:
        print(f"persisted memo: {loaded} totals loaded, "
              f"{stored} stored")
    if trace:
        print(f"telemetry trace: {trace_path} "
              f"({len(telemetry.rows)} shard-tagged row(s))")
    return 0


def _serve_sim_geo(opts: CliOptions, *, scenarios: list[str],
                   policies: list[str], requests: int, batch_size: int,
                   seed: int, dispatch: str, slo_us: float,
                   regions: tuple, geo_policy: str, topology: str,
                   storms: int, trace_path: str,
                   resilience: str = "",
                   persist_memo: bool = False) -> int:
    """The ``serve-sim --geo REGIONS`` path: route, fan out, merge.

    All region calibrators share one parent-side memo (structural
    keying keeps the mixed backends apart), so the broadcast snapshot
    accumulates across cells; ``--persist-memo`` loads the persisted
    totals pool into it up front and stores it back after the grid.
    """
    from repro.serving import LayerMemoCache, SCENARIOS
    from repro.serving.geo import GeoResult, GeoRouter
    from repro.serving.memo import (load_persistent_memo,
                                    store_persistent_memo)

    memo_cache = LayerMemoCache()
    memo_store = ResultCache() if persist_memo else None
    loaded = (load_persistent_memo(memo_cache, memo_store)
              if persist_memo else 0)
    names = scenarios or list(SCENARIOS)
    trace = bool(trace_path)
    router = GeoRouter(
        regions, topology=topology, geo=geo_policy, storms=storms,
        policy=policies[0], batch_size=batch_size, dispatch=dispatch,
        slo_us=slo_us, trace=trace, resilience=resilience,
        memo_cache=memo_cache,
    )
    rows: list[dict] = []
    region_rows: list[dict] = []
    results = []
    for name in names:
        for policy in policies:
            router.policy = policy
            result = router.run_scenario(name, requests, seed)
            results.append(result)
            rows.append(result.to_row())
            region_rows.extend(
                {"scenario": name, "policy": policy, **row}
                for row in result.region_rows()
            )
    stored = (store_persistent_memo(memo_cache, memo_store)
              if persist_memo else 0)
    if trace:
        # one JSONL sink holding every region-tagged worker trace plus
        # the per-region summary rows the dashboard's geo table reads
        telemetry = _merged_telemetry(results,
                                      GeoResult.region_trace_rows)
        telemetry.save(trace_path)
    if opts.as_json:
        print(report.to_json(rows + region_rows))
        return 0
    total = sum(r.requests for r in results)
    wall = sum(r.wall_s for r in results)
    extras = "".join(
        part for part, on in (
            (f", slo {slo_us:g}us", slo_us),
            (f", {storms} region storm(s)", storms),
        ) if on
    )
    region_names = ", ".join(spec.name for spec in router.regions)
    print(f"\n=== serve-sim: geo[{len(router.regions)}] "
          f"({geo_policy} over {topology}), {requests} "
          f"requests/scenario{extras} ===")
    print(f"regions: {region_names}")
    print(report.render_rows(rows))
    print("\nper-region breakdown:")
    print(report.render_rows(region_rows))
    print(f"\ngeo scale-out: {total} requests simulated in "
          f"{wall:.2f}s wall ({total / wall:,.0f} aggregate req/s)"
          if wall else f"\ngeo scale-out: {total} requests simulated")
    seeded = sum(r.cache.seeded for r in results)
    if seeded:
        print(f"warm fleet: {seeded} snapshot cells shipped, "
              f"{sum(r.cache.seed_hits for r in results)} warm hits "
              f"across region workers")
    if persist_memo:
        print(f"persisted memo: {loaded} totals loaded, "
              f"{stored} stored")
    if trace:
        print(f"telemetry trace: {trace_path} "
              f"({len(telemetry.rows)} region-tagged row(s))")
    return 0


def _cmd_report(args: list[str], opts: CliOptions) -> int:
    """Build the fleet report (JSON and/or the HTML dashboard)."""
    from repro.eval.blocks import (load_bench, load_ledger,
                                   load_rows, load_telemetry)
    from repro.eval.dashboard import (DEFAULT_WINDOW, build_report,
                                      render_html, summary_rows)

    bench_path, ledger_path, out_path = "BENCH_serving.json", "", ""
    rows_paths: list[str] = []
    trace_paths: list[str] = []
    window = DEFAULT_WINDOW
    try:
        i = 0
        while i < len(args):
            token = args[i]
            if token in ("--bench", "--ledger", "--rows", "--trace",
                         "--out", "-o", "--window"):
                if i + 1 >= len(args):
                    raise ConfigError(f"{token} needs a value")
                value = args[i + 1]
                if token == "--bench":
                    bench_path = value
                elif token == "--ledger":
                    ledger_path = value
                elif token == "--rows":
                    rows_paths.append(value)
                elif token == "--trace":
                    trace_paths.append(value)
                elif token == "--window":
                    try:
                        window = int(value)
                    except ValueError:
                        raise ConfigError(
                            f"--window needs a number, got {value!r}"
                        ) from None
                    if window < 1:
                        raise ConfigError("--window must be >= 1")
                else:
                    out_path = value
            elif token.startswith("-"):
                raise ConfigError(f"unknown report flag {token!r}")
            else:
                raise ConfigError(f"unexpected report argument {token!r}")
            i += 2

        grid_rows: list[dict] = []
        for path in rows_paths:
            grid_rows.extend(load_rows(path))
        telemetry_rows: list[dict] = []
        for path in trace_paths:
            telemetry_rows.extend(load_telemetry(path))
        fleet = build_report(
            load_bench(bench_path),
            ledger_rows=load_ledger(ledger_path or None),
            grid_rows=grid_rows,
            telemetry_rows=telemetry_rows,
            window=window,
        )
    except ConfigError as exc:
        print(f"error: {exc}")
        return 2
    if opts.as_json:
        print(report.to_json(fleet))
        if out_path:  # HTML only when a destination was asked for
            _write_text(out_path, render_html(fleet))
        return 0
    out_path = out_path or "repro-report.html"
    _write_text(out_path, render_html(fleet))
    cells = summary_rows(fleet)
    if cells:
        print(report.render_rows(cells))
    else:
        print(f"no bench points in '{bench_path}'")
    runs = fleet["runs"]
    print(f"\nreport: {len(cells)} bench cell(s), {runs['total']} "
          f"ledger run(s), {len(fleet['timeline'])} telemetry "
          f"run(s) -> {out_path}")
    return 0


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _cmd_runs(args: list[str], opts: CliOptions) -> int:
    if args:
        print(f"unknown runs argument(s) {' '.join(args)!r}; "
              f"use --limit N to bound the listing")
        return 2
    store = RunStore()
    rows = [{
        "run_id": r.run_id,
        "experiment": r.experiment,
        "params": json.dumps(dict(r.params), sort_keys=True),
        "started": datetime.fromtimestamp(r.started).isoformat(
            timespec="seconds"),
        "elapsed_s": r.elapsed_s,
        "cached": r.cached,
        "rows": r.row_count,
        "error": r.error or "",
    } for r in store.recent(opts.limit)]
    print(report.render_rows(rows, as_json=opts.as_json))
    return 0


def _cmd_cache(args: list[str], opts: CliOptions) -> int:
    cache = ResultCache()
    if args == ["clear"]:
        removed = cache.clear()
        print(f"removed {removed} cache entr"
              f"{'y' if removed == 1 else 'ies'}")
        return 0
    if args and args != ["stats"]:
        print(f"unknown cache command {' '.join(args)!r}; "
              f"use 'cache' or 'cache clear'")
        return 2
    entries = cache.entries()
    if opts.as_json:
        print(report.to_json({
            "cache_dir": str(cache.cache_dir),
            "entries": entries,
        }))
        return 0
    total = sum(e["bytes"] for e in entries)
    print(f"cache dir: {cache.cache_dir} "
          f"({len(entries)} entries, {total / 1024:.1f} KiB)")
    rows = [{
        "experiment": e["experiment"],
        "params": json.dumps(e["params"], sort_keys=True),
        "rows": e["rows"],
        "elapsed_s": e["elapsed_s"],
        "kib": e["bytes"] / 1024,
    } for e in entries]
    print(report.render_rows(rows))
    return 0


def main(argv: list[str]) -> int:
    """CLI dispatcher; returns a process exit code."""
    try:
        opts, args = _parse_flags(list(argv))
    except ConfigError as exc:
        print(f"error: {exc}")
        return 2
    if not args or args[0] in ("-h", "--help", "list"):
        return _cmd_list()
    if args[0] == "sweep":
        return _cmd_sweep(args[1:], opts)
    if args[0] == "serve-sim":
        return _cmd_serve_sim(args[1:], opts)
    if args[0] == "report":
        return _cmd_report(args[1:], opts)
    if args[0] == "runs":
        return _cmd_runs(args[1:], opts)
    if args[0] == "cache":
        return _cmd_cache(args[1:], opts)
    return _cmd_run(args, opts)


def console_main() -> None:
    """``repro`` console-script entry point."""
    try:
        sys.exit(main(sys.argv[1:]))
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into `head`); exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    console_main()
