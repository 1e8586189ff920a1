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
    --serial       run jobs inline instead of a worker pool (also the
                   serve-sim --shards/--geo fan-outs)
    --no-cache     bypass the content-addressed result cache
    --workers N    worker-pool width (also the serve-sim fan-outs)
    --limit N      how many ledger rows ``runs`` shows (default 20)
    --job-timeout S  per-job wall-clock bound; a hung job becomes a
                     per-job error instead of wedging the batch
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
from collections import Counter
from datetime import datetime

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


class _Parser(argparse.ArgumentParser):
    """argparse with exact flag names and no ``-h``, whose usage errors
    raise :class:`ConfigError` instead of exiting: each subcommand
    prints them as ``error: ...`` and returns exit code 2."""

    def __init__(self, prog: str) -> None:
        super().__init__(prog=prog, add_help=False, allow_abbrev=False)

    def error(self, message: str):
        raise ConfigError(message)


def _number(cast, low, *, strict: bool = False):
    """``type=`` for a numeric flag bounded below by ``low``."""
    def number(text: str):
        value = cast(text)
        if value < low or (strict and value == low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}")
        return value
    return number


def _checked(validate):
    """``type=`` that runs a library validator and keeps the text; the
    validator's ConfigError passes argparse untouched."""
    def text(value: str) -> str:
        validate(value)
        return value
    return text


def _global_parser() -> _Parser:
    """The flags every subcommand shares."""
    parser = _Parser("repro")
    parser.add_argument("--json", dest="as_json", action="store_true")
    parser.add_argument("--serial", action="store_true")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--workers", type=_number(int, 1))
    parser.add_argument("--limit", type=_number(int, 1), default=20)
    parser.add_argument("--job-timeout",
                        type=_number(float, 0, strict=True))
    return parser


def _make_runtime(opts: argparse.Namespace) -> Runtime:
    return Runtime(mode="inline" if opts.serial else "auto",
                   max_workers=opts.workers,
                   use_cache=not opts.no_cache,
                   job_timeout=opts.job_timeout)


def run(name: str) -> None:
    """Run one experiment serially and print its table."""
    experiment = registry.get(name)
    print(f"\n=== {name}: {experiment.description} ===")
    print(report.render_rows(experiment.func()))


def _print_results(results, opts: argparse.Namespace) -> None:
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


def _cmd_run(names: list[str], opts: argparse.Namespace) -> int:
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


def _cmd_sweep(argv: list[str], opts: argparse.Namespace) -> int:
    parser = _Parser("repro sweep")
    parser.add_argument("experiment")
    parser.add_argument("--param", action="append", default=[],
                        type=_parse_param)
    try:
        args = parser.parse_args(argv)
        runtime = _make_runtime(opts)
        results = runtime.run_sweep(Sweep(args.experiment,
                                          grid=dict(args.param)))
    except ConfigError as exc:
        print(f"error: {exc}")
        return 2
    _print_results(results, opts)
    if not opts.as_json:
        _print_summary(runtime)
    return 1 if any(r.error for r in results) else 0


def _regions(text: str) -> tuple:
    """``--geo``: a stock-region count or comma-separated stock names."""
    from repro.serving.geo import STOCK_REGIONS, default_regions

    try:
        count = int(text)
    except ValueError:
        stock = {spec.name: spec for spec in STOCK_REGIONS}
        unknown = [n for n in text.split(",") if n not in stock]
        if unknown:
            raise ConfigError(
                f"unknown region(s) {', '.join(unknown)}; "
                f"stock regions: {', '.join(stock)}"
            ) from None
        return tuple(stock[n] for n in text.split(","))
    return default_regions(count)


def _serve_sim_args(argv: list[str]) -> argparse.Namespace:
    """Parse ``serve-sim`` flags and check them against each other.

    Serves nothing.  The returned namespace is what the runner reads,
    with ``replicas``, ``accelerator`` and ``dispatch`` filled in.

    Raises:
        ConfigError: on any usage error.
    """
    from repro.core import make_accelerator
    from repro.models import model_names
    from repro.serving import POLICIES, get_scenario
    from repro.serving.experiments import (make_slo, parse_autoscale,
                                           parse_priorities)
    from repro.serving.geo import validate_geo
    from repro.serving.policies import (make_flush, make_resilience,
                                        make_scale)
    from repro.serving.sharding import validate_sharding
    from repro.serving.simulator import DISPATCH_STRATEGIES

    def policies(text: str) -> list[str]:
        names = text.split(",")
        for name in names:
            if name not in POLICIES:
                raise ConfigError(f"unknown batching policy '{name}'; "
                                  f"known: {', '.join(POLICIES)}")
        return names

    count, natural = _number(int, 1), _number(int, 0)
    parser = _Parser("repro serve-sim")
    add = parser.add_argument
    add("scenarios", nargs="*")
    add("--policy", dest="policies", type=policies,
        default=list(POLICIES))
    add("--requests", type=count, default=2000)
    add("--replicas", type=count)  # None: 2, or the regions' own
    add("--batch-size", type=count, default=8)
    add("--seed", type=int, default=7)
    add("--accelerator", type=_checked(make_accelerator))
    add("--dispatch", choices=DISPATCH_STRATEGIES)
    add("--slo", type=_number(float, 0, strict=True), default=0.0)
    add("--shed", type=count, default=0)
    add("--autoscale", type=_checked(parse_autoscale), default="")
    add("--scale", default="")
    add("--fail", type=natural, default=0)
    add("--flush", default="fifo")
    add("--priority", action="append", default=[])
    add("--steal", action="store_true")
    add("--resilience", type=_checked(make_resilience), default="")
    add("--persist-memo", action="store_true")
    add("--trace", default="")
    add("--shards", type=count, default=1)
    add("--geo", dest="regions", type=_regions, default=())
    add("--geo-policy", default="home")
    add("--topology", default="mesh")
    add("--geo-storms", type=natural, default=0)
    # scenarios may sit before, between or after the flags; they are
    # checked after parsing, so `--req 5` names the flag, not '5'
    args = parser.parse_intermixed_args(argv)

    slo = make_slo(args.slo, args.shed)
    resilience = make_resilience(args.resilience)
    if resilience is not None:
        # fail fast when the spec carries no deadline and there is no
        # SLO target to inherit one from
        resilience.timeout_s(slo)
    priorities = parse_priorities(",".join(args.priority))
    for model in priorities:
        if model not in model_names():
            raise ConfigError(
                f"unknown model '{model}' in --priority; known: "
                f"{', '.join(model_names())}"
            )
    make_flush(args.flush, priorities or None)  # validate the pair
    if args.scale:
        make_scale(args.scale, parse_autoscale(args.autoscale))
    for name in args.scenarios:
        get_scenario(name)
    if args.regions:
        validate_geo(args.regions, geo=args.geo_policy,
                     topology=args.topology, storms=args.geo_storms)
        if args.requests < len(args.regions):
            raise ConfigError(
                f"geo runs need at least one request per region "
                f"({args.requests} requests over {len(args.regions)} "
                f"regions)"
            )
        if args.shards > 1:
            raise ConfigError(
                "cannot combine --geo with --shards: regions "
                "already fan across worker processes"
            )
        if args.replicas is not None or args.accelerator is not None:
            raise ConfigError(
                "--geo regions carry their own accelerator and "
                "replica counts; drop --replicas/--accelerator"
            )
        if args.fail:
            raise ConfigError(
                "--fail is not plumbed through --geo; use "
                "--geo-storms for region-granularity outages or a "
                "fault-carrying scenario (failure-storm)"
            )
        if (args.shed or args.autoscale or args.scale or args.steal
                or args.flush != "fifo" or args.priority):
            raise ConfigError(
                "--geo supports --policy/--dispatch/--slo/"
                "--resilience/--trace/--persist-memo riders only; "
                "shed, autoscale, scale, steal, flush and "
                "priority are not plumbed through region engines"
            )
    elif (args.geo_policy != "home" or args.topology != "mesh"
            or args.geo_storms):
        raise ConfigError("--geo-policy/--topology/--geo-storms need --geo")
    args.replicas = args.replicas or 2
    args.accelerator = args.accelerator or "SMART"
    if args.shards > 1:
        # a bare --shards N implies the shard-stable dispatch; an
        # explicit conflicting one is rejected by validate_sharding
        args.dispatch = args.dispatch or "shard"
        if args.flush != "fifo" or args.priority:
            raise ConfigError(
                "sharded runs use the default fifo flush; priority "
                "flush queues are not plumbed across worker shards"
            )
        validate_sharding(args.shards, replicas=args.replicas,
                          dispatch=args.dispatch,
                          autoscale=args.autoscale, scale=args.scale,
                          steal=args.steal, shed=args.shed,
                          fail=args.fail, scenarios=args.scenarios,
                          resilience=args.resilience)
    args.dispatch = args.dispatch or "round_robin"
    return args


def _cmd_serve_sim(argv: list[str], opts: argparse.Namespace) -> int:
    """Serve simulated request traffic and print percentile rows.

    The plain grid runs in-process through ``serving_grid``; ``--shards``
    and ``--geo`` fan each cell out through one engine.  Every path
    resolves its layers through one shared memo, so ``--persist-memo``
    loads the persisted totals pool into it up front and stores it
    back after the grid.
    """
    try:
        args = _serve_sim_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}")
        return 2
    from repro.serving import (SCENARIOS, GeoRouter, LayerMemoCache,
                               ShardedEngine, Telemetry)
    from repro.serving.experiments import serving_grid
    from repro.serving.memo import (load_persistent_memo,
                                    store_persistent_memo)

    memo = LayerMemoCache()
    memo_store = ResultCache() if args.persist_memo else None
    loaded = (load_persistent_memo(memo, memo_store)
              if args.persist_memo else 0)
    geo = bool(args.regions)
    fan_out = geo or args.shards > 1
    results: list = []
    telemetry = None
    if fan_out:
        cell = dict(policy=args.policies[0], batch_size=args.batch_size,
                    dispatch=args.dispatch, slo_us=args.slo,
                    mode="inline" if opts.serial else "process",
                    max_workers=opts.workers, trace=bool(args.trace),
                    resilience=args.resilience, memo_cache=memo)
        engine = (GeoRouter(args.regions, topology=args.topology,
                            geo=args.geo_policy, storms=args.geo_storms,
                            **cell) if geo
                  else ShardedEngine(args.shards, replicas=args.replicas,
                                     accelerator=args.accelerator, **cell))
        # fault-carrying scenarios are not shard-stable, so the default
        # sharded grid skips them (asking for one is an exit-2 error)
        names = args.scenarios or [name for name, s in SCENARIOS.items()
                                   if geo or not s.faults]
        for name in names:
            for policy in args.policies:
                engine.policy = policy
                results.append(engine.run_scenario(name, args.requests,
                                                   args.seed))
        rows = [result.to_row() for result in results]
        if args.trace:
            # one JSONL sink: every worker's tagged rows (plus the geo
            # per-region summary rows the dashboard reads) and the
            # summed counters
            telemetry, counters = Telemetry(), Counter()
            for result in results:
                counters.update(result.counters)
                telemetry.rows.extend(result.telemetry_rows)
                if geo:
                    telemetry.rows.extend(result.region_trace_rows())
            telemetry.counters.update(counters)
    else:
        # 200us matches the autoscaler's default control-loop interval,
        # so a traced run without --scale still gets a metrics timeline
        telemetry = Telemetry(tick=200e-6) if args.trace else None
        rows = serving_grid(
            requests=args.requests, accelerator=args.accelerator,
            replicas=args.replicas, batch_size=args.batch_size,
            dispatch=args.dispatch, seed=args.seed,
            scenarios=args.scenarios or None, policies=args.policies,
            cache=memo, slo_us=args.slo, shed_depth=args.shed,
            autoscale=args.autoscale, faults=args.fail, flush=args.flush,
            priority=",".join(args.priority), scale=args.scale,
            steal=args.steal, telemetry=telemetry,
            resilience=args.resilience,
        )
    stored = (store_persistent_memo(memo, memo_store)
              if args.persist_memo else 0)
    if telemetry is not None:
        telemetry.save(args.trace)
    region_rows = [{"scenario": r.scenario, "policy": r.policy, **row}
                   for r in results for row in r.region_rows()] \
        if geo else []
    if opts.as_json:
        print(report.to_json(rows + region_rows))
        return 0

    fleet = (f"geo[{len(args.regions)}] ({args.geo_policy} over "
             f"{args.topology})" if geo
             else f"{args.accelerator} x{args.replicas} ({args.dispatch})")
    extras = "".join(part for part, on in (
        (f" across {args.shards} shard worker(s)", args.shards > 1),
        (f", slo {args.slo:g}us", args.slo),
        (f", shed@{args.shed}", args.shed),
        (f", autoscale {args.autoscale}", args.autoscale),
        (f", scale {args.scale}", args.scale),
        (f", flush {args.flush}", args.flush != "fifo"),
        (", stealing", args.steal),
        (f", {args.fail} fault(s)", args.fail),
        (f", {args.geo_storms} region storm(s)", args.geo_storms),
        # the fan-out headers never listed the resilience spec
        (f", resilience {args.resilience}",
         not fan_out and args.resilience not in ("", "none")),
    ) if on)
    print(f"\n=== serve-sim: {fleet}, {args.requests} "
          f"requests/scenario{extras} ===")
    if geo:
        print(f"regions: {', '.join(spec.name for spec in args.regions)}")
    print(report.render_rows(rows))
    if geo:
        print("\nper-region breakdown:")
        print(report.render_rows(region_rows))
    worker = "region" if geo else "shard"
    if fan_out:
        label = "geo scale-out" if geo else "scale-out"
        total = sum(r.requests for r in results)
        wall = sum(r.wall_s for r in results)
        print(f"\n{label}: {total} requests simulated in {wall:.2f}s "
              f"wall ({total / wall:,.0f} aggregate req/s)" if wall
              else f"\n{label}: {total} requests simulated")
        seeded = sum(r.cache.seeded for r in results)
        if seeded:
            print(f"warm fleet: {seeded} snapshot cells shipped, "
                  f"{sum(r.cache.seed_hits for r in results)} warm hits "
                  f"across {worker} workers")
    elif args.persist_memo and loaded and not len(memo):
        # a fully warm start: every lookup came from persisted totals,
        # so the layer-level memo never saw a single simulation
        print(f"\nlayer-memo: warm start, every lookup served from "
              f"the persisted pool ({memo.stats.hit_rate:.1%} hit "
              f"rate, 0 layer simulations)")
    else:
        print(f"\nlayer-memo: {len(memo)} distinct layer x batch "
              f"results, {memo.stats.hit_rate:.1%} hit rate")
    if args.persist_memo:
        print(f"persisted memo: {loaded} totals loaded, "
              f"{stored} stored")
    if telemetry is not None:
        runs = "" if fan_out else f"{telemetry.counters['runs']} run(s), "
        tag = f"{worker}-tagged " if fan_out else ""
        print(f"telemetry trace: {args.trace} ({runs}"
              f"{len(telemetry.rows)} {tag}row(s))")
    return 0


def _cmd_report(argv: list[str], opts: argparse.Namespace) -> int:
    """Build the fleet report (JSON and/or the HTML dashboard)."""
    from repro.eval.blocks import (load_bench, load_ledger,
                                   load_rows, load_telemetry)
    from repro.eval.dashboard import (DEFAULT_WINDOW, build_report,
                                      render_html, summary_rows)

    parser = _Parser("repro report")
    parser.add_argument("--bench", default="BENCH_serving.json")
    parser.add_argument("--ledger", default="")
    parser.add_argument("--rows", action="append", default=[])
    parser.add_argument("--trace", action="append", default=[])
    parser.add_argument("--out", "-o", default="")
    parser.add_argument("--window", type=_number(int, 1),
                        default=DEFAULT_WINDOW)
    try:
        args = parser.parse_args(argv)
        fleet = build_report(
            load_bench(args.bench),
            ledger_rows=load_ledger(args.ledger or None),
            grid_rows=[row for path in args.rows
                       for row in load_rows(path)],
            telemetry_rows=[row for path in args.trace
                            for row in load_telemetry(path)],
            window=args.window,
        )
    except ConfigError as exc:
        print(f"error: {exc}")
        return 2
    if opts.as_json:
        print(report.to_json(fleet))
        if args.out:  # HTML only when a destination was asked for
            _write_text(args.out, render_html(fleet))
        return 0
    out_path = args.out or "repro-report.html"
    _write_text(out_path, render_html(fleet))
    cells = summary_rows(fleet)
    if cells:
        print(report.render_rows(cells))
    else:
        print(f"no bench points in '{args.bench}'")
    runs = fleet["runs"]
    print(f"\nreport: {len(cells)} bench cell(s), {runs['total']} "
          f"ledger run(s), {len(fleet['timeline'])} telemetry "
          f"run(s) -> {out_path}")
    return 0


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _cmd_runs(args: list[str], opts: argparse.Namespace) -> int:
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


def _cmd_cache(args: list[str], opts: argparse.Namespace) -> int:
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
        # unknown tokens keep their order, so the shared flags work
        # anywhere on the line and the rest goes to the subcommand
        opts, args = _global_parser().parse_known_args(list(argv))
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
