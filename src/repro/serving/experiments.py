"""Registry-facing serving experiments (``serving_*`` sweep targets).

These return plain dict rows like every other experiment, so the
runtime can cache them, sweep their parameters and render them through
the shared reporting path::

    repro sweep serving_grid --param replicas=1,2,4
    repro sweep serving_scaling --param replicas=1,2,4,8
    repro sweep serving_slo --param shed_depth=0,32,128
    repro sweep serving_autoscale --param scenario=diurnal,bursty
    repro sweep serving_forecast --param scale=reactive-p95,ewma,holt
    repro sweep serving_geo --param geo=home,follow_sun,cheapest_joule

Control-plane knobs arrive as plain scalars (microseconds, counts,
``"min:max"`` / ``"model=N"`` strings) so sweep parameters stay
JSON-serialisable for the content-addressed result cache; the policy
*objects* (:mod:`repro.serving.policies`) are built here.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.core import make_accelerator
from repro.errors import ConfigError
from repro.serving.batching import POLICIES, make_policy
from repro.serving.events import FailurePlan, SloPolicy
from repro.serving.memo import LayerMemoCache
from repro.serving.policies import (
    ForecastScalePolicy,
    ReactiveScalePolicy,
    WorkStealPolicy,
    make_flush,
    make_resilience,
    make_scale,
)
from repro.serving.sharding import ShardedEngine
from repro.serving.simulator import ServingSimulator
from repro.serving.telemetry import Telemetry
from repro.serving.workload import SCENARIOS, get_scenario


def parse_autoscale(spec: str, metric: str = "queue",
                    target_p95_us: float = 0.0
                    ) -> Optional[ReactiveScalePolicy]:
    """Build a :class:`ReactiveScalePolicy` from a ``"min:max"`` spec.

    Empty spec means no autoscaling; ``target_p95_us`` switches the
    metric to windowed p95 when positive.

    Raises:
        ConfigError: on malformed specs.
    """
    if not spec:
        return None
    head, sep, tail = spec.partition(":")
    try:
        low = int(head)
        high = int(tail) if sep else low
    except ValueError:
        raise ConfigError(
            f"bad autoscale spec {spec!r}; expected MIN:MAX"
        ) from None
    if target_p95_us > 0:
        return ReactiveScalePolicy(min_replicas=low, max_replicas=high,
                                   metric="p95",
                                   target_p95=target_p95_us * 1e-6)
    return ReactiveScalePolicy(min_replicas=low, max_replicas=high,
                               metric=metric)


def parse_priorities(spec) -> dict[str, int]:
    """Per-model priority classes from ``"model=N,model2=M"`` (or a
    mapping, passed through normalised).  Higher N is more urgent.

    Raises:
        ConfigError: on malformed entries or non-integer classes.
    """
    if not spec:
        return {}
    if isinstance(spec, Mapping):
        items = spec.items()
    else:
        items = []
        for chunk in str(spec).split(","):
            model, eq, value = chunk.partition("=")
            if not eq or not model:
                raise ConfigError(
                    f"bad priority {chunk!r}; expected model=N"
                )
            items.append((model, value))
    priorities = {}
    for model, value in items:
        try:
            priorities[str(model)] = int(value)
        except (TypeError, ValueError):
            raise ConfigError(
                f"priority class for '{model}' must be an integer, "
                f"got {value!r}"
            ) from None
    return priorities


def make_slo(slo_us: float, shed_depth: int = 0) -> Optional[SloPolicy]:
    """Build an :class:`SloPolicy` from microsecond / depth scalars.

    Raises:
        ConfigError: when shedding is requested without an SLO target.
    """
    if slo_us <= 0:
        if shed_depth:
            raise ConfigError("admission control needs an SLO target "
                              "(set slo_us / --slo)")
        return None
    return SloPolicy(target=slo_us * 1e-6,
                     shed_depth=shed_depth or None)


def serving_grid(requests: int = 2000, accelerator: str = "SMART",
                 replicas: int = 2, batch_size: int = 8,
                 dispatch: str = "round_robin", seed: int = 7,
                 scenarios: Optional[Sequence[str]] = None,
                 policies: Optional[Sequence[str]] = None,
                 cache: Optional[LayerMemoCache] = None,
                 slo_us: float = 0.0, shed_depth: int = 0,
                 autoscale: str = "", faults: int = 0,
                 flush: str = "fifo", priority=None,
                 scale: str = "", steal: bool = False,
                 telemetry: Optional[Telemetry] = None,
                 resilience: str = "") -> list[dict]:
    """Percentile rows for scenario x batching-policy cells.

    Defaults to every stock scenario and policy; ``repro serve-sim``
    narrows the grid through ``scenarios``/``policies`` and switches
    the control plane on through ``slo_us``/``shed_depth`` (SLO +
    admission control), ``autoscale`` (``"min:max"``), ``faults``
    (injected outages), ``flush``/``priority`` (``"edf"`` +
    ``"model=N"`` classes), ``scale`` (``"reactive"`` / ``"ewma"`` /
    ``"holt"`` over the autoscale bounds) and ``steal`` (work
    stealing on control ticks) and ``resilience`` (``"retry"`` /
    ``"hedge"`` / ``"degrade"`` with ``name:key=value`` options; a
    fresh policy instance per cell).  One shared memo cache serves the
    whole grid, so only the first cell pays for fresh layer
    simulations.  A ``telemetry`` sink, when given, records every
    cell's event trace and metrics timeline (``repro serve-sim
    --trace`` persists it).
    """
    config = make_accelerator(accelerator)
    cache = cache if cache is not None else LayerMemoCache()
    slo = make_slo(slo_us, shed_depth)
    bounds = parse_autoscale(autoscale)
    make_scale(scale, bounds)  # fail fast on a bad spec
    # flush policies are stateless (an immutable priority map), so one
    # instance serves the whole grid; scale policies carry forecast
    # state + calibration and are built fresh per cell below
    flush_policy = make_flush(flush, parse_priorities(priority) or None)
    if resilience:
        make_resilience(resilience)  # fail fast on a bad spec
    failures = FailurePlan(count=faults, seed=seed) if faults else None
    rows = []
    for scenario in [get_scenario(n) for n in scenarios or SCENARIOS]:
        for policy_name in policies or POLICIES:
            simulator = ServingSimulator(
                accelerator=config, replicas=replicas,
                policy=make_policy(policy_name, batch_size=batch_size),
                dispatch=dispatch, cache=cache, slo=slo,
                autoscale=make_scale(scale, bounds),
                failures=failures, flush=flush_policy,
                steal=WorkStealPolicy() if steal else None,
                telemetry=telemetry,
                resilience=make_resilience(resilience) if resilience
                else None,
            )
            result = simulator.run_scenario(scenario, requests, seed=seed)
            rows.append(result.to_row())
    return rows


def serving_scaling(scenario: str = "steady", policy: str = "timeout",
                    requests: int = 2000, accelerator: str = "SMART",
                    replicas: int | None = None, batch_size: int = 8,
                    dispatch: str = "least_loaded",
                    seed: int = 7) -> list[dict]:
    """Throughput/latency scaling with cluster width.

    ``replicas=None`` reports the 1/2/4/8 curve in one call; a single
    value makes it a one-row sweep target.
    """
    widths = (1, 2, 4, 8) if replicas is None else (int(replicas),)
    config = make_accelerator(accelerator)
    cache = LayerMemoCache()
    rows = []
    for width in widths:
        simulator = ServingSimulator(
            accelerator=config, replicas=width,
            policy=make_policy(policy, batch_size=batch_size),
            dispatch=dispatch, cache=cache,
        )
        result = simulator.run_scenario(scenario, requests, seed=seed)
        row = result.to_row()
        row["replicas"] = width
        rows.append(row)
    return rows


def serving_slo(scenario: str = "overload", policy: str = "timeout",
                requests: int = 2000, accelerator: str = "SMART",
                replicas: int = 2, batch_size: int = 8,
                dispatch: str = "least_loaded", seed: int = 7,
                slo_us: float = 1500.0,
                shed_depth: int = 0) -> list[dict]:
    """SLO attainment under load, with and without admission control.

    One row per call; sweep ``shed_depth`` (0 = never shed) or
    ``slo_us`` to map the attainment/shed-rate trade-off.
    """
    simulator = ServingSimulator(
        accelerator=make_accelerator(accelerator), replicas=replicas,
        policy=make_policy(policy, batch_size=batch_size),
        dispatch=dispatch, slo=make_slo(slo_us, shed_depth),
    )
    result = simulator.run_scenario(scenario, requests, seed=seed)
    row = result.to_row()
    row["shed_depth"] = shed_depth
    return [row]


def serving_autoscale(scenario: str = "diurnal", policy: str = "timeout",
                      requests: int = 2000, accelerator: str = "SMART",
                      min_replicas: int = 1, max_replicas: int = 8,
                      metric: str = "queue", target_p95_us: float = 0.0,
                      batch_size: int = 8,
                      dispatch: str = "least_loaded",
                      seed: int = 7) -> list[dict]:
    """Autoscaler behaviour on one scenario: pool swing + percentiles.

    ``target_p95_us > 0`` scales on windowed p95 instead of queue
    depth.
    """
    spec = f"{min_replicas}:{max_replicas}"
    simulator = ServingSimulator(
        accelerator=make_accelerator(accelerator), replicas=min_replicas,
        policy=make_policy(policy, batch_size=batch_size),
        dispatch=dispatch,
        autoscale=parse_autoscale(spec, metric=metric,
                                  target_p95_us=target_p95_us),
    )
    result = simulator.run_scenario(scenario, requests, seed=seed)
    row = result.to_row()
    row.setdefault("replicas_low", result.low_replicas)
    row.setdefault("replicas_peak", result.peak_replicas)
    row["scale_ups"] = sum(1 for _, a in result.scale_events if a == "up")
    row["scale_downs"] = sum(1 for _, a in result.scale_events
                             if a == "down")
    return [row]


#: Scale-policy specs ``serving_forecast`` compares by default.
FORECAST_MODES = ("reactive-queue", "reactive-p95", "ewma", "holt")


def serving_forecast(scenario: str = "diurnal", policy: str = "timeout",
                     requests: int = 2000, accelerator: str = "SMART",
                     min_replicas: int = 1, max_replicas: int = 6,
                     batch_size: int = 8,
                     dispatch: str = "least_loaded", seed: int = 7,
                     slo_us: float = 2000.0, alpha: float = 0.3,
                     beta: float = 0.1,
                     target_utilization: float = 0.6,
                     scale: str = "") -> list[dict]:
    """Reactive vs predictive autoscaling: SLO attainment per joule.

    One row per scale policy (all of :data:`FORECAST_MODES` unless
    ``scale`` picks one), each serving the same diurnal-style trace
    from ``min_replicas`` with the same SLO: the reactive policies
    chase the crest (queue depth, or windowed p95 against the SLO
    target), the predictive ones (:class:`ForecastScalePolicy`
    EWMA / Holt) scale ahead of it off the engine's arrival-rate
    history.  ``attain_per_j`` = SLO attainment / total energy
    (served + wasted) is the figure of merit.
    """
    modes = (scale,) if scale else FORECAST_MODES
    cache = LayerMemoCache()
    rows = []
    for mode in modes:
        if mode == "reactive-queue":
            scaling = ReactiveScalePolicy(min_replicas=min_replicas,
                                          max_replicas=max_replicas,
                                          metric="queue")
        elif mode == "reactive-p95":
            scaling = ReactiveScalePolicy(min_replicas=min_replicas,
                                          max_replicas=max_replicas,
                                          metric="p95",
                                          target_p95=slo_us * 1e-6)
        elif mode in ("ewma", "holt"):
            scaling = ForecastScalePolicy(
                min_replicas=min_replicas, max_replicas=max_replicas,
                mode=mode, alpha=alpha, beta=beta,
                target_utilization=target_utilization)
        else:
            raise ConfigError(
                f"unknown forecast mode '{mode}'; known: "
                f"{', '.join(FORECAST_MODES)}"
            )
        simulator = ServingSimulator(
            accelerator=make_accelerator(accelerator),
            replicas=min_replicas,
            policy=make_policy(policy, batch_size=batch_size),
            dispatch=dispatch, cache=cache, slo=make_slo(slo_us),
            autoscale=scaling,
        )
        result = simulator.run_scenario(scenario, requests, seed=seed)
        rows.append({
            "scale": mode,
            "scenario": result.scenario,
            "slo_attain": result.slo_attainment,
            "p95_us": result.latency_percentile(95) * 1e6,
            "p99_us": result.latency_percentile(99) * 1e6,
            "energy_total_uj": result.total_energy * 1e6,
            "attain_per_j": result.attainment_per_joule,
            "replicas_low": result.low_replicas,
            "replicas_peak": result.peak_replicas,
            "scale_ups": sum(1 for _, a in result.scale_events
                             if a == "up"),
            "scale_downs": sum(1 for _, a in result.scale_events
                               if a == "down"),
        })
    return rows


def serving_scale(scenario: str = "steady", policy: str = "timeout",
                  requests: int = 100_000, accelerator: str = "SMART",
                  replicas: int = 4, batch_size: int = 8,
                  shards: int = 4, seed: int = 7,
                  slo_us: float = 0.0, mode: str = "process",
                  scenarios: Optional[Sequence[str]] = None
                  ) -> list[dict]:
    """Sharded scale-out: aggregate req/s across worker processes.

    One row per scenario: the trace is deterministically sharded
    (:class:`~repro.serving.sharding.ShardedEngine`), each shard
    streams its slice through an independent engine in its own worker
    process, and the merged row reports exact counters/energy plus
    exact percentiles (each shard ships its sorted latency column, 8
    bytes per served request) and ``agg_rps`` — simulated requests per
    second of wall time, the scale-out headline.  Only shard-stable cells are
    legal (``shard`` dispatch, no autoscale/steal/shed/faults);
    anything else raises :class:`~repro.errors.ConfigError`.
    """
    engine = ShardedEngine(
        shards=shards, accelerator=accelerator, replicas=replicas,
        policy=policy, batch_size=batch_size, slo_us=slo_us, mode=mode,
    )
    rows = []
    for name in scenarios or (scenario,):
        result = engine.run_scenario(name, requests, seed=seed)
        row = result.to_row()
        row["replicas"] = replicas
        row["wall_s"] = result.wall_s
        rows.append(row)
    return rows


def serving_geo(scenario: str = "diurnal", policy: str = "timeout",
                requests: int = 20_000, regions: int = 4,
                topology: str = "ring", geo: str = "follow_sun",
                storms: int = 0, batch_size: int = 8, seed: int = 7,
                slo_us: float = 0.0, mode: str = "process",
                scenarios: Optional[Sequence[str]] = None
                ) -> list[dict]:
    """Geo-distributed serving: per-region engines behind a router.

    One aggregate row per scenario plus one row per region (tagged
    with its ``region`` name): the :class:`~repro.serving.geo.
    GeoRouter` admits region-local request streams, routes each
    request with the ``geo`` policy over the ``topology``
    interconnect, charges deterministic network delay, and merges the
    per-region outcomes exactly.  Sweep ``geo`` to compare routing
    policies (``repro sweep serving_geo --param
    geo=home,follow_sun,cheapest_joule,spillover``).
    """
    from repro.serving.geo import GeoRouter

    router = GeoRouter(regions, topology=topology, geo=geo,
                       storms=storms, policy=policy,
                       batch_size=batch_size, slo_us=slo_us,
                       mode=mode)
    rows = []
    for name in scenarios or (scenario,):
        result = router.run_scenario(name, requests, seed=seed)
        row = result.to_row()
        row["wall_s"] = result.wall_s
        rows.append(row)
        rows.extend({"scenario": name, "policy": policy, "geo": geo,
                     **region_row}
                    for region_row in result.region_rows())
    return rows


def _register() -> None:
    from repro.runtime.registry import register_experiment

    register_experiment(
        "serving_grid", serving_grid,
        "serving percentiles, every scenario x policy; params: "
        "requests, accelerator, replicas, batch_size, dispatch, seed, "
        "slo_us, shed_depth, autoscale, faults",
        figure=False)
    register_experiment(
        "serving_scaling", serving_scaling,
        "serving throughput vs cluster width; params: scenario, "
        "policy, requests, accelerator, replicas, batch_size, "
        "dispatch, seed", figure=False)
    register_experiment(
        "serving_slo", serving_slo,
        "SLO attainment / shed-rate under load; params: scenario, "
        "policy, requests, replicas, slo_us, shed_depth, dispatch, "
        "seed", figure=False)
    register_experiment(
        "serving_autoscale", serving_autoscale,
        "autoscaler pool swing + percentiles; params: scenario, "
        "policy, requests, min_replicas, max_replicas, metric, "
        "target_p95_us, dispatch, seed", figure=False)
    register_experiment(
        "serving_scale", serving_scale,
        "sharded scale-out across worker processes, aggregate req/s; "
        "params: scenario, policy, requests, replicas, batch_size, "
        "shards, seed, slo_us, mode", figure=False)
    register_experiment(
        "serving_geo", serving_geo,
        "geo-distributed fleet: per-region engines behind a routing "
        "interconnect; params: scenario, policy, requests, regions, "
        "topology, geo, storms, batch_size, seed, slo_us, mode",
        figure=False)
    register_experiment(
        "serving_forecast", serving_forecast,
        "reactive vs predictive autoscaling, SLO attainment/joule; "
        "params: scenario, policy, requests, min_replicas, "
        "max_replicas, slo_us, alpha, beta, target_utilization, "
        "scale, dispatch, seed", figure=False)


_register()
