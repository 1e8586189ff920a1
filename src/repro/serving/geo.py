"""Geo-distributed serving: a router over per-region cluster engines.

A :class:`GeoRouter` run simulates one *planet-scale* trace: every
region admits its own seeded request stream (with its local-time
diurnal crest), a :class:`~repro.serving.policies.GeoDispatchPolicy`
decides which region *serves* each request, and the interconnect
(:mod:`repro.serving.interconnect`) charges the cross-region transfer
as a delivery delay — the request's effective arrival at its serving
region is its admission instant plus the deterministic comm-time.
Each region then runs as an independent
:class:`~repro.serving.events.ClusterEngine` in its own worker
process.  Region == shard, literally: the fan-out is the sharded core
in :mod:`repro.serving.sharding` — the same partition worker body,
the same crash-safe driver (a raising or killed region worker is
re-run with capped backoff), and the same exact merge of
:class:`~repro.serving.sharding.ShardOutcome` summaries.  A region's
only own parts are its request source (its routed delivery columns),
its replica-fault plan, and the network ledger and per-region SLO
attainment and energy-cost rows that :class:`GeoResult` adds.

Why this is exact: routing is a pure function of the admission
instant, the home region, and the static fleet plan (capacities,
prices, diurnal phases, interconnect, outage windows) — never of live
engine state — so the parent routes every request exactly once,
before any region engine runs, and hands each worker only its own
deliveries: compact columns (global request id, model, delivered
arrival, home region) already in delivery order.  No worker generates
a trace or replays the scan.  The parent draws each region's
admissions as arrival and model columns, merges them, and re-sorts
the routed requests into delivery order through a plain heap of
``(deliver, admission sequence, ...)`` tuples with bounded buffering:
a delivery can pop as soon as the scan's current admission time
passes it, because every future delivery lands no earlier than its
own (future) admission.

The zero-drift anchor: with one region and stock policies the
regional stream *is* the global trace (same seed, same rate, zero
interconnect delay), so the geo path is bit-identical to the plain
:class:`~repro.serving.simulator.ServingSimulator` run — per-request
latencies and energies — on every stock scenario x policy cell
(``tests/test_serving_geo.py`` holds it there).
"""

from __future__ import annotations

import heapq
import math
import random
from array import array
from collections import deque
from dataclasses import dataclass, replace
from itertools import repeat
from time import perf_counter
from typing import Optional, Sequence

from repro.errors import ConfigError
from repro.serving.batching import make_policy
from repro.serving.events import FailurePlan
from repro.serving.interconnect import REQUEST_BYTES, Interconnect
from repro.serving.memo import LayerMemoCache, MemoSnapshot
from repro.serving.policies import (
    GeoDispatchPolicy,
    RegionFailurePlan,
    make_geo,
    make_resilience,
)
from repro.serving.sharding import (
    FanOutResult,
    ShardOutcome,
    _fan_out,
    _serve_partition,
    _spec,
    _warm_cells,
)
from repro.serving.simulator import ServingSimulator
from repro.serving.workload import (
    Request,
    Scenario,
    get_scenario,
    shard_seeds,
)

__all__ = [
    "GeoResult",
    "GeoRouter",
    "RegionOutcome",
    "RegionSpec",
    "STOCK_REGIONS",
    "default_regions",
    "validate_geo",
]


@dataclass(frozen=True)
class RegionSpec:
    """One serving region of the geo fleet.

    Attributes:
        name: region label (unique within a fleet).
        accelerator: replica configuration scheme (any
            :func:`~repro.core.configs.make_accelerator` scheme —
            the AQFP / SNN backends give regions real service/energy
            diversity).
        replicas: region pool width.
        price: grid energy price (USD per MJ) — what
            ``cheapest_joule`` routing minimises.
        tz: timezone offset of the diurnal wave, in cycle fractions
            (``3/24`` = three hours east of the reference clock).
    """

    name: str
    accelerator: str = "SMART"
    replicas: int = 2
    price: float = 0.09
    tz: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("region name cannot be empty")
        if self.replicas < 1:
            raise ConfigError("region needs at least one replica")
        if self.price < 0:
            raise ConfigError("energy price must be >= 0")
        if not math.isfinite(self.tz):
            raise ConfigError("timezone offset must be finite")


#: The stock fleet palette ``serve-sim --geo N`` draws from: mixed
#: superconductor backends, cheap-to-dear grids, staggered clocks.
STOCK_REGIONS: tuple[RegionSpec, ...] = (
    RegionSpec("us-east", accelerator="SMART", replicas=2,
               price=0.09, tz=0.0),
    RegionSpec("eu-west", accelerator="SNN", replicas=2,
               price=0.17, tz=0.25),
    RegionSpec("ap-south", accelerator="AQFP", replicas=2,
               price=0.05, tz=0.5),
    RegionSpec("us-west", accelerator="SMART", replicas=2,
               price=0.12, tz=0.875),
    RegionSpec("af-north", accelerator="SNN", replicas=1,
               price=0.03, tz=0.375),
)


def default_regions(count: int) -> tuple[RegionSpec, ...]:
    """The first ``count`` stock regions (suffixed past the palette)."""
    if count < 1:
        raise ConfigError("geo fleet needs at least one region")
    regions = []
    for i in range(count):
        spec = STOCK_REGIONS[i % len(STOCK_REGIONS)]
        if i >= len(STOCK_REGIONS):
            spec = replace(spec,
                           name=f"{spec.name}-{i // len(STOCK_REGIONS)}")
        regions.append(spec)
    return tuple(regions)


def validate_geo(regions: Sequence[RegionSpec], *, geo: object = "home",
                 topology: str = "mesh", bandwidth_gbps: float = 10.0,
                 base_latency_us: float = 50.0,
                 payload_bytes: int = REQUEST_BYTES,
                 storms: int = 0) -> None:
    """Reject malformed geo fleets with clean :class:`ConfigError`\\ s.

    The CLI surfaces these as exit-2 usage errors, matching the
    ``--shards``/``--scale`` pattern.
    """
    if not regions:
        raise ConfigError("geo fleet needs at least one region")
    names = [spec.name for spec in regions]
    if len(set(names)) != len(names):
        raise ConfigError("region names must be unique: "
                          + ", ".join(sorted(names)))
    # both constructors carry the real validation
    Interconnect(regions=len(regions), topology=topology,
                 bandwidth_gbps=bandwidth_gbps,
                 base_latency_us=base_latency_us)
    make_geo(geo)
    if payload_bytes < 0:
        raise ConfigError("payload size must be >= 0")
    if storms < 0:
        raise ConfigError("storm count must be >= 0")


def _split_counts(n: int, capacities: Sequence[float]) -> tuple[int, ...]:
    """Split ``n`` requests over regions by capacity share.

    Largest-remainder apportionment: exact total, deterministic ties
    (lower index wins), at least one request per region.
    """
    count = len(capacities)
    if n < count:
        raise ConfigError(
            f"geo runs need at least one request per region "
            f"({n} requests over {count} regions)"
        )
    total = sum(capacities)
    shares = [n * c / total for c in capacities]
    counts = [math.floor(s) for s in shares]
    order = sorted(range(count),
                   key=lambda i: (counts[i] - shares[i], i))
    for i in order[:n - sum(counts)]:
        counts[i] += 1
    for i in range(count):
        if counts[i] == 0:
            donor = max(range(count), key=lambda j: (counts[j], -j))
            counts[donor] -= 1
            counts[i] = 1
    return tuple(counts)


def _region_scenario(scenario: Scenario, tz: float) -> Scenario:
    """The scenario as region-local traffic: its wave shifted by tz."""
    return replace(scenario, phase=scenario.phase + tz) if tz \
        else scenario


class _RouterView:
    """The read-only fleet surface handed to geo dispatch policies.

    See :class:`~repro.serving.policies.GeoDispatchPolicy` for the
    contract.  Everything here derives from the run *plan* (specs,
    calibrated capacities, static estimates) — never from live engine
    state — which is what lets the parent route the whole run in one
    scan before any region engine starts.  Hop counts and delays are
    read from tables built once per scan; pairs outside the fleet fall
    through to the :class:`Interconnect`, which raises.
    """

    __slots__ = ("regions", "slo", "_capacities", "_prices",
                 "_energies", "_batch_lats", "_tz", "_icx", "_payload",
                 "_hops", "_delays", "_amp", "_cycles", "_base_phase",
                 "_duration", "_window", "_assigned")

    def __init__(self, spec: dict, icx: Interconnect) -> None:
        regions = spec["regions"]
        self.regions = len(regions)
        self.slo = spec["slo_us"] * 1e-6 if spec["slo_us"] else None
        self._capacities = spec["capacities"]
        self._prices = tuple(r[3] for r in regions)
        self._energies = spec["energies"]
        self._batch_lats = spec["batch_lats"]
        self._tz = tuple(r[4] for r in regions)
        self._icx = icx
        self._payload = spec["payload_bytes"]
        pairs = [(a, b) for a in range(self.regions)
                 for b in range(self.regions)]
        self._hops = {pair: icx.hops(*pair) for pair in pairs}
        self._delays = {pair: icx.delay(*pair, self._payload)
                        for pair in pairs}
        scenario = spec["scenario"]
        if scenario.shape == "diurnal":
            process = scenario.process(1.0)
            self._amp = process.amplitude
            self._cycles = process.cycles
            self._base_phase = process.phase
        else:
            self._amp = self._cycles = self._base_phase = 0.0
        total_rate = sum(spec["rates"])
        self._duration = (sum(spec["counts"]) / total_rate
                          if total_rate else 1.0)
        self._window = spec["window_s"]
        self._assigned: tuple[deque, ...] = tuple(
            deque() for _ in regions)

    def capacity(self, i: int) -> float:
        return self._capacities[i]

    def price(self, i: int) -> float:
        return self._prices[i]

    def energy_per_req(self, i: int) -> float:
        return self._energies[i]

    def batch_latency(self, i: int) -> float:
        return self._batch_lats[i]

    def hops(self, src: int, dst: int) -> int:
        hops = self._hops.get((src, dst))
        return self._icx.hops(src, dst) if hops is None else hops

    def delay(self, src: int, dst: int) -> float:
        delay = self._delays.get((src, dst))
        return (self._icx.delay(src, dst, self._payload)
                if delay is None else delay)

    def wave(self, i: int, t: float) -> float:
        """Instantaneous diurnal load factor at region-local time."""
        if not self._amp:
            return 1.0
        frac = t / self._duration
        return 1.0 - self._amp * math.cos(
            2.0 * math.pi * (self._cycles * frac
                             + self._base_phase + self._tz[i]))

    def window_rate(self, i: int, t: float) -> float:
        """Recent assigned request rate (req/s) for region ``i``."""
        assigned = self._assigned[i]
        horizon = t - self._window
        while assigned and assigned[0] < horizon:
            assigned.popleft()
        return len(assigned) / self._window

    def record(self, i: int, t: float) -> None:
        """Note one request assigned to region ``i`` at ``t``."""
        self._assigned[i].append(t)


def _down(outages, region: int, t: float) -> bool:
    return any(o.region == region and o.at <= t < o.until
               for o in outages)


def _admissions(spec: dict) -> list:
    """Each region's admissions as ``(arrival times, model indices)``
    columns.

    Drawn the way :func:`~repro.serving.workload.generate_trace` draws
    a trace: one RNG per region (its seed), every arrival time first,
    then every model sample.  The columns cost 10 bytes a request, and
    the storm windows read the run's first and last admission off them.
    """
    scenario = spec["scenario"]
    index = {model: k for k, model in enumerate(scenario.mix.models())}
    sample = scenario.mix.sampler()
    admissions = []
    for region, rate, n, seed in zip(spec["regions"], spec["rates"],
                                     spec["counts"], spec["seeds"]):
        rng = random.Random(seed)
        process = _region_scenario(scenario, region[4]).process(rate)
        arrivals = array("d", process.times(n, rng))
        models = array("H", map(index.__getitem__,
                                map(sample, repeat(rng, n))))
        admissions.append((arrivals, models))
    return admissions


def _route_once(spec: dict, geo: GeoDispatchPolicy, outages,
                admissions: list):
    """Route the whole run once, straight into per-region columns.

    The regions' ``admissions`` (:func:`_admissions`) merge in
    (arrival, home, request id) order, with globally unique ids from
    the region bases; ``geo.route`` and the view's ``record`` run in
    that order.  Each routed request is pushed as a ``(deliver,
    admission sequence, ...)`` tuple onto a plain heap, the re-sort
    buffer: an entry pops once the admission clock passes its delivery
    instant (a future delivery never lands before its own, future,
    admission), and the heap drains at the end.  So it holds only the
    deliveries still in flight, and they pop in (delivery time,
    admission sequence) order.

    With a resilience policy on, a storm reroute is modelled as a
    client *failover retry*: the request first travels to the dark
    region (the failed leg), times out, and is re-sent to the healthy
    one.  Both legs are charged as delay and the region's ``retried``
    count marks the double charge.  Without resilience the reroute is
    a silent redirect (single leg).

    Returns ``(columns, ledgers, span)``: each region's deliveries as
    ``(request ids, model indices, delivered arrivals, home indices)``
    arrays in delivery order; each region's network ledger
    ``[remote, rerouted, retried, delay]`` (the delay summed in
    delivery order); and the global (first, last) delivery instant.
    """
    regions = len(spec["regions"])
    view = _RouterView(spec, Interconnect(
        regions=regions, topology=spec["topology"],
        bandwidth_gbps=spec["bandwidth_gbps"],
        base_latency_us=spec["base_latency_us"]))
    hops, delays = view._hops, view._delays
    geo.reset(view)
    route, record = geo.route, view.record
    res_on = bool(spec["resilience"])
    columns = [(array("q"), array("H"), array("d"), array("H"))
               for _ in range(regions)]
    appends = [tuple(column.append for column in region)
               for region in columns]
    ledgers = [[0, 0, 0, 0.0] for _ in range(regions)]

    def deliver(entry) -> None:
        when, _, serve, home, rerouted, retried, delay, rid, model = entry
        add_id, add_model, add_arrival, add_home = appends[serve]
        add_id(rid)
        add_model(model)
        add_arrival(when)
        add_home(home)
        ledger = ledgers[serve]
        ledger[0] += home != serve
        ledger[1] += rerouted
        ledger[2] += retried
        ledger[3] += delay

    streams = [zip(arrivals, repeat(home),
                   range(base, base + len(arrivals)), models)
               for home, ((arrivals, models), base)
               in enumerate(zip(admissions, spec["bases"]))]
    in_flight: list = []
    push, pop = heapq.heappush, heapq.heappop
    for seq, (t, home, rid, model) in enumerate(heapq.merge(*streams)):
        while in_flight and in_flight[0][0] <= t:
            deliver(pop(in_flight))
        serve = route(t, home, view)
        if not 0 <= serve < regions:
            raise ConfigError(
                f"geo policy '{geo.name}' routed to region {serve} "
                f"outside [0, {regions})"
            )
        rerouted = False
        retried = False
        failed_leg = 0.0
        if outages and _down(outages, serve, t):
            live = [i for i in range(regions)
                    if not _down(outages, i, t)]
            if live:
                if res_on:
                    # the failed attempt's transfer is real: charge
                    # the leg to the dark region before the retry leg
                    failed_leg = delays[home, serve]
                    retried = True
                serve = min(live, key=lambda i: (hops[home, i], i))
                rerouted = True
        record(serve, t)
        delay = failed_leg + delays[home, serve]
        push(in_flight, (t + delay, seq, serve, home, rerouted, retried,
                         delay, rid, model))
    while in_flight:
        deliver(pop(in_flight))
    delivered = [arrivals for _, _, arrivals, _ in columns if arrivals]
    span = (min(a[0] for a in delivered), max(a[-1] for a in delivered))
    return columns, ledgers, span


@dataclass(frozen=True)
class RegionOutcome:
    """One region's summary: worker outcome + network ledger.

    ``outcome`` is the worker's exact per-shard summary the sharded
    merge understands (region == shard); the extra fields are the geo
    tier's network accounting for the region, tallied by the parent's
    routing scan.
    """

    region: str
    index: int
    accelerator: str
    replicas: int
    price: float
    capacity_rps: float
    rate_rps: float
    offered: int
    remote: int
    rerouted: int
    delay_s: float
    outcome: ShardOutcome
    retried: int = 0

    @property
    def cost_usd(self) -> float:
        """Served energy priced at the region's grid (USD)."""
        return self.outcome.energy * self.price / 1e6

    @property
    def slo_attainment(self) -> float:
        served = self.outcome.requests
        return self.outcome.slo_hits / served if served else 1.0


def _serve_geo_region(spec: dict) -> ShardOutcome:
    """Serve one region of a geo run (runs in a worker process).

    The parent has already routed every request, so the spec carries
    only this region's deliveries: columns in delivery order.  The
    worker rebuilds its :class:`Request`\\ s from them (delivered
    arrival, home-region tag) and serves them on the shared partition
    body (:func:`~repro.serving.sharding._serve_partition`), pinned to
    the *global* delivery span so all regions drain at the same
    horizon.  It generates no trace and makes no routing decision.
    """
    t_start = perf_counter()
    me = spec["shard"]
    scenario = spec["scenario"]
    names = tuple(region[0] for region in spec["regions"])
    ids, model_ids, arrivals, homes = spec["deliveries"]
    requests = map(Request, ids, map(scenario.mix.models().__getitem__,
                                     model_ids),
                   arrivals, map(names.__getitem__, homes))
    failures = (FailurePlan(count=scenario.faults,
                            seed=spec["seeds"][me])
                if scenario.faults else None)
    return _serve_partition(
        spec, requests, spec["span"],
        {"region": names[me], "regions": len(names), "geo": spec["geo"]},
        t_start, failures)


@dataclass
class GeoResult(FanOutResult):
    """The merge-reduced outcome of one geo run.

    The sharded merge (:class:`~repro.serving.sharding.FanOutResult`,
    region == shard) plus what only the geo tier knows: the routing
    plan and each region's network ledger and grid price.  Cost sums
    exactly over regions.  ``replicas`` is the whole fleet's width and
    ``accelerator`` the lone region's scheme, or ``geo[N]``.
    """

    geo: str
    topology: str
    storms: int
    regions: tuple[RegionOutcome, ...]

    @property
    def cost_usd(self) -> float:
        """Fleet energy bill: each region's joules at its grid price."""
        return sum(r.cost_usd for r in self.regions)

    @property
    def net_delay_s(self) -> float:
        """Summed interconnect delay over all delivered requests."""
        return sum(r.delay_s for r in self.regions)

    @property
    def remote_frac(self) -> float:
        """Fraction of requests served outside their home region."""
        remote = sum(r.remote for r in self.regions)
        return remote / self.requests if self.requests else 0.0

    @property
    def retried(self) -> int:
        """Cross-region failover retries (double-charged network legs
        under a resilience policy)."""
        return sum(r.retried for r in self.regions)

    def region_rows(self) -> list[dict]:
        """Per-region reporting rows: SLO attainment and $/J economics
        — the dashboard's geo section and the CLI's region table."""
        total = self.requests
        rows = []
        for region in self.regions:
            outcome = region.outcome
            served = outcome.requests
            row = {
                "region": region.region,
                "accelerator": region.accelerator,
                "replicas": region.replicas,
                "requests": served,
                "share": served / total if total else 0.0,
                "p50_us": (outcome.digest.percentile(50) * 1e6
                           if served else 0.0),
                "p95_us": (outcome.digest.percentile(95) * 1e6
                           if served else 0.0),
                "energy_per_req_uj": (outcome.energy / served * 1e6
                                      if served else 0.0),
                "usd_per_mj": region.price,
                "usd_per_req": (region.cost_usd / served
                                if served else 0.0),
                "net_delay_us": (region.delay_s / served * 1e6
                                 if served else 0.0),
                "remote_frac": (region.remote / served
                                if served else 0.0),
                "rerouted": region.rerouted,
            }
            if self.resilience:
                row["retried"] = region.retried
            if self.slo_target:
                row["slo_attain"] = region.slo_attainment
            rows.append(row)
        return rows

    def region_trace_rows(self) -> list[dict]:
        """The per-region summaries as ``ev: "region"`` telemetry rows
        (stamped at run end), ready to append to a saved trace."""
        at = self.last_done if self.requests else 0.0
        return [{"t": at, "ev": "region", "run": 0,
                 "scenario": self.scenario, "policy": self.policy,
                 "geo": self.geo, **row}
                for row in self.region_rows()]

    def to_row(self) -> dict:
        """The aggregate row ``repro serve-sim --geo N`` prints."""
        row = {
            "scenario": self.scenario,
            "policy": self.policy,
            "geo": self.geo,
            "regions": len(self.regions),
            "requests": self.requests,
            "rate_rps": self.rate,
            "p50_us": self.latency_percentile(50) * 1e6,
            "p95_us": self.latency_percentile(95) * 1e6,
            "p99_us": self.latency_percentile(99) * 1e6,
            "throughput_rps": self.throughput_rps,
            "agg_rps": self.simulated_rps,
            "energy_per_req_uj": (self.energy / self.requests * 1e6
                                  if self.requests else 0.0),
            "usd_per_req": (self.cost_usd / self.requests
                            if self.requests else 0.0),
            "net_delay_us": (self.net_delay_s / self.requests * 1e6
                             if self.requests else 0.0),
            "remote_frac": self.remote_frac,
            "cache_hit_rate": self.cache.hit_rate,
        }
        if self.resilience:
            row["resilience"] = self.resilience
            row["retried"] = self.retried
        if self.shard_retries:
            row["shard_retries"] = self.shard_retries
        if self.slo_target:
            row["slo_attain"] = self.slo_attainment
        if self.cache.seeded:
            # warm-fleet effectiveness: snapshot cells shipped across
            # all regions and how many turned into warm promotions
            row["memo_seeded"] = self.cache.seeded
            row["warm_hits"] = self.cache.seed_hits
        return row


class GeoRouter:
    """Fan one logical serving run out across geo regions.

    Args:
        regions: a region count (drawn from :data:`STOCK_REGIONS`) or
            an explicit sequence of :class:`RegionSpec`.
        topology / bandwidth_gbps / base_latency_us / payload_bytes:
            the interconnect (:class:`~repro.serving.interconnect.
            Interconnect`).
        geo: region-routing policy — a :data:`~repro.serving.policies.
            GEO_POLICIES` name or a :class:`~repro.serving.policies.
            GeoDispatchPolicy` instance.
        storms: region-granularity outage windows to sample
            (:class:`~repro.serving.policies.RegionFailurePlan`);
            arrivals for a dark region reroute to the nearest healthy
            one.
        policy / batch_size / dispatch / slo_us: each region engine's
            batching, replica dispatch and SLO — identical across
            regions so cells stay comparable.
        mode / max_workers: the :func:`~repro.runtime.executor.
            parallel_map` pool (one worker per region).  A region
            worker that raises or dies is re-run through the sharded
            driver with its default budget (2 retries, capped
            exponential backoff from 0.05 s); geo runs keep no
            checkpoint.
        detail: keep per-request arrays and merge a full bit-exact
            :class:`~repro.serving.simulator.ServingResult` (the
            zero-drift proof path).
        trace / tick / trace_events: per-region telemetry, rows tagged
            with their region name.
        resilience: client resilience policy spec (``"retry"`` /
            ``"hedge"`` / ``"degrade"``, with ``name:key=value``
            options) applied inside every region engine; a storm
            reroute then also charges the failed network leg as a
            cross-region failover retry.
        prewarm: warm-start the fleet (the default).  The parent
            resolves every region backend's layer cells once through
            a shared memo, snapshots the totals, and broadcasts the
            snapshot to region workers through the pool initializer,
            so no worker simulates a layer.  It governs only the memo:
            warm or cold, the parent resolves the outage windows and
            routes every request once, and workers serve only their
            own deliveries.  Warm results are bit-identical to cold.
        snapshot: a pre-built :class:`~repro.serving.memo.
            MemoSnapshot` installed into the parent's warm cache up
            front (e.g. the persisted memo pool).
        memo_cache: the shared parent-side
            :class:`~repro.serving.memo.LayerMemoCache` to calibrate
            and prewarm through across runs (the ``--persist-memo``
            path); default a fresh private one.

    Raises:
        ConfigError: from :func:`validate_geo` for malformed fleets.
    """

    def __init__(self, regions: int | Sequence[RegionSpec], *,
                 topology: str = "mesh", bandwidth_gbps: float = 10.0,
                 base_latency_us: float = 50.0,
                 payload_bytes: int = REQUEST_BYTES,
                 geo: object = "home", storms: int = 0,
                 policy: str = "timeout", batch_size: int = 8,
                 dispatch: str = "round_robin", slo_us: float = 0.0,
                 mode: str = "process",
                 max_workers: Optional[int] = None,
                 detail: bool = False, trace: bool = False,
                 tick: float = 200e-6,
                 trace_events: bool = False,
                 resilience: str = "",
                 prewarm: bool = True,
                 snapshot: Optional[MemoSnapshot] = None,
                 memo_cache: Optional[LayerMemoCache] = None) -> None:
        if isinstance(regions, int):
            regions = default_regions(regions)
        self.regions: tuple[RegionSpec, ...] = tuple(regions)
        validate_geo(self.regions, geo=geo, topology=topology,
                     bandwidth_gbps=bandwidth_gbps,
                     base_latency_us=base_latency_us,
                     payload_bytes=payload_bytes, storms=storms)
        make_policy(policy, batch_size=batch_size)  # fail fast
        # fail fast on a bad spec; normalise "none"/"" to the empty spec
        self.resilience = \
            resilience if make_resilience(resilience) is not None else ""
        self.topology = topology
        self.bandwidth_gbps = bandwidth_gbps
        self.base_latency_us = base_latency_us
        self.payload_bytes = payload_bytes
        # route with the instance itself: a custom policy (or a
        # subclass reusing a stock name) is what the scan must call
        self._geo = make_geo(geo)
        self.geo = self._geo.name
        self.storms = storms
        self.policy = policy
        self.batch_size = batch_size
        self.dispatch = dispatch
        self.slo_us = slo_us
        self.mode = mode
        self.max_workers = max_workers
        self.detail = detail
        self.trace = trace
        self.tick = tick
        self.trace_events = trace_events
        self.prewarm = prewarm
        self._warm_cache = (memo_cache if memo_cache is not None
                            else LayerMemoCache())
        if snapshot is not None:
            snapshot.install(self._warm_cache)

    def run_scenario(self, scenario: Scenario | str, n_requests: int,
                     seed: int = 0) -> GeoResult:
        """Calibrate regions, route every request once, fan the
        regions out, and merge.  ``wall_s`` times all of it."""
        t_start = perf_counter()
        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        if n_requests < 1:
            raise ConfigError("trace needs at least one request")
        fleet = self.regions
        count = len(fleet)
        # per-region calibration: each region's own accelerator and
        # pool set its capacity, exactly as the monolithic path would
        # calibrate that region alone — the single-region zero-drift
        # anchor depends on this equality
        calibrators = [
            ServingSimulator(
                accelerator=spec.accelerator, replicas=spec.replicas,
                policy=make_policy(self.policy,
                                   batch_size=self.batch_size),
                dispatch=self.dispatch,
                # one shared memo across the fleet: the structural
                # keying separates backends, and everything it
                # accumulates feeds the broadcast snapshot
                cache=self._warm_cache,
            )
            for spec in fleet
        ]
        capacities = tuple(cal.capacity_rps(scenario)
                           for cal in calibrators)
        rates = tuple(scenario.load * cap for cap in capacities)
        counts = _split_counts(n_requests, capacities)
        seeds = (seed,) if count == 1 else shard_seeds(seed, count)
        bases = tuple(sum(counts[:i]) for i in range(count))
        # static estimates for the energy-price-aware policy: a full
        # batch's service time and per-request energy on each region's
        # backend, mix-weighted through the same memo the engine uses
        fractions = scenario.mix.fractions()
        batch = calibrators[0].policy.max_batch
        energies = tuple(
            sum(frac * cal.cache.energy_total(cal.accelerator,
                                              cal.network(model),
                                              batch) / batch
                for model, frac in fractions.items())
            for cal in calibrators
        )
        batch_lats = tuple(
            batch * fleet[i].replicas / capacities[i]
            for i in range(count)
        )
        total_rate = sum(rates)
        snapshot: Optional[MemoSnapshot] = None
        warm_cells: Optional[tuple] = None
        if self.prewarm:
            # warm every region backend's layer cells through the
            # shared memo once, instead of once per worker
            for cal in calibrators:
                cal.prewarm(scenario)
            snapshot = MemoSnapshot.from_cache(self._warm_cache)
            warm_cells = _warm_cells(scenario, batch)
        spec = _spec(
            self, scenario,
            regions=tuple((s.name, s.accelerator, s.replicas, s.price,
                           s.tz) for s in fleet),
            topology=self.topology, bandwidth_gbps=self.bandwidth_gbps,
            base_latency_us=self.base_latency_us,
            payload_bytes=self.payload_bytes,
            geo=self.geo, rates=rates, counts=counts, seeds=seeds,
            bases=bases, capacities=capacities, energies=energies,
            batch_lats=batch_lats,
            # a ~100-request observation window for spillover's
            # assigned-rate estimate, scaled to the offered rate
            window_s=100.0 / max(total_rate, 1e-12),
            warm_cells=warm_cells,
        )
        admissions = _admissions(spec)
        outages: tuple = ()
        if self.storms:
            outages = RegionFailurePlan(count=self.storms, seed=seed) \
                .resolve(min(arrivals[0] for arrivals, _ in admissions),
                         max(arrivals[-1] for arrivals, _ in admissions),
                         count)
        columns, ledgers, spec["span"] = _route_once(
            spec, self._geo, outages, admissions)
        outcomes, reruns = _fan_out(
            (__name__, "_serve_geo_region"),
            [dict(spec, shard=i, accelerator=s.accelerator,
                  replicas=s.replicas, rate=rates[i],
                  deliveries=columns[i])
             for i, s in enumerate(fleet)],
            mode=self.mode, max_workers=self.max_workers,
            snapshot=snapshot)
        regions = tuple(
            RegionOutcome(
                region=s.name, index=i, accelerator=s.accelerator,
                replicas=s.replicas, price=s.price,
                capacity_rps=capacities[i], rate_rps=rates[i],
                offered=counts[i], remote=remote, rerouted=rerouted,
                retried=retried, delay_s=delay, outcome=outcome)
            for i, (s, (remote, rerouted, retried, delay), outcome)
            in enumerate(zip(fleet, ledgers, outcomes)))
        return GeoResult.merge(
            outcomes, t_start=t_start, retried=reruns,
            scenario=scenario.name, policy=self.policy,
            dispatch=self.dispatch,
            accelerator=(fleet[0].accelerator if count == 1
                         else f"geo[{count}]"),
            replicas=sum(s.replicas for s in fleet), rate=total_rate,
            slo_target=self.slo_us * 1e-6, resilience=self.resilience,
            geo=self.geo, topology=self.topology, storms=self.storms,
            regions=regions)
