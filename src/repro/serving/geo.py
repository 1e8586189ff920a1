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
process.  Region == shard, literally: :class:`GeoRouter` extends the
fan-out base (:class:`~repro.serving.sharding._FanOutEngine`, which
owns and documents the shared configuration) — the same warm start
(the parent prewarms every region backend's layer cells through one
shared memo and ships its snapshot to the workers), the same partition
worker body, the same crash-safe driver, and the same exact merge of
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
admissions as arrival and model columns and hands them to the policy
as one block (``route_block``): ``home`` and ``follow_sun`` route
each home region's column in one pass, any other policy is asked one
request at a time in (arrival, home, id) order.  Storms then land
each request, and one delivery stage sorts every serving region's
requests into (delivery, admission) order with two stable sorts over
typed columns.

The zero-drift anchor: with one region and stock policies the
regional stream *is* the global trace (same seed, same rate, zero
interconnect delay), so the geo path is bit-identical to the plain
:class:`~repro.serving.simulator.ServingSimulator` run — per-request
latencies and energies — on every stock scenario x policy cell
(``tests/test_serving_geo.py`` holds it there).
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, replace
from functools import reduce
from itertools import compress, repeat
from operator import add, eq
from time import perf_counter
from typing import Optional, Sequence

from repro.errors import ConfigError
from repro.serving.events import FailurePlan
from repro.serving.interconnect import Interconnect
from repro.serving.memo import LayerMemoCache
from repro.serving.policies import GeoDispatchPolicy, make_geo
from repro.serving.sharding import (
    ShardedResult,
    ShardOutcome,
    _FanOutEngine,
    _serve_partition,
)
from repro.serving.simulator import ServingSimulator
from repro.serving.workload import Request, Scenario, shard_seeds

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
                 topology: str = "mesh", storms: int = 0) -> None:
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
    Interconnect(regions=len(regions), topology=topology)
    make_geo(geo)
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
    scan before any region engine starts.  Hop counts, delays and
    storm detours are read from tables built once per scan; pairs
    outside the fleet fall through to the :class:`Interconnect`, which
    raises.
    """

    __slots__ = ("regions", "slo", "storms", "_capacities", "_prices",
                 "_energies", "_batch_lats", "_tz", "_icx", "_hops",
                 "_delays", "_amp", "_cycles", "_base_phase",
                 "_duration", "_window", "_assigned", "_edges",
                 "_detours")

    def __init__(self, spec: dict, icx: Interconnect,
                 outages: tuple = ()) -> None:
        regions = spec["regions"]
        self.regions = len(regions)
        self.slo = spec["slo_us"] * 1e-6 if spec["slo_us"] else None
        self._capacities = spec["capacities"]
        self._prices = tuple(r[3] for r in regions)
        self._energies = spec["energies"]
        self._batch_lats = spec["batch_lats"]
        self._tz = tuple(r[4] for r in regions)
        self._icx = icx
        pairs = [(a, b) for a in range(self.regions)
                 for b in range(self.regions)]
        self._hops = {pair: icx.hops(*pair) for pair in pairs}
        self._delays = {pair: icx.delay(*pair) for pair in pairs}
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
        self.storms = bool(outages)
        # the storm windows' edges cut time into segments, each with
        # one set of dark regions; in a segment, a request ``home``
        # sends to a dark region detours to the live region nearest
        # ``home`` (with every region dark, nothing moves)
        self._edges = sorted({edge for o in outages
                              for edge in (o.at, o.until)})
        self._detours: list[dict] = [{}]
        for edge in self._edges:
            live = [i for i in range(self.regions)
                    if not _down(outages, i, edge)]
            dark = [i for i in range(self.regions) if i not in live]
            self._detours.append({
                (home, i): min(live, key=lambda j: (self._hops[home, j], j))
                for home in range(self.regions) for i in dark
            } if live else {})

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
        return self._icx.delay(src, dst) if delay is None else delay

    def wave(self, i: int, t: float) -> float:
        """Instantaneous diurnal load factor at region-local time."""
        if not self._amp:
            return 1.0
        frac = t / self._duration
        return 1.0 - self._amp * math.cos(
            2.0 * math.pi * (self._cycles * frac
                             + self._base_phase + self._tz[i]))

    def waves(self, times: Sequence[float]) -> list[list[float]]:
        """``wave(i, t)`` for every t of ``times``, one list per region
        ``i``: the same expression, evaluated a column at a time."""
        amp = self._amp
        if not amp:
            return [[1.0] * len(times)] * self.regions
        cos, two_pi = math.cos, 2.0 * math.pi
        cycles, duration = self._cycles, self._duration
        phases = [cycles * (t / duration) + self._base_phase
                  for t in times]
        return [[1.0 - amp * cos(two_pi * (phase + tz))
                 for phase in phases] for tz in self._tz]

    def land(self, t: float, home: int, serve: int) -> int:
        """Where a request that ``home`` sends to ``serve`` at ``t``
        lands: ``serve``, or, while a storm has it dark, the live
        region nearest ``home`` (fewest hops, then index)."""
        return self._detours[bisect_right(self._edges, t)].get(
            (home, serve), serve)

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
    """Whether ``region`` is dark at ``t`` (an outage's ``replica`` is
    its region index)."""
    return any(o.replica == region and o.at <= t < o.until
               for o in outages)


def _admissions(spec: dict) -> list:
    """Each region's admissions as ``(arrival times, model indices)``
    columns.

    Drawn the way :func:`~repro.serving.workload.generate_trace` draws
    a trace, in blocks: one RNG per region (its seed), every arrival
    time first, then every model sample.  The columns cost 10 bytes a
    request, and the storm windows read the run's first and last
    admission off them.
    """
    scenario = spec["scenario"]
    index = {model: k for k, model in enumerate(scenario.mix.models())}
    draw = scenario.mix.draw
    admissions = []
    for region, rate, n, seed in zip(spec["regions"], spec["rates"],
                                     spec["counts"], spec["seeds"]):
        rng = random.Random(seed)
        process = _region_scenario(scenario, region[4]).process(rate)
        arrivals = array("d", process.times(n, rng))
        models = array("H", map(index.__getitem__, draw(rng, n)))
        admissions.append((arrivals, models))
    return admissions


def _route_once(spec: dict, geo: GeoDispatchPolicy, outages,
                admissions: list):
    """Route the whole run once, straight into per-region columns.

    The policy routes the regions' ``admissions`` (:func:`_admissions`)
    as one block (:meth:`~repro.serving.policies.GeoDispatchPolicy.
    route_block`), then every request lands (:meth:`_RouterView.land`)
    and is charged its interconnect delay.  A request's global id is
    its position in the home-major concatenation of the admission
    columns, so ids come in home blocks and each serving region's ids,
    taken in id order, need two stable sorts: by arrival, which gives
    admission order ((arrival, home, id)), then by delivery instant,
    which gives delivery order with ties in admission order.

    With a resilience policy on, a storm reroute is modelled as a
    client *failover retry*: the request first travels to the dark
    region (the failed leg), times out, and is re-sent to the healthy
    one.  Both legs are charged as delay and the region's ``retried``
    count marks the double charge.  Without resilience the reroute is
    a silent redirect (single leg).

    Returns ``(columns, ledgers, span)``: each region's deliveries as
    ``(request ids, model indices, delivered arrivals, home indices)``
    arrays in delivery order; each region's network ledger
    ``[remote, rerouted, retried, delay]`` (the delay added left to
    right in delivery order); and the global (first, last) delivery
    instant.

    Raises:
        ConfigError: for a block that routes outside the fleet.
    """
    regions = len(spec["regions"])
    view = _RouterView(spec, Interconnect(regions=regions,
                                          topology=spec["topology"]),
                       outages)
    geo.reset(view)
    sent = geo.route_block([times for times, _ in admissions], view)
    retry = bool(spec["resilience"])
    ledgers = [[0, 0, 0, 0.0] for _ in range(regions)]
    arrivals, models, homes, serves, delays = (
        array("d"), array("H"), array("H"), array("H"), array("d"))
    for home, ((times, model_ids), column) in enumerate(
            zip(admissions, sent)):
        if (len(column) != len(times)
                or max(column, default=0) >= regions):
            raise ConfigError(
                f"geo policy '{geo.name}' did not route home region "
                f"{home}'s {len(times)} requests into [0, {regions})"
            )
        legs = [view._delays[home, i] for i in range(regions)]
        if outages:
            column, charged = _land(view, times, home, column, legs,
                                    ledgers, retry)
        else:
            charged = array("d", map(legs.__getitem__, column))
        arrivals += times
        models += model_ids
        homes += array("H", [home]) * len(times)
        serves += column
        delays += charged
    delivers = array("d", map(add, arrivals, delays))
    ids = range(len(arrivals))
    columns = []
    for serve, ledger in enumerate(ledgers):
        mine = list(compress(ids, map(eq, serves, repeat(serve))))
        mine.sort(key=arrivals.__getitem__)
        mine.sort(key=delivers.__getitem__)
        their_homes = array("H", [homes[rid] for rid in mine])
        ledger[0] = len(mine) - their_homes.count(serve)
        ledger[3] = reduce(add, map(delays.__getitem__, mine), 0.0)
        columns.append((array("q", mine),
                        array("H", [models[rid] for rid in mine]),
                        array("d", map(delivers.__getitem__, mine)),
                        their_homes))
    delivered = [when for _, _, when, _ in columns if when]
    span = (min(a[0] for a in delivered), max(a[-1] for a in delivered))
    return columns, ledgers, span


def _land(view: _RouterView, times, home: int, sent, legs: list,
          ledgers: list, retry: bool) -> tuple[array, array]:
    """Land one home region's routed column under storms: the landing
    regions and each request's charged delay.  A rerouted request is
    tallied on its landing region's ledger; under ``retry`` its failed
    leg to the dark region is charged before the retry leg."""
    landed, charged = array("H"), array("d")
    for t, serve in zip(times, sent):
        final = view.land(t, home, serve)
        delay = legs[final]
        if final != serve:
            ledger = ledgers[final]
            ledger[1] += 1
            if retry:
                ledger[2] += 1
                delay = legs[serve] + delay
        landed.append(final)
        charged.append(delay)
    return landed, charged


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
class GeoResult(ShardedResult):
    """The merge-reduced outcome of one geo run.

    The sharded merge (:class:`~repro.serving.sharding.ShardedResult`,
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
        return self._row(
            {"geo": self.geo, "regions": len(self.regions)},
            {"usd_per_req": (self.cost_usd / self.requests
                             if self.requests else 0.0),
             "net_delay_us": (self.net_delay_s / self.requests * 1e6
                              if self.requests else 0.0),
             "remote_frac": self.remote_frac},
            # cross-region failover retries, under a resilience policy
            **({"retried": self.retried} if self.resilience else {}))


class GeoRouter(_FanOutEngine):
    """Fan one logical serving run out across geo regions.

    The arguments not listed here are the shared configuration
    (:class:`~repro.serving.sharding._FanOutEngine`), identical across
    regions so cells stay comparable; geo runs keep no checkpoint.
    Under a resilience policy a storm reroute also charges the failed
    network leg as a cross-region failover retry.

    Args:
        regions: a region count (drawn from :data:`STOCK_REGIONS`) or
            an explicit sequence of :class:`RegionSpec`.
        topology: the interconnect's link topology (:class:`~repro.
            serving.interconnect.Interconnect`, default links).
        geo: region-routing policy — a :data:`~repro.serving.policies.
            GEO_POLICIES` name or a :class:`~repro.serving.policies.
            GeoDispatchPolicy` instance.
        storms: region-granularity outage windows to sample: a
            :class:`~repro.serving.events.FailurePlan` resolved over
            the regions instead of replicas, seeded by the run's seed;
            arrivals for a dark region reroute to the nearest healthy
            one.

    Raises:
        ConfigError: from :func:`validate_geo` for malformed fleets.
    """

    _worker = (__name__, "_serve_geo_region")
    _result = GeoResult

    def __init__(self, regions: int | Sequence[RegionSpec], *,
                 topology: str = "mesh",
                 geo: object = "home", storms: int = 0,
                 policy: str = "timeout", batch_size: int = 8,
                 dispatch: str = "round_robin", slo_us: float = 0.0,
                 mode: str = "process",
                 max_workers: Optional[int] = None,
                 detail: bool = False, trace: bool = False,
                 trace_events: bool = False,
                 resilience: str = "",
                 memo_cache: Optional[LayerMemoCache] = None) -> None:
        if isinstance(regions, int):
            regions = default_regions(regions)
        self.regions: tuple[RegionSpec, ...] = tuple(regions)
        validate_geo(self.regions, geo=geo, topology=topology,
                     storms=storms)
        super().__init__(
            (spec.accelerator for spec in self.regions), policy=policy,
            batch_size=batch_size, dispatch=dispatch, slo_us=slo_us,
            mode=mode, max_workers=max_workers, detail=detail,
            trace=trace, trace_events=trace_events,
            resilience=resilience, memo_cache=memo_cache)
        self.topology = topology
        # route with the instance itself: a custom policy (or a
        # subclass reusing a stock name) is what the scan must call
        self._geo = make_geo(geo)
        self.geo = self._geo.name
        self.storms = storms

    def _run(self, scenario: Scenario, n_requests: int, seed: int,
             t_start: float) -> GeoResult:
        fleet = self.regions
        count = len(fleet)
        # each region's own accelerator and pool set its capacity, as
        # the monolithic path would calibrate that region alone (the
        # single-region zero-drift anchor depends on this equality);
        # the one shared memo keys backends apart structurally
        calibrators = [self._calibrator(spec.accelerator, spec.replicas)
                       for spec in fleet]
        capacities = tuple(cal.capacity_rps(scenario)
                           for cal in calibrators)
        rates = tuple(scenario.load * cap for cap in capacities)
        counts = _split_counts(n_requests, capacities)
        seeds = (seed,) if count == 1 else shard_seeds(seed, count)
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
        # warm every region backend's layer cells through the shared
        # memo and export them once, from one simulator over the fleet
        snapshot = ServingSimulator(
            accelerators=[cal.accelerator for cal in calibrators],
            policy=calibrators[0].policy, cache=self._warm_cache,
        ).prewarm(scenario)
        spec = self._spec(
            scenario,
            regions=tuple((s.name, s.accelerator, s.replicas, s.price,
                           s.tz) for s in fleet),
            topology=self.topology, geo=self.geo, rates=rates,
            counts=counts, seeds=seeds, capacities=capacities,
            energies=energies, batch_lats=batch_lats,
            # a ~100-request observation window for spillover's
            # assigned-rate estimate, scaled to the offered rate
            window_s=100.0 / max(total_rate, 1e-12),
        )
        admissions = _admissions(spec)
        outages: tuple = ()
        if self.storms:
            outages = FailurePlan(count=self.storms, seed=seed).resolve(
                min(arrivals[0] for arrivals, _ in admissions),
                max(arrivals[-1] for arrivals, _ in admissions), count)
        columns, ledgers, spec["span"] = _route_once(
            spec, self._geo, outages, admissions)
        outcomes, reruns = self._fan_out(
            [dict(spec, shard=i, accelerator=s.accelerator,
                  replicas=s.replicas, rate=rates[i],
                  deliveries=columns[i])
             for i, s in enumerate(fleet)],
            snapshot)
        regions = tuple(
            RegionOutcome(
                region=s.name, index=i, accelerator=s.accelerator,
                replicas=s.replicas, price=s.price,
                capacity_rps=capacities[i], rate_rps=rates[i],
                offered=counts[i], remote=remote, rerouted=rerouted,
                retried=retried, delay_s=delay, outcome=outcome)
            for i, (s, (remote, rerouted, retried, delay), outcome)
            in enumerate(zip(fleet, ledgers, outcomes)))
        return self._merge(
            outcomes, reruns, t_start, scenario,
            accelerator=(fleet[0].accelerator if count == 1
                         else f"geo[{count}]"),
            replicas=sum(s.replicas for s in fleet), rate=total_rate,
            geo=self.geo, topology=self.topology, storms=self.storms,
            regions=regions)
