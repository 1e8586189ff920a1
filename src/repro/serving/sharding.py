"""Sharded scale-out of the serving simulator across worker processes.

One :class:`ShardedEngine` run simulates a single logical trace —
millions of requests — by fanning deterministic shards out through the
:mod:`repro.runtime` process-pool executor.  The parent calibrates the
offered rate, prewarms one layer memo with every (model, batch) cell
the run can ask for, and computes the global trace span, once.  Its
:class:`~repro.serving.memo.MemoSnapshot` reaches each worker through
the pool initializer and is installed into the worker's fresh memo, so
no worker simulates a layer.  Each worker streams its own slice of the
global seeded trace (:func:`~repro.serving.workload.shard_trace`: no
process ever materialises the full request list), serves it on an
independent :class:`~repro.serving.events.ClusterEngine`, and folds
each batch into a compact :class:`ShardOutcome` the moment the engine
completes it, so it keeps neither the requests it has served nor a
per-request table; the parent merge-reduces those into one
:class:`ShardedResult` with exact counters (the engine's retries,
timeouts, hedges, cancels and re-dispatches included) and energy sums,
exact percentiles (each partition ships its served latencies as one
sorted column, 8 bytes per served request: a :class:`LatencyDigest`),
and per-shard telemetry rows tagged with their shard id.

Why this is exact and not merely parallel: the splitter partitions
models by the same ``crc32(model) % replicas`` pin
:class:`~repro.serving.policies.ShardDispatch` homes batches with, so
each replica's entire traffic lands in exactly one shard and replica
state (free times, resident weights, switch charges) never couples
across workers.  Every shard engine holds the *full* replica pool
(preserving indices and the hash fold) and drains at the *global*
trace end via the engine's ``span`` pin.  The memo is exact, so the
shipped snapshot changes no value.  On such shard-stable cells a
sharded run reproduces the monolithic engine's per-request latencies
and energies bit for bit — ``detail=True`` merges the shards back
into a full :class:`~repro.serving.simulator.ServingResult` and the
equivalence suites (``tests/test_serving_sharding.py``,
``tests/test_serving_fanout_differential.py``) hold it to exact tuple
equality.

Control-plane features that inherently observe cross-shard state —
autoscaling, work stealing, admission depth, failure re-dispatch,
hedged/degraded resilience — are rejected up front by
:func:`validate_sharding` with a :class:`~repro.errors.ConfigError`
rather than silently drifting.  Deadline-timeout retries *are*
shard-stable (their backoff jitter is a pure hash of seed, request id
and attempt, and retried singletons re-dispatch to the model's home
replica), so ``resilience="retry"`` shards exactly.

This is also the fan-out core the geo tier runs on (region == shard).
One base, :class:`_FanOutEngine`, owns the configuration
:class:`ShardedEngine` and :class:`~repro.serving.geo.GeoRouter`
share and everything that reads it: the fail-fast checks, the
calibrating simulator, the partition spec, and one crash-safe driver
that re-runs crashed workers with capped backoff and can checkpoint
completed outcomes, so an interrupted run resumes with only the
missing partitions.  Every partition runs one worker body
(:func:`_serve_partition`), fed by a shard's trace slice or a geo
region's routed deliveries, and one exact merge reduces them into
:class:`ShardedResult`, which :class:`~repro.serving.geo.GeoResult`
extends.
"""

from __future__ import annotations

import importlib
import math
import os
import pickle
import time
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain
from time import perf_counter
from typing import Iterable, Optional, Sequence

from repro.core import make_accelerator
from repro.errors import ConfigError
from repro.eval.report import nearest_rank
from repro.runtime.executor import (check_map_mode, parallel_map,
                                    worker_payload)
from repro.serving.batching import make_policy
from repro.serving.policies import make_dispatch, make_resilience
from repro.serving.events import FailurePlan, SloPolicy, resilience_deadline
from repro.serving.memo import CacheStats, LayerMemoCache, MemoSnapshot
from repro.serving.simulator import (ENGINE_COUNTERS, ServingResult,
                                     ServingSimulator, _gc_headroom,
                                     counter_columns)
from repro.serving.telemetry import TIMELINE_TICK, Telemetry
from repro.serving.workload import (
    Request,
    Scenario,
    get_scenario,
    shard_trace,
    trace_span,
)

__all__ = [
    "LatencyDigest",
    "ShardOutcome",
    "ShardedEngine",
    "ShardedResult",
    "validate_sharding",
]

#: Dispatch strategies whose decisions depend only on the model being
#: dispatched (never on cross-request engine state), so a model-
#: partitioned trace reproduces them exactly across workers.
SHARD_STABLE_DISPATCH = ("shard",)

#: Resilience policies whose duplicate scheduling depends only on the
#: request itself (deadline + pure seeded jitter) and whose retries
#: re-dispatch to the model's home replica, so they replay identically
#: inside a single shard.
SHARD_STABLE_RESILIENCE = ("retry",)

#: Worker-crash retry budget and base backoff (s) of every fan-out,
#: sharded and geo alike; :meth:`_FanOutEngine._fan_out` reads them
#: at call time.
_SHARD_RETRIES = 2
_RETRY_BACKOFF_S = 0.05

#: Worker-crash retry backoff never sleeps longer than this (s).
_BACKOFF_CAP_S = 2.0


def validate_sharding(shards: int, *, replicas: int,
                      dispatch: object = "shard", autoscale: str = "",
                      scale: str = "", steal: bool = False,
                      shed: int = 0, fail: int = 0,
                      resilience: object = "",
                      scenarios: Sequence[str | Scenario] = ()) -> None:
    """Reject shard counts and features a sharded run cannot honour.

    Raises:
        ConfigError: whenever the combination would make sharded and
            monolithic results diverge (or the shard count is
            malformed) — the CLI surfaces these as clean exit-2
            errors, matching the ``--scale``/``--flush`` pattern.
    """
    if shards < 1:
        raise ConfigError("shard count must be >= 1")
    if replicas < 1:
        raise ConfigError("cluster needs at least one replica")
    if shards > replicas:
        raise ConfigError(
            f"{shards} shards need at least {shards} replicas (got "
            f"{replicas}); every worker shard must own at least one "
            f"home replica"
        )
    name = dispatch if isinstance(dispatch, str) \
        else getattr(dispatch, "name", "?")
    if name not in SHARD_STABLE_DISPATCH:
        raise ConfigError(
            f"sharded runs need a shard-stable dispatch "
            f"({', '.join(SHARD_STABLE_DISPATCH)}), not '{name}': "
            f"stateful strategies route on cross-request state the "
            f"workers cannot share"
        )
    if autoscale or scale:
        raise ConfigError(
            "sharded runs cannot autoscale: pool changes would couple "
            "shards through the shared replica set"
        )
    if steal:
        raise ConfigError(
            "work stealing moves batches between shard-owned "
            "replicas; disable stealing for sharded runs"
        )
    if shed:
        raise ConfigError(
            "admission control sheds on the global in-system depth, "
            "which no single shard observes; disable shedding for "
            "sharded runs"
        )
    if fail:
        raise ConfigError(
            "failure injection re-dispatches in-flight batches across "
            "shard boundaries; sharded runs must be fault-free"
        )
    res = make_resilience(resilience) if isinstance(resilience, str) \
        else resilience
    if res is not None and res.name not in SHARD_STABLE_RESILIENCE:
        raise ConfigError(
            f"resilience '{res.name}' is not shard-stable: hedged "
            f"duplicates pick the second-best replica from live pool-"
            f"wide state, and degraded fallbacks couple to admission "
            f"shedding — neither is visible to a single shard; "
            f"sharded runs support only "
            f"{', '.join(SHARD_STABLE_RESILIENCE)} (or none)"
        )
    for scenario in scenarios:
        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        if scenario.faults:
            raise ConfigError(
                f"scenario '{scenario.name}' injects replica faults; "
                f"failure re-dispatch is not shard-stable"
            )


class LatencyDigest:
    """Exact served latencies (s), as sorted ``array('d')`` columns.

    A worker partition ships one column, 8 bytes per served request,
    and a merged result keeps every partition's column as it came.
    :meth:`percentile` selects the nearest rank
    :func:`repro.eval.report.percentile` reads across the columns,
    without building a merged copy, so a fan-out reads the monolithic
    engine's percentiles bit for bit.
    """

    __slots__ = ("columns", "count")

    def __init__(self, columns: Iterable[array] = ()) -> None:
        self.columns = tuple(columns)
        self.count = sum(map(len, self.columns))

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile ``q`` (in [0, 100]) of every column.

        Raises:
            ConfigError: when the digest is empty or ``q`` is outside
                [0, 100].
        """
        rank = nearest_rank(self.count, q)
        columns = self.columns

        def at_or_below(value: float) -> int:
            return sum(bisect_right(column, value) for column in columns)

        # the answer is the least value with ``rank`` values at or
        # below it; each column's first such value bounds it, and the
        # column holding the answer finds it
        return min(column[i] for column in columns
                   if (i := bisect_left(column, rank, key=at_or_below))
                   < len(column))


@dataclass(frozen=True)
class ShardOutcome:
    """One worker partition's summary (a shard or a geo region),
    shipped back to the parent.

    Counters, energies and busy time are exact; ``digest`` carries the
    served latencies as one sorted column, 8 bytes per served request,
    so percentiles stay exact too.  ``energy`` is served energy;
    the engine's own counters (:data:`~repro.serving.simulator.
    ENGINE_COUNTERS`, ``wasted_energy`` among them) keep their engine
    names.  ``result`` carries the full per-request
    :class:`ServingResult` only when the run asked for ``detail`` (the
    equivalence-test path); ``telemetry_rows`` are the partition's
    trace rows, each already tagged with its ``shard`` (or ``region``)
    and ``counters`` its telemetry counters.  The served fields
    default to an idle partition's: nothing served, and a first
    arrival and last completion the merge's ``min``/``max`` skip.
    """

    shard: int
    cache: CacheStats
    wall_s: float
    requests: int = 0
    batches: int = 0
    energy: float = 0.0
    busy_s: float = 0.0
    first_arrival: float = math.inf
    last_done: float = -math.inf
    digest: LatencyDigest = field(default_factory=LatencyDigest)
    slo_hits: int = 0
    telemetry_rows: tuple = ()
    counters: tuple = ()
    result: Optional[ServingResult] = None
    redispatched: int = 0
    wasted_energy: float = 0.0
    stolen: int = 0
    timeouts: int = 0
    retries: int = 0
    hedges: int = 0
    cancels: int = 0
    degraded: int = 0


@_gc_headroom()
def _serve_partition(spec: dict, requests: Iterable[Request],
                     span: tuple[float, float], tags: dict,
                     t_start: float,
                     failures: Optional[FailurePlan] = None
                     ) -> ShardOutcome:
    """The one partition worker body, shared by shards and geo regions.

    Rebuilds the simulator from ``spec``, streams the time-ordered
    ``requests`` into an engine pinned to the *global* ``span`` (so all
    partitions drain at the same horizon), and folds each completed
    batch into a :class:`ShardOutcome` as it completes (the engine's
    ``fold``): energy is added left to right in completion order, and
    each ``done - arrival`` is appended to an ``array('d')``, sorted
    into the latency column after the run.  So a worker keeps 8 bytes
    per served request, not the request, and no per-request table.  A
    ``detail`` run keeps the completion log for
    :meth:`~repro.serving.simulator.ServingSimulator.make_result` and
    runs the same fold over it.  The first streamed arrival is the
    partition's first.  ``tags`` label the telemetry run header;
    the first also stamps every row, an idle partition's included.
    ``wall_s`` counts from the worker's ``t_start``.  The run's
    :class:`MemoSnapshot` arrives once per worker as the pool payload
    (:func:`~repro.runtime.executor.worker_payload`) and is installed
    into the fresh memo.
    """
    scenario = spec["scenario"]
    slo_target = spec["slo_us"] * 1e-6
    telemetry = (Telemetry(events=spec["trace_events"], tick=TIMELINE_TICK)
                 if spec["trace"] else None)
    cache = LayerMemoCache()
    worker_payload().install(cache)
    sim = ServingSimulator(
        accelerator=spec["accelerator"],
        replicas=spec["replicas"],
        policy=make_policy(spec["policy"], batch_size=spec["batch_size"]),
        dispatch=spec["dispatch"],
        cache=cache,
        slo=SloPolicy(target=slo_target) if slo_target else None,
        telemetry=telemetry,
        resilience=spec["resilience"] or None,
    )
    networks = {m: sim.network(m) for m in scenario.mix.models()}
    engine = sim.make_engine(networks, failures=failures)

    kept = tuple(requests) if spec["detail"] else ()
    stream = iter(kept if spec["detail"] else requests)

    if telemetry is not None:
        telemetry.begin_run(
            scenario=scenario.name, policy=sim.policy.name,
            dispatch=sim.dispatch, replicas=sim.replicas,
            accelerator=sim.accelerator.name, rate_rps=spec["rate"],
            **tags,
        )

    # no request at all is a legal outcome: an unlucky hash fold, or a
    # geo policy that drained this region dry — the partition's pool
    # idles for the whole run (still reporting the snapshot cells it
    # was shipped, and its telemetry run header)
    served: dict = {}
    first = next(stream, None)
    if first is not None:
        energy = 0.0
        latencies = array("d")
        append = latencies.append

        def fold(entry: tuple) -> None:
            # a closure, not an object with __call__: it runs once per
            # served batch, and the call is cheaper
            nonlocal energy
            record, answered = entry
            done = record.done
            share = record.energy / record.size
            for request in answered:
                energy += share
                append(done - request.arrival)

        # make_result reads the log, so a detail run keeps it and
        # folds it here; any other run folds as its batches complete
        # and logs nothing
        run = engine.run(chain((first,), stream), span=span,
                         fold=None if spec["detail"] else fold)
        for entry in run.log:
            fold(entry)
        # free the engine's queues and memos before the sort allocates
        del engine
        column = array("d", sorted(latencies))
        served = {
            "requests": len(column), "batches": len(run.batches),
            "energy": energy,
            "busy_s": sum(record.service for record in run.batches),
            "first_arrival": first.arrival,
            "last_done": max(record.done for record in run.batches),
            "digest": LatencyDigest((column,)),
            "slo_hits": (bisect_right(column, slo_target)
                         if slo_target else 0),
            "result": (sim.make_result(kept, run, cache.stats,
                                       scenario=scenario.name,
                                       rate=spec["rate"])
                       if spec["detail"] else None),
            **{key: getattr(run, key) for key in ENGINE_COUNTERS},
        }

    rows: tuple = ()
    counters: tuple = ()
    if telemetry is not None:
        label, value = next(iter(tags.items()))
        for row in telemetry.rows:
            row[label] = value
        rows = tuple(telemetry.rows)
        counters = tuple(sorted(telemetry.counters.items()))
    return ShardOutcome(
        shard=spec["shard"], cache=cache.stats,
        wall_s=perf_counter() - t_start, telemetry_rows=rows,
        counters=counters, **served,
    )


def _serve_shard(spec: dict) -> ShardOutcome:
    """Serve one shard (runs in a worker process): its slice of the
    seeded global trace, streamed by :func:`~repro.serving.workload.
    shard_trace` — no process materialises the whole trace."""
    t_start = perf_counter()
    shard = shard_trace(spec["scenario"], spec["rate"], spec["n"],
                        spec["seed"], shards=spec["shards"],
                        shard=spec["shard"], replicas=spec["replicas"],
                        span=spec["span"])
    return _serve_partition(spec, shard, shard.span,
                            {"shard": spec["shard"],
                             "shards": spec["shards"]}, t_start)


@dataclass(frozen=True)
class _ShardFailure:
    """A worker partition that raised instead of finishing."""

    shard: int
    error: str


def _serve_safe(worker: tuple[str, str],
                spec: dict) -> ShardOutcome | _ShardFailure:
    """Crash-isolating wrapper around one partition worker.

    ``worker`` names a module-level worker body as ``(module, name)``,
    looked up at call time, so jobs pickle two strings and never a
    function.  A raising partition comes back as a
    :class:`_ShardFailure` instead of aborting the whole fan-out, so
    the driver keeps every completed :class:`ShardOutcome` and re-runs
    only the failed partitions.  (A worker that dies outright —
    SIGKILL, ``os._exit`` — is caught one layer down by
    :func:`~repro.runtime.executor.parallel_map`'s incomplete-only
    re-run instead.)
    """
    module, name = worker
    try:
        return getattr(importlib.import_module(module), name)(spec)
    except Exception as exc:  # noqa: BLE001 — partition faults are data
        return _ShardFailure(spec["shard"],
                             f"{type(exc).__name__}: {exc}")


def _spec_fingerprint(spec: dict) -> str:
    """Stable identity of a sharded run's configuration.

    All of a sharded run's specs differ only in ``"shard"``; dropping
    it yields the key a checkpoint is valid for.
    """
    return repr({k: spec[k] for k in sorted(spec) if k != "shard"})


def _load_checkpoint(path: Optional[str], fingerprint: str) -> dict:
    """Completed partition outcomes from a matching prior run."""
    if not path or not os.path.exists(path):
        return {}
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except Exception:
        return {}  # corrupt/truncated checkpoint: start fresh
    if payload.get("fingerprint") != fingerprint:
        return {}  # different run configuration: start fresh
    return dict(payload.get("outcomes", {}))


def _save_checkpoint(path: Optional[str], fingerprint: str,
                     done: dict) -> None:
    if not path or not done:
        return
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as handle:
        pickle.dump({"fingerprint": fingerprint,
                     "outcomes": dict(done)}, handle)
    os.replace(tmp, path)


@dataclass
class ShardedResult:
    """The merge-reduced outcome of one fan-out run, sharded or geo.

    Counters, energy, busy time and SLO hits are exact sums over the
    partitions, the engine's own counters (:data:`~repro.serving.
    simulator.ENGINE_COUNTERS`) included; ``energy`` is served energy
    and ``wasted_energy`` the aborted and duplicate work.  ``digest``
    holds every partition's sorted latency column, unmerged, and
    latency percentiles select across them exactly, with or without
    ``detail``.  ``detail`` holds the bit-exact merged
    :class:`ServingResult` when the run kept per-request arrays.
    ``wall_s`` times the whole ``run_scenario`` call: calibration,
    prewarm, the parent's span or routing pass, the fan-out and the
    merge.  ``shard_retries`` counts partition re-runs after a crash.
    """

    scenario: str
    policy: str
    dispatch: str
    accelerator: str
    replicas: int
    rate: float
    requests: int
    batches: int
    energy: float
    busy_s: float
    first_arrival: float
    last_done: float
    digest: LatencyDigest
    slo_target: float
    slo_hits: int
    wall_s: float
    cache: CacheStats
    outcomes: tuple[ShardOutcome, ...]
    detail: Optional[ServingResult]
    resilience: str
    shard_retries: int
    redispatched: int
    wasted_energy: float
    stolen: int
    timeouts: int
    retries: int
    hedges: int
    cancels: int
    degraded: int

    @classmethod
    def merge(cls, outcomes: tuple[ShardOutcome, ...], *, t_start: float,
              retried: int, **run) -> "ShardedResult":
        """Exact merge of the partition outcomes into one result.

        ``run`` names the run — ``scenario``, ``policy``, ``dispatch``,
        ``accelerator``, ``replicas``, ``rate``, ``slo_target``,
        ``resilience`` — plus the subclass's own fields.  ``wall_s``
        runs from ``t_start`` to the end of the merge.
        """
        cache = CacheStats()
        for outcome in outcomes:
            cache.hits += outcome.cache.hits
            cache.misses += outcome.cache.misses
            cache.energy_hits += outcome.cache.energy_hits
            cache.energy_misses += outcome.cache.energy_misses
            cache.seeded += outcome.cache.seeded
            cache.seed_hits += outcome.cache.seed_hits
        engine = {key: sum(getattr(o, key) for o in outcomes)
                  for key in ENGINE_COUNTERS}
        result = cls(
            requests=sum(o.requests for o in outcomes),
            batches=sum(o.batches for o in outcomes),
            energy=sum(o.energy for o in outcomes),
            busy_s=sum(o.busy_s for o in outcomes),
            first_arrival=min(o.first_arrival for o in outcomes),
            last_done=max(o.last_done for o in outcomes),
            digest=LatencyDigest(chain.from_iterable(
                o.digest.columns for o in outcomes)),
            slo_hits=sum(o.slo_hits for o in outcomes),
            cache=cache, outcomes=outcomes, detail=None,
            shard_retries=retried, wall_s=0.0, **engine, **run,
        )
        parts = [o.result for o in outcomes if o.result is not None]
        if parts:
            # reassemble the monolithic ServingResult: requests (and
            # their latencies/energies) interleave back into global
            # request-id order — exactly the monolithic trace order, as
            # ids are assigned in arrival order.  Batches from different
            # partitions have no global dispatch order, so they are
            # canonically sorted; the equivalence suite compares them
            # as sets.
            triplets = sorted(
                chain.from_iterable(zip(r.requests, r.latencies,
                                        r.energy_per_request)
                                    for r in parts),
                key=lambda triplet: triplet[0].request_id,
            )
            requests = tuple(t[0] for t in triplets)
            batches = tuple(sorted(
                chain.from_iterable(r.batches for r in parts),
                key=lambda b: (b.flush, b.start, b.done, b.replica, b.model),
            ))
            result.detail = ServingResult(
                accelerator=run["accelerator"], replicas=run["replicas"],
                scenario=run["scenario"], policy=run["policy"],
                rate=run["rate"], requests=requests,
                latencies=tuple(t[1] for t in triplets),
                energy_per_request=tuple(t[2] for t in triplets),
                batches=batches, cache=cache, slo_target=run["slo_target"],
                replica_trace=((requests[0].arrival, run["replicas"]),),
                resilience=parts[0].resilience,
                accuracy_cost=result.accuracy_cost, **engine,
            )
        result.wall_s = perf_counter() - t_start
        return result

    @property
    def shards(self) -> int:
        """Partitions the run fanned out to: shards, or geo regions."""
        return len(self.outcomes)

    @property
    def makespan(self) -> float:
        """Global first arrival to global last completion (s)."""
        if self.last_done <= self.first_arrival:
            return 0.0
        return self.last_done - self.first_arrival

    @property
    def throughput_rps(self) -> float:
        """Simulated served requests per second of sim-time."""
        return self.requests / self.makespan if self.makespan else 0.0

    @property
    def simulated_rps(self) -> float:
        """Aggregate simulated requests per second of *wall* time —
        the scale-out headline the ``serving_scale`` bench records."""
        return self.requests / self.wall_s if self.wall_s else 0.0

    @property
    def mean_batch(self) -> float:
        """Mean dispatched batch size across all partitions."""
        return self.requests / self.batches if self.batches else 0.0

    @property
    def utilization(self) -> float:
        """Busy fraction of the pool over the global makespan."""
        available = self.replicas * self.makespan
        return self.busy_s / available if available else 0.0

    @property
    def slo_attainment(self) -> float:
        """Fraction of all requests meeting the SLO (exact)."""
        if not self.slo_target:
            return 1.0
        return self.slo_hits / self.requests if self.requests else 1.0

    @property
    def accuracy_cost(self) -> float:
        """Mean accounted accuracy drop per request, as a plain run
        reports it: degraded requests x the policy's per-request drop."""
        if not self.degraded:
            return 0.0
        return (self.degraded * make_resilience(self.resilience)
                .accuracy_drop / self.requests)

    @property
    def telemetry_rows(self) -> tuple:
        """Every partition's telemetry rows, tagged, concatenated in
        (partition, emission) order."""
        return tuple(chain.from_iterable(o.telemetry_rows
                                         for o in self.outcomes))

    @property
    def counters(self) -> dict[str, int]:
        """Every partition's telemetry counters, summed."""
        merged: dict[str, int] = {}
        for outcome in self.outcomes:
            for key, count in outcome.counters:
                merged[key] = merged.get(key, 0) + count
        return merged

    def latency_percentile(self, q: float) -> float:
        """Served-request latency percentile ``q`` (s), exact with or
        without ``detail``: read across the partitions' columns."""
        return self.digest.percentile(q)

    def _row(self, label: dict, costs: dict, **extra) -> dict:
        """One fan-out reporting row: the shared columns, with the
        engine's ``label`` columns after the policy and its ``costs``
        after the energy; then, each only when active, SLO attainment,
        the engine counters, ``extra``, partition re-runs and the warm
        fleet's counters."""
        row = {
            "scenario": self.scenario,
            "policy": self.policy,
            **label,
            "requests": self.requests,
            "rate_rps": self.rate,
            "p50_us": self.latency_percentile(50) * 1e6,
            "p95_us": self.latency_percentile(95) * 1e6,
            "p99_us": self.latency_percentile(99) * 1e6,
            "throughput_rps": self.throughput_rps,
            "agg_rps": self.simulated_rps,
            "energy_per_req_uj": (self.energy / self.requests * 1e6
                                  if self.requests else 0.0),
            **costs,
            "cache_hit_rate": self.cache.hit_rate,
        }
        if self.slo_target:
            row["slo_attain"] = self.slo_attainment
        row.update(counter_columns(self), **extra)
        if self.shard_retries:
            row["shard_retries"] = self.shard_retries
        if self.cache.seeded:
            # warm-fleet effectiveness: snapshot cells shipped across
            # all partitions, and how many of them the runs looked up
            row["memo_seeded"] = self.cache.seeded
            row["warm_hits"] = self.cache.seed_hits
        return row

    def to_row(self) -> dict:
        """The reporting row ``repro serve-sim --shards N`` prints."""
        return self._row({"shards": self.shards},
                         {"mean_batch": self.mean_batch,
                          "utilization": self.utilization})


class _FanOutEngine:
    """The configuration both fan-out engines share, and what reads it.

    :class:`ShardedEngine` and :class:`~repro.serving.geo.GeoRouter`
    differ only in how ``_run`` cuts a run into partitions.  Both
    calibrate and prewarm through the parent's warm memo, serve their
    partition specs with one crash-safe driver (a crashed or raising
    partition is re-run up to 2 times, with capped exponential backoff
    from 0.05 s) and merge the outcomes into their result type.

    Args:
        accelerators: every replica configuration scheme the
            partitions run (each is built once here, to check it).
        policy: batching policy name (``fixed``/``timeout``) of every
            partition engine, with ``batch_size``.
        batch_size: batching policy batch size.
        dispatch: replica dispatch of every partition engine, one of
            :data:`~repro.serving.events.DISPATCH_STRATEGIES`.
        slo_us: per-request latency SLO (us); 0 disables.
        mode: executor mode, one of :data:`~repro.runtime.executor.
            MAP_MODES` (``process``/``thread``/``inline``) — the
            runtime executor falls back to threads transparently where
            process pools are unavailable.
        max_workers: pool width cap (default: executor's own).
        detail: keep per-request arrays and merge a full bit-exact
            :class:`ServingResult` (the equivalence-test path; costs
            O(n) parent memory, leave off at million-request scale).
            Percentiles are exact either way: without ``detail`` a
            partition ships only its sorted latency column, 8 bytes
            per served request.
        trace: record per-partition telemetry (rows tagged with their
            shard or region on ``result.telemetry_rows``), its
            timeline sampled every :data:`~repro.serving.telemetry.
            TIMELINE_TICK`.
        trace_events: include per-request event rows in the trace
            (off keeps only timeline samples — the scale default).
        resilience: client resilience spec string (``"retry"`` /
            ``"hedge"`` / ``"degrade"``, with ``name:key=value``
            options) applied inside every partition engine.
        memo_cache: the parent-side :class:`LayerMemoCache` to
            calibrate and prewarm through; pass a shared instance to
            accumulate warm totals across runs (the ``--persist-memo``
            path), or one with a :class:`MemoSnapshot` installed to
            seed it, default a fresh private one.

    Raises:
        ConfigError: for an unknown batching policy, replica dispatch,
            accelerator scheme, resilience spec or execution mode, and
            for a ``retry`` or ``hedge`` spec with neither its own
            deadline nor ``slo_us``.
    """

    #: The partition worker body, as :func:`_serve_safe` looks it up.
    _worker: tuple[str, str]
    #: The result type :meth:`_merge` builds.
    _result: type
    #: Where completed outcomes are checkpointed; geo runs keep none.
    checkpoint: Optional[str] = None

    def __init__(self, accelerators: Iterable[str], *, policy: str,
                 batch_size: int, dispatch: str, slo_us: float,
                 mode: str, max_workers: Optional[int], detail: bool,
                 trace: bool, trace_events: bool, resilience: str,
                 memo_cache: Optional[LayerMemoCache]) -> None:
        # fail here, not in the first run's calibration or workers
        make_policy(policy, batch_size=batch_size)
        make_dispatch(dispatch)
        for scheme in dict.fromkeys(accelerators):
            make_accelerator(scheme)
        res = make_resilience(resilience)
        resilience_deadline(res, SloPolicy(target=slo_us * 1e-6)
                            if slo_us else None)
        self.policy = policy
        self.batch_size = batch_size
        self.dispatch = dispatch
        self.slo_us = slo_us
        self.mode = check_map_mode(mode)
        self.max_workers = max_workers
        self.detail = detail
        self.trace = trace
        self.trace_events = trace_events
        # normalise "none"/"" to the empty spec so rows stay clean
        self.resilience = resilience if res is not None else ""
        self._warm_cache = (memo_cache if memo_cache is not None
                            else LayerMemoCache())

    @_gc_headroom()
    def run_scenario(self, scenario: Scenario | str, n_requests: int,
                     seed: int = 0) -> ShardedResult:
        """Calibrate, prewarm, partition, fan out and merge one
        scenario run (the partitioning is the engine's ``_run``).
        ``wall_s`` times all of it."""
        t_start = perf_counter()
        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        if n_requests < 1:
            raise ConfigError("trace needs at least one request")
        return self._run(scenario, n_requests, seed, t_start)

    def _calibrator(self, accelerator: str,
                    replicas: int) -> ServingSimulator:
        """A partition's simulator over the parent's warm memo: it
        calibrates the offered rate exactly as the monolithic path
        does, so fan-out and monolithic runs serve the same trace, and
        every cell it resolves feeds the broadcast snapshot."""
        return ServingSimulator(
            accelerator=accelerator, replicas=replicas,
            policy=make_policy(self.policy, batch_size=self.batch_size),
            dispatch=self.dispatch, cache=self._warm_cache)

    def _spec(self, scenario: Scenario, **extra) -> dict:
        """The partition spec :func:`_serve_partition` reads: the
        :class:`Scenario` object itself (a custom one needs no registry
        round-trip in the worker), the engine's batching, SLO,
        resilience and detail/telemetry switches, and ``extra``."""
        return {"scenario": scenario, "policy": self.policy,
                "batch_size": self.batch_size, "dispatch": self.dispatch,
                "slo_us": self.slo_us, "resilience": self.resilience,
                "detail": self.detail, "trace": self.trace,
                "trace_events": self.trace_events, **extra}

    def _fan_out(self, specs: Sequence[dict], snapshot: MemoSnapshot
                 ) -> tuple[tuple[ShardOutcome, ...], int]:
        """The one crash-safe driver: serve every partition spec on
        the engine's pool, each worker warmed once with ``snapshot`` as
        its pool payload.

        Failed partitions are re-run with capped exponential backoff
        from :data:`_RETRY_BACKOFF_S`, for at most
        :data:`_SHARD_RETRIES` more rounds; with a ``checkpoint``,
        completed outcomes land there after every round and a rerun of
        the same configuration serves only the missing ones.  Returns
        the outcomes in spec order and the partition re-run count.
        """
        retries, backoff_s = _SHARD_RETRIES, _RETRY_BACKOFF_S
        checkpoint = self.checkpoint
        # only a checkpoint needs the fingerprint: a geo spec carries
        # its delivery columns, far too big to repr on every call
        fingerprint = _spec_fingerprint(specs[0]) if checkpoint else ""
        done = _load_checkpoint(checkpoint, fingerprint)
        retried = 0
        attempt = 0
        while True:
            pending = [s for s in specs if s["shard"] not in done]
            if not pending:
                break
            if attempt:
                time.sleep(min(backoff_s * 2 ** (attempt - 1),
                               _BACKOFF_CAP_S))
            stats: dict = {}
            batch = parallel_map(
                _serve_safe, [(self._worker, s) for s in pending],
                mode=self.mode, max_workers=self.max_workers,
                stats=stats, payload=snapshot)
            retried += stats.get("retried", 0)
            failures = []
            for item in batch:
                if isinstance(item, ShardOutcome):
                    done[item.shard] = item
                else:
                    failures.append(item)
            _save_checkpoint(checkpoint, fingerprint, done)
            if not failures:
                break
            attempt += 1
            if attempt > retries:
                raise RuntimeError(
                    f"shard {failures[0].shard} still failing after "
                    f"{retries} retries: {failures[0].error}")
            retried += len(failures)
        return tuple(done[s["shard"]] for s in specs), retried

    def _merge(self, outcomes: tuple[ShardOutcome, ...], retried: int,
               t_start: float, scenario: Scenario,
               **run) -> ShardedResult:
        """:meth:`ShardedResult.merge` into the engine's result type,
        naming the run by the engine's configuration plus ``run``."""
        return self._result.merge(
            outcomes, t_start=t_start, retried=retried,
            scenario=scenario.name, policy=self.policy,
            dispatch=self.dispatch, slo_target=self.slo_us * 1e-6,
            resilience=self.resilience, **run)


class ShardedEngine(_FanOutEngine):
    """Fan one logical serving run out across worker processes.

    Every shard routes with the one shard-stable dispatch, ``shard``,
    and accepts only :data:`SHARD_STABLE_RESILIENCE`; the arguments not
    listed here are the shared configuration (:class:`_FanOutEngine`).

    Args:
        shards: worker shard count (each one independent
            :class:`~repro.serving.events.ClusterEngine` over the full
            replica pool, fed only its models' traffic).
        accelerator: replica configuration scheme name.
        replicas: cluster width; must be >= ``shards``.
        checkpoint: optional path; completed :class:`ShardOutcome`
            pickles land there after every fan-out round, and a rerun
            with the same configuration resumes from them, serving
            only the missing shards.  A checkpoint written by a
            different configuration is ignored and overwritten.

    Raises:
        ConfigError: from :func:`validate_sharding`, for any
            combination whose sharded results would not be exact.
    """

    _worker = (__name__, "_serve_shard")
    _result = ShardedResult

    def __init__(self, shards: int, accelerator: str = "SMART",
                 replicas: int = 2, policy: str = "timeout",
                 batch_size: int = 8, *, slo_us: float = 0.0,
                 mode: str = "process",
                 max_workers: Optional[int] = None,
                 detail: bool = False, trace: bool = False,
                 trace_events: bool = False,
                 resilience: str = "",
                 checkpoint: Optional[str] = None,
                 memo_cache: Optional[LayerMemoCache] = None) -> None:
        validate_sharding(shards, replicas=replicas, resilience=resilience)
        super().__init__(
            (accelerator,), policy=policy, batch_size=batch_size,
            dispatch=SHARD_STABLE_DISPATCH[0], slo_us=slo_us, mode=mode,
            max_workers=max_workers, detail=detail, trace=trace,
            trace_events=trace_events, resilience=resilience,
            memo_cache=memo_cache)
        self.shards = shards
        self.accelerator = accelerator
        self.replicas = replicas
        self.checkpoint = checkpoint

    def _run(self, scenario: Scenario, n_requests: int, seed: int,
             t_start: float) -> ShardedResult:
        validate_sharding(self.shards, replicas=self.replicas,
                          resilience=self.resilience,
                          scenarios=(scenario,))
        calibrator = self._calibrator(self.accelerator, self.replicas)
        rate = scenario.load * calibrator.capacity_rps(scenario)
        # one parent-side pass resolves every layer cell and the
        # global trace span; workers then skip both
        snapshot = calibrator.prewarm(scenario)
        spec = self._spec(scenario, rate=rate, n=n_requests, seed=seed,
                          shards=self.shards, replicas=self.replicas,
                          accelerator=self.accelerator,
                          span=trace_span(scenario, rate, n_requests,
                                          seed))
        outcomes, retried = self._fan_out(
            [dict(spec, shard=shard) for shard in range(self.shards)],
            snapshot)
        return self._merge(outcomes, retried, t_start, scenario,
                           accelerator=self.accelerator,
                           replicas=self.replicas, rate=rate)
