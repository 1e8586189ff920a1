"""Request-serving simulation over accelerator clusters.

:class:`ServingSimulator` drives a request trace through per-model
batching queues onto a cluster of accelerator replicas and reports the
serving metrics a production fleet is judged on: latency percentiles
(p50/p95/p99), sustained throughput, energy per request, and — when a
:class:`~repro.serving.events.SloPolicy` is set — per-request SLO
attainment and shed rate.

The clock lives in :class:`~repro.serving.events.ClusterEngine`, a
heap-ordered discrete-event engine (arrival / flush-deadline /
batch-done / failure / recovery / control-tick events).  On top of the
exact event core this layer configures:

- **clusters**, homogeneous (``replicas=N``) or heterogeneous
  (``accelerators=[...]`` with mixed configurations);
- **dispatch** strategies (:data:`DISPATCH_STRATEGIES`): round-robin,
  least-loaded, per-model sharding, and ``fastest_finish`` — the
  heterogeneity-aware strategy that weighs each replica's own service
  time, not just its queue;
- **autoscaling** (:class:`~repro.serving.policies.ScalePolicy`),
  **failure injection** (:class:`~repro.serving.events.FailurePlan`)
  and **admission control** via the engine's control plane.

Batch latencies and energies are served through the
:class:`LayerMemoCache`, so a million-request trace costs O(distinct
accelerator x layer x batch) of actual simulation work.
"""

from __future__ import annotations

import gc
from collections import Counter
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from operator import attrgetter, eq, sub
from typing import Iterator, Mapping, Optional, Sequence

from repro.core import make_accelerator
from repro.errors import ConfigError
from repro.eval.report import fraction_within, percentile
from repro.models import get_model
from repro.serving.batching import FixedSizeBatching, TimeoutBatching
from repro.serving.events import (
    BatchRecord,
    ClusterEngine,
    DISPATCH_STRATEGIES,
    EngineRun,
    FailurePlan,
    SloPolicy,
)
from repro.serving.memo import (
    CacheStats,
    LayerMemoCache,
    MemoSnapshot,
    prewarm_cache,
)
from repro.serving.policies import (
    AdmissionPolicy,
    DispatchPolicy,
    FlushPolicy,
    ResiliencePolicy,
    ScalePolicy,
    WorkStealPolicy,
    make_dispatch,
    make_resilience,
)
from repro.serving.telemetry import Telemetry
from repro.serving.workload import Request, Scenario, generate_trace
from repro.systolic.layers import Network
from repro.systolic.simulator import AcceleratorModel

__all__ = [
    "BatchRecord",
    "DISPATCH_STRATEGIES",
    "ServingResult",
    "ServingSimulator",
]

#: Gen-0 cyclic-GC threshold inside a run.  A run allocates a few
#: objects per simulated request (its ``Request``, heap tuples, batch
#: records), almost none of them in cycles; at CPython's default of
#: 700 a 100k-request run pays hundreds of collections that free
#: nothing.
GC_GEN0_THRESHOLD = 100_000

#: The counters of one engine run, under the same names on
#: :class:`~repro.serving.events.EngineRun`, :class:`ServingResult`, a
#: fan-out partition's outcome and the merged fan-out result.
ENGINE_COUNTERS = ("redispatched", "wasted_energy", "stolen", "timeouts",
                   "retries", "hedges", "cancels", "degraded")


def counter_columns(result) -> dict:
    """A reporting row's re-dispatch, stealing and resilience columns,
    each only when non-zero (the resilience ones only under a
    resilience policy): one copy for plain and fan-out rows."""
    keys = ("redispatched", "stolen")
    if result.resilience:
        keys += ("resilience", "timeouts", "retries", "hedges",
                 "cancels", "degraded", "accuracy_cost")
    return {key: value for key in keys if (value := getattr(result, key))}


@contextmanager
def _gc_headroom() -> Iterator[None]:
    """Raise the gen-0 GC threshold to :data:`GC_GEN0_THRESHOLD` for
    one run, and restore the caller's thresholds on exit, errors
    included.

    Only the entry that raised the threshold restores it: an entry
    that finds it raised already (a fan-out run inline inside another
    run, or a second thread of a thread-mode pool) changes nothing,
    so overlapping entries never leave the raised value behind and
    need no lock.  A threshold of 0 (automatic collection off) is
    left alone too.
    """
    thresholds = gc.get_threshold()
    if not 0 < thresholds[0] < GC_GEN0_THRESHOLD:
        yield
        return
    gc.set_threshold(GC_GEN0_THRESHOLD, *thresholds[1:])
    try:
        yield
    finally:
        gc.set_threshold(*thresholds)


@dataclass
class ServingResult:
    """Outcome of serving one request trace.

    Attributes:
        accelerator: accelerator name (first replica's, for mixed
            pools).
        replicas: initial cluster width.
        scenario: scenario name ("" for ad-hoc traces).
        policy: batching policy name.
        rate: offered arrival rate (requests/s).
        requests: the trace, in request-id order.
        latencies: per-request latency (s), indexed like ``requests``;
            ``inf`` for shed requests.
        energy_per_request: per-request energy (J), same indexing.
        batches: every served batch, in dispatch order.
        cache: layer-memo statistics for this run.
        slo_target: per-request latency SLO (s); 0 when unset.
        shed: request ids rejected by admission control.
        replica_trace: (time, up-replica count) at every change.
        scale_events: (time, "up"/"down") autoscale actions.
        redispatched: batches re-dispatched after replica failures.
        wasted_energy: energy burnt on aborted partial batches (J),
            cancelled duplicates and losing duplicate completions.
        stolen: batches work stealing moved to a faster replica.
        resilience: resilience policy name ("" for the stock none).
        timeouts: deadline checks that found a request unfinished.
        retries: duplicate attempts the retry policy launched.
        hedges: hedged duplicates launched to a second replica.
        cancels: losing duplicates cancelled before completion.
        degraded: requests served on the degraded path.
        accuracy_cost: mean accounted accuracy drop per request
            (degraded requests x the policy's per-request drop).
    """

    accelerator: str
    replicas: int
    scenario: str
    policy: str
    rate: float
    requests: tuple[Request, ...]
    latencies: tuple[float, ...]
    energy_per_request: tuple[float, ...]
    batches: tuple[BatchRecord, ...]
    cache: CacheStats
    slo_target: float = 0.0
    shed: tuple[int, ...] = ()
    replica_trace: tuple[tuple[float, int], ...] = ()
    scale_events: tuple[tuple[float, str], ...] = ()
    redispatched: int = 0
    wasted_energy: float = 0.0
    stolen: int = 0
    resilience: str = ""
    timeouts: int = 0
    retries: int = 0
    hedges: int = 0
    cancels: int = 0
    degraded: int = 0
    accuracy_cost: float = 0.0

    @property
    def served_latencies(self) -> tuple[float, ...]:
        """Latencies of the requests that were actually served."""
        return tuple(l for l in self.latencies if l != float("inf"))

    @property
    def shed_rate(self) -> float:
        """Fraction of the trace rejected by admission control."""
        return len(self.shed) / len(self.requests)

    @property
    def slo_attainment(self) -> float:
        """Fraction of *all* requests meeting the SLO (shed = miss)."""
        if not self.slo_target:
            return 1.0
        return fraction_within(self.latencies, self.slo_target)

    @property
    def makespan(self) -> float:
        """First arrival to last completion (s)."""
        if not self.batches:
            return 0.0
        return max(b.done for b in self.batches) - self.requests[0].arrival

    @property
    def throughput_rps(self) -> float:
        """Sustained served requests per second over the makespan."""
        if not self.makespan:
            return 0.0
        return (len(self.requests) - len(self.shed)) / self.makespan

    @property
    def replica_seconds(self) -> float:
        """Replica-time available over the makespan (autoscale-aware)."""
        if not self.batches:
            return 0.0
        end = max(b.done for b in self.batches)
        if not self.replica_trace:
            return self.replicas * self.makespan
        total, points = 0.0, list(self.replica_trace) + [(end, 0)]
        for (t, n), (t_next, _) in zip(points, points[1:]):
            total += n * max(0.0, min(t_next, end) - t)
        return total

    @property
    def utilization(self) -> float:
        """Busy fraction of the available replica-time."""
        if not self.replica_seconds:
            return 0.0
        busy = sum(b.service for b in self.batches)
        return busy / self.replica_seconds

    @property
    def mean_batch(self) -> float:
        """Mean dispatched batch size."""
        if not self.batches:
            return 0.0
        return (len(self.requests) - len(self.shed)) / len(self.batches)

    @property
    def peak_replicas(self) -> int:
        """Most replicas ever up at once."""
        if not self.replica_trace:
            return self.replicas
        return max(n for _, n in self.replica_trace)

    @property
    def low_replicas(self) -> int:
        """Fewest replicas ever up at once."""
        if not self.replica_trace:
            return self.replicas
        return min(n for _, n in self.replica_trace)

    def latency_percentile(self, q: float) -> float:
        """Served-request latency percentile ``q`` (s)."""
        return percentile(self.served_latencies, q)

    def to_row(self) -> dict:
        """The reporting row ``repro serve-sim`` prints.

        Static stock runs keep the exact PR 2 column set; SLO,
        autoscale and failure columns appear only when those features
        were active, so existing reports stay byte-compatible.
        """
        row = {
            "scenario": self.scenario,
            "policy": self.policy,
            "requests": len(self.requests),
            "rate_rps": self.rate,
            "p50_us": self.latency_percentile(50) * 1e6,
            "p95_us": self.latency_percentile(95) * 1e6,
            "p99_us": self.latency_percentile(99) * 1e6,
            "throughput_rps": self.throughput_rps,
            # over *served* requests: shed entries carry 0 J and would
            # deflate the metric exactly when shedding kicks in
            "energy_per_req_uj": (sum(self.energy_per_request)
                                  / max(1, len(self.requests)
                                        - len(self.shed)) * 1e6),
            "mean_batch": self.mean_batch,
            "utilization": self.utilization,
            "cache_hit_rate": self.cache.hit_rate,
        }
        if self.slo_target:
            row["slo_attain"] = self.slo_attainment
            row["shed_rate"] = self.shed_rate
        if self.scale_events or self.peak_replicas != self.low_replicas:
            row["replicas_low"] = self.low_replicas
            row["replicas_peak"] = self.peak_replicas
        row.update(counter_columns(self))
        return row

    @property
    def total_energy(self) -> float:
        """All energy the trace cost (J): served batches + work burnt
        on batches a failure aborted mid-flight."""
        return sum(self.energy_per_request) + self.wasted_energy

    @property
    def attainment_per_joule(self) -> float:
        """SLO attainment bought per joule (the reactive-vs-predictive
        autoscaling figure of merit)."""
        total = self.total_energy
        return self.slo_attainment / total if total else 0.0


class ServingSimulator:
    """Serve request traffic on a cluster of accelerator replicas.

    Args:
        accelerator: the replica configuration, or a scheme name for
            :func:`repro.core.make_accelerator`.
        replicas: identical accelerators in the cluster (ignored when
            ``accelerators`` is given).
        policy: batching policy (fixed or timeout).
        dispatch: one of :data:`DISPATCH_STRATEGIES`, or a
            :class:`~repro.serving.policies.DispatchPolicy` instance.
        cache: layer-memo to use; a fresh enabled one by default.
            Pass a shared instance to reuse results across runs, or a
            disabled one for the uncached reference path.
        networks: optional name -> Network override; defaults to the
            model zoo.
        accelerators: optional per-replica configurations (models or
            scheme names) forming a heterogeneous pool.
        slo: latency SLO + admission control, or None.
        autoscale: a :class:`~repro.serving.policies.ScalePolicy`
            (the stock
            :class:`~repro.serving.policies.ReactiveScalePolicy`, or
            e.g. :class:`~repro.serving.policies.ForecastScalePolicy`),
            or None for a static pool; scale-ups clone the first
            replica's configuration, so a heterogeneous pool grows
            with copies of its lead config.  An uncalibrated forecast
            policy is calibrated against the trace's own model mix
            before each run.
        failures: failure-injection plan, or None.
        flush: flush-ordering policy (stock FIFO by default); pass
            :class:`~repro.serving.policies.EdfFlush` for earliest-
            deadline-first with per-model priority classes.
        admission: admission policy; None derives the stock depth
            bound from ``slo.shed_depth``.
        steal: work stealing on control ticks, or None.
        telemetry: opt-in :class:`~repro.serving.telemetry.Telemetry`
            sink; every run records its event trace and metrics
            timeline into it (results stay bit-identical — the sink
            only observes).  One sink may be shared across runs; each
            run is marked with a ``run`` boundary row.
        resilience: client resilience policy — a policy instance, a
            :func:`~repro.serving.policies.make_resilience` spec
            string ("retry", "hedge:delay_us=800", ...), or None /
            "none" for the stock (bit-identical) behaviour.
    """

    def __init__(self, accelerator: AcceleratorModel | str = "SMART",
                 replicas: int = 1,
                 policy: FixedSizeBatching | TimeoutBatching | None = None,
                 dispatch: str | DispatchPolicy = "round_robin",
                 cache: Optional[LayerMemoCache] = None,
                 networks: Optional[Mapping[str, Network]] = None,
                 accelerators: Optional[Sequence[AcceleratorModel | str]]
                 = None,
                 slo: Optional[SloPolicy] = None,
                 autoscale: Optional[ScalePolicy] = None,
                 failures: Optional[FailurePlan] = None,
                 flush: Optional[FlushPolicy] = None,
                 admission: Optional[AdmissionPolicy] = None,
                 steal: Optional[WorkStealPolicy] = None,
                 telemetry: Optional[Telemetry] = None,
                 resilience: Optional[str | ResiliencePolicy]
                 = None) -> None:
        if isinstance(accelerator, str):
            accelerator = make_accelerator(accelerator)
        if accelerators is not None:
            pool = [make_accelerator(a) if isinstance(a, str) else a
                    for a in accelerators]
            if not pool:
                raise ConfigError("cluster needs at least one replica")
            accelerator = pool[0]
            replicas = len(pool)
        else:
            if replicas < 1:
                raise ConfigError("cluster needs at least one replica")
            pool = [accelerator] * replicas
        self.accelerator = accelerator
        self.replicas = replicas
        self.pool = tuple(pool)
        self.policy = policy or TimeoutBatching()
        self.dispatch_policy = make_dispatch(dispatch)
        self.dispatch = self.dispatch_policy.name
        self.cache = cache if cache is not None else LayerMemoCache()
        self.slo = slo
        self.autoscale = autoscale
        self.failures = failures
        self.flush = flush
        self.admission = admission
        self.steal = steal
        self.telemetry = telemetry
        self.resilience = make_resilience(resilience)
        self._networks = networks

    @property
    def heterogeneous(self) -> bool:
        """Whether the pool mixes accelerator configurations."""
        return any(acc != self.pool[0] for acc in self.pool[1:])

    # -- model / capacity helpers ---------------------------------------
    def network(self, model: str) -> Network:
        """Resolve a model name to its network."""
        if self._networks is not None:
            try:
                return self._networks[model]
            except KeyError:
                raise ConfigError(f"unknown model '{model}'") from None
        return get_model(model)

    def batch_latency(self, model: str, batch: int,
                      accelerator: Optional[AcceleratorModel]
                      = None) -> float:
        """Memoised batch latency of one model (s)."""
        accelerator = accelerator or self.accelerator
        return self.cache.latency_total(accelerator, self.network(model),
                                        batch)

    def _per_request_s(self, fractions: Mapping[str, float],
                       accelerator: AcceleratorModel) -> float:
        """Mean per-request service time of one replica on a mix (s).

        The single definition of the capacity model — ``sum(frac_m *
        T_m(b) / b)`` at the policy's full batch size — shared by the
        scenario calibration and the forecast-policy calibration so
        the two can never drift apart.
        """
        b = self.policy.max_batch
        return sum(frac * self.batch_latency(model, b, accelerator) / b
                   for model, frac in fractions.items())

    def capacity_rps(self, scenario: Scenario) -> float:
        """Calibrated cluster capacity for a scenario's mix (req/s).

        One replica serving the mix sustains ``1 /`` its
        :meth:`_per_request_s`; a heterogeneous pool sums each
        replica's own capacity.
        """
        fractions = scenario.mix.fractions()
        if not self.heterogeneous:
            return (self.replicas
                    / self._per_request_s(fractions, self.accelerator))
        return sum(1.0 / self._per_request_s(fractions, acc)
                   for acc in self.pool)

    def prewarm(self, scenario: Scenario | str) -> MemoSnapshot:
        """Warm the memo for a scenario's mix and snapshot the totals.

        Resolves every (pool configuration, mix model, batch size
        1..max_batch) cell through the cache — latency, energy and
        deploy — then exports the totals as a compact picklable
        :class:`~repro.serving.memo.MemoSnapshot` ready to broadcast
        to shard/region workers via a pool initializer.  Cells the
        cache already holds cost one lookup each, so calling this
        after calibration only adds the batches calibration skipped.
        """
        if isinstance(scenario, str):
            from repro.serving.workload import get_scenario
            scenario = get_scenario(scenario)
        networks = [self.network(model)
                    for model in scenario.mix.fractions()]
        seen: list[AcceleratorModel] = []
        for acc in self.pool:
            if not any(acc is prior or acc == prior for prior in seen):
                seen.append(acc)
        for acc in seen:
            prewarm_cache(self.cache, acc, networks,
                          self.policy.max_batch)
        return MemoSnapshot.from_cache(self.cache)

    # -- runs ------------------------------------------------------------
    @_gc_headroom()
    def run(self, requests: Sequence[Request], scenario: str = "",
            rate: float = 0.0,
            failures: Optional[FailurePlan] = None) -> ServingResult:
        """Serve an explicit trace and collect per-request metrics.

        ``failures`` overrides the simulator-level plan for this run
        (used by :meth:`run_scenario` for fault-carrying scenarios).
        Like every serving run, it raises the gen-0 GC threshold for
        its duration (:func:`_gc_headroom`).
        """
        requests = tuple(sorted(requests, key=attrgetter("arrival")))
        if not requests:
            raise ConfigError("cannot serve an empty trace")
        # resolve every model once, up front, in first-occurrence
        # order: fails fast on the first unknown name and keeps
        # name->Network resolution out of the engine's dispatch path
        networks: dict[str, Network] = {
            model: self.network(model)
            for model in dict.fromkeys(map(attrgetter("model"), requests))
        }
        cache = self.cache
        scale = self.autoscale
        if (scale is not None and scale.needs_rate
                and not scale.capacity_pinned):
            # a capacity-sizing policy (e.g. the forecasters) gets one
            # replica's throughput calibrated against the trace's own
            # model mix (scale-ups clone the lead config, so its
            # capacity is the right unit) — every run, so a policy
            # reused across simulators never keeps stale figures
            scale.calibrate(self._mix_capacity_rps(requests))
        stats0 = astuple(cache.stats)
        if self.telemetry is not None:
            self.telemetry.begin_run(
                scenario=scenario, policy=self.policy.name,
                dispatch=self.dispatch, replicas=self.replicas,
                accelerator=self.accelerator.name, rate_rps=rate,
                requests=len(requests),
            )

        # the engine, with its queues and in-flight table, is dropped
        # as soon as it returns, before the fold allocates
        outcome = self.make_engine(networks, failures=failures).run(requests)
        # per-run delta, so a memo shared across runs still reports
        # this trace's own hit rate
        delta = CacheStats(*map(sub, astuple(cache.stats), stats0))
        return self.make_result(requests, outcome, delta,
                                scenario=scenario, rate=rate)

    def make_result(self, requests: tuple[Request, ...],
                    outcome: EngineRun, cache: CacheStats, *,
                    scenario: str, rate: float) -> ServingResult:
        """Fold one engine run over the time-ordered ``requests`` into
        a :class:`ServingResult`.

        :meth:`run` and every fan-out partition fold their runs here,
        so their per-request arrays and counters cannot drift apart.
        The completion log is scattered into position-indexed columns;
        when the ids are the positions, as in every ``run_scenario``
        trace, with no per-request table.

        Raises:
            KeyError: a request the run neither answered nor shed.
            ConfigError: a request id that appears more than once.
        """
        n = len(requests)
        request_id = attrgetter("request_id")
        # a run_scenario trace numbers its requests by position, so an
        # id is its own slot (None); any other trace looks its ids up,
        # in a dict that would keep only the last of a repeated id
        slot = (None if all(map(eq, map(request_id, requests), range(n)))
                else dict(zip(map(request_id, requests), range(n))))
        if slot is not None and len(slot) != n:
            repeated = Counter(map(request_id, requests)).most_common(1)
            raise ConfigError(f"request id {repeated[0][0]} appears more "
                              f"than once in the trace")
        latencies = [0.0] * n
        energy = [0.0] * n
        answered = 0
        for record, batch in outcome.log:
            done = record.done
            share = record.energy / record.size
            answered += len(batch)
            for request in batch:
                rid = request.request_id
                i = rid if slot is None else slot[rid]
                latencies[i] = done - request.arrival
                energy[i] = share
        for rid in outcome.shed:
            # a shed request is never done, at no energy
            latencies[rid if slot is None else slot[rid]] = float("inf")
        if answered + len(outcome.shed) != n:
            raise KeyError(f"{n - answered - len(outcome.shed)} of {n} "
                           f"requests were neither answered nor shed")
        return ServingResult(
            accelerator=self.accelerator.name, replicas=self.replicas,
            scenario=scenario, policy=self.policy.name, rate=rate,
            requests=requests, latencies=tuple(latencies),
            energy_per_request=tuple(energy), batches=outcome.batches,
            cache=cache, slo_target=self.slo.target if self.slo else 0.0,
            shed=outcome.shed, replica_trace=outcome.replica_trace,
            scale_events=outcome.scale_events,
            resilience=(self.resilience.name
                        if self.resilience is not None else ""),
            accuracy_cost=(
                outcome.degraded * self.resilience.accuracy_drop
                / len(requests)
                if outcome.degraded
                and hasattr(self.resilience, "accuracy_drop") else 0.0),
            **{key: getattr(outcome, key) for key in ENGINE_COUNTERS},
        )

    def make_engine(self, networks: Mapping[str, Network],
                    failures: Optional[FailurePlan] = None
                    ) -> ClusterEngine:
        """The configured :class:`ClusterEngine` over resolved models.

        ``networks`` maps every model name the trace may carry to its
        :class:`Network` — callers resolve names up front so the
        engine's dispatch path never does.  Shared by :meth:`run` and
        the sharded runner (each shard builds its own engine in its
        worker process).
        """
        cache = self.cache
        return ClusterEngine(
            replicas=self.pool, policy=self.policy,
            dispatch=self.dispatch_policy,
            service_fn=lambda acc, model, size:
                cache.latency_total(acc, networks[model], size),
            energy_fn=lambda acc, model, size:
                cache.energy_total(acc, networks[model], size),
            switch_fn=lambda acc, model, size:
                cache.deploy_total(acc, networks[model], size),
            slo=self.slo, autoscale=self.autoscale,
            failures=failures if failures is not None else self.failures,
            flush=self.flush, admission=self.admission, steal=self.steal,
            telemetry=self.telemetry, resilience=self.resilience,
            # with the memo disabled the run is the uncached reference
            # path: every dispatch must reach the fns (and count)
            memoize_rates=cache.enabled,
        )

    def _mix_capacity_rps(self, requests: Sequence[Request]) -> float:
        """One lead-config replica's throughput on the trace's mix.

        The same capacity model as :meth:`capacity_rps`
        (:meth:`_per_request_s`) weighed by the trace's actual model
        frequencies, so forecast calibration works for explicit
        traces that never named a scenario.
        """
        counts = Counter(request.model for request in requests)
        total = len(requests)
        fractions = {model: count / total
                     for model, count in counts.items()}
        return 1.0 / self._per_request_s(fractions, self.pool[0])

    @_gc_headroom()
    def run_scenario(self, scenario: Scenario | str, n_requests: int,
                     seed: int = 0) -> ServingResult:
        """Calibrate the rate, generate a trace, and serve it."""
        if isinstance(scenario, str):
            from repro.serving.workload import get_scenario
            scenario = get_scenario(scenario)
        rate = scenario.load * self.capacity_rps(scenario)
        trace = generate_trace(scenario, rate, n_requests, seed)
        failures = self.failures
        if failures is None and scenario.faults:
            # sample the outages from the run's seed, like the
            # explicit --fail path does — otherwise every seed of a
            # fault-carrying scenario replays seed-0 outage instants
            failures = FailurePlan(count=scenario.faults, seed=seed)
        return self.run(trace, scenario=scenario.name, rate=rate,
                        failures=failures)
