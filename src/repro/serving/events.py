"""Discrete-event core of the serving simulator.

The arrival-driven loop PR 2 shipped observed timeout flushes, replica
frees and drain work retroactively, at the *next* arrival.  That is
exact for static clusters (dispatch reads replica free times, which
are known at flush time) but cannot express anything that must react
to the clock itself: autoscaling ticks, replica failures mid-batch,
admission decisions against a live queue depth.  This module replaces
it with a true discrete-event engine:

- a heap-ordered :class:`EventQueue` of arrival / flush-deadline /
  batch-done / failure / recovery / control-tick / drain events;
- :class:`ClusterEngine`, which owns the queues, the replica pool and
  the clock, and on which the control plane runs:

  * **heterogeneous replicas** — each :class:`Replica` carries its own
    accelerator configuration, and the ``fastest_finish`` dispatch
    strategy picks the replica that *completes* a batch earliest
    (per-replica service times), not merely the one that frees first;
  * **SLO-aware autoscaling** (:class:`AutoscalePolicy`) — scale on
    queue depth or windowed p95 latency, with warm-up delay before a
    new replica serves and a cooldown between actions;
  * **failure injection** (:class:`FailurePlan`) — a replica drops
    mid-trace, its in-flight batches are re-dispatched to survivors,
    and it rejoins at recovery;
  * **admission control** (:class:`SloPolicy`) — shed arrivals once
    the cluster queue exceeds a depth bound, and report per-request
    SLO attainment.

Every scheduling *decision* the engine takes is delegated to the
policy seams in :mod:`repro.serving.policies`: replica selection to a
:class:`~repro.serving.policies.DispatchPolicy` (the four stock
strategies reproduce the retired string branches bit for bit), flush
tie-breaking / drain ordering / parked-batch re-dispatch to a
:class:`~repro.serving.policies.FlushPolicy`, the control-tick pool
decision to a :class:`~repro.serving.policies.ScalePolicy` (an
:class:`AutoscalePolicy` is wrapped reactively; predictive policies
consume the per-tick arrival-rate history the engine keeps for them),
and arrival admission to an
:class:`~repro.serving.policies.AdmissionPolicy`.  A
:class:`~repro.serving.policies.WorkStealPolicy` additionally lets
control ticks re-dispatch the most-backlogged replica's last
unstarted batch to whichever replica finishes it soonest.

One faithfulness charge rides the dispatch path: when a replica
serves a *different* model than the one whose weights it last
deployed, the incoming batch pays a weight-deployment switch charge
(``switch_fn``) before service — back-to-back batches of one model
keep their weights resident, contended replicas do not.

Event ordering at equal timestamps mirrors the retired loop exactly
(due flushes fire before the arrival that made them due; simultaneous
flushes fire in (deadline, model) order; the end-of-trace drain runs
after the final arrival), so a static cluster reproduces PR 2's
per-request latencies bit for bit.

The hot path is tuned for trace scale (see ``BENCH_serving.json``):
the heap holds raw ``(time, kind, key, seq, payload)`` tuples rather
than :class:`Event` objects, arrivals are merge-scanned out of the
(time-ordered) trace instead of being heap-resident, per-(replica
configuration, model, batch-size) service/energy rates are memoised
outside the dispatch inner loop, and the windowed-p95 autoscale metric
is maintained incrementally (:class:`_LatencyWindow`) instead of
re-sorting the window every control tick.  None of this changes a
single emitted float: ``repro.serving.reference`` retains the
straightforward pre-optimisation engine as a test oracle, and the
equivalence suite holds every stock scenario x policy x dispatch cell
to exact per-request tuple equality.
"""

from __future__ import annotations

import heapq
import random as _random
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from enum import IntEnum
from math import ceil
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.errors import ConfigError
from repro.serving.policies import (
    AdmissionPolicy,
    DepthAdmission,
    DispatchPolicy,
    FifoFlush,
    FlushPolicy,
    ReactiveScalePolicy,
    ResiliencePolicy,
    ScalePolicy,
    WorkStealPolicy,
    make_dispatch,
    make_resilience,
)
from repro.serving.telemetry import Telemetry
from repro.serving.workload import Request

#: Replica-selection strategies the engine understands (the stock
#: :data:`repro.serving.policies.DISPATCH_POLICIES` names).
DISPATCH_STRATEGIES = ("round_robin", "least_loaded", "shard",
                       "fastest_finish")


class EventKind(IntEnum):
    """Event types, ordered by priority at equal timestamps.

    The order encodes the retired arrival-driven loop's semantics: a
    flush whose deadline lands exactly on an arrival fires *before*
    that arrival is enqueued; completions and control actions follow
    arrivals; the end-of-trace drain runs after the last arrival.

    NETWORK names a request in flight on the geo interconnect, but no
    queue pushes it: the :class:`~repro.serving.geo.GeoRouter` re-sorts
    its routed requests into delivery order on a plain heap of tuples,
    and the cluster engine's heap never sees the kind.  The member
    stays because its value is load-bearing:
    ``ClusterEngine._handlers`` is indexed by kind value, and
    TIMEOUT / HEDGE / CANCEL must keep sorting after every
    pre-resilience kind.

    TIMEOUT / HEDGE / CANCEL are the resilience tier's kinds: a
    deadline check (and the backoff-delayed retry it may launch), the
    hedge-launch instant, and the cancellation of a losing duplicate
    once the first copy completes.  They order *after* every
    pre-resilience kind, so a ``resilience=none`` run — which never
    pushes them — keeps its same-instant tie-breaks untouched.
    """

    FLUSH = 0
    ARRIVAL = 1
    BATCH_DONE = 2
    FAIL = 3
    RECOVER = 4
    CONTROL = 5
    DRAIN = 6
    NETWORK = 7
    TIMEOUT = 8
    HEDGE = 9
    CANCEL = 10


# Hot-loop aliases: heap entries carry the plain int so tuple
# comparisons and handler dispatch never touch the enum machinery.
_FLUSH = int(EventKind.FLUSH)
_ARRIVAL = int(EventKind.ARRIVAL)
_BATCH_DONE = int(EventKind.BATCH_DONE)
_FAIL = int(EventKind.FAIL)
_RECOVER = int(EventKind.RECOVER)
_CONTROL = int(EventKind.CONTROL)
_DRAIN = int(EventKind.DRAIN)
_NETWORK = int(EventKind.NETWORK)
_TIMEOUT = int(EventKind.TIMEOUT)
_HEDGE = int(EventKind.HEDGE)
_CANCEL = int(EventKind.CANCEL)


@dataclass(frozen=True, slots=True)
class Event:
    """One scheduled event.

    Attributes:
        time: simulation instant (s).
        kind: event type (also its tie-break priority).
        key: secondary tie-break — the model name for FLUSH events, so
            simultaneous deadlines fire in (deadline, model) order.
        payload: kind-specific data.
    """

    time: float
    kind: EventKind
    key: str = ""
    payload: object = None


class EventQueue:
    """A heap-ordered event queue with deterministic tie-breaking.

    Events at the same instant pop in (kind, key, insertion) order;
    insertion order makes simultaneous same-kind events (e.g. two
    arrivals with identical timestamps) deterministic and stable.

    The heap stores raw ``(time, kind, key, seq, payload)`` tuples —
    no per-event object allocation on ``push``; :meth:`pop` wraps the
    head back into an :class:`Event` for callers that want one.  The
    engine's run loop reads the raw tuples directly.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self, first_seq: int = 0) -> None:
        self._heap: list[tuple[float, int, str, int, object]] = []
        self._seq = first_seq

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, kind: EventKind, key: str = "",
             payload: object = None) -> None:
        """Schedule one event."""
        heapq.heappush(self._heap,
                       (time, int(kind), key, self._seq, payload))
        self._seq += 1

    def next_time(self) -> float:
        """The earliest scheduled instant (the heap head's time)."""
        if not self._heap:
            raise ConfigError("next_time of an empty event queue")
        return self._heap[0][0]

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        time, kind, key, _seq, payload = heapq.heappop(self._heap)
        return Event(time=time, kind=EventKind(kind), key=key,
                     payload=payload)


class _LatencyWindow:
    """Sliding window of completed-request latencies, sorted as it goes.

    The p95 autoscale metric needs an order statistic over the last
    ``size`` latencies every control tick; re-sorting the window each
    tick is O(w log w) per tick.  This keeps a FIFO of the window
    contents plus a bisect-maintained sorted copy, so appends (with
    exact removal of the evicted element) are O(log w) and percentile
    reads are O(1) — and, being plain order statistics over the same
    multiset, bit-identical to :func:`repro.eval.report.percentile`
    over the equivalent deque.
    """

    __slots__ = ("_fifo", "_sorted", "_size")

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ConfigError("latency window must be >= 1")
        self._fifo: deque[float] = deque()
        self._sorted: list[float] = []
        self._size = size

    def __len__(self) -> int:
        return len(self._sorted)

    def append(self, value: float) -> None:
        """Add one latency, evicting the oldest beyond the window."""
        fifo = self._fifo
        ordered = self._sorted
        if len(fifo) == self._size:
            del ordered[bisect_left(ordered, fifo.popleft())]
        fifo.append(value)
        insort(ordered, value)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, matching ``report.percentile``."""
        ordered = self._sorted
        if not ordered:
            raise ConfigError("percentile of empty window")
        if q == 0.0:
            return ordered[0]
        return ordered[ceil(q / 100.0 * len(ordered)) - 1]


# ---------------------------------------------------------------------------
# Control-plane policies
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SloPolicy:
    """Per-request latency SLO plus optional admission control.

    Attributes:
        target: per-request latency objective (s); a request attains
            the SLO when it completes within ``target`` of arriving.
        shed_depth: when set, an arrival is shed (rejected, SLO miss)
            while this many admitted requests are still in the system
            — queued *or* dispatched but unfinished, the concurrency
            bound real admission controllers enforce.
    """

    target: float
    shed_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.target <= 0:
            raise ConfigError("SLO target must be positive")
        if self.shed_depth is not None and self.shed_depth < 1:
            raise ConfigError("shed depth must be >= 1")


@dataclass(frozen=True)
class AutoscalePolicy:
    """Replica autoscaling driven by queue depth or windowed p95.

    Attributes:
        min_replicas, max_replicas: pool bounds.
        metric: ``"queue"`` scales on in-system requests (queued *or*
            dispatched but unfinished) per alive replica; ``"p95"`` on
            the p95 of a sliding window of completed-request latencies
            (needs ``target_p95``).
        high_queue: scale up when in-system > high_queue x alive.
        low_queue: scale down when in-system < low_queue x alive.
        target_p95: p95 objective (s) for the ``"p95"`` metric; scale
            up above it, down below half of it.
        tick: control-loop interval (s).
        warmup: delay before a fresh replica can start serving (s).
        cooldown: minimum spacing between scale actions (s).
        window: completed-request latencies the p95 metric looks at.
    """

    min_replicas: int = 1
    max_replicas: int = 8
    metric: str = "queue"
    high_queue: int = 12
    low_queue: int = 2
    target_p95: Optional[float] = None
    tick: float = 200e-6
    warmup: float = 1e-3
    cooldown: float = 500e-6
    window: int = 256

    def __post_init__(self) -> None:
        if self.min_replicas < 1 or self.max_replicas < self.min_replicas:
            raise ConfigError(
                "autoscale needs 1 <= min_replicas <= max_replicas"
            )
        if self.metric not in ("queue", "p95"):
            raise ConfigError("autoscale metric must be 'queue' or 'p95'")
        if self.metric == "p95" and (self.target_p95 is None
                                     or self.target_p95 <= 0):
            raise ConfigError("p95 autoscaling needs a positive target_p95")
        if self.high_queue < 1 or self.low_queue < 0:
            raise ConfigError("queue thresholds must be sensible")
        if self.low_queue >= self.high_queue:
            raise ConfigError("low_queue must sit below high_queue")
        if self.tick <= 0 or self.warmup < 0 or self.cooldown < 0:
            raise ConfigError("autoscale times must be non-negative "
                              "(tick positive)")
        if self.window < 1:
            raise ConfigError("latency window must be >= 1")


@dataclass(frozen=True)
class Outage:
    """One resolved replica outage: down at ``at``, back at ``until``."""

    replica: int
    at: float
    until: float

    def __post_init__(self) -> None:
        if self.replica < 0:
            raise ConfigError("outage replica index must be >= 0")
        if self.until <= self.at:
            raise ConfigError("outage must end after it starts")


@dataclass(frozen=True)
class FailurePlan:
    """Seeded replica failure/recovery injection.

    Either carries explicit :class:`Outage` windows, or samples
    ``count`` of them (uniform instants over the middle 80% of the
    trace span, round-robin over replicas with a seeded shuffle), each
    lasting ``downtime_frac`` of the span.

    Attributes:
        count: sampled outages when ``outages`` is empty.
        downtime_frac: sampled outage length as a fraction of the
            trace span.
        seed: RNG seed for sampling.
        outages: explicit outage windows (skips sampling).
    """

    count: int = 2
    downtime_frac: float = 0.1
    seed: int = 0
    outages: tuple[Outage, ...] = ()

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ConfigError("failure count must be >= 0")
        if not 0.0 < self.downtime_frac < 1.0:
            raise ConfigError("downtime fraction must be in (0, 1)")

    def resolve(self, start: float, end: float,
                replicas: int) -> tuple[Outage, ...]:
        """Concrete outage windows for a trace spanning [start, end].

        Overlapping windows on one replica are merged, so a replica is
        down for the union of its outages — without the merge, the
        first RECOVER to pop would end every overlapping window early.
        """
        if self.outages:
            return _merge_outages(self.outages)
        span = max(end - start, 1e-12)
        rng = _random.Random(self.seed)
        order = list(range(replicas))
        rng.shuffle(order)
        downtime = self.downtime_frac * span
        outages = []
        for i in range(self.count):
            at = start + span * (0.1 + 0.8 * rng.random())
            outages.append(Outage(replica=order[i % replicas], at=at,
                                  until=at + downtime))
        return _merge_outages(outages)


def _merge_outages(outages) -> tuple[Outage, ...]:
    """Union overlapping/touching windows per replica, time-ordered."""
    spans: dict[int, list[list[float]]] = {}
    for outage in sorted(outages, key=lambda o: (o.replica, o.at)):
        windows = spans.setdefault(outage.replica, [])
        if windows and outage.at <= windows[-1][1]:
            windows[-1][1] = max(windows[-1][1], outage.until)
        else:
            windows.append([outage.at, outage.until])
    return tuple(sorted(
        (Outage(replica=replica, at=at, until=until)
         for replica, windows in spans.items()
         for at, until in windows),
        key=lambda o: (o.at, o.replica),
    ))


# ---------------------------------------------------------------------------
# Cluster state
# ---------------------------------------------------------------------------
@dataclass(slots=True)
class Replica:
    """Mutable state of one accelerator replica.

    Attributes:
        index: stable identity (dispatch order, shard target).
        accelerator: this replica's accelerator configuration.
        free_at: when its last scheduled batch completes (s).
        available_at: warm-up gate — no batch starts before this (s).
        up: serving (or warming); False while failed / retired.
        failed: down because of an injected outage (so only the
            matching recovery revives it — a recovery must not
            resurrect a replica the autoscaler retired).
        draining: finishing in-flight work before retirement.
        pending: in-flight batch ids (dispatch order).
        last_model: model whose weights the array holds once pending
            work completes (None after a cold start / power cycle);
            dispatching a different model charges the switch fee.
        done_model: model of the last *completed* batch (maintained
            only when work stealing runs, which may need to roll
            ``last_model`` back after emptying ``pending``).
    """

    index: int
    accelerator: object
    free_at: float = 0.0
    available_at: float = 0.0
    up: bool = True
    failed: bool = False
    draining: bool = False
    pending: list[int] = field(default_factory=list)
    last_model: Optional[str] = None
    done_model: Optional[str] = None


@dataclass(frozen=True, slots=True)
class BatchRecord:
    """One dispatched batch.

    Attributes:
        model: network the batch ran.
        size: images in the batch.
        replica: replica index that served it.
        flush: instant the batch left its queue (s).
        start: instant the replica began serving it (s).
        done: completion instant (s).
        energy: whole-batch energy (J).
    """

    model: str
    size: int
    replica: int
    flush: float
    start: float
    done: float
    energy: float

    @property
    def service(self) -> float:
        """Pure accelerator service time (s)."""
        return self.done - self.start


@dataclass(slots=True)
class _InFlight:
    """Engine-side bookkeeping for one dispatched batch."""

    record: BatchRecord
    requests: tuple[Request, ...]
    alive: bool = True


@dataclass
class EngineRun:
    """Raw outcome of one :meth:`ClusterEngine.run`.

    Attributes:
        batches: successfully served batches, in dispatch order.
        done: request_id -> (completion instant, energy share).
        shed: request ids rejected by admission control.
        replica_trace: (time, up-replica count) at every change.
        scale_events: (time, "up"/"down") autoscale actions.
        redispatched: batches re-dispatched after a replica failure.
        wasted_energy: energy burnt on aborted partial executions (J)
            — failure-aborted batches, cancelled duplicates' partial
            service, and losing duplicate completions.
        stolen: batches work stealing moved to a faster replica.
        timeouts: deadline checks that found the request unfinished.
        retries: duplicate attempts the retry policy launched.
        hedges: hedged duplicates launched to a second replica.
        cancels: losing duplicates cancelled before completion.
        degraded: requests served by the degraded (discounted) path.
    """

    batches: tuple[BatchRecord, ...]
    done: dict[int, tuple[float, float]]
    shed: tuple[int, ...]
    replica_trace: tuple[tuple[float, int], ...]
    scale_events: tuple[tuple[float, str], ...]
    redispatched: int
    wasted_energy: float
    stolen: int = 0
    timeouts: int = 0
    retries: int = 0
    hedges: int = 0
    cancels: int = 0
    degraded: int = 0


class ClusterEngine:
    """The discrete-event serving engine.

    Args:
        replicas: one accelerator configuration per initial replica
            (mixed configurations make a heterogeneous pool).
        policy: batching policy (``ready``/``deadline``/``max_batch``).
        dispatch: one of :data:`DISPATCH_STRATEGIES`, or a
            :class:`~repro.serving.policies.DispatchPolicy` instance.
        service_fn: (accelerator, model, batch) -> batch latency (s);
            routed through the layer-memo cache by the caller, which
            keeps the engine O(distinct layer x batch) in simulation
            work regardless of trace length.
        energy_fn: (accelerator, model, batch) -> batch energy (J).
        slo: SLO / admission-control policy, or None.
        autoscale: scaling — an :class:`AutoscalePolicy` (wrapped in
            the stock reactive :class:`ScalePolicy`), a
            :class:`~repro.serving.policies.ScalePolicy` directly, or
            None for a static pool.  Replicas added by a scale-up
            clone the *first* replica's accelerator configuration.
        failures: failure-injection plan, or None.
        memoize_rates: memoise (replica configuration, model, batch
            size) -> (service, energy) for the run, hoisting the
            service-fn calls out of the dispatch inner loop.  Both fns
            are deterministic so the emitted floats are unchanged;
            turn this off to route *every* dispatch through the fns —
            the uncached reference path counts each lookup.
        switch_fn: (accelerator, model, batch) -> weight-deployment
            switch charge (s) paid when the replica last served a
            *different* model; None charges nothing.
        flush: flush-ordering policy; None means the stock FIFO.
        admission: admission policy; None derives the stock depth
            bound from ``slo.shed_depth``.
        steal: work stealing on control ticks, or None.
        telemetry: opt-in :class:`~repro.serving.telemetry.Telemetry`
            sink recording the event trace and metrics timeline.  A
            pure observer — the engine never reads it back, so results
            are bit-identical with or without one; None (the default)
            costs one attribute check per handler.
        resilience: client resilience policy — a
            :class:`~repro.serving.policies.ResiliencePolicy`, a spec
            string for :func:`~repro.serving.policies.make_resilience`,
            or None / ``"none"`` for today's behaviour.  With None the
            engine never pushes a TIMEOUT / HEDGE / CANCEL event and
            every hot path is byte-identical to the pre-resilience
            engine.
        prewarm: (model, batch size) cells to resolve through the
            service/energy/switch fns up front, at the end of every
            per-run reset, so the dispatch inner loop starts with a
            fully warm rate memo.  The fns are deterministic and the
            cells land in the same per-run dicts a cold run would
            fill lazily, so emitted results are bit-identical; only
            honoured when ``memoize_rates`` is on (otherwise the warm
            cells would be recomputed per dispatch anyway).
    """

    def __init__(self, replicas: Sequence[object], policy,
                 dispatch: str | DispatchPolicy,
                 service_fn: Callable[[object, str, int], float],
                 energy_fn: Callable[[object, str, int], float],
                 slo: Optional[SloPolicy] = None,
                 autoscale: Optional[AutoscalePolicy | ScalePolicy]
                 = None,
                 failures: Optional[FailurePlan] = None,
                 memoize_rates: bool = True,
                 switch_fn: Optional[Callable[[object, str, int],
                                              float]] = None,
                 flush: Optional[FlushPolicy] = None,
                 admission: Optional[AdmissionPolicy] = None,
                 steal: Optional[WorkStealPolicy] = None,
                 telemetry: Optional[Telemetry] = None,
                 resilience: Optional[str | ResiliencePolicy]
                 = None,
                 prewarm: Optional[Sequence[tuple[str, int]]]
                 = None) -> None:
        if not replicas:
            raise ConfigError("cluster needs at least one replica")
        self.policy = policy
        self.dispatch = (dispatch.name
                         if isinstance(dispatch, DispatchPolicy)
                         else dispatch)
        self._dispatch_policy = make_dispatch(dispatch)
        self.service_fn = service_fn
        self.energy_fn = energy_fn
        self.switch_fn = switch_fn
        self.slo = slo
        self.autoscale = autoscale
        self.scale: Optional[ScalePolicy] = (
            ReactiveScalePolicy(autoscale)
            if isinstance(autoscale, AutoscalePolicy) else autoscale
        )
        self.flush = flush if flush is not None else FifoFlush()
        if admission is None and slo is not None \
                and slo.shed_depth is not None:
            admission = DepthAdmission(slo.shed_depth)
        self.admission = admission
        self.steal = steal
        self.telemetry = telemetry
        self.resilience = make_resilience(resilience)
        self.failures = failures
        self.memoize_rates = memoize_rates
        self.prewarm = tuple(prewarm) if prewarm else ()
        self._initial = list(replicas)

    # -- per-run state ---------------------------------------------------
    def _prepare(self, t0: float, n: int) -> None:
        """Reset all per-run state for a run starting at ``t0``.

        ``n`` seeds ``_remaining`` (arrivals still to come); the
        streaming path maintains it from its look-ahead instead.
        """
        self._replicas = [
            Replica(index=i, accelerator=acc)
            for i, acc in enumerate(self._initial)
        ]
        self._queues: dict[str, list[Request]] = {}
        self._armed: dict[str, float] = {}
        self._inflight: dict[int, _InFlight] = {}
        self._batch_order: list[int] = []
        self._next_batch = 0
        self._waiting: deque[tuple[str, tuple[Request, ...], float]] = deque()
        self._done: dict[int, tuple[float, float]] = {}
        self._shed: list[int] = []
        self._trace: list[tuple[float, int]] = [(t0, len(self._replicas))]
        self._scale_events: list[tuple[float, str]] = []
        self._redispatched = 0
        self._stolen = 0
        self._wasted = 0.0
        self._in_system = 0
        self._remaining = n
        self._last_scale = float("-inf")
        scale = self.scale
        if scale is not None:
            scale.reset()
        self._dispatch_policy.reset(self)
        # the window only feeds latency-driven scale metrics;
        # appending is per completed request, so skip the bookkeeping
        # entirely when nothing will ever read it
        window_size = scale.window_size if scale is not None else 0
        self._window = (_LatencyWindow(window_size)
                        if window_size else None)
        # per-tick arrival counting only when a scale policy asks
        self._track_rate = scale is not None and scale.needs_rate
        self._tick_arrivals = 0
        # hoisted per-run hot-path state
        self._rates: dict[tuple[int, str, int], tuple[float, float]] = {}
        self._switch_rates: dict[tuple[int, str, int], float] = {}
        self._max_batch = self.policy.max_batch
        self._ready_fn = self.policy.ready
        self._deadline_fn = self.policy.deadline
        self._pick = self._dispatch_policy.pick
        # the stock FIFO flush policy keeps the allocation-free fast
        # paths (model-name heap key, popleft, sorted drain); anything
        # else routes through the policy's own ordering hooks
        flush_policy = self.flush
        stock_flush = type(flush_policy) is FifoFlush
        self._flush_key = None if stock_flush else flush_policy.flush_key
        self._waiting_pick = (None if stock_flush
                              else flush_policy.pick_waiting)
        # stock depth admission stays an int compare on the arrival
        # hot path; custom policies — including DepthAdmission
        # subclasses with their own admit() — take the full call
        admission = self.admission
        if type(admission) is DepthAdmission:
            self._shed_depth: Optional[int] = admission.depth
            self._admit_fn = None
        else:
            self._shed_depth = None
            self._admit_fn = (admission.admit if admission is not None
                              else None)
        tel = self.telemetry
        self._tel = tel
        # a telemetry sink that wants a timeline can drive CONTROL
        # ticks on its own when neither scaling nor stealing does; the
        # tick handler is a pure no-op for it, so results are unchanged
        self._control_tick = (scale.tick if scale is not None
                              else self.steal.tick
                              if self.steal is not None
                              else tel.tick
                              if tel is not None and tel.tick else 0.0)
        # resilience: with None (the stock ``none`` policy) nothing
        # below is ever read on a hot path — every handler gates on
        # ``self._res is not None`` exactly like the telemetry sink
        res = self.resilience
        self._res = res
        self._res_kind = res.name if res is not None else ""
        self._solo: dict[int, int] = {}  # request_id -> duplicate batch
        self._timeouts = 0
        self._retries = 0
        self._hedges = 0
        self._cancels = 0
        self._degraded = 0
        if res is None:
            self._res_timeout: Optional[float] = None
        elif self._res_kind == "degrade":
            # degrade can run on shed rescue alone; the timeout leg is
            # optional and only arms when a deadline is derivable
            try:
                self._res_timeout = res.timeout_s(self.slo)
            except ConfigError:
                self._res_timeout = None
        else:
            self._res_timeout = res.timeout_s(self.slo)
        # warm the per-run rate memo before the first arrival: each
        # cell lands exactly where a cold run's first dispatch would
        # put it, so warm and cold runs emit identical floats
        if self.prewarm and self.memoize_rates:
            switch_fn = self.switch_fn
            for replica in self._replicas:
                acc = replica.accelerator
                for model, size in self.prewarm:
                    self._rate(acc, model, size)
                    if switch_fn is not None:
                        self._switch(acc, model, size)

    def _handlers(self) -> tuple:
        """Event handlers indexed by :class:`EventKind` value."""
        return (
            self._on_flush,       # FLUSH
            None,                 # ARRIVAL (merge-scanned, never heaped)
            self._on_batch_done,  # BATCH_DONE
            self._on_fail,        # FAIL
            self._on_recover,     # RECOVER
            self._on_control,     # CONTROL
            self._on_drain,       # DRAIN
            None,                 # NETWORK (never heaped anywhere)
            self._on_timeout,     # TIMEOUT
            self._on_hedge,       # HEDGE
            self._on_cancel,      # CANCEL
        )

    def _finish(self) -> EngineRun:
        """Collect per-run state into the immutable outcome."""
        inflight = self._inflight
        batches = tuple(entry.record
                        for entry in map(inflight.__getitem__,
                                         self._batch_order)
                        if entry.alive)
        return EngineRun(
            batches=batches, done=self._done, shed=tuple(self._shed),
            replica_trace=tuple(self._trace),
            scale_events=tuple(self._scale_events),
            redispatched=self._redispatched, wasted_energy=self._wasted,
            stolen=self._stolen, timeouts=self._timeouts,
            retries=self._retries, hedges=self._hedges,
            cancels=self._cancels, degraded=self._degraded,
        )

    # -- run -------------------------------------------------------------
    def run(self, requests: Iterable[Request],
            span: Optional[tuple[float, float]] = None) -> EngineRun:
        """Serve a trace and return the raw outcome.

        ``requests`` is either a materialised sequence (sorted here if
        out of order) or any other iterable — a generator streams with
        one request of look-ahead and is never materialised.  Streamed
        traces must already be time-ordered.

        ``span`` optionally pins the run's ``(start, drain)`` horizon
        instead of the trace's own first/last arrival — a sharded run
        passes the *global* trace span so every shard drains at the
        same instant the monolithic engine would.  Streaming with a
        :class:`FailurePlan` requires a span (outages are sampled over
        the full horizon before the first arrival is seen).
        """
        if not isinstance(requests, Sequence):
            return self._run_stream(iter(requests), span)
        if not requests:
            raise ConfigError("cannot serve an empty trace")
        n = len(requests)
        ordered = requests
        if any(ordered[i].arrival > ordered[i + 1].arrival
               for i in range(n - 1)):
            # stable, so equal arrivals keep their trace order — the
            # same tie-break the heap's insertion seq used to provide
            ordered = sorted(requests, key=lambda r: r.arrival)
        # trace span from the *time* order, never the input order: the
        # DRAIN must land at the true last arrival or late requests
        # under a deadline-less policy would sit in their queues forever
        t0, t_end = ordered[0].arrival, ordered[-1].arrival
        if span is not None:
            if span[0] > t0 or span[1] < t_end:
                raise ConfigError("span must cover the trace's "
                                  "arrival interval")
            t0, t_end = span

        self._prepare(t0, n)

        # Arrivals stay in the (time-ordered) trace and are merge-
        # scanned against the heap, which only ever holds the sparse
        # flush/done/control events.  Arrival ``seq`` is the trace
        # index; heap events start numbering after the trace, so every
        # same-instant tie resolves exactly as when arrivals were
        # pushed first (kind, key, then insertion order).
        events = EventQueue(first_seq=n)
        self._events = events
        events.push(t_end, EventKind.DRAIN)
        if self.failures is not None:
            for outage in self.failures.resolve(t0, t_end,
                                                len(self._replicas)):
                if outage.replica >= len(self._replicas):
                    raise ConfigError(
                        f"outage targets replica {outage.replica} but the "
                        f"pool has {len(self._replicas)}"
                    )
                events.push(outage.at, EventKind.FAIL,
                            payload=outage.replica)
                events.push(outage.until, EventKind.RECOVER,
                            payload=outage.replica)
        if self._control_tick:
            events.push(t0 + self._control_tick, EventKind.CONTROL)

        handlers = self._handlers()
        heap = events._heap
        heappop = heapq.heappop
        on_arrival = self._on_arrival
        i = 0
        while True:
            if i < n:
                request = ordered[i]
                if heap and heap[0] < (request.arrival, _ARRIVAL, "", i):
                    time, kind, _key, _seq, payload = heappop(heap)
                    handlers[kind](time, payload)
                else:
                    on_arrival(request.arrival, request)
                    i += 1
            elif heap:
                time, kind, _key, _seq, payload = heappop(heap)
                handlers[kind](time, payload)
            else:
                break

        return self._finish()

    def _run_stream(self, it: Iterator[Request],
                    span: Optional[tuple[float, float]]) -> EngineRun:
        """Serve a time-ordered stream with one request of look-ahead.

        Identical outcomes to the materialised path: arrivals never
        enter the heap, so heap ``seq`` numbers only order heap-vs-heap
        ties and the ``first_seq=n`` offset the tuple path uses is
        irrelevant; the end-of-trace DRAIN (the single kind-6 event,
        which sorts after every same-instant event regardless of
        insertion order) is pushed when the stream runs dry, at the
        last arrival seen — unless ``span`` pins the horizon up front.
        """
        first = next(it, None)
        if first is None:
            raise ConfigError("cannot serve an empty trace")
        if span is not None and first.arrival < span[0]:
            raise ConfigError("streamed arrival lands before the "
                              "span's start")
        t0 = first.arrival if span is None else span[0]
        self._prepare(t0, 1)
        events = EventQueue()
        self._events = events
        if span is not None:
            events.push(span[1], EventKind.DRAIN)
        if self.failures is not None:
            if span is None:
                raise ConfigError(
                    "streaming runs with a failure plan need an "
                    "explicit span=(start, end); outages are sampled "
                    "over the full horizon before arrivals are seen"
                )
            for outage in self.failures.resolve(t0, span[1],
                                                len(self._replicas)):
                if outage.replica >= len(self._replicas):
                    raise ConfigError(
                        f"outage targets replica {outage.replica} but "
                        f"the pool has {len(self._replicas)}"
                    )
                events.push(outage.at, EventKind.FAIL,
                            payload=outage.replica)
                events.push(outage.until, EventKind.RECOVER,
                            payload=outage.replica)
        if self._control_tick:
            events.push(t0 + self._control_tick, EventKind.CONTROL)

        handlers = self._handlers()
        heap = events._heap
        heappop = heapq.heappop
        on_arrival = self._on_arrival
        t_cap = span[1] if span is not None else None
        nxt: Optional[Request] = first
        last_arrival = first.arrival
        i = 0
        while True:
            if nxt is not None:
                if heap and heap[0] < (nxt.arrival, _ARRIVAL, "", i):
                    time, kind, _key, _seq, payload = heappop(heap)
                    handlers[kind](time, payload)
                else:
                    on_arrival(nxt.arrival, nxt)
                    last_arrival = nxt.arrival
                    i += 1
                    nxt = next(it, None)
                    if nxt is None:
                        self._remaining = 0
                        if span is None:
                            events.push(last_arrival, EventKind.DRAIN)
                    else:
                        if nxt.arrival < last_arrival:
                            raise ConfigError(
                                "streamed traces must be time-ordered"
                            )
                        if t_cap is not None and nxt.arrival > t_cap:
                            raise ConfigError(
                                "streamed arrival lands after the "
                                "span's drain horizon"
                            )
                        self._remaining = 1
            elif heap:
                time, kind, _key, _seq, payload = heappop(heap)
                handlers[kind](time, payload)
            else:
                break

        return self._finish()

    # -- event handlers --------------------------------------------------
    # Handlers take (time, payload) — the engine never materialises
    # Event objects on its own queue.
    def _on_arrival(self, time: float, request: Request) -> None:
        self._remaining -= 1
        if self._track_rate:
            # offered load, so shed arrivals still count into the rate
            self._tick_arrivals += 1
        tel = self._tel
        if tel is not None:
            tel.arrival(time, request.model, request.request_id)
        shed_depth = self._shed_depth
        if shed_depth is not None and self._in_system >= shed_depth:
            if self._res_kind == "degrade" and self._candidates():
                self._serve_degraded(time, request, track=False)
                return
            self._shed.append(request.request_id)
            if tel is not None:
                tel.shed(time, request.model, request.request_id)
            return
        if self._admit_fn is not None and not self._admit_fn(
                time, request, self._in_system):
            if self._res_kind == "degrade" and self._candidates():
                self._serve_degraded(time, request, track=False)
                return
            self._shed.append(request.request_id)
            if tel is not None:
                tel.shed(time, request.model, request.request_id)
            return
        self._in_system += 1
        model = request.model
        queue = self._queues.get(model)
        if queue is None:
            queue = self._queues[model] = []
        queue.append(request)
        max_batch = self._max_batch
        ready = self._ready_fn
        while ready(queue):
            batch = tuple(queue[:max_batch])
            del queue[:max_batch]
            self._dispatch(model, batch, flush=time)
        self._arm_flush(model)
        if self._res is not None and self._res_timeout is not None:
            # arm the per-request deadline: a TIMEOUT "check" for the
            # retry / degrade policies, a HEDGE launch for hedging
            kind = self._res_kind
            if kind == "hedge":
                self._events.push(time + self._res_timeout,
                                  EventKind.HEDGE, payload=request)
            else:
                self._events.push(time + self._res_timeout,
                                  EventKind.TIMEOUT,
                                  payload=(False, request, 0))

    def _on_flush(self, time: float, model: str) -> None:
        # a FLUSH fires at its own deadline, so ``time`` *is* the
        # deadline it was armed for
        if self._armed.get(model) == time:
            del self._armed[model]
        queue = self._queues.get(model)
        if not queue or self._deadline_fn(queue) != time:
            return  # stale: the queue flushed or re-headed meanwhile
        max_batch = self._max_batch
        batch = tuple(queue[:max_batch])
        del queue[:max_batch]
        self._dispatch(model, batch, flush=time, cause="deadline")
        self._arm_flush(model)

    def _on_batch_done(self, time: float, batch_id: int) -> None:
        batch = self._inflight[batch_id]
        if not batch.alive:
            return  # aborted by a failure and re-dispatched
        record = batch.record
        self._in_system -= record.size
        done = self._done
        outcome = (record.done, record.energy / record.size)
        window = self._window
        if self._res is not None:
            # duplicate-aware completion: first copy of a request to
            # finish wins, a losing copy's energy share is charged to
            # waste, and a still-outstanding cancellable duplicate is
            # cancelled the instant its original completes
            self._finish_with_duplicates(time, batch_id, record,
                                         batch.requests, outcome)
        elif window is None:
            for request in batch.requests:
                done[request.request_id] = outcome
        else:
            record_done = record.done
            for request in batch.requests:
                done[request.request_id] = outcome
                window.append(record_done - request.arrival)
        if self._tel is not None:
            self._tel.batch_done(time, record, batch_id)
        replica = self._replicas[record.replica]
        if self.steal is not None:
            # stealing may empty ``pending`` and needs to know which
            # model's weights the idle array is left holding
            replica.done_model = record.model
        if batch_id in replica.pending:
            replica.pending.remove(batch_id)
        if replica.draining and not replica.pending:
            replica.draining = False
            replica.up = False
            self._trace.append((time, self._n_up()))

    def _on_fail(self, time: float, index: int) -> None:
        replica = self._replicas[index]
        if not replica.up:
            return
        replica.up = False
        replica.failed = True
        replica.draining = False
        self._trace.append((time, self._n_up()))
        victims, replica.pending = list(replica.pending), []
        for batch_id in victims:
            batch = self._inflight[batch_id]
            batch.alive = False
            record = batch.record
            if record.start < time and record.service > 0:
                progress = min(1.0, (time - record.start)
                               / record.service)
                self._wasted += record.energy * progress
        if self._tel is not None:
            self._tel.fail(time, index, len(victims))
        for batch_id in victims:
            batch = self._inflight[batch_id]
            self._redispatched += 1
            self._dispatch(batch.record.model, batch.requests,
                           flush=batch.record.flush, now=time,
                           cause="redispatch")

    def _on_recover(self, time: float, index: int) -> None:
        replica = self._replicas[index]
        if replica.up or not replica.failed:
            # not down, or down by the autoscaler's choice — a stale
            # recovery must not resurrect a retired replica
            return
        replica.up = True
        replica.failed = False
        replica.draining = False
        replica.free_at = time
        replica.available_at = time
        replica.last_model = None  # the power cycle cleared the array
        replica.done_model = None
        self._trace.append((time, self._n_up()))
        if self._tel is not None:
            self._tel.recover(time, index)
        self._drain_waiting(time)

    def _on_control(self, time: float, _payload: object) -> None:
        if self._tel is not None:
            # sampled before any scale/steal action: the timeline shows
            # the state the controller reacted *to*
            self._tel.sample(time, self)
        scale = self.scale
        queued = self._in_system  # queued + in-flight: the real backlog
        if scale is not None:
            alive = [r for r in self._replicas
                     if r.up and not r.draining]
            arrivals, self._tick_arrivals = self._tick_arrivals, 0
            action = scale.decide(time, queued, len(alive),
                                  self._window, arrivals,
                                  self._control_tick)
            if action and time - self._last_scale >= scale.cooldown:
                if action > 0 and len(alive) < scale.max_replicas:
                    self._scale_up(time)
                    self._last_scale = time
                elif action < 0 and len(alive) > scale.min_replicas:
                    self._scale_down(time, alive)
                    self._last_scale = time
        if self.steal is not None:
            self._work_steal(time)
        if (self._remaining or queued
                or any(r.pending for r in self._replicas)):
            self._events.push(time + self._control_tick,
                              EventKind.CONTROL)

    def _on_drain(self, time: float, _payload: object) -> None:
        """Flush deadline-less leftovers at the end of the trace.

        Queues under a deadline policy drain through their own FLUSH
        events at the true instants; only fixed-style policies need
        this sweep, at the last arrival, in the flush policy's model
        order (stable sorted order for the stock FIFO).
        """
        max_batch = self._max_batch
        for model in self.flush.drain_order(self._queues):
            queue = self._queues[model]
            if queue and self._deadline_fn(queue) is not None:
                continue
            while queue:
                batch = tuple(queue[:max_batch])
                del queue[:max_batch]
                self._dispatch(model, batch, flush=time, cause="drain")

    # -- resilience handlers ---------------------------------------------
    def _finish_with_duplicates(self, time: float, batch_id: int,
                                record: BatchRecord,
                                requests: tuple[Request, ...],
                                outcome: tuple[float, float]) -> None:
        """Record completions when duplicates may exist in flight."""
        done = self._done
        window = self._window
        share = outcome[1]
        record_done = record.done
        for request in requests:
            rid = request.request_id
            if rid in done:
                # a faster copy already answered this request; the
                # losing copy's service energy is real but useless
                self._wasted += share
                continue
            done[rid] = outcome
            if window is not None:
                window.append(record_done - request.arrival)
            solo = self._solo.pop(rid, None)
            if solo is not None and solo != batch_id:
                self._events.push(time, EventKind.CANCEL, payload=solo)

    def _on_timeout(self, time: float, payload: tuple) -> None:
        """A retry/degrade deadline check, or a backoff-delayed retry.

        The payload is ``(fire, request, attempts)``: a check
        (``fire=False``) that finds the request unfinished counts a
        timeout and — within the retry budget — schedules the actual
        retry after the policy's seeded backoff; the fire event
        dispatches the duplicate and arms the next check.
        """
        fire, request, attempts = payload
        rid = request.request_id
        if rid in self._done:
            return  # completed in the meantime; nothing to do
        res = self._res
        if not fire:
            self._timeouts += 1
            if self._tel is not None:
                self._tel.timeout(time, request.model, rid)
            if self._res_kind == "degrade":
                if rid not in self._solo and self._candidates():
                    self._serve_degraded(time, request, track=True)
                return
            if attempts >= res.budget:
                return  # budget exhausted; the original copy may
                        # still finish, just late
            attempts += 1
            self._events.push(time + res.backoff_s(rid, attempts),
                              EventKind.TIMEOUT,
                              payload=(True, request, attempts))
            return
        # fire: launch the duplicate attempt as its own singleton
        # batch (bypassing admission — the client already holds a
        # slot) through the normal dispatch policy, then arm the next
        # deadline check
        self._retries += 1
        if self._tel is not None:
            self._tel.retry(time, request.model, rid, attempts)
        self._in_system += 1
        dup = self._dispatch(request.model, (request,), flush=time,
                             now=time, cause="retry")
        if dup is not None:
            self._solo[rid] = dup
        self._events.push(time + self._res_timeout, EventKind.TIMEOUT,
                          payload=(False, request, attempts))

    def _on_hedge(self, time: float, request: Request) -> None:
        """Launch a hedged duplicate on the second-best replica."""
        rid = request.request_id
        if rid in self._done or rid in self._solo:
            return  # answered, or already hedged
        candidates = self._candidates()
        if len(candidates) < 2:
            # a hedge to the only live replica would queue behind the
            # very batch it is trying to outrun — pure added load (the
            # classic hedged-request guard: never hedge without an
            # independent destination)
            return
        # second-best by earliest availability: the best candidate is
        # (approximately) where the original batch went, so the hedge
        # buys an independent failure/queueing domain
        ranked = sorted(candidates,
                        key=lambda r: (max(r.free_at, r.available_at),
                                       r.index))
        target = ranked[1]
        self._hedges += 1
        if self._tel is not None:
            self._tel.hedge(time, request.model, rid, target.index)
        self._in_system += 1
        dup = self._dispatch(request.model, (request,), flush=time,
                             now=time, to=target, cause="hedge")
        if dup is not None:
            self._solo[rid] = dup

    def _on_cancel(self, time: float, batch_id: int) -> None:
        """Cancel a losing duplicate singleton still in flight.

        Energy for the fraction of service already run is charged to
        waste (exactly the failure-abort accounting).  The replica's
        schedule is reclaimed only when the cancelled batch was its
        pending tail — earlier-promised start times never move; a
        mid-schedule cancellation leaves the gap in place.
        """
        entry = self._inflight.get(batch_id)
        if entry is None or not entry.alive:
            return
        record = entry.record
        if record.done <= time:
            return  # completed at this very instant; BATCH_DONE
                    # (lower kind) already ran and recorded it
        entry.alive = False
        self._cancels += 1
        self._in_system -= record.size
        if record.start < time and record.service > 0:
            progress = min(1.0, (time - record.start) / record.service)
            self._wasted += record.energy * progress
        replica = self._replicas[record.replica]
        pending = replica.pending
        if batch_id in pending:
            was_tail = pending[-1] == batch_id
            pending.remove(batch_id)
            if was_tail:
                if pending:
                    tail = self._inflight[pending[-1]].record
                    replica.free_at = tail.done
                    replica.last_model = tail.model
                else:
                    # everything previously scheduled has completed by
                    # now, so the replica is genuinely free
                    replica.free_at = time
        if self._tel is not None:
            self._tel.cancel(time, record, batch_id)

    def _serve_degraded(self, time: float, request: Request,
                        track: bool) -> None:
        """Serve ``request`` on the degraded (discounted) path.

        A singleton dispatch at the policy's service/energy discount —
        the stand-in for a distilled variant or an AQFP/SNN-scheme
        replica.  ``track`` registers the duplicate for cancellation
        (timeout rescue, where a full-fidelity copy is still in
        flight); shed rescue has no competing copy to race.
        """
        res = self._res
        self._degraded += 1
        if self._tel is not None:
            self._tel.degrade(time, request.model, request.request_id)
        self._in_system += 1
        dup = self._dispatch(
            request.model, (request,), flush=time, now=time,
            cause="degrade",
            rate_scale=(res.service_scale, res.energy_scale))
        if track and dup is not None:
            self._solo[request.request_id] = dup

    # -- internals -------------------------------------------------------
    def _n_up(self) -> int:
        return sum(1 for r in self._replicas if r.up)

    def _arm_flush(self, model: str) -> None:
        """Schedule the queue's current deadline, once per deadline."""
        queue = self._queues.get(model)
        if not queue:
            return
        deadline = self._deadline_fn(queue)
        if deadline is None or self._armed.get(model) == deadline:
            return
        self._armed[model] = deadline
        flush_key = self._flush_key
        self._events.push(deadline, EventKind.FLUSH,
                          key=(model if flush_key is None
                               else flush_key(model, deadline)),
                          payload=model)

    def _rate(self, accelerator, model: str,
              size: int) -> tuple[float, float]:
        """(service, energy) of one batch on one replica configuration.

        Keyed by configuration identity — replica configurations live
        for the whole run — so the steady-state dispatch path is one
        small-tuple dict hit instead of a trip through the memo cache's
        structural lookup.
        """
        key = (id(accelerator), model, size)
        rates = self._rates.get(key)
        if rates is None:
            rates = (self.service_fn(accelerator, model, size),
                     self.energy_fn(accelerator, model, size))
            if self.memoize_rates:
                self._rates[key] = rates
        return rates

    def _candidates(self) -> list[Replica]:
        return [r for r in self._replicas if r.up and not r.draining]

    def _switch(self, accelerator, model: str, size: int) -> float:
        """Memoised weight-deployment switch charge (s)."""
        key = (id(accelerator), model, size)
        charge = self._switch_rates.get(key)
        if charge is None:
            charge = self.switch_fn(accelerator, model, size)
            if self.memoize_rates:
                self._switch_rates[key] = charge
        return charge

    def _service_with_switch(self, replica: Replica, model: str,
                             size: int) -> tuple[float, float]:
        """(busy time, energy) of one batch on ``replica`` *now*.

        Busy time is the service rate plus the weight-deployment
        switch charge when the replica's resident weights belong to a
        different model.  Both the dispatch path and the steal
        estimate go through here, so what stealing predicts is
        exactly what dispatching charges.
        """
        service, energy = self._rate(replica.accelerator, model, size)
        last_model = replica.last_model
        if (last_model is not None and last_model != model
                and self.switch_fn is not None):
            # the array holds another model's weights: the incoming
            # batch's deployment cannot overlap and is charged whole
            service = service + self._switch(replica.accelerator,
                                             model, size)
        return service, energy

    def _dispatch(self, model: str, batch: tuple[Request, ...],
                  flush: float, now: Optional[float] = None,
                  to: Optional[Replica] = None,
                  cause: str = "ready",
                  rate_scale: Optional[tuple[float, float]] = None,
                  ) -> Optional[int]:
        """Serve one flushed batch on a replica (or park it).

        ``now`` is the re-dispatch instant after a failure or a steal;
        fresh flushes start no earlier than ``flush`` anyway.  ``to``
        forces the target replica (work stealing has already chosen),
        bypassing the dispatch policy.  ``cause`` only labels the
        telemetry flush event (why the batch left its queue).
        ``rate_scale`` applies a (service, energy) discount — the
        degraded-serving path.  Returns the batch id, or None when the
        batch was parked (no live replica).
        """
        candidates = [r for r in self._replicas if r.up and not r.draining]
        if not candidates:
            self._waiting.append((model, batch, flush))
            if self._tel is not None:
                self._tel.park(flush if now is None else now, model,
                               len(batch))
            return None
        floor = flush if now is None else max(flush, now)
        size = len(batch)
        if to is not None:
            replica = to
        else:
            # no single-candidate shortcut: round_robin advances (and
            # with one candidate, resets) its cursor on every pick, so
            # even a degenerate pool must route through the policy
            replica = self._pick(self, model, size, floor, candidates)
        service, energy = self._service_with_switch(replica, model, size)
        if rate_scale is not None:
            service *= rate_scale[0]
            energy *= rate_scale[1]
        free_at, available_at = replica.free_at, replica.available_at
        start = floor if floor >= free_at else free_at
        if start < available_at:
            start = available_at
        replica.last_model = model
        done = start + service
        replica.free_at = done
        batch_id = self._next_batch
        self._next_batch = batch_id + 1
        record = BatchRecord(model=model, size=size,
                             replica=replica.index, flush=flush,
                             start=start, done=done, energy=energy)
        self._inflight[batch_id] = _InFlight(record=record, requests=batch)
        self._batch_order.append(batch_id)
        replica.pending.append(batch_id)
        self._events.push(done, EventKind.BATCH_DONE, payload=batch_id)
        if self._tel is not None:
            self._tel.flush(floor, record, batch_id, cause)
        return batch_id

    def _drain_waiting(self, now: float) -> None:
        waiting = self._waiting
        pick_waiting = self._waiting_pick
        while waiting and self._candidates():
            if pick_waiting is None:
                model, batch, flush = waiting.popleft()
            else:
                index = pick_waiting(waiting)
                model, batch, flush = waiting[index]
                del waiting[index]
            self._dispatch(model, batch, flush=flush, now=now,
                           cause="waiting")

    def _work_steal(self, now: float) -> None:
        """Re-dispatch tail batches from backlogged to idle replicas.

        Only the victim's *last* scheduled batch is eligible (so its
        earlier schedule keeps every promised start time) and only if
        it has not started; the thief is whichever live replica
        completes it earliest under its own service rate and switch
        charge.  The stolen batch keeps its original flush instant —
        requests neither vanish nor duplicate, their batch simply
        completes sooner.
        """
        policy = self.steal
        for _ in range(policy.max_steals):
            candidates = self._candidates()
            if len(candidates) < 2:
                return
            victim = max(candidates, key=lambda r: (r.free_at, r.index))
            if not victim.pending:
                return
            batch_id = victim.pending[-1]
            entry = self._inflight[batch_id]
            record = entry.record
            if record.start <= now:
                return  # already running; nothing movable
            model, size = record.model, record.size
            best, best_done = None, record.done - policy.min_gain
            for replica in candidates:
                if replica is victim:
                    continue
                service = self._service_with_switch(replica, model,
                                                    size)[0]
                done = max(now, replica.free_at,
                           replica.available_at) + service
                if done < best_done:
                    best, best_done = replica, done
            if best is None:
                return
            victim.pending.pop()
            entry.alive = False
            if victim.pending:
                tail = self._inflight[victim.pending[-1]].record
                victim.free_at = tail.done
                victim.last_model = tail.model
            else:
                victim.free_at = now
                victim.last_model = victim.done_model
            self._stolen += 1
            if self._tel is not None:
                self._tel.steal(now, record, batch_id, victim.index,
                                best.index)
            self._dispatch(model, entry.requests, flush=record.flush,
                           now=now, to=best, cause="steal")

    def _scale_up(self, now: float) -> None:
        policy = self.scale
        for replica in self._replicas:
            if replica.up and replica.draining:
                replica.draining = False  # cancel a retirement instead
                self._scale_events.append((now, "up"))
                if self._tel is not None:
                    self._tel.scale(now, "up", self._n_up())
                self._drain_waiting(now)
                return
        for replica in self._replicas:
            if not replica.up and not replica.failed and not replica.pending:
                # revive a retired replica (fresh warm-up) instead of
                # growing the pool: under oscillating load, appending
                # a new Replica per scale cycle made the pool list —
                # which every dispatch scans — grow without bound
                replica.up = True
                replica.draining = False
                replica.free_at = now
                replica.available_at = now + policy.warmup
                replica.last_model = None  # power-gated while retired
                replica.done_model = None
                self._trace.append((now, self._n_up()))
                self._scale_events.append((now, "up"))
                if self._tel is not None:
                    self._tel.scale(now, "up", self._n_up())
                self._drain_waiting(now)
                return
        replica = Replica(index=len(self._replicas),
                          accelerator=self._initial[0], free_at=now,
                          available_at=now + policy.warmup)
        self._replicas.append(replica)
        self._trace.append((now, self._n_up()))
        self._scale_events.append((now, "up"))
        if self._tel is not None:
            self._tel.scale(now, "up", self._n_up())
        self._drain_waiting(now)

    def _scale_down(self, now: float,
                    alive: Sequence[Replica]) -> None:
        victim = min(alive, key=lambda r: (len(r.pending), -r.index))
        if victim.pending:
            victim.draining = True
        else:
            victim.up = False
            self._trace.append((now, self._n_up()))
        self._scale_events.append((now, "down"))
        if self._tel is not None:
            self._tel.scale(now, "down", self._n_up())
