"""Discrete-event core of the serving simulator.

The arrival-driven loop PR 2 shipped observed timeout flushes, replica
frees and drain work retroactively, at the *next* arrival.  That is
exact for static clusters (dispatch reads replica free times, which
are known at flush time) but cannot express anything that must react
to the clock itself: autoscaling ticks, replica failures mid-batch,
admission decisions against a live queue depth.  This module replaces
it with a true discrete-event engine:

- a heap-ordered :class:`EventQueue` of flush-deadline / batch-done /
  failure / recovery / control-tick / drain events, merge-scanned
  against the time-ordered arrivals;
- :class:`ClusterEngine`, which owns the queues, the replica pool and
  the clock, and on which the control plane runs:

  * **heterogeneous replicas** — each :class:`Replica` carries its own
    accelerator configuration, and the ``fastest_finish`` dispatch
    strategy picks the replica that *completes* a batch earliest
    (per-replica service times), not merely the one that frees first;
  * **SLO-aware autoscaling**
    (:class:`~repro.serving.policies.ReactiveScalePolicy`) — scale on
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
decision to a :class:`~repro.serving.policies.ScalePolicy` (predictive
policies consume the per-tick arrival-rate history the engine keeps
for them), and arrival admission to an
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
than event objects, arrivals are merge-scanned out of the
(time-ordered) trace instead of being heap-resident — one loop for a
materialised trace and a lazily pulled stream alike — per-(replica
configuration, model, batch-size) service/energy rates are memoised
outside the dispatch inner loop, and the windowed-p95 autoscale metric
is maintained incrementally (:class:`_LatencyWindow`) instead of
re-sorting the window every control tick.

Per request and per batch, the plain path skips calls whose answer
is already known.  A queue grows one arrival at a time and flushes
whole once it holds ``max_batch`` (the engine applies the size rule
itself; see :mod:`repro.serving.batching`).  A policy's ``deadline``
reads only the head, so it is asked once per queue fill and
``_armed`` keeps the answer: a FLUSH pop is live only while
``_armed`` holds its instant.  A dispatch takes its insertion seq and
builds its :class:`BatchRecord` inline, reads the rate and
switch-charge memos without a call unless they miss, and the stock
dispatch policies pick with plain loops instead of a keyed ``min``.
The live replicas they pick from are engine state (``_live``, a
tuple), rebuilt at each pool transition (an outage, a recovery, a
scale action), not per batch.

The heap also holds only events that could fire next, so it stays
about as small as the replica pool however deep the backlogs grow.
Events that come due in an order known when they are scheduled wait
off the heap, holding the insertion ``seq`` an immediate push would
have given them (:meth:`EventQueue.next_seq`), and are pushed when
their predecessor fires:

- a replica's completions: each replica's ``pending`` batches finish
  in dispatch order, so only the head's BATCH_DONE is on the heap
  (the rest keep just their seq in ``_chained``); a batch that dies
  behind the head (failed over, cancelled, stolen) never reaches the
  heap at all;
- deadline checks: every TIMEOUT check and HEDGE launch lands one
  fixed delay after the never-decreasing clock, so they wait in one
  FIFO (``_checks``) with only its head on the heap.  A check whose
  request is answered before it reaches the head is dropped unheaped:
  ``_answered`` only grows, so it could only pop as a no-op.

Flushes, outages, control ticks, backoff-delayed retries and cancels
stay on the heap.  ``_inflight`` holds live batches only: a batch
leaves it at its BATCH_DONE, or the moment it dies, and one cancelled
between its replica's head and tail stays in ``pending`` as a dead id
until it reaches either end, so a cancel never scans a backlog.  The
served batches' records are kept apart, in a list indexed by batch id
(``None`` once a batch dies), so :attr:`EngineRun.batches` needs no
finished requests.

Completions leave per batch, not per request: a BATCH_DONE hands its
``(record, requests)`` entry to the run's ``fold``, or appends it to
the completion log when there is none, and :attr:`EngineRun.done`
builds the per-request table from that log only when read.  A folded
run therefore keeps no request it has answered.  Only resilience
keeps a per-request set, ``_answered``, for first-copy-wins; its
entries hold the winners.

None of this changes a single emitted float or the order of a single
event: ``repro.serving.reference`` retains the straightforward
pre-optimisation engine as a test oracle, and the equivalence suite
holds every stock scenario x policy x dispatch cell to exact
per-request tuple equality.
"""

from __future__ import annotations

import heapq
import random as _random
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property
from itertools import pairwise, starmap
from operator import attrgetter, gt
from typing import Callable, Iterable, Optional, Sequence

from repro.errors import ConfigError
from repro.eval.report import nearest_rank
from repro.serving.policies import (
    DISPATCH_POLICIES,
    AdmissionPolicy,
    DepthAdmission,
    DispatchPolicy,
    FifoFlush,
    FlushPolicy,
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
DISPATCH_STRATEGIES = tuple(DISPATCH_POLICIES)


class EventKind(IntEnum):
    """Event types, ordered by priority at equal timestamps.

    The order encodes the retired arrival-driven loop's semantics: a
    flush whose deadline lands exactly on an arrival fires *before*
    that arrival is enqueued; completions and control actions follow
    arrivals; the end-of-trace drain runs after the last arrival.

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
    TIMEOUT = 7
    HEDGE = 8
    CANCEL = 9


# Hot-loop aliases: the run loop compares heap heads against a plain-int
# (arrival, ARRIVAL) tuple, and held-back events are built with plain
# ints, never touching the enum machinery.
_ARRIVAL = int(EventKind.ARRIVAL)
_BATCH_DONE = int(EventKind.BATCH_DONE)
_TIMEOUT = int(EventKind.TIMEOUT)
_HEDGE = int(EventKind.HEDGE)


class EventQueue:
    """A heap-ordered event queue with deterministic tie-breaking.

    Events at the same instant pop in (kind, key, insertion) order;
    insertion order makes simultaneous same-kind events (e.g. two
    failures at one instant) deterministic and stable.

    The heap stores raw ``(time, kind, key, seq, payload)`` tuples —
    no per-event object allocation on ``push`` — and the engine's run
    loop pops them straight off ``_heap``.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, str, int, object]] = []
        self._seq = 0

    def push(self, time: float, kind: EventKind, key: str = "",
             payload: object = None) -> None:
        """Schedule one event."""
        heapq.heappush(self._heap,
                       (time, int(kind), key, self._seq, payload))
        self._seq += 1

    def next_seq(self) -> int:
        """Take the next insertion seq for an event queued later.

        An entry built with it and ``heappush``-ed onto ``_heap`` later
        pops exactly where an immediate :meth:`push` would have put
        it: the order is fixed by the tuple, not by when it reached
        the heap.
        """
        seq = self._seq
        self._seq = seq + 1
        return seq


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
        return ordered[nearest_rank(len(ordered), q) - 1]


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
class Outage:
    """One resolved outage: down at ``at``, back at ``until``.

    ``replica`` indexes the unit that goes dark: a replica of the
    cluster engine's pool, or a region of a geo fleet (the geo router's
    storms darken whole regions).
    """

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
    """Seeded failure/recovery injection over replicas or regions.

    Either carries explicit :class:`Outage` windows, or samples
    ``count`` of them (one seeded shuffle of the units, then one
    uniform instant per window over the middle 80% of the trace span,
    round-robin over the shuffled units), each lasting
    ``downtime_frac`` of the span.  The cluster engine resolves it over
    its replicas; the geo router resolves its region storms over its
    regions (``Outage.replica`` is then the region index).

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
        """Concrete outage windows for a trace spanning [start, end]
        over ``replicas`` units (replicas, or regions).

        Overlapping windows on one unit are merged, so a unit is down
        for the union of its outages — without the merge, the first
        RECOVER to pop would end every overlapping window early.
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


def resilience_deadline(res: Optional[ResiliencePolicy],
                        slo: Optional[SloPolicy]) -> Optional[float]:
    """The deadline (s) after which ``res`` acts, under ``slo``.

    None without a policy, and for ``degrade`` without a derivable
    deadline (it can run on shed rescue alone).

    Raises:
        ConfigError: ``retry`` or ``hedge`` with neither its own
            deadline nor an SLO target.
    """
    if res is None:
        return None
    if res.name == "degrade":
        try:
            return res.timeout_s(slo)
        except ConfigError:
            return None
    return res.timeout_s(slo)


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
        pending: in-flight batch ids, in dispatch order, which is also
            completion order (only the first one's BATCH_DONE is on
            the event heap); a deque, so the head retires in O(1)
            however deep the backlog.  The cluster engine leaves a batch
            cancelled between the head and the tail in place, dead,
            until it reaches either end, so a non-empty ``pending``
            always has a live head and a live tail but may hold
            ``dead`` ids between them; :attr:`backlog` counts the
            live ones.
        dead: dead ids currently in ``pending``.
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
    pending: deque[int] = field(default_factory=deque)
    dead: int = 0
    last_model: Optional[str] = None
    done_model: Optional[str] = None

    @property
    def backlog(self) -> int:
        """Live batches in ``pending``."""
        return len(self.pending) - self.dead


@dataclass(slots=True, unsafe_hash=True)
class BatchRecord:
    """One dispatched batch.

    Read-only by convention, like
    :class:`~repro.serving.workload.Request`, and for the same reason:
    the engine builds one per batch.

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

    def __reduce__(self):
        # rebuilt through the constructor, as Request is
        return type(self), (self.model, self.size, self.replica,
                            self.flush, self.start, self.done, self.energy)


@dataclass
class EngineRun:
    """Raw outcome of one :meth:`ClusterEngine.run`.

    Attributes:
        batches: successfully served batches, in dispatch order.
        log: one ``(record, requests it answered first)`` entry per
            completed batch, in completion order.  :attr:`done` is
            built from it on first read.  A run given a ``fold``
            (:meth:`ClusterEngine.run`) hands the entries to it
            instead, so its ``log``, and therefore ``done``, are empty.
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
    log: Sequence[tuple[BatchRecord, Sequence[Request]]]
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

    @cached_property
    def done(self) -> dict[int, tuple[float, float]]:
        """request_id -> (completion instant, energy share), in
        completion order: each logged request gets its batch's
        ``done`` and ``energy / size``."""
        done = {}
        for record, requests in self.log:
            outcome = (record.done, record.energy / record.size)
            for request in requests:
                done[request.request_id] = outcome
        return done


class ClusterEngine:
    """The discrete-event serving engine.

    Args:
        replicas: one accelerator configuration per initial replica
            (mixed configurations make a heterogeneous pool).
        policy: batching policy: a queue flushes whole the moment it
            holds ``max_batch`` requests, or at ``deadline(queue)``,
            which may read only the head (asked once per queue fill
            and at the drain; see :mod:`repro.serving.batching`).
        dispatch: one of :data:`DISPATCH_STRATEGIES`, or a
            :class:`~repro.serving.policies.DispatchPolicy` instance.
        service_fn: (accelerator, model, batch) -> batch latency (s);
            routed through the layer-memo cache by the caller, which
            keeps the engine O(distinct layer x batch) in simulation
            work regardless of trace length.
        energy_fn: (accelerator, model, batch) -> batch energy (J).
        slo: SLO / admission-control policy, or None.
        autoscale: a :class:`~repro.serving.policies.ScalePolicy`
            (the stock reactive
            :class:`~repro.serving.policies.ReactiveScalePolicy`, or
            e.g. a forecaster), or None for a static pool.  Replicas
            added by a scale-up clone the *first* replica's
            accelerator configuration.
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
        flush: flush-ordering policy (FLUSH heap keys, drain order,
            parked-batch picks); None means the stock FIFO.
        admission: admission policy, asked for every arrival; None
            derives the stock depth bound from ``slo.shed_depth``.
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
    """

    def __init__(self, replicas: Sequence[object], policy,
                 dispatch: str | DispatchPolicy,
                 service_fn: Callable[[object, str, int], float],
                 energy_fn: Callable[[object, str, int], float],
                 slo: Optional[SloPolicy] = None,
                 autoscale: Optional[ScalePolicy] = None,
                 failures: Optional[FailurePlan] = None,
                 memoize_rates: bool = True,
                 switch_fn: Optional[Callable[[object, str, int],
                                              float]] = None,
                 flush: Optional[FlushPolicy] = None,
                 admission: Optional[AdmissionPolicy] = None,
                 steal: Optional[WorkStealPolicy] = None,
                 telemetry: Optional[Telemetry] = None,
                 resilience: Optional[str | ResiliencePolicy]
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
        self.scale = autoscale
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
        self._initial = list(replicas)

    # -- per-run state ---------------------------------------------------
    def _prepare(self, t0: float) -> None:
        """Reset all per-run state for a run starting at ``t0``."""
        self._replicas = [
            Replica(index=i, accelerator=acc)
            for i, acc in enumerate(self._initial)
        ]
        # the replicas a batch may go to (up and not draining), rebuilt
        # at every pool transition; a tuple, since a dispatch policy
        # and ``_on_control`` read it and none may change it
        self._live: tuple[Replica, ...] = tuple(self._replicas)
        self._queues: dict[str, list[Request]] = {}
        self._armed: dict[str, float] = {}
        # live batches only: a batch leaves at its BATCH_DONE, or when
        # it dies (failed over, cancelled or stolen)
        self._inflight: dict[int, tuple[BatchRecord,
                                        tuple[Request, ...]]] = {}
        # every dispatched batch's record, indexed by batch id; None
        # once it dies, so the rest are the served batches in dispatch
        # order
        self._served: list[Optional[BatchRecord]] = []
        # insertion seqs of the BATCH_DONEs of batches queued behind
        # their replica's head, by batch id; each entry is rebuilt
        # and heaped when its batch becomes the head, and dropped if
        # the batch dies first
        self._chained: dict[int, int] = {}
        # deadline checks (TIMEOUT checks / HEDGE launches) in the
        # order they come due; only the first is on the heap
        self._checks: deque[tuple] = deque()
        self._next_batch = 0
        self._waiting: deque[tuple[str, tuple[Request, ...], float]] = deque()
        # one (record, answered requests) entry per completed batch,
        # unless the run folds them
        self._log: list[tuple[BatchRecord, Sequence[Request]]] = []
        # ids answered so far: first copy wins under resilience
        self._answered: set[int] = set()
        self._shed: list[int] = []
        self._trace: list[tuple[float, int]] = [(t0, len(self._replicas))]
        self._scale_events: list[tuple[float, str]] = []
        self._redispatched = 0
        self._stolen = 0
        self._wasted = 0.0
        self._in_system = 0
        # arrivals still to come; cleared once the source runs dry
        self._remaining = True
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
        self._deadline_fn = self.policy.deadline
        self._pick = self._dispatch_policy.pick
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
        self._res_timeout = resilience_deadline(res, self.slo)

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
            self._on_timeout,     # TIMEOUT
            self._on_hedge,       # HEDGE
            self._on_cancel,      # CANCEL
        )

    def _finish(self) -> EngineRun:
        """Collect per-run state into the immutable outcome."""
        batches = tuple(filter(None, self._served))
        return EngineRun(
            batches=batches, log=self._log, shed=tuple(self._shed),
            replica_trace=tuple(self._trace),
            scale_events=tuple(self._scale_events),
            redispatched=self._redispatched, wasted_energy=self._wasted,
            stolen=self._stolen, timeouts=self._timeouts,
            retries=self._retries, hedges=self._hedges,
            cancels=self._cancels, degraded=self._degraded,
        )

    # -- run -------------------------------------------------------------
    def run(self, requests: Iterable[Request],
            span: Optional[tuple[float, float]] = None,
            fold: Optional[Callable[[tuple], object]] = None
            ) -> EngineRun:
        """Serve a trace and return the raw outcome.

        ``requests`` is either a materialised sequence (sorted here if
        out of order) or any other iterable, which must already be
        time-ordered — a generator streams with one request of
        look-ahead and is never materialised.  Both feed one merge-scan.

        ``span`` pins the run's ``(start, drain)`` horizon: outages are
        sampled over it and the DRAIN lands at its end.  A sequence's
        span defaults to its first and last arrival; a stream must
        pass one, since the horizon is fixed before the first arrival
        is seen.  A sharded run passes the *global* trace span, so
        every shard drains at the same instant the monolithic engine
        would.

        ``fold``, when given, is called with each completed batch's
        ``(record, requests it answered first)`` entry, in completion
        order, the moment the batch completes; the run then logs
        nothing (:attr:`EngineRun.log` stays empty) and, once a batch
        is folded, holds none of its requests.
        """
        if isinstance(requests, Sequence) and requests:
            arrival_of = attrgetter("arrival")
            if any(starmap(gt, pairwise(map(arrival_of, requests)))):
                # stable, so equal arrivals keep their trace order
                requests = sorted(requests, key=arrival_of)
            # span from the *time* order, never the input order: the
            # DRAIN must land at the true last arrival or late requests
            # under a deadline-less policy would sit in their queues
            first, last = requests[0].arrival, requests[-1].arrival
            if span is None:
                span = (first, last)
            elif span[0] > first or span[1] < last:
                raise ConfigError("span must cover the trace's "
                                  "arrival interval")
        it = iter(requests)
        request = next(it, None)
        if request is None:
            raise ConfigError("cannot serve an empty trace")
        if span is None:
            raise ConfigError("a streamed trace needs its span=(first "
                              "arrival, last arrival)")
        arrival = request.arrival
        if arrival < span[0]:
            raise ConfigError("streamed arrival lands before the "
                              "span's start")
        t0, t_cap = span
        self._prepare(t0)
        # where each completed batch's entry goes
        self._complete = self._log.append if fold is None else fold

        # Arrivals stay in the (time-ordered) source and are merge-
        # scanned against the heap, which only ever holds the sparse
        # flush/control/outage events plus, per replica, its head
        # completion and, per run, its next deadline check (the rest
        # wait off the heap until their predecessor fires).  No heap
        # entry is an ARRIVAL, so comparing the head against (arrival,
        # ARRIVAL) fires a same-instant FLUSH before the arrival and
        # every other kind after it, in EventKind order.  The DRAIN,
        # pushed up front at the span's end, sorts after every
        # same-instant arrival, flush, completion, outage and control
        # tick.
        events = EventQueue()
        self._events = events
        events.push(t_cap, EventKind.DRAIN)
        if self.failures is not None:
            for outage in self.failures.resolve(t0, t_cap,
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
        while True:
            if heap and heap[0] < (arrival, _ARRIVAL):
                time, kind, _key, _seq, payload = heappop(heap)
                handlers[kind](time, payload)
                continue
            on_arrival(arrival, request)
            request = next(it, None)
            if request is None:
                break
            last, arrival = arrival, request.arrival
            if not last <= arrival <= t_cap:
                raise ConfigError(
                    "streamed traces must be time-ordered"
                    if arrival < last else
                    "streamed arrival lands after the span's drain "
                    "horizon"
                )
        self._remaining = False
        while heap:
            time, kind, _key, _seq, payload = heappop(heap)
            handlers[kind](time, payload)

        return self._finish()

    # -- event handlers --------------------------------------------------
    # Handlers take (time, payload) — the engine never materialises
    # Event objects on its own queue.
    def _on_arrival(self, time: float, request: Request) -> None:
        if self._track_rate:
            # offered load, so shed arrivals still count into the rate
            self._tick_arrivals += 1
        tel = self._tel
        if tel is not None:
            tel.arrival(time, request.model, request.request_id)
        admission = self.admission
        if admission is not None and not admission.admit(
                time, request, self._in_system):
            if self._res_kind == "degrade" and self._live:
                self._serve_degraded(time, request, track=False)
            else:
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
        # a queue grows one arrival at a time and flushes whole once it
        # holds ``max_batch``, so it is never full at an event boundary
        length = len(queue)
        if length >= self._max_batch:
            batch = tuple(queue)
            del queue[:]
            self._dispatch(model, batch, flush=time)
        elif length == 1:
            # a new head, and a deadline reads only the head: ask once;
            # ``_armed`` holds the answer (or nothing) while it waits
            armed = self._armed
            deadline = self._deadline_fn(queue)
            if deadline is None:
                armed.pop(model, None)
            elif armed.get(model) != deadline:
                # an equal entry is a flushed head's; its FLUSH, still
                # on the heap, fires for this one
                armed[model] = deadline
                key = self.flush.flush_key(model, deadline)
                self._events.push(deadline, EventKind.FLUSH, key, model)
        if self._res is not None and self._res_timeout is not None:
            # arm the per-request deadline: a TIMEOUT "check" for the
            # retry / degrade policies, a HEDGE launch for hedging
            if self._res_kind == "hedge":
                self._check(time, _HEDGE, request)
            else:
                self._check(time, _TIMEOUT, (False, request, 0))

    def _on_flush(self, time: float, model: str) -> None:
        # a FLUSH fires at the deadline it was armed for, which
        # ``_armed`` still holds unless a size flush let a head with
        # another deadline, or none, take the queue since
        armed = self._armed
        if armed.get(model) != time:
            return  # stale
        del armed[model]
        queue = self._queues[model]
        if queue:  # else a size flush emptied it and no arrival came
            batch = tuple(queue)
            del queue[:]
            self._dispatch(model, batch, flush=time, cause="deadline")

    def _on_batch_done(self, time: float, batch_id: int) -> None:
        entry = self._inflight.pop(batch_id, None)
        if entry is None:
            return  # died as its replica's head
        record, requests = entry
        self._in_system -= record.size
        if self._res is not None:
            # duplicate-aware completion: first copy of a request to
            # finish wins, a losing copy's energy share is charged to
            # waste, and a still-outstanding cancellable duplicate is
            # cancelled the instant its original completes
            self._finish_with_duplicates(time, batch_id, entry)
        else:
            self._complete(entry)
            window = self._window
            if window is not None:
                record_done = record.done
                for request in requests:
                    window.append(record_done - request.arrival)
        if self._tel is not None:
            self._tel.batch_done(time, record, batch_id)
        replica = self._replicas[record.replica]
        if self.steal is not None:
            # stealing may empty ``pending`` and needs to know which
            # model's weights the idle array is left holding
            replica.done_model = record.model
        # only a head's BATCH_DONE is ever heaped, and a head leaves
        # ``pending`` only here or by dying, so a live completion is
        # always its replica's head
        self._next_head(replica)
        if replica.draining and not replica.pending:
            # retired; a draining replica already left ``_live``
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
        self._repool()
        self._trace.append((time, self._n_up()))
        inflight = self._inflight
        live = [b for b in replica.pending if b in inflight]
        replica.pending = deque()
        replica.dead = 0
        chained = self._chained
        for batch_id in live[1:]:
            del chained[batch_id]  # queued behind the head, never heaped
        served = self._served
        for batch_id in live:
            served[batch_id] = None
        victims = [inflight.pop(batch_id) for batch_id in live]
        for record, _ in victims:
            if record.start < time and record.service > 0:
                progress = min(1.0, (time - record.start)
                               / record.service)
                self._wasted += record.energy * progress
        if self._tel is not None:
            self._tel.fail(time, index, len(victims))
        for record, requests in victims:
            self._redispatched += 1
            self._dispatch(record.model, requests, flush=record.flush,
                           now=time, cause="redispatch")

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
        self._repool()
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
            alive = self._live
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
        order (stable sorted order for the stock FIFO).  No queue is
        ever full here, so each leaves as one batch.
        """
        queues = self._queues
        for model in self.flush.drain_order(queues):
            queue = queues[model]
            if queue and self._deadline_fn(queue) is None:
                batch = tuple(queue)
                del queue[:]
                self._dispatch(model, batch, flush=time, cause="drain")

    # -- resilience handlers ---------------------------------------------
    def _finish_with_duplicates(self, time: float, batch_id: int,
                                entry: tuple[BatchRecord,
                                             tuple[Request, ...]]) -> None:
        """Record completions when duplicates may exist in flight."""
        record, requests = entry
        answered = self._answered
        window = self._window
        share = record.energy / record.size
        record_done = record.done
        winners = []
        for request in requests:
            rid = request.request_id
            if rid in answered:
                # a faster copy already answered this request; the
                # losing copy's service energy is real but useless
                self._wasted += share
                continue
            answered.add(rid)
            winners.append(request)
            if window is not None:
                window.append(record_done - request.arrival)
            solo = self._solo.pop(rid, None)
            if solo is not None and solo != batch_id:
                self._events.push(time, EventKind.CANCEL, payload=solo)
        # completed with the requests it answered first: its own entry
        # when it won them all
        self._complete(entry if len(winners) == len(requests)
                       else (record, tuple(winners)))

    def _on_timeout(self, time: float, payload: tuple) -> None:
        """A retry/degrade deadline check, or a backoff-delayed retry.

        The payload is ``(fire, request, attempts)``: a check
        (``fire=False``, the head of the check FIFO) that finds the
        request unfinished counts a timeout and — within the retry
        budget — schedules the actual retry after the policy's seeded
        backoff; the fire event (heaped directly, since backoffs
        differ) dispatches the duplicate and arms the next check.
        """
        fire, request, attempts = payload
        if not fire:
            self._next_check()
        rid = request.request_id
        if rid in self._answered:
            return  # completed in the meantime; nothing to do
        res = self._res
        if not fire:
            self._timeouts += 1
            if self._tel is not None:
                self._tel.timeout(time, request.model, rid)
            if self._res_kind == "degrade":
                if rid not in self._solo and self._live:
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
        self._check(time, _TIMEOUT, (False, request, attempts))

    def _on_hedge(self, time: float, request: Request) -> None:
        """Launch a hedged duplicate on the second-best replica."""
        self._next_check()
        rid = request.request_id
        if rid in self._answered or rid in self._solo:
            return  # answered, or already hedged
        candidates = self._live
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
        mid-schedule cancellation leaves the gap in place, and the
        dead id in ``pending`` until it reaches the head or the tail.
        """
        entry = self._inflight.pop(batch_id, None)
        if entry is None:
            # already dead, or completed: also at this very instant,
            # since BATCH_DONE (a lower kind) runs first and removes it
            return
        # still in flight, so still in its replica's ``pending``
        self._served[batch_id] = None
        record = entry[0]
        self._cancels += 1
        self._in_system -= record.size
        if record.start < time and record.service > 0:
            progress = min(1.0, (time - record.start) / record.service)
            self._wasted += record.energy * progress
        replica = self._replicas[record.replica]
        pending = replica.pending
        if pending[-1] == batch_id:
            if not self._pop_tail(replica):
                # everything previously scheduled has completed by
                # now, so the replica is genuinely free
                replica.free_at = time
        elif pending[0] == batch_id:
            # its BATCH_DONE is on the heap and pops as dead; the next
            # live batch's takes its place
            self._next_head(replica)
        else:
            del self._chained[batch_id]
            replica.dead += 1
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

    def _next_head(self, replica: Replica) -> None:
        """Retire ``replica``'s head and heap the BATCH_DONE of the next
        live batch, dropping the dead ids in front of it."""
        pending = replica.pending
        inflight = self._inflight
        pending.popleft()
        if replica.dead:
            # the tail is live, so this stops inside the deque
            while pending[0] not in inflight:
                pending.popleft()
                replica.dead -= 1
        if pending:
            head = pending[0]
            heapq.heappush(self._events._heap,
                           (inflight[head][0].done, _BATCH_DONE, "",
                            self._chained.pop(head), head))

    def _pop_tail(self, replica: Replica) -> bool:
        """Drop ``replica``'s dead tail and the dead ids it uncovers,
        and roll ``free_at``/``last_model`` back to the new live tail.

        False when ``pending`` is left empty: the tail was the head,
        and the caller decides when the replica is free.
        """
        pending = replica.pending
        batch_id = pending.pop()
        if not pending:
            return False  # it was the head: its BATCH_DONE pops as dead
        del self._chained[batch_id]  # queued behind the head
        inflight = self._inflight
        if replica.dead:
            # the head is live, so this stops inside the deque
            while pending[-1] not in inflight:
                pending.pop()
                replica.dead -= 1
        tail = inflight[pending[-1]][0]
        replica.free_at = tail.done
        replica.last_model = tail.model
        return True

    def _check(self, now: float, kind: int, payload: object) -> None:
        """Schedule a deadline check ``_res_timeout`` after ``now``.

        Every check lands the same fixed delay after the never-
        decreasing clock, and a run arms checks of one kind only, so
        they come due in the order they were scheduled: they wait in a
        FIFO and only its head is on the heap.
        """
        entry = (now + self._res_timeout, kind, "",
                 self._events.next_seq(), payload)
        checks = self._checks
        checks.append(entry)
        if len(checks) == 1:
            heapq.heappush(self._events._heap, entry)

    def _next_check(self) -> None:
        """Retire the check that just fired and heap the next one.

        Checks whose request has been answered meanwhile are dropped
        on the way: ``_answered`` only grows, so each would pop as a
        no-op.
        """
        checks = self._checks
        checks.popleft()
        answered = self._answered
        while checks:
            entry = checks[0]
            payload = entry[4]
            # a HEDGE launch carries the request, a TIMEOUT check
            # (False, request, attempts)
            request = payload if entry[1] == _HEDGE else payload[1]
            if request.request_id not in answered:
                heapq.heappush(self._events._heap, entry)
                return
            checks.popleft()

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

    def _repool(self) -> None:
        """Rebuild ``_live`` after a write to a replica's ``up`` or
        ``draining``."""
        self._live = tuple([r for r in self._replicas
                            if r.up and not r.draining])

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
        accelerator = replica.accelerator
        # both memos are read inline; a miss takes the full call
        key = (id(accelerator), model, size)
        rates = self._rates.get(key)
        if rates is None:
            rates = self._rate(accelerator, model, size)
        last_model = replica.last_model
        if (last_model is None or last_model == model
                or self.switch_fn is None):
            return rates
        # the array holds another model's weights: the incoming
        # batch's deployment cannot overlap and is charged whole
        charge = self._switch_rates.get(key)
        if charge is None:
            charge = self._switch(accelerator, model, size)
        service, energy = rates
        return service + charge, energy

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
        candidates = self._live
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
        record = BatchRecord(model, size, replica.index, flush, start,
                             done, energy)
        self._inflight[batch_id] = (record, batch)
        self._served.append(record)
        # EventQueue.next_seq, inline
        events = self._events
        seq = events._seq
        events._seq = seq + 1
        pending = replica.pending
        if pending:
            # ``pending`` is sorted by completion (a batch starts at or
            # after ``free_at``), so this one cannot fire before the
            # head; it waits off the heap until it becomes the head,
            # keeping only its seq (the rest is on its record)
            self._chained[batch_id] = seq
        else:
            heapq.heappush(self._events._heap,
                           (done, _BATCH_DONE, "", seq, batch_id))
        pending.append(batch_id)
        if self._tel is not None:
            self._tel.flush(floor, record, batch_id, cause)
        return batch_id

    def _drain_waiting(self, now: float) -> None:
        waiting = self._waiting
        pick_waiting = self.flush.pick_waiting
        while waiting and self._live:
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
            candidates = self._live
            if len(candidates) < 2:
                return
            victim = max(candidates, key=lambda r: (r.free_at, r.index))
            if not victim.pending:
                return
            batch_id = victim.pending[-1]  # always live
            record, requests = self._inflight[batch_id]
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
            del self._inflight[batch_id]
            self._served[batch_id] = None
            if not self._pop_tail(victim):
                victim.free_at = now
                victim.last_model = victim.done_model
            self._stolen += 1
            if self._tel is not None:
                self._tel.steal(now, record, batch_id, victim.index,
                                best.index)
            self._dispatch(model, requests, flush=record.flush,
                           now=now, to=best, cause="steal")

    def _scale_up(self, now: float) -> None:
        replicas = self._replicas
        retiring = next((r for r in replicas if r.up and r.draining), None)
        if retiring is not None:
            retiring.draining = False  # cancel a retirement instead
            self._repool()
        else:
            # revive a retired replica (fresh warm-up) before growing
            # the pool: under oscillating load, appending a new Replica
            # per scale cycle made the pool list — which every dispatch
            # scans — grow without bound
            replica = next((r for r in replicas if not r.up
                            and not r.failed and not r.pending), None)
            if replica is None:
                replica = Replica(len(replicas), self._initial[0])
                replicas.append(replica)
            replica.up = True
            replica.draining = False
            replica.free_at = now
            replica.available_at = now + self.scale.warmup
            replica.last_model = None  # power-gated while retired
            replica.done_model = None
            self._repool()
            self._trace.append((now, self._n_up()))
        self._scale_events.append((now, "up"))
        if self._tel is not None:
            self._tel.scale(now, "up", self._n_up())
        self._drain_waiting(now)

    def _scale_down(self, now: float,
                    alive: Sequence[Replica]) -> None:
        victim = min(alive, key=lambda r: (r.backlog, -r.index))
        if victim.pending:
            victim.draining = True
        else:
            victim.up = False
            self._trace.append((now, self._n_up()))
        self._repool()
        self._scale_events.append((now, "down"))
        if self._tel is not None:
            self._tel.scale(now, "down", self._n_up())
