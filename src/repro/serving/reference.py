"""The retained pre-optimisation serving engine: the test oracle.

PR 4 rewrote the discrete-event hot path (raw heap tuples, merge-
scanned arrivals, hoisted service/energy rates, incremental p95
window) with a hard guarantee: not one emitted float changes.  This
module keeps the straightforward engine exactly as it behaved before
the rewrite — one :class:`Event` object per scheduled event, every
arrival heap-resident, every dispatch calling
``service_fn``/``energy_fn`` directly, every control tick re-sorting
the full latency window — so the equivalence suite can hold the
optimised engine to exact per-request tuple equality on every stock
scenario x policy x dispatch cell.

It shares the control-plane configuration (:class:`SloPolicy`,
:class:`FailurePlan`, the bounds and thresholds of a
:class:`~repro.serving.policies.ReactiveScalePolicy`) and the result
types with :mod:`repro.serving.events` — those are pure configuration
and were not touched by the rewrite — but owns its own event loop and
its own inline reactive scaling decision.

Two PR 3 defects are fixed here in lockstep with the optimised engine
(so the oracle keeps matching it): the end-of-trace drain is scheduled
at the *time-order* last arrival rather than the input-order last, and
a scale-up revives a retired replica instead of growing the pool list
without bound under oscillating load.  PR 5's faithfulness fix is
likewise applied in lockstep: a batch whose replica last deployed a
*different* model's weights pays the ``switch_fn`` weight-deployment
charge before service.  Everything else is verbatim — in particular
this engine keeps the original string-matched dispatch branches and
inline control-tick logic, so it is also the oracle proving the
optimised engine's policy-object seams
(:mod:`repro.serving.policies`) introduced zero drift.

Nothing in the production path imports this module; it exists for
tests and for anyone auditing the optimised engine against a simpler
statement of the same semantics.
"""

from __future__ import annotations

import heapq
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.errors import ConfigError
from repro.eval.report import percentile
from repro.serving.events import (
    BatchRecord,
    DISPATCH_STRATEGIES,
    EngineRun,
    EventKind,
    FailurePlan,
    Replica,
    SloPolicy,
)
from repro.serving.policies import (DegradePolicy, FifoFlush, HedgePolicy,
                                    ReactiveScalePolicy, RetryPolicy)
from repro.serving.workload import Request

__all__ = ["ReferenceEventQueue", "ReferenceEngine", "run_reference"]


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


@dataclass(slots=True)
class _InFlight:
    """Engine-side bookkeeping for one dispatched batch."""

    record: BatchRecord
    requests: tuple[Request, ...]
    alive: bool = True


class ReferenceEventQueue:
    """The pre-optimisation event queue: one Event object per entry."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, str, int, Event]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, kind: EventKind, key: str = "",
             payload: object = None) -> None:
        """Schedule one event."""
        event = Event(time=time, kind=kind, key=key, payload=payload)
        heapq.heappush(self._heap,
                       (time, int(kind), key, self._seq, event))
        self._seq += 1

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        return heapq.heappop(self._heap)[-1]


class ReferenceEngine:
    """The pre-optimisation :class:`ClusterEngine`, kept verbatim.

    Same constructor contract as the optimised engine (minus the
    ``memoize_rates`` knob, which the reference predates): every
    dispatch calls ``service_fn``/``energy_fn`` directly and every
    control tick recomputes the windowed p95 with a full re-sort.
    """

    def __init__(self, replicas: Sequence[object], policy,
                 dispatch: str,
                 service_fn: Callable[[object, str, int], float],
                 energy_fn: Callable[[object, str, int], float],
                 slo: Optional[SloPolicy] = None,
                 autoscale: Optional[ReactiveScalePolicy] = None,
                 failures: Optional[FailurePlan] = None,
                 switch_fn: Optional[Callable[[object, str, int],
                                              float]] = None,
                 resilience: Optional[object] = None) -> None:
        if not replicas:
            raise ConfigError("cluster needs at least one replica")
        if dispatch not in DISPATCH_STRATEGIES:
            raise ConfigError(
                f"unknown dispatch '{dispatch}'; known: "
                f"{', '.join(DISPATCH_STRATEGIES)}"
            )
        self.policy = policy
        self.dispatch = dispatch
        self.service_fn = service_fn
        self.energy_fn = energy_fn
        self.switch_fn = switch_fn
        self.slo = slo
        self.autoscale = autoscale
        self.failures = failures
        self.resilience = resilience
        self._initial = list(replicas)

    # -- run -------------------------------------------------------------
    def run(self, requests: Sequence[Request]) -> EngineRun:
        """Serve a time-ordered trace and return the raw outcome."""
        if not requests:
            raise ConfigError("cannot serve an empty trace")
        # span from the time order, not the input order (shared fix
        # with the optimised engine: the DRAIN must land at the true
        # last arrival even for an unsorted trace)
        t0 = min(r.arrival for r in requests)
        t_end = max(r.arrival for r in requests)

        self._replicas = [
            Replica(index=i, accelerator=acc)
            for i, acc in enumerate(self._initial)
        ]
        self._queues: dict[str, list[Request]] = {}
        self._armed: dict[str, float] = {}
        self._inflight: dict[int, _InFlight] = {}
        self._batch_order: list[int] = []
        self._next_batch = 0
        self._rr_next = 0
        self._waiting: deque[tuple[str, tuple[Request, ...], float]] = deque()
        self._done: dict[int, tuple[float, float]] = {}
        self._shed: list[int] = []
        self._trace: list[tuple[float, int]] = [(t0, len(self._replicas))]
        self._scale_events: list[tuple[float, str]] = []
        self._redispatched = 0
        self._wasted = 0.0
        self._in_system = 0
        self._remaining = len(requests)
        self._last_scale = float("-inf")
        window = self.autoscale.window if self.autoscale else 1
        self._latency_window: deque[float] = deque(maxlen=window)
        # resilience state, mirrored from the optimised engine's
        # ``_prepare`` tail so the two stay in lockstep
        res = self.resilience
        self._res = res
        self._res_kind = res.name if res is not None else ""
        self._solo: dict[int, int] = {}
        self._timeouts = 0
        self._retries = 0
        self._hedges = 0
        self._cancels = 0
        self._degraded = 0
        if res is None:
            self._res_timeout: Optional[float] = None
        elif self._res_kind == "degrade":
            try:
                self._res_timeout = res.timeout_s(self.slo)
            except ConfigError:
                self._res_timeout = None
        else:
            self._res_timeout = res.timeout_s(self.slo)

        events = ReferenceEventQueue()
        self._events = events
        for request in requests:
            events.push(request.arrival, EventKind.ARRIVAL, payload=request)
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
        if self.autoscale is not None:
            events.push(t0 + self.autoscale.tick, EventKind.CONTROL)

        handlers = {
            EventKind.FLUSH: self._on_flush,
            EventKind.ARRIVAL: self._on_arrival,
            EventKind.BATCH_DONE: self._on_batch_done,
            EventKind.FAIL: self._on_fail,
            EventKind.RECOVER: self._on_recover,
            EventKind.CONTROL: self._on_control,
            EventKind.DRAIN: self._on_drain,
            EventKind.TIMEOUT: self._on_timeout,
            EventKind.HEDGE: self._on_hedge,
            EventKind.CANCEL: self._on_cancel,
        }
        while len(events):
            event = events.pop()
            handlers[event.kind](event)

        batches = tuple(self._inflight[i].record
                        for i in self._batch_order
                        if self._inflight[i].alive)
        run = EngineRun(
            batches=batches, log=(), shed=tuple(self._shed),
            replica_trace=tuple(self._trace),
            scale_events=tuple(self._scale_events),
            redispatched=self._redispatched, wasted_energy=self._wasted,
            timeouts=self._timeouts, retries=self._retries,
            hedges=self._hedges, cancels=self._cancels,
            degraded=self._degraded,
        )
        # the oracle's own per-request table, filled the plain way,
        # stands in for one built from the optimised engine's log
        run.done = self._done
        return run

    # -- event handlers --------------------------------------------------
    def _on_arrival(self, event: Event) -> None:
        request: Request = event.payload
        self._remaining -= 1
        if (self.slo is not None
                and self.slo.shed_depth is not None
                and self._in_system >= self.slo.shed_depth):
            if self._res_kind == "degrade" and self._candidates():
                self._serve_degraded(event.time, request, track=False)
                return
            self._shed.append(request.request_id)
            return
        self._in_system += 1
        queue = self._queues.setdefault(request.model, [])
        queue.append(request)
        while len(queue) >= self.policy.max_batch:
            batch = tuple(queue[: self.policy.max_batch])
            del queue[: self.policy.max_batch]
            self._dispatch(request.model, batch, flush=event.time)
        # asked after every arrival, where the optimised engine asks
        # only when the head changed: the equivalence suites hold
        # both to the head-only deadline contract
        self._arm_flush(request.model)
        if self._res is not None and self._res_timeout is not None:
            if self._res_kind == "hedge":
                self._events.push(event.time + self._res_timeout,
                                  EventKind.HEDGE, payload=request)
            else:
                self._events.push(event.time + self._res_timeout,
                                  EventKind.TIMEOUT,
                                  payload=(False, request, 0))

    def _on_flush(self, event: Event) -> None:
        model, deadline = event.payload
        if self._armed.get(model) == deadline:
            del self._armed[model]
        queue = self._queues.get(model)
        if not queue or self.policy.deadline(queue) != deadline:
            return  # stale: the queue flushed or re-headed meanwhile
        batch = tuple(queue[: self.policy.max_batch])
        del queue[: self.policy.max_batch]
        self._dispatch(model, batch, flush=deadline)
        self._arm_flush(model)

    def _on_batch_done(self, event: Event) -> None:
        batch_id: int = event.payload
        batch = self._inflight[batch_id]
        if not batch.alive:
            return  # aborted by a failure and re-dispatched
        record = batch.record
        share = record.energy / record.size
        self._in_system -= record.size
        if self._res is not None:
            # duplicate-aware completion, mirrored from the optimised
            # engine: first copy wins, losers charge waste, and an
            # outstanding cancellable duplicate is cancelled
            for request in batch.requests:
                rid = request.request_id
                if rid in self._done:
                    self._wasted += share
                    continue
                self._done[rid] = (record.done, share)
                self._latency_window.append(record.done - request.arrival)
                solo = self._solo.pop(rid, None)
                if solo is not None and solo != batch_id:
                    self._events.push(event.time, EventKind.CANCEL,
                                      payload=solo)
        else:
            for request in batch.requests:
                self._done[request.request_id] = (record.done, share)
                self._latency_window.append(record.done - request.arrival)
        replica = self._replicas[record.replica]
        if batch_id in replica.pending:
            replica.pending.remove(batch_id)
        if replica.draining and not replica.pending:
            replica.draining = False
            replica.up = False
            self._trace.append((event.time, self._n_up()))

    def _on_fail(self, event: Event) -> None:
        replica = self._replicas[event.payload]
        if not replica.up:
            return
        replica.up = False
        replica.failed = True
        replica.draining = False
        self._trace.append((event.time, self._n_up()))
        victims, replica.pending = list(replica.pending), []
        for batch_id in victims:
            batch = self._inflight[batch_id]
            batch.alive = False
            record = batch.record
            if record.start < event.time and record.service > 0:
                progress = min(1.0, (event.time - record.start)
                               / record.service)
                self._wasted += record.energy * progress
        for batch_id in victims:
            batch = self._inflight[batch_id]
            self._redispatched += 1
            self._dispatch(batch.record.model, batch.requests,
                           flush=batch.record.flush, now=event.time)

    def _on_recover(self, event: Event) -> None:
        replica = self._replicas[event.payload]
        if replica.up or not replica.failed:
            # not down, or down by the autoscaler's choice — a stale
            # recovery must not resurrect a retired replica
            return
        replica.up = True
        replica.failed = False
        replica.draining = False
        replica.free_at = event.time
        replica.available_at = event.time
        replica.last_model = None  # the power cycle cleared the array
        replica.done_model = None
        self._trace.append((event.time, self._n_up()))
        self._drain_waiting(event.time)

    def _on_control(self, event: Event) -> None:
        policy = self.autoscale
        alive = [r for r in self._replicas if r.up and not r.draining]
        queued = self._in_system  # queued + in-flight: the real backlog
        action = 0
        if policy.metric == "queue":
            if queued > policy.high_queue * len(alive):
                action = 1
            elif queued < policy.low_queue * len(alive):
                action = -1
        elif self._latency_window:
            p95 = percentile(self._latency_window, 95)
            if p95 > policy.target_p95:
                action = 1
            elif (p95 < 0.5 * policy.target_p95
                  and queued <= policy.low_queue * len(alive)):
                action = -1
        if action and event.time - self._last_scale >= policy.cooldown:
            if action > 0 and len(alive) < policy.max_replicas:
                self._scale_up(event.time)
                self._last_scale = event.time
            elif action < 0 and len(alive) > policy.min_replicas:
                self._scale_down(event.time, alive)
                self._last_scale = event.time
        if (self._remaining or queued
                or any(r.pending for r in self._replicas)):
            self._events.push(event.time + policy.tick, EventKind.CONTROL)

    def _on_drain(self, event: Event) -> None:
        """Flush deadline-less leftovers at the end of the trace."""
        for model in sorted(self._queues):
            queue = self._queues[model]
            if queue and self.policy.deadline(queue) is not None:
                continue
            while queue:
                batch = tuple(queue[: self.policy.max_batch])
                del queue[: self.policy.max_batch]
                self._dispatch(model, batch, flush=event.time)

    # -- resilience handlers (mirrored from the optimised engine) --------
    def _on_timeout(self, event: Event) -> None:
        fire, request, attempts = event.payload
        rid = request.request_id
        if rid in self._done:
            return
        res = self._res
        if not fire:
            self._timeouts += 1
            if self._res_kind == "degrade":
                if rid not in self._solo and self._candidates():
                    self._serve_degraded(event.time, request, track=True)
                return
            if attempts >= res.budget:
                return
            attempts += 1
            self._events.push(event.time + res.backoff_s(rid, attempts),
                              EventKind.TIMEOUT,
                              payload=(True, request, attempts))
            return
        self._retries += 1
        self._in_system += 1
        dup = self._dispatch(request.model, (request,), flush=event.time,
                             now=event.time)
        if dup is not None:
            self._solo[rid] = dup
        self._events.push(event.time + self._res_timeout,
                          EventKind.TIMEOUT,
                          payload=(False, request, attempts))

    def _on_hedge(self, event: Event) -> None:
        request: Request = event.payload
        rid = request.request_id
        if rid in self._done or rid in self._solo:
            return
        candidates = self._candidates()
        if len(candidates) < 2:
            return  # never hedge without an independent destination
        ranked = sorted(candidates,
                        key=lambda r: (max(r.free_at, r.available_at),
                                       r.index))
        target = ranked[1]
        self._hedges += 1
        self._in_system += 1
        dup = self._dispatch(request.model, (request,), flush=event.time,
                             now=event.time, to=target)
        if dup is not None:
            self._solo[rid] = dup

    def _on_cancel(self, event: Event) -> None:
        batch_id: int = event.payload
        entry = self._inflight.get(batch_id)
        if entry is None or not entry.alive:
            return
        record = entry.record
        if record.done <= event.time:
            return  # BATCH_DONE at this instant already recorded it
        entry.alive = False
        self._cancels += 1
        self._in_system -= record.size
        if record.start < event.time and record.service > 0:
            progress = min(1.0, (event.time - record.start)
                           / record.service)
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
                    replica.free_at = event.time

    def _serve_degraded(self, time: float, request: Request,
                        track: bool) -> None:
        res = self._res
        self._degraded += 1
        self._in_system += 1
        dup = self._dispatch(
            request.model, (request,), flush=time, now=time,
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
        deadline = self.policy.deadline(queue)
        if deadline is None or self._armed.get(model) == deadline:
            return
        self._armed[model] = deadline
        self._events.push(deadline, EventKind.FLUSH, key=model,
                          payload=(model, deadline))

    def _candidates(self) -> list[Replica]:
        return [r for r in self._replicas if r.up and not r.draining]

    def _pick_replica(self, model: str, size: int, floor: float,
                      candidates: Sequence[Replica]) -> Replica:
        """Pick a replica for a batch that can start at ``floor``."""
        if self.dispatch == "shard":
            digest = zlib.crc32(model.encode())
            home = self._replicas[digest % len(self._initial)]
            if home.up and not home.draining:
                return home
            return candidates[digest % len(candidates)]
        if self.dispatch == "least_loaded":
            return min(candidates,
                       key=lambda r: (max(r.free_at, r.available_at),
                                      r.index))
        if self.dispatch == "fastest_finish":
            def finish(replica: Replica) -> tuple[float, int]:
                start = max(floor, replica.free_at, replica.available_at)
                service = self.service_fn(replica.accelerator, model, size)
                return (start + service, replica.index)
            return min(candidates, key=finish)
        picked = candidates[self._rr_next % len(candidates)]
        self._rr_next = (self._rr_next + 1) % len(candidates)
        return picked

    def _dispatch(self, model: str, batch: tuple[Request, ...],
                  flush: float, now: Optional[float] = None,
                  to: Optional[Replica] = None,
                  rate_scale: Optional[tuple[float, float]] = None,
                  ) -> Optional[int]:
        """Serve one flushed batch on a replica (or park it)."""
        candidates = self._candidates()
        if not candidates:
            self._waiting.append((model, batch, flush))
            return None
        floor = flush if now is None else max(flush, now)
        if to is not None:
            replica = to
        else:
            replica = self._pick_replica(model, len(batch), floor,
                                         candidates)
        service = self.service_fn(replica.accelerator, model, len(batch))
        energy = self.energy_fn(replica.accelerator, model, len(batch))
        if (replica.last_model is not None
                and replica.last_model != model
                and self.switch_fn is not None):
            # lockstep with the optimised engine: a model switch pays
            # the weight-deployment charge before service
            service += self.switch_fn(replica.accelerator, model,
                                      len(batch))
        if rate_scale is not None:
            service *= rate_scale[0]
            energy *= rate_scale[1]
        replica.last_model = model
        start = max(floor, replica.free_at, replica.available_at)
        done = start + service
        replica.free_at = done
        batch_id = self._next_batch
        self._next_batch += 1
        record = BatchRecord(model=model, size=len(batch),
                             replica=replica.index, flush=flush,
                             start=start, done=done, energy=energy)
        self._inflight[batch_id] = _InFlight(record=record, requests=batch)
        self._batch_order.append(batch_id)
        replica.pending.append(batch_id)
        self._events.push(done, EventKind.BATCH_DONE, payload=batch_id)
        return batch_id

    def _drain_waiting(self, now: float) -> None:
        while self._waiting and self._candidates():
            model, batch, flush = self._waiting.popleft()
            self._dispatch(model, batch, flush=flush, now=now)

    def _scale_up(self, now: float) -> None:
        policy = self.autoscale
        for replica in self._replicas:
            if replica.up and replica.draining:
                replica.draining = False  # cancel a retirement instead
                self._scale_events.append((now, "up"))
                self._drain_waiting(now)
                return
        for replica in self._replicas:
            if not replica.up and not replica.failed and not replica.pending:
                # revive a retired replica instead of growing the pool
                # (shared fix with the optimised engine)
                replica.up = True
                replica.draining = False
                replica.free_at = now
                replica.available_at = now + policy.warmup
                replica.last_model = None  # power-gated while retired
                replica.done_model = None
                self._trace.append((now, self._n_up()))
                self._scale_events.append((now, "up"))
                self._drain_waiting(now)
                return
        replica = Replica(index=len(self._replicas),
                          accelerator=self._initial[0], free_at=now,
                          available_at=now + policy.warmup)
        self._replicas.append(replica)
        self._trace.append((now, self._n_up()))
        self._scale_events.append((now, "up"))
        self._drain_waiting(now)

    def _scale_down(self, now: float, alive: Sequence[Replica]) -> None:
        victim = min(alive, key=lambda r: (len(r.pending), -r.index))
        if victim.pending:
            victim.draining = True
        else:
            victim.up = False
            self._trace.append((now, self._n_up()))
        self._scale_events.append((now, "down"))


def run_reference(simulator, requests: Sequence[Request],
                  failures: Optional[FailurePlan] = None) -> EngineRun:
    """Serve ``requests`` with the reference engine, configured like
    ``simulator`` (a :class:`~repro.serving.simulator.ServingSimulator`).

    Shares the simulator's memo cache, so the service/energy floats
    come from the very same cached evaluations the optimised run sees
    — what is under test is the engine, not the layer simulator.

    ``failures`` overrides the simulator-level plan, mirroring
    :meth:`ServingSimulator.run`.

    The reference predates the policy seams and only implements the
    stock configuration (string dispatches, FIFO flush ordering, the
    stock :class:`~repro.serving.policies.ReactiveScalePolicy` — not a
    subclass, which may override ``decide`` — depth admission, no
    stealing); auditing a simulator that uses any other policy raises
    a clean :class:`~repro.errors.ConfigError` rather than silently
    comparing against an engine that ignores it.
    """
    if simulator.resilience is not None and type(
            simulator.resilience) not in (RetryPolicy, HedgePolicy,
                                          DegradePolicy):
        raise ConfigError(
            "the reference engine only implements the stock resilience "
            "policies (retry / hedge / degrade); it cannot audit custom "
            "ResiliencePolicy runs"
        )
    if simulator.autoscale is not None and type(
            simulator.autoscale) is not ReactiveScalePolicy:
        raise ConfigError(
            "the reference engine only implements the stock "
            "ReactiveScalePolicy; it cannot audit custom ScalePolicy runs"
        )
    if simulator.flush is not None and type(simulator.flush) \
            is not FifoFlush:
        raise ConfigError(
            "the reference engine only implements the stock FIFO "
            "flush ordering; it cannot audit custom FlushPolicy runs"
        )
    if simulator.admission is not None:
        raise ConfigError(
            "the reference engine only implements the stock depth "
            "admission (slo.shed_depth); it cannot audit custom "
            "AdmissionPolicy runs"
        )
    if simulator.steal is not None:
        raise ConfigError(
            "the reference engine does not implement work stealing"
        )
    requests = tuple(sorted(requests, key=lambda r: r.arrival))
    engine = ReferenceEngine(
        replicas=simulator.pool, policy=simulator.policy,
        dispatch=simulator.dispatch,
        service_fn=lambda acc, model, size: simulator.cache.simulate(
            acc, simulator.network(model), size).latency,
        energy_fn=lambda acc, model, size: simulator.cache.energy_total(
            acc, simulator.network(model), size),
        switch_fn=lambda acc, model, size: simulator.cache.deploy_total(
            acc, simulator.network(model), size),
        slo=simulator.slo, autoscale=simulator.autoscale,
        failures=failures if failures is not None else simulator.failures,
        resilience=simulator.resilience,
    )
    return engine.run(requests)
