"""The pluggable scheduling control plane of the serving engine.

PR 3/4 hard-coded every scheduling decision inside ``ClusterEngine``:
replica selection was a string-matched branch in ``_pick_replica``,
flush ordering was baked into the event heap key and the drain sweep,
autoscaling was one reactive policy inlined in the control tick, and
admission was a single depth test on the arrival path.  Each of the
ROADMAP's scheduler items (EDF flush ordering, priority classes, work
stealing, predictive autoscaling) would have meant another branch in a
900-line engine.

This module extracts the four decision seams as small policy objects
the engine calls through, plus the new policies that ride on them:

- :class:`DispatchPolicy` — which replica serves a flushed batch.  The
  four stock strategies (:class:`RoundRobinDispatch`,
  :class:`LeastLoadedDispatch`, :class:`ShardDispatch`,
  :class:`FastestFinishDispatch`) reproduce the retired string
  branches bit for bit — the equivalence suite in
  ``tests/test_serving_reference.py`` holds every stock scenario x
  batching policy x dispatch cell to exact per-request tuple equality
  across the refactor.
- :class:`FlushPolicy` — which pending batch flushes first when the
  engine has a choice: simultaneous flush deadlines, the end-of-trace
  drain sweep, and the parked-batch queue that drains on control
  events (recovery / scale-up).  :class:`FifoFlush` is the stock
  behaviour; :class:`EdfFlush` adds earliest-deadline-first ordering
  with per-model priority classes.
- :class:`ScalePolicy` — the control-tick scaling decision.
  :class:`ReactiveScalePolicy` is the stock autoscaler (queue-depth or
  windowed-p95, with its pool bounds and timing as plain fields);
  :class:`ForecastScalePolicy` feeds the engine's per-tick
  arrival-rate history into an EWMA or Holt (double-exponential)
  forecast and scales *ahead* of the crest.
- :class:`AdmissionPolicy` — per-arrival admit/shed.
  :class:`DepthAdmission` is the stock in-system concurrency bound.

:class:`WorkStealPolicy` configures the fifth control-plane action:
on control ticks the engine re-dispatches the most-backlogged
replica's last not-yet-started batch to the replica that would finish
it soonest.

Policies are deliberately engine-agnostic: they receive the engine (or
plain values) at call time and keep only their own state, which
``reset()`` clears at the start of every run so one policy instance
can serve many runs deterministically.
"""

from __future__ import annotations

import heapq
import zlib
from array import array
from dataclasses import dataclass
from itertools import repeat
from math import ceil
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime cycle
    from repro.serving.events import Replica

#: Priority classes are small signed integers; the bound keeps the
#: fixed-width flush-key encoding total-ordered.
MAX_PRIORITY = 9999


# ---------------------------------------------------------------------------
# Dispatch: which replica serves a flushed batch
# ---------------------------------------------------------------------------
class DispatchPolicy:
    """Replica selection for one flushed batch.

    ``pick`` receives the engine so strategies can read replica state
    and the memoised per-(configuration, model, batch) service rates;
    ``reset`` runs at the start of every engine run and must clear any
    per-run state (round-robin cursors, shard digests).
    """

    name = "?"

    def reset(self, engine) -> None:
        """Forget per-run state; called once per engine run."""

    def pick(self, engine, model: str, size: int, floor: float,
             candidates: Sequence["Replica"]) -> "Replica":
        """Choose the replica to serve a batch that can start at
        ``floor``; ``candidates`` is the engine's non-empty tuple of
        live replicas, ordered by index."""
        raise NotImplementedError


class RoundRobinDispatch(DispatchPolicy):
    """Cycle through the live candidates in index order."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def reset(self, engine) -> None:
        self._next = 0

    def pick(self, engine, model, size, floor, candidates):
        picked = candidates[self._next % len(candidates)]
        self._next = (self._next + 1) % len(candidates)
        return picked


class LeastLoadedDispatch(DispatchPolicy):
    """The replica that frees (and finishes warming) earliest."""

    name = "least_loaded"

    def pick(self, engine, model, size, floor, candidates):
        # the (free time, index) minimum: the candidates arrive in
        # index order, so a strict ``<`` keeps the lowest index of a tie
        best = None
        best_at = 0.0
        for replica in candidates:
            at = replica.free_at
            if at < replica.available_at:
                at = replica.available_at
            if best is None or at < best_at:
                best, best_at = replica, at
        return best


class ShardDispatch(DispatchPolicy):
    """Pin each model to one home replica by a stable hash.

    The pin hashes over the *initial* pool, so one replica's failure
    never remaps models homed on healthy replicas; only the dead
    replica's own models fall back (deterministically) into the live
    candidate list.
    """

    name = "shard"

    def __init__(self) -> None:
        self._digests: dict[str, int] = {}

    def reset(self, engine) -> None:
        self._digests.clear()

    def pick(self, engine, model, size, floor, candidates):
        digest = self._digests.get(model)
        if digest is None:
            digest = self._digests[model] = zlib.crc32(model.encode())
        home = engine._replicas[digest % len(engine._initial)]
        if home.up and not home.draining:
            return home
        return candidates[digest % len(candidates)]


class FastestFinishDispatch(DispatchPolicy):
    """The replica that *completes* the batch earliest.

    Weighs each candidate's own service time for this (model, batch)
    — the heterogeneity-aware strategy — via the engine's memoised
    rate lookup, so a mixed pool routes work to the configuration that
    actually finishes it first, not merely the one that frees first.
    """

    name = "fastest_finish"

    def pick(self, engine, model, size, floor, candidates):
        # the (finish, index) minimum, tie-broken as in
        # LeastLoadedDispatch
        rate = engine._rate
        best = None
        best_done = 0.0
        for replica in candidates:
            start = max(floor, replica.free_at, replica.available_at)
            done = start + rate(replica.accelerator, model, size)[0]
            if best is None or done < best_done:
                best, best_done = replica, done
        return best


#: Stock dispatch strategies by CLI name.
DISPATCH_POLICIES = {
    "round_robin": RoundRobinDispatch,
    "least_loaded": LeastLoadedDispatch,
    "shard": ShardDispatch,
    "fastest_finish": FastestFinishDispatch,
}


def make_dispatch(dispatch: str | DispatchPolicy) -> DispatchPolicy:
    """Resolve a dispatch name (or pass a policy through).

    Raises:
        ConfigError: for unknown names or non-policy objects.
    """
    if isinstance(dispatch, DispatchPolicy):
        return dispatch
    factory = DISPATCH_POLICIES.get(dispatch)
    if factory is None:
        raise ConfigError(
            f"unknown dispatch '{dispatch}'; known: "
            f"{', '.join(DISPATCH_POLICIES)}"
        )
    return factory()


# ---------------------------------------------------------------------------
# Flush ordering: which pending batch goes first
# ---------------------------------------------------------------------------
class FlushPolicy:
    """Ordering of flush work when the engine has a choice.

    Three decision points, all tie-breaks the event clock cannot make
    on its own:

    - ``flush_key``: heap tie-break for FLUSH events landing at the
      same instant (stock: model name, so simultaneous deadlines fire
      in model order);
    - ``drain_order``: model order of the end-of-trace drain sweep
      over deadline-less queues;
    - ``pick_waiting``: which parked batch (flushed while no replica
      was up) re-dispatches first once capacity returns on a control
      event (recovery / scale-up).

    The engine asks at every one of them, the stock :class:`FifoFlush`
    included.
    """

    name = "?"

    def flush_key(self, model: str, deadline: float) -> str:
        """Heap tie-break key for a FLUSH event at ``deadline``."""
        return model

    def drain_order(self, queues: Mapping[str, Sequence]) -> list[str]:
        """Model order for the end-of-trace drain sweep."""
        return sorted(queues)

    def pick_waiting(self, waiting: Sequence[tuple]) -> int:
        """Index of the parked (model, batch, flush) entry to
        re-dispatch next; ``waiting`` is non-empty, oldest first."""
        return 0


class FifoFlush(FlushPolicy):
    """Stock ordering: model-name ties, sorted drain, FIFO parking."""

    name = "fifo"


class EdfFlush(FlushPolicy):
    """Earliest-deadline-first ordering with per-model priorities.

    A batch's deadline *is* its flush instant, so distinct deadlines
    already fire in EDF order off the event heap; this policy settles
    everything the clock leaves open — higher priority classes first,
    then the earlier deadline, then the model name:

    - simultaneous flush deadlines fire in (priority, model) order;
    - the drain sweep serves high-priority queues (oldest head first)
      before low-priority ones;
    - parked batches re-dispatch highest-priority, earliest-flush
      first, never a later-deadline batch ahead of an earlier one of
      the same class.

    Args:
        priorities: model -> priority class; **higher values are more
            urgent** and unlisted models default to class 0.  Classes
            must fit in [-MAX_PRIORITY, MAX_PRIORITY].
    """

    name = "edf"

    def __init__(self, priorities: Optional[Mapping[str, int]] = None
                 ) -> None:
        self.priorities = dict(priorities or {})
        for model, klass in self.priorities.items():
            if not isinstance(klass, int) or isinstance(klass, bool):
                raise ConfigError(
                    f"priority class for '{model}' must be an integer"
                )
            if abs(klass) > MAX_PRIORITY:
                raise ConfigError(
                    f"priority class for '{model}' must be within "
                    f"+/-{MAX_PRIORITY}"
                )

    def priority(self, model: str) -> int:
        """The model's priority class (0 unless configured)."""
        return self.priorities.get(model, 0)

    def flush_key(self, model: str, deadline: float) -> str:
        # fixed-width (MAX_PRIORITY - priority) so lexicographic string
        # order on the heap equals (priority desc, model asc)
        return f"{MAX_PRIORITY - self.priority(model):05d}:{model}"

    def drain_order(self, queues):
        def key(model):
            queue = queues[model]
            head = queue[0].arrival if queue else float("inf")
            return (-self.priority(model), head, model)

        return sorted(queues, key=key)

    def pick_waiting(self, waiting):
        return min(
            range(len(waiting)),
            key=lambda i: (-self.priority(waiting[i][0]), waiting[i][2], i),
        )


#: Flush-ordering policies by CLI name.  ``edf`` is constructed with
#: the run's priority map, so the factory takes keyword arguments.
FLUSH_POLICIES = {
    "fifo": FifoFlush,
    "edf": EdfFlush,
}


def make_flush(flush: str | FlushPolicy,
               priorities: Optional[Mapping[str, int]] = None
               ) -> FlushPolicy:
    """Resolve a flush-ordering name (or pass a policy through).

    ``priorities`` only applies to ``edf``; naming priorities under
    ``fifo`` is a configuration error (they would be silently
    ignored).

    Raises:
        ConfigError: unknown names, or priorities without ``edf``.
    """
    if isinstance(flush, FlushPolicy):
        if priorities:
            raise ConfigError(
                "pass priorities to the flush policy itself when "
                "constructing it directly"
            )
        return flush
    if flush == "edf":
        return EdfFlush(priorities)
    if priorities:
        raise ConfigError(
            "per-model priorities need the 'edf' flush policy "
            "(--flush edf)"
        )
    if flush == "fifo":
        return FifoFlush()
    raise ConfigError(
        f"unknown flush policy '{flush}'; known: "
        f"{', '.join(FLUSH_POLICIES)}"
    )


# ---------------------------------------------------------------------------
# Scaling: the control-tick pool-size decision
# ---------------------------------------------------------------------------
class ScalePolicy:
    """The control-tick scaling decision behind the autoscaler.

    Implementations expose the pool bounds and timing the engine
    enforces (``min_replicas``/``max_replicas``, ``tick``, ``warmup``,
    ``cooldown``), declare what history they need (``window_size``
    completed-request latencies, ``needs_rate`` per-tick arrival
    counts), and return -1/0/+1 from :meth:`decide`.  The engine
    applies at most one action per tick, inside the cooldown, within
    the bounds.

    Policies that size the pool in replicas-worth of capacity set
    ``capacity_pinned = False`` and accept a per-replica requests/s
    figure through :meth:`calibrate` — the simulator calls it before
    every run with a figure derived from the trace's own model mix.
    """

    name = "?"
    needs_rate = False
    #: False when the policy wants :meth:`calibrate` called before
    #: each run; the default True means "nothing to calibrate".
    capacity_pinned = True

    min_replicas: int
    max_replicas: int
    tick: float
    warmup: float
    cooldown: float

    @property
    def window_size(self) -> int:
        """Completed-request latencies to keep (0 = none needed)."""
        return 0

    def calibrate(self, capacity_rps: float) -> None:
        """Accept one replica's capacity (requests/s); no-op here."""

    def reset(self) -> None:
        """Forget per-run forecast state; called once per run."""

    def decide(self, time: float, in_system: int, alive: int,
               window, arrivals: int, dt: float) -> int:
        """Scale action for this tick: +1 up, -1 down, 0 hold.

        Args:
            time: the tick instant (s).
            in_system: admitted requests queued or in flight.
            alive: serving (non-draining) replicas.
            window: the engine's latency window, or None.
            arrivals: arrivals since the previous tick.
            dt: tick interval (s).
        """
        raise NotImplementedError


@dataclass(frozen=True)
class ReactiveScalePolicy(ScalePolicy):
    """The stock reactive autoscaler: queue depth or windowed p95.

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

    name = "reactive"

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

    @property
    def window_size(self) -> int:
        return self.window if self.metric == "p95" else 0

    def decide(self, time, in_system, alive, window, arrivals, dt):
        if self.metric == "queue":
            if in_system > self.high_queue * alive:
                return 1
            if in_system < self.low_queue * alive:
                return -1
        elif window is not None and len(window):
            p95 = window.percentile(95)
            if p95 > self.target_p95:
                return 1
            if (p95 < 0.5 * self.target_p95
                    and in_system <= self.low_queue * alive):
                return -1
        return 0


class ForecastScalePolicy(ScalePolicy):
    """Predictive autoscaling off the engine's arrival-rate history.

    Every control tick observes the arrival rate since the last tick
    and updates an exponential forecast; the pool is then sized for
    the *forecast* rate at a target utilisation, so capacity is warm
    when the crest arrives instead of chasing it:

    - ``mode="ewma"``: single exponential smoothing — the forecast is
      the smoothed level (no trend), and the headroom comes from
      ``target_utilization`` alone;
    - ``mode="holt"``: Holt's double exponential smoothing (the
      non-seasonal Holt-Winters variant) — a smoothed trend is
      projected ``horizon`` ticks ahead, so a rising diurnal edge
      scales the pool *before* latencies degrade.

    Sizing needs the per-replica capacity in requests/s.  Pass it as
    ``capacity_rps``, or leave it None and let
    :class:`~repro.serving.simulator.ServingSimulator` calibrate it
    from the trace's own model mix before the run (scale-ups clone the
    pool's lead configuration, so its capacity is the right unit).

    Args:
        min_replicas, max_replicas: pool bounds.
        mode: ``"ewma"`` or ``"holt"``.
        alpha: level smoothing factor in (0, 1].
        beta: trend smoothing factor in (0, 1] (holt only).
        horizon: ticks ahead to project the trend; None derives the
            smallest horizon covering the warm-up delay, so a
            scale-up ordered now is serving when the forecast lands.
        target_utilization: fraction of per-replica capacity the
            sized pool should run at (headroom below 1.0).
        capacity_rps: one replica's throughput (requests/s); None
            until calibrated.
        tick, warmup, cooldown: control-loop timing, as in
            :class:`ReactiveScalePolicy`.
    """

    name = "forecast"
    needs_rate = True

    def __init__(self, min_replicas: int = 1, max_replicas: int = 8,
                 mode: str = "holt", alpha: float = 0.3,
                 beta: float = 0.1, horizon: Optional[int] = None,
                 target_utilization: float = 0.7,
                 capacity_rps: Optional[float] = None,
                 tick: float = 200e-6, warmup: float = 1e-3,
                 cooldown: float = 0.0) -> None:
        if min_replicas < 1 or max_replicas < min_replicas:
            raise ConfigError(
                "forecast scaling needs 1 <= min_replicas <= max_replicas"
            )
        if mode not in ("ewma", "holt"):
            raise ConfigError(
                f"unknown forecast mode '{mode}'; known: ewma, holt"
            )
        if not 0.0 < alpha <= 1.0 or not 0.0 < beta <= 1.0:
            raise ConfigError("smoothing factors must be in (0, 1]")
        if horizon is not None and horizon < 1:
            raise ConfigError("forecast horizon must be >= 1 tick")
        if not 0.0 < target_utilization <= 1.0:
            raise ConfigError("target utilization must be in (0, 1]")
        if capacity_rps is not None and capacity_rps <= 0:
            raise ConfigError("per-replica capacity must be positive")
        if tick <= 0 or warmup < 0 or cooldown < 0:
            raise ConfigError("forecast times must be non-negative "
                              "(tick positive)")
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.mode = mode
        self.alpha = alpha
        self.beta = beta
        self.horizon = (horizon if horizon is not None
                        else max(1, ceil(warmup / tick)))
        self.target_utilization = target_utilization
        self.capacity_rps = capacity_rps
        #: True when the capacity came from the constructor; the
        #: simulator only recalibrates unpinned policies, so a pinned
        #: one keeps its figure across runs and accelerators.
        self.capacity_pinned = capacity_rps is not None
        self.tick = tick
        self.warmup = warmup
        self.cooldown = cooldown
        self._level: Optional[float] = None
        self._trend = 0.0

    def calibrate(self, capacity_rps: float) -> None:
        """Set the per-replica capacity unless pinned at construction."""
        if not self.capacity_pinned:
            if capacity_rps <= 0:
                raise ConfigError("per-replica capacity must be positive")
            self.capacity_rps = capacity_rps

    def reset(self) -> None:
        if self.capacity_rps is None:
            raise ConfigError(
                "ForecastScalePolicy needs capacity_rps: run through "
                "ServingSimulator (which calibrates it from the trace "
                "mix) or pass it explicitly"
            )
        self._level = None
        self._trend = 0.0

    @property
    def forecast(self) -> float:
        """The current rate forecast (requests/s) at the horizon."""
        if self._level is None:
            return 0.0
        if self.mode == "holt":
            return max(0.0, self._level + self._trend * self.horizon)
        return self._level

    def decide(self, time, in_system, alive, window, arrivals, dt):
        rate = arrivals / dt
        if self._level is None:
            self._level = rate
        elif self.mode == "holt":
            # Holt's recurrences: the old trend carries into the new
            # level, so a steady ramp is tracked without the EWMA's
            # constant lag — exactly what leading the crest needs
            previous = self._level
            self._level = (self.alpha * rate
                           + (1.0 - self.alpha)
                           * (previous + self._trend))
            self._trend = (self.beta * (self._level - previous)
                           + (1.0 - self.beta) * self._trend)
        else:
            self._level = (self.alpha * rate
                           + (1.0 - self.alpha) * self._level)
        desired = ceil(self.forecast
                       / (self.target_utilization * self.capacity_rps))
        desired = max(self.min_replicas,
                      min(self.max_replicas, desired))
        if desired > alive:
            return 1
        if desired < alive:
            return -1
        return 0


def make_scale(scale, autoscale: Optional[ReactiveScalePolicy] = None,
               **forecast_kwargs) -> Optional[ScalePolicy]:
    """Resolve a scale spec into a :class:`ScalePolicy`.

    ``scale`` may be a policy instance (passed through), ``""``/None
    (``autoscale`` itself, or nothing), ``"reactive"`` (``autoscale``,
    which must then be set), or ``"ewma"``/``"holt"`` (a
    :class:`ForecastScalePolicy`, taking pool bounds from
    ``autoscale`` when given plus any ``forecast_kwargs``).

    Raises:
        ConfigError: unknown names or a reactive spec without bounds.
    """
    if isinstance(scale, ScalePolicy):
        return scale
    if not scale:
        return autoscale
    if scale == "reactive":
        if autoscale is None:
            raise ConfigError(
                "reactive scaling needs pool bounds "
                "(--autoscale MIN:MAX)"
            )
        return autoscale
    if scale in ("ewma", "holt"):
        if autoscale is not None:
            forecast_kwargs.setdefault("min_replicas",
                                       autoscale.min_replicas)
            forecast_kwargs.setdefault("max_replicas",
                                       autoscale.max_replicas)
        return ForecastScalePolicy(mode=scale, **forecast_kwargs)
    raise ConfigError(
        f"unknown scale policy '{scale}'; known: reactive, ewma, holt"
    )


# ---------------------------------------------------------------------------
# Admission: per-arrival admit / shed
# ---------------------------------------------------------------------------
class AdmissionPolicy:
    """Per-arrival admission decision.

    The engine consults :meth:`admit` for every arrival, the stock
    :class:`DepthAdmission` included; a rejected request is shed
    (counted as an SLO miss, zero energy).
    """

    name = "?"

    def admit(self, time: float, request, in_system: int) -> bool:
        """Whether to admit ``request`` with ``in_system`` admitted
        requests still queued or in flight."""
        raise NotImplementedError


class DepthAdmission(AdmissionPolicy):
    """Shed once ``depth`` admitted requests are still in the system —
    the concurrency bound real admission controllers enforce."""

    name = "depth"

    def __init__(self, depth: int) -> None:
        if depth < 1:
            raise ConfigError("shed depth must be >= 1")
        self.depth = depth

    def admit(self, time, request, in_system):
        return in_system < self.depth


# ---------------------------------------------------------------------------
# Work stealing: rebalance scheduled batches on control ticks
# ---------------------------------------------------------------------------
class WorkStealPolicy:
    """Control-tick work stealing between replicas.

    Every control tick, up to ``max_steals`` times: take the
    most-backlogged replica's *last* scheduled batch — provided it has
    not started — and re-dispatch it to the replica that would finish
    it earliest (its own service rate, plus any weight-deployment
    switch charge), but only when that completes at least ``min_gain``
    seconds sooner.  Stealing from the tail keeps the victim's
    earlier schedule intact, so nothing already promised a start time
    moves; the stolen batch keeps its original flush instant, so
    per-request latency accounting is unchanged.

    Args:
        tick: control-loop interval when no autoscaler provides one
            (with an autoscaler, stealing runs on its ticks).
        max_steals: rebalance attempts per tick.
        min_gain: minimum completion-time improvement (s) to steal.
    """

    name = "steal"

    def __init__(self, tick: float = 200e-6, max_steals: int = 1,
                 min_gain: float = 0.0) -> None:
        if tick <= 0:
            raise ConfigError("steal tick must be positive")
        if max_steals < 1:
            raise ConfigError("max_steals must be >= 1")
        if min_gain < 0:
            raise ConfigError("min_gain must be >= 0")
        self.tick = tick
        self.max_steals = max_steals
        self.min_gain = min_gain


# ---------------------------------------------------------------------------
# Resilience: what a client does when a request runs late or is shed
# ---------------------------------------------------------------------------
def _jitter_unit(seed: int, request_id: int, attempt: int) -> float:
    """Deterministic uniform draw in [0, 1) for one backoff decision.

    A pure function of (seed, request id, attempt) rather than a
    stateful RNG, so the same request draws the same jitter whether
    the trace was materialised, streamed, or served by a shard worker
    that never saw the other requests.
    """
    key = f"{seed}:{request_id}:{attempt}".encode()
    return zlib.crc32(key) / 4294967296.0


class ResiliencePolicy:
    """What the simulated client does about a late or shed request.

    The seventh policy seam.  The stock configurations:

    - ``none`` — today's behaviour: a late request is an SLO miss, a
      shed request is gone.  ``make_resilience("none")`` returns
      ``None`` so the engine's hot path stays byte-identical.
    - :class:`RetryPolicy` — re-enqueue a request that has not
      completed ``timeout`` seconds after admission, after a seeded
      exponential backoff with jitter, up to a retry budget.
    - :class:`HedgePolicy` — after a hedge delay, launch a duplicate
      singleton batch on the second-best replica; first completion
      wins and the loser is cancelled with partial-energy accounting.
    - :class:`DegradePolicy` — on shed (or first timeout) serve a
      degraded variant: a singleton at a service/energy discount with
      an accounted accuracy drop.

    Timeouts and hedge delays default to the run's SLO target when not
    given explicitly; a run with neither is a configuration error.
    """

    name = "?"

    def reset(self, engine) -> None:
        """Forget per-run state; called once per engine run."""

    def timeout_s(self, slo) -> float:
        """Effective deadline (s) after which the policy acts."""
        raise NotImplementedError


class RetryPolicy(ResiliencePolicy):
    """Deadline-timeout retries with seeded exponential backoff.

    A request that has not completed ``timeout`` seconds after its
    admission is re-enqueued (bypassing admission control — the
    client already holds a slot) after a backoff of
    ``backoff * multiplier**(attempt-1) * (1 + jitter * u)`` seconds,
    where ``u`` is a pure hash draw of (seed, request id, attempt).
    At most ``budget`` retries are launched per request; whichever
    copy completes first defines the request's latency, and late
    duplicate completions are charged to wasted energy.

    Args:
        timeout_us: deadline in microseconds; 0 uses the SLO target.
        budget: maximum retries per request (>= 1).
        backoff_us: base backoff in microseconds; 0 retries instantly.
        multiplier: exponential backoff growth factor (>= 1).
        jitter: relative jitter amplitude in [0, 1].
        seed: jitter hash seed.
    """

    name = "retry"

    def __init__(self, timeout_us: float = 0.0, budget: int = 2,
                 backoff_us: float = 50.0, multiplier: float = 2.0,
                 jitter: float = 0.25, seed: int = 0) -> None:
        if timeout_us < 0:
            raise ConfigError("retry timeout_us must be >= 0")
        if budget < 1:
            raise ConfigError("retry budget must be >= 1")
        if backoff_us < 0:
            raise ConfigError("retry backoff_us must be >= 0")
        if multiplier < 1:
            raise ConfigError("retry multiplier must be >= 1")
        if not 0 <= jitter <= 1:
            raise ConfigError("retry jitter must be in [0, 1]")
        self.timeout_us = timeout_us
        self.budget = budget
        self.backoff_us = backoff_us
        self.multiplier = multiplier
        self.jitter = jitter
        self.seed = seed

    def timeout_s(self, slo) -> float:
        if self.timeout_us > 0:
            return self.timeout_us * 1e-6
        if slo is not None and slo.target > 0:
            return slo.target
        raise ConfigError("retry needs timeout_us or an SLO target")

    def backoff_s(self, request_id: int, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        base = self.backoff_us * 1e-6
        scale = self.multiplier ** (attempt - 1)
        u = _jitter_unit(self.seed, request_id, attempt)
        return base * scale * (1.0 + self.jitter * u)


class HedgePolicy(ResiliencePolicy):
    """Hedged requests: duplicate slow requests to a second replica.

    ``delay`` seconds after admission, a request that has not
    completed is duplicated as a singleton batch on the second-best
    candidate replica (by earliest availability).  First completion
    wins; the losing copy is cancelled, charging only the energy for
    the fraction of service it actually ran.

    Args:
        delay_us: hedge delay in microseconds; 0 uses half the SLO
            target (the classic tail-hedging heuristic).
    """

    name = "hedge"

    def __init__(self, delay_us: float = 0.0) -> None:
        if delay_us < 0:
            raise ConfigError("hedge delay_us must be >= 0")
        self.delay_us = delay_us

    def timeout_s(self, slo) -> float:
        if self.delay_us > 0:
            return self.delay_us * 1e-6
        if slo is not None and slo.target > 0:
            return 0.5 * slo.target
        raise ConfigError("hedge needs delay_us or an SLO target")


class DegradePolicy(ResiliencePolicy):
    """Graceful degradation: serve a cheaper variant instead of failing.

    A shed request — or one that misses its timeout — is served as a
    degraded singleton: the same model dispatched at a service-time
    and energy discount (standing in for a distilled variant or an
    AQFP/SNN-scheme replica), with the accuracy cost accounted on the
    run.  A degraded completion still counts as a completion, so
    shedding under this policy loses accuracy, not requests.

    Args:
        timeout_us: deadline in microseconds; 0 uses the SLO target
            (only used when the run injects no shedding).
        service_scale: degraded service time as a fraction of full.
        energy_scale: degraded energy as a fraction of full.
        accuracy_drop: accounted accuracy cost per degraded request.
    """

    name = "degrade"

    def __init__(self, timeout_us: float = 0.0,
                 service_scale: float = 0.5,
                 energy_scale: float = 0.5,
                 accuracy_drop: float = 0.02) -> None:
        if timeout_us < 0:
            raise ConfigError("degrade timeout_us must be >= 0")
        if not 0 < service_scale <= 1:
            raise ConfigError("degrade service_scale must be in (0, 1]")
        if not 0 < energy_scale <= 1:
            raise ConfigError("degrade energy_scale must be in (0, 1]")
        if accuracy_drop < 0:
            raise ConfigError("degrade accuracy_drop must be >= 0")
        self.timeout_us = timeout_us
        self.service_scale = service_scale
        self.energy_scale = energy_scale
        self.accuracy_drop = accuracy_drop

    def timeout_s(self, slo) -> float:
        if self.timeout_us > 0:
            return self.timeout_us * 1e-6
        if slo is not None and slo.target > 0:
            return slo.target
        raise ConfigError("degrade needs timeout_us or an SLO target")


RESILIENCE_POLICIES = {
    "none": None,
    "retry": RetryPolicy,
    "hedge": HedgePolicy,
    "degrade": DegradePolicy,
}


def _policy_kwargs(text: str, label: str) -> dict:
    """Parse ``key=value,key=value`` option text into numeric kwargs."""
    kwargs: dict = {}
    for part in filter(None, text.split(",")):
        key, sep, value = part.partition("=")
        if not sep or not key or not value:
            raise ConfigError(f"bad {label} option {part!r}; "
                              f"expected key=value")
        try:
            kwargs[key] = int(value) if value.isdigit() else float(value)
        except ValueError:
            raise ConfigError(f"bad {label} option {part!r}; "
                              f"value must be numeric") from None
    return kwargs


def make_resilience(spec) -> Optional[ResiliencePolicy]:
    """Build a resilience policy from a spec string.

    ``""`` and ``"none"`` return ``None`` — the engine keeps its
    exact pre-resilience hot path.  Otherwise the spec is a policy
    name with optional ``key=value`` options after a colon, e.g.
    ``"retry:timeout_us=2000,budget=3"`` or ``"hedge:delay_us=800"``.
    A :class:`ResiliencePolicy` instance passes through unchanged.
    """
    if spec is None or isinstance(spec, ResiliencePolicy):
        return spec
    name, _, options = str(spec).partition(":")
    name = name.strip() or "none"
    if name not in RESILIENCE_POLICIES:
        raise ConfigError(
            f"unknown resilience policy {name!r}; use one of "
            f"{', '.join(sorted(RESILIENCE_POLICIES))}")
    cls = RESILIENCE_POLICIES[name]
    if cls is None:
        if options:
            raise ConfigError("resilience 'none' takes no options")
        return None
    try:
        return cls(**_policy_kwargs(options, f"resilience {name!r}"))
    except TypeError:
        raise ConfigError(
            f"bad options for resilience {name!r}: {options!r}") from None


# ---------------------------------------------------------------------------
# Geo dispatch: which region serves an admitted request
# ---------------------------------------------------------------------------
class GeoDispatchPolicy:
    """Region selection for one admitted request.

    The sixth policy seam, one level above :class:`DispatchPolicy`:
    before a request ever reaches a cluster's replica dispatch, the
    :class:`~repro.serving.geo.GeoRouter` asks a geo policy which
    *region* serves it.  ``route`` receives the arrival instant, the
    request's home region index, and the router view — a read-only
    surface over the fleet plan:

    - ``router.regions`` — region count;
    - ``router.capacity(i)`` — calibrated capacity (req/s);
    - ``router.price(i)`` — energy price (USD/MJ);
    - ``router.energy_per_req(i)`` — per-request energy estimate (J);
    - ``router.batch_latency(i)`` — full-batch service estimate (s);
    - ``router.wave(i, t)`` — instantaneous diurnal load factor at
      region-local time (1.0 flat for non-diurnal scenarios);
      ``router.waves(times)`` — the same factor over a column of
      instants, one list per region;
    - ``router.hops(src, dst)`` / ``router.delay(src, dst)`` — the
      interconnect (see :mod:`repro.serving.interconnect`);
    - ``router.window_rate(i, t)`` — recent *assigned* request rate
      (req/s over the router's sliding window);
    - ``router.slo`` — latency target (s), or ``None``.

    Policies are pure functions of that view, so the router routes a
    whole run in one scan, in the parent process, before any region
    engine starts, and geo runs merge exactly.  The router calls the
    very instance it was given; ``reset`` runs once per run.

    The router asks for the whole run at once, through
    :meth:`route_block`.  Its default calls ``route`` once per
    request and records where each request lands, which is what
    ``window_rate`` counts.  A policy that never reads
    ``window_rate`` may override ``route_block`` to route each home
    region's column in one pass; nothing is recorded for an override,
    so it must not read ``window_rate``.  :class:`HomeRegionDispatch`
    and :class:`FollowSunDispatch` do this, and a subclass of theirs
    that overrides only ``route`` is still routed one request at a
    time, through its own ``route``.
    """

    name = "?"

    def reset(self, router) -> None:
        """Forget per-run state; called once per routing scan."""

    def route(self, time: float, home: int, router) -> int:
        """The region index that serves a request admitted at ``time``
        by region ``home``."""
        raise NotImplementedError

    def route_block(self, arrivals: Sequence[array],
                    router) -> list[array]:
        """The region each admission is sent to: one ``array('H')``
        column per home region, in admission order.

        ``arrivals[h]`` holds home region ``h``'s admission instants,
        nondecreasing.  The router lands every request afterwards: a
        storm reroutes one sent to a dark region (``router.land``).
        This default merges the columns in (arrival, home, index)
        order and, per request, calls ``route``, lands the request and
        records the landing region for ``window_rate``.

        Raises:
            ConfigError: for a route outside the fleet.
        """
        route, record = self.route, router.record
        land = router.land if router.storms else None
        regions = router.regions
        sent = [array("H") for _ in arrivals]
        for time, home in heapq.merge(*[
                zip(times, repeat(home))
                for home, times in enumerate(arrivals)]):
            serve = route(time, home, router)
            if not 0 <= serve < regions:
                raise ConfigError(
                    f"geo policy '{self.name}' routed to region {serve} "
                    f"outside [0, {regions})"
                )
            sent[home].append(serve)
            record(serve if land is None else land(time, home, serve),
                   time)
        return sent


class HomeRegionDispatch(GeoDispatchPolicy):
    """Serve every request where it arrived (the null geo policy)."""

    name = "home"

    def route(self, time, home, router):
        return home

    def route_block(self, arrivals, router):
        if type(self).route is not HomeRegionDispatch.route:
            return super().route_block(arrivals, router)
        return [array("H", [home]) * len(times)
                for home, times in enumerate(arrivals)]


#: Admissions per ``router.waves`` call in a follow-the-sun block.
_WAVE_BLOCK = 1024


class FollowSunDispatch(GeoDispatchPolicy):
    """Chase the night: route to the region deepest in its diurnal
    trough.

    Lower wave factor means local night — idle capacity — so traffic
    follows the sun around the ring.  Ties (every region flat on a
    non-diurnal scenario) break toward fewer hops from home, then the
    lower region index, which degrades to home-region routing.  Hops
    are read only among exactly tied waves, so the usual unique minimum
    costs one wave per region.  A block routes each home region's
    column from ``router.waves``, with the same tie key.
    """

    name = "follow_sun"

    def route(self, time, home, router):
        wave = router.wave
        waves = [wave(i, time) for i in range(router.regions)]
        low = min(waves)
        if waves.count(low) == 1:
            return waves.index(low)
        return min((i for i, w in enumerate(waves) if w == low),
                   key=lambda i: (router.hops(home, i), i))

    def route_block(self, arrivals, router):
        if type(self).route is not FollowSunDispatch.route:
            return super().route_block(arrivals, router)
        hops = router.hops
        sent = []
        for home, times in enumerate(arrivals):
            # regions in tie-key order, so the first minimal wave of a
            # row is the (wave, hops, index) minimum
            order = sorted(range(router.regions),
                           key=lambda i: (hops(home, i), i))
            column = array("H")
            # a block of waves at a time keeps the float lists small
            for lo in range(0, len(times), _WAVE_BLOCK):
                waves = router.waves(times[lo:lo + _WAVE_BLOCK])
                column.extend([order[row.index(min(row))] for row
                               in zip(*[waves[i] for i in order])])
            sent.append(column)
        return sent


class CheapestJouleDispatch(GeoDispatchPolicy):
    """Energy-price-aware routing: the cheapest joule wins under SLO.

    Candidate regions are those whose static latency estimate — a full
    batch's service time plus the interconnect delay from home — meets
    the SLO target; among them the lowest energy cost per request
    (price x per-request energy) wins, ties toward fewer hops then
    index.  Regions already assigned traffic beyond their calibrated
    capacity (by the router's sliding window) drop out first, so the
    cheapest joule wins only while its region has headroom rather
    than piling the whole fleet onto one grid.  With no SLO every
    region is a candidate; when no region fits the budget the request
    stays home (shipping it anywhere else only adds delay).
    """

    name = "cheapest_joule"

    def route(self, time, home, router):
        slo = router.slo
        eligible = [
            i for i in range(router.regions)
            if slo is None
            or router.batch_latency(i) + router.delay(home, i) <= slo
        ]
        if not eligible:
            return home
        open_pools = [i for i in eligible
                      if router.window_rate(i, time)
                      < router.capacity(i)]
        return min(open_pools or eligible,
                   key=lambda i: (router.price(i)
                                  * router.energy_per_req(i),
                                  router.hops(home, i), i))


class SpilloverDispatch(GeoDispatchPolicy):
    """Serve at home until the home pool saturates, then overflow.

    Saturation is the router's sliding-window assigned rate exceeding
    the region's calibrated capacity.  Overflow goes to the nearest
    region with headroom (fewest hops, then most spare capacity, then
    index); when every region is saturated the request stays home —
    there is nowhere better to spill.
    """

    name = "spillover"

    def route(self, time, home, router):
        if router.window_rate(home, time) <= router.capacity(home):
            return home
        spare = [
            i for i in range(router.regions) if i != home
            and router.window_rate(i, time) < router.capacity(i)
        ]
        if not spare:
            return home
        return min(spare,
                   key=lambda i: (router.hops(home, i),
                                  router.window_rate(i, time)
                                  - router.capacity(i), i))


GEO_POLICIES = {
    policy.name: policy for policy in (
        HomeRegionDispatch, FollowSunDispatch, CheapestJouleDispatch,
        SpilloverDispatch,
    )
}


def make_geo(policy: str | GeoDispatchPolicy) -> GeoDispatchPolicy:
    """Resolve a geo dispatch policy name (or pass an instance through).

    Raises:
        ConfigError: for unknown names.
    """
    if isinstance(policy, GeoDispatchPolicy):
        return policy
    try:
        return GEO_POLICIES[policy]()
    except KeyError:
        raise ConfigError(
            f"unknown geo policy '{policy}'; known: "
            f"{', '.join(GEO_POLICIES)}"
        ) from None


__all__ = [
    "AdmissionPolicy",
    "CheapestJouleDispatch",
    "DISPATCH_POLICIES",
    "DepthAdmission",
    "DispatchPolicy",
    "EdfFlush",
    "FLUSH_POLICIES",
    "FastestFinishDispatch",
    "FifoFlush",
    "FlushPolicy",
    "FollowSunDispatch",
    "ForecastScalePolicy",
    "GEO_POLICIES",
    "GeoDispatchPolicy",
    "HomeRegionDispatch",
    "LeastLoadedDispatch",
    "MAX_PRIORITY",
    "RESILIENCE_POLICIES",
    "ReactiveScalePolicy",
    "ResiliencePolicy",
    "RetryPolicy",
    "HedgePolicy",
    "DegradePolicy",
    "RoundRobinDispatch",
    "ScalePolicy",
    "ShardDispatch",
    "SpilloverDispatch",
    "WorkStealPolicy",
    "make_dispatch",
    "make_flush",
    "make_geo",
    "make_resilience",
    "make_scale",
]
