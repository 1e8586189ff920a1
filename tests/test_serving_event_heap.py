"""The engine's event heap stays about as small as the replica pool.

Only events that could fire next sit on the heap: each replica's head
completion (the rest of its ``pending`` schedule waits off the heap)
and the head of the deadline-check FIFO (every TIMEOUT check and HEDGE
launch lands a fixed delay after the clock).  Backlogs of thousands of
batches and thousands of outstanding deadline checks therefore leave
the heap bounded by the pool, the model mix and the outage plan.

A recording dispatch policy samples the heap at every pick, the way
``tests/test_serving_gc.py`` samples the GC threshold.  Bit-exactness
of the held-back order is the differential, reference and golden
suites' job; this file pins the bound, checks that nothing held
back outlives the run, and pins how much work the engine does on the
scaled failure-retry and plain-bursty cells: counts show what a change
removed on any host, however fast it is.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.serving import (
    ClusterEngine,
    EventKind,
    FailurePlan,
    LeastLoadedDispatch,
    RoundRobinDispatch,
    ServingSimulator,
    ShardDispatch,
    SloPolicy,
    TimeoutBatching,
    WorkStealPolicy,
    get_scenario,
    make_policy,
)

SCENARIO = get_scenario("failure-storm")
N = 2_000
SEED = 1
#: Entries that may sit on the heap beside the ones that are due next:
#: flushes superseded by a re-armed deadline and completions of head
#: batches that died wait out their instant, and backoff-delayed
#: retries and cancels are heaped directly.
TRANSIENT = 4


def _recording(base):
    """A stock dispatch policy that samples the heap size at each pick
    and keeps the engine for the after-run checks."""

    class Recording(base):
        def __init__(self) -> None:
            super().__init__()
            self.sizes: list[int] = []
            self.engine = None

        def pick(self, engine, model, size, floor, candidates):
            self.engine = engine
            self.sizes.append(len(engine._events._heap))
            return super().pick(engine, model, size, floor, candidates)

    return Recording()


def heap_bound(replicas: int, models: int, outages: int) -> int:
    """What may be due on the heap at once: one head completion per
    replica, one armed flush per model, each outage's FAIL and RECOVER
    (pushed up front), the DRAIN, the control tick and the
    deadline-check FIFO's head, plus :data:`TRANSIENT` entries."""
    return replicas + models + 2 * outages + 3 + TRANSIENT


#: The failure-retry benchmark workload (6 replicas, shard dispatch, a
#: 3 ms SLO, the storm's 3 outages sampled once) scaled to
#: :data:`N` requests.  Its deadline is 3 ms, not the benchmark's 30 ms:
#: at this length a 30 ms check never fires.
FAILURE_RETRY = dict(
    replicas=6, slo=SloPolicy(target=3e-3),
    failures=FailurePlan(count=SCENARIO.faults, seed=7),
    resilience="retry:timeout_us=3000,budget=1")

#: name -> (dispatch class, simulator options, counters that must fire).
CELLS = {
    # deep backlogs under outages, with every admitted request
    # arming a deadline check
    "shard-retry": (ShardDispatch, FAILURE_RETRY, ("retries", "cancels")),
    # hedging on the scenario's own outages: 168 entries before.  At
    # this length every request is answered within the delay, so no
    # hedge launches and only the check FIFO is exercised
    "least-loaded-hedge": (LeastLoadedDispatch, dict(
        replicas=4, resilience="hedge:delay_us=2700"), ()),
    # a SMART + TPU pair that steals, fails over and retries: batches
    # die behind their replica's head in all three ways
    "steal-storm-retry": (RoundRobinDispatch, dict(
        accelerators=["SMART", "TPU"],
        steal=WorkStealPolicy(tick=2e-4, max_steals=4),
        failures=FailurePlan(count=SCENARIO.faults, seed=7),
        resilience="retry:timeout_us=3000,budget=1"),
        ("stolen", "redispatched", "cancels")),
}


def _serve(dispatch_cls, config):
    """Serve the scenario; return (result, dispatch recorder)."""
    dispatch = _recording(dispatch_cls)
    result = ServingSimulator(
        "SMART", policy=make_policy("timeout"), dispatch=dispatch,
        **config).run_scenario(SCENARIO, N, seed=SEED)
    return result, dispatch


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_heap_stays_within_the_bound(cell):
    dispatch_cls, config, counters = CELLS[cell]
    result, dispatch = _serve(dispatch_cls, config)
    replicas = len(dispatch.engine._replicas)
    bound = heap_bound(replicas, len(SCENARIO.mix.weights),
                       SCENARIO.faults)
    assert len(dispatch.sizes) >= N // 4
    assert max(dispatch.sizes) <= bound, (max(dispatch.sizes), bound)
    for counter in counters:
        assert getattr(result, counter), counter
    # every held-back entry was pushed or dropped with its batch, and
    # every batch left the engine's books when it completed or died
    engine = dispatch.engine
    assert engine._chained == {}
    assert not engine._checks
    assert not engine._events._heap
    assert not any(replica.pending for replica in engine._replicas)
    assert not engine._inflight


def _counting_handlers(monkeypatch) -> Counter:
    """Count every heap pop by :class:`EventKind`, plus the deadline
    checks that pop for a request already answered and the cancels
    that land between a replica's head and tail."""
    counts: Counter = Counter()
    handlers = ClusterEngine._handlers

    def counting(engine):
        def wrap(kind, handler):
            def counted(time, payload):
                counts[kind.name] += 1
                if kind is EventKind.TIMEOUT and not payload[0] \
                        and payload[1].request_id in engine._answered:
                    counts["no-op checks"] += 1
                if kind is EventKind.CANCEL \
                        and payload in engine._inflight:
                    record = engine._inflight[payload][0]
                    pending = engine._replicas[record.replica].pending
                    if record.done > time \
                            and pending[0] != payload != pending[-1]:
                        counts["mid-backlog cancels"] += 1
                handler(time, payload)
            return None if handler is None else counted
        return tuple(map(wrap, EventKind, handlers(engine)))

    monkeypatch.setattr(ClusterEngine, "_handlers", counting)
    return counts


def test_failure_retry_work_is_pinned(monkeypatch):
    # Exact on any host, unlike a timing: a change that moves one of
    # these changed the engine's work and must say why.
    counts = _counting_handlers(monkeypatch)
    result, dispatch = _serve(ShardDispatch, FAILURE_RETRY)
    engine = dispatch.engine
    assert dict(counts) == {
        "FLUSH": 655, "BATCH_DONE": 691, "FAIL": 3, "RECOVER": 3,
        "DRAIN": 1, "TIMEOUT": 1_554, "CANCEL": 540,
        "no-op checks": 16,
        # the lockstep cells in test_serving_resilience.py rely on
        # these: a cancel there must reach the middle of a backlog
        "mid-backlog cancels": 526,
    }
    # every dispatch takes the next batch id; the ones that died
    # (failed over, cancelled) are missing from the served batches
    assert engine._next_batch == 1_235
    assert engine._next_batch - len(result.batches) == 555
    assert (result.timeouts, result.retries, result.cancels) == \
        (962, 565, 540)
    # first copy wins: all N requests answered, each logged once, in
    # one log entry per served batch (a losing copy's holds none)
    assert len(engine._answered) == sum(
        len(answered) for _, answered in engine._log) == N
    assert len(engine._log) == len(result.batches) == 680


def test_plain_bursty_work_is_pinned(monkeypatch):
    """The plain-bursty benchmark workload (SMART, 2 replicas, timeout
    batching, least-loaded dispatch, bursty traffic, seed 1) scaled to
    :data:`N` requests: the engine asks the policy for a deadline once
    per queue fill, and the events it pops stay put."""
    counts = _counting_handlers(monkeypatch)
    calls: Counter = Counter()

    class CountingTimeout(TimeoutBatching):
        def deadline(self, queue):
            calls["deadline"] += 1
            return super().deadline(queue)

    engines = set()

    class CountingLeastLoaded(LeastLoadedDispatch):
        def pick(self, engine, model, size, floor, candidates):
            calls["pick"] += 1
            engines.add(engine)
            return super().pick(engine, model, size, floor, candidates)

    result = ServingSimulator(
        "SMART", replicas=2, policy=CountingTimeout(),
        dispatch=CountingLeastLoaded(),
    ).run_scenario("bursty", N, seed=SEED)
    assert dict(counts) == {"FLUSH": 638, "BATCH_DONE": 638, "DRAIN": 1}
    # one deadline per queue fill (638, when an arrival heads an empty
    # queue) and one per non-empty queue at the DRAIN (4); a FLUSH pop
    # reads ``_armed`` instead.  An engine that asked after every
    # arrival read 2,632, one that asked again at every FLUSH 1,276
    assert calls == {"deadline": 642, "pick": 638}
    assert len(result.batches) == 638
    # the engine logs one completion per BATCH_DONE, not one per
    # request, and keeps no answered ids off the resilience path
    (engine,) = engines
    assert len(engine._log) == 638
    assert not engine._answered
