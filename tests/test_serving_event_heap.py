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
suites' job; this file pins the bound and checks that nothing held
back outlives the run.
"""

from __future__ import annotations

import pytest

from repro.serving import (
    FailurePlan,
    LeastLoadedDispatch,
    RoundRobinDispatch,
    ServingSimulator,
    ShardDispatch,
    SloPolicy,
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


CELLS = {
    # the failure-retry benchmark workload, scaled down: before the
    # heap was bounded this reached 1,911 entries, nearly one per
    # request, because every admitted request armed a 30 ms check
    "shard-retry": (ShardDispatch, dict(
        replicas=6, slo=SloPolicy(target=3e-3),
        failures=FailurePlan(count=SCENARIO.faults, seed=7),
        resilience="retry:timeout_us=30000,budget=1")),
    # hedging on the scenario's own outages: 168 entries before
    "least-loaded-hedge": (LeastLoadedDispatch, dict(
        replicas=4, resilience="hedge:delay_us=2700")),
    # a SMART + TPU pair that steals, fails over and retries: batches
    # die behind their replica's head in all three ways
    "steal-storm-retry": (RoundRobinDispatch, dict(
        accelerators=["SMART", "TPU"],
        steal=WorkStealPolicy(tick=2e-4, max_steals=4),
        failures=FailurePlan(count=SCENARIO.faults, seed=7),
        resilience="retry:timeout_us=3000,budget=1")),
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_heap_stays_within_the_bound(cell):
    dispatch_cls, config = CELLS[cell]
    dispatch = _recording(dispatch_cls)
    result = ServingSimulator(
        "SMART", policy=make_policy("timeout"), dispatch=dispatch,
        **config).run_scenario(SCENARIO, N, seed=SEED)
    replicas = len(dispatch.engine._replicas)
    bound = heap_bound(replicas, len(SCENARIO.mix.weights),
                       SCENARIO.faults)
    assert len(dispatch.sizes) >= N // 4
    assert max(dispatch.sizes) <= bound, (max(dispatch.sizes), bound)
    if "steal" in config:
        assert result.stolen and result.redispatched and result.cancels
    # every held-back entry was pushed or dropped with its batch
    engine = dispatch.engine
    assert engine._chained == {}
    assert not engine._checks
    assert not engine._events._heap
