"""Golden pins for the engine configurations the reference refuses.

``run_reference`` audits only the stock configuration: it refuses work
stealing, non-FIFO flush ordering, forecast scaling and custom
admission.  Those paths run through the same dispatch, completion and
reclaim code as every audited cell (stealing rewrites a replica's
pending schedule), so they are pinned here to recorded outcomes
instead: integer counters match exactly, float aggregates to 1e-12
relative.  A change to the engine's event bookkeeping that moves one
completion in these cells cannot pass unseen.

Each cell serves a seeded toy-network trace over three models with
arrivals faster than the pool drains, so replicas build backlogs.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

import pytest

from repro.core import make_smart, make_tpu
from repro.serving import (
    AdmissionPolicy,
    EdfFlush,
    FailurePlan,
    ReactiveScalePolicy,
    ServingSimulator,
    TimeoutBatching,
    WorkStealPolicy,
    make_scale,
)
from repro.serving.workload import Request
from repro.systolic.layers import ConvLayer, Network

TOY = Network("toy", (
    ConvLayer("c1", 16, 16, 8, 16, 3, 3, padding=1),
    ConvLayer("c2", 16, 16, 16, 16, 3, 3, padding=1),
    ConvLayer("fc", 1, 1, 4096, 10, 1, 1, kind="fc"),
))
TOY2 = Network("toy2", TOY.layers[:2])
TOY3 = Network("toy3", TOY.layers[1:])
NETWORKS = {"toy": TOY, "toy2": TOY2, "toy3": TOY3}

#: Recorded outcomes (see :func:`_record_golden`).
GOLDEN_PATH = Path(__file__).parent / "data" / "engine_golden.json"
GOLDEN_N = 1500
SEED = 3
#: Offered load (req/s): about twice what a SMART replica serves of
#: this mix in batches of four, so queues and pending schedules grow.
RATE = 3e7


class _ModelBudget(AdmissionPolicy):
    """A custom admission policy: a tighter in-system bound for the
    largest model than for the two smaller ones."""

    name = "model_budget"

    def admit(self, time, request, in_system):
        return in_system < (6 if request.model == "toy" else 10)


def _mixed_pool(**kwargs):
    """TestWorkStealing's fast/slow SMART + TPU pool under round-robin."""
    kwargs.setdefault("dispatch", "round_robin")
    return ServingSimulator(accelerators=[make_smart(), make_tpu()],
                            networks=NETWORKS,
                            policy=TimeoutBatching(max_batch=4,
                                                   max_wait=1e-6),
                            **kwargs)


def _smart_pool(replicas, **kwargs):
    return ServingSimulator(make_smart(), replicas=replicas,
                            networks=NETWORKS,
                            policy=TimeoutBatching(max_batch=4,
                                                   max_wait=1e-6),
                            **kwargs)


#: Pool bounds and timing shared by the scaling cells.
_BOUNDS = dict(min_replicas=1, max_replicas=4, tick=5e-7, warmup=2e-6,
               cooldown=1e-6)

CELLS = {
    "steal": lambda: _mixed_pool(
        steal=WorkStealPolicy(tick=2e-7, max_steals=4)),
    "p95-steal": lambda: _mixed_pool(
        dispatch="fastest_finish",
        autoscale=ReactiveScalePolicy(metric="p95", target_p95=3e-6,
                                      window=32, **_BOUNDS),
        steal=WorkStealPolicy(max_steals=2)),
    "steal-storm-retry": lambda: _mixed_pool(
        steal=WorkStealPolicy(tick=2e-7, max_steals=4),
        failures=FailurePlan(count=3, downtime_frac=0.2, seed=1),
        resilience="retry:timeout_us=0.3,budget=2,backoff_us=0.05"),
    "steal-storm-hedge": lambda: _mixed_pool(
        dispatch="least_loaded",
        steal=WorkStealPolicy(tick=2e-7, max_steals=4),
        failures=FailurePlan(count=3, downtime_frac=0.2, seed=2),
        resilience="hedge:delay_us=0.3"),
    "edf": lambda: _smart_pool(
        2, dispatch="least_loaded", flush=EdfFlush({"toy2": 1})),
    "holt": lambda: _smart_pool(
        1, dispatch="least_loaded",
        autoscale=make_scale("holt", ReactiveScalePolicy(**_BOUNDS),
                             tick=5e-7, warmup=2e-6,
                             target_utilization=0.6)),
    "admission": lambda: _smart_pool(
        2, dispatch="shard", admission=_ModelBudget()),
}


def _trace(n: int = GOLDEN_N, seed: int = SEED) -> tuple[Request, ...]:
    """Poisson arrivals at :data:`RATE` over a three-model mix."""
    rng = random.Random(seed)
    arrival, trace = 0.0, []
    for request_id in range(n):
        arrival += rng.expovariate(RATE)
        model = rng.choices(("toy", "toy2", "toy3"), (3, 2, 1))[0]
        trace.append(Request(request_id, model, arrival))
    return tuple(trace)


def _golden_outcome(cell: str) -> dict:
    """The pinned summary of one cell: integer counters and per-replica
    batch counts, plus float aggregates, one of them weighted by
    request id so that swapping two requests' completions shows."""
    result = CELLS[cell]().run(_trace())
    served = [(i, latency) for i, latency in enumerate(result.latencies)
              if latency != float("inf")]
    per_replica = Counter(batch.replica for batch in result.batches)
    return {
        "counters": {
            "served": len(served), "shed": len(result.shed),
            "batches": len(result.batches), "stolen": result.stolen,
            "redispatched": result.redispatched,
            "timeouts": result.timeouts, "retries": result.retries,
            "hedges": result.hedges, "cancels": result.cancels,
            "degraded": result.degraded,
            "scale_events": len(result.scale_events),
            "peak_up": max(up for _, up in result.replica_trace)},
        "replica_batches": [per_replica[i]
                            for i in range(max(per_replica) + 1)],
        "floats": [sum(latency for _, latency in served),
                   sum((i % 101 + 1) * latency for i, latency in served),
                   result.latency_percentile(50),
                   result.latency_percentile(95),
                   max(latency for _, latency in served),
                   sum(result.energy_per_request),
                   result.wasted_energy,
                   sum(batch.start for batch in result.batches)],
    }


def _record_golden() -> dict:
    """Re-record the golden file, one cell per line, and return it.
    Only for a deliberate re-baseline (a change to the toy networks,
    the trace or the modelled semantics): the point of the file is
    that engine refactors leave it untouched."""
    golden = {cell: _golden_outcome(cell) for cell in CELLS}
    GOLDEN_PATH.write_text("{\n" + ",\n".join(
        f"{json.dumps(cell)}: {json.dumps(outcome)}"
        for cell, outcome in golden.items()) + "\n}\n")
    return golden


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_covers_every_cell(golden):
    assert set(golden) == set(CELLS)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_cell_matches_golden(cell, golden):
    got, want = _golden_outcome(cell), golden[cell]
    assert got["counters"] == want["counters"]
    assert got["replica_batches"] == want["replica_batches"]
    assert got["floats"] == pytest.approx(want["floats"], rel=1e-12, abs=0)


def test_cells_exercise_what_they_pin(golden):
    """Each cell really reaches the path the reference refuses, so a
    golden match is not a match of idle code."""
    counters = {cell: golden[cell]["counters"] for cell in golden}
    for cell in ("steal", "p95-steal", "steal-storm-retry",
                 "steal-storm-hedge"):
        assert counters[cell]["stolen"] > 0, cell
    for cell in ("steal-storm-retry", "steal-storm-hedge"):
        assert counters[cell]["redispatched"] > 0, cell
        assert counters[cell]["cancels"] > 0, cell
    assert counters["steal-storm-retry"]["retries"] > 0
    assert counters["steal-storm-hedge"]["hedges"] > 0
    assert counters["p95-steal"]["scale_events"] > 0
    assert counters["holt"]["scale_events"] > 0
    assert counters["admission"]["shed"] > 0
