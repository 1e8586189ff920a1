"""Generated differential tests: every fan-out cell the validators
accept serves exactly what the monolithic engine serves.

Hypothesis draws two kinds of cells:

- **sharded** cells that :func:`~repro.serving.sharding.validate_sharding`
  accepts: a fault-free stock scenario, fixed or timeout batching at
  batch 1-8, 1-4 replicas split over 1..replicas shards, an SLO of 0,
  400 or 2000 us, and either no resilience or deadline retries.  The
  reference is one ``ServingSimulator`` with ``shard`` dispatch.
- **one-region geo** cells over every stock scenario (failure-storm
  included), every dispatch, a SMART, SNN or AQFP region and no, retry,
  hedge or degrade resilience.  The reference is the plain engine on
  the region's pool.

Per-request latencies and energies, the integer counters, SLO
attainment and the latency percentiles at q = 0, 50, 95, 99 and 100
must match exactly.  A fan-out reads its percentiles off the
partitions' sorted latency columns, with or without ``detail``, so
this holds the column path, not the merged detail, to the plain
engine's ``latency_percentile``.  Wasted energy must match exactly for
one partition and to 1e-12 relative across shards, where summing the
shards' floats may round (sharded bursty, fixed batching at 3, 2
replicas over 2 shards, ``retry:timeout_us=300,budget=1``, seed 0, 21
requests reads 0.12632280770097234 against 0.12632280770097237).

Every fan-out ships its prewarmed memo snapshot to the workers, so
these cells also hold the warm path to the answer a fresh memo gives.

A partition folds its engine's completion log into its outcome
directly; fixed single-partition cells hold that fold, bit for bit, to
the per-request fold it replaced, run over the plain engine's
``EngineRun.done`` for the same trace.
"""

from bisect import bisect_right

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.serving import (
    DISPATCH_STRATEGIES,
    GeoRouter,
    LayerMemoCache,
    POLICIES,
    RegionSpec,
    SCENARIOS,
    ServingSimulator,
    ShardedEngine,
    SloPolicy,
    generate_trace,
    get_scenario,
    make_policy,
    validate_sharding,
)

#: Layer totals are identical across draws; one memo per side serves
#: them all.  The fan-out workers still start from fresh memos seeded
#: with the parent's snapshot.
FANOUT_MEMO = LayerMemoCache()
PLAIN_MEMO = LayerMemoCache()

RETRIES = ("retry:timeout_us=300,budget=1",
           "retry:timeout_us=1000,budget=2")

COMMON = {
    "scenario": st.sampled_from(sorted(SCENARIOS)),
    "policy": st.sampled_from(sorted(POLICIES)),
    "batch": st.integers(1, 8),
    "slo_us": st.sampled_from((0.0, 400.0, 2000.0)),
    "n": st.integers(1, 300),
    "seed": st.integers(0, 3),
}

SHARDED_CELLS = st.fixed_dictionaries({
    **COMMON,
    "scenario": st.sampled_from(sorted(
        name for name, scenario in SCENARIOS.items()
        if not scenario.faults)),
    "resilience": st.sampled_from(("",) + RETRIES),
}).flatmap(lambda cell: st.integers(1, 4).flatmap(
    lambda replicas: st.integers(1, replicas).map(
        lambda shards: dict(cell, replicas=replicas, shards=shards))))

GEO_CELLS = st.fixed_dictionaries({
    **COMMON,
    "dispatch": st.sampled_from(DISPATCH_STRATEGIES),
    "accelerator": st.sampled_from(("SMART", "SNN", "AQFP")),
    "replicas": st.integers(1, 3),
    "resilience": st.sampled_from(
        ("", RETRIES[0], "hedge:delay_us=200", "degrade:timeout_us=300")),
})

#: ``assert_counters_match`` is a stateless checker, safe to share
#: across examples.
SETTINGS = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


def _plain(cell, accelerator, dispatch):
    return ServingSimulator(
        accelerator, replicas=cell["replicas"],
        policy=make_policy(cell["policy"], batch_size=cell["batch"]),
        dispatch=dispatch, cache=PLAIN_MEMO,
        slo=(SloPolicy(target=cell["slo_us"] * 1e-6)
             if cell["slo_us"] else None),
        resilience=cell["resilience"] or None,
    ).run_scenario(cell["scenario"], cell["n"], cell["seed"])


def _assert_same_run(fanned, plain):
    """What must match exactly, whatever the partition count."""
    merged = fanned.detail
    assert merged.latencies == plain.latencies
    assert merged.energy_per_request == plain.energy_per_request
    assert fanned.requests == len(plain.requests)
    assert fanned.batches == len(plain.batches)
    assert fanned.slo_attainment == plain.slo_attainment
    for q in (0, 50, 95, 99, 100):
        assert fanned.latency_percentile(q) == plain.latency_percentile(q)


@given(cell=SHARDED_CELLS)
@SETTINGS
def test_sharded_equals_monolithic(cell, assert_counters_match):
    validate_sharding(cell["shards"], replicas=cell["replicas"],
                      resilience=cell["resilience"],
                      scenarios=(cell["scenario"],))
    sharded = ShardedEngine(
        cell["shards"], replicas=cell["replicas"], policy=cell["policy"],
        batch_size=cell["batch"], slo_us=cell["slo_us"],
        resilience=cell["resilience"], detail=True, mode="inline",
        memo_cache=FANOUT_MEMO,
    ).run_scenario(cell["scenario"], cell["n"], cell["seed"])
    plain = _plain(cell, "SMART", "shard")
    _assert_same_run(sharded, plain)
    assert_counters_match(sharded, plain,
                          rel=0.0 if cell["shards"] == 1 else 1e-12)


@given(cell=GEO_CELLS)
@SETTINGS
def test_one_region_geo_equals_plain_engine(cell, assert_counters_match):
    region = RegionSpec("solo", accelerator=cell["accelerator"],
                        replicas=cell["replicas"])
    geo = GeoRouter(
        (region,), policy=cell["policy"], batch_size=cell["batch"],
        dispatch=cell["dispatch"], slo_us=cell["slo_us"],
        resilience=cell["resilience"], detail=True, mode="inline",
        memo_cache=FANOUT_MEMO,
    ).run_scenario(cell["scenario"], cell["n"], cell["seed"])
    plain = _plain(cell, cell["accelerator"], cell["dispatch"])
    _assert_same_run(geo, plain)
    assert_counters_match(geo, plain)


#: The fold cells: bursty traffic at a 400 us SLO, where every
#: resilience policy below fires, served on 2 SMART replicas.
FOLD_N = 1_000
FOLD_SLO_US = 400.0


def _per_request_fold(run, trace, slo_target):
    """A partition's fold as it was before the completion log: energy
    summed left to right over ``run.done``, latencies subtracted by
    request id and sorted, and the first arrival the least one."""
    arrivals = {request.request_id: request.arrival for request in trace}
    energy = 0.0
    for _, joules in run.done.values():
        energy += joules
    column = sorted(done - arrivals[request_id]
                    for request_id, (done, _) in run.done.items())
    return (energy, len(run.done), bisect_right(column, slo_target),
            min(arrivals.values()), max(b.done for b in run.batches),
            column)


@pytest.mark.parametrize("fan_out,dispatch,resilience", [
    ("sharded", "shard", ""),
    ("sharded", "shard", RETRIES[0]),
    ("geo", "round_robin", "hedge:delay_us=200"),
    ("geo", "round_robin", "degrade:timeout_us=300"),
])
def test_partition_fold_equals_the_per_request_fold(fan_out, dispatch,
                                                    resilience):
    options = dict(policy="timeout", batch_size=8, slo_us=FOLD_SLO_US,
                   resilience=resilience, mode="inline",
                   memo_cache=FANOUT_MEMO)
    engine = (ShardedEngine(1, replicas=2, **options)
              if fan_out == "sharded" else
              GeoRouter((RegionSpec("solo", replicas=2),),
                        dispatch=dispatch, **options))
    (part,) = engine.run_scenario("bursty", FOLD_N, seed=1).outcomes
    sim = ServingSimulator(
        "SMART", replicas=2, policy=make_policy("timeout", batch_size=8),
        dispatch=dispatch, cache=PLAIN_MEMO,
        slo=SloPolicy(target=FOLD_SLO_US * 1e-6),
        resilience=resilience or None)
    scenario = get_scenario("bursty")
    trace = generate_trace(scenario,
                           scenario.load * sim.capacity_rps(scenario),
                           FOLD_N, 1)
    run = sim.make_engine(
        {model: sim.network(model) for model in scenario.mix.models()}
    ).run(trace)
    assert bool(resilience) == bool(run.retries or run.hedges
                                    or run.degraded)
    (column,) = part.digest.columns
    assert (part.energy, part.requests, part.slo_hits, part.first_arrival,
            part.last_done, list(column)) \
        == _per_request_fold(run, trace, FOLD_SLO_US * 1e-6)
