"""Serve simulated inference traffic on a SMART cluster.

Walks the serving layer end to end: a 10k-request bursty trace over
the model zoo, dynamic batching, a two-replica cluster, and the
layer-result memo cache that makes the whole thing cost only
O(distinct layer x batch pairs) of actual simulation — then re-serves
the same trace uncached to show the difference, and finishes with the
discrete-event control plane: a diurnal wave under SLO-aware
autoscaling — reactive and predictive (Holt forecast) side by side —
a failure storm with batch re-dispatch, and the pluggable scheduling
policies (EDF flush ordering with priority classes, work stealing).

Run:  python examples/serving.py
"""

import time

from repro.eval import render_rows
from repro.serving import (
    EdfFlush,
    FailurePlan,
    ForecastScalePolicy,
    LayerMemoCache,
    ReactiveScalePolicy,
    ServingSimulator,
    SloPolicy,
    WorkStealPolicy,
    get_scenario,
    generate_trace,
    make_policy,
)


def main() -> None:
    scenario = get_scenario("bursty")
    policy = make_policy("timeout", batch_size=8)

    cluster = ServingSimulator("SMART", replicas=2, policy=policy,
                               dispatch="least_loaded")
    rate = scenario.load * cluster.capacity_rps(scenario)
    trace = generate_trace(scenario, rate, n=10_000, seed=7)

    started = time.perf_counter()
    result = cluster.run(trace, scenario=scenario.name, rate=rate)
    cached_wall = time.perf_counter() - started

    print("=== 10k bursty requests on SMART x2 (timeout batching) ===")
    print(render_rows([result.to_row()]))
    print(f"\np50/p95/p99 latency: "
          f"{result.latency_percentile(50) * 1e6:.0f} / "
          f"{result.latency_percentile(95) * 1e6:.0f} / "
          f"{result.latency_percentile(99) * 1e6:.0f} us")
    print(f"batches dispatched : {len(result.batches)} "
          f"(mean size {result.mean_batch:.2f})")
    print(f"layer simulations  : {result.cache.misses} evaluated, "
          f"{result.cache.hits} from the memo "
          f"({result.cache.hit_rate:.1%} hit rate)")
    print(f"wall time          : {cached_wall:.2f}s")

    # The uncached reference path: identical results, none of the reuse.
    uncached = ServingSimulator("SMART", replicas=2, policy=policy,
                                dispatch="least_loaded",
                                cache=LayerMemoCache(enabled=False))
    started = time.perf_counter()
    reference = uncached.run(trace, scenario=scenario.name, rate=rate)
    uncached_wall = time.perf_counter() - started

    assert reference.latencies == result.latencies
    print(f"\nuncached reference : {reference.cache.misses} layer "
          f"simulations, {uncached_wall:.2f}s wall "
          f"({uncached_wall / cached_wall:.0f}x slower, "
          f"identical per-request latencies)")

    # Policy face-off on the same traffic.
    rows = []
    for policy_name in ("fixed", "timeout"):
        simulator = ServingSimulator(
            "SMART", replicas=2,
            policy=make_policy(policy_name, batch_size=8),
            dispatch="least_loaded", cache=cluster.cache,
        )
        rows.append(simulator.run(trace, scenario=scenario.name,
                                  rate=rate).to_row())
    print("\n=== fixed vs timeout batching, same trace ===")
    print(render_rows(rows))

    # The control plane: a diurnal wave served by an autoscaler that
    # starts from one replica and follows the crest.
    wave = get_scenario("diurnal")
    scaled = ServingSimulator(
        "SMART", replicas=1, policy=policy, dispatch="least_loaded",
        cache=cluster.cache,
        slo=SloPolicy(target=2000e-6),
        autoscale=ReactiveScalePolicy(min_replicas=1, max_replicas=6),
    )
    outcome = scaled.run_scenario(wave, 5_000, seed=7)
    ups = sum(1 for _, a in outcome.scale_events if a == "up")
    downs = sum(1 for _, a in outcome.scale_events if a == "down")
    print("\n=== diurnal wave, autoscaling 1..6 replicas ===")
    print(render_rows([outcome.to_row()]))
    print(f"pool swing          : {outcome.low_replicas} -> "
          f"{outcome.peak_replicas} replicas "
          f"({ups} scale-ups, {downs} scale-downs)")
    print(f"SLO attainment      : {outcome.slo_attainment:.1%} "
          f"within {outcome.slo_target * 1e6:.0f} us")

    # Predictive autoscaling: a Holt forecast of the arrival-rate
    # history sizes the pool ahead of the crest instead of reacting
    # to it (the simulator calibrates per-replica capacity from the
    # trace's own model mix).
    predictive = ServingSimulator(
        "SMART", replicas=1, policy=policy, dispatch="least_loaded",
        cache=cluster.cache, slo=SloPolicy(target=2000e-6),
        autoscale=ForecastScalePolicy(min_replicas=1, max_replicas=6,
                                      mode="holt",
                                      target_utilization=0.6),
    )
    forecasted = predictive.run_scenario(wave, 5_000, seed=7)
    print("\n=== the same wave under predictive (Holt) scaling ===")
    print(f"p95 latency         : "
          f"{outcome.latency_percentile(95) * 1e6:.0f} us reactive "
          f"-> {forecasted.latency_percentile(95) * 1e6:.0f} us "
          f"predictive")
    print(f"SLO attainment      : {outcome.slo_attainment:.1%} -> "
          f"{forecasted.slo_attainment:.1%}")

    # Scheduling policies: EDF flush ordering boosts one model's
    # priority class, and work stealing rebalances a round-robin
    # pool whose replicas run at different speeds.
    boosted = ServingSimulator(
        "SMART", replicas=2, policy=policy, dispatch="least_loaded",
        cache=cluster.cache, flush=EdfFlush({"ResNet50": 1}),
    )
    edf = boosted.run(trace, scenario=scenario.name, rate=rate)
    stealing = ServingSimulator(
        accelerators=["SMART", "TPU"], policy=policy,
        dispatch="round_robin", cache=cluster.cache,
        steal=WorkStealPolicy(max_steals=4),
    )
    balanced = stealing.run(trace, scenario=scenario.name, rate=rate)
    unbalanced = ServingSimulator(
        accelerators=["SMART", "TPU"], policy=policy,
        dispatch="round_robin", cache=cluster.cache,
    ).run(trace, scenario=scenario.name, rate=rate)
    print("\n=== scheduling policies on the bursty trace ===")
    print(f"EDF + priority      : ResNet50 boosted to class 1 "
          f"(p99 {edf.latency_percentile(99) * 1e6:.0f} us)")
    print(f"work stealing       : {balanced.stolen} batches stolen; "
          f"p95 {unbalanced.latency_percentile(95) * 1e6:.0f} -> "
          f"{balanced.latency_percentile(95) * 1e6:.0f} us on the "
          f"mixed SMART/TPU pool")

    # A failure storm: replicas drop mid-trace, their in-flight
    # batches re-dispatch to survivors, and everyone still finishes.
    stormy = ServingSimulator(
        "SMART", replicas=3, policy=policy, dispatch="least_loaded",
        cache=cluster.cache,
        failures=FailurePlan(count=3, downtime_frac=0.15, seed=7),
    )
    storm = stormy.run_scenario(get_scenario("steady"), 5_000, seed=7)
    print("\n=== failure storm on 3 replicas ===")
    print(render_rows([storm.to_row()]))
    print(f"outage dip          : {storm.replicas} -> "
          f"{storm.low_replicas} replicas; "
          f"{storm.redispatched} batch(es) re-dispatched, "
          f"{storm.wasted_energy * 1e6:.0f} uJ wasted")


if __name__ == "__main__":
    main()
