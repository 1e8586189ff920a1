"""Survive a failure storm: retries, hedging and graceful degradation.

Walks the PR 9 resilience tier end to end:

1. **zero drift** — `resilience="none"` reproduces the plain engine's
   per-request latencies and energies bit for bit: the seam is free
   when unused;
2. **the failure storm** — the same fault-carrying trace served under
   `none`, `retry`, `hedge` and `degrade`, trading SLO attainment
   against duplicate/cancelled work (the README's resilience table);
3. **why hedging wins here** — the storm's SLO misses are
   fault-redispatch victims landing *just* over the deadline; a late
   hedge (delay just under the SLO) duplicates only those onto the
   second-best replica, where a singleton completes in microseconds;
4. **fault-tolerant scale-out** — a sharded run with `retry` armed
   still merges bit-exactly, counters included, and a crashed worker
   shard is re-run and checkpointed rather than killing the run.

Run:  python examples/serving_resilience.py
"""

from repro.eval import render_rows
from repro.serving import (
    FailurePlan,
    ServingSimulator,
    ShardedEngine,
    SloPolicy,
    generate_trace,
    get_scenario,
    make_policy,
)

SLO_US = 3000.0


def storm(resilience, *, n=800, seed=7):
    """The failure-storm cell: 6 replicas, shard dispatch, 3 ms SLO."""
    scenario = get_scenario("failure-storm")
    sim = ServingSimulator("SMART", replicas=6,
                           policy=make_policy("timeout", 8),
                           dispatch="shard",
                           slo=SloPolicy(target=SLO_US * 1e-6),
                           resilience=resilience)
    rate = scenario.load * sim.capacity_rps(scenario)
    trace = generate_trace(scenario, rate, n, seed)
    failures = FailurePlan(count=scenario.faults, seed=seed)
    return sim.run(trace, scenario=scenario.name, rate=rate,
                   failures=failures)


def main() -> None:
    # -- 1. the seam is free when unused ------------------------------
    base = storm(None)
    none = storm("none")
    assert none.latencies == base.latencies
    assert none.energy_per_request == base.energy_per_request
    print("=== zero drift ===")
    print(f"resilience='none' reproduces all {len(base.latencies)} "
          f"per-request latencies and energies bit-exactly")

    # -- 2. the storm under every policy ------------------------------
    print(f"\n=== failure storm: 6 replicas, shard dispatch, "
          f"slo {SLO_US:.0f} us ===")
    # total joules = served work + waste (aborted partial batches,
    # cancelled duplicates, losing duplicate completions)
    energy_base = sum(base.energy_per_request) + base.wasted_energy
    rows = []
    for spec in (None, "retry:timeout_us=2700,budget=1",
                 "hedge:delay_us=2700", "degrade:timeout_us=2700"):
        result = storm(spec)
        energy = sum(e for e in result.energy_per_request
                     if e != float("inf")) + result.wasted_energy
        rows.append({
            "resilience": spec or "none",
            "p99_us": round(result.latency_percentile(99) * 1e6, 1),
            "slo_attain": round(result.slo_attainment, 4),
            "timeouts": result.timeouts,
            "dupes": result.retries + result.hedges,
            "cancels": result.cancels,
            "degraded": result.degraded,
            "energy_x": round(energy / energy_base, 3),
        })
    print(render_rows(rows))

    # -- 3. the rescue, request by request ----------------------------
    hedge = storm("hedge:delay_us=2700")
    slo = SLO_US * 1e-6
    rescued = sum(1 for a, b in zip(base.latencies, hedge.latencies)
                  if a > slo >= b)
    broken = sum(1 for a, b in zip(base.latencies, hedge.latencies)
                 if a <= slo < b)
    print("\n=== why the late hedge wins ===")
    print(f"misses under none: "
          f"{sum(1 for v in base.latencies if v > slo)} "
          f"(fault-redispatch victims just over the deadline)")
    print(f"rescued by hedge: {rescued}, newly broken: {broken}, "
          f"hedges launched: {hedge.hedges}, "
          f"losers cancelled: {hedge.cancels}")

    # -- 4. fault-tolerant scale-out ----------------------------------
    retry_spec = "retry:timeout_us=400,budget=2"
    mono = ServingSimulator("SMART", replicas=4,
                            policy=make_policy("timeout", 8),
                            dispatch="shard",
                            slo=SloPolicy(target=900e-6),
                            resilience=retry_spec) \
        .run_scenario("steady", 2_000, seed=7)
    shard = ShardedEngine(2, replicas=4, policy="timeout", batch_size=8,
                          slo_us=900, detail=True,
                          resilience=retry_spec) \
        .run_scenario("steady", 2_000, seed=7)
    assert shard.detail.latencies == mono.latencies
    assert shard.detail.energy_per_request == mono.energy_per_request
    assert shard.detail.retries == shard.retries == mono.retries
    print("\n=== sharded + retry ===")
    print(f"2-shard run with {shard.retries} deadline retries merges "
          f"bit-exactly with the monolithic engine, counters included; "
          f"crashed worker shards re-run with capped backoff (2 "
          f"retries, shared by every fan-out) and checkpoint=PATH "
          f"resumes interrupted runs")


if __name__ == "__main__":
    main()
