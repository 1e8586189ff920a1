"""Stream and shard a million-request serving run across processes.

Walks the PR 7 scale-out pipeline end to end:

1. **streaming** — `stream_trace` yields the exact same seeded trace
   `generate_trace` materialises, bit for bit, with O(1) requests
   resident, and the event engine consumes it lazily;
2. **sharding** — `shard_trace` splits the global trace by each
   model's home replica (the same crc32 pin the `shard` dispatch
   routes with), so the pieces reassemble exactly and replica state
   never couples across workers;
3. **exactness** — a small sharded run with `detail=True` reproduces
   the monolithic engine's per-request latencies bit for bit, and its
   p99 is the monolithic p99;
4. **scale** — one `ShardedEngine` run streams a 1,000,000-request
   trace through worker processes and merge-reduces the outcome
   (exact counters/energy, exact percentiles from each shard's sorted
   latency column, aggregate req/s).

Run:  python examples/serving_scale.py
"""

import os

from repro.eval import render_rows
from repro.serving import (
    ServingSimulator,
    ShardedEngine,
    generate_trace,
    get_scenario,
    make_policy,
    shard_trace,
    stream_trace,
)


def main() -> None:
    scenario = get_scenario("steady")
    replicas, seed = 2, 7

    # -- 1. streaming is bit-identical, O(1) resident -----------------
    calibrator = ServingSimulator("SMART", replicas=replicas,
                                  policy=make_policy("timeout", 8),
                                  dispatch="shard")
    rate = scenario.load * calibrator.capacity_rps(scenario)
    materialised = generate_trace(scenario, rate, 5_000, seed=seed)
    streamed = tuple(stream_trace(scenario, rate, 5_000, seed=seed))
    assert streamed == materialised
    print("=== streaming ===")
    print(f"stream_trace == generate_trace on "
          f"{len(materialised)} requests: bit-identical")

    # -- 2. the shard split reassembles exactly -----------------------
    shards = 2
    pieces = [tuple(shard_trace(scenario, rate, 5_000, seed,
                                shards=shards, shard=k,
                                replicas=replicas))
              for k in range(shards)]
    ids = sorted(r.request_id for piece in pieces for r in piece)
    assert ids == list(range(5_000))  # nothing lost or duplicated
    print("\n=== sharding ===")
    for k, piece in enumerate(pieces):
        models = sorted({r.model for r in piece})
        print(f"shard {k}: {len(piece)} requests, models {models}")

    # -- 3. sharded == monolithic, bit for bit ------------------------
    mono = calibrator.run_scenario(scenario, 5_000, seed=seed)
    sharded = ShardedEngine(shards, replicas=replicas,
                            policy="timeout", detail=True,
                            mode="inline").run_scenario(
                                scenario, 5_000, seed=seed)
    merged = sharded.detail
    assert merged.latencies == mono.latencies
    assert merged.energy_per_request == mono.energy_per_request
    assert sharded.latency_percentile(99) == mono.latency_percentile(99)
    print("\n=== exactness ===")
    print(f"sharded run reproduces the monolithic engine's "
          f"{len(mono.latencies)} per-request latencies and energies "
          f"bit-exactly")
    print(f"p99: sharded {sharded.latency_percentile(99) * 1e6:.3f} us, "
          f"monolithic {mono.latency_percentile(99) * 1e6:.3f} us")

    # -- 4. one million requests across worker processes --------------
    n = 1_000_000
    shards = max(2, min(8, os.cpu_count() or 2))
    engine = ShardedEngine(shards, replicas=shards, policy="timeout")
    result = engine.run_scenario(scenario, n, seed=seed)
    print(f"\n=== scale: {n:,} requests across {shards} worker "
          f"shard(s) ===")
    print(render_rows([result.to_row()]))
    print(f"\nwall time          : {result.wall_s:.1f}s")
    print(f"aggregate rate     : {result.simulated_rps:,.0f} "
          f"simulated req/s of wall time")
    print(f"slowest shard      : "
          f"{max(o.wall_s for o in result.outcomes):.1f}s "
          f"({max(o.requests for o in result.outcomes):,} requests)")


if __name__ == "__main__":
    main()
