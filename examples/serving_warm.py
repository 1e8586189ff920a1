"""Warm-fleet scale-out: prewarm, broadcast, and reuse the pool.

Walks the PR 10 warm path end to end:

1. **prewarm** — `ServingSimulator.prewarm` fills every memo totals
   cell a run can ask for and returns a picklable `MemoSnapshot`;
2. **broadcast** — every `ShardedEngine` run ships that snapshot to
   its worker pool once via the pool initializer; warm workers serve
   the whole trace with zero layer simulations (`misses == 0`);
3. **exactness** — the sharded run is bit-identical (latencies AND
   energies) to one plain engine: warmth moves work, never answers;
4. **pool reuse** — consecutive runs are served by the same resident
   worker pool instead of forking a fresh one per call;
5. **warm geo** — the same snapshot machinery warms every region of a
   stormy multi-region `GeoRouter` run.

Run:  python examples/serving_warm.py
"""

from repro.serving import (
    GeoRouter,
    MemoSnapshot,
    LayerMemoCache,
    ServingSimulator,
    ShardedEngine,
    make_policy,
)

SEED = 7
N = 20_000


def main() -> None:
    # -- 1. prewarm: the parent fills the memo once -------------------
    calibrator = ServingSimulator("SMART", replicas=2,
                                  policy=make_policy("timeout", 8),
                                  dispatch="shard")
    snapshot = calibrator.prewarm("steady")
    print("=== prewarm ===")
    print(f"snapshot: {len(snapshot)} totals cells "
          f"(latency/energy/deploy x model x batch size)")
    fresh = LayerMemoCache()
    snapshot.install(fresh)
    assert MemoSnapshot.from_cache(fresh).rows == snapshot.rows
    print("round-trip through a fresh cache: exact")

    # -- 2 + 3. warm workers never simulate, and match one engine -----
    def run():
        engine = ShardedEngine(2, replicas=2, policy="timeout",
                               batch_size=8, detail=True,
                               mode="process")
        return engine.run_scenario("steady", N, seed=SEED)

    warm = run()
    plain = calibrator.run_scenario("steady", N, seed=SEED)
    assert warm.detail.latencies == plain.latencies
    assert warm.detail.energy_per_request == plain.energy_per_request
    assert warm.cache.misses == 0
    print("\n=== warm sharded run ===")
    print(f"warm workers simulated {warm.cache.misses} layer cells")
    print(f"warm fleet: {warm.cache.seeded} cells shipped, "
          f"{warm.cache.seed_hits} warm hits")
    print(f"{N:,} per-request latencies and energies: bit-identical "
          f"to one plain engine")
    print(f"sharded wall {warm.wall_s:.2f}s")

    # -- 4. the pool persists across runs -----------------------------
    from repro.runtime import executor
    pools_before = dict(executor._POOLS)
    again = run()
    assert again.requests == warm.requests
    reused = any(executor._POOLS.get(k) is v
                 for k, v in pools_before.items())
    print("\n=== pool reuse ===")
    print(f"second warm run reused a resident worker pool: {reused}")

    # -- 5. warm geo: every region's workers start hot ----------------
    warm_geo = GeoRouter(3, topology="ring", storms=2, mode="process") \
        .run_scenario("diurnal", N, seed=SEED)
    assert warm_geo.requests == N
    assert warm_geo.cache.misses == 0
    print("\n=== warm geo (3 regions, 2 storms) ===")
    print(f"warm fleet: {warm_geo.cache.seeded} cells shipped, "
          f"{warm_geo.cache.seed_hits} warm hits, "
          f"{warm_geo.cache.misses} layer simulations in region workers")


if __name__ == "__main__":
    main()
