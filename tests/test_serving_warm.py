"""Warm-fleet scale-out: memo prewarm, broadcast, and exactness.

Every fan-out ships a prewarmed :class:`MemoSnapshot` to its shard and
region workers.  That changes *nothing* about the answer — per-request
latencies AND energies stay bit-identical to the monolithic engine and
to workers serving from a fresh memo — it only moves the layer
simulations from every worker to the parent, once.  These tests pin
the snapshot round-trip, the fast-forward arrival span, the zero-miss
guarantee in warm workers, and the chaos cell (a killed warm worker
still merges bit-exactly after retry).
"""

import multiprocessing
import os
import pickle

import pytest

from repro.__main__ import main
from repro.errors import ConfigError
from repro.runtime import executor as executor_module
from repro.serving import sharding as sharding_module
from repro.serving import (
    ARRIVAL_SHAPES,
    GeoRouter,
    LayerMemoCache,
    MemoSnapshot,
    RegionSpec,
    ServingSimulator,
    ShardedEngine,
    burn_draws,
    generate_trace,
    get_scenario,
    make_policy,
    prewarm_cache,
    shard_key,
    trace_span,
)

SEED = 11


def _simulator(**kwargs):
    return ServingSimulator("SMART", replicas=2,
                            policy=make_policy("timeout", batch_size=8),
                            dispatch="shard", **kwargs)


def _sharded(scenario, n, *, shards=2, mode="inline", **kwargs):
    engine = ShardedEngine(shards, replicas=2, policy="timeout",
                           batch_size=8, detail=True, mode=mode,
                           **kwargs)
    return engine.run_scenario(scenario, n, seed=SEED)


class TestMemoSnapshot:
    def test_roundtrip_restores_every_cell(self):
        sim = _simulator()
        snapshot = sim.prewarm("steady")
        assert len(snapshot) > 0
        fresh = LayerMemoCache()
        snapshot.install(fresh)
        assert fresh.stats.seeded == len(snapshot)
        assert MemoSnapshot.from_cache(fresh).rows == snapshot.rows

    def test_snapshot_is_picklable(self):
        snapshot = _simulator().prewarm("steady")
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone == snapshot

    def test_prewarm_covers_the_run(self):
        # a prewarmed simulator serves the whole run from the memo:
        # zero layer simulations at serve time
        sim = _simulator()
        sim.prewarm("steady")
        result = sim.run_scenario("steady", 300, seed=SEED)
        assert result.cache.misses == 0
        assert result.cache.hits > 0

    def test_prewarm_rejects_bad_batch_ceiling(self):
        sim = _simulator()
        network = sim.network("ResNet50")
        with pytest.raises(ConfigError):
            prewarm_cache(LayerMemoCache(), sim.pool[0], [network], 0)


class TestFastForward:
    @pytest.mark.parametrize("shape", sorted(ARRIVAL_SHAPES))
    def test_burn_matches_a_real_pass(self, shape):
        import random
        process = ARRIVAL_SHAPES[shape](20_000.0)
        full, burned = random.Random(7), random.Random(7)
        for _ in process.times(250, full):
            pass
        burn_draws(process, 250, burned)
        assert full.getstate() == burned.getstate()

    @pytest.mark.parametrize("name", ["steady", "bursty", "diurnal"])
    def test_trace_span_matches_the_real_trace(self, name):
        scenario = get_scenario(name)
        trace = generate_trace(scenario, 20_000.0, 300, seed=SEED)
        first, last = trace_span(scenario, 20_000.0, 300, seed=SEED)
        assert first == trace[0].arrival
        assert last == trace[-1].arrival


class TestWarmSharded:
    @pytest.mark.parametrize("name", ["steady", "hot-model", "bursty"])
    def test_warm_is_bit_identical_to_monolithic(self, name):
        mono = _simulator().run_scenario(name, 400, seed=SEED)
        warm = _sharded(name, 400)
        assert warm.detail.latencies == mono.latencies
        assert warm.detail.energy_per_request == mono.energy_per_request
        assert warm.requests == len(mono.requests)
        assert warm.energy == pytest.approx(sum(mono.energy_per_request),
                                            rel=1e-12, abs=0)

    def test_warm_workers_never_miss(self):
        warm = _sharded("steady", 400, mode="process")
        assert warm.cache.seeded > 0
        assert warm.cache.seed_hits > 0
        assert warm.cache.misses == 0
        mono = _simulator().run_scenario("steady", 400, seed=SEED)
        assert mono.cache.misses > 0
        assert warm.detail.latencies == mono.latencies

    def test_external_snapshot_accepted(self):
        seeded = LayerMemoCache()
        _simulator().prewarm("steady").install(seeded)
        warm = _sharded("steady", 400, memo_cache=seeded)
        mono = _simulator().run_scenario("steady", 400, seed=SEED)
        assert warm.detail.latencies == mono.latencies
        assert warm.detail.energy_per_request == mono.energy_per_request

    def test_shared_memo_cache_carries_across_engines(self):
        shared = LayerMemoCache()
        _sharded("steady", 300, memo_cache=shared)
        misses_after_first = shared.stats.misses
        _sharded("steady", 300, memo_cache=shared)
        # the second engine's calibration + prewarm ride the shared
        # cache: no new layer simulations in the parent
        assert shared.stats.misses == misses_after_first

    def test_row_reports_warm_counters(self):
        engine = ShardedEngine(2, replicas=2, policy="timeout",
                               batch_size=8, mode="inline")
        result = engine.run_scenario("steady", 300, seed=SEED)
        row = result.to_row()
        assert row["memo_seeded"] > 0
        assert row["warm_hits"] > 0

    def test_warm_hits_count_only_the_cells_a_run_used(self):
        """A partition promotes a shipped cell the first time its run
        looks it up, so its warm hits are the distinct (model, size)
        cells among its own batches, not every cell it was shipped."""
        result = ShardedEngine(2, replicas=2, policy="timeout",
                               batch_size=8, detail=True, mode="inline") \
            .run_scenario("steady", 20_000, seed=1)
        used: list[set] = [set() for _ in result.outcomes]
        for batch in result.detail.batches:
            used[shard_key(batch.model, 2, 2)].add((batch.model,
                                                    batch.size))
        assert [o.cache.seed_hits for o in result.outcomes] \
            == [len(cells) for cells in used]
        assert result.cache.seed_hits < result.cache.seeded


class TestWarmGeo:
    SOLO = (RegionSpec("solo", accelerator="SMART", replicas=2),)

    def test_solo_region_warm_matches_monolithic(self):
        warm = GeoRouter(self.SOLO, policy="timeout", batch_size=8,
                         detail=True, mode="inline") \
            .run_scenario("steady", 400, seed=SEED)
        mono = ServingSimulator(
            "SMART", replicas=2,
            policy=make_policy("timeout", batch_size=8),
            dispatch="round_robin",
        ).run_scenario("steady", 400, seed=SEED)
        assert warm.detail.latencies == mono.latencies
        assert warm.detail.energy_per_request == mono.energy_per_request

    def test_stormy_multi_region_matches_fresh_memo_workers(
            self, monkeypatch):
        """Process workers seeded through the pool payload serve the
        same run as inline workers whose snapshot install is dropped,
        which start from a fresh memo and simulate every layer."""
        def run(mode):
            return GeoRouter(3, topology="ring", storms=2, detail=True,
                             mode=mode) \
                .run_scenario("diurnal", 300, seed=SEED)
        warm = run("process")
        monkeypatch.setattr(MemoSnapshot, "install",
                            lambda self, cache: 0)
        fresh = run("inline")
        assert warm.detail.latencies == fresh.detail.latencies
        assert warm.detail.energy_per_request == \
            fresh.detail.energy_per_request
        assert warm.net_delay_s == fresh.net_delay_s
        assert warm.cache.seeded > 0
        assert warm.cache.misses == 0
        assert fresh.cache.seeded == 0
        assert fresh.cache.misses > 0

    def test_one_snapshot_export_holds_every_region(self, monkeypatch):
        """The parent warms every region backend through one shared
        memo and exports it once per call; that one snapshot, the one
        shipped, holds all their cells."""
        exported = []
        from_cache = MemoSnapshot.from_cache

        def spy(cache):
            exported.append(from_cache(cache))
            return exported[-1]

        monkeypatch.setattr(MemoSnapshot, "from_cache", staticmethod(spy))
        router = GeoRouter(4, topology="ring", geo="follow_sun",
                           mode="inline")
        result = router.run_scenario("diurnal", 300, seed=SEED)
        assert len(exported) == 1
        # SMART, SNN and AQFP over the six-model mix at batches 1..8
        assert len(exported[0]) == 3 * 6 * 8
        assert result.cache.misses == 0
        router.run_scenario("diurnal", 300, seed=SEED)
        assert len(exported) == 2


class TestWarmChaos:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="worker-kill chaos needs fork inheritance")
    def test_killed_warm_worker_merges_bit_exactly(self, monkeypatch,
                                                   tmp_path):
        """A warm worker dying mid-run (``os._exit``) must not cost
        exactness: the retried shard re-installs the snapshot and the
        merged result still matches the monolithic answer."""
        real = sharding_module._serve_shard
        sentinel = tmp_path / "killed-once"

        def killer(spec):
            if spec["shard"] == 1 and not sentinel.exists():
                sentinel.write_text("x")
                os._exit(13)
            return real(spec)

        monkeypatch.setattr(sharding_module, "_serve_shard", killer)
        monkeypatch.setattr(sharding_module, "_RETRY_BACKOFF_S", 0.001)
        # drain pools forked before the monkeypatch so the killer is
        # actually inherited by the warm pool's workers
        executor_module.shutdown_pools()
        result = _sharded("steady", 400, mode="process")
        assert sentinel.exists()
        assert result.shard_retries >= 1
        assert result.cache.seeded > 0
        assert result.cache.misses == 0
        clean = _simulator().run_scenario("steady", 400, seed=SEED)
        assert result.detail.latencies == clean.latencies
        assert result.detail.energy_per_request == \
            clean.energy_per_request


class TestWarmCli:
    def test_sharded_persist_memo_accepted(self, capsys, tmp_path,
                                           monkeypatch):
        from repro.runtime.cache import CACHE_DIR_ENV
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        assert main(["serve-sim", "steady", "--shards", "2",
                     "--replicas", "2", "--requests", "200",
                     "--policy", "timeout", "--persist-memo"]) == 0
        out = capsys.readouterr().out
        assert "warm fleet:" in out
        assert "persisted memo: 0 totals loaded" in out

    def test_geo_persist_memo_accepted(self, capsys, tmp_path,
                                       monkeypatch):
        from repro.runtime.cache import CACHE_DIR_ENV
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        args = ["serve-sim", "steady", "--geo", "1", "--requests",
                "200", "--policy", "timeout", "--persist-memo"]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "warm fleet:" in cold
        assert "persisted memo: 0 totals loaded" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "0 totals loaded" not in warm
