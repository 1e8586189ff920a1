"""Warm-fleet scale-out: memo prewarm, broadcast, and exactness.

The warm contract extends the sharded/geo one: shipping a prewarmed
:class:`MemoSnapshot` to shard and region workers changes *nothing*
about the answer — per-request latencies AND energies stay
bit-identical to a cold run — it only moves the layer simulations
from every worker to the parent, once.  These tests pin the snapshot
round-trip, the fast-forward arrival span, the zero-miss guarantee in
warm workers, and the chaos cell (a killed warm worker still merges
bit-exactly after retry).
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
    def test_warm_is_bit_identical_to_cold(self, name):
        cold = _sharded(name, 400, prewarm=False)
        warm = _sharded(name, 400)
        assert warm.detail.latencies == cold.detail.latencies
        assert warm.detail.energy_per_request == \
            cold.detail.energy_per_request
        assert warm.requests == cold.requests
        assert warm.energy == cold.energy

    def test_warm_workers_never_miss(self):
        warm = _sharded("steady", 400, mode="process")
        assert warm.cache.seeded > 0
        assert warm.cache.seed_hits > 0
        assert warm.cache.misses == 0
        cold = _sharded("steady", 400, mode="process", prewarm=False)
        assert cold.cache.seeded == 0
        assert cold.cache.misses > 0
        assert warm.detail.latencies == cold.detail.latencies

    def test_external_snapshot_accepted(self):
        seeded = LayerMemoCache()
        _simulator().prewarm("steady").install(seeded)
        warm = _sharded("steady", 400, memo_cache=seeded)
        cold = _sharded("steady", 400, prewarm=False)
        assert warm.detail.latencies == cold.detail.latencies
        assert warm.detail.energy_per_request == \
            cold.detail.energy_per_request

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


class TestWarmGeo:
    SOLO = (RegionSpec("solo", accelerator="SMART", replicas=2),)

    def test_solo_region_warm_matches_cold_and_monolithic(self):
        warm = GeoRouter(self.SOLO, policy="timeout", batch_size=8,
                         detail=True, mode="inline") \
            .run_scenario("steady", 400, seed=SEED)
        cold = GeoRouter(self.SOLO, policy="timeout", batch_size=8,
                         detail=True, mode="inline", prewarm=False) \
            .run_scenario("steady", 400, seed=SEED)
        mono = ServingSimulator(
            "SMART", replicas=2,
            policy=make_policy("timeout", batch_size=8),
            dispatch="round_robin",
        ).run_scenario("steady", 400, seed=SEED)
        assert warm.detail.latencies == cold.detail.latencies == \
            mono.latencies
        assert warm.detail.energy_per_request == \
            cold.detail.energy_per_request == mono.energy_per_request

    def test_stormy_multi_region_warm_matches_cold(self):
        def run(**kwargs):
            return GeoRouter(3, topology="ring", storms=2,
                             mode="process", **kwargs) \
                .run_scenario("diurnal", 300, seed=SEED)
        warm = run()
        cold = run(prewarm=False)
        assert warm.requests == cold.requests
        assert warm.energy == cold.energy
        assert warm.net_delay_s == cold.net_delay_s
        for q in (50, 95, 99):
            assert warm.latency_percentile(q) == \
                cold.latency_percentile(q)
        assert warm.cache.seeded > 0
        assert warm.cache.misses == 0
        assert cold.cache.misses > 0

    def test_last_region_snapshot_holds_every_region(self, monkeypatch):
        """The regions warm one shared memo, so the snapshot the last
        region's prewarm exports, the one shipped, holds all their
        cells."""
        exported = []
        from_cache = MemoSnapshot.from_cache

        def spy(cache):
            exported.append(from_cache(cache))
            return exported[-1]

        monkeypatch.setattr(MemoSnapshot, "from_cache", staticmethod(spy))
        router = GeoRouter(4, topology="ring", geo="follow_sun",
                           mode="inline")
        result = router.run_scenario("diurnal", 300, seed=SEED)
        assert len(exported) == 4
        # SMART, SNN and AQFP over the six-model mix at batches 1..8
        assert len(exported[-1]) == 3 * 6 * 8
        assert result.cache.misses == 0


class TestWarmChaos:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="worker-kill chaos needs fork inheritance")
    def test_killed_warm_worker_merges_bit_exactly(self, monkeypatch,
                                                   tmp_path):
        """A warm worker dying mid-run (``os._exit``) must not cost
        exactness: the retried shard re-installs the snapshot and the
        merged result still matches the cold monolithic answer."""
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
