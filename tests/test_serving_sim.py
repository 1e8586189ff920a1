"""Tests for the serving simulator, cluster dispatch and memo cache."""

import pytest

from repro.core import make_smart
from repro.errors import ConfigError
from repro.serving import (
    FixedSizeBatching,
    LayerMemoCache,
    ServingSimulator,
    SloPolicy,
    TimeoutBatching,
    generate_trace,
    get_scenario,
    make_policy,
)
from repro.serving.workload import Request
from repro.systolic.layers import ConvLayer, Network

TOY = Network("toy", (
    ConvLayer("c1", 16, 16, 8, 16, 3, 3, padding=1),
    ConvLayer("c2", 16, 16, 16, 16, 3, 3, padding=1),
    ConvLayer("fc", 1, 1, 4096, 10, 1, 1, kind="fc"),
))


def toy_simulator(**kwargs):
    kwargs.setdefault("policy", FixedSizeBatching(batch_size=4))
    return ServingSimulator(make_smart(), networks={"toy": TOY}, **kwargs)


def toy_trace(n, gap=1e-5, model="toy"):
    return [Request(i, model, (i + 1) * gap) for i in range(n)]


class TestEventLoop:
    def test_every_request_served_once(self):
        result = toy_simulator().run(toy_trace(42))
        assert len(result.latencies) == 42
        assert all(lat > 0 for lat in result.latencies)
        assert sum(b.size for b in result.batches) == 42

    def test_fixed_policy_batch_sizes(self):
        result = toy_simulator().run(toy_trace(42))
        sizes = [b.size for b in result.batches]
        assert sizes[:-1] == [4] * 10  # full batches
        assert sizes[-1] == 2          # the leftover drains at the end

    def test_timeout_policy_flushes_at_deadline(self):
        policy = TimeoutBatching(max_batch=8, max_wait=1e-4)
        sim = toy_simulator(policy=policy)
        # 3 requests, then a long silence before a 4th triggers flush
        trace = [Request(0, "toy", 0.0), Request(1, "toy", 1e-5),
                 Request(2, "toy", 2e-5), Request(3, "toy", 1.0)]
        result = sim.run(trace)
        first = result.batches[0]
        assert first.size == 3
        assert first.flush == pytest.approx(1e-4)

    def test_timeout_policy_flushes_at_max_batch(self):
        policy = TimeoutBatching(max_batch=2, max_wait=10.0)
        result = toy_simulator(policy=policy).run(toy_trace(6))
        assert [b.size for b in result.batches] == [2, 2, 2]

    def test_batches_queue_behind_busy_replica(self):
        """One replica: consecutive batches serialise."""
        result = toy_simulator(replicas=1).run(toy_trace(12, gap=1e-9))
        for earlier, later in zip(result.batches, result.batches[1:]):
            assert later.start >= earlier.done

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigError):
            toy_simulator().run([])

    def test_latency_includes_queueing(self):
        """The first request of a fixed batch waits for the fourth."""
        result = toy_simulator().run(toy_trace(4, gap=1e-3))
        batch = result.batches[0]
        assert batch.flush == pytest.approx(4e-3)
        first_latency = result.latencies[0]
        assert first_latency >= 3e-3  # waited for the batch to fill

    def test_result_refuses_a_request_the_run_never_answered(self):
        """``make_result`` folds the run by request id; a request the
        run neither answered nor shed is an error, not a silent row."""
        sim = toy_simulator()
        trace = tuple(toy_trace(8))
        run = sim.make_engine({"toy": TOY}).run(trace)
        stray = Request(99, "toy", trace[-1].arrival)
        with pytest.raises(KeyError):
            sim.make_result(trace + (stray,), run, sim.cache.stats,
                            scenario="", rate=0.0)

    @pytest.mark.parametrize("slo", [None, SloPolicy(target=2e-4,
                                                     shed_depth=8)],
                             ids=["plain", "shedding"])
    def test_result_columns_do_not_depend_on_the_id_numbering(self, slo):
        """Ids 0..n-1 are their own slots; any other numbering is
        looked up, and fills the same columns.  No resilience: retry
        jitter hashes the ids."""
        sim = toy_simulator(replicas=1, slo=slo)
        trace = toy_trace(40, gap=2e-8)
        offset = [Request(r.request_id + 1000, r.model, r.arrival)
                  for r in trace]
        positional, looked_up = sim.run(trace), sim.run(offset)
        assert looked_up.latencies == positional.latencies
        assert looked_up.energy_per_request == \
            positional.energy_per_request
        assert looked_up.shed == tuple(rid + 1000
                                       for rid in positional.shed)
        assert bool(positional.shed) == (slo is not None)

    def test_a_repeated_request_id_is_refused(self):
        """Two requests under one id would leave one of them without
        a latency or an energy; the result refuses the trace."""
        trace = toy_trace(8)
        trace[5] = Request(2, "toy", trace[5].arrival)
        with pytest.raises(ConfigError, match="request id 2 "):
            toy_simulator().run(trace)


class TestDispatch:
    def test_round_robin_alternates(self):
        sim = toy_simulator(replicas=2, dispatch="round_robin")
        result = sim.run(toy_trace(16))
        assert [b.replica for b in result.batches] == [0, 1, 0, 1]

    def test_shard_pins_model_to_one_replica(self):
        sim = ServingSimulator(
            make_smart(), replicas=3, dispatch="shard",
            policy=FixedSizeBatching(batch_size=4),
            networks={"toy": TOY, "toy2": TOY},
        )
        trace = toy_trace(16) + [
            Request(100 + r.request_id, "toy2", r.arrival + 1e-7)
            for r in toy_trace(16)
        ]
        result = sim.run(trace)
        by_model = {}
        for batch in result.batches:
            by_model.setdefault(batch.model, set()).add(batch.replica)
        assert all(len(replicas) == 1 for replicas in by_model.values())

    def test_more_replicas_cut_tail_latency(self):
        trace = toy_trace(64, gap=1e-7)  # overload for one replica
        one = toy_simulator(replicas=1,
                            dispatch="least_loaded").run(trace)
        four = toy_simulator(replicas=4,
                             dispatch="least_loaded").run(trace)
        assert four.latency_percentile(99) < one.latency_percentile(99)
        assert four.throughput_rps >= one.throughput_rps

    def test_unknown_dispatch_rejected(self):
        with pytest.raises(ConfigError):
            toy_simulator(dispatch="random")

    def test_zero_replicas_rejected(self):
        with pytest.raises(ConfigError):
            toy_simulator(replicas=0)


class TestMemoCache:
    def test_identical_latencies_and_10x_fewer_evaluations(self):
        """The memo cache must not change a single per-request latency
        while cutting layer simulations by >= 10x (the acceptance bar;
        at trace scale the factor grows with requests/distinct pairs)."""
        scenario = get_scenario("steady")
        policy = make_policy("timeout")
        cached = ServingSimulator("SMART", replicas=2, policy=policy)
        rate = scenario.load * cached.capacity_rps(scenario)
        trace = generate_trace(scenario, rate, 500, seed=11)

        hot = cached.run(trace)
        cold = ServingSimulator(
            "SMART", replicas=2, policy=policy,
            cache=LayerMemoCache(enabled=False),
        ).run(trace)

        assert hot.latencies == cold.latencies
        assert hot.energy_per_request == cold.energy_per_request
        assert cold.cache.misses >= 10 * hot.cache.misses

    def test_layer_results_shared_across_batches(self):
        cache = LayerMemoCache()
        sim = toy_simulator(cache=cache)
        sim.run(toy_trace(16))
        evaluated = cache.stats.misses
        sim.run(toy_trace(16))  # same (layer, batch) keys again
        assert cache.stats.misses == evaluated

    def test_disabled_cache_stores_nothing(self):
        cache = LayerMemoCache(enabled=False)
        toy_simulator(cache=cache).run(toy_trace(8))
        assert len(cache) == 0
        assert cache.stats.hits == 0
        assert cache.stats.misses > 0

    def test_memo_key_is_structural_not_identity(self):
        """Two equal accelerator configs share memo entries."""
        cache = LayerMemoCache()
        layer = TOY.layers[0]
        cache.simulate_layer(make_smart(), layer, 4)
        cache.simulate_layer(make_smart(), layer, 4)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_same_named_networks_do_not_collide(self):
        """Regression: run/energy memo keys used network *names*, so
        two different networks sharing a name returned each other's
        cached results."""
        small = Network("toy", TOY.layers[:1])
        cache = LayerMemoCache()
        acc = make_smart()
        fast = cache.simulate(acc, small, 4).latency
        slow = cache.simulate(acc, TOY, 4).latency
        assert slow > fast
        assert cache.simulate(acc, small, 4).latency == fast

    def test_stats_hit_rate(self):
        cache = LayerMemoCache()
        assert cache.stats.hit_rate == 0.0
        layer = TOY.layers[0]
        cache.simulate_layer(make_smart(), layer, 2)
        cache.simulate_layer(make_smart(), layer, 2)
        cache.simulate_layer(make_smart(), layer, 3)
        assert cache.stats.hit_rate == pytest.approx(1 / 3)

    def test_energy_path_counts_into_stats(self):
        """The energy memo level reports hits/misses like the layer
        level (it used to be invisible in CacheStats)."""
        cache = LayerMemoCache()
        acc = make_smart()
        first = cache.energy_total(acc, TOY, 4)
        assert (cache.stats.energy_hits, cache.stats.energy_misses) == (0, 1)
        assert cache.energy_total(acc, TOY, 4) == first
        assert (cache.stats.energy_hits, cache.stats.energy_misses) == (1, 1)
        assert cache.stats.energy_lookups == 2
        # a structurally equal accelerator hits the same entry
        assert cache.energy_total(make_smart(), TOY, 4) == first
        assert cache.stats.energy_hits == 2

    def test_energy_model_built_once_per_accelerator(self, monkeypatch):
        """A memo builds each accelerator's energy model once, not once
        per energy miss: a SMART-class build re-runs the RANDOM array's
        sub-bank search."""
        from repro.core import make_accelerator, make_energy_model
        from repro.models import get_model
        from repro.serving import memo, prewarm_cache

        built = []

        def spy(accelerator):
            built.append(accelerator.name)
            return make_energy_model(accelerator)

        monkeypatch.setattr(memo, "make_energy_model", spy)
        cache = LayerMemoCache()
        networks = [get_model(model)
                    for model in get_scenario("diurnal").mix.fractions()]
        fleet = [make_accelerator(scheme)
                 for scheme in ("SMART", "SNN", "AQFP")]
        for accelerator in fleet:
            prewarm_cache(cache, accelerator, networks, 8)
        assert cache.stats.energy_misses == 144
        assert sorted(built) == ["AQFP", "SMART", "SNN"]
        # a calibration-only key (a latency never dispatched) gets its
        # export-time energy from the model the memo already holds
        cache.latency_total(make_accelerator("SNN"), networks[0], 9)
        assert len(cache.export_totals()) == 145
        assert len(built) == 3

    def test_disabled_cache_energy_always_misses(self):
        cache = LayerMemoCache(enabled=False)
        acc = make_smart()
        cache.energy_total(acc, TOY, 2)
        cache.energy_total(acc, TOY, 2)
        assert cache.stats.energy_hits == 0
        assert cache.stats.energy_misses == 2

    def test_run_reports_energy_stats_delta(self):
        result = toy_simulator().run(toy_trace(8))
        assert result.cache.energy_misses > 0
        assert result.cache.energy_lookups >= result.cache.energy_misses


class TestInterner:
    def test_structural_values_share_one_id(self):
        from repro.serving import Interner

        interner = Interner()
        a, b = make_smart(), make_smart()
        assert a is not b
        assert interner.intern(a) == interner.intern(b)
        assert interner.intern(a) == interner.intern(a)  # identity path
        assert len(interner) == 1

    def test_distinct_values_get_distinct_ids(self):
        from repro.serving import Interner

        interner = Interner()
        small = Network("toy", TOY.layers[:1])
        assert interner.intern(TOY) != interner.intern(small)
        assert len(interner) == 2


class TestScenarioRuns:
    @pytest.mark.parametrize("name", ["steady", "bursty", "ramp"])
    def test_stock_scenarios_produce_percentile_rows(self, name):
        sim = ServingSimulator("SMART", replicas=2,
                               policy=make_policy("timeout"))
        row = sim.run_scenario(name, 150, seed=2).to_row()
        assert row["scenario"] == name
        assert 0 < row["p50_us"] <= row["p95_us"] <= row["p99_us"]
        assert row["throughput_rps"] > 0
        assert row["energy_per_req_uj"] > 0
        assert 0 < row["utilization"] <= 1.0

    def test_calibrated_rate_scales_with_replicas(self):
        scenario = get_scenario("steady")
        one = ServingSimulator("SMART", replicas=1)
        two = ServingSimulator("SMART", replicas=2,
                               cache=one.cache)
        assert two.capacity_rps(scenario) == pytest.approx(
            2 * one.capacity_rps(scenario)
        )

    def test_unknown_model_in_trace_rejected(self):
        sim = toy_simulator()
        with pytest.raises(ConfigError):
            sim.run([Request(0, "mystery", 0.0)])

    def test_serving_experiments_registered(self):
        from repro.runtime import registry

        names = registry.names()
        assert "serving_grid" in names
        assert "serving_scaling" in names

    def test_serving_scaling_rows(self):
        from repro.serving.experiments import serving_scaling

        rows = serving_scaling(requests=120, replicas=2)
        assert len(rows) == 1
        assert rows[0]["replicas"] == 2
