"""Streaming traces and sharded scale-out: exactness guarantees.

The scale-out contract is equality, not approximation: a streamed
trace is bit-identical to the materialised one, a sharded run on a
shard-stable cell reproduces the monolithic engine's per-request
latencies and energies exactly, and no request is ever lost or
duplicated across the shard split.  These tests hold every layer of
the PR 7 pipeline to that contract.
"""

import math
import multiprocessing
import os
import random
import time
from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.runtime import executor as executor_module
from repro.serving import sharding as sharding_module
from repro.serving import (
    LatencyDigest,
    SCENARIOS,
    ServingSimulator,
    ShardedEngine,
    generate_trace,
    ModelMix,
    get_scenario,
    make_policy,
    shard_key,
    shard_seeds,
    shard_trace,
    stream_trace,
    validate_sharding,
)

RATE = 20_000.0
SEED = 11


def _monolithic(scenario, n, *, replicas=2, policy="timeout", slo=None,
                resilience=None):
    simulator = ServingSimulator(
        "SMART", replicas=replicas,
        policy=make_policy(policy, batch_size=8),
        dispatch="shard", slo=slo, resilience=resilience,
    )
    return simulator.run_scenario(scenario, n, seed=SEED)


def _sharded(scenario, n, *, shards=2, replicas=2, policy="timeout",
             slo_us=0.0, detail=True, mode="inline", **kwargs):
    engine = ShardedEngine(shards, replicas=replicas, policy=policy,
                           batch_size=8, slo_us=slo_us, detail=detail,
                           mode=mode, **kwargs)
    return engine.run_scenario(scenario, n, seed=SEED)


class TestStreamTrace:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_stream_is_bit_identical_to_materialised(self, name):
        scenario = get_scenario(name)
        trace = generate_trace(scenario, RATE, 400, seed=SEED)
        assert tuple(stream_trace(scenario, RATE, 400, seed=SEED)) == trace

    def test_stream_rejects_empty(self):
        with pytest.raises(ConfigError):
            next(stream_trace(get_scenario("steady"), RATE, 0))

    def test_mix_sampler_replays_choices(self):
        mix = get_scenario("hot-model").mix
        sample = mix.sampler()
        a, b = random.Random(3), random.Random(3)
        assert [sample(a) for _ in range(500)] == \
               [mix.sample(b) for _ in range(500)]


class TestShardSplit:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("shards", [2, 3])
    def test_no_request_lost_or_duplicated(self, name, shards):
        scenario = get_scenario(name)
        trace = generate_trace(scenario, RATE, 300, seed=SEED)
        pieces = [tuple(shard_trace(scenario, RATE, 300, SEED,
                                    shards=shards, shard=k, replicas=3))
                  for k in range(shards)]
        ids = [r.request_id for piece in pieces for r in piece]
        assert sorted(ids) == list(range(300))  # exactly once each
        by_id = {r.request_id: r for piece in pieces for r in piece}
        assert all(by_id[r.request_id] == r for r in trace)

    def test_shards_are_keyed_by_home_replica(self):
        scenario = get_scenario("steady")
        for k in range(2):
            for request in shard_trace(scenario, RATE, 200, SEED,
                                       shards=2, shard=k, replicas=4):
                assert shard_key(request.model, 4, 2) == k

    def test_span_covers_the_global_trace(self):
        scenario = get_scenario("steady")
        trace = generate_trace(scenario, RATE, 200, seed=SEED)
        piece = shard_trace(scenario, RATE, 200, SEED,
                            shards=2, shard=0, replicas=2)
        assert piece.span == (trace[0].arrival, trace[-1].arrival)

    def test_shard_is_single_use(self):
        piece = shard_trace(get_scenario("steady"), RATE, 50, SEED,
                            shards=2, shard=0, replicas=2)
        list(piece)
        with pytest.raises(ConfigError):
            iter(piece)

    def test_shard_seeds_deterministic_and_distinct(self):
        assert shard_seeds(7, 4) == shard_seeds(7, 4)
        assert len(set(shard_seeds(7, 4))) == 4
        assert shard_seeds(7, 4) != shard_seeds(8, 4)
        with pytest.raises(ConfigError):
            shard_seeds(7, 0)

    def test_bad_shard_parameters_rejected(self):
        scenario = get_scenario("steady")
        for kwargs in ({"shards": 0, "shard": 0},
                       {"shards": 2, "shard": 2},
                       {"shards": 2, "shard": -1}):
            with pytest.raises(ConfigError):
                shard_trace(scenario, RATE, 50, SEED, replicas=2,
                            **kwargs)


class TestStreamingEngine:
    @pytest.mark.parametrize("name", ["steady", "bursty", "diurnal"])
    @pytest.mark.parametrize("policy", ["fixed", "timeout"])
    def test_iterator_run_matches_list_run(self, name, policy):
        scenario = get_scenario(name)
        simulator = ServingSimulator("SMART", replicas=2,
                                     policy=make_policy(policy, 8),
                                     dispatch="shard")
        trace = generate_trace(scenario, RATE, 300, seed=SEED)
        networks = {m: simulator.network(m)
                    for m in scenario.mix.models()}
        batch = simulator.make_engine(networks).run(trace)
        streamed = simulator.make_engine(networks).run(iter(trace))
        assert streamed.done == batch.done
        assert streamed.batches == batch.batches

    def test_streamed_run_rejects_out_of_order_arrivals(self):
        scenario = get_scenario("steady")
        simulator = ServingSimulator("SMART", replicas=2,
                                     policy=make_policy("timeout", 8),
                                     dispatch="shard")
        networks = {m: simulator.network(m)
                    for m in scenario.mix.models()}
        trace = generate_trace(scenario, RATE, 50, seed=SEED)
        shuffled = trace[10:] + trace[:10]
        with pytest.raises(ConfigError, match="time-ordered"):
            simulator.make_engine(networks).run(iter(shuffled))

    def test_streamed_run_rejects_empty_iterator(self):
        simulator = ServingSimulator("SMART", replicas=2,
                                     policy=make_policy("timeout", 8),
                                     dispatch="shard")
        with pytest.raises(ConfigError):
            simulator.make_engine({}).run(iter(()))


class TestShardedEquivalence:
    @pytest.mark.parametrize("name", ["steady", "hot-model", "overload"])
    @pytest.mark.parametrize("policy", ["fixed", "timeout"])
    def test_detail_run_is_bit_exact(self, name, policy):
        mono = _monolithic(name, 400, policy=policy)
        merged = _sharded(name, 400, policy=policy).detail
        assert merged.latencies == mono.latencies
        assert merged.energy_per_request == mono.energy_per_request
        assert merged.requests == mono.requests
        def canon(b):
            return (b.flush, b.start, b.done, b.replica, b.model)
        assert sorted(merged.batches, key=canon) == \
               sorted(mono.batches, key=canon)

    @pytest.mark.parametrize("shards,replicas", [(2, 3), (3, 3), (4, 5)])
    def test_shard_count_never_changes_the_answer(self, shards,
                                                  replicas):
        mono = _monolithic("steady", 400, replicas=replicas)
        merged = _sharded("steady", 400, shards=shards,
                          replicas=replicas).detail
        assert merged.latencies == mono.latencies
        assert merged.energy_per_request == mono.energy_per_request

    @pytest.mark.parametrize("name", ["steady", "bursty", "diurnal"])
    def test_digest_run_matches_monolithic_aggregates(self, name):
        mono = _monolithic(name, 400)
        result = _sharded(name, 400, detail=False)
        assert result.detail is None
        assert result.requests == len(mono.requests)
        assert result.batches == len(mono.batches)
        assert result.energy == pytest.approx(sum(
            mono.energy_per_request), rel=1e-12)
        assert result.digest.count == len(mono.latencies)
        assert result.digest.min == min(mono.latencies)
        assert result.digest.max == max(mono.latencies)
        for q in (50, 95, 99):
            assert result.latency_percentile(q) == pytest.approx(
                mono.latency_percentile(q), rel=0.02)

    def test_slo_attainment_matches_monolithic(self):
        from repro.serving import SloPolicy
        target = 2000e-6
        mono = _monolithic("overload", 400,
                           slo=SloPolicy(target=target))
        result = _sharded("overload", 400, slo_us=2000, detail=False)
        assert result.slo_attainment == pytest.approx(
            mono.slo_attainment, abs=1e-12)

    def test_process_mode_matches_inline(self):
        inline = _sharded("steady", 300, detail=True, mode="inline")
        procs = _sharded("steady", 300, detail=True, mode="process")
        assert procs.detail.latencies == inline.detail.latencies
        assert procs.requests == inline.requests
        assert procs.energy == inline.energy


class TestCustomScenario:
    """Workers receive the Scenario object itself, never a registry
    name, so a custom mix or a renamed scenario shards exactly."""

    @pytest.mark.parametrize("change", [
        {"mix": ModelMix((("AlexNet", 3.0), ("FasterRCNN", 1.0)))},
        {"name": "steady-renamed"},
    ], ids=["custom-mix", "renamed"])
    def test_sharded_matches_monolithic(self, change):
        scenario = replace(get_scenario("steady"), **change)
        mono = _monolithic(scenario, 400)
        merged = _sharded(scenario, 400).detail
        assert merged.latencies == mono.latencies
        assert merged.energy_per_request == mono.energy_per_request


class TestValidateSharding:
    def test_accepts_a_shard_stable_cell(self):
        validate_sharding(2, replicas=4)

    @pytest.mark.parametrize("kwargs,fragment", [
        ({"shards": 0, "replicas": 2}, "shard count"),
        ({"shards": 3, "replicas": 2}, "home replica"),
        ({"shards": 2, "replicas": 2, "dispatch": "least_loaded"},
         "shard-stable"),
        ({"shards": 2, "replicas": 2, "autoscale": "1:4"}, "autoscale"),
        ({"shards": 2, "replicas": 2, "scale": "holt"}, "autoscale"),
        ({"shards": 2, "replicas": 2, "steal": True}, "stealing"),
        ({"shards": 2, "replicas": 2, "shed": 16}, "shed"),
        ({"shards": 2, "replicas": 2, "fail": 1}, "fault-free"),
        ({"shards": 2, "replicas": 2,
          "scenarios": ("failure-storm",)}, "not shard-stable"),
    ])
    def test_rejects_unstable_cells(self, kwargs, fragment):
        shards = kwargs.pop("shards")
        with pytest.raises(ConfigError, match=fragment):
            validate_sharding(shards, **kwargs)


class TestLatencyDigest:
    def test_counts_and_sums_are_exact(self):
        rng = random.Random(5)
        values = [rng.expovariate(1000.0) for _ in range(5000)]
        digest = LatencyDigest()
        for v in values:
            digest.add(v)
        assert digest.count == 5000
        assert digest.total == pytest.approx(sum(values))
        assert digest.min == min(values)
        assert digest.max == max(values)
        assert digest.mean == pytest.approx(sum(values) / 5000)

    def test_merge_equals_single_digest(self):
        rng = random.Random(6)
        values = [rng.expovariate(1000.0) for _ in range(2000)]
        whole = LatencyDigest()
        left, right = LatencyDigest(), LatencyDigest()
        for i, v in enumerate(values):
            whole.add(v)
            (left if i % 2 else right).add(v)
        left.merge(right)
        assert left.counts == whole.counts
        assert left.count == whole.count
        assert left.total == pytest.approx(whole.total)
        assert left.min == whole.min and left.max == whole.max

    def test_percentile_tracks_exact_nearest_rank(self):
        rng = random.Random(7)
        values = sorted(rng.expovariate(1000.0) for _ in range(3000))
        digest = LatencyDigest(resolution=0.01)
        for v in values:
            digest.add(v)
        for q in (1, 25, 50, 90, 99, 100):
            exact = values[max(1, math.ceil(q / 100 * 3000)) - 1]
            assert digest.percentile(q) == pytest.approx(exact,
                                                         rel=0.011)

    def test_error_paths(self):
        digest = LatencyDigest()
        with pytest.raises(ConfigError):
            digest.percentile(50)
        digest.add(1.0)
        with pytest.raises(ConfigError):
            digest.percentile(101)
        with pytest.raises(ConfigError):
            digest.merge(LatencyDigest(resolution=0.5))
        with pytest.raises(ConfigError):
            LatencyDigest(resolution=0.0)


class TestShardedEngineApi:
    def test_constructor_validates_up_front(self):
        with pytest.raises(ConfigError):
            ShardedEngine(3, replicas=2)
        with pytest.raises(ConfigError):
            ShardedEngine(2, replicas=2, dispatch="round_robin")
        with pytest.raises(ConfigError):
            ShardedEngine(2, replicas=2, policy="adaptive")

    def test_run_rejects_fault_scenarios_and_empty_traces(self):
        engine = ShardedEngine(2, replicas=2, mode="inline")
        with pytest.raises(ConfigError):
            engine.run_scenario("failure-storm", 100)
        with pytest.raises(ConfigError):
            engine.run_scenario("steady", 0)

    def test_row_shape(self):
        result = _sharded("steady", 300, detail=False)
        row = result.to_row()
        assert row["shards"] == 2
        assert row["requests"] == 300
        assert row["agg_rps"] > 0
        assert row["p50_us"] <= row["p95_us"] <= row["p99_us"]
        assert "slo_attain" not in row

    def test_wall_s_times_the_whole_call(self, monkeypatch):
        real = sharding_module.trace_span

        def slow_span(*args, **kwargs):
            time.sleep(0.2)  # parent-side work before the fan-out
            return real(*args, **kwargs)

        monkeypatch.setattr(sharding_module, "trace_span", slow_span)
        assert _sharded("steady", 200, detail=False).wall_s >= 0.2

    def test_telemetry_rows_are_shard_tagged(self):
        engine = ShardedEngine(2, replicas=2, mode="inline",
                               trace=True, trace_events=True)
        result = engine.run_scenario("steady", 300, seed=SEED)
        shards_seen = {row["shard"] for row in result.telemetry_rows}
        assert shards_seen == {0, 1}
        arrivals = sum(1 for row in result.telemetry_rows
                       if row["ev"] == "arrival")
        assert arrivals == 300


RETRY_SPEC = "retry:timeout_us=400,budget=2"


class TestShardedResilience:
    """Only shard-stable resilience shards, and it shards exactly."""

    def test_retry_parity_is_bit_exact(self):
        from repro.serving import SloPolicy
        mono = _monolithic("steady", 400, replicas=4,
                           slo=SloPolicy(target=900e-6),
                           resilience=RETRY_SPEC)
        merged = _sharded("steady", 400, shards=2, replicas=4,
                          slo_us=900, resilience=RETRY_SPEC).detail
        assert mono.retries > 0  # the policy genuinely fired
        assert merged.latencies == mono.latencies
        assert merged.energy_per_request == mono.energy_per_request

    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_retry_schedule_is_shard_count_invariant(self, shards):
        from repro.serving import SloPolicy
        mono = _monolithic("steady", 400, replicas=4,
                           slo=SloPolicy(target=900e-6),
                           resilience=RETRY_SPEC)
        merged = _sharded("steady", 400, shards=shards, replicas=4,
                          slo_us=900, resilience=RETRY_SPEC).detail
        assert merged.latencies == mono.latencies
        assert merged.energy_per_request == mono.energy_per_request

    @pytest.mark.parametrize("spec", ["hedge:delay_us=200",
                                      "degrade:timeout_us=400"])
    def test_unstable_policies_rejected(self, spec):
        with pytest.raises(ConfigError, match="not shard-stable"):
            ShardedEngine(2, replicas=4, resilience=spec)
        with pytest.raises(ConfigError, match="not shard-stable"):
            validate_sharding(2, replicas=4, resilience=spec)

    def test_none_specs_accepted_and_normalised(self):
        validate_sharding(2, replicas=4, resilience="none")
        engine = ShardedEngine(2, replicas=4, resilience="none")
        assert engine.resilience == ""

    def test_row_carries_the_resilience_spec(self):
        row = _sharded("steady", 300, replicas=4, slo_us=900,
                       detail=False, resilience=RETRY_SPEC).to_row()
        assert row["resilience"] == RETRY_SPEC
        assert "shard_retries" not in row  # nothing crashed


class TestShardFaultTolerance:
    """Crashed or raising worker shards are re-run, not fatal."""

    def test_raising_shard_is_retried_with_exact_result(self,
                                                        monkeypatch,
                                                        tmp_path):
        real = sharding_module._serve_shard
        sentinel = tmp_path / "crashed-once"

        def flaky(spec):
            if spec["shard"] == 1 and not sentinel.exists():
                sentinel.write_text("x")
                raise RuntimeError("injected shard fault")
            return real(spec)

        monkeypatch.setattr(sharding_module, "_serve_shard", flaky)
        result = _sharded("steady", 400, mode="thread",
                          retry_backoff_s=0.001)
        assert result.shard_retries == 1
        clean = _monolithic("steady", 400)
        assert result.detail.latencies == clean.latencies
        assert result.detail.energy_per_request == \
            clean.energy_per_request

    def test_permanent_failure_raises_after_budget(self, monkeypatch):
        real = sharding_module._serve_shard

        def always(spec):
            if spec["shard"] == 1:
                raise RuntimeError("permanent fault")
            return real(spec)

        monkeypatch.setattr(sharding_module, "_serve_shard", always)
        engine = ShardedEngine(2, replicas=2, mode="thread",
                               shard_retries=2, retry_backoff_s=0.001)
        with pytest.raises(RuntimeError,
                           match="still failing after 2 retries"):
            engine.run_scenario("steady", 200, seed=SEED)

    def test_retry_budget_validation(self):
        with pytest.raises(ConfigError):
            ShardedEngine(2, replicas=2, shard_retries=-1)
        with pytest.raises(ConfigError):
            ShardedEngine(2, replicas=2, retry_backoff_s=-0.1)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="worker-kill chaos needs fork inheritance")
    def test_process_worker_killed_mid_run(self, monkeypatch,
                                           tmp_path):
        """The chaos cell: one worker process dies outright
        (``os._exit``, as a crashed machine would); the run must still
        complete with the exact monolithic answer."""
        real = sharding_module._serve_shard
        sentinel = tmp_path / "killed-once"

        def killer(spec):
            if spec["shard"] == 1 and not sentinel.exists():
                sentinel.write_text("x")
                os._exit(13)
            return real(spec)

        monkeypatch.setattr(sharding_module, "_serve_shard", killer)
        # pooled process workers snapshot the parent at pool creation;
        # drain any pools forked before the monkeypatch so the killer
        # is actually inherited
        executor_module.shutdown_pools()
        result = _sharded("steady", 400, mode="process",
                          retry_backoff_s=0.001)
        assert sentinel.exists()  # the kill genuinely happened
        assert result.shard_retries >= 1
        clean = _monolithic("steady", 400)
        assert result.detail.latencies == clean.latencies
        assert result.detail.energy_per_request == \
            clean.energy_per_request


class TestShardCheckpoint:
    def test_resume_serves_only_the_missing_shards(self, monkeypatch,
                                                   tmp_path):
        checkpoint = str(tmp_path / "run.ckpt")
        real = sharding_module._serve_shard

        def doomed(spec):
            if spec["shard"] == 1:
                raise RuntimeError("fault")
            return real(spec)

        monkeypatch.setattr(sharding_module, "_serve_shard", doomed)
        engine = ShardedEngine(2, replicas=2, mode="thread",
                               detail=True, shard_retries=0,
                               checkpoint=checkpoint)
        with pytest.raises(RuntimeError):
            engine.run_scenario("steady", 300, seed=SEED)
        assert os.path.exists(checkpoint)  # shard 0 landed on disk

        calls = []

        def counting(spec):
            calls.append(spec["shard"])
            return real(spec)

        monkeypatch.setattr(sharding_module, "_serve_shard", counting)
        resumed = ShardedEngine(2, replicas=2, mode="thread",
                                detail=True, checkpoint=checkpoint)
        result = resumed.run_scenario("steady", 300, seed=SEED)
        assert calls == [1]  # shard 0 came from the checkpoint
        clean = _monolithic("steady", 300)
        assert result.detail.latencies == clean.latencies

    def test_completed_checkpoint_resumes_instantly(self, monkeypatch,
                                                    tmp_path):
        checkpoint = str(tmp_path / "run.ckpt")
        first = _sharded("steady", 300, mode="thread",
                         checkpoint=checkpoint)
        monkeypatch.setattr(
            sharding_module, "_serve_shard",
            lambda spec: pytest.fail("shard re-served after resume"))
        again = _sharded("steady", 300, mode="thread",
                         checkpoint=checkpoint)
        assert again.detail.latencies == first.detail.latencies

    def test_mismatched_checkpoint_is_ignored(self, tmp_path):
        checkpoint = str(tmp_path / "run.ckpt")
        _sharded("steady", 300, mode="thread", checkpoint=checkpoint)
        # different trace length: stale checkpoint must not leak in
        other = _sharded("steady", 200, mode="thread",
                         checkpoint=checkpoint)
        clean = _monolithic("steady", 200)
        assert other.detail.latencies == clean.latencies

    def test_corrupt_checkpoint_starts_fresh(self, tmp_path):
        checkpoint = tmp_path / "run.ckpt"
        checkpoint.write_bytes(b"not a pickle")
        result = _sharded("steady", 300, mode="thread",
                          checkpoint=str(checkpoint))
        clean = _monolithic("steady", 300)
        assert result.detail.latencies == clean.latencies
