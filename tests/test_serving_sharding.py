"""Streaming traces and sharded scale-out: exactness guarantees.

The scale-out contract is equality, not approximation: a streamed
trace is bit-identical to the materialised one, a sharded run on a
shard-stable cell reproduces the monolithic engine's per-request
latencies and energies exactly, and no request is ever lost or
duplicated across the shard split.  These tests hold every layer of
the PR 7 pipeline to that contract.
"""

import multiprocessing
import os
import random
import time
from array import array
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.eval.report import percentile
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
        a, b = random.Random(3), random.Random(3)
        assert mix.draw(a, 500) == [mix.sample(b) for _ in range(500)]
        assert a.getstate() == b.getstate()


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
        streamed = simulator.make_engine(networks).run(
            iter(trace), span=(trace[0].arrival, trace[-1].arrival))
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
            simulator.make_engine(networks).run(
                iter(shuffled), span=(trace[0].arrival, trace[-1].arrival))

    def test_streamed_run_rejects_empty_iterator(self):
        simulator = ServingSimulator("SMART", replicas=2,
                                     policy=make_policy("timeout", 8),
                                     dispatch="shard")
        with pytest.raises(ConfigError):
            simulator.make_engine({}).run(iter(()))


class TestShardedEquivalence:
    @pytest.mark.parametrize("name", ["steady", "hot-model", "overload"])
    @pytest.mark.parametrize("policy", ["fixed", "timeout"])
    def test_detail_run_is_bit_exact(self, name, policy,
                                     assert_counters_match):
        mono = _monolithic(name, 400, policy=policy)
        result = _sharded(name, 400, policy=policy)
        assert_counters_match(result, mono, rel=1e-12)
        merged = result.detail
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
        for q in (0, 50, 95, 99, 100):
            assert result.latency_percentile(q) == \
                mono.latency_percentile(q)

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


#: Latency runs with ties (values from a small set), empty runs among
#: them.
COLUMNS = st.lists(st.lists(st.sampled_from((0.0, 1e-4, 2.5e-4, 1e-3)) |
                            st.floats(0.0, 1.0), max_size=40),
                   max_size=5)


class TestLatencyDigest:
    """The digest's percentile over several sorted columns equals
    :func:`repro.eval.report.percentile` over all their values."""

    @given(runs=COLUMNS, q=st.floats(0.0, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_percentile_equals_report_percentile(self, runs, q):
        digest = LatencyDigest(array("d", sorted(run)) for run in runs)
        values = [v for run in runs for v in run]
        assert digest.count == len(values)
        if not values:
            with pytest.raises(ConfigError):
                digest.percentile(q)
            return
        for rank in (q, 0, 50, 95, 99, 100):
            assert digest.percentile(rank) == percentile(values, rank)

    def test_ties_across_columns(self):
        runs = [[1.0, 2.0, 2.0, 3.0], [], [2.0, 2.0], [0.5, 2.0, 9.0]]
        digest = LatencyDigest(array("d", run) for run in runs)
        values = [v for run in runs for v in run]
        for q in range(101):
            assert digest.percentile(q) == percentile(values, q)

    def test_error_paths(self):
        with pytest.raises(ConfigError):
            LatencyDigest().percentile(50)
        with pytest.raises(ConfigError):
            LatencyDigest((array("d"), array("d"))).percentile(50)
        digest = LatencyDigest((array("d", [1.0]),))
        for q in (-1, 101):
            with pytest.raises(ConfigError):
                digest.percentile(q)


class TestShardedEngineApi:
    def test_constructor_validates_up_front(self):
        with pytest.raises(ConfigError):
            ShardedEngine(3, replicas=2)
        with pytest.raises(ConfigError):
            ShardedEngine(2, replicas=2, policy="adaptive")
        with pytest.raises(ConfigError, match="unknown scheme 'NOPE'"):
            ShardedEngine(2, replicas=2, accelerator="NOPE")
        for mode in ("serial", "auto"):
            with pytest.raises(ConfigError, match="execution mode"):
                ShardedEngine(2, replicas=2, mode=mode)

    def test_constructor_rejects_a_retry_with_no_deadline(self):
        """Retry needs ``timeout_us`` or an SLO, as the engine does: the
        constructor says so, instead of every shard worker failing
        after calibration, prewarm and three fan-out rounds."""
        with pytest.raises(ConfigError, match="retry needs timeout_us"):
            ShardedEngine(2, replicas=2, resilience="retry", mode="inline")
        ShardedEngine(2, replicas=2, resilience="retry", slo_us=3000,
                      mode="inline")
        ShardedEngine(2, replicas=2, resilience="retry:timeout_us=300",
                      mode="inline")

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

    def test_retry_parity_is_bit_exact(self, assert_counters_match):
        from repro.serving import SloPolicy
        mono = _monolithic("steady", 400, replicas=4,
                           slo=SloPolicy(target=900e-6),
                           resilience=RETRY_SPEC)
        result = _sharded("steady", 400, shards=2, replicas=4,
                          slo_us=900, resilience=RETRY_SPEC)
        assert_counters_match(result, mono, rel=1e-12)
        merged = result.detail
        assert mono.retries > 0  # the policy genuinely fired
        assert merged.latencies == mono.latencies
        assert merged.energy_per_request == mono.energy_per_request

    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_retry_schedule_is_shard_count_invariant(
            self, shards, assert_counters_match):
        from repro.serving import SloPolicy
        mono = _monolithic("steady", 400, replicas=4,
                           slo=SloPolicy(target=900e-6),
                           resilience=RETRY_SPEC)
        result = _sharded("steady", 400, shards=shards, replicas=4,
                          slo_us=900, resilience=RETRY_SPEC)
        assert_counters_match(result, mono, rel=1e-12)
        merged = result.detail
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

    def test_row_reports_the_monolithic_counters(self,
                                                 assert_counters_match):
        """A bursty overload past a tight deadline retries thousands of
        times; the sharded result, its detail and its row report what
        the monolithic engine does, under the plain row's keys."""
        from repro.serving import SloPolicy
        spec = "retry:timeout_us=300,budget=1"
        mono = _monolithic("bursty", 1500, slo=SloPolicy(target=400e-6),
                           resilience=spec)
        result = _sharded("bursty", 1500, slo_us=400, resilience=spec)
        assert mono.retries and mono.timeouts and mono.cancels
        assert_counters_match(result, mono, rel=1e-12)
        row, plain = result.to_row(), mono.to_row()
        for key in ("timeouts", "retries", "cancels"):
            assert row[key] == plain[key]
        assert "hedges" not in row and "degraded" not in row


@pytest.fixture
def fast_backoff(monkeypatch):
    """Shrink the fan-out's crash-retry backoff so re-runs are quick."""
    monkeypatch.setattr(sharding_module, "_RETRY_BACKOFF_S", 0.001)


class TestShardFaultTolerance:
    """Crashed or raising worker shards are re-run, not fatal."""

    def test_raising_shard_is_retried_with_exact_result(self,
                                                        monkeypatch,
                                                        tmp_path,
                                                        fast_backoff):
        real = sharding_module._serve_shard
        sentinel = tmp_path / "crashed-once"

        def flaky(spec):
            if spec["shard"] == 1 and not sentinel.exists():
                sentinel.write_text("x")
                raise RuntimeError("injected shard fault")
            return real(spec)

        monkeypatch.setattr(sharding_module, "_serve_shard", flaky)
        result = _sharded("steady", 400, mode="thread")
        assert result.shard_retries == 1
        clean = _monolithic("steady", 400)
        assert result.detail.latencies == clean.latencies
        assert result.detail.energy_per_request == \
            clean.energy_per_request

    def test_permanent_failure_raises_after_budget(self, monkeypatch,
                                                   fast_backoff):
        real = sharding_module._serve_shard

        def always(spec):
            if spec["shard"] == 1:
                raise RuntimeError("permanent fault")
            return real(spec)

        monkeypatch.setattr(sharding_module, "_serve_shard", always)
        monkeypatch.setattr(sharding_module, "_SHARD_RETRIES", 3)
        engine = ShardedEngine(2, replicas=2, mode="thread")
        with pytest.raises(RuntimeError,
                           match="still failing after 3 retries"):
            engine.run_scenario("steady", 200, seed=SEED)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="worker-kill chaos needs fork inheritance")
    def test_process_worker_killed_mid_run(self, monkeypatch,
                                           tmp_path, fast_backoff):
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
        result = _sharded("steady", 400, mode="process")
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
        monkeypatch.setattr(sharding_module, "_SHARD_RETRIES", 0)
        engine = ShardedEngine(2, replicas=2, mode="thread",
                               detail=True, checkpoint=checkpoint)
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
