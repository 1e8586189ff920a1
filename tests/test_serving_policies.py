"""Tests for the pluggable scheduling control plane.

Covers the policy seams themselves (dispatch / flush / scale /
admission resolve and validate), seam equivalence (explicit policy
objects produce the same floats as the string-configured engine),
the EDF ordering and work-stealing conservation properties from the
issue, the predictive autoscaler (including the committed
reactive-vs-predictive diurnal comparison), the weight-deployment
switch charge, and the persisted memo pool.
"""

import random

import pytest

from repro.core import make_smart, make_tpu
from repro.errors import ConfigError
from repro.serving import (
    ClusterEngine,
    DISPATCH_STRATEGIES,
    EdfFlush,
    FailurePlan,
    FifoFlush,
    FixedSizeBatching,
    ForecastScalePolicy,
    LayerMemoCache,
    Outage,
    ReactiveScalePolicy,
    RoundRobinDispatch,
    ServingSimulator,
    TimeoutBatching,
    WorkStealPolicy,
    generate_trace,
    get_scenario,
    load_persistent_memo,
    make_dispatch,
    make_flush,
    make_policy,
    make_scale,
    store_persistent_memo,
)
from repro.serving.experiments import parse_priorities, serving_forecast
from repro.serving.workload import Request
from repro.systolic.layers import ConvLayer, Network

TOY = Network("toy", (
    ConvLayer("c1", 16, 16, 8, 16, 3, 3, padding=1),
    ConvLayer("c2", 16, 16, 16, 16, 3, 3, padding=1),
    ConvLayer("fc", 1, 1, 4096, 10, 1, 1, kind="fc"),
))
TOY2 = Network("toy2", TOY.layers[:2])
TOY3 = Network("toy3", TOY.layers[1:])


def toy_simulator(**kwargs):
    kwargs.setdefault("policy", FixedSizeBatching(batch_size=4))
    kwargs.setdefault("networks", {"toy": TOY, "toy2": TOY2,
                                   "toy3": TOY3})
    return ServingSimulator(make_smart(), **kwargs)


def toy_trace(n, gap=1e-5, model="toy", start_id=0, offset=0.0):
    return [Request(start_id + i, model, offset + (i + 1) * gap)
            for i in range(n)]


def flat_engine(n_replicas=1, service=1e-6, switch=None, **kwargs):
    """An engine with constant-rate stub models (no simulator)."""
    return ClusterEngine(
        [make_smart()] * n_replicas, FixedSizeBatching(batch_size=2),
        "round_robin",
        service_fn=lambda acc, model, size: service,
        energy_fn=lambda acc, model, size: 1e-9,
        switch_fn=(None if switch is None
                   else (lambda acc, model, size: switch)),
        **kwargs,
    )


class TestPolicyResolution:
    def test_make_dispatch_names_round_trip(self):
        for name in DISPATCH_STRATEGIES:
            assert make_dispatch(name).name == name

    def test_make_dispatch_passes_instances_through(self):
        policy = RoundRobinDispatch()
        assert make_dispatch(policy) is policy

    def test_unknown_dispatch_rejected(self):
        with pytest.raises(ConfigError):
            make_dispatch("random")
        with pytest.raises(ConfigError):
            ServingSimulator(make_smart(), dispatch="random")

    def test_make_flush(self):
        assert isinstance(make_flush("fifo"), FifoFlush)
        edf = make_flush("edf", {"toy": 3})
        assert isinstance(edf, EdfFlush)
        assert edf.priority("toy") == 3
        assert edf.priority("unlisted") == 0
        with pytest.raises(ConfigError):
            make_flush("lifo")
        with pytest.raises(ConfigError):
            make_flush("fifo", {"toy": 1})  # priorities need edf

    def test_edf_priority_validation(self):
        with pytest.raises(ConfigError):
            EdfFlush({"toy": "high"})
        with pytest.raises(ConfigError):
            EdfFlush({"toy": 10**6})

    def test_make_scale(self):
        bounds = ReactiveScalePolicy(min_replicas=1, max_replicas=4)
        assert make_scale("", None) is None
        assert make_scale("", bounds) is bounds
        assert make_scale("reactive", bounds) is bounds
        holt = make_scale("holt", bounds)
        assert isinstance(holt, ForecastScalePolicy)
        assert (holt.min_replicas, holt.max_replicas) == (1, 4)
        with pytest.raises(ConfigError):
            make_scale("reactive", None)  # needs bounds
        with pytest.raises(ConfigError):
            make_scale("warp", bounds)

    def test_forecast_policy_validation(self):
        with pytest.raises(ConfigError):
            ForecastScalePolicy(min_replicas=0)
        with pytest.raises(ConfigError):
            ForecastScalePolicy(mode="arima")
        with pytest.raises(ConfigError):
            ForecastScalePolicy(alpha=0.0)
        with pytest.raises(ConfigError):
            ForecastScalePolicy(target_utilization=1.5)
        with pytest.raises(ConfigError):
            ForecastScalePolicy(capacity_rps=-1.0)

    def test_parse_priorities(self):
        assert parse_priorities("") == {}
        assert parse_priorities("a=2,b=-1") == {"a": 2, "b": -1}
        assert parse_priorities({"a": 3}) == {"a": 3}
        with pytest.raises(ConfigError):
            parse_priorities("a")
        with pytest.raises(ConfigError):
            parse_priorities("a=fast")

    def test_depth_admission_subclass_keeps_its_admit(self):
        """Only the exact stock DepthAdmission takes the inlined
        depth-compare fast path; a subclass with its own admit() must
        be consulted per arrival."""
        from repro.serving import DepthAdmission

        calls = []

        class SpyAdmission(DepthAdmission):
            def admit(self, time, request, in_system):
                calls.append(request.request_id)
                return request.request_id % 2 == 0

        engine = flat_engine(admission=SpyAdmission(depth=1))
        run = engine.run(toy_trace(6))
        assert len(calls) == 6  # every arrival went through admit()
        assert sorted(run.shed) == [1, 3, 5]

    def test_steal_policy_validation(self):
        with pytest.raises(ConfigError):
            WorkStealPolicy(tick=0.0)
        with pytest.raises(ConfigError):
            WorkStealPolicy(max_steals=0)
        with pytest.raises(ConfigError):
            WorkStealPolicy(min_gain=-1e-9)


class TestSeamEquivalence:
    """Explicit policy objects must emit the same floats as the
    string-configured engine — the seam adds zero drift on top of the
    reference-oracle suite in test_serving_reference.py."""

    SHARED = LayerMemoCache()

    @pytest.mark.parametrize("dispatch", DISPATCH_STRATEGIES)
    @pytest.mark.parametrize("scenario", ["steady", "hot-model"])
    def test_dispatch_instance_matches_string(self, scenario, dispatch):
        spec = get_scenario(scenario)
        by_name = ServingSimulator("SMART", replicas=2,
                                   policy=make_policy("timeout"),
                                   dispatch=dispatch, cache=self.SHARED)
        rate = spec.load * by_name.capacity_rps(spec)
        trace = generate_trace(spec, rate, 120, seed=5)
        by_object = ServingSimulator(
            "SMART", replicas=2, policy=make_policy("timeout"),
            dispatch=make_dispatch(dispatch), cache=self.SHARED,
            flush=FifoFlush(),
        )
        a = by_name.run(trace)
        b = by_object.run(trace)
        assert a.latencies == b.latencies
        assert a.energy_per_request == b.energy_per_request
        assert a.batches == b.batches

    def test_dispatch_instance_state_resets_between_runs(self):
        """A shared RoundRobinDispatch must restart its cursor each
        run, or the second run would start on the other replica."""
        policy = RoundRobinDispatch()
        trace = toy_trace(16)
        first = toy_simulator(replicas=2, dispatch=policy).run(trace)
        second = toy_simulator(replicas=2, dispatch=policy).run(trace)
        assert [b.replica for b in first.batches] == [
            b.replica for b in second.batches]


class TestEdfOrdering:
    def test_pick_waiting_property(self):
        """EDF never re-dispatches a later-deadline batch ahead of an
        earlier one of the same priority class, and never a lower
        class ahead of a higher one (randomised)."""
        rng = random.Random(17)
        edf = EdfFlush({"hot": 2, "cold": -1})
        for _ in range(200):
            waiting = [(rng.choice(["hot", "plain", "cold"]), (),
                        rng.uniform(0, 1e-3))
                       for _ in range(rng.randint(1, 12))]
            picked = waiting[edf.pick_waiting(waiting)]
            best_class = max(edf.priority(m) for m, _, _ in waiting)
            assert edf.priority(picked[0]) == best_class
            same_class = [f for m, _, f in waiting
                          if edf.priority(m) == best_class]
            assert picked[2] == min(same_class)

    def test_fifo_pick_waiting_is_fifo(self):
        waiting = [("b", (), 3.0), ("a", (), 1.0)]
        assert FifoFlush().pick_waiting(waiting) == 0

    def test_parked_batches_redispatch_in_edf_order(self):
        """A total outage parks every flush; recovery must drain the
        parked queue highest-priority first, earliest deadline first —
        observable as the dispatch (batch) order after recovery."""
        outage = Outage(replica=0, at=5e-6, until=1e-2)
        flush = EdfFlush({"toy3": 5})
        sim = toy_simulator(
            replicas=1, flush=flush,
            policy=TimeoutBatching(max_batch=4, max_wait=1e-6),
            failures=FailurePlan(outages=(outage,)))
        trace = sorted(
            toy_trace(8, gap=2e-6, model="toy", offset=4e-6)
            + toy_trace(8, gap=2e-6, model="toy2", start_id=50,
                        offset=4e-6)
            + toy_trace(8, gap=2e-6, model="toy3", start_id=100,
                        offset=4e-6),
            key=lambda r: r.arrival)
        result = sim.run(trace)
        parked = [b for b in result.batches if b.start >= outage.until]
        assert len(parked) >= 6  # the outage really parked the backlog
        # every high-priority parked batch dispatched before any other
        first_other = next(i for i, b in enumerate(parked)
                           if b.model != "toy3")
        assert all(b.model != "toy3" for b in parked[first_other:])
        # within each class, deadlines (flush instants) never regress
        for model in ("toy", "toy2", "toy3"):
            flushes = [b.flush for b in parked if b.model == model]
            assert flushes == sorted(flushes)

    def test_simultaneous_deadlines_fire_by_priority(self):
        """Two queues hitting the same flush deadline fire high class
        first under EDF; FIFO fires them in model-name order."""
        policy = TimeoutBatching(max_batch=8, max_wait=1e-4)
        trace = [Request(0, "toy", 1e-5), Request(1, "toy2", 1e-5),
                 Request(2, "toy", 5.0)]
        fifo = toy_simulator(replicas=1, policy=policy).run(trace)
        assert [b.model for b in fifo.batches[:2]] == ["toy", "toy2"]
        edf = toy_simulator(replicas=1, policy=policy,
                            flush=EdfFlush({"toy2": 1})).run(trace)
        assert [b.model for b in edf.batches[:2]] == ["toy2", "toy"]

    def test_drain_sweep_respects_priority(self):
        """Deadline-less leftovers drain high-priority queues first."""
        trace = sorted(toy_trace(2) + toy_trace(2, start_id=10,
                                                model="toy2"),
                       key=lambda r: r.arrival)
        fifo = toy_simulator(replicas=1).run(trace)
        assert [b.model for b in fifo.batches] == ["toy", "toy2"]
        edf = toy_simulator(replicas=1,
                            flush=EdfFlush({"toy2": 1})).run(trace)
        assert [b.model for b in edf.batches] == ["toy2", "toy"]


class TestWorkStealing:
    def imbalanced(self, **kwargs):
        """Round-robin over a fast/slow pool builds a backlog on the
        slow replica while the fast one idles — prime steal bait."""
        kwargs.setdefault("policy", TimeoutBatching(max_batch=4,
                                                    max_wait=1e-6))
        return ServingSimulator(
            accelerators=[make_smart(), make_tpu()],
            dispatch="round_robin",
            networks={"toy": TOY, "toy2": TOY2, "toy3": TOY3},
            **kwargs)

    def test_steals_happen_and_conserve_requests(self):
        """The conservation property: stealing never loses nor
        duplicates a request, whatever it rebalances."""
        sim = self.imbalanced(steal=WorkStealPolicy(tick=2e-7,
                                                    max_steals=4))
        n = 160
        trace = toy_trace(n, gap=5e-8)
        result = sim.run(trace)
        assert result.stolen > 0
        assert result.to_row()["stolen"] == result.stolen
        # conservation: one finite completion per request, and the
        # served batches partition the trace (no loss, no duplicates)
        assert len(result.latencies) == n
        assert all(l != float("inf") for l in result.latencies)
        assert sum(b.size for b in result.batches) == n

    def test_stealing_is_deterministic(self):
        sim_a = self.imbalanced(steal=WorkStealPolicy(tick=2e-7))
        sim_b = self.imbalanced(steal=WorkStealPolicy(tick=2e-7))
        trace = toy_trace(120, gap=5e-8)
        a, b = sim_a.run(trace), sim_b.run(trace)
        assert a.latencies == b.latencies
        assert a.stolen == b.stolen

    def test_stealing_cuts_tail_latency_on_imbalance(self):
        trace = toy_trace(160, gap=5e-8)
        plain = self.imbalanced().run(trace)
        stolen = self.imbalanced(
            steal=WorkStealPolicy(tick=2e-7, max_steals=4)).run(trace)
        assert stolen.stolen > 0
        assert stolen.latency_percentile(95) < \
            plain.latency_percentile(95)

    def test_steal_of_a_victims_only_batch_rolls_it_back(
            self, monkeypatch):
        """A scale-up's fresh replica gets a batch it cannot start
        before its warm-up ends; at the next tick that is the whole
        backlog of the busiest replica, and the idle original takes
        it.  The victim's backlog is then empty (``_pop_tail`` returns
        False), so the engine rolls it back to idle now, with the
        weights of its last completed batch, and no request is lost."""
        rolled, pop_tail = [], ClusterEngine._pop_tail
        work_steal = ClusterEngine._work_steal

        def spy_pop_tail(engine, replica):
            kept = pop_tail(engine, replica)
            if not kept:
                rolled.append([replica, replica.free_at])
            return kept

        def spy_work_steal(engine, now):
            new = len(rolled)
            work_steal(engine, now)
            for entry in rolled[new:]:
                victim = entry[0]
                entry += [now, victim.free_at, victim.last_model,
                          victim.done_model]

        monkeypatch.setattr(ClusterEngine, "_pop_tail", spy_pop_tail)
        monkeypatch.setattr(ClusterEngine, "_work_steal", spy_work_steal)
        scale = ReactiveScalePolicy(min_replicas=1, max_replicas=2,
                                    high_queue=1, low_queue=0,
                                    tick=1e-7, warmup=8e-7, cooldown=0.0)
        n = 40
        result = ServingSimulator(
            make_smart(), networks={"toy": TOY},
            policy=FixedSizeBatching(batch_size=4),
            dispatch="round_robin", autoscale=scale,
            steal=WorkStealPolicy(max_steals=1),
        ).run(toy_trace(n, gap=1e-7))
        assert rolled and result.stolen >= len(rolled)
        for victim, scheduled, now, free_at, last_model, done_model \
                in rolled:
            assert victim.index == 1  # the scaled-up replica
            assert scheduled > now  # it was booked into the future
            assert free_at == now
            assert last_model == done_model
        assert len(result.latencies) == n
        assert all(l != float("inf") for l in result.latencies)
        assert sum(b.size for b in result.batches) == n

    def test_never_steals_started_batches(self):
        """A stolen batch must not have started on its victim: every
        surviving batch's start respects its replica's prior done
        times (the schedule stays physically consistent)."""
        sim = self.imbalanced(steal=WorkStealPolicy(tick=2e-7,
                                                    max_steals=4))
        result = sim.run(toy_trace(160, gap=5e-8))
        by_replica = {}
        for batch in result.batches:
            by_replica.setdefault(batch.replica, []).append(batch)
        for batches in by_replica.values():
            batches.sort(key=lambda b: b.start)
            for earlier, later in zip(batches, batches[1:]):
                assert later.start >= earlier.done - 1e-18

    def test_works_with_autoscaler_sharing_ticks(self):
        autoscale = ReactiveScalePolicy(min_replicas=1, max_replicas=3,
                                        high_queue=4, low_queue=1,
                                        tick=5e-7, warmup=2e-6,
                                        cooldown=1e-6)
        sim = toy_simulator(replicas=1, dispatch="least_loaded",
                            policy=TimeoutBatching(max_batch=4,
                                                   max_wait=1e-6),
                            autoscale=autoscale,
                            steal=WorkStealPolicy())
        result = sim.run(toy_trace(150, gap=3e-8))
        assert result.peak_replicas > 1  # scaling still works
        assert all(l != float("inf") for l in result.latencies)


class TestForecastScaling:
    def test_holt_projects_a_rising_trend_ahead(self):
        policy = ForecastScalePolicy(mode="holt", alpha=0.5, beta=0.5,
                                     horizon=5, capacity_rps=1000.0)
        policy.reset()
        for arrivals in range(10, 110, 10):  # steadily rising rate
            policy.decide(0.0, 0, 1, None, arrivals, 1.0)
        assert policy.forecast > 100.0  # leads the latest observation

    def test_ewma_smoothes_without_trend(self):
        policy = ForecastScalePolicy(mode="ewma", alpha=0.5,
                                     capacity_rps=1000.0)
        policy.reset()
        for arrivals in (100, 100, 100):
            policy.decide(0.0, 0, 1, None, arrivals, 1.0)
        assert policy.forecast == pytest.approx(100.0)

    def test_decide_tracks_desired_pool(self):
        policy = ForecastScalePolicy(min_replicas=1, max_replicas=8,
                                     mode="ewma", alpha=1.0,
                                     target_utilization=0.5,
                                     capacity_rps=100.0)
        policy.reset()
        # 300 req/s at 50% utilisation of 100 rps replicas -> 6 wanted
        assert policy.decide(0.0, 0, 1, None, 300, 1.0) == 1
        assert policy.decide(0.0, 0, 6, None, 300, 1.0) == 0
        assert policy.decide(0.0, 0, 8, None, 300, 1.0) == -1

    def test_uncalibrated_forecast_fails_fast(self):
        engine = flat_engine(autoscale=ForecastScalePolicy())
        with pytest.raises(ConfigError):
            engine.run(toy_trace(4))

    def test_simulator_calibrates_from_the_trace_mix(self):
        policy = ForecastScalePolicy(min_replicas=1, max_replicas=4)
        sim = toy_simulator(replicas=1, autoscale=policy,
                            policy=TimeoutBatching(max_batch=4,
                                                   max_wait=1e-6))
        sim.run(toy_trace(60, gap=1e-7))
        assert policy.capacity_rps is not None
        assert policy.capacity_rps > 0
        assert not policy.capacity_pinned

    def test_forecast_scales_ahead_on_toy_wave(self):
        policy = ForecastScalePolicy(min_replicas=1, max_replicas=4,
                                     mode="holt", tick=5e-7,
                                     warmup=2e-6,
                                     target_utilization=0.6)
        sim = toy_simulator(replicas=1, dispatch="least_loaded",
                            policy=TimeoutBatching(max_batch=4,
                                                   max_wait=1e-6),
                            autoscale=policy)
        result = sim.run(toy_trace(200, gap=2e-8))
        assert result.peak_replicas > 1
        assert any(a == "up" for _, a in result.scale_events)

    def test_forecast_beats_reactive_p95_on_diurnal(self):
        """The committed acceptance row: predictive autoscaling must
        attain strictly more of the SLO than reactive p95 scaling on
        the diurnal scenario (same trace, same SLO, same bounds) —
        and no worse attainment-per-joule."""
        rows = {r["scale"]: r for r in serving_forecast(requests=1500)}
        reactive = rows["reactive-p95"]
        for mode in ("ewma", "holt"):
            assert rows[mode]["slo_attain"] > reactive["slo_attain"]
            assert rows[mode]["attain_per_j"] >= reactive["attain_per_j"]
        # the predictive pool really moved (it scaled, not overprovisioned)
        assert rows["holt"]["replicas_peak"] > rows["holt"]["replicas_low"]

    def test_serving_forecast_registered(self):
        from repro.runtime import registry
        assert "serving_forecast" in registry.names()


class TestSwitchCharge:
    def test_model_switch_charges_deploy_once(self):
        """Alternating models on one replica pay the switch charge on
        every model change; repeats of one model never do."""
        switch = 7e-6
        engine = flat_engine(service=1e-6, switch=switch)
        trace = []
        for i in range(4):  # toy,toy / toy2,toy2 / toy,toy / toy2,toy2
            model = "toy" if i % 2 == 0 else "toy2"
            trace.append(Request(2 * i, model, (i + 1) * 1e-9))
            trace.append(Request(2 * i + 1, model, (i + 1) * 1e-9))
        run = engine.run(trace)
        services = [b.done - b.start for b in run.batches]
        # first batch: cold array, no charge; then every batch switches
        assert services[0] == pytest.approx(1e-6)
        assert services[1:] == pytest.approx([1e-6 + switch] * 3)

    def test_same_model_back_to_back_is_uncharged(self):
        engine = flat_engine(service=1e-6, switch=7e-6)
        run = engine.run(toy_trace(8, gap=1e-9))
        assert [b.done - b.start for b in run.batches] == \
            pytest.approx([1e-6] * 4)

    def test_no_switch_fn_means_no_charge(self):
        engine = flat_engine(service=1e-6, switch=None)
        trace = [Request(0, "toy", 1e-9), Request(1, "toy", 2e-9),
                 Request(2, "toy2", 3e-9), Request(3, "toy2", 4e-9)]
        run = engine.run(trace)
        assert [b.done - b.start for b in run.batches] == \
            pytest.approx([1e-6, 1e-6])

    def test_shared_replica_contention_shows_in_simulator(self):
        """Two models forced onto one replica cost more than the same
        workloads on separate replicas beyond the queueing effect —
        the weight-deployment contention the ROADMAP called out."""
        policy = FixedSizeBatching(batch_size=4)
        interleaved = sorted(
            toy_trace(8, gap=1e-3)
            + toy_trace(8, gap=1e-3, model="toy2", start_id=100,
                        offset=5e-4),
            key=lambda r: r.arrival)
        shared = toy_simulator(replicas=1, policy=policy)
        result = shared.run(interleaved)
        switched = [b for b in result.batches]
        # each batch alternates models, so every one after the first
        # includes its network's deploy total on top of batch latency
        cache = shared.cache
        for prev, batch in zip(switched, switched[1:]):
            assert prev.model != batch.model
            net = {"toy": TOY, "toy2": TOY2}[batch.model]
            expected = (cache.latency_total(make_smart(), net, 4)
                        + cache.deploy_total(make_smart(), net, 4))
            assert batch.done - batch.start == pytest.approx(expected)

    def test_recovered_replica_restarts_cold(self):
        """After an outage the array is power-cycled: the first batch
        back pays no switch charge even if the model differs."""
        switch = 7e-6
        outage_end = 1e-3
        engine = flat_engine(
            service=1e-6, switch=switch,
            failures=FailurePlan(outages=(
                Outage(replica=0, at=5e-9, until=outage_end),)))
        trace = [Request(0, "toy", 1e-9), Request(1, "toy", 2e-9),
                 Request(2, "toy2", 3e-9), Request(3, "toy2", 4e-9)]
        run = engine.run(trace)
        post = [b for b in run.batches if b.start >= outage_end]
        assert post  # work waited out the outage
        assert post[0].done - post[0].start == pytest.approx(1e-6)

    def test_deploy_total_matches_component_sum(self):
        cache = LayerMemoCache()
        acc = make_smart()
        total = cache.deploy_total(acc, TOY, 4)
        run = cache.simulate(acc, TOY, 4)
        assert total == pytest.approx(
            sum(l.deploy_time for l in run.layers))
        assert total == run.component_totals()["deploy"]
        assert total > 0


class TestPersistentMemo:
    def test_totals_round_trip_without_simulation(self):
        source = LayerMemoCache()
        acc = make_smart()
        latency = source.latency_total(acc, TOY, 4)
        energy = source.energy_total(acc, TOY, 4)
        deploy = source.deploy_total(acc, TOY, 4)
        rows = source.export_totals()
        assert len(rows) == 1

        warm = LayerMemoCache()
        assert warm.load_totals(rows) == 1
        assert warm.latency_total(make_smart(), TOY, 4) == latency
        assert warm.energy_total(make_smart(), TOY, 4) == energy
        assert warm.deploy_total(make_smart(), TOY, 4) == deploy
        # everything came from the seed: no layer was ever simulated
        assert warm.stats.misses == 0
        assert len(warm) == 0

    def test_export_carries_unused_seeds_forward(self):
        source = LayerMemoCache()
        source.latency_total(make_smart(), TOY, 4)
        source.energy_total(make_smart(), TOY, 4)
        rows = source.export_totals()

        warm = LayerMemoCache()
        warm.load_totals(rows)
        warm.latency_total(make_smart(), TOY2, 2)  # a different key
        warm.energy_total(make_smart(), TOY2, 2)
        re_exported = warm.export_totals()
        assert len(re_exported) == 2  # old seed + new work

    def test_corrupt_rows_are_skipped(self):
        cache = LayerMemoCache()
        assert cache.load_totals([["bad"], None, 7]) == 0
        # right arity, wrong types: still skipped, never raised
        assert cache.load_totals(
            [["a", "b", "not-an-int", "x", "y", "z"],
             ["a", "b", 4, 1.0, None, 3.0]]) == 0
        assert not cache._seeded

    def test_reference_refuses_non_stock_policies(self):
        """run_reference predates the seams: auditing a simulator
        with a custom scale/flush/admission/steal policy must raise a
        clean ConfigError, not crash or silently ignore the policy."""
        from repro.serving import DepthAdmission
        from repro.serving.reference import run_reference

        class EagerScale(ReactiveScalePolicy):
            def decide(self, time, in_system, alive, window, arrivals,
                       dt):
                return 1

        trace = toy_trace(4)
        for kwargs in (
            {"autoscale": ForecastScalePolicy()},
            {"autoscale": EagerScale()},
            {"flush": EdfFlush({"toy": 1})},
            {"admission": DepthAdmission(depth=4)},
            {"steal": WorkStealPolicy()},
        ):
            with pytest.raises(ConfigError):
                run_reference(toy_simulator(**kwargs), trace)

    def test_warm_start_matches_cold_results(self, tmp_path):
        """A --persist-memo warm run must reproduce the cold run's
        per-request floats exactly (JSON round-trips floats)."""
        from repro.runtime import ResultCache
        store = ResultCache(cache_dir=tmp_path)
        trace = toy_trace(40)

        cold_sim = toy_simulator(replicas=2)
        cold = cold_sim.run(trace)
        assert store_persistent_memo(cold_sim.cache, store) > 0

        warm_cache = LayerMemoCache()
        assert load_persistent_memo(warm_cache, store) > 0
        warm = toy_simulator(replicas=2, cache=warm_cache).run(trace)
        assert warm.latencies == cold.latencies
        assert warm.energy_per_request == cold.energy_per_request
        assert warm_cache.stats.misses == 0  # not one layer simulated

    def test_load_is_a_noop_when_pool_absent(self, tmp_path):
        from repro.runtime import ResultCache
        assert load_persistent_memo(
            LayerMemoCache(), ResultCache(cache_dir=tmp_path)) == 0
