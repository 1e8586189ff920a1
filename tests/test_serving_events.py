"""Tests for the discrete-event engine and its control plane.

Covers the event-ordering edge cases the retired arrival-driven loop
could not express, plus autoscaling, failure injection with batch
re-dispatch, admission control and heterogeneous replica pools.
"""

import gc
import heapq

import pytest

from repro.core import make_smart, make_tpu
from repro.errors import ConfigError
from repro.serving import (
    EventKind,
    EventQueue,
    FailurePlan,
    FixedSizeBatching,
    LayerMemoCache,
    LeastLoadedDispatch,
    Outage,
    ReactiveScalePolicy,
    ServingSimulator,
    SloPolicy,
    TimeoutBatching,
    get_scenario,
    make_policy,
)
from repro.serving.workload import Request, stream_trace, trace_span
from repro.systolic.layers import ConvLayer, Network

TOY = Network("toy", (
    ConvLayer("c1", 16, 16, 8, 16, 3, 3, padding=1),
    ConvLayer("c2", 16, 16, 16, 16, 3, 3, padding=1),
    ConvLayer("fc", 1, 1, 4096, 10, 1, 1, kind="fc"),
))
TOY2 = Network("toy2", TOY.layers[:2])


def toy_simulator(**kwargs):
    kwargs.setdefault("policy", FixedSizeBatching(batch_size=4))
    kwargs.setdefault("networks", {"toy": TOY, "toy2": TOY2})
    return ServingSimulator(make_smart(), **kwargs)


def toy_trace(n, gap=1e-5, model="toy", start_id=0):
    return [Request(start_id + i, model, (i + 1) * gap) for i in range(n)]


def pop(q):
    """Pop the earliest raw ``(time, kind, key, seq, payload)`` entry,
    the way the engine's run loop does."""
    return heapq.heappop(q._heap)


class TestEventQueue:
    def test_time_order(self):
        q = EventQueue()
        q.push(2.0, EventKind.ARRIVAL)
        q.push(1.0, EventKind.BATCH_DONE)
        assert pop(q)[0] == 1.0
        assert pop(q)[0] == 2.0

    def test_kind_priority_at_equal_time(self):
        """A flush due exactly at an arrival fires first; the drain
        runs after everything else — the retired loop's semantics."""
        q = EventQueue()
        q.push(1.0, EventKind.DRAIN)
        q.push(1.0, EventKind.ARRIVAL)
        q.push(1.0, EventKind.FLUSH, key="m")
        q.push(1.0, EventKind.BATCH_DONE)
        kinds = [pop(q)[1] for _ in range(4)]
        assert kinds == [EventKind.FLUSH, EventKind.ARRIVAL,
                         EventKind.BATCH_DONE, EventKind.DRAIN]

    def test_simultaneous_flushes_fire_in_model_order(self):
        q = EventQueue()
        q.push(1.0, EventKind.FLUSH, key="zebra", payload="z")
        q.push(1.0, EventKind.FLUSH, key="alex", payload="a")
        assert pop(q)[-1] == "a"
        assert pop(q)[-1] == "z"

    def test_insertion_order_breaks_remaining_ties(self):
        q = EventQueue()
        q.push(1.0, EventKind.ARRIVAL, payload=1)
        q.push(1.0, EventKind.ARRIVAL, payload=2)
        assert [pop(q)[-1], pop(q)[-1]] == [1, 2]

    def test_an_event_pushed_late_pops_where_a_push_would(self):
        """``next_seq`` takes the seq at schedule time, so an event
        held off the heap and pushed after later-scheduled ones still
        pops in schedule order at equal (time, kind, key)."""
        q = EventQueue()
        seq = q.next_seq()
        q.push(1.0, EventKind.BATCH_DONE, payload="pushed")
        q.push(1.0, EventKind.ARRIVAL, payload="arrival")
        heapq.heappush(q._heap, (1.0, int(EventKind.BATCH_DONE), "", seq,
                                 "held"))
        assert [pop(q)[-1] for _ in range(3)] == ["arrival", "held",
                                                   "pushed"]
        assert seq == 0 and q._seq == 3

    def test_thousands_of_same_timestamp_events_pop_stably(self):
        """Tie-break stress: with every event at the same instant, the
        pop order must be exactly a stable sort by (kind, key,
        insertion) — the raw-tuple heap may not perturb a single tie."""
        import random

        rng = random.Random(42)
        kinds = list(EventKind)
        pushed = []
        q = EventQueue()
        for i in range(5000):
            kind = rng.choice(kinds)
            key = rng.choice(["", "alex", "m", "zebra"])
            q.push(1.0, kind, key=key, payload=i)
            pushed.append((kind, key, i))
        expected = sorted(pushed, key=lambda p: (int(p[0]), p[1], p[2]))
        popped = [pop(q) for _ in range(5000)]
        assert [(kind, key, payload)
                for _, kind, key, _, payload in popped] == expected
        assert all(entry[0] == 1.0 for entry in popped)
        assert not q._heap


class TestLatencyWindow:
    def test_matches_percentile_with_eviction(self):
        """The incremental window must agree with a full re-sort of
        the equivalent deque at every step, across evictions."""
        import random
        from collections import deque

        from repro.eval.report import percentile
        from repro.serving.events import _LatencyWindow

        rng = random.Random(9)
        window = _LatencyWindow(32)
        shadow = deque(maxlen=32)
        for _ in range(500):
            value = rng.choice([rng.uniform(0, 1), rng.choice([0.25, 0.5])])
            window.append(value)
            shadow.append(value)
            for q in (0.0, 50.0, 95.0, 99.0, 100.0):
                assert window.percentile(q) == percentile(shadow, q)

    def test_empty_window_rejected(self):
        from repro.serving.events import _LatencyWindow

        with pytest.raises(ConfigError):
            _LatencyWindow(0)
        with pytest.raises(ConfigError):
            _LatencyWindow(4).percentile(95)


class TestEventOrderingEdgeCases:
    def test_deadline_strictly_between_arrivals_flushes_at_instant(self):
        """A timeout deadline landing strictly between two arrivals
        must flush at its own instant, not at the later arrival."""
        policy = TimeoutBatching(max_batch=8, max_wait=1e-4)
        sim = toy_simulator(policy=policy)
        deadline = 2e-5 + 1e-4
        trace = [Request(0, "toy", 0.0), Request(1, "toy", 2e-5),
                 Request(2, "toy", 5.0)]  # deadline << second gap
        result = sim.run(trace)
        first = result.batches[0]
        assert first.size == 2
        assert first.flush == pytest.approx(1e-4)  # head's own budget
        assert first.start == pytest.approx(1e-4)  # replica was idle
        assert deadline < 5.0  # sanity: strictly between arrivals

    def test_fixed_policy_stragglers_drain_deterministically(self):
        """Leftovers of every model drain at the last arrival, in
        stable (sorted-model) order, identically across runs."""
        trace = (toy_trace(5, model="toy")
                 + toy_trace(3, gap=1.1e-5, model="toy2", start_id=100))
        end = max(r.arrival for r in trace)
        first = toy_simulator().run(trace)
        second = toy_simulator().run(trace)
        stragglers = [b for b in first.batches if b.size < 4]
        assert [b.model for b in stragglers] == ["toy", "toy2"]
        assert all(b.flush == end for b in stragglers)
        assert first.latencies == second.latencies
        assert [b.replica for b in first.batches] == [
            b.replica for b in second.batches
        ]

    def test_simultaneous_cross_model_arrivals_stable_and_cacheproof(self):
        """Arrivals at the same instant across models dispatch in a
        stable order; cached and uncached paths are byte-identical."""
        trace = []
        for i in range(8):
            trace.append(Request(2 * i, "toy", 1e-5))
            trace.append(Request(2 * i + 1, "toy2", 1e-5))
        cached = toy_simulator(replicas=2).run(trace)
        uncached = toy_simulator(
            replicas=2, cache=LayerMemoCache(enabled=False)
        ).run(trace)
        # both queues fill at the same instant; "toy" saw its 4th
        # request first in trace order, so it flushes first
        assert [b.model for b in cached.batches] == [
            "toy", "toy2", "toy", "toy2"
        ]
        assert cached.latencies == uncached.latencies
        assert cached.energy_per_request == uncached.energy_per_request
        assert [b.replica for b in cached.batches] == [
            b.replica for b in uncached.batches
        ]


class TestUnsortedTraces:
    def test_engine_drains_at_the_true_last_arrival(self):
        """Regression: the end-of-trace drain was scheduled at the
        *input-order* last arrival, so an unsorted trace under a
        deadline-less policy left late requests queued forever."""
        from repro.serving import ClusterEngine

        engine = ClusterEngine(
            [make_smart()], FixedSizeBatching(batch_size=4),
            "round_robin",
            service_fn=lambda acc, model, size: 1e-6,
            energy_fn=lambda acc, model, size: 1e-9,
        )
        trace = [Request(0, "toy", 0.0), Request(2, "toy", 2e-3),
                 Request(1, "toy", 1e-3)]  # out of time order
        run = engine.run(trace)
        assert set(run.done) == {0, 1, 2}
        assert run.batches[-1].flush == pytest.approx(2e-3)


def _flat_engine(**kwargs):
    """A two-replica engine over constant-rate stub models."""
    from repro.serving import ClusterEngine

    return ClusterEngine(
        [make_smart()] * 2, FixedSizeBatching(batch_size=2),
        "round_robin",
        service_fn=lambda acc, model, size: 3e-6,
        energy_fn=lambda acc, model, size: 1e-9, **kwargs,
    )


class TestCompletionFold:
    """``ClusterEngine.run(..., fold=)`` hands every completed batch to
    the fold as it completes, and then keeps none of its requests."""

    N = 3_000
    #: name -> (scenario, simulator options); the second is the
    #: failure-retry workload's configuration at a 3 ms deadline, so
    #: its retries really fire at this length.
    CELLS = {
        "plain": ("bursty", dict(replicas=2, dispatch="least_loaded")),
        "retry": ("failure-storm", dict(
            replicas=6, dispatch="shard", slo=SloPolicy(target=3e-3),
            failures=FailurePlan(count=3, seed=7),
            resilience="retry:timeout_us=3000,budget=1")),
    }

    @staticmethod
    def live_requests() -> int:
        """Reachable :class:`Request` objects (slots, no weakref:
        counted through the collector, once garbage is collected)."""
        gc.collect()
        return sum(type(obj) is Request for obj in gc.get_objects())

    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_a_folded_run_keeps_no_request(self, cell):
        # other tests' module-level traces stay alive throughout
        before = self.live_requests()
        name, options = self.CELLS[cell]
        sim = ServingSimulator("SMART", policy=make_policy("timeout"),
                               **options)
        scenario = get_scenario(name)
        rate = scenario.load * sim.capacity_rps(scenario)
        networks = {m: sim.network(m) for m in scenario.mix.models()}
        span = trace_span(scenario, rate, self.N, 1)
        logged = sim.make_engine(networks).run(
            stream_trace(scenario, rate, self.N, 1), span=span)
        # the fold keeps ids, never a request
        folded = []
        engine = sim.make_engine(networks)
        run = engine.run(
            stream_trace(scenario, rate, self.N, 1), span=span,
            fold=lambda entry: folded.append(
                (entry[0], [r.request_id for r in entry[1]])))
        assert folded == [(record, [r.request_id for r in answered])
                          for record, answered in logged.log]
        assert run.log == [] and run.done == {}
        assert run.batches == logged.batches
        assert bool(run.retries) == (cell == "retry")
        del logged
        # ``engine`` and ``run`` are still referenced here
        assert self.live_requests() == before


class TestRunInputContract:
    """What ``ClusterEngine.run`` accepts, for a materialised tuple and
    for a one-pass iterator alike."""

    SOURCES = {"tuple": tuple, "iterator": iter}
    TRACE = tuple(toy_trace(6, gap=1e-5))  # arrivals 1e-5 .. 6e-5

    @pytest.fixture(params=sorted(SOURCES))
    def source(self, request):
        return self.SOURCES[request.param]

    def test_empty_trace_rejected(self, source):
        with pytest.raises(ConfigError, match="empty trace"):
            _flat_engine().run(source(()))

    def test_out_of_order_trace(self, source):
        """A sequence is sorted before serving; an iterator cannot be
        and must refuse rather than serve out of time order."""
        shuffled = self.TRACE[3:] + self.TRACE[:3]
        if source is iter:
            span = (self.TRACE[0].arrival, self.TRACE[-1].arrival)
            with pytest.raises(ConfigError, match="time-ordered"):
                _flat_engine().run(source(shuffled), span=span)
        else:
            served = _flat_engine().run(source(shuffled))
            ordered = _flat_engine().run(self.TRACE)
            assert served.done == ordered.done
            assert served.batches == ordered.batches

    def test_arrival_before_span_start_rejected(self, source):
        span = (2e-5, 1e-3)  # the first arrival (1e-5) lands before
        with pytest.raises(ConfigError, match="span"):
            _flat_engine().run(source(self.TRACE), span=span)

    def test_arrival_after_span_end_rejected(self, source):
        span = (0.0, 4e-5)  # arrivals 5e-5 and 6e-5 land after
        with pytest.raises(ConfigError, match="span"):
            _flat_engine().run(source(self.TRACE), span=span)

    def test_stream_without_span_rejected(self):
        """A stream cannot know its last arrival up front, so it must
        bring its span: the engine refuses it after the one look-ahead
        pull, before any event runs."""
        pulled = []

        def stream():
            for request in self.TRACE:
                pulled.append(request)
                yield request

        with pytest.raises(ConfigError, match="needs its span"):
            _flat_engine().run(stream())
        assert len(pulled) == 1

    def test_failure_plan_without_span(self, source):
        """Outages are sampled over the horizon before the first
        arrival: a tuple knows its own first-last interval, an
        iterator must be told."""
        plan = FailurePlan(count=2, downtime_frac=0.2, seed=3)
        if source is iter:
            with pytest.raises(ConfigError, match="span"):
                _flat_engine(failures=plan).run(source(self.TRACE))
            return
        first, last = self.TRACE[0].arrival, self.TRACE[-1].arrival
        run = _flat_engine(failures=plan).run(source(self.TRACE))
        pinned = _flat_engine(failures=plan).run(iter(self.TRACE),
                                                 span=(first, last))
        assert run.done == pinned.done
        assert run.batches == pinned.batches
        assert run.replica_trace == pinned.replica_trace
        outages = plan.resolve(first, last, 2)
        downs = [t for t, _ in run.replica_trace[1:]]
        assert downs == sorted(
            [o.at for o in outages] + [o.until for o in outages])


class TestAutoscaling:
    # time constants sized to the toy network's ~0.4us batch service
    POLICY = ReactiveScalePolicy(min_replicas=1, max_replicas=4,
                             high_queue=6, low_queue=1,
                             tick=5e-7, warmup=2e-6, cooldown=1e-6)

    def overloaded(self, **kwargs):
        sim = toy_simulator(replicas=1, dispatch="least_loaded",
                            policy=TimeoutBatching(max_batch=4,
                                                   max_wait=1e-6),
                            **kwargs)
        # 200 requests arriving far faster than one replica serves
        return sim, toy_trace(200, gap=2e-8)

    def test_scales_up_under_queue_pressure(self):
        sim, trace = self.overloaded(autoscale=self.POLICY)
        result = sim.run(trace)
        assert result.peak_replicas > 1
        assert any(a == "up" for _, a in result.scale_events)
        assert result.to_row()["replicas_peak"] == result.peak_replicas

    def test_warmup_delays_first_service(self):
        sim, trace = self.overloaded(autoscale=self.POLICY)
        result = sim.run(trace)
        ups = [t for t, a in result.scale_events if a == "up"]
        assert ups
        for batch in result.batches:
            if batch.replica >= 1:  # an autoscaled replica
                born = min(t for t in ups)
                assert batch.start >= born + self.POLICY.warmup

    def test_scales_back_down_when_quiet(self):
        """A long quiet tail retires the extra replicas to min."""
        sim, trace = self.overloaded(autoscale=self.POLICY)
        # quiet tail: one straggler model-toy request much later
        tail = [Request(1000, "toy", 1e-3)]
        result = sim.run(trace + tail)
        assert any(a == "down" for _, a in result.scale_events)
        assert result.low_replicas <= result.peak_replicas
        assert result.replica_trace[-1][1] <= result.peak_replicas

    def test_faster_than_static_single_replica(self):
        sim, trace = self.overloaded(autoscale=self.POLICY)
        static_sim, _ = self.overloaded()
        scaled = sim.run(trace)
        static = static_sim.run(trace)
        assert scaled.latency_percentile(95) < \
            static.latency_percentile(95)

    def test_oscillating_load_revives_retired_replicas(self):
        """Regression: every scale-up appended a brand-new Replica, so
        burst/quiet cycles grew the pool list (which every dispatch
        scans) without bound; a scale-up must revive a retired replica
        instead, keeping indices within the policy's max."""
        policy = ReactiveScalePolicy(min_replicas=1, max_replicas=2,
                                 high_queue=4, low_queue=1,
                                 tick=5e-7, warmup=1e-6, cooldown=1e-6)
        sim = toy_simulator(replicas=1, dispatch="least_loaded",
                            policy=TimeoutBatching(max_batch=4,
                                                   max_wait=1e-6),
                            autoscale=policy)
        trace, rid = [], 0
        for cycle in range(12):  # bursts split by long quiet gaps
            base = cycle * 1e-3
            for i in range(24):
                trace.append(Request(rid, "toy", base + i * 2e-8))
                rid += 1
        result = sim.run(trace)
        ups = sum(1 for _, a in result.scale_events if a == "up")
        downs = sum(1 for _, a in result.scale_events if a == "down")
        assert ups >= 3 and downs >= 2  # the pool really oscillated
        assert all(b.replica < policy.max_replicas
                   for b in result.batches)
        assert result.peak_replicas <= policy.max_replicas

    def test_scale_down_counts_live_batches_only(self):
        """Cancelled ids left inside a backlog are no work: the replica
        retired is the one with the fewest *live* batches, not the
        shortest ``pending`` list."""
        engine = _flat_engine(autoscale=self.POLICY)
        engine._prepare(0.0)
        busy, light = engine._replicas
        busy.pending = [0, 1, 2]
        light.pending = [3, 4, 5, 6]  # live head and tail, 2 cancelled
        light.dead = 2
        assert (busy.backlog, light.backlog) == (3, 2)
        engine._scale_down(0.0, [busy, light])
        assert light.draining and not busy.draining

    def test_p95_metric_scales(self):
        policy = ReactiveScalePolicy(min_replicas=1, max_replicas=4,
                                 metric="p95", target_p95=1e-6,
                                 tick=5e-7, warmup=2e-6, cooldown=1e-6)
        sim, trace = self.overloaded(autoscale=policy)
        result = sim.run(trace)
        assert result.peak_replicas > 1

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            ReactiveScalePolicy(min_replicas=0)
        with pytest.raises(ConfigError):
            ReactiveScalePolicy(min_replicas=4, max_replicas=2)
        with pytest.raises(ConfigError):
            ReactiveScalePolicy(metric="cpu")
        with pytest.raises(ConfigError):
            ReactiveScalePolicy(metric="p95")  # needs target_p95
        with pytest.raises(ConfigError):
            ReactiveScalePolicy(high_queue=4, low_queue=6)
        with pytest.raises(ConfigError):
            ReactiveScalePolicy(tick=0.0)


class TestLivePool:
    """The replicas a dispatch policy picks from are the engine's live
    pool: rebuilt at every outage, recovery and scale action, and read
    only."""

    @staticmethod
    def scaling():
        """Blocks of 20 slow and 20 fast arrivals on a pool of 1 to 3:
        every scale branch fires (retire at once or by draining;
        cancel a retirement, revive a retired replica, or append)."""
        policy = ReactiveScalePolicy(min_replicas=1, max_replicas=3,
                                     high_queue=8, low_queue=6,
                                     tick=1e-7, warmup=5e-7,
                                     cooldown=1e-7)
        arrivals, t = [], 0.0
        for i in range(400):
            t += 2e-8 if (i // 20) % 2 else 2e-7
            arrivals.append(t)
        return dict(autoscale=policy), arrivals

    @staticmethod
    def outage():
        """Replica 0 fails under a deep backlog and recovers while
        arrivals still come."""
        outage = Outage(replica=0, at=2e-6, until=4e-6)
        return (dict(failures=FailurePlan(outages=(outage,))),
                [(i + 1) * 2e-8 for i in range(400)])

    @pytest.mark.parametrize("cell", ["scaling", "outage"])
    def test_candidates_follow_every_pool_transition(self, cell):
        pools = []

        class Checking(LeastLoadedDispatch):
            def pick(self, engine, model, size, floor, candidates):
                assert type(candidates) is tuple
                assert candidates == tuple(
                    r for r in engine._replicas
                    if r.up and not r.draining)
                pools.append(tuple(r.index for r in candidates))
                return super().pick(engine, model, size, floor,
                                    candidates)

        options, arrivals = getattr(self, cell)()
        sim = toy_simulator(replicas=2, dispatch=Checking(),
                            policy=TimeoutBatching(max_batch=4,
                                                   max_wait=1e-6),
                            **options)
        sim.run([Request(i, "toy", t) for i, t in enumerate(arrivals)])
        if cell == "scaling":
            assert {(0,), (0, 1, 2)} <= set(pools)
        else:
            # both, then the survivor alone, then both again
            changes = [pool for k, pool in enumerate(pools)
                       if k == 0 or pool != pools[k - 1]]
            assert changes == [(0, 1), (1,), (0, 1)]


class TestFailureInjection:
    def test_inflight_batches_redispatch_to_survivors(self):
        # a burst builds a deep backlog on both replicas, then replica
        # 0 dies mid-backlog with batches running and scheduled
        outage = Outage(replica=0, at=5e-6, until=2e-5)
        sim = toy_simulator(replicas=2, dispatch="least_loaded",
                            failures=FailurePlan(outages=(outage,)))
        trace = toy_trace(200, gap=2e-8)
        result = sim.run(trace)
        assert result.redispatched >= 1
        assert result.wasted_energy > 0
        # every request still completes, exactly once
        assert len(result.latencies) == 200
        assert all(l != float("inf") for l in result.latencies)
        assert sum(b.size for b in result.batches) == 200
        # no served batch overlaps the outage on the dead replica
        for batch in result.batches:
            if batch.replica == 0:
                assert batch.done <= outage.at or batch.start >= outage.until
        # the trajectory dips to 1 and recovers to 2
        counts = [n for _, n in result.replica_trace]
        assert min(counts) == 1
        assert counts[-1] == 2

    def test_total_outage_parks_work_until_recovery(self):
        outage = Outage(replica=0, at=1e-5, until=3e-3)
        sim = toy_simulator(replicas=1,
                            failures=FailurePlan(outages=(outage,)))
        trace = toy_trace(12, gap=2e-6)
        result = sim.run(trace)
        assert all(l != float("inf") for l in result.latencies)
        # whatever was flushed during the outage waited for recovery
        late = [b for b in result.batches if b.flush >= outage.at]
        assert late
        assert all(b.start >= outage.until for b in late)

    def test_sampled_plan_is_deterministic(self):
        plan = FailurePlan(count=2, downtime_frac=0.2, seed=9)
        sim_a = toy_simulator(replicas=3, failures=plan)
        sim_b = toy_simulator(replicas=3, failures=plan)
        trace = toy_trace(80, gap=4e-6)
        assert sim_a.run(trace).latencies == sim_b.run(trace).latencies

    def test_failure_storm_scenario_carries_faults(self):
        from repro.serving import get_scenario
        assert get_scenario("failure-storm").faults > 0

    def test_scenario_faults_sample_from_the_run_seed(self):
        """Regression: the scenario-carried plan pinned seed 0, so
        sweeping the run seed varied the arrivals but replayed the
        same outage pattern every time."""
        sim = ServingSimulator("SMART", replicas=3,
                               policy=TimeoutBatching())
        dips_by_seed = []
        for seed in (1, 2):
            result = sim.run_scenario("failure-storm", 150, seed=seed)
            span = result.requests[-1].arrival - result.requests[0].arrival
            dips_by_seed.append(tuple(
                round((t - result.requests[0].arrival) / span, 3)
                for t, n in result.replica_trace[1:] if n < 3
            ))
        assert dips_by_seed[0] and dips_by_seed[1]
        assert dips_by_seed[0] != dips_by_seed[1]

    def test_overlapping_outages_merge_to_their_union(self):
        """Regression: with overlapping windows on one replica, the
        first RECOVER to pop would end every later window early — the
        replica must stay down for the union."""
        plan = FailurePlan(outages=(
            Outage(replica=0, at=1e-5, until=1e-4),
            Outage(replica=0, at=4e-5, until=7e-5),   # nested
            Outage(replica=0, at=9e-5, until=1.5e-4),  # overlaps tail
            Outage(replica=1, at=2e-5, until=3e-5),    # other replica
        ))
        resolved = plan.resolve(0.0, 1e-3, 2)
        assert resolved == (
            Outage(replica=0, at=1e-5, until=1.5e-4),
            Outage(replica=1, at=2e-5, until=3e-5),
        )
        # and the engine honours the union: nothing served on replica
        # 0 inside the merged window
        sim = toy_simulator(replicas=2, dispatch="least_loaded",
                            failures=plan)
        result = sim.run(toy_trace(200, gap=2e-8))
        for batch in result.batches:
            if batch.replica == 0:
                assert batch.done <= 1e-5 or batch.start >= 1.5e-4

    def test_recovery_does_not_resurrect_retired_replicas(self):
        """Regression: a RECOVER whose FAIL was skipped (the replica
        was already scaled down) must not force the replica back up —
        only the autoscaler may grant capacity it retired."""
        autoscale = ReactiveScalePolicy(min_replicas=1, max_replicas=2,
                                    high_queue=50, low_queue=2,
                                    tick=5e-7, warmup=2e-6,
                                    cooldown=1e-6)
        plan = FailurePlan(outages=(
            Outage(replica=1, at=1e-4, until=1.5e-4),
        ))
        sim = toy_simulator(replicas=2, dispatch="least_loaded",
                            policy=TimeoutBatching(max_batch=4,
                                                   max_wait=1e-6),
                            autoscale=autoscale, failures=plan)
        # light traffic: the autoscaler retires one replica long
        # before the outage window opens
        result = sim.run(toy_trace(40, gap=5e-7))
        assert any(a == "down" for _, a in result.scale_events)
        downs = [t for t, a in result.scale_events if a == "down"]
        assert downs[0] < 1e-4
        # after the retirement, nothing ever lifts the pool back up
        tail = [n for t, n in result.replica_trace if t >= downs[0]]
        assert tail and all(n == 1 for n in tail)

    def test_shard_pin_survives_other_replicas_failing(self):
        """Regression: shard hashed into the shrinking candidate list,
        remapping every model when any replica failed; the pin must
        stay on the model's healthy home replica."""
        import zlib
        home = zlib.crc32(b"toy") % 3
        other = (home + 1) % 3
        plan = FailurePlan(outages=(
            Outage(replica=other, at=3e-6, until=3e-5),
        ))
        sim = toy_simulator(replicas=3, dispatch="shard", failures=plan)
        result = sim.run(toy_trace(200, gap=2e-8))
        assert {b.replica for b in result.batches
                if b.model == "toy"} == {home}

    def test_plan_validation(self):
        with pytest.raises(ConfigError):
            FailurePlan(count=-1)
        with pytest.raises(ConfigError):
            FailurePlan(downtime_frac=1.5)
        with pytest.raises(ConfigError):
            Outage(replica=0, at=2.0, until=1.0)
        with pytest.raises(ConfigError):
            toy_simulator(failures=FailurePlan(
                outages=(Outage(replica=9, at=1e-5, until=2e-5),)
            )).run(toy_trace(4))


class TestAdmissionControl:
    def test_sheds_beyond_depth_and_reports_attainment(self):
        slo = SloPolicy(target=2e-4, shed_depth=8)
        sim = toy_simulator(replicas=1, slo=slo)
        result = sim.run(toy_trace(40, gap=2e-8))
        assert result.shed
        assert 0 < result.shed_rate < 1
        assert result.latencies[0] != float("inf")  # first always admitted
        for rid in result.shed:
            assert result.latencies[rid] == float("inf")
            assert result.energy_per_request[rid] == 0.0
        assert result.slo_attainment < 1.0
        row = result.to_row()
        assert row["shed_rate"] == pytest.approx(result.shed_rate)
        assert row["slo_attain"] == pytest.approx(result.slo_attainment)
        # percentiles are over served requests only
        assert result.latency_percentile(99) != float("inf")
        # energy is per *served* request: shed zeros must not deflate
        served = len(result.requests) - len(result.shed)
        assert row["energy_per_req_uj"] == pytest.approx(
            sum(result.energy_per_request) / served * 1e6
        )

    def test_no_shedding_without_depth(self):
        slo = SloPolicy(target=2e-4)
        result = toy_simulator(replicas=1, slo=slo).run(
            toy_trace(40, gap=2e-8))
        assert not result.shed
        assert 0.0 <= result.slo_attainment <= 1.0

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            SloPolicy(target=0.0)
        with pytest.raises(ConfigError):
            SloPolicy(target=1e-3, shed_depth=0)


class TestHeterogeneousPool:
    def test_mixed_pool_runs_and_reports_first_config(self):
        sim = toy_simulator(accelerators=[make_smart(), make_tpu()],
                            dispatch="fastest_finish")
        result = sim.run(toy_trace(24, gap=1e-5))
        assert sim.heterogeneous
        assert result.replicas == 2
        assert result.accelerator == make_smart().name
        assert all(l > 0 for l in result.latencies)

    def test_fastest_finish_prefers_faster_replica_when_idle(self):
        """With big gaps both replicas are idle at every flush, so
        every batch lands on whichever serves a batch quicker."""
        smart, tpu = make_smart(), make_tpu()
        sim = toy_simulator(accelerators=[tpu, smart],
                            dispatch="fastest_finish")
        result = sim.run(toy_trace(16, gap=5e-2))
        cache = sim.cache
        quicker = min(
            (0, 1),
            key=lambda i: cache.simulate([tpu, smart][i], TOY, 4).latency,
        )
        assert {b.replica for b in result.batches} == {quicker}

    def test_heterogeneous_capacity_sums_per_replica(self):
        from repro.serving import get_scenario
        scenario = get_scenario("steady")
        solo_smart = ServingSimulator(make_smart(), replicas=1)
        solo_tpu = ServingSimulator(make_tpu(), replicas=1,
                                    cache=solo_smart.cache)
        mixed = ServingSimulator(accelerators=[make_smart(), make_tpu()],
                                 cache=solo_smart.cache)
        assert mixed.capacity_rps(scenario) == pytest.approx(
            solo_smart.capacity_rps(scenario)
            + solo_tpu.capacity_rps(scenario)
        )

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigError):
            ServingSimulator(accelerators=[])


class TestExperimentHelpers:
    def test_parse_autoscale(self):
        from repro.serving.experiments import parse_autoscale
        policy = parse_autoscale("2:6")
        assert (policy.min_replicas, policy.max_replicas) == (2, 6)
        assert parse_autoscale("") is None
        p95 = parse_autoscale("1:4", target_p95_us=1500.0)
        assert p95.metric == "p95"
        assert p95.target_p95 == pytest.approx(1.5e-3)
        with pytest.raises(ConfigError):
            parse_autoscale("fast")

    def test_make_slo(self):
        from repro.serving.experiments import make_slo
        assert make_slo(0.0) is None
        policy = make_slo(1500.0, shed_depth=32)
        assert policy.target == pytest.approx(1.5e-3)
        assert policy.shed_depth == 32
        with pytest.raises(ConfigError):
            make_slo(0.0, shed_depth=32)

    def test_serving_slo_and_autoscale_targets_registered(self):
        from repro.runtime import registry
        names = registry.names()
        assert "serving_slo" in names
        assert "serving_autoscale" in names

    def test_serving_slo_rows(self):
        from repro.serving.experiments import serving_slo
        rows = serving_slo(scenario="overload", requests=150,
                           replicas=1, slo_us=1500.0, shed_depth=24,
                           seed=3)
        assert len(rows) == 1
        assert 0.0 <= rows[0]["slo_attain"] <= 1.0
        assert rows[0]["shed_depth"] == 24

    def test_serving_autoscale_rows(self):
        from repro.serving.experiments import serving_autoscale
        rows = serving_autoscale(scenario="bursty", requests=200,
                                 min_replicas=1, max_replicas=4, seed=3)
        assert len(rows) == 1
        assert rows[0]["replicas_peak"] >= rows[0]["replicas_low"]
        assert rows[0]["scale_ups"] >= 0
