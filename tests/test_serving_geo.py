"""Geo-distributed serving tier: exactness, routing, economics.

The geo contract mirrors the sharded one — equality, not
approximation.  A single-region fleet with zero interconnect delay
and stock policies is **bit-identical** to the plain
``ServingSimulator`` on every stock scenario x policy cell
(per-request latencies AND energies); multi-region runs are
deterministic, lose no requests, and the routing policies show their
designed behaviours (follow-the-sun chases the deepest night,
cheapest-joule respects the SLO and capacity headroom, spillover
stays home until saturated, storms reroute dark regions).
"""

import itertools
import json
import multiprocessing
import os
import time
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.serving.geo as geo_module
from repro.__main__ import main
from repro.errors import ConfigError
from repro.eval.dashboard import build_report
from repro.eval.report import percentile
from repro.runtime import executor as executor_module
from repro.serving import (
    GEO_POLICIES,
    FailurePlan,
    FollowSunDispatch,
    GeoDispatchPolicy,
    GeoRouter,
    HomeRegionDispatch,
    Interconnect,
    POLICIES,
    REQUEST_BYTES,
    Outage,
    RegionSpec,
    SCENARIOS,
    STOCK_REGIONS,
    ServingSimulator,
    ShardedEngine,
    SloPolicy,
    default_regions,
    generate_trace,
    load_trace,
    make_geo,
    make_policy,
    validate_geo,
)

SEED = 3
N = 400

#: One region, SMART x2, zero-width interconnect — the monolithic twin.
SOLO = (RegionSpec("solo", accelerator="SMART", replicas=2),)


def _geo_solo(scenario, policy, **router):
    router = GeoRouter(SOLO, policy=policy, batch_size=8,
                       detail=True, mode="inline", **router)
    return router.run_scenario(scenario, N, seed=SEED)


def _monolithic(scenario, policy, slo_us=0.0, resilience=None):
    simulator = ServingSimulator(
        "SMART", replicas=2,
        policy=make_policy(policy, batch_size=8),
        dispatch="round_robin",
        slo=SloPolicy(target=slo_us * 1e-6) if slo_us else None,
        resilience=resilience,
    )
    return simulator.run_scenario(scenario, N, seed=SEED)


class TestZeroDrift:
    """Single region + zero delay + stock policies == plain engine."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_bit_identical_on_every_stock_cell(self, name, policy,
                                               assert_counters_match):
        geo = _geo_solo(name, policy)
        mono = _monolithic(name, policy)
        assert geo.detail is not None
        assert geo.detail.latencies == mono.latencies
        assert geo.detail.energy_per_request == mono.energy_per_request
        assert_counters_match(geo, mono)

    @pytest.mark.parametrize("name", ["bursty", "failure-storm"])
    @pytest.mark.parametrize("resilience", [
        "hedge", "retry:timeout_us=300,budget=1", "degrade:timeout_us=300"])
    def test_resilience_counters_match_the_plain_engine(
            self, name, resilience, assert_counters_match):
        """The region engine's own counters (hedges, retries, cancels,
        re-dispatches, wasted energy) survive the merge exactly, and
        the aggregate row reports them under the plain row's keys."""
        geo = _geo_solo(name, "timeout", slo_us=500,
                        resilience=resilience)
        mono = _monolithic(name, "timeout", slo_us=500,
                           resilience=resilience)
        assert geo.detail.latencies == mono.latencies
        assert mono.cancels or mono.degraded  # the policy fired
        assert_counters_match(geo, mono)
        assert geo.accuracy_cost == mono.accuracy_cost
        row, plain = geo.to_row(), mono.to_row()
        for key in ("redispatched", "timeouts", "retries", "hedges",
                    "cancels", "degraded", "accuracy_cost"):
            assert row.get(key) == plain.get(key), key

    def test_aggregates_match_monolithic(self):
        geo = _geo_solo("bursty", "timeout")
        mono = _monolithic("bursty", "timeout")
        assert geo.requests == len(mono.latencies)
        assert geo.energy == pytest.approx(sum(mono.energy_per_request))
        assert geo.batches == len(mono.batches)
        assert geo.net_delay_s == 0.0
        assert geo.remote_frac == 0.0


#: Recorded multi-region outcomes (see :func:`_record_golden`).
GOLDEN_PATH = Path(__file__).parent / "data" / "geo_multi_region_golden.json"
GOLDEN_N = 600
STORM_CELLS = {
    "calm": {},
    "storms": {"storms": 2},
    "retry": {"storms": 2,
              "resilience": "retry:timeout_us=30000,budget=1"},
}
GOLDEN_CELLS = [
    "/".join(cell) for cell in itertools.product(
        ("diurnal", "failure-storm"), sorted(GEO_POLICIES),
        ("ring", "tree"), STORM_CELLS)
]
#: One worker-process cell.  It was recorded on the retired cold path
#: (workers without a memo snapshot) and keeps that golden key; it now
#: runs warm against the same values.
PROCESS_CELL = "diurnal/follow_sun/ring/retry"


def _golden_run(cell, detail=True, **router):
    """One golden cell's 4-region run."""
    scenario, geo, topology, storms = cell.split("/")
    router.setdefault("mode", "inline")
    return GeoRouter(4, geo=geo, topology=topology, slo_us=4000.0,
                     detail=detail, **STORM_CELLS[storms], **router) \
        .run_scenario(scenario, GOLDEN_N, seed=SEED)


def _golden_outcome(cell, **router):
    """The pinned summary of one golden cell: per-region integer
    ledgers, per-region and fleet float aggregates."""
    result = _golden_run(cell, **router)
    return {
        "ledgers": [[r.offered, r.remote, r.rerouted, r.retried,
                     r.outcome.requests, r.outcome.batches,
                     r.outcome.slo_hits] for r in result.regions],
        "region_floats": [[r.outcome.energy, r.delay_s]
                          for r in result.regions],
        "floats": [result.energy, result.net_delay_s,
                   result.latency_percentile(50),
                   result.latency_percentile(95)],
    }


def _record_golden() -> dict:
    """Re-record the golden file.  Only for a deliberate re-baseline
    (a change to the sampled traces): the point of the file is that
    routing refactors leave it untouched."""
    golden = {cell: _golden_outcome(cell) for cell in GOLDEN_CELLS}
    golden["process-cold/" + PROCESS_CELL] = _golden_outcome(
        PROCESS_CELL, mode="process")
    return golden


class TestMultiRegionGolden:
    """Multi-region routing pinned to recorded outcomes: 4 geo policies
    x {ring, tree} x {calm, storms, storms + retry} on diurnal and
    failure-storm, 4 regions.  Integer ledgers match exactly, float
    aggregates to 1e-12 relative with no absolute slack, so a drift in
    routing, interconnect charges or delivery order cannot pass
    unseen."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    def _check(self, got, want):
        assert got["ledgers"] == want["ledgers"]
        assert got["region_floats"] == [
            pytest.approx(row, rel=1e-12, abs=0)
            for row in want["region_floats"]]
        assert got["floats"] == pytest.approx(want["floats"], rel=1e-12,
                                              abs=0)

    def test_covers_every_cell(self, golden):
        assert set(golden) == set(GOLDEN_CELLS) | {
            "process-cold/" + PROCESS_CELL}

    @pytest.mark.parametrize("cell", GOLDEN_CELLS)
    def test_inline_cell(self, cell, golden):
        self._check(_golden_outcome(cell), golden[cell])

    def test_process_cell(self, golden):
        self._check(_golden_outcome(PROCESS_CELL, mode="process"),
                    golden["process-cold/" + PROCESS_CELL])


class TestExactPercentiles:
    """A fleet run without ``detail`` reads exact percentiles off its
    regions' sorted latency columns."""

    #: Region 1 of this golden cell is offered 114 requests and serves
    #: none of them.
    CELL = "diurnal/cheapest_joule/ring/calm"

    def test_match_the_detail_runs_served_latencies(self):
        columns = _golden_run(self.CELL, detail=False)
        kept = _golden_run(self.CELL)
        assert columns.detail is None
        idle = columns.regions[1]
        assert (idle.offered, idle.outcome.requests) == (114, 0)
        for q in (50, 95):
            assert columns.latency_percentile(q) == percentile(
                kept.detail.served_latencies, q)
        rows = columns.region_rows()
        for row, region in zip(rows, kept.regions):
            part = region.outcome.result
            for q in (50, 95):
                assert row[f"p{q}_us"] == (
                    percentile(part.served_latencies, q) * 1e6
                    if part is not None else 0.0)
        assert rows[1]["p50_us"] == rows[1]["p95_us"] == 0.0

    def test_the_idle_region_keeps_its_telemetry(self):
        """Region 1 is delivered nothing, yet ships its tagged run
        header like the others, so the dashboard draws one timeline
        per region."""
        result = _golden_run(self.CELL, detail=False, trace=True)
        names = [region.region for region in result.regions]
        assert result.regions[1].outcome.requests == 0
        runs = [row for row in result.telemetry_rows if row["ev"] == "run"]
        assert [row["region"] for row in runs] == names
        assert result.counters["runs"] == len(names) == 4
        report = build_report((), telemetry_rows=result.telemetry_rows)
        assert sorted(entry["region"] for entry in report["timeline"]) \
            == sorted(names)


class _CountingFollowSun(FollowSunDispatch):
    """A subclass keeping the stock name: the router must route with
    this instance, not a fresh stock one looked up by name."""

    def __init__(self):
        self.calls = 0

    def route(self, time, home, router):
        self.calls += 1
        return super().route(time, home, router)


class _CountingHome(HomeRegionDispatch):
    """A stock-named subclass that overrides only ``route``: it is
    routed one request at a time, through its own ``route``."""

    def __init__(self):
        self.calls = 0

    def route(self, time, home, router):
        self.calls += 1
        return super().route(time, home, router)


class _EvenRegions(GeoDispatchPolicy):
    """A custom policy under a name the registry does not know: odd
    regions hand their traffic to the even region below them."""

    name = "even_regions"

    def __init__(self):
        self.calls = 0

    def route(self, time, home, router):
        self.calls += 1
        return home - home % 2


class TestRouteOnce:
    """The parent routes every request exactly once, with the policy
    instance it was given, before any region worker runs."""

    @pytest.mark.parametrize("mode", ["inline", "process"])
    def test_custom_policy_instance_routes(self, mode):
        policy = _EvenRegions()
        result = GeoRouter(4, geo=policy, topology="ring", mode=mode) \
            .run_scenario("steady", 400, seed=SEED)
        assert policy.calls == 400
        assert result.geo == "even_regions"
        assert result.requests == 400
        assert [r.outcome.requests for r in result.regions][1::2] == [0, 0]

    @pytest.mark.parametrize("mode", ["inline", "process"])
    def test_stock_named_subclass_is_called_once_per_request(self, mode):
        policy = _CountingFollowSun()
        router = GeoRouter(4, geo=policy, topology="ring", mode=mode)
        for runs in (1, 2):
            result = router.run_scenario("diurnal", 400, seed=SEED)
            assert policy.calls == 400 * runs
        stock = GeoRouter(4, geo="follow_sun", topology="ring",
                          mode=mode).run_scenario("diurnal", 400, seed=SEED)
        assert result.energy == stock.energy
        assert result.net_delay_s == stock.net_delay_s

    @pytest.mark.parametrize("storms", [0, 2])
    def test_route_only_home_subclass_is_called_once_per_request(
            self, storms):
        policy = _CountingHome()
        result = GeoRouter(4, geo=policy, topology="ring", storms=storms,
                           mode="inline") \
            .run_scenario("diurnal", 400, seed=SEED)
        assert policy.calls == 400
        stock = GeoRouter(4, geo="home", topology="ring", storms=storms,
                          mode="inline") \
            .run_scenario("diurnal", 400, seed=SEED)
        assert [(r.remote, r.rerouted, r.delay_s) for r in result.regions] \
            == [(r.remote, r.rerouted, r.delay_s) for r in stock.regions]
        assert result.energy == stock.energy

    @pytest.mark.parametrize("storms", [0, 2])
    def test_follow_sun_block_breaks_exact_ties_like_route(
            self, storms, monkeypatch):
        """Six stock regions repeat the palette's first timezone, so
        regions 0 and 5 tie exactly in every wave.  The block path
        must break those ties as ``route`` does (fewer hops from home,
        then lower index), into the very same columns."""
        real = geo_module._route_once
        routed = []

        def spy(*args):
            routed.append(real(*args))
            return routed[-1]

        monkeypatch.setattr(geo_module, "_route_once", spy)
        for policy in ("follow_sun", _CountingFollowSun()):
            GeoRouter(6, geo=policy, topology="ring", storms=storms,
                      mode="inline").run_scenario("diurnal", 1200, seed=SEED)
        (block, ledgers, span), (per_request, *rest) = routed
        assert [tuple(map(list, region)) for region in block] == \
            [tuple(map(list, region)) for region in per_request]
        assert [ledgers, span] == rest
        assert block[0][0] and block[5][0]  # both tied regions serve

    def test_block_override_outside_the_fleet_raises(self):
        class Outside(GeoDispatchPolicy):
            name = "outside"

            def route_block(self, arrivals, router):
                return [array("H", [router.regions]) * len(times)
                        for times in arrivals]

        with pytest.raises(ConfigError, match="did not route"):
            GeoRouter(3, geo=Outside(), mode="inline") \
                .run_scenario("steady", 30, seed=SEED)

    @pytest.mark.parametrize("probe", ["hops", "delay"])
    @pytest.mark.parametrize("dst", [-1, 3])
    def test_out_of_fleet_pair_raises(self, probe, dst):
        class Probe(GeoDispatchPolicy):
            name = "probe"

            def route(self, time, home, router):
                return getattr(router, probe)(home, dst)

        with pytest.raises(ConfigError, match="outside"):
            GeoRouter(3, geo=Probe(), mode="inline") \
                .run_scenario("steady", 30, seed=SEED)

    def test_wall_s_covers_the_routing_step(self, monkeypatch):
        real = geo_module._route_once

        def slow(*args):
            time.sleep(0.2)
            return real(*args)

        monkeypatch.setattr(geo_module, "_route_once", slow)
        result = GeoRouter(2, mode="inline") \
            .run_scenario("steady", 100, seed=SEED)
        assert result.wall_s >= 0.2

    @pytest.mark.parametrize("storms", ["calm", "retry"])
    @pytest.mark.parametrize("topology", ["ring", "tree"])
    @pytest.mark.parametrize(
        "geo", ["home", "follow_sun", "cheapest_joule", "spillover"])
    def test_columns_match_a_sorted_reference(self, geo, topology, storms,
                                              monkeypatch):
        """The routed columns, ledgers and span equal the contract
        computed directly: each region's ``generate_trace``, routed in
        (arrival, home, id) order by a fresh policy, then stable-sorted
        by delivery time."""
        real = geo_module._route_once
        seen = []

        def spy(*args):
            out = real(*args)
            seen.append((args, out))
            return out

        monkeypatch.setattr(geo_module, "_route_once", spy)
        GeoRouter(4, geo=geo, topology=topology, slo_us=4000.0,
                  mode="inline", **STORM_CELLS[storms]) \
            .run_scenario("diurnal", GOLDEN_N, seed=SEED)
        (args, (columns, ledgers, span)), = seen
        spec, outages = args[0], args[2]
        want_outages, want = _reference_route(
            spec, geo, STORM_CELLS[storms].get("storms", 0))
        assert outages == want_outages
        assert [tuple(map(list, region)) for region in columns] == \
            want["columns"]
        assert ledgers == want["ledgers"]
        assert span == want["span"]


def _routing_spec(monkeypatch, regions):
    """The routing spec of a small ``regions``-region ring run."""
    seen = []
    real = geo_module._route_once

    def spy(*args):
        seen.append(args[0])
        return real(*args)

    monkeypatch.setattr(geo_module, "_route_once", spy)
    GeoRouter(regions, topology="ring", mode="inline") \
        .run_scenario("steady", 20, seed=SEED)
    spec, = seen
    return spec


class TestDeliveryTie:
    """Two deliveries into one region that tie in float leave in
    admission order, even when the later admission comes from the
    lower-numbered home.  Home 1 admits at ``T`` and its request
    crosses to region 0; home 0 admits at ``T + delay(1, 0)`` and
    serves at home.  Both land at one instant, home 1's first."""

    T = 1e-3

    @pytest.fixture
    def spec(self, monkeypatch):
        return dict(_routing_spec(monkeypatch, 2), counts=(2, 1))

    def _check(self, spec, policy, outages, rerouted):
        delay = Interconnect(2, topology="ring").delay(1, 0)
        # ids 0 and 1 are home 0's, id 2 is home 1's
        admissions = [
            (array("d", [self.T / 2, self.T + delay]), array("H", [0, 1])),
            (array("d", [self.T]), array("H", [2])),
        ]
        columns, ledgers, span = geo_module._route_once(
            spec, policy, outages, admissions)
        ids, models, delivered, homes = map(list, columns[0])
        assert delivered == [self.T / 2, self.T + delay, self.T + delay]
        assert ids == [0, 2, 1]
        assert models == [0, 2, 1]
        assert homes == [0, 1, 0]
        assert not any(columns[1])
        assert ledgers == [[1, rerouted, 0, delay], [0, 0, 0, 0.0]]
        assert span == (self.T / 2, self.T + delay)

    def test_storm_reroute_on_the_block_path(self, spec):
        """``home`` routes its columns as a block; a storm darkens
        region 1 at ``T``, so home 1's request lands on region 0."""
        dark = (Outage(replica=1, at=0.9 * self.T, until=1.1 * self.T),)
        self._check(spec, make_geo("home"), dark, rerouted=1)

    def test_custom_policy_on_the_per_request_path(self, spec):
        class Zero(GeoDispatchPolicy):
            name = "zero"
            calls = 0

            def route(self, time, home, router):
                self.calls += 1
                return 0

        policy = Zero()
        self._check(spec, policy, (), rerouted=0)
        assert policy.calls == 3


def _reference_route(spec, geo, storms):
    """Route one geo run the slow, obvious way (see
    ``test_columns_match_a_sorted_reference``)."""
    scenario = spec["scenario"]
    regions = len(spec["regions"])
    index = {model: k for k, model in enumerate(scenario.mix.models())}
    admissions = []
    for home, (region, rate, n, seed) in enumerate(zip(
            spec["regions"], spec["rates"], spec["counts"],
            spec["seeds"])):
        trace = generate_trace(
            geo_module._region_scenario(scenario, region[4]), rate, n,
            seed)
        base = sum(spec["counts"][:home])  # ids come in home blocks
        admissions += [(r.arrival, home, base + r.request_id,
                        index[r.model]) for r in trace]
    admissions.sort()
    outages = ()
    if storms:
        outages = FailurePlan(count=storms, seed=SEED).resolve(
            admissions[0][0], admissions[-1][0], regions)
    icx = Interconnect(regions, topology=spec["topology"])
    policy = make_geo(geo)
    view = geo_module._RouterView(spec, icx)
    policy.reset(view)
    routed = []
    for t, home, rid, model in admissions:
        serve = policy.route(t, home, view)
        dark = {o.replica for o in outages if o.at <= t < o.until}
        rerouted = retried = False
        delay = 0.0
        if serve in dark and len(dark) < regions:
            if spec["resilience"]:  # the failed leg is charged too
                delay += icx.delay(home, serve)
                retried = True
            serve = min(set(range(regions)) - dark,
                        key=lambda i: (icx.hops(home, i), i))
            rerouted = True
        view.record(serve, t)
        delay += icx.delay(home, serve)
        routed.append((t + delay, serve, home, rerouted, retried, delay,
                       rid, model))
    routed.sort(key=lambda entry: entry[0])  # stable: admission order
    columns = [([], [], [], []) for _ in range(regions)]
    ledgers = [[0, 0, 0, 0.0] for _ in range(regions)]
    for deliver, serve, home, rerouted, retried, delay, rid, model \
            in routed:
        for column, value in zip(columns[serve],
                                 (rid, model, deliver, home)):
            column.append(value)
        ledger = ledgers[serve]
        ledger[0] += home != serve
        ledger[1] += rerouted
        ledger[2] += retried
        ledger[3] += delay
    return outages, {"columns": columns, "ledgers": ledgers,
                     "span": (routed[0][0], routed[-1][0])}


def _geo_multi(mode):
    """A 3-region follow-the-sun run: every region serves traffic."""
    return GeoRouter(3, topology="ring", geo="follow_sun", detail=True,
                     mode=mode).run_scenario("diurnal", N, seed=SEED)


class TestGeoFaultTolerance:
    """A raising or killed region worker is re-run, not fatal: geo runs
    share the sharded driver's crash retry (region == shard)."""

    def test_raising_region_is_retried_with_exact_result(self,
                                                         monkeypatch,
                                                         tmp_path):
        clean = _geo_multi("thread")
        real = geo_module._serve_geo_region
        sentinel = tmp_path / "crashed-once"

        def flaky(spec):
            if spec["shard"] == 1 and not sentinel.exists():
                sentinel.write_text("x")
                raise RuntimeError("injected region fault")
            return real(spec)

        monkeypatch.setattr(geo_module, "_serve_geo_region", flaky)
        result = _geo_multi("thread")
        assert result.shard_retries == 1
        assert result.to_row()["shard_retries"] == 1
        assert result.detail.latencies == clean.detail.latencies
        assert result.detail.energy_per_request == \
            clean.detail.energy_per_request

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="worker-kill chaos needs fork inheritance")
    def test_process_worker_killed_mid_run(self, monkeypatch, tmp_path):
        """A region worker process dies outright (``os._exit``); the
        run still completes with the clean run's exact answer."""
        clean = _geo_multi("inline")
        real = geo_module._serve_geo_region
        sentinel = tmp_path / "killed-once"

        def killer(spec):
            if spec["shard"] == 1 and not sentinel.exists():
                sentinel.write_text("x")
                os._exit(13)
            return real(spec)

        monkeypatch.setattr(geo_module, "_serve_geo_region", killer)
        # pooled process workers snapshot the parent at pool creation;
        # drain any pools forked before the monkeypatch so the killer
        # is actually inherited
        executor_module.shutdown_pools()
        result = _geo_multi("process")
        assert sentinel.exists()  # the kill genuinely happened
        assert result.shard_retries >= 1
        assert result.detail.latencies == clean.detail.latencies
        assert result.detail.energy_per_request == \
            clean.detail.energy_per_request

    def test_permanent_failure_raises_after_budget(self, monkeypatch):
        real = geo_module._serve_geo_region

        def always(spec):
            if spec["shard"] == 1:
                raise RuntimeError("permanent region fault")
            return real(spec)

        monkeypatch.setattr(geo_module, "_serve_geo_region", always)
        router = GeoRouter(2, mode="thread")
        with pytest.raises(RuntimeError,
                           match="still failing after 2 retries"):
            router.run_scenario("steady", 200, seed=SEED)


class TestInterconnect:
    def test_same_region_is_free(self):
        for topology in ("ring", "mesh", "tree"):
            icx = Interconnect(5, topology=topology)
            assert icx.delay(2, 2) == 0.0
            assert icx.hops(2, 2) == 0

    def test_mesh_is_one_hop(self):
        icx = Interconnect(6, topology="mesh")
        assert all(icx.hops(a, b) == 1
                   for a in range(6) for b in range(6) if a != b)
        assert icx.diameter() == 1

    def test_ring_takes_the_short_way_round(self):
        icx = Interconnect(6, topology="ring")
        assert icx.hops(0, 1) == 1
        assert icx.hops(0, 5) == 1  # wraps, not 5 hops
        assert icx.hops(0, 3) == 3
        assert icx.diameter() == 3

    def test_tree_walks_the_lca(self):
        icx = Interconnect(7, topology="tree")
        assert icx.hops(1, 0) == 1  # child -> root
        assert icx.hops(3, 4) == 2  # siblings via parent 1
        assert icx.hops(3, 6) == 4  # leaf -> root -> leaf
        assert icx.diameter() == 4

    def test_delay_is_store_and_forward(self):
        icx = Interconnect(6, topology="ring", bandwidth_gbps=10.0,
                           base_latency_us=50.0)
        per_hop = 50e-6 + REQUEST_BYTES * 8.0 / 10e9
        assert icx.delay(0, 3) == pytest.approx(3 * per_hop)
        # payload size scales the serialisation term only
        assert icx.delay(0, 1, nbytes=0) == pytest.approx(50e-6)

    def test_validation(self):
        with pytest.raises(ConfigError, match="topology"):
            Interconnect(3, topology="torus")
        with pytest.raises(ConfigError, match="bandwidth"):
            Interconnect(3, bandwidth_gbps=0.0)
        with pytest.raises(ConfigError, match="at least one"):
            Interconnect(0)
        icx = Interconnect(3)
        with pytest.raises(ConfigError, match="outside"):
            icx.hops(0, 3)
        with pytest.raises(ConfigError, match="payload"):
            icx.delay(0, 1, nbytes=-1)


class TestGeoPolicies:
    def test_follow_sun_moves_traffic_on_diurnal(self):
        router = GeoRouter(3, geo="follow_sun", topology="ring",
                           mode="inline")
        result = router.run_scenario("diurnal", 1200, seed=SEED)
        assert result.requests == 1200
        assert result.remote_frac > 0.3  # the sun really moved it

    def test_follow_sun_stays_home_without_a_wave(self):
        router = GeoRouter(3, geo="follow_sun", mode="inline")
        result = router.run_scenario("steady", 600, seed=SEED)
        assert result.remote_frac == 0.0  # flat wave -> fewest hops

    @given(st.integers(min_value=1, max_value=6).flatmap(
        lambda regions: st.tuples(
            st.lists(st.sampled_from((-0.0, 0.0, 0.4, 1.0, 1.6)),
                     min_size=regions, max_size=regions),
            st.lists(st.lists(st.integers(0, 3), min_size=regions,
                              max_size=regions),
                     min_size=regions, max_size=regions),
            st.integers(0, regions - 1))),
        st.floats(0.0, 10.0))
    @settings(max_examples=300, deadline=None)
    def test_follow_sun_breaks_partial_ties_like_the_key(self, fleet, at):
        """Waves drawn from a few repeated values tie a subset of the
        regions; the route must equal the ``(wave, hops, index)`` key
        minimum, hops read from a random table."""
        waves, hops, home = fleet

        class Router:
            regions = len(waves)

            def wave(self, i, t):
                return waves[i]

            def hops(self, src, dst):
                return hops[src][dst]

        router = Router()
        assert FollowSunDispatch().route(at, home, router) == min(
            range(router.regions),
            key=lambda i: (router.wave(i, at), router.hops(home, i), i))

    def test_cheapest_joule_prefers_cheap_grids(self):
        home = GeoRouter(3, geo="home", mode="inline") \
            .run_scenario("diurnal", 1200, seed=SEED)
        cheap = GeoRouter(3, geo="cheapest_joule", mode="inline") \
            .run_scenario("diurnal", 1200, seed=SEED)
        assert cheap.cost_usd < home.cost_usd

    def test_spillover_stays_home_under_capacity(self):
        router = GeoRouter(3, geo="spillover", mode="inline")
        result = router.run_scenario("steady", 600, seed=SEED)
        assert result.remote_frac < 0.1

    def test_runs_are_deterministic(self):
        def run():
            row = GeoRouter(
                4, geo="cheapest_joule", topology="ring", storms=1,
                slo_us=4000.0, mode="inline",
            ).run_scenario("diurnal", 800, seed=SEED).to_row()
            row.pop("agg_rps")  # wall-clock based, the only exception
            return row
        assert run() == run()

    def test_make_geo_rejects_unknown(self):
        with pytest.raises(ConfigError, match="geo policy"):
            make_geo("teleport")
        assert set(GEO_POLICIES) == {"home", "follow_sun",
                                     "cheapest_joule", "spillover"}


#: Storm windows the retired region sampler drew for (seed, count,
#: regions, span), as ``(region, at, until)`` in its (at, region)
#: order, and the same windows merged where two overlap on a region.
RECORDED_STORMS = {
    (3, 2, 4, (0.0, 100.0)): (
        [(3, 39.59641332384635, 49.59641332384635),
         (0, 58.31360308769556, 68.31360308769555)],
        [(3, 39.59641332384635, 49.59641332384635),
         (0, 58.31360308769556, 68.31360308769555)],
    ),
    (1, 7, 2, (0.5, 2.5)): (
        [(1, 0.800970915020335, 1.000970915020335),
         (0, 0.8886699258736976, 1.0886699258736976),
         (1, 1.3073843573179644, 1.5073843573179644),
         (0, 1.4555923897217866, 1.6555923897217866),
         (1, 1.6107261997155395, 1.8107261997155395),
         (1, 1.917539911860121, 2.117539911860121),
         (0, 1.9836240978690938, 2.1836240978690937)],
        [(1, 0.800970915020335, 1.000970915020335),
         (0, 0.8886699258736976, 1.0886699258736976),
         (1, 1.3073843573179644, 1.5073843573179644),
         (0, 1.4555923897217866, 1.6555923897217866),
         (1, 1.6107261997155395, 1.8107261997155395),
         (1, 1.917539911860121, 2.117539911860121),
         (0, 1.9836240978690938, 2.1836240978690937)],
    ),
    # the two region-0 windows overlap: one merged window
    (9, 4, 3, (1e-3, 4e-3)): (
        [(2, 0.0017467478907089566, 0.0020467478907089565),
         (0, 0.001941122611854185, 0.002241122611854185),
         (0, 0.002111981228043713, 0.002411981228043713),
         (1, 0.002923944556828172, 0.003223944556828172)],
        [(2, 0.0017467478907089566, 0.0020467478907089565),
         (0, 0.001941122611854185, 0.002411981228043713),
         (1, 0.002923944556828172, 0.003223944556828172)],
    ),
    # one region, five windows: two overlapping pairs
    (7, 5, 1, (0.0, 1.0)): (
        [(0, 0.1579490293340342, 0.2579490293340342),
         (0, 0.22067933913960155, 0.32067933913960156),
         (0, 0.35906621186652987, 0.45906621186652985),
         (0, 0.5287056034453513, 0.6287056034453513),
         (0, 0.620747578431883, 0.720747578431883)],
        [(0, 0.1579490293340342, 0.32067933913960156),
         (0, 0.35906621186652987, 0.45906621186652985),
         (0, 0.5287056034453513, 0.720747578431883)],
    ),
}


class TestRegionStorms:
    def test_storm_reroutes_dark_region(self):
        calm = GeoRouter(4, topology="ring", mode="inline") \
            .run_scenario("steady", 2000, seed=1)
        stormy = GeoRouter(4, topology="ring", storms=2,
                           mode="inline") \
            .run_scenario("steady", 2000, seed=1)
        assert calm.requests == stormy.requests == 2000
        assert sum(r.rerouted for r in stormy.regions) > 0
        assert sum(r.rerouted for r in calm.regions) == 0

    def test_land_matches_the_per_request_rule(self, monkeypatch):
        """The view's detour table lands a request sent to ``serve`` by
        ``home`` at ``t`` where the per-request rule does: a dark
        ``serve`` moves to the live region nearest ``home`` (fewest
        hops, then index); with every region dark nothing moves."""
        outages = (Outage(replica=0, at=1.0, until=4.0),
                   Outage(replica=1, at=2.0, until=5.0),
                   Outage(replica=2, at=3.0, until=3.5),
                   Outage(replica=3, at=3.2, until=3.4),
                   Outage(replica=1, at=6.0, until=7.0))
        icx = Interconnect(4, topology="ring")
        view = geo_module._RouterView(_routing_spec(monkeypatch, 4), icx,
                                      outages)
        down = geo_module._down

        def rule(t, home, serve):
            if not down(outages, serve, t):
                return serve
            live = [i for i in range(4) if not down(outages, i, t)]
            return min(live, key=lambda i: (icx.hops(home, i), i)) \
                if live else serve

        edges = {edge for o in outages for edge in (o.at, o.until)}
        probes = sorted(edges | {e + d for e in edges for d in (-0.05, 0.05)})
        assert any(all(down(outages, i, t) for i in range(4))
                   for t in probes)  # an all-dark segment is probed
        for t, home, serve in itertools.product(probes, range(4), range(4)):
            assert view.land(t, home, serve) == rule(t, home, serve)

    def test_outage_window_validates(self):
        with pytest.raises(ConfigError):
            Outage(replica=0, at=2.0, until=1.0)
        outages = (Outage(replica=1, at=1.0, until=2.0),)
        assert geo_module._down(outages, 1, 1.5)
        assert not geo_module._down(outages, 1, 2.5)
        assert not geo_module._down(outages, 0, 1.5)

    def test_plan_is_seeded_and_bounded(self):
        plan = FailurePlan(count=3, seed=9)
        outages = plan.resolve(0.0, 100.0, 4)
        assert outages == plan.resolve(0.0, 100.0, 4)
        assert len(outages) == 3
        for o in outages:
            assert 0.0 <= o.at < o.until
            assert 0 <= o.replica < 4

    @pytest.mark.parametrize("cell", sorted(RECORDED_STORMS))
    def test_failure_plan_draws_the_recorded_storms(self, cell):
        """Storms used to come from a region-only sampler that made the
        same draws as :class:`FailurePlan` but never merged overlapping
        windows.  Its recorded windows, merged per region where they
        overlap, are exactly what ``FailurePlan`` resolves."""
        seed, count, regions, (start, end) = cell
        got = FailurePlan(count=count, seed=seed).resolve(start, end,
                                                          regions)
        recorded, merged = RECORDED_STORMS[cell]
        assert [(o.replica, o.at, o.until) for o in got] == merged
        assert len(merged) <= len(recorded) == count
        # membership is unchanged: a region is down under the merged
        # windows exactly when one of the recorded windows darkens it
        probes = sorted({t for _, at, until in recorded
                         for t in (at, until, (at + until) / 2)})
        for region in range(regions):
            for t in probes:
                assert geo_module._down(got, region, t) == any(
                    r == region and at <= t < until
                    for r, at, until in recorded)


class TestFleetAccounting:
    def test_region_rows_cover_the_fleet(self):
        router = GeoRouter(4, geo="follow_sun", topology="ring",
                           slo_us=4000.0, mode="inline")
        result = router.run_scenario("diurnal", 1000, seed=SEED)
        rows = result.region_rows()
        assert [r["region"] for r in rows] == \
            [spec.name for spec in default_regions(4)]
        assert sum(r["requests"] for r in rows) == 1000
        assert sum(r["share"] for r in rows) == pytest.approx(1.0)
        for row in rows:
            assert 0.0 <= row["slo_attain"] <= 1.0
            assert row["usd_per_mj"] > 0

    def test_no_request_lost_across_regions(self):
        for count in (2, 3, 5):
            result = GeoRouter(count, geo="follow_sun",
                               topology="ring", mode="inline") \
                .run_scenario("bursty", 900, seed=SEED)
            assert result.requests == 900
            assert sum(r.offered for r in result.regions) == 900

    def test_validate_geo_rejects_malformed_fleets(self):
        with pytest.raises(ConfigError, match="unique"):
            validate_geo((RegionSpec("a"), RegionSpec("a")))
        with pytest.raises(ConfigError, match="at least one"):
            validate_geo(())
        with pytest.raises(ConfigError, match="replica"):
            RegionSpec("a", replicas=0)
        with pytest.raises(ConfigError, match="at least one request"):
            GeoRouter(5, mode="inline").run_scenario("steady", 3,
                                                     seed=SEED)

    @pytest.mark.parametrize("mode", ["serial", "auto"])
    def test_constructor_rejects_unknown_mode(self, mode):
        """A mode the fan-out cannot run in fails at construction,
        before any calibration, prewarm or routing."""
        with pytest.raises(ConfigError, match="execution mode"):
            GeoRouter(4, topology="ring", geo="follow_sun", mode=mode)

    @pytest.mark.parametrize("build,fragment", [
        (lambda: GeoRouter(2, dispatch="bogus"), "unknown dispatch 'bogus'"),
        (lambda: GeoRouter([RegionSpec("a", accelerator="NOPE")]),
         "unknown scheme 'NOPE'"),
        (lambda: ShardedEngine(2, accelerator="NOPE"),
         "unknown scheme 'NOPE'"),
    ], ids=["geo-dispatch", "geo-accelerator", "sharded-accelerator"])
    def test_constructor_rejects_an_unknown_dispatch_or_scheme(
            self, build, fragment):
        """Both fan-out engines check each partition engine's replica
        dispatch and accelerator scheme when built, not in the first
        run's calibration."""
        with pytest.raises(ConfigError, match=fragment):
            build()

    @pytest.mark.parametrize("resilience", ["retry", "hedge"])
    def test_constructor_rejects_a_resilience_with_no_deadline(
            self, resilience):
        """The engine's rule at construction: retry and hedge need a
        deadline of their own or an SLO; degrade may run on shed
        rescue alone."""
        with pytest.raises(ConfigError, match=f"{resilience} needs"):
            GeoRouter(2, resilience=resilience, mode="inline")
        GeoRouter(2, resilience=resilience, slo_us=3000, mode="inline")
        GeoRouter(2, resilience="degrade", mode="inline")

    def test_stock_palette_is_well_formed(self):
        names = [spec.name for spec in STOCK_REGIONS]
        assert len(set(names)) == len(names)
        fleet = default_regions(7)  # wraps past the palette
        assert len({spec.name for spec in fleet}) == 7


class TestCli:
    def test_geo_grid_runs(self, capsys):
        code = main(["serve-sim", "steady", "--geo", "2",
                     "--requests", "200", "--policy", "timeout"])
        out = capsys.readouterr().out
        assert code == 0
        assert "geo[2]" in out
        assert "per-region breakdown" in out
        assert "us-east" in out and "eu-west" in out

    def test_geo_json_carries_region_rows(self, capsys):
        code = main(["serve-sim", "steady", "--geo", "2", "--json",
                     "--requests", "200", "--policy", "timeout"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert any(r.get("region") == "us-east" for r in rows)
        assert any(r.get("geo") == "home" for r in rows)

    @pytest.mark.parametrize("fan_out", [
        ["--geo", "2"], ["--shards", "2", "--replicas", "2"],
    ], ids=["geo", "sharded"])
    def test_trace_header_sums_worker_counters(self, fan_out, tmp_path,
                                               capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["serve-sim", "steady", *fan_out, "--requests",
                     "200", "--policy", "timeout",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        counters = load_trace(trace)[0]["counters"]
        assert counters["runs"] == 2  # one per worker partition
        assert counters["arrivals"] == counters["requests_done"] == 200

    @pytest.mark.parametrize("args,fragment", [
        (["--geo", "3", "--shards", "2"], "--shards"),
        (["--geo", "0"], "at least one region"),
        (["--geo", "nowhere"], "unknown region"),
        (["--geo", "3", "--replicas", "4"], "drop --replicas"),
        (["--geo", "3", "--fail", "2"], "--geo-storms"),
        (["--geo", "3", "--steal"], "not plumbed"),
        (["--geo", "3", "--geo-policy", "teleport"], "geo policy"),
        (["--geo", "3", "--topology", "torus"], "topology"),
        (["--geo-policy", "follow_sun"], "need --geo"),
        (["--geo", "3", "--requests", "2"],
         "at least one request per region"),
    ])
    def test_usage_errors_exit_2(self, args, fragment, capsys):
        code = main(["serve-sim", "steady", *args])
        assert code == 2
        assert fragment in capsys.readouterr().out


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_serving_geo.py  (one cell a line)
    GOLDEN_PATH.write_text("{\n" + ",\n".join(
        f"{json.dumps(cell)}: {json.dumps(outcome)}"
        for cell, outcome in _record_golden().items()) + "\n}\n")
