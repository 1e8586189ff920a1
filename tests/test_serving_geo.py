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
from pathlib import Path

import pytest

import repro.serving.geo as geo_module
from repro.__main__ import main
from repro.errors import ConfigError
from repro.runtime import executor as executor_module
from repro.serving import (
    GEO_POLICIES,
    FollowSunDispatch,
    GeoDispatchPolicy,
    GeoRouter,
    Interconnect,
    POLICIES,
    REQUEST_BYTES,
    RegionFailurePlan,
    RegionOutage,
    RegionSpec,
    SCENARIOS,
    STOCK_REGIONS,
    ServingSimulator,
    default_regions,
    load_trace,
    make_geo,
    make_policy,
    validate_geo,
)

SEED = 3
N = 400

#: One region, SMART x2, zero-width interconnect — the monolithic twin.
SOLO = (RegionSpec("solo", accelerator="SMART", replicas=2),)


def _geo_solo(scenario, policy):
    router = GeoRouter(SOLO, policy=policy, batch_size=8,
                       detail=True, mode="inline")
    return router.run_scenario(scenario, N, seed=SEED)


def _monolithic(scenario, policy):
    simulator = ServingSimulator(
        "SMART", replicas=2,
        policy=make_policy(policy, batch_size=8),
        dispatch="round_robin",
    )
    return simulator.run_scenario(scenario, N, seed=SEED)


class TestZeroDrift:
    """Single region + zero delay + stock policies == plain engine."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_bit_identical_on_every_stock_cell(self, name, policy):
        geo = _geo_solo(name, policy)
        mono = _monolithic(name, policy)
        assert geo.detail is not None
        assert geo.detail.latencies == mono.latencies
        assert geo.detail.energy_per_request == mono.energy_per_request

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
#: One worker-process cell with the cold path (no prewarm snapshot).
PROCESS_CELL = "diurnal/follow_sun/ring/retry"


def _golden_outcome(cell, **router):
    """The pinned summary of one golden cell: per-region integer
    ledgers, per-region and fleet float aggregates."""
    scenario, geo, topology, storms = cell.split("/")
    router.setdefault("mode", "inline")
    result = GeoRouter(4, geo=geo, topology=topology, slo_us=4000.0,
                       detail=True, **STORM_CELLS[storms], **router) \
        .run_scenario(scenario, GOLDEN_N, seed=SEED)
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
        PROCESS_CELL, mode="process", prewarm=False)
    return golden


class TestMultiRegionGolden:
    """Multi-region routing pinned to recorded outcomes: 4 geo policies
    x {ring, tree} x {calm, storms, storms + retry} on diurnal and
    failure-storm, 4 regions.  Integer ledgers match exactly, float
    aggregates to 1e-12 relative, so a drift in routing, interconnect
    charges or delivery order cannot pass unseen."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    def _check(self, got, want):
        assert got["ledgers"] == want["ledgers"]
        assert got["region_floats"] == [
            pytest.approx(row, rel=1e-12) for row in want["region_floats"]]
        assert got["floats"] == pytest.approx(want["floats"], rel=1e-12)

    def test_covers_every_cell(self, golden):
        assert set(golden) == set(GOLDEN_CELLS) | {
            "process-cold/" + PROCESS_CELL}

    @pytest.mark.parametrize("cell", GOLDEN_CELLS)
    def test_inline_cell(self, cell, golden):
        self._check(_golden_outcome(cell), golden[cell])

    def test_process_cold_cell(self, golden):
        self._check(_golden_outcome(PROCESS_CELL, mode="process",
                                    prewarm=False),
                    golden["process-cold/" + PROCESS_CELL])


class _CountingFollowSun(FollowSunDispatch):
    """A subclass keeping the stock name: the router must route with
    this instance, not a fresh stock one looked up by name."""

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

    def test_outage_window_validates(self):
        with pytest.raises(ConfigError):
            RegionOutage(region=0, at=2.0, until=1.0)
        outage = RegionOutage(region=1, at=1.0, until=2.0)
        assert outage.down(1.5) and not outage.down(2.5)

    def test_plan_is_seeded_and_bounded(self):
        plan = RegionFailurePlan(count=3, seed=9)
        outages = plan.resolve(0.0, 100.0, regions=4)
        assert outages == plan.resolve(0.0, 100.0, regions=4)
        assert len(outages) == 3
        for o in outages:
            assert 0.0 <= o.at < o.until
            assert 0 <= o.region < 4


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
