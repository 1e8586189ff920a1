"""Serving-path performance smoke: event-engine throughput trajectory.

Not a paper figure.  With ``REPRO_BENCH_RECORD=1`` each run appends
one trajectory point per matrix cell (simulated requests per
wall-second through the discrete-event engine) to
``BENCH_serving.json`` at the repo root, so future PRs can see when a
change slows the serving hot path down; without it the cells run and
assert but write nothing.  The CI
figure-smoke job feeds the fresh points to ``tools/bench_guard.py``,
which warns (non-blocking) on a >20% throughput drop against the last
committed point of the same cell.

The matrix covers 10k- and 100k-request traces on the bursty and
diurnal scenarios; every point carries ``scenario`` / ``n_requests``
labels (the committed history is fully migrated to the labelled
schema; the loader rejects unlabelled points).  ``rps`` measures the *steady-state* hot path —
a warm-up round populates the layer memo first, because cold layer
simulations are a one-time O(distinct layer x batch) cost amortised
across any sweep — while ``cold_rps`` records the same trace served
with that cost still in line.

Four control-plane cells ride along with a ``variant`` label (so
``tools/bench_guard.py`` tracks them separately): ``forecast`` runs
the diurnal/10k trace under predictive (Holt) autoscaling,
``persist`` measures the cold-start path with the layer memo warmed
from the persisted cross-run totals pool, ``sharded/warm`` is the
scale-out headline — one million requests streamed through
``ShardedEngine`` worker processes, recording aggregate simulated
requests per wall-second — and ``geo/<policy>`` runs the
geo-distributed tier (per-region engines behind a ``GeoRouter`` over
the ring interconnect), so routing-scan or interconnect slowdowns
surface in their own cell.
"""

import gc
import json
import os
import time
from pathlib import Path

import pytest

from conftest import show

from repro.runtime import ResultCache
from repro.serving import (
    ForecastScalePolicy,
    LayerMemoCache,
    ServingSimulator,
    ShardedEngine,
    SloPolicy,
    generate_trace,
    get_scenario,
    load_persistent_memo,
    make_policy,
    store_persistent_memo,
)

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

#: (scenario, trace length) cells the trajectory tracks.  The
#: bursty/10k cell is the historical one every PR has recorded.
MATRIX = [
    ("bursty", 10_000),
    ("bursty", 100_000),
    ("diurnal", 10_000),
    ("diurnal", 100_000),
]


def append_point(point: dict) -> None:
    """Append ``point`` to the trajectory file, only when
    ``REPRO_BENCH_RECORD=1`` (CI's figure-smoke job sets it): a plain
    test run leaves the working tree clean."""
    if os.environ.get("REPRO_BENCH_RECORD") != "1":
        return
    history = []
    if BENCH_PATH.exists():
        try:
            history = json.loads(BENCH_PATH.read_text())
        except (OSError, json.JSONDecodeError):
            history = []
    if not isinstance(history, list):
        history = []
    history.append(point)
    BENCH_PATH.write_text(json.dumps(history, indent=1) + "\n")


@pytest.mark.parametrize("scenario_name,n_requests", MATRIX)
def test_bench_serving_event_engine(benchmark, scenario_name, n_requests):
    scenario = get_scenario(scenario_name)
    simulator = ServingSimulator("SMART", replicas=2,
                                 policy=make_policy("timeout"),
                                 dispatch="least_loaded")
    rate = scenario.load * simulator.capacity_rps(scenario)
    trace = generate_trace(scenario, rate, n_requests, seed=7)

    walls = []

    def timed():
        started = time.perf_counter()
        outcome = simulator.run(trace, scenario=scenario.name, rate=rate)
        walls.append(time.perf_counter() - started)
        return outcome

    result = benchmark.pedantic(timed, iterations=1, rounds=1,
                                warmup_rounds=1)
    cold_wall, wall = walls[0], walls[-1]

    point = {
        "requests": n_requests,
        "wall_s": round(wall, 4),
        "rps": round(n_requests / wall, 1),
        "batches": len(result.batches),
        "cache_hit_rate": round(result.cache.hit_rate, 4),
        "created": time.time(),
        "scenario": scenario_name,
        "n_requests": n_requests,
        "cold_wall_s": round(cold_wall, 4),
        "cold_rps": round(n_requests / cold_wall, 1),
    }
    append_point(point)

    show(f"BENCH_serving: {scenario_name}/{n_requests} trajectory point",
         [point])
    assert len(result.latencies) == n_requests
    assert point["rps"] > 0


def test_bench_forecast_autoscale_cell(benchmark):
    """The predictive-autoscale cell: diurnal/10k under Holt forecast
    scaling with an SLO — the control plane (rate tracking, forecast
    updates, scale actions) rides the hot path here, so a slowdown in
    the policy seam shows up in this cell's rps."""
    n_requests = 10_000
    scenario = get_scenario("diurnal")
    simulator = ServingSimulator(
        "SMART", replicas=1, policy=make_policy("timeout"),
        dispatch="least_loaded", slo=SloPolicy(target=2000e-6),
        autoscale=ForecastScalePolicy(min_replicas=1, max_replicas=6,
                                      mode="holt",
                                      target_utilization=0.6))
    rate = scenario.load * simulator.capacity_rps(scenario)
    trace = generate_trace(scenario, rate, n_requests, seed=7)

    walls = []

    def timed():
        started = time.perf_counter()
        outcome = simulator.run(trace, scenario=scenario.name,
                                rate=rate)
        walls.append(time.perf_counter() - started)
        return outcome

    result = benchmark.pedantic(timed, iterations=1, rounds=1,
                                warmup_rounds=1)
    cold_wall, wall = walls[0], walls[-1]
    point = {
        "requests": n_requests,
        "wall_s": round(wall, 4),
        "rps": round(n_requests / wall, 1),
        "batches": len(result.batches),
        "cache_hit_rate": round(result.cache.hit_rate, 4),
        "created": time.time(),
        "scenario": "diurnal",
        "n_requests": n_requests,
        "variant": "forecast",
        "cold_wall_s": round(cold_wall, 4),
        "cold_rps": round(n_requests / cold_wall, 1),
        "slo_attain": round(result.slo_attainment, 4),
        "replicas_peak": result.peak_replicas,
    }
    append_point(point)
    show("BENCH_serving: diurnal/10000/forecast trajectory point",
         [point])
    assert result.peak_replicas > 1  # the forecaster really scaled
    assert point["rps"] > 0


def test_bench_persisted_memo_cold_start(tmp_path):
    """The persisted-memo cell: cold-start throughput with the layer
    memo warmed from the cross-run totals pool vs a plain cold start
    on the tracked bursty/10k trace.  ``rps`` is the persisted-warm
    cold start (what the guard tracks); ``cold_rps`` the unpersisted
    one; ``warm_speedup`` their ratio — the cold-start headroom the
    ROADMAP called out, now lifted."""
    n_requests = 10_000
    scenario = get_scenario("bursty")
    store = ResultCache(cache_dir=tmp_path)

    def run_once(cache):
        simulator = ServingSimulator("SMART", replicas=2,
                                     policy=make_policy("timeout"),
                                     dispatch="least_loaded",
                                     cache=cache)
        rate = scenario.load * simulator.capacity_rps(scenario)
        trace = generate_trace(scenario, rate, n_requests, seed=7)
        # both timed runs start from a collected heap: in a full test
        # run, one full collection over the process's unrelated objects
        # can outlast the warm run itself, and landing in one window
        # it would time the GC, not the memo
        gc.collect()
        started = time.perf_counter()
        result = simulator.run(trace, scenario=scenario.name,
                               rate=rate)
        return result, time.perf_counter() - started

    cold_cache = LayerMemoCache()
    cold_result, cold_wall = run_once(cold_cache)
    store_persistent_memo(cold_cache, store)

    warm_cache = LayerMemoCache()
    load_persistent_memo(warm_cache, store)
    warm_result, warm_wall = run_once(warm_cache)

    assert warm_result.latencies == cold_result.latencies
    assert warm_cache.stats.misses == 0  # not one layer simulated

    point = {
        "requests": n_requests,
        "wall_s": round(warm_wall, 4),
        "rps": round(n_requests / warm_wall, 1),
        "batches": len(warm_result.batches),
        "cache_hit_rate": round(warm_result.cache.hit_rate, 4),
        "created": time.time(),
        "scenario": "bursty",
        "n_requests": n_requests,
        "variant": "persist",
        "cold_wall_s": round(cold_wall, 4),
        "cold_rps": round(n_requests / cold_wall, 1),
        "warm_speedup": round(cold_wall / warm_wall, 2),
    }
    append_point(point)
    show("BENCH_serving: bursty/10000/persist cold-vs-warm delta",
         [point])
    assert point["rps"] > point["cold_rps"]  # persistence really helps


def test_bench_serving_geo():
    """The geo cell: a four-region fleet (mixed SMART / SNN / AQFP
    backends) under follow-the-sun routing on the ring interconnect.
    ``rps`` is aggregate simulated requests per wall-second of the
    whole ``run_scenario`` call — calibration, the parent's single
    routing scan (regional admission columns, the route calls and the
    delivery re-sort heap), the per-region engines (which replay no
    routing) and the merge — so a slowdown in any geo layer lands in
    the ``geo/follow_sun`` cell without touching the plain cells."""
    from repro.serving import GeoRouter

    n_requests = 100_000
    router = GeoRouter(4, topology="ring", geo="follow_sun",
                       policy="timeout", batch_size=8)
    result = router.run_scenario("diurnal", n_requests, seed=7)

    point = {
        "requests": result.requests,
        "wall_s": round(result.wall_s, 4),
        "rps": round(result.simulated_rps, 1),
        "batches": result.batches,
        "cache_hit_rate": round(result.cache.hit_rate, 4),
        "created": time.time(),
        "scenario": "diurnal",
        "n_requests": n_requests,
        "variant": "geo/follow_sun",
        "regions": len(result.regions),
        "replicas": result.replicas,
        "remote_frac": round(result.remote_frac, 4),
        "throughput_rps": round(result.throughput_rps, 1),
        "p95_us": round(result.latency_percentile(95) * 1e6, 1),
    }
    append_point(point)
    show(f"BENCH_serving: diurnal/{n_requests}/geo/follow_sun "
         f"trajectory point", [point])
    assert result.requests == n_requests  # nothing lost or duplicated
    assert point["rps"] > 0


def test_bench_serving_failure_retry():
    """The resilience cell: 100k requests through the failure-storm
    scenario with deadline-timeout retries armed (``failure/100000/
    retry``).  ``rps`` covers the full resilience hot path — deadline
    arming, TIMEOUT events, backoff scheduling, duplicate dispatch and
    cancellation — so a slowdown in the PR 9 event handlers lands in
    its own cell without touching the ``none``-path cells (those stay
    covered by the stock matrix, which the zero-drift suite holds
    bit-identical)."""
    n_requests = 100_000
    scenario = get_scenario("failure-storm")
    simulator = ServingSimulator(
        "SMART", replicas=6, policy=make_policy("timeout"),
        dispatch="shard", slo=SloPolicy(target=3000e-6),
        resilience="retry:timeout_us=30000,budget=1")
    rate = scenario.load * simulator.capacity_rps(scenario)
    trace = generate_trace(scenario, rate, n_requests, seed=7)

    started = time.perf_counter()
    result = simulator.run_scenario(scenario, n_requests, seed=7)
    wall = time.perf_counter() - started

    point = {
        "requests": n_requests,
        "wall_s": round(wall, 4),
        "rps": round(n_requests / wall, 1),
        "batches": len(result.batches),
        "cache_hit_rate": round(result.cache.hit_rate, 4),
        "created": time.time(),
        "scenario": "failure",
        "n_requests": n_requests,
        "variant": "retry",
        "replicas": 6,
        "timeouts": result.timeouts,
        "retries": result.retries,
        "slo_attain": round(result.slo_attainment, 4),
        "p95_us": round(result.latency_percentile(95) * 1e6, 1),
    }
    append_point(point)
    show(f"BENCH_serving: failure/{n_requests}/retry trajectory point",
         [point])
    assert len(trace) == n_requests
    assert result.retries > 0  # the resilience path genuinely ran
    assert point["rps"] > 0


def test_bench_serving_scale_sharded():
    """The scale-out cells: one million requests, streamed and sharded
    across worker processes in a single ``ShardedEngine`` run.  ``rps``
    is *aggregate* simulated requests per wall-second — the headline
    the ROADMAP's million-request scale-out item asked for — so it
    scales with the worker pool where the monolithic cells cannot.

    The cell records ``sharded/warm``: the trace served from a
    parent-prewarmed memo snapshot broadcast to the pool, with zero
    warm-worker layer simulations asserted.  The older ``sharded``
    points in the history were recorded on the retired cold path
    (every worker simulated its own layer totals) and stay as frozen
    history."""
    n_requests = 1_000_000
    shards = max(2, min(8, os.cpu_count() or 2))
    warm = ShardedEngine(shards, replicas=shards, policy="timeout",
                         batch_size=8).run_scenario("steady", n_requests,
                                                    seed=7)
    warm_point = {
        "requests": warm.requests,
        "wall_s": round(warm.wall_s, 4),
        "rps": round(warm.simulated_rps, 1),
        "batches": warm.batches,
        "cache_hit_rate": round(warm.cache.hit_rate, 4),
        "created": time.time(),
        "scenario": "steady",
        "n_requests": n_requests,
        "variant": "sharded/warm",
        "shards": shards,
        "replicas": shards,
        "memo_seeded": warm.cache.seeded,
        "warm_hits": warm.cache.seed_hits,
        "throughput_rps": round(warm.throughput_rps, 1),
        "p95_us": round(warm.latency_percentile(95) * 1e6, 1),
    }
    append_point(warm_point)
    show(f"BENCH_serving: steady/{n_requests}/sharded/warm trajectory "
         f"point", [warm_point])

    assert warm.requests == n_requests  # nothing lost or duplicated
    assert warm.cache.seeded > 0
    assert warm.cache.misses == 0  # workers never simulated a layer
    assert warm_point["rps"] > 0
