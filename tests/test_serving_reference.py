"""Exact-equivalence suite: optimised engine vs the retained reference.

The PR 4 hot-path rewrite (raw heap tuples, merge-scanned arrivals,
interned memo keys, hoisted service/energy rates, incremental p95
window) promises bit-identical results.  This suite holds it to that:
every stock scenario x policy x dispatch cell — plus autoscaling,
admission-control and the 10k-request bench cell — must reproduce the
reference engine's per-request latency and energy tuples *exactly*
(tuple equality on floats, not approx).

PR 5 extracted every scheduling decision behind the policy seams in
``repro.serving.policies`` while the reference kept its original
string-matched branches and inline control tick — so the same cells
now also prove the *seam* introduced zero drift, both for the default
string configuration and (``test_policy_object_cells_bit_identical``)
for explicitly constructed policy objects.
"""

from itertools import pairwise

import pytest

from repro.serving import (
    DISPATCH_STRATEGIES,
    FailurePlan,
    FifoFlush,
    LayerMemoCache,
    ReactiveScalePolicy,
    SCENARIOS,
    ServingSimulator,
    SloPolicy,
    generate_trace,
    get_scenario,
    make_dispatch,
    make_policy,
    make_scale,
)
from repro.serving.experiments import parse_autoscale
from repro.serving.reference import run_reference

#: One memo shared by every cell in the module: layer simulations are
#: the expensive part and are identical across cells, and sharing is a
#: supported LayerMemoCache mode.
SHARED = LayerMemoCache()


def reference_tuples(ref, trace):
    """Per-request (latencies, energies) from a reference EngineRun,
    mirroring how ServingSimulator.run derives them."""
    ordered = sorted(trace, key=lambda r: r.arrival)
    shed = frozenset(ref.shed)
    latencies = tuple(
        float("inf") if r.request_id in shed
        else ref.done[r.request_id][0] - r.arrival
        for r in ordered
    )
    energies = tuple(
        0.0 if r.request_id in shed else ref.done[r.request_id][1]
        for r in ordered
    )
    return latencies, energies


def run_cell(scenario_name, policy_name, dispatch, n=100, seed=5,
             **kwargs):
    """Run one cell on both engines and return (result, reference run,
    trace)."""
    scenario = get_scenario(scenario_name)
    sim = ServingSimulator("SMART", replicas=2,
                           policy=make_policy(policy_name),
                           dispatch=dispatch, cache=SHARED, **kwargs)
    rate = scenario.load * sim.capacity_rps(scenario)
    trace = generate_trace(scenario, rate, n, seed)
    failures = (FailurePlan(count=scenario.faults, seed=seed)
                if scenario.faults and sim.failures is None else None)
    result = sim.run(trace, scenario=scenario.name, rate=rate,
                     failures=failures)
    ref = run_reference(sim, trace, failures=failures)
    return result, ref, trace


def assert_identical(result, ref, trace):
    """Every observable of the run must match the reference exactly."""
    latencies, energies = reference_tuples(ref, trace)
    assert result.latencies == latencies
    assert result.energy_per_request == energies
    assert result.batches == ref.batches
    assert result.shed == ref.shed
    assert result.replica_trace == ref.replica_trace
    assert result.scale_events == ref.scale_events
    assert result.redispatched == ref.redispatched
    assert result.wasted_energy == ref.wasted_energy


@pytest.mark.parametrize("dispatch", DISPATCH_STRATEGIES)
@pytest.mark.parametrize("policy", ["fixed", "timeout"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_stock_cell_bit_identical(scenario, policy, dispatch):
    result, ref, trace = run_cell(scenario, policy, dispatch)
    assert_identical(result, ref, trace)


@pytest.mark.parametrize("dispatch", DISPATCH_STRATEGIES)
@pytest.mark.parametrize("policy", ["fixed", "timeout"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_policy_object_cells_bit_identical(scenario, policy, dispatch):
    """The policy seam with explicitly constructed objects (stock
    dispatch policies + FifoFlush) must still match the reference's
    string-branch engine on every stock cell."""
    result, ref, trace = run_cell(scenario, policy,
                                  make_dispatch(dispatch),
                                  flush=FifoFlush())
    assert_identical(result, ref, trace)


def test_bench_cell_10k_bit_identical():
    """The acceptance cell: the 10k-request bursty / 2-replica /
    timeout / least_loaded point BENCH_serving.json tracks must carry
    per-request latencies identical to the unoptimised reference."""
    result, ref, trace = run_cell("bursty", "timeout", "least_loaded",
                                  n=10_000, seed=7)
    assert_identical(result, ref, trace)
    assert len(result.latencies) == 10_000


def test_queue_autoscale_cell_bit_identical():
    """Autoscaling (queue metric) exercises CONTROL ticks, warm-up
    gates and scale-down draining on both engines."""
    scenario = get_scenario("overload")
    probe = ServingSimulator("SMART", replicas=2, cache=SHARED,
                             policy=make_policy("timeout"))
    rate = scenario.load * probe.capacity_rps(scenario)
    autoscale = ReactiveScalePolicy(min_replicas=2, max_replicas=6,
                                    high_queue=4, low_queue=1,
                                    tick=10 / rate, warmup=20 / rate,
                                    cooldown=15 / rate)
    result, ref, trace = run_cell("overload", "timeout", "least_loaded",
                                  n=300, autoscale=autoscale)
    assert result.scale_events  # the control plane actually acted
    assert_identical(result, ref, trace)


def test_p95_autoscale_cell_bit_identical():
    """The p95 metric runs the incremental latency window against the
    reference's full re-sort every control tick."""
    plain, _, _ = run_cell("overload", "timeout", "least_loaded", n=300)
    target = plain.latency_percentile(50)
    scenario = get_scenario("overload")
    probe = ServingSimulator("SMART", replicas=2, cache=SHARED,
                             policy=make_policy("timeout"))
    rate = scenario.load * probe.capacity_rps(scenario)
    autoscale = ReactiveScalePolicy(min_replicas=2, max_replicas=6,
                                    metric="p95", target_p95=target,
                                    window=64, tick=10 / rate,
                                    warmup=20 / rate, cooldown=15 / rate)
    result, ref, trace = run_cell("overload", "timeout", "least_loaded",
                                  n=300, autoscale=autoscale)
    assert result.scale_events
    assert_identical(result, ref, trace)


def test_scale_up_paths_cell_bit_identical():
    """A scale-down threshold just under the scale-up one, with no
    cooldown, makes one run cancel a retirement, revive a retired
    replica and grow the pool: every scale-up path against the
    reference."""
    autoscale = ReactiveScalePolicy(min_replicas=1, max_replicas=4,
                                    high_queue=12, low_queue=10,
                                    warmup=0.0, cooldown=0.0)
    result, ref, trace = run_cell("bursty", "timeout", "least_loaded",
                                  n=300, autoscale=autoscale)
    assert_identical(result, ref, trace)
    ups = sum(action == "up" for _, action in result.scale_events)
    added = sum(b > a for (_, a), (_, b)
                in pairwise(result.replica_trace))
    # a scale-up that adds no replica cancelled a retirement, and the
    # pool can grow by two (2 -> 4), so the other additions revived
    assert ups > added > 2
    assert max(batch.replica for batch in result.batches) == 3


def test_cli_reactive_scale_cell_bit_identical():
    """What ``serve-sim --autoscale 2:6 --scale reactive`` builds — the
    stock policy through ``make_scale`` — is auditable: the oracle
    used to refuse it as a custom ScalePolicy."""
    autoscale = make_scale("reactive", parse_autoscale("2:6"))
    result, ref, trace = run_cell("overload", "timeout", "least_loaded",
                                  n=300, autoscale=autoscale)
    assert result.scale_events
    assert_identical(result, ref, trace)


def test_shedding_cell_bit_identical():
    """Admission control: shed decisions depend on live in-system
    counts, the most order-sensitive state the engine keeps."""
    result, ref, trace = run_cell(
        "overload", "timeout", "least_loaded", n=300,
        slo=SloPolicy(target=1e-3, shed_depth=24),
    )
    assert result.shed  # shedding actually happened
    assert_identical(result, ref, trace)


def test_uncached_ground_truth_cell():
    """End-to-end ground truth: optimised engine + memo vs reference
    engine + *disabled* memo (every layer simulated directly)."""
    scenario = get_scenario("steady")
    optimised = ServingSimulator("SMART", replicas=2, cache=SHARED,
                                 policy=make_policy("timeout"),
                                 dispatch="least_loaded")
    rate = scenario.load * optimised.capacity_rps(scenario)
    trace = generate_trace(scenario, rate, 60, seed=3)
    result = optimised.run(trace)
    uncached = ServingSimulator("SMART", replicas=2,
                                cache=LayerMemoCache(enabled=False),
                                policy=make_policy("timeout"),
                                dispatch="least_loaded")
    ref = run_reference(uncached, trace)
    latencies, energies = reference_tuples(ref, trace)
    assert result.latencies == latencies
    assert result.energy_per_request == energies
    assert result.batches == ref.batches
