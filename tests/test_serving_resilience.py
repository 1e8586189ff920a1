"""Resilience tier: zero-drift, lockstep, determinism and the SLO win.

The PR 9 contract has three legs.  First, ``resilience="none"`` (or
None) is *bit-identical* to the pre-resilience engine on every stock
scenario x policy x dispatch cell — the seam itself costs nothing.
Second, every active policy (retry / hedge / degrade) runs in exact
lockstep between the optimised engine and the retained reference, and
replays identically across materialised vs streamed traces and across
shard counts.  Third, the behavioural point of the tier: on the
failure-storm cell, hedged dispatch strictly beats no-resilience SLO
attainment at bounded (< 2x) energy overhead.
"""

import pytest

from repro.errors import ConfigError
from repro.serving import (
    DISPATCH_STRATEGIES,
    FailurePlan,
    HedgePolicy,
    LayerMemoCache,
    RESILIENCE_POLICIES,
    ResiliencePolicy,
    RetryPolicy,
    SCENARIOS,
    ServingSimulator,
    SloPolicy,
    generate_trace,
    get_scenario,
    make_policy,
    make_resilience,
)
from repro.serving.reference import run_reference

SHARED = LayerMemoCache()

#: Deadlines tight enough to genuinely fire on 100-request cells.
ACTIVE_SPECS = (
    "retry:timeout_us=300,budget=2",
    "hedge:delay_us=200",
    "degrade:timeout_us=400",
)


def run_cell(scenario_name, policy_name, dispatch, resilience,
             n=100, seed=5, replicas=2, **kwargs):
    """One cell on both engines -> (result, reference run, trace)."""
    scenario = get_scenario(scenario_name)
    sim = ServingSimulator("SMART", replicas=replicas,
                           policy=make_policy(policy_name),
                           dispatch=dispatch, cache=SHARED,
                           resilience=resilience, **kwargs)
    rate = scenario.load * sim.capacity_rps(scenario)
    trace = generate_trace(scenario, rate, n, seed)
    failures = (FailurePlan(count=scenario.faults, seed=seed)
                if scenario.faults and sim.failures is None else None)
    result = sim.run(trace, scenario=scenario.name, rate=rate,
                     failures=failures)
    ref = run_reference(sim, trace, failures=failures)
    return result, ref, trace


def assert_lockstep(result, ref, trace):
    """The optimised run equals the reference run, float for float."""
    shed = frozenset(ref.shed)
    assert result.latencies == tuple(
        float("inf") if r.request_id in shed
        else ref.done[r.request_id][0] - r.arrival
        for r in trace)
    assert result.energy_per_request == tuple(
        0.0 if r.request_id in shed
        else ref.done[r.request_id][1] for r in trace)
    assert result.batches == ref.batches
    assert result.wasted_energy == ref.wasted_energy
    assert (result.timeouts, result.retries, result.hedges,
            result.cancels, result.degraded) == \
           (ref.timeouts, ref.retries, ref.hedges, ref.cancels,
            ref.degraded)


class TestMakeResilience:
    @pytest.mark.parametrize("spec", [None, "", "none"])
    def test_none_specs_resolve_to_none(self, spec):
        assert make_resilience(spec) is None

    def test_policy_instances_pass_through(self):
        policy = RetryPolicy(timeout_us=200)
        assert make_resilience(policy) is policy

    def test_stock_names_resolve(self):
        for name in RESILIENCE_POLICIES:
            if name == "none":
                continue
            policy = make_resilience(name)
            assert isinstance(policy, ResiliencePolicy)
            assert policy.name == name

    def test_options_parse(self):
        policy = make_resilience("retry:timeout_us=250,budget=3,"
                                 "backoff_us=10,jitter=0.5")
        assert policy.timeout_us == 250
        assert policy.budget == 3
        assert policy.backoff_us == 10
        assert policy.jitter == 0.5

    @pytest.mark.parametrize("bad", [
        "warp", "retry:warp=1", "hedge:delay_us=oops",
        "retry:budget=0", "hedge:delay_us=-5",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ConfigError):
            make_resilience(bad)

    def test_backoff_schedule_is_a_pure_function(self):
        # jitter is a hash of (seed, request, attempt): no hidden RNG
        # state, so schedules replay identically across processes
        a = RetryPolicy(timeout_us=100, backoff_us=50, seed=3)
        b = RetryPolicy(timeout_us=100, backoff_us=50, seed=3)
        schedule = [a.backoff_s(17, k) for k in (1, 2, 3)]
        assert [b.backoff_s(17, k) for k in (1, 2, 3)] == schedule
        assert schedule == sorted(schedule)  # exponential growth
        other = RetryPolicy(timeout_us=100, backoff_us=50, seed=4)
        assert [other.backoff_s(17, k) for k in (1, 2, 3)] != schedule


class TestZeroDrift:
    """``none`` must be bit-identical to the pre-resilience engine."""

    @pytest.mark.parametrize("dispatch", DISPATCH_STRATEGIES)
    @pytest.mark.parametrize("policy", ["fixed", "timeout"])
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_none_matches_default_everywhere(self, scenario, policy,
                                             dispatch):
        base, base_ref, trace = run_cell(scenario, policy, dispatch,
                                         resilience=None)
        none, none_ref, _ = run_cell(scenario, policy, dispatch,
                                     resilience="none")
        assert none.latencies == base.latencies
        assert none.energy_per_request == base.energy_per_request
        assert none.batches == base.batches
        assert none_ref.done == base_ref.done
        assert none_ref.batches == base_ref.batches
        assert none.resilience == ""
        assert none.timeouts == none.retries == none.hedges == 0

    def test_none_with_slo_still_identical(self):
        base, _, _ = run_cell("overload", "timeout", "least_loaded",
                              resilience=None,
                              slo=SloPolicy(target=2000e-6))
        none, _, _ = run_cell("overload", "timeout", "least_loaded",
                              resilience="none",
                              slo=SloPolicy(target=2000e-6))
        assert none.latencies == base.latencies
        assert none.energy_per_request == base.energy_per_request


class TestLockstep:
    """Active policies: optimised engine == reference engine, exactly."""

    @pytest.mark.parametrize("dispatch", DISPATCH_STRATEGIES)
    @pytest.mark.parametrize("spec", ACTIVE_SPECS)
    @pytest.mark.parametrize("scenario", ["overload", "bursty"])
    def test_active_cells_bit_identical(self, scenario, spec, dispatch):
        result, ref, trace = run_cell(scenario, "timeout", dispatch,
                                      resilience=spec)
        assert_lockstep(result, ref, trace)

    @pytest.mark.parametrize("spec", ["retry:timeout_us=3000,budget=1",
                                      "hedge:delay_us=2700"])
    def test_cancels_deep_in_backlogs_bit_identical(self, spec):
        # the failure-retry benchmark cell scaled to 2,000 requests:
        # replica backlogs run hundreds of batches deep (the cells
        # above stay under 100), and most cancels land between a
        # backlog's head and tail (526 of 540 under retry, pinned in
        # test_serving_event_heap.py)
        result, ref, trace = run_cell(
            "failure-storm", "timeout", "shard", resilience=spec,
            n=2_000, seed=1, replicas=6, slo=SloPolicy(target=3e-3),
            failures=FailurePlan(count=3, seed=7))
        assert result.cancels
        assert_lockstep(result, ref, trace)

    def test_the_cells_actually_fire(self):
        # guard against a vacuous lockstep: the tight deadlines above
        # must genuinely exercise every handler path
        retry, _, _ = run_cell("overload", "timeout", "shard",
                               resilience=ACTIVE_SPECS[0])
        hedge, _, _ = run_cell("overload", "timeout", "shard",
                               resilience=ACTIVE_SPECS[1])
        degrade, _, _ = run_cell("overload", "timeout", "shard",
                                 resilience=ACTIVE_SPECS[2])
        assert retry.timeouts > 0 and retry.retries > 0
        assert hedge.hedges > 0 and hedge.cancels > 0
        assert degrade.degraded > 0
        assert degrade.accuracy_cost > 0

    def test_custom_subclass_rejected_by_reference(self):
        class Weird(RetryPolicy):
            pass

        sim = ServingSimulator("SMART", replicas=2, cache=SHARED,
                               policy=make_policy("timeout"),
                               resilience=Weird(timeout_us=100))
        scenario = get_scenario("steady")
        rate = scenario.load * sim.capacity_rps(scenario)
        trace = generate_trace(scenario, rate, 20, 1)
        with pytest.raises(ConfigError, match="stock resilience"):
            run_reference(sim, trace)


class TestDeterminism:
    """Same seed => same retry/hedge schedules, however the trace and
    work are delivered."""

    @pytest.mark.parametrize("spec", ACTIVE_SPECS)
    def test_streamed_run_matches_materialised(self, spec):
        scenario = get_scenario("overload")
        sim = ServingSimulator("SMART", replicas=2, cache=SHARED,
                               policy=make_policy("timeout"),
                               dispatch="shard", resilience=spec)
        rate = scenario.load * sim.capacity_rps(scenario)
        trace = generate_trace(scenario, rate, 200, seed=9)
        networks = {m: sim.network(m) for m in scenario.mix.models()}
        batch = sim.make_engine(networks).run(trace)
        streamed = sim.make_engine(networks).run(
            iter(trace), span=(trace[0].arrival, trace[-1].arrival))
        assert streamed.done == batch.done
        assert streamed.batches == batch.batches
        assert (streamed.timeouts, streamed.retries, streamed.hedges,
                streamed.cancels, streamed.degraded) == \
               (batch.timeouts, batch.retries, batch.hedges,
                batch.cancels, batch.degraded)

    def test_reruns_replay_exactly(self):
        first, _, _ = run_cell("overload", "timeout", "least_loaded",
                               resilience=ACTIVE_SPECS[0], seed=13)
        again, _, _ = run_cell("overload", "timeout", "least_loaded",
                               resilience=ACTIVE_SPECS[0], seed=13)
        assert again.latencies == first.latencies
        assert again.energy_per_request == first.energy_per_request
        assert again.retries == first.retries

    def test_hedge_needs_a_second_replica(self):
        # with one replica there is no independent destination: the
        # policy must stay silent rather than duplicate onto the same
        # queue it is trying to escape
        result, ref, _ = run_cell("overload", "timeout", "round_robin",
                                  resilience="hedge:delay_us=100",
                                  replicas=1)
        assert result.hedges == 0 and ref.hedges == 0


class TestFailureStormWin:
    """The enforced behavioural criterion: on the failure-storm cell,
    hedged dispatch strictly beats no-resilience SLO attainment with
    bounded energy overhead."""

    CELL = dict(replicas=6, dispatch="shard", n=800, seed=7)

    def _storm(self, resilience):
        result, _, _ = run_cell("failure-storm", "timeout",
                                self.CELL["dispatch"], resilience,
                                n=self.CELL["n"], seed=self.CELL["seed"],
                                replicas=self.CELL["replicas"],
                                slo=SloPolicy(target=3000e-6))
        return result

    def test_hedge_strictly_beats_none_at_bounded_energy(self):
        none = self._storm(None)
        hedge = self._storm("hedge:delay_us=2700")
        assert none.slo_attainment < 1.0  # the storm genuinely hurts
        assert hedge.slo_attainment > none.slo_attainment
        assert hedge.hedges > 0
        energy_none = sum(none.energy_per_request)
        energy_hedge = sum(e for e in hedge.energy_per_request
                           if e != float("inf"))
        assert energy_hedge < 2 * energy_none

    def test_hedge_rescues_exactly_the_storm_victims(self):
        # the 17 misses under ``none`` are fault-redispatch victims
        # landing just over the SLO; the late hedge must rescue them
        # without pushing any previously-passing request over the line
        none = self._storm(None)
        hedge = self._storm("hedge:delay_us=2700")
        slo = 3000e-6
        newly_broken = sum(
            1 for a, b in zip(none.latencies, hedge.latencies)
            if a <= slo < b)
        assert newly_broken == 0

    def test_retry_stays_bounded_even_when_it_cannot_win(self):
        # under shard dispatch a retried singleton re-lands on the
        # model's home replica, so retry cannot rescue queue-delay
        # victims the way hedge does — but its cost must stay bounded
        # and every request still completes exactly once
        none = self._storm(None)
        retry = self._storm("retry:timeout_us=2700,budget=1")
        assert retry.retries > 0
        assert len(retry.latencies) == len(none.latencies)
        assert sum(retry.energy_per_request) < \
            2 * sum(none.energy_per_request)


class TestDegradeAccounting:
    def test_degrade_charges_the_discount(self):
        result, _, _ = run_cell("overload", "timeout", "shard",
                                resilience="degrade:timeout_us=400,"
                                           "service_scale=0.5,"
                                           "energy_scale=0.4,"
                                           "accuracy_drop=0.03")
        assert result.degraded > 0
        assert result.accuracy_cost == pytest.approx(
            result.degraded * 0.03 / len(result.requests))

    def test_hedge_waste_is_accounted(self):
        result, _, _ = run_cell("overload", "timeout", "shard",
                                resilience="hedge:delay_us=200")
        base, _, _ = run_cell("overload", "timeout", "shard",
                              resilience=None)
        assert result.hedges > 0
        # cancelled/losing duplicates burn real energy
        assert result.wasted_energy > base.wasted_energy

    def test_row_surfaces_the_counters(self):
        result, _, _ = run_cell("overload", "timeout", "shard",
                                resilience=ACTIVE_SPECS[0])
        row = result.to_row()
        assert row["resilience"] == "retry"
        assert row["timeouts"] == result.timeouts
        assert row["retries"] == result.retries


class TestSloBudget:
    def test_timeout_defaults_to_the_slo(self):
        # retry with no explicit deadline derives one from the SLO
        slo = SloPolicy(target=900e-6)
        policy = make_resilience("retry")
        assert policy.timeout_s(slo) == pytest.approx(900e-6)

    def test_hedge_defaults_to_half_the_slo(self):
        policy = HedgePolicy()
        assert policy.timeout_s(SloPolicy(target=1000e-6)) == \
            pytest.approx(500e-6)

    def test_deadline_needs_some_budget_source(self):
        # no SLO and no explicit timeout: nothing to arm, clean error
        with pytest.raises(ConfigError):
            run_cell("steady", "timeout", "shard", resilience="retry")
