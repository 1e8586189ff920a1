"""Telemetry sink: neutrality property + trace semantics.

The observability contract is that attaching a :class:`Telemetry`
sink to a run is a *pure observation*: the engine never reads the
sink, so every serving observable — per-request latency and energy
tuples, shed sets, batch records, scale trajectories — must stay
bit-identical to the same run with telemetry off.  The neutrality
matrix here covers the stock scenario x policy cells plus the
control-plane features whose handlers carry telemetry hooks
(autoscaling, SLO shedding, failure redispatch, stealing, EDF flush,
and the hedge, degrade and retry resilience policies, whose counters
the sink must report exactly as the result does).
The rest of the suite pins the trace itself: event/counter semantics,
the metrics timeline, and the JSONL save/load round trip.
"""

from collections import Counter

import pytest

from repro.errors import ConfigError
from repro.serving import (
    FailurePlan,
    LayerMemoCache,
    ReactiveScalePolicy,
    ServingSimulator,
    SloPolicy,
    TRACE_SCHEMA,
    Telemetry,
    generate_trace,
    get_scenario,
    load_trace,
    make_policy,
    make_scale,
)
from repro.serving.experiments import make_slo
from repro.serving.policies import WorkStealPolicy, make_flush

#: One shared memo: layer simulations are identical across cells.
SHARED = LayerMemoCache()
#: Resilience counters both the sink and the result report.
RESILIENCE_COUNTERS = ("hedges", "degraded", "retries", "cancels",
                       "timeouts")


def run_cell(scenario_name, policy_name="fixed",
             dispatch="round_robin", n=100, seed=5,
             telemetry=None, replicas=2, **kwargs):
    scenario = get_scenario(scenario_name)
    sim = ServingSimulator("SMART", replicas=replicas,
                           policy=make_policy(policy_name),
                           dispatch=dispatch, cache=SHARED,
                           telemetry=telemetry, **kwargs)
    rate = scenario.load * sim.capacity_rps(scenario)
    trace = generate_trace(scenario, rate, n, seed)
    failures = (FailurePlan(count=scenario.faults, seed=seed)
                if scenario.faults and sim.failures is None else None)
    return sim.run(trace, scenario=scenario.name, rate=rate,
                   failures=failures)


def assert_neutral(scenario, policy="fixed", **kwargs):
    """The observable outcome must not depend on the sink."""
    plain = run_cell(scenario, policy, **kwargs)
    telemetry = Telemetry(tick=200e-6)
    traced = run_cell(scenario, policy, telemetry=telemetry, **kwargs)
    assert traced.latencies == plain.latencies  # exact, not approx
    assert traced.energy_per_request == plain.energy_per_request
    assert traced.shed == plain.shed
    assert traced.scale_events == plain.scale_events
    assert traced.stolen == plain.stolen
    assert [(b.replica, b.start, b.done, b.size, b.energy)
            for b in traced.batches] \
        == [(b.replica, b.start, b.done, b.size, b.energy)
            for b in plain.batches]
    for counter in RESILIENCE_COUNTERS:
        assert telemetry.counters[counter] == getattr(traced, counter)
    return telemetry


class TestNeutrality:
    @pytest.mark.parametrize("scenario", ["steady", "bursty", "ramp",
                                          "diurnal", "hot-model"])
    @pytest.mark.parametrize("policy", ["fixed", "timeout"])
    def test_stock_cells_bit_identical(self, scenario, policy):
        assert_neutral(scenario, policy)

    def test_autoscale_cell_bit_identical(self):
        telemetry = assert_neutral(
            "diurnal",
            autoscale=ReactiveScalePolicy(min_replicas=1, max_replicas=4),
        )
        assert telemetry.counters["scale_ups"] > 0

    def test_predictive_scale_cell_bit_identical(self):
        assert_neutral(
            "diurnal",
            autoscale=make_scale("holt", ReactiveScalePolicy(
                min_replicas=1, max_replicas=4)),
        )

    def test_shed_cell_bit_identical(self):
        telemetry = assert_neutral(
            "overload", slo=make_slo(1500.0, shed_depth=16),
        )
        assert telemetry.counters["shed"] > 0

    def test_failure_cell_bit_identical(self):
        telemetry = assert_neutral("failure-storm")
        assert telemetry.counters["failures"] > 0
        assert telemetry.counters["recoveries"] > 0

    def test_steal_cell_bit_identical(self):
        assert_neutral("bursty", steal=WorkStealPolicy())

    def test_edf_flush_cell_bit_identical(self):
        assert_neutral("hot-model", flush=make_flush("edf"))

    def test_hedge_cell_bit_identical(self):
        telemetry = assert_neutral("failure-storm",
                                   resilience="hedge:delay_us=200")
        assert telemetry.counters["hedges"] == 77

    def test_degrade_cell_bit_identical(self):
        telemetry = assert_neutral(
            "overload", slo=make_slo(1500.0, shed_depth=16),
            resilience="degrade",
        )
        assert telemetry.counters["degraded"] == 100

    def test_retry_cell_bit_identical(self):
        telemetry = assert_neutral(
            "failure-storm", slo=make_slo(300.0),
            resilience="retry:timeout_us=300,budget=1",
        )
        assert telemetry.counters["retries"] == 92

    def test_off_path_records_nothing(self):
        result = run_cell("steady", telemetry=None)
        assert result.latencies  # ran at all


class TestTrace:
    def test_event_counts_match_outcome(self):
        telemetry = Telemetry()
        result = run_cell("bursty", n=120, telemetry=telemetry)
        counters = telemetry.counters
        assert counters["runs"] == 1
        assert counters["arrivals"] == 120
        assert counters["batches_done"] == len(result.batches)
        assert counters["requests_done"] == \
            sum(b.size for b in result.batches)
        kinds = {row["ev"] for row in telemetry.rows}
        assert {"run", "arrival", "flush", "batch_done"} <= kinds
        assert not any(r["ev"] in ("run", "sample")
                       for r in telemetry.events())

    def test_events_carry_sim_time_and_labels(self):
        telemetry = Telemetry()
        run_cell("steady", n=40, telemetry=telemetry)
        flushes = [r for r in telemetry.events() if r["ev"] == "flush"]
        assert flushes
        for row in flushes:
            assert row["t"] >= 0.0
            assert row["replica"] >= 0
            assert row["model"]
            assert row["size"] >= 1
            assert row["cause"] in ("ready", "deadline", "drain",
                                    "redispatch", "steal", "waiting")

    def test_timeline_samples_without_autoscaler(self):
        telemetry = Telemetry(tick=200e-6)
        run_cell("bursty", n=150, telemetry=telemetry)
        samples = telemetry.samples()
        assert len(samples) >= 2
        for row in samples:
            assert set(row) >= {"t", "queues", "inflight", "in_system",
                                "replicas", "p95_s", "rate_rps",
                                "energy_j", "done"}
        # energy and completions accumulate monotonically
        energy = [s["energy_j"] for s in samples]
        assert energy == sorted(energy)
        assert samples[-1]["done"] <= 150

    def test_timeline_counts_live_batches_only(self):
        # the failure-retry benchmark cell scaled to 2,000 requests,
        # where most cancels land between a backlog's head and tail:
        # each sample's per-replica in-flight count must equal the
        # batches the event trace shows dispatched there and not yet
        # completed, cancelled, stolen or failed over
        telemetry = Telemetry(tick=200e-6)
        run_cell("failure-storm", "timeout", "shard", n=2_000, seed=1,
                 telemetry=telemetry, replicas=6,
                 slo=SloPolicy(target=3e-3),
                 failures=FailurePlan(count=3, seed=7),
                 resilience="retry:timeout_us=3000,budget=1")
        live: dict[int, int] = {}  # batch -> replica
        samples = 0
        for row in telemetry.rows:
            ev = row["ev"]
            if ev == "flush":
                live[row["batch"]] = row["replica"]
            elif ev in ("batch_done", "cancel", "steal"):
                del live[row["batch"]]
            elif ev == "fail":
                live = {b: r for b, r in live.items()
                        if r != row["replica"]}
            elif ev == "sample":
                assert row["inflight"] == Counter(map(str, live.values()))
                samples += 1
        assert telemetry.counters["cancels"] and samples > 100

    def test_events_off_keeps_counters_and_samples(self):
        telemetry = Telemetry(events=False, tick=200e-6)
        run_cell("bursty", n=100, telemetry=telemetry)
        assert telemetry.counters["arrivals"] == 100
        assert not telemetry.events()
        assert telemetry.samples()

    def test_second_run_appends_with_new_run_boundary(self):
        telemetry = Telemetry()
        run_cell("steady", n=30, telemetry=telemetry)
        run_cell("bursty", n=30, telemetry=telemetry)
        boundaries = [r for r in telemetry.rows if r["ev"] == "run"]
        assert [b["run"] for b in boundaries] == [0, 1]
        assert telemetry.counters["runs"] == 2
        assert telemetry.counters["arrivals"] == 60

    def test_invalid_tick_rejected(self):
        with pytest.raises(ConfigError):
            Telemetry(tick=0.0)
        with pytest.raises(ConfigError):
            Telemetry(tick=-1e-3)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        telemetry = Telemetry(tick=200e-6)
        run_cell("bursty", n=80, telemetry=telemetry)
        path = tmp_path / "trace.jsonl"
        telemetry.save(path)
        meta, rows = load_trace(path)
        assert meta["schema"] == TRACE_SCHEMA
        assert meta["rows"] == len(rows) == len(telemetry.rows)
        assert meta["counters"] == telemetry.counters
        assert rows == telemetry.rows

    def test_load_skips_malformed_lines(self, tmp_path):
        telemetry = Telemetry()
        run_cell("steady", n=20, telemetry=telemetry)
        path = tmp_path / "trace.jsonl"
        telemetry.save(path)
        with path.open("a") as handle:
            handle.write("{broken\n")
        _meta, rows = load_trace(path)
        assert len(rows) == len(telemetry.rows)

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigError):
            load_trace(tmp_path / "absent.jsonl")

    def test_load_headerless_file_raises(self, tmp_path):
        path = tmp_path / "bare.jsonl"
        path.write_text('{"t": 0.0, "ev": "arrival"}\n')
        with pytest.raises(ConfigError):
            load_trace(path)
