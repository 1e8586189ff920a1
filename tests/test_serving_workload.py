"""Tests for request traces, model mixes and batching policies."""

import random

import pytest

from repro.errors import ConfigError
from repro.models import model_names
from repro.serving import (
    ARRIVAL_SHAPES,
    BurstyProcess,
    ClusterEngine,
    DiurnalProcess,
    FixedSizeBatching,
    ModelMix,
    PoissonProcess,
    RampProcess,
    SCENARIOS,
    Scenario,
    TimeoutBatching,
    generate_trace,
    get_scenario,
    make_policy,
)
from repro.serving.workload import Request


class TestArrivalProcesses:
    @pytest.mark.parametrize("process", [
        PoissonProcess(1000.0),
        BurstyProcess(1000.0),
        RampProcess(1000.0),
        DiurnalProcess(1000.0),
    ])
    def test_times_ascending_and_complete(self, process):
        times = process.generate(500, random.Random(1))
        assert len(times) == 500
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_poisson_mean_rate(self):
        times = PoissonProcess(2000.0).generate(8000, random.Random(2))
        realised = len(times) / times[-1]
        assert realised == pytest.approx(2000.0, rel=0.1)

    def test_bursty_is_burstier_than_poisson(self):
        """Squared coefficient of variation of inter-arrivals > 1."""
        rng = random.Random(3)
        times = BurstyProcess(1000.0, burst_factor=8.0).generate(4000, rng)
        gaps = [b - a for a, b in zip(times, times[1:])]
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        assert var / mean**2 > 1.5

    def test_ramp_accelerates(self):
        times = RampProcess(1000.0, start_fraction=0.2).generate(
            2000, random.Random(4))
        first_half = times[999] - times[0]
        second_half = times[-1] - times[999]
        assert second_half < first_half

    def test_diurnal_crest_is_denser_than_trough(self):
        """The mid-cycle crest packs more arrivals per unit time than
        the opening trough (cosine wave, trough first)."""
        process = DiurnalProcess(1000.0, amplitude=0.8, cycles=1.0)
        times = process.generate(4000, random.Random(5))
        span = times[-1] - times[0]
        third = span / 3.0
        counts = [
            sum(1 for t in times
                if times[0] + k * third <= t < times[0] + (k + 1) * third)
            for k in range(3)
        ]
        assert counts[1] > counts[0]
        assert counts[1] > counts[2]

    def test_diurnal_validation(self):
        with pytest.raises(ConfigError):
            DiurnalProcess(1000.0, amplitude=1.5)
        with pytest.raises(ConfigError):
            DiurnalProcess(1000.0, cycles=0.0)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ConfigError):
            PoissonProcess(0.0)
        with pytest.raises(ConfigError):
            BurstyProcess(100.0, burst_factor=1.0)
        with pytest.raises(ConfigError):
            RampProcess(100.0, start_fraction=0.0)
        with pytest.raises(ConfigError):
            DiurnalProcess(100.0, phase=float("nan"))

    @pytest.mark.parametrize("build, field", [
        (lambda: PoissonProcess(float("nan")), "rate=nan"),
        (lambda: PoissonProcess(float("inf")), "rate=inf"),
        (lambda: BurstyProcess(1000.0, burst_factor=float("inf")),
         "burst_factor=inf"),
        (lambda: DiurnalProcess(1000.0, cycles=float("inf")),
         "cycles=inf"),
    ], ids=["poisson-nan-rate", "poisson-inf-rate", "bursty-inf-factor",
            "diurnal-inf-cycles"])
    def test_non_finite_parameters_rejected(self, build, field):
        # NaN slips past a bare ``<= 0`` check and inf past ``> 1``
        with pytest.raises(ConfigError, match=field):
            build()


class TestRegionsAndPhases:
    """The geo tier's workload hook: timezone-shifted waves must keep
    the streaming parity contract."""

    @pytest.mark.parametrize("phase", [0.25, 0.375, 0.875])
    def test_tz_shifted_diurnal_streams_bit_identical(self, phase):
        process = DiurnalProcess(1000.0, phase=phase)
        materialised = process.generate(800, random.Random(7))
        streamed = list(process.times(800, random.Random(7)))
        assert streamed == materialised

    def test_zero_phase_matches_stock_wave_bitwise(self):
        stock = DiurnalProcess(1000.0).generate(500, random.Random(8))
        phased = DiurnalProcess(1000.0, phase=0.0).generate(
            500, random.Random(8))
        assert phased == stock

    def test_phase_half_swaps_crest_and_trough(self):
        # half a cycle of offset starts the day at the crest, so the
        # opening third is now the dense one
        process = DiurnalProcess(1000.0, amplitude=0.8, cycles=1.0,
                                 phase=0.5)
        times = process.generate(4000, random.Random(5))
        span = times[-1] - times[0]
        third = span / 3.0
        counts = [
            sum(1 for t in times
                if times[0] + k * third <= t
                < times[0] + (k + 1) * third)
            for k in range(3)
        ]
        assert counts[0] > counts[1]


class TestModelMix:
    def test_uniform_zoo_covers_every_model(self):
        mix = ModelMix.uniform_zoo()
        assert set(mix.models()) == set(model_names())
        fractions = mix.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_hot_mix_shares(self):
        mix = ModelMix.hot("ResNet50", 0.5)
        assert mix.fractions()["ResNet50"] == pytest.approx(0.5)

    def test_hot_mix_rejects_unknown_model(self):
        with pytest.raises(ConfigError):
            ModelMix.hot("NotANet")

    def test_empty_and_negative_weights_rejected(self):
        with pytest.raises(ConfigError):
            ModelMix(())
        with pytest.raises(ConfigError):
            ModelMix((("AlexNet", -1.0),))

    @pytest.mark.parametrize("weights, named", [
        ((("AlexNet", 1.0), ("VGG16", float("nan"))), "nan for 'VGG16'"),
        ((("AlexNet", float("inf")), ("VGG16", 1.0)), "inf for 'AlexNet'"),
    ], ids=["nan-weight", "inf-weight"])
    def test_non_finite_weights_rejected(self, weights, named):
        with pytest.raises(ConfigError, match=named):
            ModelMix(weights)

    def test_overflowing_weight_total_rejected(self):
        with pytest.raises(ConfigError, match="finite total"):
            ModelMix((("AlexNet", 1e308), ("VGG16", 1e308)))


class TestScenarios:
    def test_stock_scenarios_cover_three_shapes(self):
        assert len(SCENARIOS) >= 3
        assert {s.shape for s in SCENARIOS.values()} == set(ARRIVAL_SHAPES)

    def test_unknown_scenario_raises(self):
        with pytest.raises(ConfigError):
            get_scenario("tsunami")

    def test_bad_shape_and_load_rejected(self):
        with pytest.raises(ConfigError):
            Scenario("x", shape="constant", load=0.5)
        # overload scenarios may exceed capacity, but not absurdly
        with pytest.raises(ConfigError):
            Scenario("x", shape="poisson", load=5.0)
        with pytest.raises(ConfigError):
            Scenario("x", shape="poisson", load=0.5, faults=-1)

    def test_trace_is_deterministic(self):
        scenario = get_scenario("steady")
        a = generate_trace(scenario, 1000.0, 200, seed=5)
        b = generate_trace(scenario, 1000.0, 200, seed=5)
        c = generate_trace(scenario, 1000.0, 200, seed=6)
        assert a == b
        assert a != c

    def test_trace_requests_well_formed(self):
        scenario = get_scenario("bursty")
        trace = generate_trace(scenario, 1000.0, 300, seed=1)
        assert [r.request_id for r in trace] == list(range(300))
        assert all(r.model in model_names() for r in trace)
        assert all(b.arrival > a.arrival for a, b in zip(trace, trace[1:]))


def _requests(arrivals, model="AlexNet"):
    return [Request(i, model, t) for i, t in enumerate(arrivals)]


def _batches(policy, arrivals):
    """(size, flush instant) of every batch one replica serves."""
    engine = ClusterEngine(
        ["replica"], policy, "round_robin",
        service_fn=lambda acc, model, size: 1e-6,
        energy_fn=lambda acc, model, size: 1e-9,
    )
    return [(b.size, b.flush)
            for b in engine.run(_requests(arrivals)).batches]


class TestBatchingPolicies:
    def test_fixed_flushes_at_size(self):
        # the size rule flushes at the 4th and 8th arrivals; the last
        # two wait for the drain at the final arrival
        policy = FixedSizeBatching(batch_size=4)
        assert _batches(policy, [float(t) for t in range(10)]) == \
            [(4, 3.0), (4, 7.0), (2, 9.0)]
        assert policy.deadline(_requests([0.0])) is None

    def test_timeout_deadline_tracks_oldest(self):
        policy = TimeoutBatching(max_batch=8, max_wait=1e-4)
        queue = _requests([2.0, 3.0])
        assert policy.deadline(queue) == pytest.approx(2.0 + 1e-4)
        assert policy.deadline([]) is None

    def test_timeout_flushes_at_max_batch(self):
        # each pair flushes at its second arrival, well inside the wait
        policy = TimeoutBatching(max_batch=2, max_wait=1e-4)
        assert _batches(policy, [0.0, 1e-5, 2e-5, 3e-5]) == \
            [(2, 1e-5), (2, 3e-5)]

    def test_make_policy(self):
        assert make_policy("fixed", batch_size=16).batch_size == 16
        timeout = make_policy("timeout", batch_size=4, max_wait=1e-3)
        assert timeout.max_batch == 4
        assert timeout.max_wait == pytest.approx(1e-3)
        with pytest.raises(ConfigError):
            make_policy("adaptive")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            FixedSizeBatching(0)
        with pytest.raises(ConfigError):
            TimeoutBatching(max_batch=4, max_wait=0.0)
