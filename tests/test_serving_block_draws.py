"""Block-drawn traces against the per-draw loops they replaced.

The trace layer draws arrivals and models in blocks of
``workload.DRAW_BLOCK`` (one list comprehension and one running sum per
block).  The oracle here keeps the per-draw bodies those blocks
replaced: one ``rng.expovariate`` per arrival, one ``rng.random()`` per
model sample, and a ``random()`` burn loop.  Every block path must
equal them bit for bit, in values and in the RNG state it leaves.
"""

import math
import random
from bisect import bisect
from dataclasses import replace
from itertools import accumulate
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.models import model_names
from repro.serving import (
    BurstyProcess,
    DiurnalProcess,
    ModelMix,
    PoissonProcess,
    RampProcess,
    Scenario,
    burn_draws,
    generate_trace,
    shard_trace,
    stream_trace,
    trace_span,
)
from repro.serving.geo import _admissions
from repro.serving.workload import DRAW_BLOCK, Request


# ---------------------------------------------------------------------------
# The per-draw oracle
# ---------------------------------------------------------------------------
def _poisson(process, n, rng):
    t = 0.0
    for _ in range(n):
        t += rng.expovariate(process.rate)
        yield t


def _bursty(process, n, rng):
    idle_mean = process.burst_size * (
        1.0 / process.rate - 1.0 / (process.rate * process.burst_factor))
    done, t = 0, 0.0
    while done < n:
        for _ in range(min(process.burst_size, n - done)):
            t += rng.expovariate(process.rate * process.burst_factor)
            done += 1
            yield t
        t += rng.expovariate(1.0 / idle_mean)


def _ramp(process, n, rng):
    t = 0.0
    for i in range(n):
        frac = i / max(1, n - 1)
        instant = process.rate * (process.start_fraction
                                  + (1.0 - process.start_fraction) * frac)
        t += rng.expovariate(instant)
        yield t


def _diurnal(process, n, rng):
    t = 0.0
    offset = 2.0 * math.pi * process.phase
    for i in range(n):
        frac = i / max(1, n - 1)
        instant = process.rate * (
            1.0 - process.amplitude
            * math.cos(2.0 * math.pi * process.cycles * frac + offset))
        t += rng.expovariate(instant)
        yield t


ORACLE_TIMES = {PoissonProcess: _poisson, BurstyProcess: _bursty,
                RampProcess: _ramp, DiurnalProcess: _diurnal}


def oracle_times(process, n, rng):
    return list(ORACLE_TIMES[type(process)](process, n, rng))


def oracle_models(mix, rng, n):
    """One ``rng.random()`` per request, bisected as ``random.choices``
    does."""
    names = [name for name, _ in mix.weights]
    cum = list(accumulate(w for _, w in mix.weights))
    total = cum[-1] + 0.0
    return [names[bisect(cum, rng.random() * total, 0, len(cum) - 1)]
            for _ in range(n)]


def oracle_burn(process, n, rng):
    for _ in range(process.draws(n)):
        rng.random()


def oracle_trace(scenario, rate, n, seed):
    rng = random.Random(seed)
    times = oracle_times(scenario.process(rate), n, rng)
    models = oracle_models(scenario.mix, rng, n)
    return tuple(Request(i, model, t)
                 for i, (model, t) in enumerate(zip(models, times)))


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
#: 1, and either side of one and two blocks (and of one and two blocks
#: of whole default-size bursts).
EDGES = sorted({1, 2} | {k * block + d
                         for block in (DRAW_BLOCK, DRAW_BLOCK // 20 * 20)
                         for k in (1, 2) for d in (-1, 0, 1)})
sizes = st.one_of(st.sampled_from(EDGES), st.integers(1, 2 * DRAW_BLOCK + 2))
seeds = st.integers(0, 2**32 - 1)
rates = st.floats(1.0, 1e6)


@st.composite
def processes(draw):
    shape = draw(st.sampled_from(["poisson", "bursty", "ramp", "diurnal"]))
    rate = draw(rates)
    if shape == "poisson":
        return PoissonProcess(rate)
    if shape == "bursty":
        return BurstyProcess(
            rate, burst_factor=draw(st.floats(1.01, 50.0)),
            burst_size=draw(st.one_of(
                st.integers(1, 40),
                st.integers(DRAW_BLOCK - 2, DRAW_BLOCK + 2))))
    if shape == "ramp":
        return RampProcess(rate, start_fraction=draw(st.floats(0.01, 1.0)))
    return DiurnalProcess(rate, amplitude=draw(st.floats(0.01, 0.99)),
                          cycles=draw(st.floats(0.1, 10.0)),
                          phase=draw(st.floats(-2.0, 2.0)))


@st.composite
def mixes(draw):
    models = draw(st.lists(st.sampled_from(model_names()), min_size=1,
                           unique=True))
    weights = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(models),
                            max_size=len(models)))
    return ModelMix(tuple(zip(models, weights)))


def traffic(process, mix):
    """A scenario stand-in that serves ``process`` whatever the rate,
    so every process parameter reaches the trace builders."""
    return SimpleNamespace(process=lambda rate: process, mix=mix)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(process=processes(), n=sizes, seed=seeds)
def test_times_and_burn_equal_the_per_draw_loops(process, n, seed):
    rng, ref = random.Random(seed), random.Random(seed)
    assert list(process.times(n, rng)) == oracle_times(process, n, ref)
    assert rng.getstate() == ref.getstate()
    burned, ref = random.Random(seed), random.Random(seed)
    burn_draws(process, n, burned)
    oracle_burn(process, n, ref)
    assert burned.getstate() == ref.getstate()


@settings(max_examples=100, deadline=None)
@given(mix=mixes(), n=sizes, seed=seeds)
def test_mix_draw_equals_sample(mix, n, seed):
    rng, ref = random.Random(seed), random.Random(seed)
    assert mix.draw(rng, n) == [mix.sample(ref) for _ in range(n)]
    assert rng.getstate() == ref.getstate()


@settings(max_examples=60, deadline=None)
@given(process=processes(), mix=mixes(), n=sizes, seed=seeds)
def test_traces_equal_the_oracle(process, mix, n, seed):
    scenario = traffic(process, mix)
    oracle = oracle_trace(scenario, 0.0, n, seed)
    assert generate_trace(scenario, 0.0, n, seed) == oracle
    assert tuple(stream_trace(scenario, 0.0, n, seed)) == oracle
    assert trace_span(scenario, 0.0, n, seed) == (oracle[0].arrival,
                                                  oracle[-1].arrival)


@settings(max_examples=50, deadline=None)
@given(process=processes(), mix=mixes(), n=sizes, seed=seeds,
       shards=st.integers(1, 5), extra=st.integers(0, 3),
       parent_span=st.booleans())
def test_shard_slices_union_to_the_oracle(process, mix, n, seed, shards,
                                          extra, parent_span):
    scenario = traffic(process, mix)
    oracle = oracle_trace(scenario, 0.0, n, seed)
    span = (oracle[0].arrival, oracle[-1].arrival)
    seen = []
    for shard in range(shards):
        piece = shard_trace(scenario, 0.0, n, seed, shards=shards,
                            shard=shard, replicas=shards + extra,
                            span=span if parent_span else None)
        assert piece.span == span
        seen.extend(piece)
    assert tuple(sorted(seen, key=lambda r: r.request_id)) == oracle


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(["poisson", "bursty", "ramp", "diurnal"]),
       mix=mixes(), phase=st.floats(-1.0, 1.0),
       regions=st.lists(st.tuples(sizes, rates, seeds,
                                  st.sampled_from([0.0, 0.25, 0.875])),
                        min_size=1, max_size=3))
def test_geo_admissions_equal_per_region_oracle(shape, mix, phase,
                                                regions):
    scenario = Scenario("x", shape=shape, load=0.5, mix=mix, phase=phase)
    spec = {"scenario": scenario,
            "regions": [(f"r{i}", "SMART", 2, 0.09, tz)
                        for i, (_, _, _, tz) in enumerate(regions)],
            "counts": [n for n, _, _, _ in regions],
            "rates": [rate for _, rate, _, _ in regions],
            "seeds": [s for _, _, s, _ in regions]}
    index = {model: k for k, model in enumerate(mix.models())}
    for (arrivals, models), (n, rate, s, tz) in zip(_admissions(spec),
                                                    regions):
        local = replace(scenario, phase=phase + tz) if tz else scenario
        rng = random.Random(s)
        assert list(arrivals) == oracle_times(local.process(rate), n, rng)
        assert list(models) == [index[m]
                                for m in oracle_models(mix, rng, n)]


class _Replay(random.Random):
    """An RNG whose ``random()`` replays fixed values."""

    def __init__(self, values):
        super().__init__(0)
        self._values = iter(values)

    def random(self):
        return next(self._values)


def test_a_zero_first_draw_arrives_at_positive_zero():
    # random() == 0.0 makes a gap of -0.0; summed from t = 0.0 it must
    # stay the +0.0 arrival the per-draw loop yields
    values = [0.0, 0.5, 0.25]
    for process in (PoissonProcess(10.0), BurstyProcess(10.0),
                    RampProcess(10.0), DiurnalProcess(10.0)):
        first = next(process.times(2, _Replay(values)))
        assert first == 0.0 and math.copysign(1.0, first) == 1.0
        assert list(process.times(2, _Replay(values))) == oracle_times(
            process, 2, _Replay(values))
