"""Inference request-traffic generation for the serving simulator.

A trace is a time-ordered tuple of :class:`Request` objects, each
naming a model-zoo network and an arrival instant.  Arrival shapes are
the three regimes a production fleet actually sees:

- **poisson**: memoryless steady-state traffic at a constant rate;
- **bursty**: an on/off process — back-to-back bursts at a multiple of
  the base rate separated by quiet stretches (same mean rate);
- **ramp**: a flash crowd — the rate climbs linearly from a fraction
  of the target to its peak across the trace;
- **diurnal**: a day/night wave — the rate swings sinusoidally around
  the mean, trough first (the autoscaler's bread and butter).

Rates are *relative*: a :class:`Scenario` carries a ``load`` factor
(offered load as a fraction of cluster capacity) and the serving
simulator calibrates the absolute requests/second against the
accelerator under test, so the same scenario is meaningful for a TPU
and for SMART.  Everything is seeded and deterministic.

Traces come in two physical forms with identical contents:
:func:`generate_trace` materialises the full tuple, while
:func:`stream_trace` yields the same :class:`Request` objects one at a
time holding one block of draws (:data:`DRAW_BLOCK`) in memory —
``tuple(stream_trace(...)) == generate_trace(...)`` for every scenario
and seed.  On top of the stream, :func:`shard_trace` splits a trace
deterministically across worker shards by the same model hash
:class:`~repro.serving.policies.ShardDispatch` pins replicas with, so
a sharded run partitions exactly the traffic each home replica would
have served in one process.

Every draw is taken in blocks: one list comprehension of
``-log(1.0 - random()) / rate`` per block (``random.expovariate``'s
own expression, one ``random()`` per draw) and one
``accumulate(gaps, initial=t)`` running sum from the previous block's
last instant — the same float operations, in the same order, as a
per-draw ``t += rng.expovariate(rate)`` loop, so the traces are
bit-identical to it.
"""

from __future__ import annotations

import math
import random as _random
import zlib
from bisect import bisect
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, islice
from typing import Iterable, Iterator

from repro.errors import ConfigError
from repro.models import model_names


@dataclass(slots=True, unsafe_hash=True)
class Request:
    """One inference request.

    A trace holds one of these per request — slots keep the millions
    of instances a long trace materialises compact.  Read-only by
    convention, not ``frozen``: a frozen dataclass pays one
    ``object.__setattr__`` per field on every construction.  Equality
    is field-wise between requests only (never with a tuple), and the
    hash is that of the field tuple.

    Attributes:
        request_id: position in the trace (unique, ascending).
        model: model-zoo network name.
        arrival: arrival time (s) from the start of the trace.
        region: home region that admitted the request ("" for
            single-region runs; the geo tier tags regional streams).
    """

    request_id: int
    model: str
    arrival: float
    region: str = ""

    def __reduce__(self):
        # rebuild through the constructor: a compact pickle under every
        # protocol (a plain slots class pickles only from protocol 2)
        return type(self), (self.request_id, self.model, self.arrival,
                            self.region)


@dataclass(frozen=True)
class ModelMix:
    """A weighted mix of model-zoo networks.

    Attributes:
        weights: ``(model, weight)`` pairs; weights need not sum to 1.
    """

    weights: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ConfigError("model mix cannot be empty")
        for name, w in self.weights:
            if not (w > 0 and math.isfinite(w)):
                raise ConfigError(f"model-mix weights must be positive "
                                  f"and finite, got weight {w!r} for "
                                  f"'{name}'")
        if not math.isfinite(sum(w for _, w in self.weights)):
            raise ConfigError("model-mix weights must have a finite "
                              "total")

    @staticmethod
    def uniform_zoo() -> "ModelMix":
        """Every zoo model with equal weight."""
        return ModelMix(tuple((name, 1.0) for name in model_names()))

    @staticmethod
    def hot(model: str, share: float = 0.5) -> "ModelMix":
        """One hot model taking ``share`` of traffic, rest uniform."""
        if not 0.0 < share < 1.0:
            raise ConfigError("hot share must be in (0, 1)")
        others = [n for n in model_names() if n != model]
        if len(others) == len(model_names()):
            raise ConfigError(f"unknown model '{model}'")
        cold = (1.0 - share) / len(others)
        return ModelMix(((model, share),)
                        + tuple((n, cold) for n in others))

    def models(self) -> tuple[str, ...]:
        """The distinct models in the mix."""
        return tuple(name for name, _ in self.weights)

    def fractions(self) -> dict[str, float]:
        """Normalised traffic share per model."""
        total = sum(w for _, w in self.weights)
        return {name: w / total for name, w in self.weights}

    def sample(self, rng: _random.Random) -> str:
        """Draw one model name."""
        names = [n for n, _ in self.weights]
        weights = [w for _, w in self.weights]
        return rng.choices(names, weights=weights, k=1)[0]

    def draw(self, rng: _random.Random, n: int) -> list[str]:
        """``n`` model names, bit-identical to ``n`` :meth:`sample` calls.

        ``sample`` rebuilds the cumulative-weight table on every call;
        this builds it once and replays exactly the ``random.choices``
        draw (one ``rng.random()`` per name, same bisect over the same
        accumulated floats), leaving ``rng`` where ``n`` ``sample``
        calls would.
        """
        names = [name for name, _ in self.weights]
        cum = list(accumulate(w for _, w in self.weights))
        total = cum[-1] + 0.0
        hi = len(cum) - 1
        random = rng.random
        return [names[bisect(cum, random() * total, 0, hi)]
                for _ in range(n)]


# ---------------------------------------------------------------------------
# Arrival processes
# ---------------------------------------------------------------------------
#: Draws per block of a trace.  A block is one list comprehension of
#: draws and one running sum, which is what makes the draws cheap; a
#: lazy :meth:`times` iterator or a streamed trace holds one block.
DRAW_BLOCK = 1024


def _blocks(n: int, size: int = DRAW_BLOCK) -> list[range]:
    """Positions ``0..n-1`` cut into consecutive blocks of ``size``."""
    return [range(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _summed(gap_blocks: Iterable[list[float]]) -> Iterator[list[float]]:
    """Running sums of successive gap blocks, one list per block.

    Each block is summed from the previous block's last instant with
    ``accumulate(gaps, initial=t)`` minus its first element: the same
    additions, in the same order, as a per-draw ``t += gap``.  (Summing
    the block alone and adding ``t`` after rounds differently, and
    without ``initial`` a first gap of ``-0.0`` would surface as an
    arrival of ``-0.0``.)
    """
    t = 0.0
    for gaps in gap_blocks:
        sums = list(accumulate(gaps, initial=t))
        t = sums[-1]
        del sums[0]
        yield sums


def _positive(value: float, what: str, field_name: str) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise ConfigError(f"{what} must be positive and finite, got "
                          f"{field_name}={value!r}")


@dataclass(frozen=True)
class PoissonProcess:
    """Memoryless arrivals at a constant ``rate`` (requests/s)."""

    rate: float

    def __post_init__(self) -> None:
        _positive(self.rate, "arrival rate", "rate")

    def times(self, n: int, rng: _random.Random) -> Iterator[float]:
        """``n`` ascending arrival times (s), one ``rng.random()`` each.

        Lazy, one block at a time: it may draw a block ahead of what it
        has yielded, so drain it before drawing from ``rng`` yourself.
        """
        lam, random, log = self.rate, rng.random, math.log
        return chain.from_iterable(_summed(
            [-log(1.0 - random()) / lam for _ in block]
            for block in _blocks(n)))

    def draws(self, n: int) -> int:
        """RNG draws :meth:`times` consumes for ``n`` arrivals."""
        return n

    def generate(self, n: int, rng: _random.Random) -> list[float]:
        """``n`` ascending arrival times (s)."""
        return list(self.times(n, rng))


def _bursts(k: int, size: int, on, off) -> list:
    """One entry per draw of ``k`` arrivals in bursts of ``size``:
    ``on`` per arrival, then ``off`` for the idle draw that follows
    every burst, including a short final one."""
    full, short = divmod(k, size)
    return (([on] * size + [off]) * full
            + ([on] * short + [off] if short else []))


@dataclass(frozen=True)
class BurstyProcess:
    """On/off arrivals: bursts at ``burst_factor`` x the base rate.

    Each burst delivers ``burst_size`` requests back-to-back at the
    elevated rate, then the process idles long enough that the mean
    rate stays ``rate``.
    """

    rate: float
    burst_factor: float = 5.0
    burst_size: int = 20

    def __post_init__(self) -> None:
        _positive(self.rate, "arrival rate", "rate")
        if not (self.burst_factor > 1.0
                and math.isfinite(self.burst_factor)):
            raise ConfigError(f"burst factor must be finite and exceed "
                              f"1, got burst_factor={self.burst_factor!r}")
        if self.burst_size < 1:
            raise ConfigError("burst size must be >= 1")

    def times(self, n: int, rng: _random.Random) -> Iterator[float]:
        """``n`` ascending arrival times (s), one ``rng.random()`` each
        plus one per burst for the idle gap (never yielded).

        Lazy, one block of whole bursts at a time: it may draw a block
        ahead of what it has yielded, so drain it before drawing from
        ``rng`` yourself.
        """
        size = self.burst_size
        fast = self.rate * self.burst_factor
        # mean gap that restores the target rate after a fast burst
        idle_mean = size * (1.0 / self.rate
                            - 1.0 / (self.rate * self.burst_factor))
        slow = 1.0 / idle_mean
        random, log = rng.random, math.log
        blocks = _blocks(n, max(1, DRAW_BLOCK // size) * size)
        gaps = ([-log(1.0 - random()) / lam
                 for lam in _bursts(len(block), size, fast, slow)]
                for block in blocks)
        is_arrival = (_bursts(len(block), size, True, False)
                      for block in blocks)
        return chain.from_iterable(map(compress, _summed(gaps),
                                       is_arrival))

    def draws(self, n: int) -> int:
        """RNG draws :meth:`times` consumes for ``n`` arrivals.

        One per arrival plus one idle draw per burst — the idle gap is
        drawn after every burst, including the final (possibly short)
        one.
        """
        return n + math.ceil(n / self.burst_size)

    def generate(self, n: int, rng: _random.Random) -> list[float]:
        """``n`` ascending arrival times (s)."""
        return list(self.times(n, rng))


@dataclass(frozen=True)
class RampProcess:
    """A flash crowd: the rate climbs linearly to ``rate`` (peak).

    The instantaneous rate at request ``i`` of ``n`` interpolates from
    ``start_fraction * rate`` up to ``rate``.
    """

    rate: float
    start_fraction: float = 0.25

    def __post_init__(self) -> None:
        _positive(self.rate, "arrival rate", "rate")
        if not 0.0 < self.start_fraction <= 1.0:
            raise ConfigError("start fraction must be in (0, 1]")

    def times(self, n: int, rng: _random.Random) -> Iterator[float]:
        """``n`` ascending arrival times (s), one ``rng.random()`` each.

        Lazy, one block at a time: it may draw a block ahead of what it
        has yielded, so drain it before drawing from ``rng`` yourself.
        """
        rate, start = self.rate, self.start_fraction
        rise = 1.0 - start
        last = max(1, n - 1)
        random, log = rng.random, math.log
        return chain.from_iterable(_summed(
            [-log(1.0 - random()) / (rate * (start + rise * (i / last)))
             for i in block]
            for block in _blocks(n)))

    def draws(self, n: int) -> int:
        """RNG draws :meth:`times` consumes for ``n`` arrivals."""
        return n

    def generate(self, n: int, rng: _random.Random) -> list[float]:
        """``n`` ascending arrival times (s)."""
        return list(self.times(n, rng))


@dataclass(frozen=True)
class DiurnalProcess:
    """A day/night wave: the rate swings sinusoidally around ``rate``.

    The instantaneous rate at request ``i`` of ``n`` is
    ``rate * (1 - amplitude * cos(2 pi * (cycles * i / n) + 2 pi *
    phase))`` — trough first (night), cresting to ``(1 + amplitude) x``
    mid-cycle, with the mean over whole cycles staying ``rate``.

    ``phase`` shifts the wave horizontally in cycle fractions: a
    region three hours east of the reference clock runs ``phase=3/24``
    ahead, so its crest lands earlier in the trace.  ``phase=0`` adds
    a literal ``+ 0.0`` to the cosine argument, which is bitwise
    identity for finite floats — unshifted traces stay bit-identical
    to the pre-phase formulation.
    """

    rate: float
    amplitude: float = 0.6
    cycles: float = 2.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        _positive(self.rate, "arrival rate", "rate")
        if not 0.0 < self.amplitude < 1.0:
            raise ConfigError("diurnal amplitude must be in (0, 1)")
        _positive(self.cycles, "diurnal cycle count", "cycles")
        if not math.isfinite(self.phase):
            raise ConfigError("diurnal phase must be finite")

    def times(self, n: int, rng: _random.Random) -> Iterator[float]:
        """``n`` ascending arrival times (s), one ``rng.random()`` each.

        Lazy, one block at a time: it may draw a block ahead of what it
        has yielded, so drain it before drawing from ``rng`` yourself.
        """
        rate, amplitude = self.rate, self.amplitude
        # ((2 pi) * cycles) * frac: hoisting the product is exact
        wave = 2.0 * math.pi * self.cycles
        offset = 2.0 * math.pi * self.phase
        last = max(1, n - 1)
        random, log, cos = rng.random, math.log, math.cos
        return chain.from_iterable(_summed(
            [-log(1.0 - random())
             / (rate * (1.0 - amplitude * cos(wave * (i / last) + offset)))
             for i in block]
            for block in _blocks(n)))

    def draws(self, n: int) -> int:
        """RNG draws :meth:`times` consumes for ``n`` arrivals."""
        return n

    def generate(self, n: int, rng: _random.Random) -> list[float]:
        """``n`` ascending arrival times (s)."""
        return list(self.times(n, rng))


def burn_draws(process, n: int, rng: _random.Random) -> None:
    """Advance ``rng`` past the draws ``process.times(n, rng)`` makes.

    Every arrival process consumes exactly one ``rng.random()`` call
    per draw, and ``random()`` takes two 32-bit words of the Mersenne
    Twister while ``getrandbits(64 * k)`` takes ``2 * k``, so when the
    process can report its draw count up front the burn is one
    ``getrandbits`` per block — no logs, no floats.  The RNG ends in
    the bit-identical state a full :meth:`times` pass leaves it in;
    processes without a ``draws`` method fall back to the real pass.
    """
    draws = getattr(process, "draws", None)
    if draws is None:
        deque(process.times(n, rng), maxlen=0)
        return
    getrandbits = rng.getrandbits
    for block in _blocks(draws(n)):
        getrandbits(64 * len(block))


ARRIVAL_SHAPES = {
    "poisson": PoissonProcess,
    "bursty": BurstyProcess,
    "ramp": RampProcess,
    "diurnal": DiurnalProcess,
}

#: Offered load ceiling; > 1 deliberately outruns calibrated capacity
#: (the overload scenario), anything past this is almost surely a bug.
MAX_LOAD = 4.0


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """A named traffic scenario: arrival shape + offered load + mix.

    Attributes:
        name: scenario key.
        shape: one of :data:`ARRIVAL_SHAPES`.
        load: offered load as a fraction of calibrated cluster
            capacity (the simulator turns this into requests/s);
            values above 1 deliberately overload the cluster.
        mix: traffic mix over the model zoo.
        description: one-line summary for reports.
        faults: replica failures to inject when the simulator has no
            explicit failure plan (0 = none).
        phase: timezone offset of the diurnal wave in cycle fractions
            (see :class:`DiurnalProcess`); ignored by shapes without a
            wave to shift.  The geo tier sets this per region so each
            region's day/night crest lands at its local hour.
    """

    name: str
    shape: str
    load: float
    mix: ModelMix = field(default_factory=ModelMix.uniform_zoo)
    description: str = ""
    faults: int = 0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.shape not in ARRIVAL_SHAPES:
            raise ConfigError(
                f"unknown arrival shape '{self.shape}'; known: "
                f"{', '.join(ARRIVAL_SHAPES)}"
            )
        if not 0.0 < self.load <= MAX_LOAD:
            raise ConfigError(f"load must be in (0, {MAX_LOAD:g}]")
        if self.faults < 0:
            raise ConfigError("fault count must be >= 0")
        if not math.isfinite(self.phase):
            raise ConfigError("scenario phase must be finite")

    def process(self, rate: float):
        """Instantiate the arrival process at an absolute rate."""
        if self.phase and self.shape == "diurnal":
            return DiurnalProcess(rate, phase=self.phase)
        return ARRIVAL_SHAPES[self.shape](rate)


#: The stock scenarios ``repro serve-sim`` reports on.
SCENARIOS: dict[str, Scenario] = {
    s.name: s for s in (
        Scenario("steady", shape="poisson", load=0.6,
                 description="steady Poisson traffic at 60% load"),
        Scenario("bursty", shape="bursty", load=0.5,
                 description="on/off bursts, 50% mean load"),
        Scenario("ramp", shape="ramp", load=0.7,
                 description="flash crowd ramping to 70% load"),
        Scenario("hot-model", shape="poisson", load=0.6,
                 mix=ModelMix.hot("ResNet50", 0.5),
                 description="60% load, half the traffic on ResNet50"),
        Scenario("diurnal", shape="diurnal", load=0.6,
                 description="day/night wave around 60% load"),
        Scenario("overload", shape="poisson", load=1.3,
                 description="sustained 130% load; pairs with "
                             "admission control"),
        Scenario("failure-storm", shape="poisson", load=0.55,
                 faults=3,
                 description="steady 55% load with three replica "
                             "outages"),
    )
}


def get_scenario(name: str) -> Scenario:
    """Look up a stock scenario.

    Raises:
        ConfigError: for unknown names.
    """
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario '{name}'; known: {', '.join(SCENARIOS)}"
        ) from None


def generate_trace(scenario: Scenario, rate: float, n: int,
                   seed: int = 0) -> tuple[Request, ...]:
    """A deterministic request trace for one scenario.

    Args:
        scenario: arrival shape + mix.
        rate: absolute arrival rate (requests/s).
        n: trace length.
        seed: RNG seed; the same seed reproduces the same trace.
    """
    if n < 1:
        raise ConfigError("trace needs at least one request")
    rng = _random.Random(seed)
    times = scenario.process(rate).generate(n, rng)
    models = scenario.mix.draw(rng, n)
    return tuple(map(Request, range(n), models, times))


# ---------------------------------------------------------------------------
# Streaming + sharding
# ---------------------------------------------------------------------------
def stream_trace(scenario: Scenario, rate: float, n: int,
                 seed: int = 0) -> Iterator[Request]:
    """The :func:`generate_trace` trace as a stream, one block resident.

    Yields the exact same :class:`Request` objects, in the same order:
    ``tuple(stream_trace(...)) == generate_trace(...)``.

    ``generate_trace`` draws all ``n`` arrival times first and then
    all ``n`` model samples from the *same* RNG, so a single-pass
    generator cannot reproduce it.  Instead two RNGs seeded alike walk
    the stream: one is burned through the time draws up front (O(n)
    cheap state advances, no storage) so its model samples start from
    the state the one-RNG path would have reached, while the second
    replays the time draws live, one block of :data:`DRAW_BLOCK`
    draws at a time.
    """
    if n < 1:
        raise ConfigError("trace needs at least one request")
    process = scenario.process(rate)
    rng_models = _random.Random(seed)
    burn_draws(process, n, rng_models)
    draw = scenario.mix.draw
    times = process.times(n, _random.Random(seed))
    for ids in _blocks(n):
        k = len(ids)
        yield from map(Request, ids, draw(rng_models, k),
                       islice(times, k))


def _span(times: Iterator[float]) -> tuple[float, float]:
    """(first, last) of a non-empty arrival iterator, draining it."""
    first = next(times)
    tail = deque(times, maxlen=1)
    return (first, tail[0] if tail else first)


def trace_span(scenario: Scenario, rate: float, n: int,
               seed: int = 0) -> tuple[float, float]:
    """The global trace's (first arrival, last arrival) instants (s).

    A pure function of the trace parameters — no models are sampled —
    so a parent process can compute the span once and hand it to every
    :class:`TraceShard` (``span=``), sparing each worker its own O(n)
    pass of real arrival draws.
    """
    if n < 1:
        raise ConfigError("trace needs at least one request")
    process = scenario.process(rate)
    return _span(process.times(n, _random.Random(seed)))


def shard_key(model: str, replicas: int, shards: int) -> int:
    """The worker shard owning ``model``'s home replica.

    Uses the same ``crc32(model) % replicas`` pin as
    :class:`~repro.serving.policies.ShardDispatch`, folded onto
    ``shards`` workers — every model homed on one replica lands in one
    shard, which is what makes a sharded run bit-exact against the
    monolithic engine under shard dispatch.
    """
    return (zlib.crc32(model.encode()) % replicas) % shards


def shard_seeds(seed: int, shards: int) -> tuple[int, ...]:
    """Deterministic, distinct child seeds for per-shard randomness.

    The shard splitter itself filters one global seeded stream and
    needs no extra entropy; these are for workloads that want
    *independent* per-shard traffic (e.g. one stream per geo region)
    while staying reproducible from a single parent seed.
    """
    if shards < 1:
        raise ConfigError("shard count must be >= 1")
    rng = _random.Random(seed)
    return tuple(rng.getrandbits(63) for _ in range(shards))


class TraceShard:
    """One worker's slice of a global trace, streamed.

    Iterating yields exactly the :func:`generate_trace` requests whose
    model hashes to ``shard`` (see :func:`shard_key`), with their
    global ``request_id`` and arrival times — the union over all
    shards is the whole trace, pairwise disjoint.  ``span`` is the
    global trace's ``(first arrival, last arrival)``, known before the
    first request is yielded so shard engines can pin their drain
    horizon to the global trace end.  A parent that already knows it
    (:func:`trace_span` — it is identical for every shard of a run)
    can pass ``span=`` so the worker burns its model RNG with cheap
    state advances (:func:`burn_draws`) instead of replaying the full
    arrival pass; the streamed requests are bit-identical either way.

    Single-use: the model RNG advances as requests stream, so a second
    iteration would replay wrong — it raises instead.
    """

    def __init__(self, scenario: Scenario, rate: float, n: int,
                 seed: int, *, shards: int, shard: int,
                 replicas: int,
                 span: tuple[float, float] | None = None) -> None:
        if n < 1:
            raise ConfigError("trace needs at least one request")
        if shards < 1:
            raise ConfigError("shard count must be >= 1")
        if not 0 <= shard < shards:
            raise ConfigError(f"shard index {shard} outside "
                              f"[0, {shards})")
        if replicas < 1:
            raise ConfigError("replica count must be >= 1")
        self.scenario = scenario
        self.rate = rate
        self.n = n
        self.seed = seed
        self.shards = shards
        self.shard = shard
        self.replicas = replicas
        self._consumed = False
        # Burn the model RNG through the time draws (as stream_trace
        # does).  Without a parent-supplied span the burn is a real
        # arrival pass recording the global first/last arrival; with
        # one it collapses to bare RNG state advances.
        self._process = scenario.process(rate)
        self._rng_models = _random.Random(seed)
        if span is None:
            span = _span(self._process.times(n, self._rng_models))
        else:
            burn_draws(self._process, n, self._rng_models)
            span = (float(span[0]), float(span[1]))
        self.span: tuple[float, float] = span

    def __iter__(self) -> Iterator[Request]:
        if self._consumed:
            raise ConfigError("a TraceShard streams once; build a new "
                              "one to replay it")
        self._consumed = True
        return self._requests()

    def _requests(self) -> Iterator[Request]:
        draw = self.scenario.mix.draw
        rng_models = self._rng_models
        times = self._process.times(self.n, _random.Random(self.seed))
        owned = {model: shard_key(model, self.replicas,
                                  self.shards) == self.shard
                 for model in self.scenario.mix.models()}
        for ids in _blocks(self.n):
            k = len(ids)
            models = draw(rng_models, k)
            # take the whole block before filtering: arrivals left in
            # ``times`` past the last kept one would shift later blocks
            arrivals = list(islice(times, k))
            keep = list(map(owned.__getitem__, models))
            yield from map(Request, compress(ids, keep),
                           compress(models, keep),
                           compress(arrivals, keep))


def shard_trace(scenario: Scenario, rate: float, n: int, seed: int = 0,
                *, shards: int, shard: int,
                replicas: int,
                span: tuple[float, float] | None = None) -> TraceShard:
    """One shard's streamed slice of the global seeded trace.

    See :class:`TraceShard`; this is the deterministic shard-splitter
    — no full trace is materialised in any process, and every request
    of ``generate_trace(scenario, rate, n, seed)`` is yielded by
    exactly one of the ``shards`` slices; a parent-computed ``span``
    (:func:`trace_span`) spares the worker its own arrival pass.
    """
    return TraceShard(scenario, rate, n, seed, shards=shards,
                      shard=shard, replicas=replicas, span=span)
