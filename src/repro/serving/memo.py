"""The network-level layer-result memo cache.

A serving trace asks for the same (accelerator, layer, batch) triples
millions of times: every batch of ``b`` ResNet50 images replays the
same 50-odd layer simulations.  :class:`LayerMemoCache` memoises
:meth:`AcceleratorModel.simulate_layer` on exactly that triple — keyed
by *structural* value, not object identity — which makes simulating a
million-request trace cost O(distinct layer x batch pairs) instead of
O(requests x layers).

Hashing those deep frozen-dataclass triples used to dominate the
serving hot path, so lookups now go through an :class:`Interner`:
every distinct accelerator / layer / network value maps to a small
integer id (identity-keyed fast path, structural fallback for
equal-but-distinct objects), and the memo keys are plain
``(int, int, int)`` tuples.  The steady-state 98%+-hit path is one
small-tuple dict hit; a deep hash happens once per object *identity*
ever seen (and the hashed dataclasses cache their own hash, so even
the structural fallback amortises).

A second, derived level memoises whole-network :class:`RunResult`s and
their scalar totals — batch latency, batch energy, and the summed
weight-deployment time the engine's model-switch charge needs — so
repeated batches do not even re-sum layers.  Identical layers *shared
between networks* (every zoo model ends in the same FC-sized tails,
ResNet blocks repeat internally) hit the layer level too.

The scalar-totals level is also what persists across runs: ROADMAP
noted the cold path is dominated by first-touch layer simulations, so
:func:`load_persistent_memo` / :func:`store_persistent_memo` round the
(latency, energy, deploy) totals through the runtime
:class:`~repro.runtime.cache.ResultCache` — content-addressed by
*stable structural fingerprints* (SHA-256 of the dataclass reprs;
Python object hashes are salted per process and useless on disk) and
keyed by the package code version, so editing any model invalidates
the persisted pool instead of serving stale physics.  A warm start
then serves every totals lookup without a single layer simulation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core import make_energy_model
from repro.errors import ConfigError
from repro.systolic.energy import EnergyModel
from repro.systolic.layers import ConvLayer, Network
from repro.systolic.simulator import AcceleratorModel, LayerResult, RunResult

#: Experiment name the persisted memo pool is stored under in the
#: runtime result cache (one pool per code version).
MEMO_EXPERIMENT = "serving_memo"


class Interner:
    """Maps structurally-equal objects to one small integer id.

    The fast path is identity: an object seen before resolves through
    an ``id()``-keyed dict without hashing its value.  A new identity
    falls back to one structural lookup (hash + equality on the value)
    and is then pinned — interned objects are kept alive so their
    ``id()`` can never be recycled onto a different object.
    """

    __slots__ = ("_by_identity", "_by_value", "_pinned")

    def __init__(self) -> None:
        self._by_identity: dict[int, int] = {}
        self._by_value: dict[object, int] = {}
        self._pinned: list[object] = []

    def __len__(self) -> int:
        """Distinct structural values seen."""
        return len(self._by_value)

    def intern(self, obj: object) -> int:
        """The small-int id of ``obj``'s structural value."""
        token = self._by_identity.get(id(obj))
        if token is None:
            token = self._by_value.setdefault(obj, len(self._by_value))
            self._by_identity[id(obj)] = token
            self._pinned.append(obj)
        return token


@dataclass(slots=True)
class CacheStats:
    """Hit/miss accounting for the memo cache.

    Attributes:
        hits: layer simulations served from the memo.
        misses: layer simulations actually evaluated.
        energy_hits: whole-batch energy totals served from the memo.
        energy_misses: energy totals actually evaluated (each also
            drives the layer-level counters through its network run).
        seeded: totals rows installed from a persisted pool or a
            :class:`MemoSnapshot` broadcast (cells shipped).
        seed_hits: lookups answered by promoting one of those seeded
            rows — the warm hits a prewarm broadcast actually bought.
    """

    hits: int = 0
    misses: int = 0
    energy_hits: int = 0
    energy_misses: int = 0
    seeded: int = 0
    seed_hits: int = 0

    @property
    def lookups(self) -> int:
        """Total layer-simulation requests."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of layer lookups served from the memo."""
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def energy_lookups(self) -> int:
        """Total whole-batch energy requests."""
        return self.energy_hits + self.energy_misses


class LayerMemoCache:
    """Memoises per-layer, per-network and per-energy simulations.

    Args:
        enabled: when False every lookup misses and nothing is stored
            — the uncached reference path, with identical results.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.stats = CacheStats()
        self._intern = Interner()
        self._layers: dict[tuple[int, int, int], LayerResult] = {}
        self._runs: dict[tuple[int, int, int], RunResult] = {}
        self._energy: dict[tuple[int, int, int], float] = {}
        self._latency: dict[tuple[int, int, int], float] = {}
        self._deploy: dict[tuple[int, int, int], float] = {}
        # one energy model per interned accelerator: building a
        # SMART-class model re-runs the RANDOM array's sub-bank search
        self._energy_models: dict[int, EnergyModel] = {}
        # persisted totals keyed by stable structural fingerprints,
        # consulted once per (accelerator, network, batch) miss and
        # then promoted into the interned-key dicts above
        self._seeded: dict[tuple[str, str, int],
                           tuple[float, float, float]] = {}
        self._fingerprints: dict[int, str] = {}

    def __len__(self) -> int:
        return len(self._layers)

    def simulate_layer(self, accelerator: AcceleratorModel,
                       layer: ConvLayer, batch: int) -> LayerResult:
        """Memoised :meth:`AcceleratorModel.simulate_layer`."""
        if self.enabled:
            intern = self._intern.intern
            key = (intern(accelerator), intern(layer), batch)
            cached = self._layers.get(key)
            if cached is not None:
                self.stats.hits += 1
                return cached
        self.stats.misses += 1
        result = accelerator.simulate_layer(layer, batch)
        if self.enabled:
            self._layers[key] = result
        return result

    def simulate(self, accelerator: AcceleratorModel, network: Network,
                 batch: int) -> RunResult:
        """Memoised whole-network simulation (per-layer granularity)."""
        if self.enabled:
            intern = self._intern.intern
            run_key = (intern(accelerator), intern(network), batch)
            cached = self._runs.get(run_key)
            if cached is not None:
                self.stats.hits += len(network.layers)
                return cached
        layers = tuple(self.simulate_layer(accelerator, layer, batch)
                       for layer in network.layers)
        run = RunResult(network=network, batch=batch, layers=layers)
        if self.enabled:
            self._runs[run_key] = run
        return run

    def energy_total(self, accelerator: AcceleratorModel,
                     network: Network, batch: int) -> float:
        """Memoised whole-batch energy (J) of one network run.

        The energy model is derived from the accelerator configuration
        (the only thing the memo key can see), not passed in — a
        caller-supplied model could silently collide across calls.
        """
        if self.enabled:
            intern = self._intern.intern
            key = (intern(accelerator), intern(network), batch)
            cached = self._energy.get(key)
            if cached is not None:
                self.stats.energy_hits += 1
                return cached
        if self.enabled and self._seed(key, accelerator, network, batch):
            self.stats.energy_hits += 1
            return self._energy[key]
        self.stats.energy_misses += 1
        run = self.simulate(accelerator, network, batch)
        if not self.enabled:
            return make_energy_model(accelerator).evaluate(run).total
        total = self._energy_model(key[0], accelerator).evaluate(run).total
        self._energy[key] = total
        return total

    def _energy_model(self, token: int,
                      accelerator: AcceleratorModel) -> EnergyModel:
        """The energy model of the accelerator interned as ``token``,
        built on first use."""
        model = self._energy_models.get(token)
        if model is None:
            model = self._energy_models[token] = make_energy_model(
                accelerator)
        return model

    def latency_total(self, accelerator: AcceleratorModel,
                      network: Network, batch: int) -> float:
        """Memoised whole-batch latency (s) of one network run.

        The scalar twin of :meth:`simulate`: a hit (memoised or
        persisted) counts like a run-level hit — one saved simulation
        per network layer — so the stats read identically whether the
        caller takes the :class:`RunResult` or just its latency.
        """
        if not self.enabled:
            return self.simulate(accelerator, network, batch).latency
        intern = self._intern.intern
        key = (intern(accelerator), intern(network), batch)
        cached = self._latency.get(key)
        if cached is None and self._seed(key, accelerator, network,
                                         batch):
            cached = self._latency[key]
        if cached is not None:
            self.stats.hits += len(network.layers)
            return cached
        value = self.simulate(accelerator, network, batch).latency
        self._latency[key] = value
        return value

    def deploy_total(self, accelerator: AcceleratorModel,
                     network: Network, batch: int) -> float:
        """Memoised whole-network weight-deployment time (s).

        The engine charges this when a replica switches models
        back-to-back: another model's weights were resident, so the
        incoming network's deployments cannot overlap and are paid
        whole, on top of the batch latency (which already includes
        the steady-state deploy component).
        """
        if not self.enabled:
            run = self.simulate(accelerator, network, batch)
            return sum(l.deploy_time for l in run.layers)
        intern = self._intern.intern
        key = (intern(accelerator), intern(network), batch)
        cached = self._deploy.get(key)
        if cached is None and self._seed(key, accelerator, network,
                                         batch):
            cached = self._deploy[key]
        if cached is not None:
            self.stats.hits += len(network.layers)
            return cached
        run = self.simulate(accelerator, network, batch)
        value = sum(l.deploy_time for l in run.layers)
        self._deploy[key] = value
        return value

    # -- cross-run persistence -------------------------------------------
    def _fingerprint(self, token: int, obj: object) -> str:
        """Stable structural fingerprint of one interned object."""
        fingerprint = self._fingerprints.get(token)
        if fingerprint is None:
            digest = hashlib.sha256(repr(obj).encode()).hexdigest()[:20]
            fingerprint = self._fingerprints[token] = digest
        return fingerprint

    def _seed(self, key: tuple[int, int, int],
              accelerator: AcceleratorModel, network: Network,
              batch: int) -> bool:
        """Promote a persisted totals triple under ``key``, if any."""
        if not self._seeded:
            return False
        a_token, n_token, _ = key
        seeded = self._seeded.get(
            (self._fingerprint(a_token, accelerator),
             self._fingerprint(n_token, network), batch)
        )
        if seeded is None:
            return False
        latency, energy, deploy = seeded
        self._latency[key] = latency
        self._energy[key] = energy
        self._deploy[key] = deploy
        self.stats.seed_hits += 1
        return True

    def export_totals(self) -> list[list]:
        """Serialisable (latency, energy, deploy) totals of this run.

        Rows are ``[accelerator_fp, network_fp, batch, latency,
        energy, deploy]`` with stable structural fingerprints, so a
        future process (same code version) can :meth:`load_totals`
        them and serve every totals lookup without simulating.  Only
        complete triples export — a key missing its energy or deploy
        total would leave a warm start half cold.  Loaded totals this
        run never touched are carried forward, so re-persisting after
        a narrow run does not shrink the pool.
        """
        tokens = {token: obj
                  for obj, token in self._intern._by_value.items()}
        exported = {fp_key: list(triple)
                    for fp_key, triple in self._seeded.items()}
        for key in sorted(set(self._runs) | set(self._latency)):
            a_token, n_token, batch = key
            run = self._runs.get(key)
            latency = self._latency.get(
                key, run.latency if run is not None else None)
            deploy = self._deploy.get(key)
            if deploy is None and run is not None:
                deploy = sum(l.deploy_time for l in run.layers)
            energy = self._energy.get(key)
            if energy is None and run is not None:
                # a calibration-only key (e.g. capacity probing at the
                # policy's full batch) never dispatched, so no energy
                # total exists — evaluate it off the cached run now
                # (cheap: no layer re-simulation) or the warm start
                # would re-simulate exactly these keys
                energy = self._energy[key] = self._energy_model(
                    a_token, tokens[a_token]).evaluate(run).total
            if latency is None or energy is None or deploy is None:
                continue
            fp_key = (self._fingerprint(a_token, tokens[a_token]),
                      self._fingerprint(n_token, tokens[n_token]),
                      batch)
            exported[fp_key] = [latency, energy, deploy]
        return [[a_fp, n_fp, batch, *triple]
                for (a_fp, n_fp, batch), triple
                in sorted(exported.items())]

    def load_totals(self, rows: list) -> int:
        """Seed persisted totals; returns how many rows were loaded."""
        loaded = 0
        for row in rows:
            try:
                a_fp, n_fp, batch, latency, energy, deploy = row
                key = (str(a_fp), str(n_fp), int(batch))
                triple = (float(latency), float(energy), float(deploy))
            except (TypeError, ValueError):
                continue  # a foreign/corrupt row must not poison the run
            self._seeded[key] = triple
            loaded += 1
        self.stats.seeded += loaded
        return loaded


@dataclass(frozen=True)
class MemoSnapshot:
    """A compact, picklable broadcast image of a memo's totals.

    ``rows`` are exactly the :meth:`LayerMemoCache.export_totals`
    rows — ``(accelerator_fp, network_fp, batch, latency, energy,
    deploy)`` keyed by *stable structural fingerprints* — so a
    snapshot built once in a parent process installs into any worker's
    fresh cache (same code version) and serves every totals lookup
    there without a single layer simulation.  The fingerprints are
    process-independent SHA-256 digests of the dataclass reprs, which
    is what makes the broadcast exact: a worker that rebuilds the same
    accelerator/network values promotes the parent's totals bit for
    bit.
    """

    rows: tuple[tuple, ...] = ()

    def __len__(self) -> int:
        return len(self.rows)

    @staticmethod
    def from_cache(cache: LayerMemoCache) -> "MemoSnapshot":
        """Snapshot every complete totals triple ``cache`` holds
        (including seeded rows it carried forward)."""
        return MemoSnapshot(tuple(tuple(row)
                                  for row in cache.export_totals()))

    def install(self, cache: LayerMemoCache) -> int:
        """Seed ``cache`` with this snapshot; returns rows loaded."""
        return cache.load_totals(list(self.rows))


def prewarm_cache(cache: LayerMemoCache, accelerator: AcceleratorModel,
                  networks, max_batch: int) -> None:
    """Touch every totals cell a serving run on ``accelerator`` can ask
    for: latency, energy and deploy at each batch size 1..max_batch of
    each network.

    The engine only ever requests batch sizes in ``[1,
    policy.max_batch]`` (retried singletons included), so a cache
    warmed here — and snapshotted via :meth:`MemoSnapshot.from_cache`
    — answers every worker lookup without simulating.  Idempotent and
    cheap when the cells are already warm (memo hits).
    """
    if max_batch < 1:
        raise ConfigError("max_batch must be >= 1")
    for network in networks:
        for batch in range(1, max_batch + 1):
            cache.latency_total(accelerator, network, batch)
            cache.energy_total(accelerator, network, batch)
            cache.deploy_total(accelerator, network, batch)


def load_persistent_memo(cache: LayerMemoCache,
                         result_cache=None) -> int:
    """Warm ``cache`` from the persisted cross-run totals pool.

    The pool lives in the runtime result cache under
    :data:`MEMO_EXPERIMENT`, content-addressed by the package code
    version — editing any model silently starts a fresh pool rather
    than serving stale physics.  Returns the number of seeded totals
    (0 when no pool exists yet).
    """
    from repro.runtime import ResultCache
    store = result_cache if result_cache is not None else ResultCache()
    entry = store.get(store.key(MEMO_EXPERIMENT, {}))
    if not entry:
        return 0
    return cache.load_totals(entry.get("rows") or [])


def store_persistent_memo(cache: LayerMemoCache,
                          result_cache=None,
                          elapsed_s: float = 0.0) -> int:
    """Persist ``cache``'s totals into the cross-run pool.

    Overwrites the pool for the current code version with the union
    of what was loaded and what this run touched (loaded totals are
    re-exported once promoted).  Returns the number of stored rows.
    """
    from repro.runtime import ResultCache
    store = result_cache if result_cache is not None else ResultCache()
    rows = cache.export_totals()
    if rows:
        store.put(store.key(MEMO_EXPERIMENT, {}), MEMO_EXPERIMENT, {},
                  rows, elapsed_s=elapsed_s)
    return len(rows)
