"""The benchmark's serving workloads and the checks on their outputs.

Each workload is one API object, set up once and then called again and
again as ``api.run_scenario(scenario, n, seed)``: one caller making one
call at a time, a closed loop of one.  Inside a call the simulated
arrivals follow the scenario's open-loop schedule at its calibrated
load.  Every call of a run uses the run's seed, so every call must
return the same simulated outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Iterable

from repro.serving import GeoResult, GeoRouter, ServingSimulator, ShardedEngine
from repro.serving.batching import make_policy
from repro.serving.events import FailurePlan, SloPolicy
from repro.serving.simulator import ServingResult
from repro.serving.workload import get_scenario

#: Requests in the set-up call that spawns the pool and runs every code
#: path once before timing starts.
WARMUP_N = 2_000


@dataclass(frozen=True)
class Workload:
    """One named workload: a scenario served by a configured API."""

    name: str
    scenario: str
    n: int
    build: Callable[[], Any]

    def set_up(self, seed: int) -> Any:
        """Build the API and warm it up; ready for the first timed call."""
        api = self.build()
        api.run_scenario(self.scenario, WARMUP_N, seed)
        if isinstance(api, ServingSimulator):
            # the plain engine fills its layer memo lazily; fill the rest
            # here so the cold systolic simulations all count as set-up,
            # as they do for the fan-out APIs, which prewarm every call
            api.prewarm(self.scenario)
        return api

    def call(self, api: Any, seed: int) -> Any:
        return api.run_scenario(self.scenario, self.n, seed)


def _plain_bursty() -> ServingSimulator:
    return ServingSimulator("SMART", replicas=2, policy=make_policy("timeout"),
                            dispatch="least_loaded")


def _sharded_steady() -> ShardedEngine:
    return ShardedEngine(2, replicas=2, policy="timeout", batch_size=8)


def _geo_follow_sun() -> GeoRouter:
    return GeoRouter(4, topology="ring", geo="follow_sun")


def _failure_retry() -> ServingSimulator:
    # One fixed outage plan (the scenario's 3 outages, sampled once)
    # instead of one drawn from each run's seed: which replicas fail,
    # and when, moved the retry work by +-20% from seed to seed, which
    # would swamp any change in host speed.  The seed still draws the
    # traffic, which moves the retry count by about 2%.
    faults = get_scenario("failure-storm").faults
    return ServingSimulator("SMART", replicas=6, policy=make_policy("timeout"),
                            dispatch="shard", slo=SloPolicy(target=3e-3),
                            failures=FailurePlan(count=faults, seed=7),
                            resilience="retry:timeout_us=30000,budget=1")


#: Why each workload is here: README.md beside this file.  Request
#: counts keep one call near 0.6-2.5 s on a 2-CPU host, so each timed
#: process of a 24 s run fits its two calls into its 8 s share.
WORKLOADS = {w.name: w for w in (
    Workload("plain-bursty", "bursty", 100_000, _plain_bursty),
    Workload("sharded-steady", "steady", 200_000, _sharded_steady),
    Workload("geo-follow_sun", "diurnal", 30_000, _geo_follow_sun),
    Workload("failure-retry", "failure-storm", 50_000, _failure_retry),
)}


# ---------------------------------------------------------------------------
# Outputs and checks
# ---------------------------------------------------------------------------
def _partitions(result: Any) -> list:
    """Per-worker outcomes of a fan-out result (shards or regions)."""
    if isinstance(result, GeoResult):
        return [region.outcome for region in result.regions]
    return list(result.outcomes)


def outputs(result: Any) -> dict:
    """The simulated outputs of one call: what the modelled hardware
    did, not how long the simulator took."""
    if isinstance(result, ServingResult):
        served = len(result.requests) - len(result.shed)
        out = {"sim_energy_mj_per_req":
               sum(result.energy_per_request) / served * 1e3,
               "sim_batches": len(result.batches),
               "sim_shed": len(result.shed),
               "sim_retries": result.retries,
               "sim_timeouts": result.timeouts,
               "sim_cancels": result.cancels}
    else:
        out = {"sim_energy_mj_per_req":
               result.energy / result.requests * 1e3,
               "sim_batches": result.batches,
               "sim_shed": 0,
               "sim_partition_requests":
               [part.requests for part in _partitions(result)]}
    out["sim_p50_ms"] = result.latency_percentile(50) * 1e3
    out["sim_p95_ms"] = result.latency_percentile(95) * 1e3
    out["sim_slo_attain"] = result.slo_attainment
    return out


def digest(out: dict) -> str:
    """A short hash of the outputs; JSON floats keep every bit."""
    text = json.dumps(out, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def conservation_errors(n: int, served: Iterable[int],
                        shed: Iterable[int]) -> list[str]:
    """Every request id in ``range(n)`` is served or shed exactly once."""
    seen = Counter(chain(served, shed))
    errors = []
    twice = sorted(rid for rid, count in seen.items() if count > 1)
    if twice:
        errors.append(f"{len(twice)} request(s) served or shed more than "
                      f"once, e.g. id {twice[0]}")
    stray = sorted(rid for rid in seen if not 0 <= rid < n)
    if stray:
        errors.append(f"{len(stray)} unknown request id(s), e.g. "
                      f"{stray[0]}")
    missing = n - (len(seen) - len(stray))
    if missing:
        errors.append(f"{missing} request(s) neither served nor shed")
    return errors


def partition_errors(n: int, merged: int,
                     parts: list[tuple[int, int]]) -> list[str]:
    """A fan-out result's counts add up: the merged count is ``n``,
    the partitions sum to it, and each partition recorded one latency
    per request it served.  ``parts`` is (served, latencies recorded)."""
    errors = []
    if merged != n:
        errors.append(f"merged result counts {merged} requests, not {n}")
    total = sum(served for served, _ in parts)
    if total != merged:
        errors.append(f"partitions serve {total} requests, merged says "
                      f"{merged}")
    for k, (served, recorded) in enumerate(parts):
        if served != recorded:
            errors.append(f"partition {k} served {served} requests but "
                          f"recorded {recorded} latencies")
    return errors


def check(result: Any, n: int) -> list[str]:
    """Every correctness error in one call's result (empty: correct)."""
    if isinstance(result, ServingResult):
        served = [r.request_id
                  for r, latency in zip(result.requests, result.latencies)
                  if math.isfinite(latency)]
        errors = conservation_errors(n, served, result.shed)
        if any(latency < 0 for latency in result.latencies):
            errors.append("negative latency")
        energies = list(result.energy_per_request) + [result.wasted_energy]
    else:
        parts = _partitions(result)
        errors = partition_errors(
            n, result.requests,
            [(part.requests, part.digest.count) for part in parts])
        if isinstance(result, GeoResult):
            offered = sum(region.offered for region in result.regions)
            if offered != n:
                errors.append(f"regions admitted {offered} requests, "
                              f"not {n}")
        energies = [result.energy] + [part.energy for part in parts]
    bad = sum(1 for e in energies if not (math.isfinite(e) and e >= 0))
    if bad:
        errors.append(f"{bad} energy value(s) negative or not finite")
    return errors


def layer_info(result: Any) -> dict:
    """What :func:`tracer.call_metrics` needs from a call's result."""
    if isinstance(result, ServingResult):
        return {"fanout": None, "wall_s": None, "shares": [],
                "batches": len(result.batches), "retries": result.retries,
                "timeouts": result.timeouts, "cancels": result.cancels}
    return {"fanout": "geo" if isinstance(result, GeoResult) else "sharding",
            "wall_s": result.wall_s,
            "shares": [part.requests for part in _partitions(result)],
            "batches": result.batches, "retries": 0, "timeouts": 0,
            "cancels": 0}
