"""Cyclic-GC thresholds around serving runs.

Every ``run_scenario`` (plain, sharded, geo), a plain ``run`` and the
partition worker body raise the gen-0 threshold to
``GC_GEN0_THRESHOLD`` for the run and hand the caller's thresholds
back afterwards, errors included.
Only the entry that raised the threshold restores it, so nested and
overlapping entries leave the caller's values intact.  (The autouse
fixture in ``conftest.py`` also fails any test that leaves the
thresholds changed.)
"""

from __future__ import annotations

import gc
import sys
import threading
from time import perf_counter

import pytest

from repro.errors import ConfigError
from repro.serving import (
    DispatchPolicy,
    FailurePlan,
    GeoRouter,
    Outage,
    ServingSimulator,
    ShardedEngine,
)
from repro.serving import geo as geo_module
from repro.serving import sharding as sharding_module
from repro.serving.sharding import _serve_partition
from repro.serving.simulator import GC_GEN0_THRESHOLD, _gc_headroom
from repro.serving.workload import generate_trace, get_scenario

SEED = 5
#: Caller thresholds no default matches, so "restored" cannot mean
#: "reset to CPython's defaults".
CALLER = (500, 7, 9)


@pytest.fixture
def caller():
    """Run the test under :data:`CALLER` thresholds, then put the
    original ones back."""
    original = gc.get_threshold()
    gc.set_threshold(*CALLER)
    yield CALLER
    gc.set_threshold(*original)


class _RecordingDispatch(DispatchPolicy):
    """Least-index dispatch that records the gen-0 threshold it sees."""

    name = "recording"

    def __init__(self) -> None:
        self.seen: list[int] = []

    def pick(self, engine, model, size, floor, candidates):
        self.seen.append(gc.get_threshold()[0])
        return candidates[0]


def _recording(real, seen):
    """Wrap a partition worker so it records the threshold it starts at."""
    def worker(spec):
        seen.append(gc.get_threshold())
        return real(spec)
    return worker


def test_threshold_is_raised_inside_a_plain_run_and_restored_after(caller):
    dispatch = _RecordingDispatch()
    ServingSimulator("SMART", replicas=2, dispatch=dispatch) \
        .run_scenario("bursty", 300, seed=SEED)
    assert dispatch.seen
    assert set(dispatch.seen) == {GC_GEN0_THRESHOLD}
    assert gc.get_threshold() == caller
    assert gc.isenabled()


def test_threshold_is_raised_inside_a_direct_run_and_restored_after(
        caller):
    """``run(trace)`` takes the headroom itself, not only through
    ``run_scenario``."""
    dispatch = _RecordingDispatch()
    trace = generate_trace(get_scenario("bursty"), 20_000.0, 300, SEED)
    ServingSimulator("SMART", replicas=2, dispatch=dispatch).run(trace)
    assert dispatch.seen
    assert set(dispatch.seen) == {GC_GEN0_THRESHOLD}
    assert gc.get_threshold() == caller
    assert gc.isenabled()


def test_thresholds_restored_after_a_direct_run_that_raises(caller):
    class Raising(_RecordingDispatch):
        def pick(self, *args):
            super().pick(*args)
            raise KeyError("boom")

    dispatch = Raising()
    trace = generate_trace(get_scenario("steady"), 20_000.0, 50, SEED)
    with pytest.raises(KeyError, match="boom"):
        ServingSimulator("SMART", replicas=2, dispatch=dispatch).run(trace)
    assert dispatch.seen == [GC_GEN0_THRESHOLD]
    assert gc.get_threshold() == caller


def test_thresholds_restored_after_a_run_that_raises(caller):
    outside = FailurePlan(outages=(Outage(replica=5, at=1e-4, until=2e-4),))
    sim = ServingSimulator("SMART", replicas=2, failures=outside)
    with pytest.raises(ConfigError, match="outage targets replica 5"):
        sim.run_scenario("steady", 200, seed=SEED)
    assert gc.get_threshold() == caller


def test_thresholds_restored_after_a_thread_mode_sharded_run(
        caller, monkeypatch):
    seen: list = []
    monkeypatch.setattr(sharding_module, "_serve_shard",
                        _recording(sharding_module._serve_shard, seen))
    ShardedEngine(2, replicas=2, mode="thread") \
        .run_scenario("steady", 200, seed=SEED)
    assert seen == [(GC_GEN0_THRESHOLD, *caller[1:])] * 2
    assert gc.get_threshold() == caller


def test_thresholds_restored_after_an_inline_geo_run(caller, monkeypatch):
    seen: list = []
    monkeypatch.setattr(geo_module, "_serve_geo_region",
                        _recording(geo_module._serve_geo_region, seen))
    GeoRouter(2, mode="inline").run_scenario("steady", 100, seed=SEED)
    assert seen == [(GC_GEN0_THRESHOLD, *caller[1:])] * 2
    assert gc.get_threshold() == caller


def test_partition_worker_raises_the_threshold_itself(caller):
    """A process-pool worker starts at its own (default) thresholds, so
    the worker body must raise the threshold without the parent."""
    scenario = get_scenario("steady")
    spec = ShardedEngine(2, replicas=2)._spec(
        scenario, rate=20_000.0, shard=0, replicas=2, accelerator="SMART")
    seen: list[int] = []
    trace = generate_trace(scenario, 20_000.0, 50, SEED)

    def stream():
        for request in trace:
            seen.append(gc.get_threshold()[0])
            yield request

    outcome = _serve_partition(spec, stream(),
                               (trace[0].arrival, trace[-1].arrival),
                               {"shard": 0}, perf_counter())
    assert outcome.requests == 50
    assert set(seen) == {GC_GEN0_THRESHOLD}
    assert gc.get_threshold() == caller


class TestHeadroom:
    def test_raises_gen0_only_and_restores(self, caller):
        with _gc_headroom():
            assert gc.get_threshold() == (GC_GEN0_THRESHOLD, *caller[1:])
        assert gc.get_threshold() == caller

    def test_restores_when_the_body_raises(self, caller):
        with pytest.raises(KeyError):
            with _gc_headroom():
                raise KeyError("boom")
        assert gc.get_threshold() == caller

    def test_nested_entry_keeps_the_outer_raise(self, caller):
        with _gc_headroom():
            with _gc_headroom():
                pass
            assert gc.get_threshold()[0] == GC_GEN0_THRESHOLD
        assert gc.get_threshold() == caller

    def test_overlapping_entries_leave_the_caller_thresholds(self, caller):
        """Enter A, enter B, exit A, exit B: the order two threads of a
        thread-mode pool can produce.  A per-entry save and restore
        would leave B's saved, raised value behind."""
        a, b = _gc_headroom(), _gc_headroom()
        a.__enter__()
        b.__enter__()
        assert gc.get_threshold()[0] == GC_GEN0_THRESHOLD
        a.__exit__(None, None, None)
        assert gc.get_threshold() == caller
        b.__exit__(None, None, None)
        assert gc.get_threshold() == caller

    def test_racing_threads_leave_the_caller_thresholds(self, caller):
        """More threads than cores enter and leave at a tiny switch
        interval: whatever the interleaving, the last write is a
        restore of the caller's thresholds."""
        def churn():
            for _ in range(300):
                with _gc_headroom():
                    [object() for _ in range(20)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert gc.get_threshold() == caller

    @pytest.mark.parametrize("gen0", [0, GC_GEN0_THRESHOLD,
                                      2 * GC_GEN0_THRESHOLD])
    def test_leaves_an_off_or_higher_threshold_alone(self, gen0):
        original = gc.get_threshold()
        gc.set_threshold(gen0, *original[1:])
        try:
            with _gc_headroom():
                assert gc.get_threshold()[0] == gen0
            assert gc.get_threshold()[0] == gen0
        finally:
            gc.set_threshold(*original)
