"""Shared fixtures: keep runtime state out of the working directory,
keep every test's cyclic-GC settings as it found them, and hold a
fan-out result's engine counters to a plain run's."""

from __future__ import annotations

import gc

import pytest


@pytest.fixture(autouse=True)
def _isolate_runtime_state(tmp_path, monkeypatch):
    """Point the result cache and run ledger at a per-test tmp dir."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
    monkeypatch.setenv("REPRO_RUN_STORE",
                       str(tmp_path / "repro-cache" / "runs.jsonl"))


@pytest.fixture(autouse=True)
def _gc_settings_untouched():
    """Fail a test that leaves the GC thresholds or switch changed.

    Serving runs raise the gen-0 threshold for their duration and must
    hand the caller's settings back; the originals are put back before
    failing, so one leak cannot fail the tests after it.
    """
    before = (gc.get_threshold(), gc.isenabled())
    yield
    after = (gc.get_threshold(), gc.isenabled())
    if after != before:
        gc.set_threshold(*before[0])
        (gc.enable if before[1] else gc.disable)()
        pytest.fail(f"GC settings changed: {before} -> {after}")


@pytest.fixture
def assert_counters_match():
    """Check a fan-out result and its merged detail against a plain
    run: every engine counter exactly, wasted energy to ``rel``
    (0: exactly, as one partition must; summing several shards'
    floats may round)."""
    from repro.serving.simulator import ENGINE_COUNTERS

    def check(fanned, plain, rel=0.0):
        want = {key: getattr(plain, key) for key in ENGINE_COUNTERS}
        wasted = want.pop("wasted_energy")
        for result in (fanned, fanned.detail):
            got = {key: getattr(result, key) for key in ENGINE_COUNTERS}
            assert got.pop("wasted_energy") == pytest.approx(
                wasted, rel=rel, abs=0.0)
            assert got == want
    return check
