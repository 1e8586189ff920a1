"""Shared fixtures: keep runtime state out of the working directory,
and keep every test's cyclic-GC settings as it found them."""

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
