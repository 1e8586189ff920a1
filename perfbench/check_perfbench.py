"""Fast tests of the benchmark itself, at tiny request counts.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench/check_perfbench.py

(The file name keeps it out of the tier-1 collection.)
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import session  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from repro.runtime import executor  # noqa: E402
from repro.runtime.executor import shutdown_pools  # noqa: E402
from repro.serving import (events, geo, interconnect, memo,  # noqa: E402
                           policies, sharding, simulator, workload)
from repro.serving.memo import CacheStats  # noqa: E402
from repro.systolic.simulator import AcceleratorModel  # noqa: E402

TINY_N = 3_000


@pytest.fixture
def clean_tracer():
    yield
    tracer.uninstall()
    shutdown_pools()


def _tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], n=TINY_N)


# ---------------------------------------------------------------------------
# Every named metric is present with its unit
# ---------------------------------------------------------------------------
def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == tracer.PER_LAYER
    assert spec["paths"] == [HERE.name]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_call_reports_every_layer_and_only_observes(name, clean_tracer):
    workload = _tiny(name)
    plain = session.measure(workload, workload.set_up(5), 5, 0.0,
                            traced=False)
    shutdown_pools()

    tracer.install()
    setup = tracer.Tracer()
    tracer.activate(setup)
    api = workload.set_up(5)
    tracer.activate(None)
    traced = session.measure(workload, api, 5, 0.0, traced=True)

    assert plain["failed"] == traced["failed"] == 0
    assert traced["digest"] == plain["digest"]  # bit-identical outputs
    layers = dict(traced["layers"], **tracer.setup_metrics(setup))
    assert set(layers) == set(tracer.PER_LAYER)
    assert all(math.isfinite(value) for value in layers.values())
    assert layers["events.engine_s"] > 0
    assert layers["workload.trace_gen_s"] > 0
    assert layers["memo.misses"] > 0  # set-up filled a cold memo
    if name == "geo-follow_sun":
        assert layers["geo.route_calls_per_req"] == 5.0
        assert layers["interconnect.hops_calls_per_req"] == 25.0
        assert layers["geo.worker_s_min"] > 0
    if name == "sharded-steady":
        assert layers["workload.draws_per_req"] > 2
        assert layers["sharding.worker_s_min"] > 0
        assert layers["executor.payload_bytes"] > 0


def _hooks() -> list:
    """Every call the tracer wraps, read where the program calls it."""
    return ([vars(workload.TraceShard)["__init__"],
             vars(workload.TraceShard)["__iter__"],
             vars(simulator.ServingSimulator)["capacity_rps"],
             vars(simulator.ServingSimulator)["prewarm"],
             vars(events.ClusterEngine)["run"],
             vars(AcceleratorModel)["simulate_layer"],
             vars(interconnect.Interconnect)["hops"],
             vars(memo.LayerMemoCache)["__init__"],
             workload.generate_trace, workload.trace_span,
             workload.stream_trace, workload.burn_draws,
             sharding.parallel_map, geo.parallel_map]
            + [vars(p)["times"] for p in workload.ARRIVAL_SHAPES.values()]
            + [vars(p)["route"] for p in policies.GEO_POLICIES.values()])


def test_install_wraps_every_hook_once(clean_tracer):
    originals = _hooks()
    fan_out = executor.parallel_map
    tracer.install()
    tracer.install()  # idempotent: nothing is wrapped twice
    assert [hook.__wrapped__ for hook in _hooks()] == originals
    assert executor.parallel_map is fan_out  # its fallback stays unwrapped
    tracer.uninstall()
    assert _hooks() == originals


def test_install_refuses_a_program_without_a_hook(monkeypatch, clean_tracer):
    originals = _hooks()
    monkeypatch.delattr(events.ClusterEngine, "run")
    with pytest.raises(LookupError, match="ClusterEngine.run"):
        tracer.install()
    assert not tracer._INSTALLED
    monkeypatch.undo()
    assert _hooks() == originals


def _fake_report(digest: str = "d", failed: int = 0,
                 probe: float = run.PROBE_REF_S) -> dict:
    return {"n": 10, "walls": [0.5, 0.4, 0.6], "probes": [probe] * 3,
            "attempted": 30, "failed": failed, "errors": [],
            "outputs": {"sim": 1}, "digest": digest, "setup_s": 0.25,
            "setup_probe_s": probe, "peak_rss_mb": 50.0,
            "layers": {name: 1.0 for name in tracer.PER_LAYER}}


def _run_with(monkeypatch, capsys, reports, trace: int) -> dict:
    feed = iter(reports)
    monkeypatch.setattr(run, "_session", lambda *args: next(feed))
    assert run.main(["--workload", "plain-bursty", "--seed", "1",
                     "--seconds", "1", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_end_to_end_prints_every_metric_with_its_unit(monkeypatch, capsys,
                                                      tmp_path):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    monkeypatch.chdir(tmp_path)
    total = 2 * run.TIMED_SESSIONS  # a set-up process before each timed
    out = _run_with(monkeypatch, capsys, [_fake_report()] * total, trace=0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in out["metrics"].items()} \
        == run.END_TO_END
    assert out["metrics"]["requests_per_s"]["value"] == 20.0
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] == 30 * run.TIMED_SESSIONS


def test_timings_are_scaled_to_the_reference_host(monkeypatch, capsys,
                                                  tmp_path):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    monkeypatch.chdir(tmp_path)
    # every timing taken while the probe ran 4x slower than reference
    slow = _fake_report(probe=4 * run.PROBE_REF_S)
    out = _run_with(monkeypatch, capsys, [slow] * 2 * run.TIMED_SESSIONS,
                    trace=0)["metrics"]
    scale = 4 ** run.PROBE_EXPONENT
    assert out["requests_per_s"]["value"] == pytest.approx(20.0 * scale)
    assert out["setup_s"]["value"] == pytest.approx(0.25 / scale)


def test_processes_that_disagree_fail_their_calls(monkeypatch, capsys,
                                                  tmp_path):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    monkeypatch.chdir(tmp_path)
    # set-up and timed processes alternate; the later timed ones disagree
    reports = [_fake_report()] * 2 \
        + [_fake_report(), _fake_report(digest="other")] \
        * (run.TIMED_SESSIONS - 1)
    out = _run_with(monkeypatch, capsys, reports, trace=0)
    assert not out["correct"]
    assert out["failed"] == 30 * (run.TIMED_SESSIONS - 1)


def test_traced_run_reports_layers_and_flags_drift(monkeypatch, capsys,
                                                   tmp_path):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    monkeypatch.chdir(tmp_path)
    out = _run_with(monkeypatch, capsys, [_fake_report()] * 2, trace=1)
    assert {k: v["unit"] for k, v in out["metrics"].items()} \
        == {k: unit for k, (unit, _) in tracer.PER_LAYER.items()}
    assert out["correct"]
    drift = _run_with(monkeypatch, capsys,
                      [_fake_report(), _fake_report(digest="x")], trace=1)
    assert not drift["correct"] and drift["failed"] == 30


def test_refuses_a_directory_without_the_program(tmp_path):
    done = subprocess.run([sys.executable, str(HERE / "run.py"),
                           "--workload", "plain-bursty", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout


# ---------------------------------------------------------------------------
# The conservation check
# ---------------------------------------------------------------------------
def test_conservation_accepts_every_request_once():
    assert workloads.conservation_errors(5, [0, 2, 4], [1, 3]) == []


def test_conservation_catches_a_dropped_request():
    errors = workloads.conservation_errors(5, [0, 2, 4], [1])
    assert errors == ["1 request(s) neither served nor shed"]


def test_conservation_catches_a_duplicated_request():
    errors = workloads.conservation_errors(5, [0, 2, 4, 2], [1, 3])
    assert errors == ["1 request(s) served or shed more than once, "
                      "e.g. id 2"]
    assert workloads.conservation_errors(5, [0, 2, 4], [1, 3, 4])


def test_check_catches_tampered_results(clean_tracer):
    workload = _tiny("plain-bursty")
    result = workload.call(workload.build(), 3)
    assert workloads.check(result, TINY_N) == []
    dropped = dataclasses.replace(
        result, requests=result.requests[:-1],
        latencies=result.latencies[:-1])
    assert workloads.check(dropped, TINY_N) \
        == ["1 request(s) neither served nor shed"]
    doubled = dataclasses.replace(
        result, requests=result.requests + result.requests[:1],
        latencies=result.latencies + result.latencies[:1])
    assert workloads.check(doubled, TINY_N) \
        == ["1 request(s) served or shed more than once, e.g. id 0"]


def test_partition_counts_must_add_up():
    assert workloads.partition_errors(10, 10, [(4, 4), (6, 6)]) == []
    assert workloads.partition_errors(10, 9, [(4, 4), (5, 5)])
    assert workloads.partition_errors(10, 10, [(4, 4), (5, 5)])
    assert workloads.partition_errors(10, 10, [(4, 4), (6, 5)])


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------
def test_self_times_on_a_hand_built_span_tree():
    spans = [
        ["api", 0.0, 10.0, -1],
        ["job a", 1.0, 4.0, 0],   # jobs a and b overlap: cover is 5 s
        ["job b", 3.0, 6.0, 0],
        ["engine", 1.5, 3.5, 1],
        ["late", 9.0, 12.0, 0],   # only [9, 10] lies inside api
    ]
    leaves = {("route", 3): [100, 0.5], ("route", 0): [10, 1.0],
              ("step", 3): [7, 0.25]}
    assert tracer.self_times(spans, leaves) == pytest.approx(
        [10.0 - 6.0 - 1.0, 3.0 - 2.0, 3.0, 2.0 - 0.75, 3.0])


def test_attach_grafts_a_job_under_its_fanout():
    parent = tracer.Tracer()
    parent.spans = [["api", 0.0, 10.0, -1], ["fanout", 1.0, 9.0, 0]]
    job = {"spans": [["job", 2.0, 8.0, -1], ["engine", 3.0, 7.0, 0]],
           "leaves": {("route", 1): [4, 2.0]},
           "counts": {"hops": 20}, "memo": [CacheStats(hits=9, misses=3)]}
    parent.attach(job, 1)
    assert parent.spans[2:] == [["job", 2.0, 8.0, 1],
                                ["engine", 3.0, 7.0, 2]]
    assert parent.leaves == {("route", 3): [4, 2.0]}
    assert parent.counts["hops"] == 20
    assert parent.memo_totals() == (12, 3)
    assert tracer.self_times(parent.spans, parent.leaves) == pytest.approx(
        [2.0, 2.0, 2.0, 2.0])
