"""Tests for the parallel executor: ordering, errors, mode resolution."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.runtime import (
    Job,
    execute,
    parallel_map,
    register_experiment,
    resolve_mode,
    unregister_experiment,
)
from repro.runtime import executor


def _payload_echo(key: int) -> tuple:
    return key, executor.worker_payload()


def _squares(n: int = 3, fail: bool = False) -> list[dict]:
    if fail:
        raise ValueError("boom")
    return [{"i": i, "sq": i * i} for i in range(n)]


def _read_text(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _sleepy(seconds: float = 0.0) -> list[dict]:
    time.sleep(seconds)
    return [{"slept": seconds}]


def _record_and_maybe_die(log_dir: str, key: int,
                          crash: bool) -> int:
    """Log every invocation; on the first crashing call, die the way a
    killed worker machine would (no exception, no cleanup)."""
    with open(os.path.join(log_dir, f"{key}.log"), "a") as handle:
        handle.write("run\n")
    if crash:
        sentinel = os.path.join(log_dir, "crashed")
        if not os.path.exists(sentinel):
            with open(sentinel, "w"):
                pass
            os._exit(13)
    return key * 10


@pytest.fixture
def squares_experiment():
    register_experiment("_squares_test", _squares,
                        "test experiment", figure=False)
    yield "_squares_test"
    unregister_experiment("_squares_test")


@pytest.fixture
def sleepy_experiment():
    register_experiment("_sleepy_test", _sleepy,
                        "test experiment", figure=False)
    yield "_sleepy_test"
    unregister_experiment("_sleepy_test")


class TestResolveMode:
    def test_single_job_runs_inline(self, squares_experiment):
        assert resolve_mode([Job(squares_experiment)]) == "inline"

    def test_batch_uses_processes(self, squares_experiment):
        # pure-Python CPU-bound experiments gain nothing from threads
        jobs = [Job(squares_experiment, {"n": n}) for n in (1, 2)]
        assert resolve_mode(jobs) == "process"

    def test_explicit_mode_wins(self, squares_experiment):
        jobs = [Job(squares_experiment), Job(squares_experiment)]
        assert resolve_mode(jobs, "inline") == "inline"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            resolve_mode([], "warp")


class TestExecute:
    @pytest.mark.parametrize("mode", ["inline", "thread", "process"])
    def test_modes_agree_and_preserve_order(self, squares_experiment,
                                            mode):
        jobs = [Job(squares_experiment, {"n": n}) for n in (1, 3, 2)]
        results = execute(jobs, mode=mode)
        assert [r.job for r in results] == jobs
        assert [len(r.rows) for r in results] == [1, 3, 2]
        assert all(r.ok for r in results)

    def test_wall_time_captured(self, squares_experiment):
        (result,) = execute([Job(squares_experiment)], mode="inline")
        assert result.elapsed_s > 0.0

    @pytest.mark.parametrize("mode", ["inline", "thread", "process"])
    def test_errors_are_aggregated_not_raised(self, squares_experiment,
                                              mode):
        jobs = [
            Job(squares_experiment, {"n": 2}),
            Job(squares_experiment, {"fail": True}),
            Job(squares_experiment, {"n": 1}),
        ]
        results = execute(jobs, mode=mode)
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert results[1].rows is None
        assert "ValueError: boom" in results[1].error

    def test_empty_batch(self):
        assert execute([]) == []


class TestJobTimeout:
    def test_hung_job_becomes_a_per_job_error(self, sleepy_experiment):
        jobs = [Job(sleepy_experiment, {"seconds": 0.0}),
                Job(sleepy_experiment, {"seconds": 30.0})]
        started = time.perf_counter()
        results = execute(jobs, mode="process", max_workers=2,
                          timeout_s=0.5)
        # the batch returns promptly: the hung worker was terminated
        # instead of being waited on at shutdown
        assert time.perf_counter() - started < 10.0
        assert results[0].ok
        assert not results[1].ok
        assert "TimeoutError" in results[1].error
        assert results[1].rows is None

    def test_fast_jobs_unaffected_by_a_generous_timeout(
            self, squares_experiment):
        jobs = [Job(squares_experiment, {"n": n}) for n in (1, 2)]
        results = execute(jobs, mode="thread", timeout_s=30.0)
        assert all(r.ok for r in results)

    def test_nonpositive_timeout_rejected(self, squares_experiment):
        with pytest.raises(ConfigError):
            execute([Job(squares_experiment)], timeout_s=0.0)
        with pytest.raises(ConfigError):
            execute([Job(squares_experiment)], timeout_s=-1.0)


class TestParallelMap:
    def test_order_preserved(self):
        results = parallel_map(pow, [(2, 3), (3, 2), (2, 5)],
                               mode="thread")
        assert results == [8, 9, 32]

    def test_process_mode(self):
        results = parallel_map(pow, [(2, n) for n in range(4)],
                               mode="process")
        assert results == [1, 2, 4, 8]

    def test_exceptions_propagate(self):
        with pytest.raises(ZeroDivisionError):
            parallel_map(divmod, [(1, 1), (1, 0)], mode="thread")

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_user_oserror_propagates_without_rerun(self, tmp_path, mode):
        # an OSError raised by func is a user error, not a pool
        # failure; it must propagate instead of re-running the map
        present = tmp_path / "present.txt"
        present.write_text("ok")
        with pytest.raises(FileNotFoundError):
            parallel_map(_read_text,
                         [(str(present),),
                          (str(tmp_path / "missing.txt"),)],
                         mode=mode)

    def test_unknown_mode_rejected(self):
        # "auto" is execute()'s alone; a single item is checked too
        for mode in ("warp", "auto"):
            for items in ([(1, 1), (2, 2)], [(1, 1)]):
                with pytest.raises(ConfigError):
                    parallel_map(pow, items, mode=mode)

    def test_stats_stay_zero_on_a_clean_run(self):
        stats: dict = {}
        results = parallel_map(pow, [(2, n) for n in range(4)],
                               mode="thread", stats=stats)
        assert results == [1, 2, 4, 8]
        assert stats["retried"] == 0
        # pool reuse is the only other stat a clean run may report
        assert set(stats) <= {"retried", "pool_reused"}

class TestPoolReuse:
    """The persistent pool registry: reuse, eviction, shutdown."""

    def test_same_pool_serves_consecutive_calls(self):
        executor.shutdown_pools()
        stats: dict = {}
        assert parallel_map(pow, [(2, 2), (3, 2)], mode="thread",
                            stats=stats) == [4, 9]
        assert stats.get("pool_reused", 0) == 0
        (key,) = executor._POOLS
        first = executor._POOLS[key]
        assert parallel_map(pow, [(4, 2), (5, 2)], mode="thread",
                            stats=stats) == [16, 25]
        assert stats["pool_reused"] == 1
        assert executor._POOLS[key] is first

    def test_payload_broadcast_to_process_workers(self):
        executor.shutdown_pools()
        cells = {"cells": (1, 2, 3)}
        results = parallel_map(_payload_echo, [(1,), (2,)],
                               mode="process", payload=cells)
        assert results == [(1, cells), (2, cells)]

    def test_new_payload_evicts_the_stale_pool(self):
        executor.shutdown_pools()
        parallel_map(_payload_echo, [(1,), (2,)], mode="process",
                     payload="a")
        keys_a = set(executor._POOLS)
        assert len(keys_a) == 1
        stats: dict = {}
        results = parallel_map(_payload_echo, [(1,), (2,)],
                               mode="process", payload="b", stats=stats)
        # workers must observe the new broadcast, never the stale one
        assert results == [(1, "b"), (2, "b")]
        assert stats.get("pool_reused", 0) == 0
        keys_b = set(executor._POOLS)
        assert len(keys_b) == 1 and keys_a.isdisjoint(keys_b)

    def test_stale_payload_cleared_for_payloadless_calls(self):
        parallel_map(_payload_echo, [(1,), (2,)], mode="thread",
                     payload="warm")
        results = parallel_map(_payload_echo, [(1,), (2,)],
                               mode="thread")
        assert results == [(1, None), (2, None)]

    def test_shutdown_pools_empties_the_registry(self):
        parallel_map(pow, [(2, 2), (3, 2)], mode="thread")
        assert executor._POOLS
        executor.shutdown_pools()
        assert not executor._POOLS
        # the next call transparently builds a fresh pool
        assert parallel_map(pow, [(2, 2), (3, 2)],
                            mode="thread") == [4, 9]


class TestBrokenPool:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="worker-kill chaos needs fork inheritance")
    def test_broken_pool_reruns_only_incomplete_items(self, tmp_path):
        """A worker dying mid-run must not discard completed items:
        only the ones the broken pool dropped are re-run (under the
        thread fallback), and ``stats`` reports how many."""
        log_dir = str(tmp_path)
        args = [(log_dir, key, key == 2) for key in range(4)]
        stats: dict = {}
        results = parallel_map(_record_and_maybe_die, args,
                               mode="process", stats=stats)
        assert results == [0, 10, 20, 30]
        assert stats["retried"] >= 1
        # the re-run happened: the crashing item ran exactly twice
        crash_log = tmp_path / "2.log"
        assert crash_log.read_text().count("run") == 2
        # invocations = 4 successes + the attempts the broken pool
        # swallowed (at least the crash itself; a dropped item may
        # have died before ever starting, so an upper bound of one
        # extra attempt per retried item)
        total = sum((tmp_path / f"{k}.log").read_text().count("run")
                    for k in range(4))
        assert 4 + 1 <= total <= 4 + stats["retried"]


class TestNestedFanOut:
    def test_geo_sweep_over_a_process_pool_exits(self, tmp_path):
        """Each sweep job runs a process-mode GeoRouter inside a
        process-pool worker.  The nested fan-out must neither wait on
        the parent's inherited pools nor hang the worker's exit."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))),
                   REPRO_CACHE_DIR=str(tmp_path / "cache"),
                   REPRO_RUN_STORE=str(tmp_path / "runs.jsonl"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "--workers", "2",
             "--no-cache", "sweep", "serving_geo",
             "--param", "geo=home,follow_sun",
             "--param", "requests=500", "--param", "regions=2"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            # take the hung pool workers down with the sweep
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("nested geo sweep hung")
        assert proc.returncode == 0, out
        assert "=== serving_geo[geo=home," in out
        assert "=== serving_geo[geo=follow_sun," in out
