"""Parallel job execution on top of :mod:`concurrent.futures`.

Workers receive only (experiment name, params) pairs and resolve the
callable through the registry inside the worker, so process pools never
pickle closures.  Results always come back in submission order; a job
that raises is captured as a per-job error string instead of aborting
the batch.  If the platform refuses process pools (restricted sandboxes
without semaphores), execution transparently falls back to threads.

Pools are **reused** across calls: a module-level registry keys each
executor by pool class, width and (when one is shipped) the initializer
payload's fingerprint, so a sharded run, a geo run and a sweep phase in
the same process stop paying pool spin-up and worker re-import per
call.  An initializer payload — scenario, fleet plan, memo snapshot —
is pickled **once per worker** at pool creation (workers read it back
via :func:`worker_payload`) instead of once per submitted job.  Broken
or timed-out pools are evicted from the registry and transparently
replaced on the next call; every surviving pool is shut down by a
single ``atexit`` hook (:func:`shutdown_pools`).

Fan-outs nest safely: a forked child starts with an empty registry,
and a process fan-out requested inside one of this executor's own
process workers (a geo run inside a sweep job) runs inline there.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import pickle
import time
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as PoolTimeout
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.errors import ConfigError
from repro.runtime.spec import Job

#: The modes :func:`parallel_map` runs in.
MAP_MODES = ("process", "thread", "inline")

#: The modes :func:`execute` runs in: ``auto`` picks one per batch.
MODES = ("auto", *MAP_MODES)


@dataclass
class JobResult:
    """Outcome of one job: rows or an error, plus wall-time metadata.

    Attributes:
        job: the spec that produced this result.
        rows: experiment rows on success, ``None`` on failure.
        error: ``"ExcType: message"`` on failure, ``None`` on success.
        elapsed_s: wall time of the experiment callable itself.
        cached: rows were served from the result cache.
        worker: where the job ran (process/thread/inline/cache).
    """

    job: Job
    rows: Optional[list] = None
    error: Optional[str] = None
    elapsed_s: float = 0.0
    cached: bool = False
    worker: str = "inline"

    @property
    def ok(self) -> bool:
        return self.error is None


def _call_experiment(name: str, params: dict) -> tuple[list, float]:
    """Worker entry point: resolve by name and time the call."""
    from repro.runtime import registry

    start = time.perf_counter()
    rows = registry.get(name).func(**params)
    return rows, time.perf_counter() - start


def resolve_mode(jobs: Sequence[Job], mode: str = "auto") -> str:
    """Pick a concrete execution mode for this batch of jobs.

    Experiments are pure-Python CPU-bound code, so the GIL makes
    threads useless for speedup; auto mode therefore picks a process
    pool for any multi-job batch (with a thread fallback only for
    platforms that refuse process pools) and runs single jobs inline.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown execution mode {mode!r}; use "
                          f"one of {', '.join(MODES)}")
    if mode != "auto":
        return mode
    return "inline" if len(jobs) <= 1 else "process"


def check_map_mode(mode: str) -> str:
    """``mode`` itself when :func:`parallel_map` runs in it.

    Raises:
        ConfigError: for any other mode, ``auto`` included.
    """
    if mode not in MAP_MODES:
        raise ConfigError(f"unknown execution mode {mode!r}; use one of "
                          f"{', '.join(MAP_MODES)}")
    return mode


def default_workers(n_jobs: int) -> int:
    return max(1, min(n_jobs, os.cpu_count() or 2))


# ---------------------------------------------------------------------------
# The persistent pool registry
# ---------------------------------------------------------------------------
#: Live executors keyed by ``(pool class name, width, payload token)``.
_POOLS: dict[tuple[str, int, str], object] = {}

#: The payload this worker received at pool initialisation (set in
#: worker processes by :func:`_init_worker`; in thread/inline modes the
#: "worker" shares the caller's module globals, same semantics).
_PAYLOAD: Any = None

#: True only inside this executor's own process-pool workers.  A
#: process fan-out requested there (a geo run inside a sweep job) runs
#: inline instead: the outer pool already owns the CPUs, and a nested
#: pool the worker never shuts down would hang its exit.
_IN_POOL_WORKER = False


def _init_worker(payload: Any) -> None:
    """Pool initializer: pin the broadcast payload in this worker."""
    global _PAYLOAD
    _PAYLOAD = payload


def _init_process_worker(payload: Any) -> None:
    """Process-pool initializer: :func:`_init_worker`, plus the mark
    that keeps fan-outs from this worker inline."""
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True
    _init_worker(payload)


def worker_payload() -> Any:
    """The payload shipped to this worker via the pool initializer
    (``None`` when the pool was built without one)."""
    return _PAYLOAD


def _payload_token(payload: Any) -> str:
    if payload is None:
        return ""
    return hashlib.sha256(pickle.dumps(payload)).hexdigest()[:16]


def _registry_token() -> str:
    """Identity of the experiment registry's current contents.

    Forked process workers snapshot the registry at pool creation;
    keying :func:`execute`'s pools on this token means registering,
    replacing or removing an experiment retires stale pools instead
    of resolving names against a worker's old snapshot.
    """
    from repro.runtime import registry

    state = tuple(sorted((name, id(exp.func))
                         for name, exp in registry._REGISTRY.items()))
    return f"registry:{hash(state):x}"


def _get_pool(pool_cls, workers: int, payload: Any = None,
              token: Optional[str] = None) -> tuple[tuple, object, bool]:
    """A (possibly reused) executor for this shape and payload.

    Returns ``(registry key, pool, reused)``.  At most one pool lives
    per (class, width) shape: asking for the same shape with a
    *different* payload (or explicit ``token``) evicts and replaces
    the old pool — its workers hold a stale broadcast or module
    snapshot — which keeps the resident process count bounded by the
    number of distinct shapes in flight.
    """
    key = (pool_cls.__name__, workers,
           _payload_token(payload) if token is None else token)
    pool = _POOLS.get(key)
    if pool is not None:
        return key, pool, True
    for other in [k for k in _POOLS
                  if k[0] == key[0] and k[1] == key[1]]:
        _POOLS.pop(other).shutdown(wait=False, cancel_futures=True)
    # always run the initializer — a payload-less pool must *clear*
    # ``_PAYLOAD`` in its workers, since forked children inherit
    # whatever broadcast an earlier inline/thread call pinned in the
    # parent's module globals
    initializer = (_init_process_worker
                   if pool_cls is ProcessPoolExecutor else _init_worker)
    pool = pool_cls(max_workers=workers, initializer=initializer,
                    initargs=(payload,))
    _POOLS[key] = pool
    return key, pool, False


def _discard_pool(key: tuple, wait: bool = False) -> None:
    """Drop one pool from the registry and shut it down."""
    pool = _POOLS.pop(key, None)
    if pool is not None:
        pool.shutdown(wait=wait, cancel_futures=True)


def shutdown_pools() -> None:
    """Shut every registered pool down (the ``atexit`` hook).

    Also the escape hatch for callers that need a *fresh* fork — e.g.
    after monkeypatching module state a forked worker must observe —
    since pooled process workers snapshot the parent at pool creation.
    """
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pools)
if hasattr(os, "register_at_fork"):
    # a forked child must never touch the parent's pools: their locks
    # may have been held mid-``submit`` at the fork, so evicting one
    # would wait on a lock nobody in the child will ever release
    os.register_at_fork(after_in_child=_POOLS.clear)


def _execute_inline(jobs: Sequence[Job]) -> list[JobResult]:
    results = []
    for job in jobs:
        try:
            rows, elapsed = _call_experiment(job.experiment,
                                             dict(job.params))
            results.append(JobResult(job, rows=rows, elapsed_s=elapsed))
        except Exception as exc:
            results.append(JobResult(
                job, error=f"{type(exc).__name__}: {exc}"))
    return results


def _execute_pool(jobs: Sequence[Job], pool_cls, label: str,
                  max_workers: Optional[int],
                  timeout_s: Optional[float] = None) -> list[JobResult]:
    results: list[Optional[JobResult]] = [None] * len(jobs)
    workers = max_workers or default_workers(len(jobs))
    timed_out = False
    broken = False
    key, pool, _ = _get_pool(pool_cls, workers,
                             token=_registry_token())
    try:
        futures = [
            pool.submit(_call_experiment, job.experiment, dict(job.params))
            for job in jobs
        ]
        for i, (job, future) in enumerate(zip(jobs, futures)):
            try:
                rows, elapsed = future.result(timeout_s)
                results[i] = JobResult(job, rows=rows, elapsed_s=elapsed,
                                       worker=label)
            except PoolTimeout:
                # a hung job becomes a per-job error instead of wedging
                # the whole batch indefinitely
                timed_out = True
                future.cancel()
                results[i] = JobResult(
                    job, error=f"TimeoutError: job exceeded "
                               f"{timeout_s:g}s", worker=label)
            except BrokenExecutor:
                broken = True
                raise
            except Exception as exc:
                results[i] = JobResult(
                    job, error=f"{type(exc).__name__}: {exc}",
                    worker=label)
    except (BrokenExecutor, OSError):
        broken = True
        raise
    finally:
        if timed_out:
            # the hung worker would block a normal shutdown forever;
            # kill process workers outright (threads cannot be killed —
            # a timed-out thread job leaks its thread, best-effort)
            if pool_cls is ProcessPoolExecutor:
                procs = getattr(pool, "_processes", None) or {}
                for proc in list(procs.values()):
                    proc.terminate()
            _discard_pool(key)
        elif broken:
            _discard_pool(key)
        # a healthy pool stays registered for the next call
    return results  # type: ignore[return-value]


def execute(jobs: Iterable[Job], mode: str = "auto",
            max_workers: Optional[int] = None,
            timeout_s: Optional[float] = None) -> list[JobResult]:
    """Run jobs and return their results in submission order.

    Errors raised by individual experiments are aggregated into the
    corresponding :class:`JobResult`; they never abort the batch.
    ``timeout_s`` bounds each job's result wait — a job that exceeds it
    is reported as a per-job ``TimeoutError`` result (and its process
    worker is terminated) rather than blocking the batch.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    if timeout_s is not None and timeout_s <= 0:
        raise ConfigError("timeout_s must be positive")
    mode = resolve_mode(jobs, mode)
    if mode == "inline" or (mode == "process" and _IN_POOL_WORKER):
        return _execute_inline(jobs)
    if mode == "process":
        try:
            return _execute_pool(jobs, ProcessPoolExecutor, "process",
                                 max_workers, timeout_s)
        except (BrokenExecutor, OSError):
            mode = "thread"  # sandboxes without fork/semaphores
    return _execute_pool(jobs, ThreadPoolExecutor, "thread", max_workers,
                         timeout_s)


def parallel_map(func: Callable[..., Any],
                 argtuples: Iterable[tuple],
                 mode: str = "process",
                 max_workers: Optional[int] = None,
                 stats: Optional[dict] = None,
                 payload: Any = None) -> list[Any]:
    """Order-preserving parallel map over argument tuples.

    Unlike :func:`execute`, exceptions propagate to the caller (the
    first failing item in submission order wins).  ``mode`` is one of
    :data:`MAP_MODES` (:func:`check_map_mode`), whatever the item
    count.  ``func`` must be a module-level callable when
    ``mode="process"``.

    ``payload``, if given, is broadcast to every worker once via the
    pool initializer — workers read it back with
    :func:`worker_payload` — instead of being pickled into each job.
    Pools are reused across calls with the same mode/width/payload
    (see :func:`_get_pool`).

    When a process pool breaks mid-run, completed items are kept and
    only the incomplete ones are re-run under the thread fallback.
    ``stats``, if given, is updated in place: ``stats["retried"]``
    counts the items that needed re-running, and
    ``stats["pool_reused"]`` the calls served by an already-warm pool.
    """
    check_map_mode(mode)
    items = list(argtuples)
    if stats is not None:
        stats.setdefault("retried", 0)
    if (mode == "inline" or len(items) <= 1
            or (mode == "process" and _IN_POOL_WORKER)):
        # inline "workers" are the caller's process: pin (or clear)
        # the broadcast global so worker_payload() sees this call's
        # payload, never a stale one from an earlier map
        _init_worker(payload)
        return [func(*args) for args in items]
    pool_cls = (ProcessPoolExecutor if mode == "process"
                else ThreadPoolExecutor)
    if pool_cls is ThreadPoolExecutor:
        # thread workers share this module's globals with the caller;
        # the pool initializer only re-sets the same global, so pin it
        # here too — which also *clears* it for payload-less calls
        _init_worker(payload)
    workers = max_workers or default_workers(len(items))
    # Only pool-infrastructure failures may trigger the thread
    # fallback; an OSError raised by ``func`` itself must propagate,
    # not silently re-run the whole map.
    key = None
    try:
        key, pool, reused = _get_pool(pool_cls, workers, payload)
        if reused and stats is not None:
            stats["pool_reused"] = stats.get("pool_reused", 0) + 1
        futures = [pool.submit(func, *args) for args in items]
    except (BrokenExecutor, OSError):
        if key is not None:
            _discard_pool(key)
        if mode != "process":
            raise
        if stats is not None:
            stats["retried"] += len(items)
        return parallel_map(func, items, "thread", max_workers,
                            stats=None, payload=payload)
    results: list[Any] = [None] * len(items)
    pending: list[int] = []
    for i, future in enumerate(futures):
        try:
            results[i] = future.result()
        except BrokenExecutor:
            if mode != "process":
                _discard_pool(key)
                raise
            # this item never completed; items that did are kept —
            # the fallback re-runs only what the broken pool dropped
            pending.append(i)
    if not pending:
        return results
    _discard_pool(key)
    if stats is not None:
        stats["retried"] += len(pending)
    rerun = parallel_map(func, [items[i] for i in pending], "thread",
                         max_workers, payload=payload)
    for i, value in zip(pending, rerun):
        results[i] = value
    return results
