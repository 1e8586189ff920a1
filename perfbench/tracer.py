"""Span tracing of the serving stack, installed from outside the program.

The benchmark never edits ``src/``.  A traced run instead wraps the
public calls of each layer -- trace generation, calibration and
prewarm, the event engine, the systolic layer simulator, the executor
fan-out, geo routing and the interconnect -- with recorders, and
:func:`uninstall` puts the originals back.  Every wrapper only
observes: it passes arguments and results through untouched, so a
traced run's simulated outputs equal an untraced run's bit for bit.

Records stay in memory, in three kinds that keep the cost bounded:

- a *span* ``[name, start, end, parent]`` for a call made a handful of
  times per run, such as ``ClusterEngine.run`` or ``parallel_map``;
- a *leaf* ``(name, parent) -> [count, seconds]`` for a call made per
  request, such as one geo route decision or one step of a lazily
  consumed trace generator.  A leaf never contains another traced
  call, so its time is exactly the part of its parent it covers;
- a plain counter, for arrivals drawn, interconnect hop lookups and
  fan-out payload bytes.

:func:`install` refuses to trace a program that lacks any of these
calls, so a layer that moved fails the traced run instead of reading 0.

A fan-out job runs under a tracer of its own in the worker process
(:func:`run_job`) and ships its records back with its result; the
parent grafts them under its ``parallel_map`` span (:meth:`Tracer.
attach`).  ``time.perf_counter`` is the system-wide monotonic clock on
Linux, so worker spans share the parent's time axis.
"""

from __future__ import annotations

import functools
import pickle
import statistics
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

#: The per-layer metrics of a traced run: name -> (unit, better).
PER_LAYER = {
    "workload.trace_gen_s": ("s", "lower"),
    "workload.draws_per_req": ("draws/req", "lower"),
    "simulator.calibrate_s": ("s", "lower"),
    "simulator.prewarm_s": ("s", "lower"),
    "memo.lookups": ("count", "lower"),
    "memo.misses": ("count", "lower"),
    "memo.hit_rate": ("ratio", "higher"),
    "systolic.simulate_s": ("s", "lower"),
    "events.engine_s": ("s", "lower"),
    "events.engine_s_max": ("s", "lower"),
    "events.us_per_req": ("us/req", "lower"),
    "events.batches": ("count", "lower"),
    "policies.retries_per_req": ("retries/req", "lower"),
    "policies.timeouts": ("count", "lower"),
    "policies.cancels": ("count", "lower"),
    "sharding.parent_pre_s": ("s", "lower"),
    "sharding.reduce_s": ("s", "lower"),
    "sharding.share_max": ("ratio", "lower"),
    "sharding.worker_s_max": ("s", "lower"),
    "sharding.worker_s_min": ("s", "lower"),
    "sharding.untimed_s": ("s", "lower"),
    "executor.fanout_s": ("s", "lower"),
    "executor.dispatch_overhead_s": ("s", "lower"),
    "executor.payload_bytes": ("bytes", "lower"),
    "executor.pool_spawn_s": ("s", "lower"),
    "geo.route_calls_per_req": ("calls/req", "lower"),
    "interconnect.hops_calls_per_req": ("calls/req", "lower"),
    "geo.route_s": ("s", "lower"),
    "geo.parent_pre_s": ("s", "lower"),
    "geo.reduce_s": ("s", "lower"),
    "geo.share_max": ("ratio", "lower"),
    "geo.worker_s_max": ("s", "lower"),
    "geo.worker_s_min": ("s", "lower"),
    "geo.untimed_s": ("s", "lower"),
}

# Span and leaf names the metrics read.
API = "api"
JOB = "executor.job"
FANOUT = "executor.parallel_map"
ENGINE = "events.engine_run"
CALIBRATE = "simulator.capacity_rps"
PREWARM = "simulator.prewarm"
SIMULATE = "systolic.simulate_layer"
ROUTE = "geo.route"
TRACE_STEP = "workload.trace_step"
TRACE_SPANS = ("workload.generate_trace", "workload.trace_span",
               "workload.shard_trace")
ARRIVALS = "workload.arrivals"
BURNED = "workload.burned"
HOPS = "interconnect.hops"
PAYLOAD = "executor.payload_bytes"


class Tracer:
    """In-memory spans, leaves and counters of one process or job."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.leaves: dict[tuple[str, int], list] = {}
        self.counts: Counter = Counter()
        #: ``CacheStats`` of every layer memo built while active, here
        #: or in a worker job whose records were attached.
        self.memo: list = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        # pop through idx: a span left open by an exception closes too
        while self._stack and self._stack.pop() != idx:
            pass

    def leaf(self, name: str, seconds: float) -> None:
        key = (name, self._stack[-1] if self._stack else -1)
        entry = self.leaves.get(key)
        if entry is None:
            self.leaves[key] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def memo_totals(self) -> tuple[int, int]:
        """(lookups, misses) over every recorded layer memo."""
        return (sum(s.lookups for s in self.memo),
                sum(s.misses for s in self.memo))

    def export(self) -> dict:
        """A picklable copy of the records, for shipping to a parent."""
        return {"spans": self.spans, "leaves": self.leaves,
                "counts": dict(self.counts), "memo": self.memo}

    def attach(self, export: dict, parent: int) -> None:
        """Graft a worker job's records under span ``parent``."""
        offset = len(self.spans)
        for name, start, end, up in export["spans"]:
            self.spans.append([name, start, end,
                               up + offset if up >= 0 else parent])
        for (name, up), (count, seconds) in export["leaves"].items():
            key = (name, up + offset if up >= 0 else parent)
            entry = self.leaves.setdefault(key, [0, 0.0])
            entry[0] += count
            entry[1] += seconds
        self.counts.update(export["counts"])
        self.memo.extend(export["memo"])


def covered(start: float, end: float,
            intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[list],
               leaves: dict[tuple[str, int], list]) -> list[float]:
    """Each span's duration minus the time its children cover.

    Child spans may overlap one another (jobs of one fan-out run side
    by side in different workers), so their cover is an interval
    union.  Leaves are sequential calls made inside their parent on its
    own thread, so their summed time is their cover.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    leaf_time = [0.0] * len(spans)
    for (_name, parent), (_count, seconds) in leaves.items():
        if parent >= 0:
            leaf_time[parent] += seconds
    return [end - start - covered(start, end, children[i]) - leaf_time[i]
            for i, (_name, start, end, _parent) in enumerate(spans)]


# ---------------------------------------------------------------------------
# Installing the recorders
# ---------------------------------------------------------------------------
#: The tracer the recorders write to (``None``: recorders pass through).
#: Module state because the wrapped program code cannot be handed one.
_ACTIVE: Optional[Tracer] = None
#: (owner, attribute, original) for every installed wrapper.
_INSTALLED: list[tuple[Any, str, Any]] = []


def activate(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Make ``tracer`` the recording target; returns the previous one."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, tracer
    return previous


def _spanned(name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer = _ACTIVE
        if tracer is None:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
    return traced


def _leaf(name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            if _ACTIVE is not None:
                _ACTIVE.leaf(name, perf_counter() - start)
    return traced


def _counted(name: str, fn: Callable, weight_arg: Optional[int]) -> Callable:
    """Count calls, or the sum of positional argument ``weight_arg``."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if _ACTIVE is not None:
            _ACTIVE.counts[name] += (1 if weight_arg is None
                                     else args[weight_arg])
        return fn(*args, **kwargs)
    return traced


def _steps(iterator: Iterator) -> Iterator:
    """Re-yield ``iterator``, timing each step as a trace-gen leaf."""
    tracer = _ACTIVE
    if tracer is None:
        yield from iterator
        return
    while True:
        start = perf_counter()
        try:
            item = next(iterator)
        except StopIteration:
            tracer.leaf(TRACE_STEP, perf_counter() - start)
            return
        tracer.leaf(TRACE_STEP, perf_counter() - start)
        yield item


def _stepped(fn: Callable) -> Callable:
    """Wrap a function returning a lazy trace so its steps are timed."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return _steps(fn(*args, **kwargs))
    return traced


def _registering(fn: Callable) -> Callable:
    """Wrap ``LayerMemoCache.__init__`` to collect each memo's stats."""
    @functools.wraps(fn)
    def traced(self, *args, **kwargs):
        fn(self, *args, **kwargs)
        if _ACTIVE is not None:
            _ACTIVE.memo.append(self.stats)
    return traced


def _fanned(fn: Callable) -> Callable:
    """Wrap ``parallel_map`` so every job runs under :func:`run_job`."""
    @functools.wraps(fn)
    def traced(func, argtuples, *args, **kwargs):
        tracer = _ACTIVE
        if tracer is None:
            return fn(func, argtuples, *args, **kwargs)
        items = list(argtuples)
        tracer.counts[PAYLOAD] += (len(pickle.dumps(items))
                                   + len(pickle.dumps(kwargs.get("payload"))))
        idx = tracer.open(FANOUT)
        try:
            shipped = fn(functools.partial(run_job, func), items,
                         *args, **kwargs)
        finally:
            tracer.close(idx)
        results = []
        for result, export in shipped:
            tracer.attach(export, idx)
            results.append(result)
        return results
    return traced


def run_job(func: Callable, *args) -> tuple[Any, dict]:
    """One fan-out job under its own tracer (runs in the worker)."""
    if not _INSTALLED:
        install()  # a spawned worker starts from a fresh import
    tracer = Tracer()
    outer = activate(tracer)
    idx = tracer.open(JOB)
    try:
        result = func(*args)
    finally:
        tracer.close(idx)
        activate(outer)
    return result, tracer.export()


def _replace_everywhere(original: Any, wrapper: Any,
                        skip: tuple[str, ...] = ()) -> None:
    """Rebind every ``repro`` module global that names ``original``;
    raises if none outside ``skip`` does."""
    found = False
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or mod_name in skip:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                _INSTALLED.append((module, attr, original))
                setattr(module, attr, wrapper)
                found = True
    if not found:
        raise LookupError(f"cannot trace {original.__qualname__}: no "
                          f"module calls it by a global name")


def _original(owner: Any, attr: str) -> Any:
    """The call ``owner.attr`` as defined on ``owner`` itself.

    Raises if the program no longer defines it there: a hook that
    silently records nothing would read as a large gain in its layer.
    """
    try:
        return vars(owner)[attr]
    except KeyError:
        name = getattr(owner, "__name__", repr(owner))
        raise LookupError(f"cannot trace {name}.{attr}: the program no "
                          f"longer defines it; update tracer.install()"
                          ) from None


def _wrap_attr(owner: Any, attr: str, make: Callable) -> None:
    original = _original(owner, attr)
    _INSTALLED.append((owner, attr, original))
    setattr(owner, attr, make(original))


def install() -> None:
    """Wrap every traced call of the serving stack (idempotent).

    Raises :class:`LookupError`, and installs nothing, if any traced
    call is missing.
    """
    if _INSTALLED:
        return
    try:
        _install()
    except BaseException:
        uninstall()
        raise


def _install() -> None:
    import repro.serving.geo  # noqa: F401 -- load every layer first
    from repro.runtime import executor
    from repro.serving import (events, interconnect, memo, policies,
                               simulator, workload)
    from repro.systolic import simulator as systolic

    _wrap_attr(workload.TraceShard, "__init__",
               lambda f: _spanned("workload.shard_trace", f))
    _wrap_attr(workload.TraceShard, "__iter__", _stepped)
    for process in _original(workload, "ARRIVAL_SHAPES").values():
        _wrap_attr(process, "times", lambda f: _counted(ARRIVALS, f, 1))
    _wrap_attr(simulator.ServingSimulator, "capacity_rps",
               lambda f: _spanned(CALIBRATE, f))
    _wrap_attr(simulator.ServingSimulator, "prewarm",
               lambda f: _spanned(PREWARM, f))
    _wrap_attr(events.ClusterEngine, "run", lambda f: _spanned(ENGINE, f))
    _wrap_attr(systolic.AcceleratorModel, "simulate_layer",
               lambda f: _leaf(SIMULATE, f))
    _wrap_attr(interconnect.Interconnect, "hops",
               lambda f: _counted(HOPS, f, None))
    _wrap_attr(memo.LayerMemoCache, "__init__", _registering)
    for policy in _original(policies, "GEO_POLICIES").values():
        _wrap_attr(policy, "route", lambda f: _leaf(ROUTE, f))

    functions = (("generate_trace",
                  lambda f: _spanned("workload.generate_trace", f)),
                 ("trace_span", lambda f: _spanned("workload.trace_span", f)),
                 ("stream_trace", _stepped),
                 ("burn_draws", lambda f: _counted(BURNED, f, 1)))
    for name, make in functions:
        original = _original(workload, name)
        _replace_everywhere(original, make(original))
    fan_out = _original(executor, "parallel_map")
    # the executor's own broken-pool fallback re-enters parallel_map
    # through its module global; wrapping that would wrap jobs twice
    _replace_everywhere(fan_out, _fanned(fan_out),
                        skip=("repro.runtime.executor",))


def uninstall() -> None:
    """Put every original back, newest wrapper first."""
    while _INSTALLED:
        owner, attr, original = _INSTALLED.pop()
        setattr(owner, attr, original)
    activate(None)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------
def _named(tracer: Tracer, name: str) -> list[int]:
    return [i for i, span in enumerate(tracer.spans) if span[0] == name]


def _duration(tracer: Tracer, idx: int) -> float:
    _name, start, end, _parent = tracer.spans[idx]
    return end - start


def _jobs_of(tracer: Tracer, fanout: int) -> list[int]:
    return [i for i, span in enumerate(tracer.spans)
            if span[0] == JOB and span[3] == fanout]


def _leaf_total(tracer: Tracer, name: str) -> tuple[int, float]:
    count, seconds = 0, 0.0
    for (leaf, _parent), (n, s) in tracer.leaves.items():
        if leaf == name:
            count += n
            seconds += s
    return count, seconds


def _spawn_overhead(tracer: Tracer) -> float:
    """The first fan-out's time beyond its busiest job: the cost of a
    cold pool (process start-up plus first dispatch)."""
    fanouts = _named(tracer, FANOUT)
    if not fanouts:
        return 0.0
    jobs = _jobs_of(tracer, fanouts[0])
    busiest = max((_duration(tracer, j) for j in jobs), default=0.0)
    return _duration(tracer, fanouts[0]) - busiest


def setup_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of a traced set-up."""
    lookups, misses = tracer.memo_totals()
    return {
        "simulator.calibrate_s": sum(_duration(tracer, i)
                                     for i in _named(tracer, CALIBRATE)),
        "simulator.prewarm_s": sum(_duration(tracer, i)
                                   for i in _named(tracer, PREWARM)),
        "memo.lookups": lookups,
        "memo.misses": misses,
        "memo.hit_rate": 1.0 - misses / lookups if lookups else 0.0,
        "systolic.simulate_s": _leaf_total(tracer, SIMULATE)[1],
        "executor.pool_spawn_s": _spawn_overhead(tracer),
    }


def call_metrics(tracer: Tracer, n: int, info: dict) -> dict[str, float]:
    """Per-layer metrics of one traced API call.

    ``info`` carries what the call's result reports: ``fanout`` (the
    metric prefix of its fan-out, ``"sharding"``/``"geo"``, or
    ``None``), ``wall_s``, ``shares`` (requests per partition),
    ``batches``, ``retries``, ``timeouts`` and ``cancels``.
    """
    selfs = self_times(tracer.spans, tracer.leaves)
    engines = [selfs[i] for i in _named(tracer, ENGINE)]
    trace_gen = (sum(_duration(tracer, i) for name in TRACE_SPANS
                     for i in _named(tracer, name))
                 + _leaf_total(tracer, TRACE_STEP)[1])
    route_calls, route_s = _leaf_total(tracer, ROUTE)
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({
        "workload.trace_gen_s": trace_gen,
        "workload.draws_per_req": (tracer.counts[ARRIVALS]
                                   + tracer.counts[BURNED]) / n,
        "events.engine_s": sum(engines),
        "events.engine_s_max": max(engines, default=0.0),
        "events.us_per_req": sum(engines) / n * 1e6,
        "events.batches": info["batches"],
        "policies.retries_per_req": info["retries"] / n,
        "policies.timeouts": info["timeouts"],
        "policies.cancels": info["cancels"],
        "geo.route_calls_per_req": route_calls / n,
        "interconnect.hops_calls_per_req": tracer.counts[HOPS] / n,
        "geo.route_s": route_s,
    })
    fanouts = _named(tracer, FANOUT)
    prefix = info["fanout"]
    if prefix is None or not fanouts:
        return metrics
    api = _named(tracer, API)[0]
    _, api_start, api_end, _ = tracer.spans[api]
    jobs = [_duration(tracer, j) for f in fanouts for j in _jobs_of(tracer, f)]
    fanout_s = sum(_duration(tracer, f) for f in fanouts)
    metrics.update({
        "executor.fanout_s": fanout_s,
        "executor.dispatch_overhead_s": fanout_s - max(jobs),
        "executor.payload_bytes": tracer.counts[PAYLOAD],
        f"{prefix}.parent_pre_s": tracer.spans[fanouts[0]][1] - api_start,
        f"{prefix}.reduce_s": api_end - tracer.spans[fanouts[-1]][2],
        f"{prefix}.share_max": max(info["shares"]) / n,
        f"{prefix}.worker_s_max": max(jobs),
        f"{prefix}.worker_s_min": min(jobs),
        f"{prefix}.untimed_s": api_end - api_start - info["wall_s"],
    })
    return metrics


def median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over several traced calls."""
    return {name: statistics.median(row[name] for row in rows)
            for name in rows[0]}
