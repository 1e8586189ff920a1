"""One fresh benchmark process: set up a workload, then time or trace it.

``run.py`` starts this script for every measurement, so set-up always
begins in a fresh interpreter.  The last line it prints is one JSON
object.  Modes:

- ``setup``: set up, report the set-up time, stop;
- ``time``: set up, then call the workload until ``--seconds`` pass;
- ``trace``: as ``time``, with the recorders of :mod:`tracer` installed
  before set-up, adding the per-layer metrics of set-up and calls.

Every timing comes with the time the host probe (:func:`host_probe`)
took around it, so ``run.py`` can scale it to a reference host speed.

Before it reports, the process shuts its worker pool down and waits for
the workers to exit, so the peak resident memory of every worker has
been accounted to it.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import multiprocessing
import resource
import sys
import threading
import time
import traceback

import tracer

#: Calls an untraced process makes even when they outlast its window: a
#: process's first call leaves its heap larger, so its peak memory is
#: only stable from the second call on.
MIN_CALLS = 2

#: Steps of the host probe: about 75 ms on a 2-CPU host.
PROBE_STEPS = 60_000


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    The loop does what the event engine's hot path does (heap pushes
    and pops, dict updates, float arithmetic) but runs no program code,
    so its time gauges how fast the host is at the moment and never
    moves with a change to the program.
    """
    start = time.perf_counter()
    heap: list = []
    table: dict = {}
    acc = 0.0
    for i in range(PROBE_STEPS):
        heapq.heappush(heap, ((i * 7919) % 1009 * 0.5, i))
        key = i % 509
        table[key] = table.get(key, 0.0) + acc
        acc = acc * 0.999 + 1.0
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
    return time.perf_counter() - start


def measure(workload, api, seed: int, seconds: float,
            traced: bool) -> dict:
    """Call the workload for ``seconds`` (at least :data:`MIN_CALLS`
    times untraced, once traced) and check every call's outputs.

    The host probe runs between calls; each timed call is reported with
    the mean of the probes just before and just after it.
    """
    import workloads  # imports repro: only after set-up started the clock

    walls: list[float] = []
    probes: list[float] = []
    layer_rows: list[dict] = []
    errors: list[str] = []
    attempted = failed = 0
    first = None
    wall = 0.0
    deadline = time.perf_counter() + seconds
    # start another call while at least half of it fits the window, so
    # runs overshoot ``seconds`` by half a call no more often than they
    # fall short by as much
    min_calls = 1 if traced else MIN_CALLS
    before = host_probe()
    while (attempted < min_calls * workload.n
           or time.perf_counter() + wall / 2 < deadline):
        gc.collect()  # each call starts without the last one's garbage
        call_tracer = tracer.Tracer() if traced else None
        if traced:
            tracer.activate(call_tracer)
            api_span = call_tracer.open(tracer.API)
        start = time.perf_counter()
        try:
            result = workload.call(api, seed)
        except Exception as exc:  # noqa: BLE001 -- a failed operation
            traceback.print_exc()
            result, problems = None, [f"{type(exc).__name__}: {exc}"]
        wall = time.perf_counter() - start
        if traced:
            call_tracer.close(api_span)
            tracer.activate(None)
        after = host_probe()
        attempted += workload.n
        if result is not None:
            problems = workloads.check(result, workload.n)
            out = workloads.outputs(result)
            if first is None:
                first = out
            elif out != first:
                problems.append("simulated outputs differ from the "
                                "run's first call with the same seed")
            if traced and not problems:
                layer_rows.append(tracer.call_metrics(
                    call_tracer, workload.n, workloads.layer_info(result)))
            del result  # one call's result in memory at a time
        if problems:
            failed += workload.n
            errors.extend(problems)
        else:
            walls.append(wall)
            probes.append((before + after) / 2)
        before = after
    return {"n": workload.n, "walls": walls, "probes": probes,
            "attempted": attempted,
            "failed": failed, "errors": errors[:10], "outputs": first,
            "digest": workloads.digest(first) if first else None,
            "layers": (tracer.median_metrics(layer_rows)
                       if layer_rows else None)}


def _wait_for_workers() -> None:
    """Wait until every pool thread and worker process has ended."""
    for thread in threading.enumerate():
        if thread is not threading.current_thread():
            thread.join(timeout=60)
    multiprocessing.active_children()  # reaps any exited worker


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "time", "trace"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    before = host_probe()
    start = time.perf_counter()
    import workloads  # the first repro import: set-up starts here
    from repro.runtime.executor import shutdown_pools

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    traced = args.mode == "trace"
    try:
        if traced:
            tracer.install()
            setup_tracer = tracer.Tracer()
            tracer.activate(setup_tracer)
        api = workload.set_up(args.seed)
        report: dict = {"setup_s": time.perf_counter() - start,
                        "setup_probe_s": (before + host_probe()) / 2}
        if traced:
            tracer.activate(None)
            setup_layers = tracer.setup_metrics(setup_tracer)
        if args.mode != "setup":
            report.update(measure(workload, api, args.seed, args.seconds,
                                  traced))
        if traced and report["layers"] is not None:
            report["layers"].update(setup_layers)
    finally:
        shutdown_pools()
        _wait_for_workers()
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report["peak_rss_mb"] = peak_kb / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
