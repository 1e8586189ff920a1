"""Structured serving telemetry: event traces, a metrics timeline,
monotonic counters.

The control plane makes rich decisions — EDF flushes, work stealing,
predictive scaling — but a :class:`~repro.serving.simulator.ServingResult`
only shows their end-of-run aggregates.  A :class:`Telemetry` sink,
threaded through :class:`~repro.serving.events.ClusterEngine`, records
*how* a run unfolded:

- a structured **event trace**: arrivals, sheds, flushes (every batch
  leaving its queue, tagged with why — ready / deadline / drain /
  re-dispatch / steal / parked-drain), batch starts and completions,
  replica failures and recoveries, scale actions — each stamped with
  sim-time and, where meaningful, replica, model and batch size;
- a per-control-tick **metrics timeline**: queue depth per model,
  in-flight batches per replica, in-system requests, live replica
  count, windowed p95 (when a latency-driven scale metric maintains
  one), an arrival-rate estimate, and cumulative served energy;
- monotonic **counters** (arrivals, sheds, batches, steals, scale
  actions, ...) for cheap end-of-run assertions.

Telemetry is strictly an *observer*: the engine never reads it, so a
run with a sink attached emits bit-identical per-request latencies and
energies to the same run without one (enforced by
``tests/test_serving_telemetry.py``), and the ``None`` path costs one
attribute check per handler.

Rows are plain dicts (``t`` = sim-time, ``ev`` = kind) so they feed
straight into :mod:`repro.eval.blocks` and serialise as JSONL
(:meth:`Telemetry.save` / :func:`load_trace`) for ``repro serve-sim
--trace out.jsonl`` and the ``repro report`` timeline charts.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from repro.errors import ConfigError

#: Schema tag written on the first line of a saved trace.
TRACE_SCHEMA = "repro-telemetry/1"

#: Event kinds a trace may contain (``sample`` rows carry the metrics
#: timeline; ``run`` rows mark run boundaries in a shared sink;
#: ``region`` rows are the geo tier's per-region summaries).
EVENT_KINDS = ("run", "arrival", "shed", "flush", "batch_done", "fail",
               "recover", "steal", "scale", "park", "sample", "region",
               "timeout", "retry", "hedge", "cancel", "degrade")

#: Timeline sampling interval (s) of the CLI's traced runs and of every
#: traced fan-out partition: the autoscaler's default control-loop
#: interval, so a traced run without one still gets a metrics timeline.
TIMELINE_TICK = 200e-6


class Telemetry:
    """Opt-in observability sink for one or more engine runs.

    Args:
        events: record the per-request / per-batch event trace.  Off
            keeps only the timeline and counters — useful on
            million-request traces where per-arrival rows would
            dominate memory.
        tick: sampling interval (s) for the metrics timeline when the
            engine has no control tick of its own (no autoscaler, no
            stealing).  ``None`` samples only on the engine's existing
            control ticks.

    Attributes:
        rows: every recorded row, in emission (= sim-time) order.
        counters: monotonic event counts for the sink's lifetime.
    """

    __slots__ = ("rows", "counters", "record_events", "tick", "_run",
                 "_energy", "_done", "_arrivals", "_last_sample")

    def __init__(self, events: bool = True,
                 tick: Optional[float] = None) -> None:
        if tick is not None and tick <= 0:
            raise ConfigError("telemetry tick must be positive")
        self.rows: list[dict] = []
        self.counters: dict[str, int] = {
            "runs": 0, "arrivals": 0, "shed": 0, "flushes": 0,
            "batches_done": 0, "requests_done": 0, "failures": 0,
            "recoveries": 0, "redispatched": 0, "stolen": 0,
            "scale_ups": 0, "scale_downs": 0, "parked": 0, "samples": 0,
            "timeouts": 0, "retries": 0, "hedges": 0, "cancels": 0,
            "degraded": 0,
        }
        self.record_events = events
        self.tick = tick
        self._run = -1
        self._energy = 0.0
        self._done = 0
        self._arrivals = 0
        self._last_sample: Optional[tuple[float, int]] = None

    # -- run boundaries ---------------------------------------------------
    def begin_run(self, **meta) -> None:
        """Mark the start of one engine run (scenario, policy, ...)."""
        self._run += 1
        self.counters["runs"] += 1
        self._energy = 0.0
        self._done = 0
        self._arrivals = 0
        self._last_sample = None
        row = {"t": 0.0, "ev": "run", "run": self._run}
        row.update(meta)
        self.rows.append(row)

    def _emit(self, row: dict) -> None:
        row["run"] = self._run
        self.rows.append(row)

    # -- engine hooks -----------------------------------------------------
    # Called by ClusterEngine only when a sink is attached; none of
    # them returns anything the engine could act on.
    def arrival(self, t: float, model: str, request_id: int) -> None:
        self.counters["arrivals"] += 1
        self._arrivals += 1
        if self.record_events:
            self._emit({"t": t, "ev": "arrival", "model": model,
                        "request": request_id})

    def shed(self, t: float, model: str, request_id: int) -> None:
        self.counters["shed"] += 1
        if self.record_events:
            self._emit({"t": t, "ev": "shed", "model": model,
                        "request": request_id})

    def flush(self, t: float, record, batch_id: int, cause: str) -> None:
        """One batch left its queue for a replica (cause: ready /
        deadline / drain / redispatch / steal / waiting)."""
        self.counters["flushes"] += 1
        if cause == "redispatch":
            self.counters["redispatched"] += 1
        if self.record_events:
            self._emit({"t": t, "ev": "flush", "cause": cause,
                        "model": record.model, "size": record.size,
                        "replica": record.replica, "batch": batch_id,
                        "start": record.start, "done": record.done})

    def batch_done(self, t: float, record, batch_id: int) -> None:
        self.counters["batches_done"] += 1
        self.counters["requests_done"] += record.size
        self._done += record.size
        self._energy += record.energy
        if self.record_events:
            self._emit({"t": t, "ev": "batch_done", "model": record.model,
                        "size": record.size, "replica": record.replica,
                        "batch": batch_id, "energy_j": record.energy,
                        "service_s": record.service})

    def fail(self, t: float, replica: int, aborted: int) -> None:
        self.counters["failures"] += 1
        if self.record_events:
            self._emit({"t": t, "ev": "fail", "replica": replica,
                        "aborted": aborted})

    def recover(self, t: float, replica: int) -> None:
        self.counters["recoveries"] += 1
        if self.record_events:
            self._emit({"t": t, "ev": "recover", "replica": replica})

    def steal(self, t: float, record, batch_id: int, victim: int,
              thief: int) -> None:
        self.counters["stolen"] += 1
        if self.record_events:
            self._emit({"t": t, "ev": "steal", "model": record.model,
                        "size": record.size, "batch": batch_id,
                        "victim": victim, "thief": thief})

    def scale(self, t: float, action: str, replicas: int) -> None:
        self.counters["scale_ups" if action == "up"
                      else "scale_downs"] += 1
        if self.record_events:
            self._emit({"t": t, "ev": "scale", "action": action,
                        "replicas": replicas})

    def park(self, t: float, model: str, size: int) -> None:
        """A flushed batch found no live replica and was parked."""
        self.counters["parked"] += 1
        if self.record_events:
            self._emit({"t": t, "ev": "park", "model": model,
                        "size": size})

    # -- resilience hooks -------------------------------------------------
    def timeout(self, t: float, model: str, request_id: int) -> None:
        """A deadline check found the request still unfinished."""
        self.counters["timeouts"] += 1
        if self.record_events:
            self._emit({"t": t, "ev": "timeout", "model": model,
                        "request": request_id})

    def retry(self, t: float, model: str, request_id: int,
              attempt: int) -> None:
        self.counters["retries"] += 1
        if self.record_events:
            self._emit({"t": t, "ev": "retry", "model": model,
                        "request": request_id, "attempt": attempt})

    def hedge(self, t: float, model: str, request_id: int,
              replica: int) -> None:
        self.counters["hedges"] += 1
        if self.record_events:
            self._emit({"t": t, "ev": "hedge", "model": model,
                        "request": request_id, "replica": replica})

    def cancel(self, t: float, record, batch_id: int) -> None:
        """A losing duplicate was cancelled before completion."""
        self.counters["cancels"] += 1
        if self.record_events:
            self._emit({"t": t, "ev": "cancel", "model": record.model,
                        "size": record.size, "replica": record.replica,
                        "batch": batch_id})

    def degrade(self, t: float, model: str, request_id: int) -> None:
        """A request was served on the degraded (discounted) path."""
        self.counters["degraded"] += 1
        if self.record_events:
            self._emit({"t": t, "ev": "degrade", "model": model,
                        "request": request_id})

    def sample(self, t: float, engine) -> None:
        """One metrics-timeline point, read off the live engine state."""
        self.counters["samples"] += 1
        last = self._last_sample
        if last is not None and t > last[0]:
            rate = (self._arrivals - last[1]) / (t - last[0])
        else:
            rate = 0.0
        self._last_sample = (t, self._arrivals)
        window = engine._window
        p95 = (window.percentile(95.0) if window is not None
               and len(window) else None)
        self._emit({
            "t": t, "ev": "sample",
            "queues": {m: len(q) for m, q in engine._queues.items() if q},
            # string keys so a JSONL round trip reproduces the row
            "inflight": {str(r.index): r.backlog
                         for r in engine._replicas if r.pending},
            "in_system": engine._in_system,
            "replicas": sum(1 for r in engine._replicas if r.up),
            "p95_s": p95,
            "rate_rps": rate,
            "energy_j": self._energy,
            "done": self._done,
        })

    # -- views ------------------------------------------------------------
    def events(self) -> list[dict]:
        """The event-trace rows (everything but timeline samples)."""
        return [r for r in self.rows if r["ev"] not in ("sample", "run")]

    def samples(self) -> list[dict]:
        """The metrics-timeline rows."""
        return [r for r in self.rows if r["ev"] == "sample"]

    # -- persistence ------------------------------------------------------
    def save(self, path) -> int:
        """Write the trace as JSONL; returns the row count written.

        Line 1 is a meta header (schema tag + counters); every further
        line is one row.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            handle.write(json.dumps({
                "schema": TRACE_SCHEMA,
                "rows": len(self.rows),
                "counters": self.counters,
            }, sort_keys=True) + "\n")
            for row in self.rows:
                handle.write(json.dumps(row, sort_keys=True) + "\n")
        return len(self.rows)


def load_trace(path) -> tuple[dict, list[dict]]:
    """Read a saved trace back as ``(meta, rows)``.

    Malformed lines are skipped like the run ledger's — a truncated
    tail never poisons the trace.

    Raises:
        ConfigError: when the file is missing or carries no header.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError:
        raise ConfigError(f"no telemetry trace at '{path}'") from None
    meta: Optional[dict] = None
    rows: list[dict] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(data, dict):
            continue
        if meta is None and "schema" in data:
            meta = data
            continue
        if "ev" in data:
            rows.append(data)
    if meta is None:
        raise ConfigError(f"'{path}' is not a telemetry trace "
                          f"(missing schema header)")
    return meta, rows
