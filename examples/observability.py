"""Observe a serving run end to end: telemetry -> blocks -> report.

Attaches a :class:`Telemetry` sink to an autoscaled diurnal run and
pulls the story out of the trace: what the control plane did (flush
causes, scale actions), how the timeline evolved (in-system requests,
arrival rate, replicas), then feeds the same rows through the
``repro.eval.blocks`` pipeline and finishes by building the fleet
report — the JSON/HTML artefact ``repro report`` emits — from the
committed bench history plus this fresh trace.

Run:  python examples/observability.py
"""

from repro.eval import render_rows
from repro.eval.blocks import AggregateBlock, FilterBlock, Pipeline, \
    load_bench
from repro.eval.dashboard import build_report, render_html
from repro.serving import (
    ReactiveScalePolicy,
    ServingSimulator,
    Telemetry,
    make_policy,
    make_scale,
)


def main() -> None:
    # -- 1. a traced, autoscaled run ---------------------------------
    telemetry = Telemetry(tick=200e-6)
    cluster = ServingSimulator(
        "SMART", replicas=1, policy=make_policy("timeout"),
        autoscale=make_scale("holt", ReactiveScalePolicy(
            min_replicas=1, max_replicas=6)),
        telemetry=telemetry,
    )
    result = cluster.run_scenario("diurnal", n_requests=5_000, seed=7)
    print(f"served {len(result.requests)} requests, "
          f"p99 {result.latency_percentile(99) * 1e6:.0f}us, "
          f"peak {result.peak_replicas} replicas")

    counters = telemetry.counters
    print(f"trace: {counters['arrivals']} arrivals, "
          f"{counters['flushes']} flushes, "
          f"{counters['scale_ups']} scale-ups, "
          f"{counters['samples']} timeline samples")

    # -- 2. interrogate the event trace with blocks ------------------
    flush_causes = Pipeline([
        FilterBlock("ev", "flush"),
        AggregateBlock(by=("cause",),
                       metrics={"batches": ("ev", "count"),
                                "mean_size": ("size", "mean")}),
    ]).apply(telemetry.rows)
    print("\nwhy batches left their queues:")
    print(render_rows(flush_causes))

    busiest = Pipeline([
        FilterBlock("ev", "sample"),
        AggregateBlock(by=(), metrics={
            "peak_in_system": ("in_system", "max"),
            "peak_rate_rps": ("rate_rps", "max"),
            "energy_j": ("energy_j", "last")}),
    ]).apply(telemetry.rows)
    print("timeline peaks:")
    print(render_rows(busiest))

    # -- 3. the fleet report -----------------------------------------
    trace_rows = [dict(r, trace="diurnal-holt") for r in telemetry.rows]
    report = build_report(load_bench("BENCH_serving.json"),
                          telemetry_rows=trace_rows)
    for cell in report["bench"]["cells"]:
        print(f"bench {cell['cell']}: latest {cell['latest_rps']:.0f} "
              f"rps ({cell['delta_pct']:+.1f}% vs median of last "
              f"{report['window']})")
    with open("observability-report.html", "w") as handle:
        handle.write(render_html(report))
    print("\nwrote observability-report.html "
          "(same artefact as `repro report`)")


if __name__ == "__main__":
    main()
