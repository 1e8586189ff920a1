"""Generated differential tests of the serving engine's exactness contract.

Hypothesis draws small serving cells over toy networks: arrival gaps
from a handful of values (zero included, so exact ties occur), one or
two models, fixed, timeout or even-head batching, 1-3 replicas on any
stock dispatch, and optionally an SLO with a shed depth, queue or p95
reactive scaling, a failure plan and one resilience policy: deadline
retries, hedging or degradation.  Hedge delays and deadlines sit
below a toy batch's service time, so duplicates really launch and a
winner cancels its loser, often while the loser heads its replica's
schedule.  Every cell is served three ways, which must agree exactly:

- the optimised engine over a materialised tuple;
- the same engine over a one-pass iterator pinned to the trace's span;
- the retained reference engine (``repro.serving.reference``).

None of the three may change a request: ``Request`` is read-only by
convention only (a slots dataclass, not a frozen one), so every drawn
request's fields are snapshotted and compared after the runs.  Every
run also conserves requests: each id is answered or shed, never both
and never twice, no energy is negative, and no queue or armed flush
deadline outlives the run.

Batching draws include :class:`EvenHeadBatching`, whose deadline comes
and goes with the head, and one fixed cell pins the case where it
goes: a flush armed for an earlier head must not fire for a head
without a deadline.

Run with ``--hypothesis-show-statistics`` to see how often the drawn
cells scaled, shed, re-dispatched, retried, hedged, degraded,
cancelled and carried arrival ties.
"""

from dataclasses import astuple

from hypothesis import event, given, settings, strategies as st

from repro.core import make_smart
from repro.serving import (
    DISPATCH_STRATEGIES,
    DegradePolicy,
    FailurePlan,
    FixedSizeBatching,
    HedgePolicy,
    LayerMemoCache,
    ReactiveScalePolicy,
    RetryPolicy,
    ServingSimulator,
    SloPolicy,
    TimeoutBatching,
)
from repro.serving.reference import run_reference
from repro.serving.workload import Request
from repro.systolic.layers import ConvLayer, Network

# one batch of "toy" serves in ~0.23-0.41 us, of "toy2" in ~0.07-0.24 us
TOY = Network("toy", (
    ConvLayer("c1", 16, 16, 8, 16, 3, 3, padding=1),
    ConvLayer("c2", 16, 16, 16, 16, 3, 3, padding=1),
    ConvLayer("fc", 1, 1, 4096, 10, 1, 1, kind="fc"),
))
TOY2 = Network("toy2", TOY.layers[:2])
NETWORKS = {"toy": TOY, "toy2": TOY2}
ACCELERATOR = make_smart()
#: Layer simulations are identical across draws; one memo serves all.
SHARED = LayerMemoCache()
GAPS = tuple(k * 1e-7 for k in (0, 1, 2, 5, 20))


@st.composite
def traces(draw):
    """A time-ordered trace of up to 60 requests over one or two models."""
    models = draw(st.sampled_from((("toy",), ("toy", "toy2"))))
    n = draw(st.integers(1, 60))
    steps = draw(st.lists(
        st.tuples(st.sampled_from(GAPS), st.sampled_from(models)),
        min_size=n, max_size=n))
    arrival, trace = 0.0, []
    for request_id, (gap, model) in enumerate(steps):
        arrival += gap
        trace.append(Request(request_id, model, arrival))
    return tuple(trace)


class EvenHeadBatching(TimeoutBatching):
    """Timeout batching that waits behind even-id heads only.

    An odd-id head has no deadline, so its queue leaves by the size
    rule or the end-of-trace drain.  The deadline reads only the head,
    as the batching contract requires.
    """

    def deadline(self, queue):
        if queue and queue[0].request_id % 2:
            return None
        return super().deadline(queue)


_TIMEOUTS = {"max_batch": st.integers(1, 4),
             "max_wait": st.sampled_from((1e-7, 5e-7, 2e-6))}
BATCHING = st.one_of(
    st.builds(FixedSizeBatching, batch_size=st.integers(1, 4)),
    st.builds(TimeoutBatching, **_TIMEOUTS),
    st.builds(EvenHeadBatching, **_TIMEOUTS),
)
SLOS = st.none() | st.builds(
    SloPolicy, target=st.sampled_from((5e-7, 2e-6)),
    shed_depth=st.none() | st.integers(1, 8))
_SCALE_TIMING = {"tick": st.just(5e-7),
                 "warmup": st.sampled_from((0.0, 1e-6)),
                 "cooldown": st.sampled_from((0.0, 1e-6)),
                 "max_replicas": st.integers(1, 4)}
SCALES = st.none() | st.builds(
    ReactiveScalePolicy, high_queue=st.integers(2, 6),
    low_queue=st.integers(0, 1), **_SCALE_TIMING,
) | st.builds(
    ReactiveScalePolicy, metric=st.just("p95"),
    target_p95=st.sampled_from((3e-7, 1e-6)),
    window=st.integers(1, 16), **_SCALE_TIMING,
)
FAILURES = st.none() | st.builds(
    FailurePlan, count=st.integers(1, 3),
    downtime_frac=st.sampled_from((0.1, 0.3)), seed=st.integers(0, 3))
# deadlines and hedge delays below a toy batch's service time, so
# retries, hedges and degraded rescues really fire; degrade without a
# timeout (0 with no SLO) runs on shed rescue alone
RESILIENCE = st.none() | st.builds(
    RetryPolicy, timeout_us=st.sampled_from((0.1, 0.2, 0.3)),
    budget=st.integers(1, 2), backoff_us=st.sampled_from((0.0, 0.05)),
    seed=st.integers(0, 3),
) | st.builds(
    HedgePolicy, delay_us=st.sampled_from((0.05, 0.1, 0.2)),
) | st.builds(
    DegradePolicy, timeout_us=st.sampled_from((0.0, 0.1, 0.3)),
    service_scale=st.sampled_from((0.5, 1.0)),
    energy_scale=st.sampled_from((0.5, 1.0)),
)
CELLS = st.fixed_dictionaries({
    "replicas": st.integers(1, 3),
    "dispatch": st.sampled_from(DISPATCH_STRATEGIES),
    "policy": BATCHING,
    "slo": SLOS,
    "autoscale": SCALES,
    "failures": FAILURES,
    "resilience": RESILIENCE,
})


def observables(run):
    """Everything an engine run reports, minus work stealing (the
    reference does not implement it and no cell draws it).  ``done``
    is compared as a list, so completion order must match too: a
    partition adds its energy in that order."""
    return (list(run.done.items()), run.batches, run.shed,
            run.replica_trace, run.scale_events, run.redispatched,
            run.wasted_energy, run.timeouts, run.retries, run.hedges,
            run.cancels, run.degraded)


def assert_conserved(engine, run, trace):
    """Each request is answered or shed, exactly once, at no negative
    energy, and the engine ends with every queue, armed flush and
    in-flight batch gone."""
    assert len(set(run.shed)) == len(run.shed)
    assert run.done.keys().isdisjoint(run.shed)
    assert run.done.keys() | set(run.shed) == \
        {request.request_id for request in trace}
    assert all(share >= 0 for _, share in run.done.values())
    assert run.wasted_energy >= 0
    assert not any(engine._queues.values())
    assert engine._armed == {}
    assert not engine._inflight


@given(trace=traces(), cell=CELLS)
@settings(max_examples=300, deadline=None)
def test_tuple_stream_and_reference_agree(trace, cell):
    sim = ServingSimulator(ACCELERATOR, networks=NETWORKS, cache=SHARED,
                           **cell)
    span = (trace[0].arrival, trace[-1].arrival)
    drawn = [astuple(request) for request in trace]
    engine = sim.make_engine(NETWORKS)
    materialised = engine.run(trace)
    # every completion and deadline check held off the heap was
    # pushed or dropped with its batch
    assert engine._chained == {} and not engine._checks
    assert_conserved(engine, materialised, trace)
    streamed = sim.make_engine(NETWORKS).run(iter(trace), span=span)
    reference = run_reference(sim, trace)
    expected = observables(materialised)
    assert observables(streamed) == expected
    assert observables(reference) == expected
    assert [astuple(request) for request in trace] == drawn
    for label, hit in (("scaled", materialised.scale_events),
                       ("shed", materialised.shed),
                       ("redispatched", materialised.redispatched),
                       ("retried", materialised.retries),
                       ("hedged", materialised.hedges),
                       ("degraded", materialised.degraded),
                       ("cancelled", materialised.cancels)):
        if hit:
            event(label)
    if len({request.arrival for request in trace}) < len(trace):
        event("arrival ties")


def test_a_head_without_a_deadline_disarms_its_queue():
    """Request 0 arms a flush at 0.5 us, the size rule takes requests
    0-2 before it fires, and odd request 3 heads the queue with no
    deadline: the flush still on the heap is stale, so requests 3-5
    leave together by the size rule, not 3-4 early."""
    trace = tuple(Request(i, "toy", i * 1e-7) for i in range(40))
    sim = ServingSimulator(ACCELERATOR, networks=NETWORKS, cache=SHARED,
                           replicas=1, dispatch="round_robin",
                           policy=EvenHeadBatching(max_batch=3,
                                                   max_wait=5e-7))
    engine = sim.make_engine(NETWORKS)
    run = engine.run(trace)
    assert observables(run) == observables(run_reference(sim, trace))
    assert [batch.size for batch in run.batches[:2]] == [3, 3]
    assert_conserved(engine, run, trace)
