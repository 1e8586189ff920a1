"""Dynamic batching policies for the serving simulator.

Requests for the *same* model queue together (a systolic batch shares
one weight deployment, so cross-model batching is meaningless); a
policy decides when a queue flushes into one accelerator batch:

- **fixed**: flush exactly every ``batch_size`` requests — maximum
  throughput, unbounded tail latency under light traffic;
- **timeout**: flush at ``max_batch`` requests *or* once the oldest
  queued request has waited ``max_wait`` seconds — the knob real
  serving stacks (Triton/TF-Serving style) expose.

Policies are pure decision objects; the discrete-event engine in
:mod:`repro.serving.events` owns the queues and the clock.  A policy
answers two things:

- ``max_batch``, the size rule: a queue flushes whole the moment it
  holds that many requests (the engine tests the length itself; no
  policy is asked);
- ``deadline(queue)``, the latest instant a non-empty queue may keep
  waiting, or None for forever.  It may depend only on the queue's
  head (its oldest request), so the engine asks once per queue fill
  and at the end-of-trace drain.  A queue whose head has a deadline
  flushes at that exact instant; deadline-less queues drain once at
  the end of the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import ConfigError
from repro.serving.workload import Request


@dataclass(frozen=True)
class FixedSizeBatching:
    """Flush a model queue whenever it holds ``batch_size`` requests.

    No deadline: a queue short of ``batch_size`` waits until the
    end-of-trace drain.
    """

    batch_size: int = 8

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")

    name = "fixed"

    @property
    def max_batch(self) -> int:
        """Largest batch this policy ever emits."""
        return self.batch_size

    def deadline(self, queue: Sequence[Request]) -> Optional[float]:
        """Latest instant the queue may keep waiting (None = forever)."""
        return None


@dataclass(frozen=True)
class TimeoutBatching:
    """Flush at ``max_batch`` requests or after ``max_wait`` seconds.

    The deadline is the head's arrival plus ``max_wait``: it reads
    ``queue[0]`` only, as the head-only contract requires.
    """

    max_batch: int = 8
    max_wait: float = 200e-6

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigError("batch size must be >= 1")
        if self.max_wait <= 0:
            raise ConfigError("batching timeout must be positive")

    name = "timeout"

    def deadline(self, queue: Sequence[Request]) -> Optional[float]:
        """The oldest request's arrival plus the wait budget."""
        if not queue:
            return None
        return queue[0].arrival + self.max_wait


#: Policy factories by CLI name.
POLICIES = {
    "fixed": FixedSizeBatching,
    "timeout": TimeoutBatching,
}


def make_policy(name: str, batch_size: int = 8,
                max_wait: float = 200e-6):
    """Build a policy from its CLI name.

    Raises:
        ConfigError: for unknown policy names.
    """
    if name == "fixed":
        return FixedSizeBatching(batch_size=batch_size)
    if name == "timeout":
        return TimeoutBatching(max_batch=batch_size, max_wait=max_wait)
    raise ConfigError(
        f"unknown batching policy '{name}'; known: {', '.join(POLICIES)}"
    )
