"""Chaos layer: deterministic fault injection and recovery policies.

Everything needed to make failure a routine, *replayable* event:

* :class:`FaultPlan` / :class:`FaultInjector` — a serializable fault
  schedule whose every decision comes from named, seeded PRNG streams
  (:mod:`repro.chaos.plan`);
* :class:`ChaosTransport` / :class:`ChaosChannel` /
  :class:`ChaosCheckpointStore` — wrappers that inject the plan's
  faults into any transport or store (:mod:`repro.chaos.wrappers`),
  armed by the ``fault_injector`` of the service and of the client SDK;
* :class:`RetryPolicy` — backoff/jitter/deadline/classification used by
  the client SDK's reconnect machinery (:mod:`repro.chaos.retry`);
* :class:`Supervisor` — the ``repro supervise`` restart loop with a
  crash-loop circuit breaker (:mod:`repro.chaos.supervisor`).
"""

from repro.chaos.plan import (
    CRASH_PHASES,
    FaultInjector,
    FaultPlan,
    ProcessFaults,
    StoreFaults,
    TransportFaults,
)
from repro.chaos.retry import RetryPolicy
from repro.chaos.supervisor import GIVE_UP_EXIT, Supervisor, supervise_serve
from repro.chaos.wrappers import (
    ChaosChannel,
    ChaosCheckpointStore,
    ChaosTransport,
)

__all__ = [
    "CRASH_PHASES",
    "FaultInjector",
    "FaultPlan",
    "ProcessFaults",
    "StoreFaults",
    "TransportFaults",
    "RetryPolicy",
    "GIVE_UP_EXIT",
    "Supervisor",
    "supervise_serve",
    "ChaosChannel",
    "ChaosCheckpointStore",
    "ChaosTransport",
]
