"""Seeded, deterministic fault injection for the ingest pipeline.

The paper's collection tier runs unattended on busy clusters, so the
pipeline has to *survive* runtime faults, not merely detect them.  This
package supplies the reproducible chaos that proves it does:

* :mod:`repro.faults.plan` -- :class:`FaultPlan`, a frozen description of
  every injected fault (channel drop/duplicate/reorder/corrupt/truncate/
  jitter, store transient-error/disk-full, worker SIGKILL/stall) plus one
  master seed; :func:`preset_plans` names the degradation-curve presets the
  fault bench sweeps;
* :mod:`repro.faults.channel` -- :class:`FaultyChannel`, a channel decorator
  running every datagram through the seeded fault pipeline;
* :mod:`repro.faults.store` -- :class:`StoreFaultInjector`, raising seeded
  ``sqlite3.OperationalError`` faults through the store's injection hook so
  the retry-with-jitter write paths are exercised for real.

Worker faults need no machinery here: a :class:`WorkerFaultProfile` rides
into the shard worker process
(:class:`~repro.ingest.procworkers.ProcessShardPool`), which kills or stalls
itself at the configured batch count -- and the supervisor heals it.

Everything derives from the plan seed via stable stream tags, so a chaos
failure reproduces from the plan alone.  Wire a plan end to end with the
``fault_plan`` knob on :class:`~repro.core.config.SirenConfig`.
"""

from repro.faults.channel import FaultyChannel
from repro.faults.plan import (
    ChannelFaultProfile,
    FaultPlan,
    StoreFaultProfile,
    WorkerFaultProfile,
    preset_plans,
)
from repro.faults.store import StoreFaultInjector

__all__ = [
    "ChannelFaultProfile",
    "FaultPlan",
    "FaultyChannel",
    "StoreFaultInjector",
    "StoreFaultProfile",
    "WorkerFaultProfile",
    "preset_plans",
]
