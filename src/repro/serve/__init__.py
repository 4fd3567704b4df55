"""repro.serve — the campaign execution service.

The one dispatcher of ``AttackCampaign.run`` / ``PlacementSweep.run``: a
run without ``service=`` starts a one-run service (``workers=N`` forked
workers, or the in-process inline executor at ``workers=1``).  A
persistent, fault-tolerant service serves many runs instead: register
the campaigns and sweeps, start the service once, and every subsequent
run is scheduled as chunk- or scenario-level jobs over an async queue,
with large arrays moving through per-worker shared-memory rings instead
of pickle.  Serial, pooled and service-scheduled runs produce
byte-identical merged tables and store frames.

::

    from repro.serve import CampaignService, ServiceConfig

    service = CampaignService(ServiceConfig(workers=2))
    service.register("aes", campaign)
    with service:
        result = service.run("aes", trace_count=2000,
                             streaming=True, chunk_size=250)

See :mod:`repro.serve.scheduler` for the execution model and the
determinism / fault-tolerance invariants, :mod:`repro.serve.shm` for the
transport, and ``python -m repro.serve`` for a self-contained demo.
"""

from .jobs import ChunkJob, FramePayload, RunSpec, ScenarioJob, SweepJob
from .pool import FaultInjection
from .scheduler import CampaignService, ServeError, ServiceConfig
from .shm import ShmRing, SlotPayload

__all__ = [
    "CampaignService",
    "ChunkJob",
    "FaultInjection",
    "FramePayload",
    "RunSpec",
    "ScenarioJob",
    "ServeError",
    "ServiceConfig",
    "ShmRing",
    "SlotPayload",
    "SweepJob",
]
