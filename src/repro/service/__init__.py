"""repro.service: the long-running experiment service.

Many clients submitting overlapping grids collectively pay for each
unique point **once**, fleet-wide.  The layers share one asyncio event
loop and use only the stdlib:

* :mod:`repro.service.singleflight` — :class:`SingleFlightIndex`, an
  in-process single-flight index over the on-disk
  :class:`~repro.runner.cache.ResultCache` (same keys, same blobs).
  ``reserve`` makes exactly one caller the
  executor of a missing key; everyone else awaits the published blob.
* :mod:`repro.service.jobs` — :class:`JobManager`, the fair-share /
  work-stealing scheduler that fans all jobs' points over one shared
  warm process pool, reusing the executor's retry / timeout / respawn
  primitives unchanged.
* :mod:`repro.service.http` + :mod:`repro.service.server` — the minimal
  keep-alive HTTP layer on one listener: the job API (``POST /jobs``,
  ``GET /jobs/<id>``, JSON-lines ``/events``) and the index's
  operations as ``/cache/<key>`` routes with raw blob bodies, composed
  by :class:`ExperimentService`.
* :mod:`repro.service.client` — :class:`ServiceClient`, the
  hand-framed HTTP/1.1 caller the CLI's ``repro submit`` /
  ``repro jobs`` use, and :class:`RemoteCache`, the synchronous
  drop-in cache for :class:`~repro.runner.Runner` built on it, so
  *external* runner processes join the same single-flight domain.
"""

from repro.service.client import RemoteCache, ServiceClient, ServiceError
from repro.service.jobs import Job, JobManager
from repro.service.server import ExperimentService, ServiceHandle
from repro.service.singleflight import SingleFlightIndex

__all__ = [
    "ExperimentService",
    "Job",
    "JobManager",
    "RemoteCache",
    "ServiceClient",
    "ServiceError",
    "ServiceHandle",
    "SingleFlightIndex",
]
