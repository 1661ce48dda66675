"""repro.service: the long-running experiment service.

Many clients submitting overlapping grids collectively pay for each
unique point **once**, fleet-wide.  Three cooperating layers, all on one
asyncio event loop, all stdlib-only:

* :mod:`repro.service.singleflight` — :class:`SingleFlightIndex`, an
  in-process single-flight index over the on-disk
  :class:`~repro.runner.cache.ResultCache` (same keys, same blobs).
  ``reserve`` makes exactly one caller the
  executor of a missing key; everyone else awaits the published blob.
* :mod:`repro.service.cacheserver` / :mod:`repro.service.cacheclient` —
  the index exposed over a local socket as newline-delimited JSON
  frames, and :class:`RemoteCache`, the synchronous client that plugs
  into :class:`~repro.runner.Runner` as a drop-in cache so *external*
  runner processes join the same single-flight domain.
* :mod:`repro.service.jobs` — :class:`JobManager`, the fair-share /
  work-stealing scheduler that fans all jobs' points over one shared
  warm process pool, reusing the executor's retry / timeout / respawn
  primitives unchanged.
* :mod:`repro.service.http` + :mod:`repro.service.server` — the minimal
  HTTP/JSON job API (``POST /jobs``, ``GET /jobs/<id>``, JSON-lines
  ``/events``) and :class:`ExperimentService`, which composes the lot.
* :mod:`repro.service.client` — :class:`ServiceClient`, the urllib-based
  caller the CLI's ``repro submit`` / ``repro jobs`` use.
"""

from repro.service.cacheclient import RemoteCache
from repro.service.cacheserver import CacheServer
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import Job, JobManager
from repro.service.server import ExperimentService, ServiceHandle
from repro.service.singleflight import SingleFlightIndex

__all__ = [
    "CacheServer",
    "ExperimentService",
    "Job",
    "JobManager",
    "RemoteCache",
    "ServiceClient",
    "ServiceError",
    "ServiceHandle",
    "SingleFlightIndex",
]
