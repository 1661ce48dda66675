"""The experiment service: single-flight index, the ``/cache`` routes,
job scheduling, the HTTP job API and its keep-alive framing.

The load-bearing properties under test:

* **single-flight** — concurrent requests for one key coalesce onto a
  single execution, fleet-wide (HTTP jobs and remote runners share one
  index);
* **liveness** — a failed or vanished owner promotes its first waiter;
  dedupe is an optimization, never a deadlock;
* **bit-identity** — a blob published by the service decodes to exactly
  the value a local :class:`~repro.runner.Runner` computes.
"""

import asyncio
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.errors import ServiceError
from repro.runner import ExperimentSpec, FailurePolicy, Point, Runner
from repro.runner.cache import ResultCache, decode_entry, encode_entry
from repro.service import (
    ExperimentService,
    RemoteCache,
    ServiceClient,
    SingleFlightIndex,
)

SQUARE = "tests.runner_points:square"
RECORD = "tests.runner_points:record"
BOOM = "tests.runner_points:boom"
FLAKY = "tests.runner_points:flaky"
KILL = "tests.runner_points:kill_worker"
SLOW = "tests.runner_points:slow_point"

KEY_A = "ab" * 32
KEY_B = "cd" * 32


def grid(fn, xs, experiment="svc", **extra):
    return ExperimentSpec(
        experiment=experiment,
        points=tuple(
            Point(fn=fn, params={"x": x, **extra}) for x in xs
        ),
    )


# -- SingleFlightIndex: the single-flight state machine -----------------


def test_index_single_flight_lifecycle(tmp_path):
    async def scenario():
        index = SingleFlightIndex(ResultCache(tmp_path, salt="s"))
        # First caller owns; a second concurrent caller must wait.
        assert index.reserve(KEY_A, "one") == ("own", None)
        assert index.reserve(KEY_A, "one") == ("own", None)  # idempotent
        assert index.reserve(KEY_A, "two") == ("wait", None)
        waiter = asyncio.ensure_future(index.wait(KEY_A, "two", timeout=5))
        await asyncio.sleep(0)  # park the waiter
        blob = encode_entry(42)
        index.publish(KEY_A, blob, "one")
        assert await waiter == ("hit", blob)
        # Published blobs hit from then on — for everyone.
        assert index.reserve(KEY_A, "three") == ("hit", blob)
        assert index.in_flight() == 0
        c = index.counters
        assert c["reserved"] == 1 and c["coalesced"] == 1
        assert c["published"] == 1 and c["hits"] == 1

    asyncio.run(scenario())


def test_index_release_promotes_first_waiter(tmp_path):
    async def scenario():
        index = SingleFlightIndex(ResultCache(tmp_path, salt="s"))
        assert index.reserve(KEY_A, "owner") == ("own", None)
        assert index.reserve(KEY_A, "heir") == ("wait", None)
        waiter = asyncio.ensure_future(index.wait(KEY_A, "heir", timeout=5))
        await asyncio.sleep(0)
        index.release(KEY_A, "owner")  # owner failed without publishing
        assert await waiter == ("own", None)
        assert index.counters["failed"] == 1
        assert index.counters["promoted"] == 1
        # The promoted waiter now owns the reservation.
        assert index.reserve(KEY_A, "heir") == ("own", None)

    asyncio.run(scenario())


def test_index_wait_timeout_keeps_reservation(tmp_path):
    async def scenario():
        index = SingleFlightIndex(ResultCache(tmp_path, salt="s"))
        index.reserve(KEY_A, "owner")
        index.reserve(KEY_A, "waiter")
        status, blob = await index.wait(KEY_A, "waiter", timeout=0.01)
        assert (status, blob) == ("pending", None)
        # The owner's claim survives a waiter's timeout.
        assert index.reserve(KEY_A, "third") == ("wait", None)

    asyncio.run(scenario())


def test_index_wait_self_promotes_when_owner_vanished(tmp_path):
    async def scenario():
        index = SingleFlightIndex(ResultCache(tmp_path, salt="s"))
        # No reservation, no blob: promote the caller rather than hang.
        assert await index.wait(KEY_A, "me", timeout=5) == ("own", None)
        assert index.counters["promoted"] == 1

    asyncio.run(scenario())


def test_index_release_owner_sweeps_disconnected_client(tmp_path):
    async def scenario():
        index = SingleFlightIndex(ResultCache(tmp_path, salt="s"))
        index.reserve(KEY_A, "conn-1")
        index.reserve(KEY_B, "conn-1")
        index.reserve(KEY_A, "conn-2")
        waiter = asyncio.ensure_future(
            index.wait(KEY_A, "conn-2", timeout=5)
        )
        await asyncio.sleep(0)
        assert index.release_owner("conn-1") == 2
        # The survivor inherits KEY_A; KEY_B's reservation disappears.
        assert await waiter == ("own", None)
        assert index.in_flight() == 1

    asyncio.run(scenario())


# -- the composed service ------------------------------------------------


@pytest.fixture
def service(tmp_path):
    svc = ExperimentService(
        cache=ResultCache(tmp_path / "cache", salt="svc"),
        workers=2,
        policy=FailurePolicy(keep_going=True),
    )
    handle = svc.run_in_thread()
    yield handle
    handle.stop()


def remote(handle, **kwargs):
    kwargs.setdefault("salt", "svc")
    return RemoteCache(handle.base_url, **kwargs)


# -- the /cache routes ---------------------------------------------------


def test_remote_cache_round_trip(service):
    cache = remote(service)
    point = Point(fn=SQUARE, params={"x": 7})
    assert cache.lookup(point) == (False, None)
    cache.store(point, 49)
    assert cache.lookup(point) == (True, 49)
    # A second connection sees the same blob (shared on-disk store).
    other = remote(service)
    assert other.lookup(point) == (True, 49)
    stats = other.server_stats()
    assert stats["published"] == 1
    cache.close()
    other.close()


def test_remote_cache_single_flight_across_clients(service):
    first = remote(service)
    second = remote(service)
    point = Point(fn=SQUARE, params={"x": 3})
    assert first.reserve(point) == ("own", None)
    assert second.reserve(point) == ("wait", None)

    results = []
    parked = threading.Thread(
        target=lambda: results.append(second.wait_for(point, timeout=10))
    )
    parked.start()
    first.store(point, 9)  # publish wakes the parked waiter
    parked.join(timeout=10)
    assert results == [("hit", 9)]
    assert first.server_stats()["coalesced"] == 1
    first.close()
    second.close()


def test_disconnect_promotes_waiter(service):
    doomed = remote(service)
    survivor = remote(service)
    point = Point(fn=SQUARE, params={"x": 5})
    assert doomed.reserve(point) == ("own", None)
    assert survivor.reserve(point) == ("wait", None)
    doomed.close()  # dead client: server sweeps its reservations
    status, value = survivor.wait_for(point, timeout=10)
    assert (status, value) == ("own", None)
    survivor.close()


# -- Runner over RemoteCache --------------------------------------------


def test_serial_runner_over_remote_cache(service, tmp_path):
    log = tmp_path / "log"
    spec = grid(RECORD, range(4), log=str(log))
    cache = remote(service)
    first = Runner(jobs=1, cache=cache).run(spec)
    assert first.values == [0, 10, 20, 30]
    assert first.cache_misses == 4 and first.cache_hits == 0

    second = Runner(jobs=1, cache=remote(service)).run(spec)
    assert second.values == first.values
    assert second.cache_hits == 4 and second.cache_misses == 0
    # Hits never re-execute: one log line per unique point.
    assert len(log.read_text().splitlines()) == 4
    cache.close()


@pytest.mark.parametrize("jobs", [1, 2])
def test_concurrent_runners_pay_once_per_unique_point(service, tmp_path, jobs):
    """Two overlapping sweeps, two processesworth of runners, one
    execution per unique key — the tentpole guarantee."""
    log = tmp_path / "log"
    spec_a = grid(RECORD, range(0, 6), log=str(log))
    spec_b = grid(RECORD, range(3, 9), log=str(log))
    reports = {}

    def sweep(name, spec):
        runner = Runner(
            jobs=jobs, cache=remote(service), wait_timeout=60.0
        )
        reports[name] = runner.run(spec)

    threads = [
        threading.Thread(target=sweep, args=("a", spec_a)),
        threading.Thread(target=sweep, args=("b", spec_b)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert reports["a"].values == [x * 10 for x in range(0, 6)]
    assert reports["b"].values == [x * 10 for x in range(3, 9)]
    # 12 points submitted, 9 unique: exactly 9 executions fleet-wide.
    executed = sorted(int(line) for line in log.read_text().splitlines())
    assert executed == list(range(9))
    stats = service.stats()
    assert stats["published"] == 9
    assert stats["in_flight"] == 0  # all reservations settled
    # The 3 overlapping points came back cached (a deduped wait counts
    # as a cache hit too — deduped_hits is the subset that parked).
    overlap_savings = reports["a"].cache_hits + reports["b"].cache_hits
    assert overlap_savings == 3
    assert (
        reports["a"].deduped_hits + reports["b"].deduped_hits
        <= overlap_savings
    )


def test_wait_timeout_takeover_recomputes_locally(service, tmp_path):
    """An abandoned reservation cannot wedge a sweep: the waiter takes
    the point over after wait_timeout and publishes itself."""
    log = tmp_path / "log"
    point = Point(fn=RECORD, params={"x": 1, "log": str(log)})
    squatter = remote(service)
    assert squatter.reserve(point) == ("own", None)  # never publishes

    report = Runner(
        jobs=1, cache=remote(service), wait_timeout=0.2
    ).run(ExperimentSpec(experiment="svc", points=(point,)))
    assert report.values == [10]
    assert log.read_text().splitlines() == ["1"]
    squatter.close()


# -- the HTTP job API ----------------------------------------------------


def test_jobs_end_to_end_bit_identical_to_local(service, tmp_path):
    client = ServiceClient(service.base_url)
    spec_a = grid(SQUARE, range(0, 8))
    spec_b = grid(SQUARE, range(4, 12))
    job_a = client.submit_spec(spec_a)
    job_b = client.submit_spec(spec_b)
    manifest_a = client.wait(job_a, timeout=120)
    manifest_b = client.wait(job_b, timeout=120)
    assert manifest_a["status"] == "done"
    assert manifest_b["status"] == "done"
    assert manifest_a["completed"] == 8 and manifest_b["completed"] == 8
    # 16 points submitted, 12 unique: every unique point paid for once.
    assert manifest_a["executed"] + manifest_b["executed"] == 12
    savings = (
        manifest_a["cache_hits"] + manifest_a["deduped"]
        + manifest_b["cache_hits"] + manifest_b["deduped"]
    )
    assert savings == 4
    assert service.stats()["published"] == 12

    # Bit-identity: the service's blobs decode to the local values.
    local = Runner(
        jobs=1, cache=ResultCache(tmp_path / "local", salt="local")
    ).run(spec_a)
    assert client.values(job_a) == local.values == [
        x * x for x in range(8)
    ]

    listed = {job["id"]: job for job in client.jobs()}
    assert listed[job_a]["status"] == "done"
    assert listed[job_b]["total"] == 8


def test_events_stream_replays_full_lifecycle(service):
    client = ServiceClient(service.base_url)
    job_id = client.submit_spec(grid(SQUARE, range(3)))
    client.wait(job_id, timeout=120)
    events = list(client.events(job_id))
    kinds = [e["event"] for e in events]
    assert kinds[0] == "job-queued"
    assert kinds[-1] == "job-end"
    assert "job-start" in kinds
    completes = [e for e in events if e["event"] == "point-complete"]
    assert len(completes) == 3
    # The wire schema is the progress module's JSON-lines record.
    for record in completes:
        assert set(record) >= {
            "experiment", "index", "total", "label", "cached",
            "deduped", "attempts", "seconds",
        }
    # Dispatches carry the runner's fields: one chunk per point.
    dispatches = [e for e in events if e["event"] == "dispatch"]
    assert sorted(e["indices"] for e in dispatches) == [[0], [1], [2]]
    for record in dispatches:
        assert record["mode"] == "pool"
        assert not {"index", "attempt"} & set(record)
    end = events[-1]
    assert end["status"] == "done" and end["executed"] == 3


def test_live_events_stream_closes_after_job_end(service):
    # Follow the FIRST job on a fresh service while it runs.  Worker
    # processes must never hold a duplicate of the stream's socket
    # (plain fork at dispatch time would), or the client blocks waiting
    # for EOF after ``job-end`` until its read timeout instead of the
    # stream ending; a short client timeout turns that hang into a
    # TimeoutError failure here.
    client = ServiceClient(service.base_url, timeout=10.0)
    job_id = client.submit_spec(grid(SQUARE, range(3)))
    events = list(client.events(job_id))
    assert events[-1]["event"] == "job-end"
    assert events[-1]["status"] == "done"


def test_job_failure_path_keeps_going(service):
    client = ServiceClient(service.base_url)
    spec = ExperimentSpec(experiment="svc", points=(
        Point(fn=BOOM, params={"x": 1}),
        Point(fn=SQUARE, params={"x": 4}),
    ))
    job_id = client.submit_spec(spec)
    manifest = client.wait(job_id, timeout=120)
    assert manifest["status"] == "failed"
    assert manifest["failed"] == 1 and manifest["completed"] == 2
    rows = manifest["points"]
    assert rows[0]["status"] == "failed"
    assert "boom" in rows[0]["message"]
    assert rows[1]["status"] == "ok"
    assert client.point_value(job_id, 1) == 16
    with pytest.raises(ServiceError, match="no published result"):
        client.point_value(job_id, 0)
    # A failed owner releases its reservation — nothing left in flight.
    assert service.stats()["in_flight"] == 0


def test_job_retries_a_failing_point(service, tmp_path):
    client = ServiceClient(service.base_url)
    spec = ExperimentSpec(experiment="svc", points=(
        Point(fn=FLAKY, params={
            "x": 1, "counter": str(tmp_path / "counter"), "fail_times": 1,
        }),
    ))
    job_id = client.submit_spec(spec, retries=1)
    manifest = client.wait(job_id, timeout=120)
    assert manifest["status"] == "done"
    (row,) = manifest["points"]
    assert row["status"] == "ok" and row["attempts"] == 2
    assert client.point_value(job_id, 0) == 100
    (retry,) = [e for e in client.events(job_id) if e["event"] == "retry"]
    assert retry["error"] == "ValueError"
    assert (retry["index"], retry["attempt"]) == (0, 1)
    client.close()


def kill_grid(tmp_path, squares=()):
    """A ``kill_worker`` point (it kills its worker once) plus squares."""
    return ExperimentSpec(experiment="svc", points=(
        Point(fn=KILL, params={"x": 1, "tripwire": str(tmp_path / "trip")}),
        *(Point(fn=SQUARE, params={"x": x}) for x in squares),
    ))


def test_job_survives_a_killed_worker(service, tmp_path):
    client = ServiceClient(service.base_url)
    job_id = client.submit_spec(kill_grid(tmp_path, (2, 3)), retries=1)
    manifest = client.wait(job_id, timeout=120)
    assert manifest["status"] == "done"
    rows = manifest["points"]
    assert [row["status"] for row in rows] == ["ok"] * 3
    # A square in flight on the other worker when the pool broke is
    # charged a crash attempt too, so only the killed point's count is
    # fixed.
    assert rows[0]["attempts"] == 2
    assert client.values(job_id) == [1000, 4, 9]
    assert client.stats()["jobs"]["pool_respawns"] == 1
    client.close()


def test_job_records_a_worker_crash_without_retries(service, tmp_path):
    client = ServiceClient(service.base_url)
    job_id = client.submit_spec(kill_grid(tmp_path), retries=0)
    manifest = client.wait(job_id, timeout=120)
    assert manifest["status"] == "failed"
    (row,) = manifest["points"]
    assert row["status"] == "failed" and row["attempts"] == 1
    assert row["error"] == "WorkerCrashError"
    assert "pool worker died" in row["message"]
    assert service.stats()["in_flight"] == 0
    client.close()


@pytest.fixture
def strict_service(tmp_path):
    """A service whose own policy retries twice and times points out."""
    svc = ExperimentService(
        cache=ResultCache(tmp_path / "cache", salt="svc"),
        workers=2,
        policy=FailurePolicy(retries=2, timeout=0.5),
    )
    handle = svc.run_in_thread()
    yield handle
    handle.stop()


def test_job_naming_only_retries_keeps_the_server_timeout(strict_service):
    client = ServiceClient(strict_service.base_url)
    spec = ExperimentSpec(experiment="svc", points=(
        Point(fn=SLOW, params={"x": 1, "seconds": 1.5}),
    ))
    job_id = client.submit_spec(spec, retries=0)
    manifest = client.wait(job_id, timeout=120)
    (row,) = manifest["points"]
    assert row["status"] == "failed" and row["attempts"] == 1
    assert row["error"] == "PointTimeoutError"
    client.close()


def test_job_naming_only_timeout_keeps_the_server_retries(
    strict_service, tmp_path
):
    client = ServiceClient(strict_service.base_url)
    spec = ExperimentSpec(experiment="svc", points=(
        Point(fn=FLAKY, params={
            "x": 1, "counter": str(tmp_path / "counter"), "fail_times": 2,
        }),
    ))
    job_id = client.submit_spec(spec, timeout=30.0)
    manifest = client.wait(job_id, timeout=120)
    assert manifest["status"] == "done"
    (row,) = manifest["points"]
    assert row["status"] == "ok" and row["attempts"] == 3
    client.close()


def test_driver_submission_and_api_errors(service):
    client = ServiceClient(service.base_url)
    with pytest.raises(ServiceError, match="unknown driver"):
        client.submit_driver("not-a-driver")
    with pytest.raises(ServiceError, match="HTTP 404"):
        client.job("job-999")
    with pytest.raises(ServiceError, match="'spec' or 'driver'"):
        client.submit_job({})

    status, body = client._request("POST", "/jobs", payload=None)
    # An empty body is "{}": missing spec/driver, not a parse error.
    assert status == 400

    raw = urllib.request.Request(
        service.base_url + "/jobs",
        data=b"not json",
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        urllib.request.urlopen(raw, timeout=10)
        raised = None
    except urllib.error.HTTPError as exc:
        raised = exc.code
        detail = json.loads(exc.read())
    assert raised == 400 and "malformed" in detail["error"]

    delete = urllib.request.Request(
        service.base_url + "/jobs", method="DELETE"
    )
    try:
        urllib.request.urlopen(delete, timeout=10)
        raised = None
    except urllib.error.HTTPError as exc:
        raised = exc.code
    assert raised == 405

    health = json.loads(
        urllib.request.urlopen(
            service.base_url + "/healthz", timeout=10
        ).read()
    )
    assert health == {"status": "ok"}


def test_decode_entry_round_trips_point_blob(service):
    """The /points/<i> blob is the cache's entry framing, verbatim."""
    client = ServiceClient(service.base_url)
    job_id = client.submit_spec(grid(SQUARE, [6]))
    client.wait(job_id, timeout=120)
    manifest = client.job(job_id)
    key = manifest["keys"][0]
    blob = urllib.request.urlopen(
        f"{service.base_url}/jobs/{job_id}/points/0", timeout=10
    ).read()
    assert decode_entry(blob) == 36
    # The on-disk entry is byte-identical to what the route served.
    on_disk = service.service.cache.lookup_blob(key)
    assert on_disk == blob


# -- keep-alive framing and key validation -------------------------------


def raw_connection(handle):
    sock = socket.create_connection(handle.http_address, timeout=10)
    return sock, sock.makefile("rb")


def read_reply(stream):
    """``(status, headers, body)`` of one Content-Length response."""
    status = int(stream.readline().split()[1])
    headers = {}
    while True:
        line = stream.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers.get("content-length", "0")))
    return status, headers, body


@pytest.mark.parametrize("key", [
    "..", "../../escaped", "..%2F..%2Fescaped", "AB" * 32, "ab" * 31,
])
def test_cache_routes_refuse_non_hash_keys(service, key):
    connection = ServiceClient(service.base_url).connection
    for method, path, body in (
        ("PUT", f"/cache/{key}", encode_entry(1)),
        ("GET", f"/cache/{key}", b""),
        ("POST", f"/cache/{key}/reserve", b""),
        ("POST", f"/cache/{key}/wait?timeout=0", b""),
        ("POST", f"/cache/{key}/release", b""),
    ):
        status, headers, reply = connection.request(method, path, body)
        assert status == 400, (method, path)
        assert "64 lowercase hex" in json.loads(reply)["error"]
        assert "x-cache-status" not in headers
    connection.close()
    # Nothing reached the index or the disk, inside the root or out.
    stats = service.stats()
    assert stats["hits"] == stats["misses"] == stats["published"] == 0
    cache = service.service.cache
    assert not cache.path_for_key(key).resolve().exists()
    assert not (cache.root.parent.parent / "escaped.pkl").exists()


@pytest.mark.parametrize("request_bytes, status", [
    (b"NOT-HTTP\r\n\r\n", 400),
    (b"GET /healthz HTTP/1.1 extra\r\n\r\n", 400),
    (b"POST /jobs HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
    (b"POST /jobs HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
    (b"POST /jobs HTTP/1.1\r\nContent-Length: 16777217\r\n\r\n", 413),
])
def test_framing_errors_answer_and_close(service, request_bytes, status):
    sock, stream = raw_connection(service)
    # A well-formed request first: the error must close a live
    # keep-alive connection, not just a fresh one.
    sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
    assert read_reply(stream)[0] == 200
    sock.sendall(request_bytes)
    answered, headers, body = read_reply(stream)
    assert answered == status
    assert headers["connection"] == "close"
    assert "error" in json.loads(body)
    assert stream.read() == b""  # EOF: the stream position is unknown
    stream.close()
    sock.close()


def test_keep_alive_serves_requests_until_close(service):
    sock, stream = raw_connection(service)
    for _ in range(2):
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        status, headers, body = read_reply(stream)
        assert status == 200 and json.loads(body) == {"status": "ok"}
        assert "connection" not in headers
    sock.sendall(
        b"GET /stats HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    status, headers, body = read_reply(stream)
    assert status == 200 and "cache" in json.loads(body)
    assert headers["connection"] == "close"
    assert stream.read() == b""
    stream.close()
    sock.close()


def test_dropped_waiter_is_swept_not_promoted(service):
    owner = remote(service)
    point = Point(fn=SQUARE, params={"x": 11})
    key = owner.key_for(point)
    assert owner.reserve(point) == ("own", None)
    index = service.service.index

    def waiters():
        return service.call(
            lambda: len(index._reservations[key].waiters)
        )

    def settle(expected):
        deadline = time.monotonic() + 10
        while waiters() != expected:
            assert time.monotonic() < deadline, f"waiters != {expected}"
            time.sleep(0.01)

    sock, stream = raw_connection(service)
    sock.sendall(
        f"POST /cache/{key}/reserve HTTP/1.1\r\nHost: t\r\n\r\n".encode()
    )
    assert read_reply(stream)[1]["x-cache-status"] == "wait"
    sock.sendall(
        f"POST /cache/{key}/wait?timeout=60 HTTP/1.1\r\n"
        f"Host: t\r\n\r\n".encode()
    )
    settle(1)  # parked on the long poll
    stream.close()
    sock.close()
    settle(0)  # swept on hang-up, long before the wait's timeout
    owner.release(point)
    stats = service.stats()
    assert stats["failed"] == 1
    assert stats["promoted"] == 0  # nobody inherited the key
    assert stats["in_flight"] == 0
    owner.close()


# -- the `repro serve` process -------------------------------------------


def _descendants(pid: int) -> list[int]:
    """*pid*'s live descendants, from ``/proc/<pid>/task/<pid>/children``."""
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        try:
            with open(f"/proc/{parent}/task/{parent}/children") as fh:
                children = [int(child) for child in fh.read().split()]
        except OSError:
            continue
        found += children
        frontier += children
    return found


def _running(pid: int) -> bool:
    """Whether *pid* exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
    reason="needs /proc/<pid>/task/<pid>/children",
)
def test_serve_stops_cleanly_on_sigterm(tmp_path):
    """SIGTERM (how CI stops a backgrounded server) shuts the worker
    pool down: the server exits 0 and leaves no forkserver,
    resource_tracker or pool worker behind."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1", "--cache-dir", str(tmp_path / "cache")],
        stderr=subprocess.PIPE, text=True, env=env,
    )
    children: list[int] = []
    try:
        deadline = time.monotonic() + 60
        while True:
            ready, _w, _x = select.select([proc.stderr], [], [], 1.0)
            assert time.monotonic() < deadline, "server never came up"
            if not ready:
                continue
            line = proc.stderr.readline()
            assert line, f"server exited early ({proc.wait()})"
            if line.startswith("serving"):
                break
        children = _descendants(proc.pid)
        assert children, "the warm pool spawned no process"

        proc.send_signal(signal.SIGTERM)
        _out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        assert "service stopped" in err

        deadline = time.monotonic() + 15
        while any(map(_running, children)):
            assert time.monotonic() < deadline, (
                f"left running: {[p for p in children if _running(p)]}"
            )
            time.sleep(0.1)
    finally:
        for pid in [proc.pid, *children]:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
        proc.wait()
