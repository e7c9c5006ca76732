#!/usr/bin/env python
"""Scenario harness: real ``fpfa-map serve`` processes against the
single-tile flow.

Every result the service, the fleet and the store hand out must be
bit-identical to what the paper's flow computes in-process:
``fpfa-map map --json`` for one program, a local ``run_sweep`` for a
design-space grid.  The tier-1 suite checks this against in-process
``ServiceThread`` daemons; this harness checks it against real daemon
subprocesses (:class:`~repro.service.subproc.DaemonProcess`), where a
SIGKILL is a real death and every daemon has its own interpreter.

Phases (each prints its checks; a failed check names its phase):

``service``
    8 concurrent clients get the kernel suite bit-identical to
    offline ``map --json``; duplicate submissions add no backend
    runs; a warm resubmit reuses the compiled frontend.
``fleet``
    sharding over two daemons is bit-identical with no local
    fallback and warms the coordinator cache; a daemon SIGKILLed
    mid-sweep and restarted on its port is demoted and readmitted,
    and the sweep stays bit-identical; total fleet loss falls back
    to local evaluation.
``store``
    a bounded LRU sweep leaves ``fsck`` clean; a
    ``--store-max-entries`` daemon holds its bound and reports the
    same evictions in ``/stats`` and ``/metrics``; a prewarmed peer
    serves its records instead of the fleet recomputing them.
``obs``
    ``/metrics`` parses strictly and agrees with ``/stats``; the
    dashboard serves its index, ``/api/fleet`` and an SSE frame; a
    traced sharded sweep stitches one trace across processes,
    exports to Chrome trace format and has a critical path covering
    at least 95% of its wall time.
``chaos``
    a sweep through a seeded fault storm is bit-identical and the
    retries really engaged; a coordinator SIGKILLed mid-sweep
    resumes from its journal with ``explore --resume``.

Run from the repository root::

    python tools/scenarios.py              # every phase
    python tools/scenarios.py fleet chaos  # the named phases

Exit 0 when every check held, 1 when one failed, 2 on an unknown
phase name.  The CI ``scenarios`` job runs every phase.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import http.client
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import threading
import time
import traceback

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
sys.path.insert(0, str(SRC))

from chaos import ChaosProxy, ChaosSchedule                # noqa: E402

from repro.cli import main as cli_main                     # noqa: E402
from repro.dse.cache import ResultCache                    # noqa: E402
from repro.dse.checkpoint import JOURNAL_NAME, load_journal  # noqa: E402
from repro.dse.distributed import run_distributed_sweep    # noqa: E402
from repro.dse.runner import run_sweep                     # noqa: E402
from repro.dse.space import DesignSpace                    # noqa: E402
from repro.eval.kernels import KERNELS, get_kernel         # noqa: E402
from repro.obs.critical import critical_path, render_critical  # noqa: E402
from repro.obs.dashboard import DashboardServer, FleetCollector  # noqa: E402
from repro.obs.export import (                             # noqa: E402
    TRACE_LOG_NAME,
    harvest_daemons,
    load_trace,
    recording,
    to_chrome_trace,
)
from repro.obs.metrics import MetricsParseError, parse_prometheus  # noqa: E402
from repro.service.client import ServiceClient, ServiceError  # noqa: E402
from repro.service.resilience import (                     # noqa: E402
    RetryPolicy,
    render_metrics,
    reset_metrics,
)
from repro.service.subproc import DaemonProcess            # noqa: E402

#: The program every sweep maps.
SOURCE = get_kernel("fir5").source

#: Concurrent clients in the ``service`` phase.
CLIENTS = 8

#: The entry bound of the ``store`` phase's bounded stores.
MAX_ENTRIES = 4

#: Families ``/metrics`` must expose, with their declared types: one
#: per layer the daemon aggregates (service, queue, jobs, store,
#: workers, distributed chunk leases).
REQUIRED_FAMILIES = {
    "fpfa_service_uptime_seconds": "gauge",
    "fpfa_service_submits_total": "counter",
    "fpfa_service_computed_total": "counter",
    "fpfa_service_failed_total": "counter",
    "fpfa_queue_depth": "gauge",
    "fpfa_queue_coalesced_total": "counter",
    "fpfa_jobs_total": "counter",
    "fpfa_job_wait_seconds": "histogram",
    "fpfa_job_runtime_seconds": "histogram",
    "fpfa_store_entries": "gauge",
    "fpfa_store_hits_total": "counter",
    "fpfa_workers": "gauge",
    "fpfa_chunk_leases_total": "counter",
    "fpfa_chunk_releases_total": "counter",
}

#: The fault storm of the ``chaos`` phase.  ``grace`` exempts the
#: coordinator's probe and peering connections, so the fleet is
#: admitted before the weather starts.
STORM = dict(faults={"latency": 0.20, "reset": 0.10,
                     "inject-503": 0.08, "truncate": 0.05},
             latency=0.05, truncate_after=120, grace=4)

#: The coordinator's policy for riding the storm: more attempts than
#: the default, tight delays.
STORM_RETRY = RetryPolicy(attempts=5, base_delay=0.05,
                          max_delay=0.5, jitter=0.25, seed=7)


def canon(value) -> str:
    return json.dumps(value, sort_keys=True)


class Grid:
    """A fir5 sweep grid and its ground truth: a local ``run_sweep``,
    computed at most once per harness run."""

    def __init__(self, **axes: list[int]):
        self.axes = axes
        self.points = DesignSpace(axes).grid()
        self._expected: str | None = None

    def matches(self, records) -> bool:
        if self._expected is None:
            print(f"  ground truth: local run_sweep over "
                  f"{len(self.points)} points")
            result = run_sweep(SOURCE, self.points, workers=1)
            if result.stats.failed:
                raise RuntimeError(f"{result.stats.failed} ground-"
                                   f"truth point(s) failed; bad grid")
            self._expected = canon(result.records)
        return canon(records) == self._expected


#: 24 points: enough chunks that a kill mid-sweep always strands
#: leases and a storm sees plenty of connections.
WIDE = Grid(n_pps=[1, 2, 3, 4, 6, 8], n_buses=[2, 4, 6, 10])

#: 12 points: enough records to blow past :data:`MAX_ENTRIES` and for
#: both daemons of a traced fleet to lease several times.
SMALL = Grid(n_pps=[1, 2, 3, 4], n_buses=[2, 4, 6])


def child_env() -> dict[str, str]:
    """The inherited environment with ``src`` first on PYTHONPATH.

    Extend, never replace, as :meth:`DaemonProcess.start` does: the
    interpreter may need inherited variables (``LD_LIBRARY_PATH`` for
    shared builds, ``VIRTUAL_ENV``, ...).
    """
    inherited = os.environ.get("PYTHONPATH")
    path = str(SRC) + (os.pathsep + inherited if inherited else "")
    return {**os.environ, "PYTHONPATH": path}


@contextlib.contextmanager
def fleet(stores, **options):
    """One started :class:`DaemonProcess` per store directory, all
    gone on exit.

    Exit stops each daemon that is still alive (``POST /shutdown``,
    escalating to SIGKILL) rather than SIGKILLing it outright: a
    SIGKILLed ``--worker-mode process`` daemon leaves its pool
    workers running.
    """
    daemons: list[DaemonProcess] = []
    try:
        for store in stores:
            daemons.append(DaemonProcess(store, **options).start())
        yield daemons
    finally:
        for daemon in daemons:
            daemon.stop()


@contextlib.contextmanager
def env_set(name: str, value: str):
    """Set one environment variable, restoring its prior value (or
    its absence) on exit."""
    prior = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if prior is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = prior


def http_get(address: tuple[str, int],
             path: str) -> tuple[int, str, bytes]:
    connection = http.client.HTTPConnection(*address, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        body = response.read()
    finally:
        connection.close()
    return (response.status, response.getheader("Content-Type") or "",
            body)


def metric_sum(text: str, family: str) -> float:
    return sum(value for __, value
               in parse_prometheus(text).values(family))


# -- service ----------------------------------------------------------


def phase_service(workdir: pathlib.Path, check) -> None:
    expected, files = {}, {}
    for kernel in KERNELS:
        files[kernel.name] = workdir / f"{kernel.name}.c"
        files[kernel.name].write_text(kernel.source)
        out = workdir / f"{kernel.name}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["map", str(files[kernel.name]), "--json",
                             str(out)])
        if code != 0:
            raise RuntimeError(f"offline map failed for {kernel.name}")
        expected[kernel.name] = canon(json.loads(out.read_text()))

    with fleet([workdir / "store"], workers=4,
               worker_mode="process") as (daemon,):
        client = ServiceClient(*daemon.address)

        def submit(kernel, **options) -> dict:
            return ServiceClient(*daemon.address).map_source(
                kernel.source, file=str(files[kernel.name]),
                timeout=120, **options)

        with concurrent.futures.ThreadPoolExecutor(CLIENTS) as pool:
            served = list(pool.map(submit, KERNELS))
        for kernel, payload in zip(KERNELS, served):
            check(canon(payload) == expected[kernel.name],
                  f"{kernel.name}: daemon payload differs from "
                  f"offline map --json")
        computed = client.stats()["service"]["computed"]
        check(computed == len(KERNELS),
              f"expected {len(KERNELS)} backend runs, daemon reports "
              f"{computed}")
        print(f"  {len(KERNELS)} kernels over {CLIENTS} clients, "
              f"{computed} backend runs")

        with concurrent.futures.ThreadPoolExecutor(CLIENTS) as pool:
            list(pool.map(lambda __: submit(KERNELS[0]),
                          range(CLIENTS)))
        computed = client.stats()["service"]["computed"]
        check(computed == len(KERNELS),
              f"duplicate submissions added backend runs: "
              f"{computed} != {len(KERNELS)}")

        submit(KERNELS[0], pps=3)
        stats = client.stats()["service"]
        check(stats["frontends_reused"] >= 1,
              "warm resubmit recompiled the frontend")
        print(f"  after {CLIENTS} duplicates and a warm resubmit: "
              f"{stats['computed']} computed, {stats['coalesced']} "
              f"coalesced, {stats['store_hits']} store hits, "
              f"{stats['frontends_reused']} frontend(s) reused")

        client.shutdown()
        try:
            daemon.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            check(False, "POST /shutdown left the daemon running")


# -- fleet ------------------------------------------------------------


def phase_fleet(workdir: pathlib.Path, check) -> None:
    print("  sharding over 2 daemons:")
    cache = workdir / "shard-cache"
    with fleet([workdir / "shard-0", workdir / "shard-1"]) as daemons:
        urls = [daemon.url for daemon in daemons]
        result = run_distributed_sweep(
            SOURCE, WIDE.points, remotes=urls, cache=cache,
            chunk_size=3)
    stats = result.stats
    print(f"  {stats.summary()}")
    check(WIDE.matches(result.records),
          "sharded records differ from local run_sweep")
    check(not stats.local_records,
          f"{stats.local_records} record(s) fell back locally with a "
          f"healthy fleet")
    check(not stats.lost_daemons,
          f"healthy fleet lost {stats.lost_daemons} daemon(s)")
    # Remote records warmed the coordinator cache in the shared
    # on-disk format: a purely local warm sweep is all cache reads.
    warm = run_sweep(SOURCE, WIDE.points, cache=cache)
    check(WIDE.matches(warm.records),
          "warm local sweep differs after remote run")
    check(warm.stats.cached == warm.stats.unique,
          f"local warm sweep evaluated {warm.stats.evaluated} "
          f"point(s); the remote run should have cached all "
          f"{warm.stats.unique}")

    print("  daemon SIGKILLed mid-sweep, restarted on its port:")
    reset_metrics()
    with fleet([workdir / "victim", workdir / "survivor"]) \
            as (victim, survivor), \
            ChaosProxy(*survivor.address, ChaosSchedule(
                seed=9, faults={"latency": 1.0}, latency=0.3)) as slow:
        # The survivor answers through a latency proxy, so the sweep
        # outlives the victim's death and rebirth.
        killed = threading.Lock()
        supervisor = threading.Timer(0.6, victim.restart)

        def progress(event) -> None:
            if event["event"] == "chunk" \
                    and killed.acquire(blocking=False):
                victim.kill()
                supervisor.start()

        try:
            result = run_distributed_sweep(
                SOURCE, WIDE.points, remotes=[victim.url, slow.url],
                cache=workdir / "readmit-cache", chunk_size=1,
                timeout=30, progress=progress)
        finally:
            supervisor.cancel()
            if supervisor.is_alive():
                supervisor.join()
    stats = result.stats
    print(f"  {stats.summary()}")
    check(killed.locked(), "kill hook never fired (no chunk completed?)")
    check(WIDE.matches(result.records),
          "records differ after kill + readmission")
    check(len(result.records) == stats.total,
          "sweep did not return one record per point")
    check(stats.probations >= 1,
          "the killed daemon was never demoted to probation")
    check(stats.readmissions >= 1,
          "the restarted daemon was never readmitted")
    check(stats.remote_records + stats.peer_records
          + stats.local_records == stats.evaluated,
          "provenance counters double-count records")
    metrics = render_metrics()
    for family in ("fpfa_probation_demotions_total",
                   "fpfa_probation_probes_total",
                   "fpfa_probation_readmissions_total"):
        check(metric_sum(metrics, family) >= 1,
              f"{family} is zero after a demote/readmit cycle")

    print("  whole fleet unreachable (the stopped sharding fleet):")
    result = run_distributed_sweep(
        SOURCE, WIDE.points, remotes=urls,
        cache=workdir / "loss-cache", chunk_size=6, timeout=10)
    stats = result.stats
    print(f"  {stats.summary()}")
    check(WIDE.matches(result.records),
          "records differ under total fleet loss")
    check(stats.local_records == stats.unique,
          "total fleet loss should evaluate every point locally")


# -- store ------------------------------------------------------------


def phase_store(workdir: pathlib.Path, check) -> None:
    size = len(SMALL.points)
    print(f"  LRU bound of {MAX_ENTRIES} entries, then fsck:")
    root = workdir / "bounded"
    result = run_sweep(SOURCE, SMALL.points, cache=root,
                       cache_max_entries=MAX_ENTRIES)
    check(SMALL.matches(result.records),
          "bounded sweep records differ from unbounded")
    store = ResultCache(root)
    entries = store.stats()["entries"]
    check(entries == MAX_ENTRIES,
          f"bound not enforced: {entries} entries survive a max of "
          f"{MAX_ENTRIES}")
    report = store.fsck()
    print(f"  {entries} entries after {size} points; fsck: {report}")
    check(not (report["corrupt_removed"] or report["rows_added"]
               or report["rows_dropped"] or report["tmp_removed"]),
          f"eviction left fsck work behind: {report}")
    check(report["files"] == MAX_ENTRIES,
          f"fsck scanned {report['files']} files, expected "
          f"{MAX_ENTRIES}")

    print(f"  daemon with --store-max-entries {MAX_ENTRIES}:")
    with fleet([workdir / "daemon-store"],
               store_max_entries=MAX_ENTRIES) as (daemon,):
        result = run_distributed_sweep(SOURCE, SMALL.points,
                                       remotes=daemon.url, chunk_size=3)
        client = ServiceClient(*daemon.address)
        stats = client.stats()["store"]
        evictions = parse_prometheus(client.metrics()).value(
            "fpfa_store_evictions_total")
    print(f"  {stats['entries']} entries, {stats['evictions']} "
          f"evictions")
    check(len(result.records) == size,
          "bounded daemon lost sweep records")
    check(stats["entries"] <= MAX_ENTRIES,
          f"daemon store grew to {stats['entries']} entries past the "
          f"--store-max-entries bound")
    check(stats["evictions"] >= size - MAX_ENTRIES,
          f"daemon reported {stats['evictions']} evictions for {size} "
          f"admits over a bound of {MAX_ENTRIES}")
    check(evictions == stats["evictions"],
          f"/metrics evictions {evictions!r} disagrees with /stats "
          f"{stats['evictions']}")

    print("  peer fetch from a prewarmed store:")
    warm_points = SMALL.points[:5]
    run_sweep(SOURCE, warm_points, cache=workdir / "peer-warm")
    with fleet([workdir / "peer-warm", workdir / "peer-cold"]) \
            as daemons:
        result = run_distributed_sweep(
            SOURCE, SMALL.points, remotes=[d.url for d in daemons],
            chunk_size=3)
        computed = sum(ServiceClient(*daemon.address)
                       .stats()["service"]["computed"]
                       for daemon in daemons)
    stats = result.stats
    print(f"  {stats.summary()}; peer ledger: {stats.peers}")
    check(SMALL.matches(result.records),
          "peered sweep records differ from local run")
    check(stats.peer_records == len(warm_points),
          f"expected {len(warm_points)} peer-fetched records, got "
          f"{stats.peer_records}")
    warm_hits = stats.peers.get(daemons[0].url, {}).get("hits", 0)
    check(warm_hits == len(warm_points),
          f"warm peer served {warm_hits} records, expected "
          f"{len(warm_points)}")
    cold = size - len(warm_points)
    chunks = -(-cold // 3)
    check(computed == chunks,
          f"fleet computed {computed} chunk job(s) for {cold} cold "
          f"points; expected {chunks}")


# -- obs --------------------------------------------------------------


def check_metrics(daemon: DaemonProcess, check) -> None:
    client = ServiceClient(*daemon.address)
    __, content_type, body = http_get(daemon.address, "/metrics")
    check(content_type == "text/plain; version=0.0.4; charset=utf-8",
          f"/metrics Content-Type {content_type!r}")
    try:
        parsed = parse_prometheus(body.decode("utf-8"))
    except MetricsParseError as error:
        check(False, f"/metrics does not parse: {error}")
        return
    for family, kind in REQUIRED_FAMILIES.items():
        try:
            actual = parsed.family(family)["type"]
        except MetricsParseError:
            check(False, f"/metrics missing family {family}")
            continue
        check(actual == kind,
              f"/metrics family {family} is {actual}, expected {kind}")
    stats = client.stats()
    for name, expected in (
            ("fpfa_service_submits_total", stats["service"]["submits"]),
            ("fpfa_service_computed_total",
             stats["service"]["computed"]),
            ("fpfa_store_entries", stats["store"]["entries"])):
        value = parsed.value(name)
        check(value == expected, f"{name} = {value}, /stats says "
                                 f"{expected}")
    check(stats.get("uptime", -1) >= 0,
          f"/stats uptime missing or negative: {stats.get('uptime')!r}")
    check("started_at" in stats, "/stats missing started_at")
    print(f"  /metrics: {len(parsed.families)} families, all "
          f"{len(REQUIRED_FAMILIES)} required present; uptime "
          f"{stats.get('uptime')}s")


def read_sse_frame(address: tuple[str, int], check) -> dict | None:
    connection = http.client.HTTPConnection(*address, timeout=30)
    try:
        connection.request("GET", "/events")
        response = connection.getresponse()
        check(response.getheader("Content-Type") == "text/event-stream",
              "SSE Content-Type wrong")
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            line = response.readline().strip()
            if line.startswith(b"data: "):
                return json.loads(line[len(b"data: "):])
        check(False, "no SSE frame within 30s")
        return None
    finally:
        connection.close()


def check_dashboard(daemon: DaemonProcess, check) -> None:
    with FleetCollector(daemon.url, interval=0.2) as collector:
        collector.wait(0, timeout=30)
        with DashboardServer(collector) as server:
            status, content_type, body = http_get(server.address, "/")
            check(status == 200 and b"fleet dashboard" in body,
                  f"dashboard index: HTTP {status}, {len(body)} bytes")
            check(content_type.startswith("text/html"),
                  f"dashboard index Content-Type {content_type!r}")
            status, __, body = http_get(server.address, "/api/fleet")
            snapshot = json.loads(body) if status == 200 else {}
            check(status == 200 and snapshot.get("seq", 0) >= 1,
                  f"/api/fleet: HTTP {status}, {body[:100]!r}")
            daemons = snapshot.get("daemons", [])
            check(bool(daemons) and daemons[0].get("ok"),
                  f"/api/fleet daemon not ok: {daemons!r}")
            frame = read_sse_frame(server.address, check)
            check(frame is None
                  or frame.get("seq", 0) >= snapshot.get("seq", 0),
                  "SSE frame older than /api/fleet snapshot")
            print(f"  dashboard on {server.url}: snapshot seq "
                  f"{snapshot.get('seq')}, SSE seq "
                  f"{frame and frame.get('seq')}")


def check_stitching(entries: list[dict], check) -> None:
    spans = [e for e in entries if e.get("kind") == "span"]
    sweeps = [e for e in spans if e["name"] == "dse.sweep"]
    if len(sweeps) != 1:
        check(False, f"expected 1 dse.sweep span, found {len(sweeps)}")
        return
    root = sweeps[0]
    traces = {e.get("trace") for e in spans}
    check(traces == {root["trace"]},
          f"log spans span {len(traces)} trace id(s), expected "
          f"exactly the sweep's")
    leases = [e for e in spans if e["name"] == "distributed.lease"]
    check(bool(leases), "no distributed.lease spans recorded")
    bad = [e for e in leases if e.get("parent") != root["span"]]
    check(not bad, f"{len(bad)} lease span(s) do not parent the "
                   f"sweep root")
    lease_ids = {e["span"] for e in leases}
    for name in ("worker.chunk", "queue.wait"):
        daemon_side = [e for e in spans if e["name"] == name]
        if not daemon_side:
            check(False, f"no {name} spans harvested from the daemons")
            continue
        check(any(e.get("pid") not in (None, os.getpid())
                  for e in daemon_side),
              f"{name} spans all carry the coordinator pid — nothing "
              f"crossed the process boundary")
        orphans = [e for e in daemon_side
                   if e.get("parent") not in lease_ids]
        check(not orphans, f"{len(orphans)}/{len(daemon_side)} {name} "
                           f"span(s) do not parent a lease span")
    print(f"  stitched: 1 trace, {len(leases)} lease span(s) across "
          f"{len({e.get('pid') for e in spans})} process(es)")


def check_export(entries: list[dict], workdir: pathlib.Path,
                 check) -> None:
    out = workdir / "trace.json"
    out.write_text(json.dumps(to_chrome_trace(entries)),
                   encoding="utf-8")
    events = json.loads(out.read_text(encoding="utf-8")).get(
        "traceEvents")
    if not isinstance(events, list) or not events:
        check(False, "export has no traceEvents list")
        return
    spans = [e for e in events if e.get("ph") == "X"]
    broken = [e for e in spans
              if not {"name", "ts", "dur", "pid", "tid"} <= e.keys()
              or e["ts"] < 0 or e["dur"] < 0]
    check(not broken, f"{len(broken)} complete event(s) malformed in "
                      f"export")
    lanes = {e["pid"] for e in spans}
    named = {e["pid"] for e in events
             if e.get("ph") == "M" and e.get("name") == "process_name"}
    check(lanes <= named, "export lanes missing process_name metadata")
    print(f"  export: {len(spans)} span(s) in {len(lanes)} lane(s)")


def phase_obs(workdir: pathlib.Path, check) -> None:
    with fleet([workdir / "store"], workers=4,
               worker_mode="process") as (daemon,):
        client = ServiceClient(*daemon.address)
        for kernel in KERNELS[:3]:
            client.map_source(kernel.source, file=kernel.name,
                              timeout=120)
        # One duplicate (a store hit) and one failure, so the hit and
        # failure families carry non-zero samples too.
        client.map_source(KERNELS[0].source, file=KERNELS[0].name,
                          timeout=120)
        with contextlib.suppress(ServiceError):
            client.map_source(KERNELS[0].source, file=KERNELS[0].name,
                              pps=0)
        check_metrics(daemon, check)
        check_dashboard(daemon, check)

    print("  traced sweep over 2 daemons:")
    log = workdir / TRACE_LOG_NAME
    # Daemons inherit the environment: tracing on before they spawn.
    with env_set("FPFA_TRACE", "1"), \
            fleet([workdir / "trace-0", workdir / "trace-1"]) \
            as daemons, recording(log) as recorder:
        urls = [daemon.url for daemon in daemons]
        result = run_distributed_sweep(
            SOURCE, SMALL.points, remotes=urls,
            cache=workdir / "trace-cache", chunk_size=3)
        harvested = harvest_daemons(urls, recorder,
                                    trace_ids=recorder.seen_traces)
    print(f"  {result.stats.summary()}; harvested {harvested} daemon "
          f"entries")
    check(SMALL.matches(result.records),
          "traced sweep records differ from the untraced local run")
    entries = load_trace(log)
    check_stitching(entries, check)
    check_export(entries, workdir, check)
    report = critical_path(entries)
    check(report["total"] > 0, "critical path found no sweep window")
    check(report["attributed"] >= 0.95,
          f"critical path attributed only {report['attributed']:.1%} "
          f"of wall time")
    print("  " + render_critical(report).replace("\n", "\n  "))


# -- chaos ------------------------------------------------------------


def explore(cache: pathlib.Path, remote: str, *extra: str) -> list[str]:
    """An ``fpfa-map explore`` command over :data:`WIDE`."""
    grid = [",".join(map(str, WIDE.axes[axis]))
            for axis in ("n_pps", "n_buses")]
    return [sys.executable, "-m", "repro.cli", "explore",
            "--kernel", "fir5", "--pps", grid[0], "--buses", grid[1],
            "--strategy", "exhaustive", "--cache", str(cache),
            "--remote", remote, "--chunk-size", "2", *extra]


def completed_chunks(journal: pathlib.Path) -> int:
    try:
        return sum(1 for line in journal.read_text().splitlines()
                   if '"complete"' in line)
    except OSError:
        return 0


def phase_chaos(workdir: pathlib.Path, check) -> None:
    print("  sweep through the fault storm:")
    reset_metrics()
    with fleet([workdir / "storm-0", workdir / "storm-1"]) as daemons, \
            contextlib.ExitStack() as proxies:
        storm = [proxies.enter_context(ChaosProxy(
                     *daemon.address,
                     ChaosSchedule(seed=100 + index, **STORM)))
                 for index, daemon in enumerate(daemons)]
        result = run_distributed_sweep(
            SOURCE, WIDE.points, remotes=[proxy.url for proxy in storm],
            cache=workdir / "storm-cache", chunk_size=2, timeout=60,
            retry=STORM_RETRY)
    stats = result.stats
    injected = {kind: sum(proxy.counts.get(kind, 0) for proxy in storm)
                for kind in ("latency", "reset", "inject-503",
                             "truncate")}
    retries = metric_sum(render_metrics(), "fpfa_client_retries_total")
    print(f"  {stats.summary()}\n  injected faults: {injected}; "
          f"client retries: {retries:g}")
    check(WIDE.matches(result.records),
          "storm records differ from local run_sweep")
    check(len(result.records) == stats.total, "storm sweep lost records")
    check(any(injected.values()),
          "the chaos proxies injected no faults — the storm tested "
          "nothing")
    check(retries > 0 or injected["reset"] + injected["inject-503"]
          + injected["truncate"] == 0,
          "faults fired but the retry layer never engaged")

    print("  coordinator SIGKILL + explore --resume:")
    cache = workdir / "resume-cache"
    journal = cache / JOURNAL_NAME
    with fleet([workdir / "resume-store"]) as (daemon,), \
            ChaosProxy(*daemon.address, ChaosSchedule(
                seed=21, faults={"latency": 1.0},
                latency=0.25)) as slow:
        # Through a latency proxy the sweep is slow enough to kill
        # with completed chunks in the journal.
        coordinator = subprocess.Popen(
            explore(cache, slow.url), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, env=child_env())
        try:
            deadline = time.monotonic() + 60
            while coordinator.poll() is None \
                    and completed_chunks(journal) < 2 \
                    and time.monotonic() < deadline:
                time.sleep(0.05)
            finished = coordinator.poll() is not None
        finally:
            coordinator.kill()   # SIGKILL: the crash under test
            coordinator.wait(timeout=30)
        if finished:
            check(False, "coordinator finished before the kill "
                         "window — sweep too fast")
            return
        state = load_journal(journal)
        if state is None:
            check(False, "no loadable journal after the coordinator "
                         "kill")
            return
        check(not state.ended, "journal claims a clean end after "
                               "SIGKILL")
        recovered = len(state.completed & set(state.pending))
        print(f"  killed with {recovered} of {len(state.pending)} "
              f"point(s) completed in the journal")
        check(recovered > 0, "kill window closed with zero completed "
                             "points — nothing to resume")

        out = workdir / "resume.json"
        resumed = subprocess.run(
            explore(cache, daemon.url, "--json", str(out), "--resume"),
            capture_output=True, text=True, timeout=300, env=child_env())
    if resumed.returncode != 0:
        check(False, f"explore --resume exited {resumed.returncode}: "
                     f"{resumed.stderr[-400:]}")
        return
    check("resume: journal matches" in resumed.stdout + resumed.stderr,
          "--resume did not recognise the journal")
    payload = json.loads(out.read_text())
    stats = payload["stats"]
    print(f"  resumed: cached={stats['cached']} evaluated="
          f"{stats['evaluated']} of {stats['unique']} unique")
    check(WIDE.matches(payload["records"]),
          "resumed records differ from local ground truth")
    check(stats["cached"] >= recovered,
          f"resume re-evaluated journal-completed points (cached "
          f"{stats['cached']} < recovered {recovered})")
    check(stats["evaluated"] == stats["unique"] - stats["cached"],
          "resume evaluated more than the missing records")


PHASES = {
    "service": phase_service,
    "fleet": phase_fleet,
    "store": phase_store,
    "obs": phase_obs,
    "chaos": phase_chaos,
}


def main(argv: list[str] | None = None) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = [name for name in names if name not in PHASES]
    if unknown:
        print(f"usage: scenarios.py [{' | '.join(PHASES)}] ...\n"
              f"unknown phase(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    failed: dict[str, list[str]] = {}
    with tempfile.TemporaryDirectory(prefix="fpfa-scenarios-") as work:
        for name in names or PHASES:
            failures: list[str] = []

            def check(ok, message: str) -> None:
                if not ok:
                    failures.append(message)

            print(f"\n== {name}", flush=True)
            workdir = pathlib.Path(work) / name
            workdir.mkdir()
            started = time.perf_counter()
            try:
                PHASES[name](workdir, check)
            except Exception as error:  # a crash fails only its phase
                traceback.print_exc()
                failures.append(f"crashed: {type(error).__name__}: "
                                f"{error}")
            verdict = "FAIL" if failures else "ok"
            print(f"== {name}: {verdict} in "
                  f"{time.perf_counter() - started:.1f}s", flush=True)
            if failures:
                failed[name] = failures
    for name, failures in failed.items():
        print(f"\nFAIL {name}:")
        for failure in failures:
            print(f"  - {failure}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
