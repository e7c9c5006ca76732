"""The four workloads: set-up, one pass, correctness checks.

A *pass* runs a workload's operation stream in a closed loop.  With a
deadline it keeps going until the deadline and never stops before the
reference round (see :mod:`inputs`) is done; without one it runs the
reference round only.  Quality sums and layer counts are taken over
the reference round, so they repeat exactly.

A pass records when every cold operation (one program, one sweep,
one cold job) began and ended, and the units (programs, points, jobs)
it completed in the time its operations took.  Latency percentiles
and throughput are taken over the whole pass, so a slow tail anywhere
in the run counts.  Between operations the pass samples the host's
speed (:mod:`hostspeed`), and the caller scales the times with it.

Each workload owns its daemons and directories through a
:class:`Context`; :meth:`Context.close` stops and reaps the daemons,
and the caller runs it in ``finally``.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field

from repro.arch.params import TileParams
from repro.arch.templates import TemplateLibrary
from repro.arch.tilearray import TileArrayParams
from repro.core import pipeline
from repro.dse import runner
# Bound at import, so the traced run's wrap of mapping_metrics does
# not count compile-suite's own read of the quality pair.
from repro.eval.metrics import mapping_metrics
from repro.service.client import ServiceClient
from repro.service.subproc import DaemonProcess

import inputs
from hostspeed import Speedometer

#: The 4-tile mesh every compile-suite program is also mapped onto.
MESH = TileArrayParams(n_tiles=4, topology="mesh")

#: Share of service-mixed jobs that repeat an answered request, and of
#: cold jobs that reuse a program under another tile.
WARM_SHARE = 0.3
REUSE_SHARE = 0.3
#: Service-mixed reference round, in jobs per client.
SERVICE_ROUND = 80
#: Cold service jobs cross-checked in-process: one in this many.
CHECK_EVERY = 8
#: Seconds a client waits on one job before it counts as timed out.
JOB_TIMEOUT = 60.0
#: Seconds between the pauses in which service-mixed samples the
#: host's speed.
PAUSE_EVERY = 0.5


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    values = list(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


@dataclass
class Pass:
    """What one pass measured and checked."""

    attempted: int = 0           #: operations plus cross-checks
    failed: int = 0              #: failed, refused, missing, mismatched
    units: int = 0               #: programs, points or jobs completed
    ops: list = field(default_factory=list)   #: (begin, end), cold ops
    busy: list = field(default_factory=list)  #: (begin, end) of the units
    meter: Speedometer | None = None          #: host speed during them
    warm_ms: list = field(default_factory=list)      #: warm jobs
    overhead_ms: list = field(default_factory=list)  #: HTTP overhead
    quality: list = field(default_factory=list)      #: (cycles, energy)
    frontends: int = 0           #: shared frontends over all sweeps
    fleet: dict = field(default_factory=dict)        #: fleet ledger
    errors: list = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    @property
    def elapsed(self) -> float:
        """Wall-clock seconds the units took."""
        return sum(end - begin for begin, end in self.busy)

    def quality_sums(self) -> tuple[int, float]:
        return (sum(cycles for cycles, _ in self.quality),
                round(math.fsum(energy for _, energy in self.quality), 3))


class Context:
    """The daemons and directories one set-up owns."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.daemons: list[DaemonProcess] = []
        self._meters: list[Speedometer] = []
        self._dirs = itertools.count()

    def fresh_dir(self, prefix: str):
        path = self.workdir / f"{prefix}-{next(self._dirs)}"
        path.mkdir(parents=True)
        return path

    def spawn(self, workers: int) -> DaemonProcess:
        daemon = DaemonProcess(self.fresh_dir("store"), workers=workers,
                               worker_mode="process")
        self.daemons.append(daemon)
        return daemon.start()

    def speedometer(self, busy_cpus: int = 1) -> Speedometer:
        """A new :class:`Speedometer`, whose helpers :meth:`close`
        stops."""
        meter = Speedometer(busy_cpus=busy_cpus)
        self._meters.append(meter)
        return meter

    def stop_daemons(self) -> None:
        """Stop and reap every daemon (kill when it will not stop)."""
        for daemon in self.daemons:
            daemon.stop()
            daemon.kill()
        self.daemons.clear()

    def close(self) -> None:
        """Stop and reap every daemon and speedometer helper."""
        self.stop_daemons()
        for meter in self._meters:
            meter.close()
        self._meters.clear()


def _metric_pair(metrics: dict) -> tuple[int, float]:
    return metrics["cycles"], metrics["energy"]


# ---------------------------------------------------------------------------
# compile-suite
# ---------------------------------------------------------------------------

class CompileSuite:
    name = "compile-suite"
    in_process = True

    def __init__(self, seed: int, tiny: bool):
        pool = inputs.program_pool()
        self.stream = inputs.stratified_stream(pool, seed)
        self.round = 6 if tiny else inputs.round_length(pool)
        self.seed = seed

    def setup(self, ctx: Context) -> None:
        report = pipeline.map_source(inputs.WARMUP_SOURCE, array=MESH)
        pipeline.verify_mapping(
            report, pipeline.random_input_state(report, self.seed))

    def run(self, ctx: Context, deadline: float | None,
            recorder=None) -> Pass:
        """Whole rounds of the stream."""
        result = Pass(meter=ctx.speedometer())
        seen: dict[int, tuple] = {}
        for index in itertools.count():
            if index % self.round == 0 and index and (
                    deadline is None or time.perf_counter() >= deadline):
                break
            position = index % len(self.stream)
            source = inputs.source(*self.stream[position])
            if recorder is not None:
                recorder.set_op(f"program-{index}")
            result.meter.tick()
            result.attempted += 1
            begin = time.perf_counter()
            try:
                report = pipeline.map_source(source, array=MESH)
                pipeline.verify_mapping(report, pipeline.random_input_state(
                    report, self.seed + position))
            except Exception as error:  # noqa: BLE001 — counted
                result.busy.append((begin, time.perf_counter()))
                result.fail(f"program {position}: {error!r}")
                continue
            span = (begin, time.perf_counter())
            result.busy.append(span)
            result.ops.append(span)
            pair = _metric_pair(mapping_metrics(report))
            if seen.setdefault(position, pair) != pair:
                result.fail(f"program {position} mapped differently "
                            f"on its repeat")
            if index < self.round:
                result.quality.append(pair)
            result.units += 1
        result.meter.sample()
        return result

    def check(self, ctx: Context, result: Pass) -> None:
        """Every mapping was verified inside the pass."""


# ---------------------------------------------------------------------------
# sweep-grid
# ---------------------------------------------------------------------------

class SweepGrid:
    name = "sweep-grid"
    in_process = True
    busy_cpus = 1
    table = inputs.SWEEP_KERNELS
    dimensions = inputs.SWEEP_GRID

    def __init__(self, seed: int, tiny: bool):
        self.kernels = inputs.sweep_kernels(self.table)
        self.points = inputs.grid(self.dimensions)
        if tiny:
            self.kernels = self.kernels[:2]
            self.points = self.points[:8]
        self.seed = seed
        self.order = random.Random(seed)

    def setup(self, ctx: Context) -> None:
        self._sweep(ctx, inputs.WARMUP_SOURCE, self.points[:2])

    def _sweep(self, ctx: Context, source: str, points: list):
        """One verified sweep into an empty cache directory."""
        cache = ctx.fresh_dir("cache")
        try:
            return runner.run_sweep(source, points, workers=1,
                                    verify_seed=self.seed,
                                    cache=str(cache))
        finally:
            shutil.rmtree(cache, ignore_errors=True)

    def sweep(self, ctx: Context, source: str):
        return self._sweep(ctx, source, self.points)

    def next_cycle(self, ctx: Context) -> None:
        """Each sweep already writes into an empty cache."""

    def run(self, ctx: Context, deadline: float | None,
            recorder=None) -> Pass:
        """Whole cycles over the kernels, in seeded order.  A sweep's
        time includes removing its cache; a new fleet between cycles
        (:meth:`next_cycle`) is not timed."""
        result = Pass(meter=ctx.speedometer(self.busy_cpus))
        for cycle in itertools.count():
            if cycle and (deadline is None
                          or time.perf_counter() >= deadline):
                break
            if cycle:
                self.next_cycle(ctx)
            for name, source in self.order.sample(self.kernels,
                                                  len(self.kernels)):
                if recorder is not None:
                    recorder.set_op(f"sweep-{cycle}-{name}")
                result.meter.tick()
                result.attempted += len(self.points)
                begin = time.perf_counter()
                try:
                    sweep = self.sweep(ctx, source)
                except Exception as error:  # noqa: BLE001 — counted
                    result.failed += len(self.points) - 1
                    result.fail(f"sweep {name}: {error!r}")
                    continue
                span = (begin, time.perf_counter())
                result.busy.append(span)
                result.ops.append(span)
                self.account(result, name, sweep, first=cycle == 0)
        result.meter.sample()
        return result

    def account(self, result: Pass, name: str, sweep, first: bool) -> None:
        """Check one sweep's records and count the verified points."""
        for record in sweep.records:
            if not (record.get("ok") and record.get("verified")):
                result.fail(f"{name}: {record.get('error', 'unverified')}")
        if len(sweep.records) != len(self.points):
            result.fail(f"sweep {name}: {len(sweep.records)} records "
                        f"for {len(self.points)} points")
        verified = [record for record in sweep.records
                    if record.get("ok") and record.get("verified")]
        result.units += len(verified)
        result.frontends += sweep.stats.frontends
        if first:
            result.quality.extend(_metric_pair(record["metrics"])
                                  for record in verified)

    def check(self, ctx: Context, result: Pass) -> None:
        """Every record was verified inside the pass."""


# ---------------------------------------------------------------------------
# fleet-sweep
# ---------------------------------------------------------------------------

class FleetSweep(SweepGrid):
    name = "fleet-sweep"
    in_process = False
    busy_cpus = 2
    table = inputs.FLEET_KERNELS
    dimensions = inputs.FLEET_GRID
    #: Ledger fields of DistributedSweepStats reported per layer.
    LEDGER = ("chunks", "leases", "stolen", "local_records")

    def setup(self, ctx: Context) -> None:
        """Two daemons, each warmed by one job so that its worker
        process exists before the first lease."""
        daemons = [ctx.spawn(workers=1) for _ in range(2)]
        for daemon in daemons:
            ServiceClient(*daemon.address, timeout=JOB_TIMEOUT).map_source(
                inputs.WARMUP_SOURCE, verify_seed=self.seed)
        self.remotes = [daemon.url for daemon in daemons]

    def next_cycle(self, ctx: Context) -> None:
        """A fresh fleet with empty stores, so no cycle is served
        from the records of the one before."""
        ctx.stop_daemons()
        self.setup(ctx)

    def sweep(self, ctx: Context, source: str):
        return runner.run_sweep(source, self.points,
                                verify_seed=self.seed,
                                remotes=self.remotes)

    def account(self, result: Pass, name: str, sweep, first: bool) -> None:
        super().account(result, name, sweep, first)
        if first:
            for field_name in self.LEDGER:
                result.fleet[field_name] = (
                    result.fleet.get(field_name, 0)
                    + getattr(sweep.stats, field_name))
            result.fleet.setdefault("swept", []).append(
                (name, sweep.records))

    def check(self, ctx: Context, result: Pass) -> None:
        """Re-run one seeded reference-cycle sweep in-process; its
        records must equal the fleet's field for field."""
        swept = result.fleet.get("swept")
        result.attempted += 1
        if not swept:
            result.fail("no fleet sweep to cross-check")
            return
        name, records = random.Random(self.seed).choice(swept)
        local = runner.run_sweep(dict(self.kernels)[name], self.points,
                                 workers=1, verify_seed=self.seed)
        if local.records != records:
            result.fail(f"fleet sweep {name} differs from the "
                        f"in-process sweep")


# ---------------------------------------------------------------------------
# service-mixed
# ---------------------------------------------------------------------------

@dataclass
class Job:
    client: int
    index: int
    warm: bool
    request: dict
    origin: int | None = None    #: cold job index a warm job repeats
    span: tuple = (0.0, 0.0)     #: submit to result, perf_counter s
    view: dict | None = None

    @property
    def latency_ms(self) -> float:
        return 1000 * (self.span[1] - self.span[0])


class Gate:
    """Lets the main thread pause closed-loop clients between jobs."""

    def __init__(self, clients: int):
        self._cond = threading.Condition()
        self._clients = clients
        self._ended = 0
        self._in_flight = 0
        self._paused = False

    def ended(self) -> None:
        """A client's loop has ended."""
        with self._cond:
            self._ended += 1
            self._cond.notify_all()

    @contextlib.contextmanager
    def job(self):
        """Around one job: waits while the clients are paused."""
        with self._cond:
            self._cond.wait_for(lambda: not self._paused)
            self._in_flight += 1
        try:
            yield
        finally:
            with self._cond:
                self._in_flight -= 1
                self._cond.notify_all()

    def sample_until_done(self, meter: Speedometer) -> None:
        """Until every client has ended, pause them all every
        :data:`PAUSE_EVERY` seconds, with no job in flight, and
        sample the host's speed."""
        with self._cond:
            while not self._cond.wait_for(
                    lambda: self._ended == self._clients,
                    timeout=PAUSE_EVERY):
                self._paused = True
                self._cond.wait_for(lambda: not self._in_flight)
                meter.sample()
                self._paused = False
                self._cond.notify_all()


class ServiceMixed:
    name = "service-mixed"
    in_process = False
    clients = 2

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        stream = inputs.stratified_stream(inputs.program_pool(), seed)
        #: Each client draws programs from its own half of the stream,
        #: so no (program, tile) pair is ever cold twice.
        self.programs = [stream[client::self.clients]
                         for client in range(self.clients)]
        self.round = 6 if tiny else SERVICE_ROUND

    def setup(self, ctx: Context) -> None:
        self.daemon = ctx.spawn(workers=2)
        client = ServiceClient(*self.daemon.address, timeout=JOB_TIMEOUT)
        client.map_source(inputs.WARMUP_SOURCE, verify_seed=self.seed)

    def jobs(self, client: int):
        """Client *client*'s endless job stream: the reference round
        from the reference seed, every job after it from the seed."""
        reference = random.Random(inputs.REFERENCE_SEED * 1000 + client)
        seeded = random.Random(self.seed * 1000 + client)
        programs = itertools.cycle(self.programs[client])
        used: dict[tuple, set] = {}  # tiles each program was sent with
        recent: list[tuple] = []     # programs of late, open to reuse
        cold: list[Job] = []
        for index in itertools.count():
            rng = reference if index < self.round else seeded
            if cold and rng.random() < WARM_SHARE:
                origin = rng.choice(cold)
                yield Job(client, index, True, origin.request,
                          origin=origin.index)
                continue
            reusable = [program for program in recent
                        if len(used[program]) < len(inputs.SERVICE_TILES)]
            if reusable and rng.random() < REUSE_SHARE:
                program = rng.choice(reusable)
            else:
                # A program met again after the stream wraps keeps its
                # used tiles, so no (program, tile) pair is cold twice.
                program = next(programs)
                while len(used.setdefault(program, set())) \
                        == len(inputs.SERVICE_TILES):
                    program = next(programs)
                recent = (recent + [program])[-6:]
            position = rng.choice([position for position
                                   in range(len(inputs.SERVICE_TILES))
                                   if position not in used[program]])
            used[program].add(position)
            request = {"kind": "map", "source": inputs.source(*program),
                       "verify_seed": self.seed,
                       **inputs.SERVICE_TILES[position]}
            job = Job(client, index, False, request)
            cold.append(job)
            yield job

    def _client(self, client: int, deadline, result: Pass, done: list,
                recorder, gate: Gate) -> None:
        try:
            self._loop(client, deadline, result, done, recorder, gate)
        finally:
            gate.ended()

    def _loop(self, client: int, deadline, result: Pass, done: list,
              recorder, gate: Gate) -> None:
        service = ServiceClient(*self.daemon.address, timeout=JOB_TIMEOUT)
        for job in self.jobs(client):
            if job.index >= self.round and (
                    deadline is None or time.perf_counter() >= deadline):
                return
            if recorder is not None:
                recorder.set_op(f"job-{client}-{job.index}")
            with gate.job():
                begin = time.perf_counter()
                try:
                    view = service.submit(job.request)["job"]
                    while view["state"] not in ("done", "failed"):
                        if time.perf_counter() > begin + JOB_TIMEOUT:
                            raise TimeoutError(
                                f"job {view['id']} timed out")
                        view = service.job(view["id"], wait=10)
                except Exception as error:  # noqa: BLE001 — counted
                    with result.lock:
                        result.attempted += 1
                        result.fail(f"job {client}-{job.index}: {error!r}")
                    continue
                job.span = (begin, time.perf_counter())
            job.view = view
            with result.lock:
                result.attempted += 1
                if view["state"] != "done" or \
                        view["result"].get("verified") is not True:
                    result.fail(f"job {client}-{job.index}: "
                                f"{view.get('error', 'unverified')}")
                elif not job.warm and view["meta"].get("cache") != "miss":
                    result.fail(f"cold job {client}-{job.index} was "
                                f"answered from the store")
                else:
                    done.append(job)

    def run(self, ctx: Context, deadline: float | None,
            recorder=None) -> Pass:
        """Two closed-loop clients until the deadline; every
        :data:`PAUSE_EVERY` seconds both wait, with no job in flight,
        while the host's speed is sampled."""
        result = Pass(meter=ctx.speedometer(busy_cpus=2))
        done: list[Job] = []
        gate = Gate(self.clients)
        threads = [threading.Thread(
            target=self._client,
            args=(client, deadline, result, done, recorder, gate))
            for client in range(self.clients)]
        result.meter.sample()
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        gate.sample_until_done(result.meter)
        for thread in threads:
            thread.join()
        result.busy.append((started, time.perf_counter()))
        result.meter.sample()
        done.sort(key=lambda job: (job.client, job.index))
        result.units = len(done)
        for job in done:
            view = job.view
            result.overhead_ms.append(job.latency_ms - 1000 * (
                view["waited"] + (view["runtime"] or 0.0)))
            if job.warm:
                result.warm_ms.append(job.latency_ms)
                continue
            result.ops.append(job.span)
            if job.index < self.round:
                result.quality.append(
                    _metric_pair(view["result"]["metrics"]))
        self.done = done
        return result

    def check(self, ctx: Context, result: Pass) -> None:
        """Warm answers must equal their cold originals; a seeded
        sample of reference-round cold answers must equal an
        in-process ``map_source`` of the same request, field for
        field."""
        by_key = {(job.client, job.index): job for job in self.done}
        rng = random.Random(self.seed)
        for job in self.done:
            payload = job.view["result"]
            if job.warm:
                origin = by_key.get((job.client, job.origin))
                if origin is not None:
                    result.attempted += 1
                    if origin.view["result"] != payload:
                        result.fail(f"warm job {job.client}-{job.index} "
                                    f"differs from its cold answer")
                continue
            if job.index >= self.round or rng.randrange(CHECK_EVERY):
                continue
            result.attempted += 1
            if in_process_payload(job.request) != payload:
                result.fail(f"job {job.client}-{job.index} differs from "
                            f"the in-process mapping")


def in_process_payload(request: dict) -> dict:
    """What ``fpfa-map map --json --verify-seed`` prints for a map
    request: the reference a daemon answer must equal."""
    params = TileParams(n_pps=request["pps"], n_buses=request["buses"])
    library = request["library"]
    report = pipeline.map_source(request["source"], params,
                                 TemplateLibrary.stock()[library])
    pipeline.verify_mapping(report, pipeline.random_input_state(
        report, request["verify_seed"]))
    return pipeline.report_payload(
        report, pipeline.mapping_config(params, library), verified=True)


WORKLOADS = {cls.name: cls for cls in
             (CompileSuite, SweepGrid, ServiceMixed, FleetSweep)}
