"""Per-layer tracing from outside the program.

A :class:`Recorder` wraps the public callables of each layer where the
calling modules look them up (most are bound with ``from ... import``
in :mod:`repro.core.pipeline` and :mod:`repro.dse.runner`, so the wrap
replaces the name in those modules, not only at its definition).
Each call records a span: layer name, start, end, parent span and the
id of the program, point or job it belongs to.  Spans stay in memory
until the run ends.  Nothing inside ``src/`` is changed; the wraps
are removed when :meth:`Recorder.installed` exits.

A layer's self time is its span minus its child spans.  Spans nest
per thread, so children never overlap and the subtraction is exact.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import Counter, defaultdict

from repro.core import pipeline
from repro.core.taskgraph import TaskGraph
from repro.dse import runner
from repro.dse.cache import ResultCache
from repro.eval import metrics as eval_metrics
from repro.service.client import ServiceClient
from workloads import p50, p90

#: Layers traced in-process, in pipeline order.
LAYERS = ("cdfg.build", "transforms", "core.taskgraph",
          "core.clustering", "core.scheduling", "core.allocation",
          "multitile", "verify", "eval.metrics", "dse.runner.point",
          "dse.cache")

#: Program span (from the program's own tracer) each wrapped layer
#: must match call for call.
PROGRAM_SPANS = {
    "cdfg.build": "pipeline.parse",
    "transforms": "pipeline.transforms",
    "core.taskgraph": "pipeline.taskgraph",
    "core.clustering": "pipeline.cluster",
    "core.scheduling": "pipeline.schedule",
    "core.allocation": "pipeline.allocate",
    "multitile": "pipeline.multitile",
    "dse.runner.point": "dse.point",
}


class Recorder:
    """In-memory span log plus per-layer counters."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []   # (layer, start, end, parent, op)
        self.counts: dict[str, Counter] = defaultdict(Counter)
        #: Client-side round trips of sweep-chunk leases, in ms.
        self.lease_ms: list[float] = []
        #: Terminal job views the wrapped client saw, by job id.
        self.views: dict[str, dict] = {}
        self._lease_started: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- op ids -----------------------------------------------------

    def set_op(self, op: str | None) -> None:
        """Tag every span this thread records with *op* (a program,
        point or job id)."""
        self._local.op = op

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording --------------------------------------------------

    def _wrap(self, layer: str, fn, note=None):
        """*fn* timed as a span of *layer*; ``note(result, args)``
        returns counters to add on success."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                index = len(self.spans)
                self.spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except pipeline.VerificationError:
                with self._lock:
                    self.counts[layer]["mismatches"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[index] = (layer, start, end, parent,
                                     getattr(self._local, "op", None))
            if note is not None:
                extra = note(result, args)
                with self._lock:
                    self.counts[layer].update(extra)
            return result
        return wrapper

    def _client_submit(self, fn):
        @functools.wraps(fn)
        def submit(client, request):
            started = time.perf_counter()
            response = fn(client, request)
            if request.get("kind") == "sweep-chunk":
                with self._lock:
                    self._lease_started[response["job"]["id"]] = \
                        started
            self._observe(response["job"])
            return response
        return submit

    def _client_job(self, fn):
        @functools.wraps(fn)
        def job(client, job_id, wait=None):
            view = fn(client, job_id, wait)
            self._observe(view)
            return view
        return job

    def _observe(self, view: dict) -> None:
        if view.get("state") not in ("done", "failed"):
            return
        with self._lock:
            self.views[view["id"]] = {
                key: view.get(key)
                for key in ("kind", "waited", "runtime", "meta")}
            started = self._lease_started.pop(view["id"], None)
            if started is not None:
                self.lease_ms.append(
                    1000 * (time.perf_counter() - started))

    # -- installation -----------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced callable for the duration of the block
        and restore the originals afterwards, even on failure."""
        wrap = self._wrap
        verify = wrap("verify", pipeline.verify_mapping)
        metrics = wrap("eval.metrics", eval_metrics.mapping_metrics)
        from_cdfg = TaskGraph.__dict__["from_cdfg"].__func__
        patches = [
            (pipeline, "build_main_cdfg",
             wrap("cdfg.build", pipeline.build_main_cdfg,
                  lambda graph, args: {"nodes": len(graph)})),
            (pipeline, "run_simplify",
             wrap("transforms", pipeline.run_simplify,
                  lambda stats, args: {"nodes_out": len(args[0]),
                                       "rewrites": stats.total})),
            (TaskGraph, "from_cdfg", classmethod(
                wrap("core.taskgraph", from_cdfg,
                     lambda graph, args: {"tasks": graph.n_tasks}))),
            (pipeline, "cluster_tasks",
             wrap("core.clustering", pipeline.cluster_tasks,
                  lambda graph, args: {"clusters": graph.n_clusters})),
            (pipeline, "schedule_clusters",
             wrap("core.scheduling", pipeline.schedule_clusters,
                  lambda schedule, args: {
                      "inserted_levels": schedule.inserted_levels})),
            (pipeline, "allocate",
             wrap("core.allocation", pipeline.allocate,
                  lambda result, args: {
                      "moves": result[0].n_moves,
                      "stalls": result[0].n_stall_cycles})),
            (pipeline, "map_multitile",
             wrap("multitile", pipeline.map_multitile,
                  lambda report, args: {
                      "transfers": report.n_transfers})),
            (pipeline, "verify_mapping", verify),
            (runner, "verify_mapping", verify),
            (eval_metrics, "mapping_metrics", metrics),
            (runner, "mapping_metrics", metrics),
            (runner, "evaluate_point",
             wrap("dse.runner.point", runner.evaluate_point)),
            (ResultCache, "get",
             wrap("dse.cache", ResultCache.get,
                  lambda record, args: {
                      "gets": 1, "hits": int(record is not None)})),
            (ResultCache, "put",
             wrap("dse.cache", ResultCache.put,
                  lambda stored, args: {"puts": 1})),
            (ServiceClient, "submit",
             self._client_submit(ServiceClient.submit)),
            (ServiceClient, "job", self._client_job(ServiceClient.job)),
        ]
        saved = [(owner, name, owner.__dict__[name])
                 for owner, name, _ in patches]
        try:
            for owner, name, replacement in patches:
                setattr(owner, name, replacement)
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)

    # -- reading ----------------------------------------------------

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans if span)

    def self_ms(self) -> dict[str, float]:
        """Per-layer total self time in milliseconds."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span and span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        totals = defaultdict(float)
        for index, span in enumerate(self.spans):
            if span:
                totals[span[0]] += (span[2] - span[1]
                                    - child_time[index])
        return {layer: 1000 * total for layer, total in totals.items()}

    def durations_ms(self, layer: str) -> list[float]:
        return [1000 * (span[2] - span[1]) for span in self.spans
                if span and span[0] == layer]

    def write(self, handle, pass_index: int = 0) -> None:
        """Append the span log to *handle* as NDJSON, one span per
        line."""
        for index, span in enumerate(self.spans):
            if span:
                layer, start, end, parent, op = span
                handle.write(json.dumps(
                    {"pass": pass_index, "id": index, "name": layer,
                     "start": start, "end": end, "parent": parent,
                     "op": op}) + "\n")


def layer_metrics(recorder: Recorder, result) -> dict:
    """Every per-layer metric of one traced pass (*result* is its
    :class:`workloads.Pass`): ``name -> (value, samples)``."""
    calls = recorder.calls()
    self_ms = recorder.self_ms()
    counts = recorder.counts
    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = (calls[layer], calls[layer])
        values[f"{layer}.self_ms"] = (self_ms.get(layer, 0.0), calls[layer])

    def count(layer, name, key=None):
        values[key or f"{layer}.{name}"] = (counts[layer][name],
                                            calls[layer])

    count("cdfg.build", "nodes", "cdfg.nodes")
    count("transforms", "nodes_out")
    count("transforms", "rewrites")
    count("core.taskgraph", "tasks")
    count("core.clustering", "clusters")
    count("core.scheduling", "inserted_levels")
    count("core.allocation", "moves")
    count("core.allocation", "stalls")
    count("multitile", "transfers")
    count("verify", "mismatches")
    points = recorder.durations_ms("dse.runner.point")
    values["dse.runner.point_ms_p50"] = (p50(points), len(points))
    values["dse.runner.frontends"] = (result.frontends, result.frontends)
    cache = counts["dse.cache"]
    count("dse.cache", "gets")
    count("dse.cache", "puts")
    values["dse.cache.hit_ratio"] = (
        cache["hits"] / cache["gets"] if cache["gets"] else 0.0,
        cache["gets"])
    leases = recorder.lease_ms
    values["dse.distributed.lease_ms_p50"] = (p50(leases), len(leases))
    values["dse.distributed.lease_ms_p90"] = (p90(leases), len(leases))
    for name in ("chunks", "leases", "stolen", "local_records"):
        values[f"dse.distributed.{name}"] = (result.fleet.get(name, 0),
                                             len(leases))
    views = list(recorder.views.values())
    waits = [1000 * view["waited"] for view in views
             if view["waited"] is not None]
    runtimes = [1000 * view["runtime"] for view in views
                if view["runtime"] is not None]
    maps = [view["meta"] or {} for view in views if view["kind"] == "map"]
    misses = [meta for meta in maps if meta.get("cache") == "miss"]
    for name, samples in (("service.queue.wait_ms", waits),
                          ("service.workers.runtime_ms", runtimes),
                          ("service.store.warm_ms", result.warm_ms),
                          ("service.http.overhead_ms",
                           result.overhead_ms)):
        values[f"{name}_p50"] = (p50(samples), len(samples))
        values[f"{name}_p90"] = (p90(samples), len(samples))
    values["service.workers.frontend_reuse_ratio"] = (
        sum(bool(meta.get("frontend_reused")) for meta in misses)
        / len(misses) if misses else 0.0, len(misses))
    values["service.store.hit_ratio"] = (
        sum(meta.get("cache") == "hit" for meta in maps) / len(maps)
        if maps else 0.0, len(maps))
    return values
