"""The per-frontend memo of point-invariant backend stages.

A :class:`repro.core.pipeline.Frontend` memoises its task graph, its
clusterings (per template library), its schedules (per library and
ALUs per level) and its verification references (per seed).  These
tests pin down that the memo is invisible:

* sweep records are byte-identical to a fresh ``map_source`` +
  ``verify_mapping`` per point, over every library, ``balance``, an
  array axis, unrealisable points, no verification and two seeds on
  one frontend, serial and pooled;
* the shared artifacts are read-only: no later stage changes them,
  and a frontend pickles to the same bytes before and after;
* verification stays per point: a corrupted program still fails;
* spans and timings count work done: one stage span per memo key.
"""

import concurrent.futures
import json
import pickle
import sys

import pytest

from repro.arch.params import TileParams
from repro.arch.templates import TemplateLibrary
from repro.arch.tilearray import TileArrayParams
from repro.cdfg.interp import Interpreter
from repro.cdfg.ops import OpKind
from repro.core.clustering import cluster_tasks
from repro.core.pipeline import (
    VerificationError,
    compile_frontend,
    map_frontend,
    map_source,
    random_input_state,
    verify_mapping,
)
from repro.core.scheduling import schedule_clusters
from repro.core.taskgraph import TaskGraph
from repro.dse.runner import evaluate_point, frontend_spec, run_sweep, \
    _compile_spec
from repro.dse.space import DesignPoint, DesignSpace
from repro.eval.kernels import get_kernel
from repro.eval.metrics import mapping_metrics, multitile_metrics
from repro.obs import trace
from repro.service import ServiceClient, ServiceThread
from repro.service.protocol import record_to_map_payload

SOURCE = get_kernel("fir5").source
LIBRARIES = sorted(TemplateLibrary.stock())


def fresh_record(source, point, verify_seed):
    """The record of *point* from a fresh ``map_source`` +
    ``verify_mapping``: no frontend, no memo, nothing shared."""
    record = {"point": point.to_dict(), "config": point.assignment()}
    try:
        options = point.options_dict()
        report = map_source(source, point.tile_params(),
                            point.template_library(),
                            simplify=options.get("simplify", True),
                            balance=options.get("balance", False),
                            array=point.tile_array_params())
        if verify_seed is not None:
            verify_mapping(report, random_input_state(report,
                                                      verify_seed))
            record["verified"] = True
        record["ok"] = True
        record["metrics"] = mapping_metrics(report)
        if report.multitile is not None:
            record["metrics"].update(multitile_metrics(report))
    except Exception as error:  # noqa: BLE001 — mirrors the runner
        record["ok"] = False
        record["error"] = f"{type(error).__name__}: {error}"
    return record


def dumps(records):
    return json.dumps(records)


GRID = DesignSpace({"n_pps": [0, 2, 5], "n_buses": [3, 10],
                    "library": LIBRARIES,
                    "balance": [False, True]}).grid()
ARRAY_GRID = DesignSpace({"n_pps": [2, 4], "library": ["two-level",
                                                       "mac"],
                          "tiles": [1, 2, 4]}).grid()


# -- equivalence ----------------------------------------------------------

class TestRecordsMatchFreshMapping:
    @pytest.mark.parametrize("verify_seed", [None, 7])
    def test_serial_sweep_over_libraries_balance_and_bad_points(
            self, verify_seed):
        swept = run_sweep(SOURCE, GRID, workers=1,
                          verify_seed=verify_seed)
        assert swept.stats.frontends == 2   # balance off / on
        assert any(not record["ok"] for record in swept.records)
        fresh = [fresh_record(SOURCE, point, verify_seed)
                 for point in GRID]
        assert dumps(swept.records) == dumps(fresh)

    def test_array_axis(self):
        swept = run_sweep(SOURCE, ARRAY_GRID, workers=1, verify_seed=3)
        fresh = [fresh_record(SOURCE, point, 3) for point in ARRAY_GRID]
        assert dumps(swept.records) == dumps(fresh)
        assert all("transfers" in record["metrics"]
                   for record in swept.records)

    def test_pool_matches_serial_and_fresh(self):
        serial = run_sweep(SOURCE, GRID, workers=1, verify_seed=5)
        pooled = run_sweep(SOURCE, GRID, workers=2, verify_seed=5)
        fresh = [fresh_record(SOURCE, point, 5) for point in GRID]
        assert dumps(pooled.records) == dumps(serial.records) \
            == dumps(fresh)

    def test_two_seeds_on_one_frontend(self):
        points = DesignSpace({"n_pps": [2, 5],
                              "library": LIBRARIES}).grid()
        frontend = _compile_spec(SOURCE, frontend_spec(points[0]))
        report = map_source(SOURCE)
        for seed in (1, 2, 1, None):
            shared = [evaluate_point(SOURCE, point, seed,
                                     frontend=frontend)
                      for point in points]
            fresh = [fresh_record(SOURCE, point, seed)
                     for point in points]
            assert dumps(shared) == dumps(fresh)
            if seed is not None:
                # The reference the records were verified against is
                # this seed's, not the previous one's.
                state, expected = frontend.verification_reference(seed)
                assert state == random_input_state(report, seed)
                assert expected == Interpreter(
                    width=report.params.width).run(report.original,
                                                   state)

    def test_memo_carries_across_sweeps_seeded_with_one_frontend(self):
        points = DesignSpace({"n_pps": [2, 3, 5]}).grid()
        spec = frontend_spec(points[0])
        frontends = {spec: _compile_spec(SOURCE, spec)}
        for seed in (4, 9):
            swept = run_sweep(SOURCE, points, workers=1,
                              verify_seed=seed, frontends=frontends)
            fresh = [fresh_record(SOURCE, point, seed)
                     for point in points]
            assert dumps(swept.records) == dumps(fresh)


# -- read-only sharing ------------------------------------------------------

class TestSharedArtifactsStayReadOnly:
    def test_later_stages_never_touch_the_shared_artifacts(self):
        library = TemplateLibrary.mac()
        frontend = compile_frontend(SOURCE, width=TileParams().width)
        before = pickle.dumps(frontend)
        reports = []
        for pps in (2, 3, 5):
            for tiles in (None, 2, 4):
                array = TileArrayParams(n_tiles=tiles) if tiles else None
                report = map_frontend(frontend, TileParams(n_pps=pps),
                                      library, array=array)
                mapping_metrics(report)
                report.summary()
                if array is not None:
                    multitile_metrics(report)
                reports.append(report)
        # Every report shares one task graph and one cluster graph.
        assert all(report.taskgraph is reports[0].taskgraph
                   and report.clustered is reports[0].clustered
                   for report in reports)
        # ...and that object is exactly what a fresh computation
        # builds, after every stage above has read it.
        taskgraph = TaskGraph.from_cdfg(frontend.minimised)
        clustered = cluster_tasks(taskgraph, library)
        for report in reports:
            schedule = schedule_clusters(
                clustered, n_pps=min(report.params.n_pps,
                                     report.params.n_buses))
            assert pickle.dumps(report.taskgraph) \
                == pickle.dumps(taskgraph)
            assert pickle.dumps(report.clustered) \
                == pickle.dumps(clustered)
            assert pickle.dumps(report.schedule) \
                == pickle.dumps(schedule)
        assert pickle.dumps(frontend) == before
        assert len(pickle.loads(before)._memo) == 0

    def test_a_corrupted_program_still_fails_against_the_memo(self):
        point = DesignPoint.make({"n_pps": 3})
        frontend = _compile_spec(SOURCE, frontend_spec(point))
        good = evaluate_point(SOURCE, point, 1, frontend=frontend)
        assert good["verified"] is True
        state, expected = frontend.verification_reference(1)
        assert frontend.verification_reference(1)[1] is expected
        report = map_frontend(frontend, point.tile_params(),
                              point.template_library())
        for cycle in report.program.cycles:
            if cycle.alu_configs:
                config = cycle.alu_configs[0]
                config.ops = tuple(OpKind.SUB if op is OpKind.ADD
                                   else OpKind.ADD if op is OpKind.MUL
                                   else op for op in config.ops)
                break
        with pytest.raises(VerificationError):
            verify_mapping(report, state, expected=expected)
        # The shared reference was not changed by the failed check.
        assert evaluate_point(SOURCE, point, 1,
                              frontend=frontend) == good

    def test_concurrent_thread_mode_jobs_share_one_frontend(self,
                                                            tmp_path):
        tiles = [{"pps": pps, "buses": buses, "library": library}
                 for pps in (2, 3, 5) for buses in (4, 10)
                 for library in ("two-level", "mac")]
        with ServiceThread(store=tmp_path / "store", workers=4,
                           worker_mode="thread") as thread:
            client = ServiceClient(*thread.address)
            # Warm the daemon's frontend memo so every job below
            # shares one Frontend object across worker threads.
            client.map_source(SOURCE, verify_seed=6, pps=4, buses=6)

            def submit(tile):
                own = ServiceClient(client.host, client.port)
                return own.map_source(SOURCE, verify_seed=6, **tile)

            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                payloads = list(pool.map(submit, tiles))
            stats = client.stats()["service"]
        assert stats["frontends_compiled"] == 1
        assert stats["frontends_reused"] == len(tiles)
        for tile, payload in zip(tiles, payloads):
            point = DesignPoint.make(
                {"n_pps": tile["pps"], "n_buses": tile["buses"]},
                library=tile["library"])
            expected = record_to_map_payload(
                fresh_record(SOURCE, point, 6), want_verified=True)
            assert json.dumps(payload, sort_keys=True) \
                == json.dumps(expected, sort_keys=True)


class TestThreadsSharingOneFrontend:
    def test_memo_under_thread_contention_matches_fresh(self):
        """More threads than cores map points of one frontend with a
        tiny switch interval, alternating two seeds so the reference
        slot keeps changing; a torn or lost memo update would fail a
        verification or change a record."""
        points = DesignSpace({"n_pps": [2, 3, 5], "n_buses": [3, 10],
                              "library": LIBRARIES}).grid()
        jobs = [(point, 1 + index % 2)
                for index, point in enumerate(points * 4)]
        expected = {(point.key(), seed):
                    dumps(fresh_record(SOURCE, point, seed))
                    for point, seed in jobs}
        frontend = _compile_spec(SOURCE, frontend_spec(points[0]))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(evaluate_point, SOURCE, point,
                                       seed, frontend=frontend)
                           for point, seed in jobs]
                records = [future.result(timeout=120)
                           for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for (point, seed), record in zip(jobs, records):
            assert dumps(record) == expected[point.key(), seed]


# -- spans and timings count work done --------------------------------------

class TestStageSpansCountWorkDone:
    def test_one_stage_span_per_memo_key(self):
        n_pps, n_buses = [2, 3, 4, 6], [3, 4, 10]
        points = DesignSpace({"n_pps": n_pps, "n_buses": n_buses,
                              "library": LIBRARIES,
                              "balance": [False, True]}).grid()
        capacities = {min(pps, buses) for pps in n_pps
                      for buses in n_buses}
        with trace.scoped_tracing() as tracer:
            tracer.reset()
            result = run_sweep(SOURCE, points, workers=1,
                               verify_seed=2)
            spans = tracer.snapshot()["spans"]
        trace.reset()
        assert all(record["verified"] for record in result.records)
        frontends = 2
        assert spans["pipeline.transforms"]["count"] == frontends
        assert spans["pipeline.taskgraph"]["count"] == frontends
        assert spans["pipeline.cluster"]["count"] \
            == frontends * len(LIBRARIES)
        assert spans["pipeline.schedule"]["count"] \
            == frontends * len(LIBRARIES) * len(capacities)
        assert spans["pipeline.allocate"]["count"] == len(points)
        assert spans["dse.point"]["count"] == len(points)

    def test_a_memo_hit_times_zero_and_a_miss_times_the_work(self):
        frontend = compile_frontend(SOURCE, width=TileParams().width)
        first = map_frontend(frontend, TileParams(n_pps=4))
        again = map_frontend(frontend, TileParams(n_pps=4))
        other = map_frontend(frontend, TileParams(n_pps=2))
        stages = ("taskgraph", "cluster", "schedule")
        assert all(first.timings[stage] > 0 for stage in stages)
        assert all(again.timings[stage] == 0.0 for stage in stages)
        assert other.timings["taskgraph"] == 0.0
        assert other.timings["cluster"] == 0.0
        assert other.timings["schedule"] > 0
        for report in (first, again, other):
            assert report.timings["allocate"] > 0
            assert list(report.timings) == [
                "parse", "transforms", "taskgraph", "cluster",
                "schedule", "allocate"]

    def test_single_point_mapping_times_every_stage(self):
        report = map_source(SOURCE, array=TileArrayParams(n_tiles=2))
        assert list(report.timings) == [
            "parse", "transforms", "taskgraph", "cluster", "schedule",
            "allocate", "multitile"]
        assert all(seconds > 0 for seconds in report.timings.values())
