"""The benchmark's catalogue: what the workloads and metrics mean.

``BENCHMARK.json`` at the repository root is the only source of the
workload and metric names, why each workload was chosen, and each
metric's unit, direction and bound.  This module holds the prose the
manifest has no room for: each workload's seed use, loop type and
client count, what each end-to-end metric means on each workload,
and, for each layer metric, the end-to-end metric and workload it
should move.
"""

from __future__ import annotations

WORKLOADS = {
    "compile-suite": {
        "seed": "draws every round of the stratified stream of 745 "
                "distinct kernel programs after the fixed reference "
                "round, and the verification inputs",
        "loop": "closed loop, one in-process caller: map_source onto "
                "the default tile plus a 4-tile mesh, then "
                "verify_mapping",
        "clients": 1,
    },
    "sweep-grid": {
        "seed": "orders three mid-size kernels of similar cost (FIR, "
                "convolution, correlation) in every cycle and picks the "
                "verification inputs",
        "loop": "closed loop, one in-process caller: run_sweep "
                "(workers=1, verify_seed) over a 72-point tile grid, "
                "each sweep into an empty ResultCache",
        "clients": 1,
    },
    "service-mixed": {
        "seed": "after the fixed reference round (80 jobs per client), "
                "draws each client's programs, tiles, program reuse (30% "
                "of cold jobs) and warm repeats (30% of jobs)",
        "loop": "closed loop, 2 client threads against one "
                "process-mode daemon with 2 workers; every half second "
                "both wait, with no job in flight, while the host's "
                "speed is sampled",
        "clients": 2,
    },
    "fleet-sweep": {
        "seed": "orders three mid-size kernels of similar cost (dot, "
                "IIR, FFT) in every cycle and picks the verification "
                "inputs",
        "loop": "closed loop, one caller: run_sweep(remotes=...) of a "
                "64-point grid over 2 single-worker daemons; a fresh "
                "fleet with empty stores for every cycle",
        "clients": 1,
    },
}

#: End-to-end metric -> what it means on each workload.
MEANING = {
    "setup_s": (
        "median of 9 set-ups, 4 timed before the measured pass and 5 "
        "after it: imports, input generation and one warm-up mapping "
        "in a fresh interpreter (compile-suite, sweep-grid); daemon "
        "spawn to healthy plus one warm-up job (service-mixed, "
        "fleet-sweep); scaled to the nominal host on compile-suite "
        "and sweep-grid, raw on the daemon workloads"),
    "latency_ms_p50": (
        "median latency of every cold operation of the run: one "
        "program from source to verified mapping (compile-suite, the "
        "issue's map_ms_p50); one sweep of the grid (sweep-grid, "
        "fleet-sweep); one cold job from submit to result "
        "(service-mixed, job_ms_p50_cold)"),
    "latency_ms_p90": (
        "90th percentile of the same samples, so the run's tail "
        "counts (map_ms_p90, job_ms_p90_cold)"),
    "throughput_per_s": (
        "over the whole run: programs mapped and verified per second "
        "of mapping (compile-suite); design points evaluated and "
        "verified per second of sweeping (sweep-grid, fleet-sweep: "
        "points_per_s); completed jobs per second of the run with 2 "
        "clients (service-mixed: jobs_per_s). Every time of "
        "latency_ms_* and throughput_per_s is scaled to the nominal "
        "host, on which hostspeed.reference_loop takes "
        "hostspeed.NOMINAL_S, by that loop's time sampled between "
        "operations (with a second loop beside it on the daemon "
        "workloads, which keep both vCPUs busy); the printed lines "
        "give the raw value beside each"),
    "success_rate": (
        "1 - error_rate: operations and cross-checks that succeeded "
        "over those attempted"),
    "mapped_cycles_sum": (
        "sum of mapped cycles over the reference round, the same "
        "programs and points for every seed; exact, guards mapping "
        "quality: its bound of 1e-7 makes one more cycle a regression"),
    "mapped_energy_sum": (
        "sum of the energy proxy (rounded to 0.1 units per result) over "
        "the same results; exact, and its bound of 1e-7 makes 0.1 more "
        "units a regression"),
    "peak_rss_mb": (
        "peak resident memory of the process doing the mapping: the "
        "benchmark process (compile-suite, sweep-grid) or the largest "
        "daemon process tree (service-mixed, fleet-sweep)"),
}

_FRONTEND = "map_ms_p50 (latency_ms_p50) / compile-suite vs sweep-grid"
_BACKEND = "points_per_s (throughput_per_s) / sweep-grid vs compile-suite"
_FLEET = "points_per_s / fleet-sweep vs everything else"
_MULTITILE = "map_ms_p90 / compile-suite vs every other"
_VERIFY = "every throughput and latency metric / all four"
_SWEEP = "points_per_s / sweep-grid"

#: Layer metric -> the end-to-end metric and workload it should move.
MOVES = {
    "cdfg.build.calls": _FRONTEND,
    "cdfg.build.self_ms": _FRONTEND,
    "cdfg.nodes": _FRONTEND,
    "transforms.calls": _FRONTEND,
    "transforms.self_ms": "map_ms_p50, map_ms_p90 and job_ms_p50_cold "
                          "/ compile-suite vs sweep-grid",
    "transforms.nodes_out": _FRONTEND,
    "transforms.rewrites": _FRONTEND,
    "core.taskgraph.calls": _BACKEND,
    "core.taskgraph.self_ms": _BACKEND,
    "core.taskgraph.tasks": _BACKEND,
    "core.clustering.calls": _BACKEND,
    "core.clustering.self_ms": _BACKEND,
    "core.clustering.clusters": _BACKEND,
    "core.scheduling.calls": _BACKEND,
    "core.scheduling.self_ms": _BACKEND,
    "core.scheduling.inserted_levels": _BACKEND,
    "core.allocation.calls": _BACKEND,
    "core.allocation.self_ms": "points_per_s / sweep-grid and "
                               "fleet-sweep, map_ms_p50 / compile-suite; "
                               "mapped_cycles_sum guards it; warm "
                               "service-mixed jobs bypass it",
    "core.allocation.moves": _BACKEND,
    "core.allocation.stalls": _BACKEND,
    "multitile.calls": _MULTITILE,
    "multitile.self_ms": _MULTITILE,
    "multitile.transfers": _MULTITILE,
    "verify.calls": _VERIFY,
    "verify.self_ms": _VERIFY,
    "verify.mismatches": "success_rate / all four",
    "eval.metrics.calls": _SWEEP,
    "eval.metrics.self_ms": _SWEEP,
    "dse.runner.point.calls": _SWEEP,
    "dse.runner.point.self_ms": _SWEEP,
    "dse.runner.point_ms_p50": _SWEEP,
    "dse.runner.frontends": _SWEEP,
    "dse.cache.calls": _SWEEP,
    "dse.cache.self_ms": _SWEEP,
    "dse.cache.gets": _SWEEP,
    "dse.cache.puts": _SWEEP,
    "dse.cache.hit_ratio": _SWEEP,
    "dse.distributed.lease_ms_p50": _FLEET,
    "dse.distributed.lease_ms_p90": _FLEET,
    "dse.distributed.chunks": _FLEET,
    "dse.distributed.leases": _FLEET,
    "dse.distributed.stolen": _FLEET,
    "dse.distributed.local_records": _FLEET,
    "service.queue.wait_ms_p50": "job_ms_p90_cold / service-mixed",
    "service.queue.wait_ms_p90": "job_ms_p90_cold / service-mixed",
    "service.workers.runtime_ms_p50": "job_ms_p50_cold / service-mixed",
    "service.workers.runtime_ms_p90": "job_ms_p50_cold / service-mixed",
    "service.workers.frontend_reuse_ratio": "job_ms_p50_cold / "
                                            "service-mixed",
    "service.store.hit_ratio": "job_ms_p50_warm / service-mixed",
    "service.store.warm_ms_p50": "job_ms_p50_warm / service-mixed",
    "service.store.warm_ms_p90": "job_ms_p90_warm / service-mixed",
    "service.http.overhead_ms_p50": "job_ms_p50_warm / service-mixed",
    "service.http.overhead_ms_p90": "job_ms_p50_warm / service-mixed",
    "trace.overhead_ratio": "none: traced over plain time of the same "
                            "fixed round, per workload",
}
