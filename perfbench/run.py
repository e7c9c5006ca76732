#!/usr/bin/env python3
"""The repository's benchmark of record.

Run from the repository root::

    python3 perfbench/run.py --workload compile-suite --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
its times are scaled to a nominal host speed (:mod:`hostspeed`), and
the lines before the result give the raw time beside each.
``--trace 1`` is the separate traced run: it alternates plain and
traced passes over the workload's reference round and reports the
per-layer metrics, with self times and the tracing overhead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it list every metric with its unit and sample count.  The exit
code is 1 when any mapping, verification or cross-check failed.

``--tiny`` runs a handful of programs, points and jobs (the self-test
uses it).  A traced run writes its spans, one JSON object per line, to
``.perfbench_out/spans-<workload>-<seed>.ndjson``.  Workload and
metric names, units and the run length come from ``BENCHMARK.json``;
:mod:`catalogue` says what they mean.  Every run works in a fresh
directory under ``.perfbench_work/`` and removes it, daemons
included, when it ends.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402 — the set-up probe times the imports
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Where traced runs leave their span logs.
OUT = ROOT / ".perfbench_out"

#: The benchmark's manifest: workloads, metrics, units, bounds.
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {metric["name"]: metric["unit"] for metric
         in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 9


def exact(name: str) -> bool:
    """Whether layer metric *name* is a count or a ratio of counts,
    which must repeat exactly for one seed."""
    return UNITS[name] in ("count", "ratio") \
        and name != "trace.overhead_ratio"


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def _context(stack: contextlib.ExitStack, workdir: pathlib.Path):
    """A new :class:`workloads.Context` that *stack* closes, daemons
    and all, however the run ends."""
    from workloads import Context
    context = Context(workdir)
    stack.callback(context.close)
    return context


def _probe_setup(args, workdir: pathlib.Path) -> float:
    """In a fresh interpreter: imports, inputs and one warm-up."""
    from workloads import WORKLOADS
    with contextlib.ExitStack() as stack:
        WORKLOADS[args.workload](args.seed, args.tiny).setup(
            _context(stack, workdir))
    return time.perf_counter() - _STARTED


def _timed_setup(args, workload, stack, workdir: pathlib.Path,
                 meter) -> tuple[float, float]:
    """Seconds one set-up takes, scaled and raw.  In-process
    workloads set up in a fresh interpreter, so imports count, and
    are scaled by host-speed samples taken just before and after it.
    Daemon set-ups are raw, their daemons stopped afterwards: a
    sample taken beside one would need its own helper process."""
    if not workload.in_process:
        context = _context(stack, workdir)
        begin = time.perf_counter()
        workload.setup(context)
        seconds = time.perf_counter() - begin
        context.close()
        return seconds, seconds
    meter.sample()
    begin = time.perf_counter()
    probe = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--probe-setup",
         "--workload", args.workload, "--seed", str(args.seed)]
        + (["--tiny"] if args.tiny else []),
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        check=True)
    end = time.perf_counter()
    meter.sample()
    seconds = float(probe.stdout.split()[-1])
    return seconds * meter.scaled(begin, end) / (end - begin), seconds


# ---------------------------------------------------------------------------
# Plain and traced runs
# ---------------------------------------------------------------------------

def plain_run(args, stack, workdir: pathlib.Path):
    from hostspeed import Speedometer
    from workloads import WORKLOADS, p50, p90
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    meter = Speedometer()
    # Half the set-ups are timed before the measured pass and half
    # after it, so that one slow spell of the machine does not move
    # them all.
    setups = [_timed_setup(args, workload, stack,
                           workdir / f"setup-{index}", meter)
              for index in range(SETUP_SAMPLES // 2)]
    context = _context(stack, workdir / "run")
    workload.setup(context)
    result = workload.run(context, time.perf_counter() + args.seconds)
    workload.check(context, result)
    context.close()
    setups += [_timed_setup(args, workload, stack,
                            workdir / f"setup-{index}", meter)
               for index in range(SETUP_SAMPLES // 2, SETUP_SAMPLES)]
    who = (resource.RUSAGE_SELF if workload.in_process
           else resource.RUSAGE_CHILDREN)
    cycles, energy = result.quality_sums()
    ops = max(result.attempted, 1)
    raw = [1000 * (end - begin) for begin, end in result.ops]
    scaled = result.meter.scaled
    latency = [1000 * scaled(*span) for span in result.ops]
    elapsed = sum(scaled(*span) for span in result.busy)
    setup = statistics.median(first for first, _ in setups)
    raw_setup = statistics.median(last for _, last in setups)
    # name -> (value, sample count, raw value or None)
    values = {
        "setup_s": (setup, len(setups),
                    raw_setup if workload.in_process else None),
        "latency_ms_p50": (p50(latency), len(latency), p50(raw)),
        "latency_ms_p90": (p90(latency), len(latency), p90(raw)),
        "throughput_per_s": (result.units / elapsed, result.units,
                             result.units / result.elapsed),
        "success_rate": (1 - result.failed / ops, ops, None),
        "mapped_cycles_sum": (cycles, len(result.quality), None),
        "mapped_energy_sum": (energy, len(result.quality), None),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, 1, None),
    }
    return result, values


def traced_run(args, stack, workdir: pathlib.Path):
    """Alternate plain and traced passes over the reference round
    until ``--seconds`` pass (at least one of each).  Spans stay in
    memory until the end, then go to ``.perfbench_out/``."""
    from layers import Recorder, layer_metrics
    from workloads import WORKLOADS, Pass
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    total = Pass()
    times = {False: [], True: []}
    recorders, layer_sets = [], []
    deadline = time.perf_counter() + args.seconds
    for pair in itertools.count():
        if pair and time.perf_counter() >= deadline:
            break
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            context = _context(stack, workdir / f"pass-{pair}-{int(traced)}")
            workload.setup(context)
            if traced:
                recorder = Recorder()
                with recorder.installed():
                    result = workload.run(context, None, recorder)
                recorders.append(recorder)
                layer_sets.append(layer_metrics(recorder, result))
            else:
                result = workload.run(context, None)
            workload.check(context, result)
            context.close()
            total.attempted += result.attempted
            total.failed += result.failed
            total.errors.extend(result.errors)
            times[traced].append(result.elapsed)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{args.workload}-{args.seed}.ndjson", "w",
              encoding="utf-8") as handle:
        for index, recorder in enumerate(recorders):
            recorder.write(handle, index)
    values = {}
    for name in (metric["name"] for metric in MANIFEST["per_layer"]):
        if name == "trace.overhead_ratio":
            continue
        first = layer_sets[0][name]
        if exact(name):
            total.attempted += 1
            if any(layers[name][0] != first[0]
                   for layers in layer_sets[1:]):
                total.fail(f"{name} differs between traced passes")
            values[name] = first
        else:
            values[name] = (statistics.median(
                layers[name][0] for layers in layer_sets), first[1])
    values["trace.overhead_ratio"] = (
        statistics.median(times[True]) / statistics.median(times[False]),
        len(times[True]))
    return total, values


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[
        workload["name"] for workload in MANIFEST["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=MANIFEST["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a handful of programs, points and jobs")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("FPFA_TRACE", None)
    signal.signal(signal.SIGTERM, _terminate)
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=base))
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    try:
        if args.probe_setup:
            print(_probe_setup(args, workdir))
            return 0
        run = traced_run if args.trace else plain_run
        with contextlib.ExitStack() as stack:
            result, values = run(args, stack, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still owns a directory there
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, samples, *raw) in values.items():
        note = f", raw {raw[0]:.6g}" if raw and raw[0] is not None else ""
        print(f"  {name:40s} {value:>14.6g} {UNITS[name]:12s} "
              f"(n={samples}{note})")
    for error in result.errors:
        print(f"  error: {error}")
    correct = result.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(result.attempted, 1),
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, (value, *_) in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
