"""Self-test of the benchmark.

Run from the repository root::

    python3 perfbench/selftest.py

(or ``python3 -m pytest perfbench/selftest.py``).  It runs every
workload in tiny mode, plain and traced, and checks that:

* every end-to-end and per-layer metric is emitted with its unit;
* exact values (quality sums, counts) repeat exactly for one seed;
* the wraps see every call the program's own tracer sees;
* runs leave no directory and no daemon behind;
* the catalogue explains every metric of ``BENCHMARK.json``, and the
  benchmark fails cleanly in a directory that holds only itself.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import catalogue  # noqa: E402
from run import MANIFEST, UNITS, exact  # noqa: E402

WORKLOADS = [workload["name"] for workload in MANIFEST["workloads"]]
END_TO_END = [metric["name"] for metric in MANIFEST["end_to_end"]]
PER_LAYER = [metric["name"] for metric in MANIFEST["per_layer"]]


def _bench(*args: str, cwd=ROOT) -> tuple[int, str]:
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)
    return process.returncode, process.stdout


@functools.lru_cache(maxsize=None)
def tiny_run(workload: str, trace: int, attempt: int) -> dict:
    """One tiny run's result line (``attempt`` tells repeats apart)."""
    code, stdout = _bench("--workload", workload, "--seed", "3",
                          "--seconds", "0.5", "--trace", str(trace),
                          "--tiny")
    assert code == 0, stdout
    return json.loads(stdout.strip().splitlines()[-1])


class TinyModeTest(unittest.TestCase):

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    result = tiny_run(workload, trace, 0)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(list(result["metrics"]), table)
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], UNITS[name])
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_exact_values_repeat_exactly(self):
        exact_e2e = ("mapped_cycles_sum", "mapped_energy_sum")
        exact_layers = [name for name in PER_LAYER if exact(name)]
        for workload in WORKLOADS:
            for trace, names in ((0, exact_e2e), (1, exact_layers)):
                with self.subTest(workload=workload, trace=trace):
                    first = tiny_run(workload, trace, 0)["metrics"]
                    second = tiny_run(workload, trace, 1)["metrics"]
                    for name in names:
                        self.assertEqual(first[name], second[name], name)

    def test_runs_leave_nothing_behind(self):
        tiny_run("service-mixed", 0, 0)
        tiny_run("fleet-sweep", 0, 0)
        self.assertFalse((ROOT / ".perfbench_work").exists())
        for cmdline in pathlib.Path("/proc").glob("[0-9]*/cmdline"):
            try:
                argv = cmdline.read_bytes().split(b"\0")
            except OSError:
                continue  # the process ended while we looked
            self.assertFalse(
                b"serve" in argv and any(b".perfbench_work" in part
                                         for part in argv),
                f"leftover daemon: {argv}")


class WrapsSeeEveryCallTest(unittest.TestCase):
    """Each wrapped layer's call count equals the count of the
    program's own span for the same stage."""

    def test_wrap_counts_match_program_spans(self):
        import tempfile

        from layers import PROGRAM_SPANS, Recorder
        from repro.core import pipeline
        from repro.obs import trace
        from repro.obs.export import rollup
        from workloads import CompileSuite, Context, SweepGrid

        entries = []
        original = pipeline.allocate
        (ROOT / ".perfbench_selftest").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(
                dir=ROOT / ".perfbench_selftest") as workdir:
            context = Context(pathlib.Path(workdir))
            recorder = Recorder()
            with trace.scoped_tracing() as tracer:
                tracer.add_sink(entries.append)
                try:
                    with recorder.installed():
                        for workload in (CompileSuite(3, True),
                                         SweepGrid(3, True)):
                            workload.run(context, None, recorder)
                finally:
                    tracer.remove_sink(entries.append)
        shutil.rmtree(ROOT / ".perfbench_selftest", ignore_errors=True)
        self.assertIs(pipeline.allocate, original)
        spans = rollup(entries)
        calls = recorder.calls()
        for layer, span in PROGRAM_SPANS.items():
            with self.subTest(layer=layer):
                self.assertGreater(calls[layer], 0)
                self.assertEqual(calls[layer], spans[span]["count"])


class ManifestTest(unittest.TestCase):

    def test_catalogue_explains_every_workload_and_metric(self):
        self.assertEqual(list(catalogue.WORKLOADS), WORKLOADS)
        self.assertEqual(list(catalogue.MEANING), END_TO_END)
        self.assertEqual(list(catalogue.MOVES), PER_LAYER)

    def test_bare_directory_fails_without_a_result(self):
        bare = ROOT / ".perfbench_selftest"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            (bare / "perfbench").mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in HERE.glob("*.py"):
                shutil.copy(path, bare / "perfbench")
            code, stdout = _bench("--workload", "compile-suite", "--seed",
                                  "1", "--seconds", "1", "--trace", "0",
                                  cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertNotIn('"metrics"', stdout)


if __name__ == "__main__":
    os.chdir(ROOT)
    unittest.main()
