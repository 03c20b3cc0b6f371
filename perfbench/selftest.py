"""Self-tests for the benchmark, at toy size (A2/B2 inputs, a few seconds).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import leafatlas  # noqa: E402
import passrun  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_NAMES = ["wall_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mib"]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def namespace_snapshot() -> dict:
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "leafatlas" or name.startswith("leafatlas."):
            for attr, obj in vars(mod).items():
                snap[(name, attr)] = obj
    for cls in (leafatlas.linalg.Subspace, leafatlas.linalg.Lattice):
        snap[(cls.__name__, "__init__")] = cls.__dict__["__init__"]
    return snap


def toy_job():
    job = workloads.load_golden()["toy_pairs"][0]
    return leafatlas.cli.run_job(workloads.job_config(job, "full"))


class MetricsPrinted(unittest.TestCase):
    def test_every_metric_printed_by_name_and_unit(self):
        names = [m["name"] for m in SPEC["end_to_end"]]
        self.assertEqual(names, END_TO_END_NAMES)
        self.assertEqual(list(run.WORKLOADS), list(workloads.BUILDERS))
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))
        for workload in run.WORKLOADS:
            for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                                 "--trace", str(trace), "--toy")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = result["metrics"]
                    self.assertEqual(list(got), [m["name"] for m in wanted])
                    text = "\n".join(lines[:-1])
                    for m in wanted:
                        self.assertEqual(got[m["name"]]["unit"], m["unit"])
                        self.assertIsInstance(got[m["name"]]["value"], (int, float))
                        self.assertRegex(text, rf"\b{m['name']}\s+\S+ {m['unit']}\b")
                    self.assertRegex(text, r"\bfail_ratio\s+\S+ ratio \(\d+/\d+\)")
                    if trace == 0:
                        for m in wanted:
                            self.assertGreater(got[m["name"]]["value"], 0, m["name"])

    def test_fails_outside_a_checkout(self):
        bare = ROOT / ".perfbench_out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("metrics", proc.stdout)


class TracerBehaviour(unittest.TestCase):
    def test_rebinds_every_namespace_and_restores(self):
        before = namespace_snapshot()
        tracer = Tracer()
        tracer.install(leafatlas)
        try:
            # the defining module, a `from .weyl import` binding and the package
            self.assertIsNot(leafatlas.weyl.reduced_word, before[("leafatlas.weyl", "reduced_word")])
            self.assertIs(leafatlas.cli.reduced_word, leafatlas.weyl.reduced_word)
            self.assertIs(leafatlas.reduced_word, leafatlas.weyl.reduced_word)
            toy_job()
        finally:
            tracer.uninstall()
        self.assertEqual(namespace_snapshot(), before)
        # intra-module calls were seen: run_job -> reduced_word via cli's binding,
        # simple_reflection from inside weyl itself
        self.assertGreater(tracer.stats["weyl.reduced_word"][0], 0)
        self.assertGreater(tracer.stats["weyl.simple_reflection"][0], 0)
        self.assertGreater(tracer.stats["linalg.Subspace"][0], 0)

    def test_layer_self_times_sum_to_traced_time(self):
        tracer = Tracer()
        tracer.install(leafatlas)
        start = time.perf_counter_ns()
        try:
            toy_job()
        finally:
            outer = time.perf_counter_ns() - start
            tracer.uninstall()
        layer_self = tracer.layer_self_ns()
        self.assertEqual(sum(layer_self.values()), tracer.root_ns)
        self.assertLessEqual(tracer.root_ns, outer)
        self.assertGreater(tracer.root_ns, 0)
        for name, (calls, incl, self_ns) in tracer.stats.items():
            self.assertLessEqual(self_ns, incl if calls else 0, name)


class FailureAccounting(unittest.TestCase):
    def corrupted_pass(self, workload: str, corrupt) -> dict:
        real_build = workloads.build

        def build(name, seed, toy=False):
            ops = real_build(name, seed, toy)
            first = ops[0]
            ops[0] = first._replace(run=lambda: corrupt(first.run()))
            return ops

        workloads.build = build
        try:
            return passrun.run_pass(workload, 1, time.monotonic(), trace=False, toy=True)
        finally:
            workloads.build = real_build

    def assert_one_unexpected_failure(self, workload: str, doc: dict, reason: str) -> None:
        self.assertEqual([r for _, r in run.failures([doc])], [reason])
        res = run.result([doc], {})
        self.assertEqual((res["correct"], res["failed"], res["attempted"]), (False, 1, len(doc["ops"])))

    def test_corrupted_report_is_a_failure(self):
        doc = self.corrupted_pass("census", lambda out: (out[0], out[1].replace("1", "2", 1)))
        self.assert_one_unexpected_failure(
            "census", doc, "check failed: machine report differs from the golden digest"
        )

    def test_corrupted_enumeration_is_a_failure(self):
        doc = self.corrupted_pass("weyl_enum", lambda out: out[:-1])
        reason = run.failures([doc])[0][1]
        self.assertTrue(reason.startswith("check failed: |W("), reason)
        self.assert_one_unexpected_failure("weyl_enum", doc, reason)
        e2e = run.end_to_end([doc])
        self.assertEqual(e2e["op_samples"], len(doc["ops"]) - 1)

    def test_exception_is_a_failure(self):
        def boom(out):
            raise RuntimeError("injected")

        doc = self.corrupted_pass("sl_toolkit", boom)
        self.assert_one_unexpected_failure("sl_toolkit", doc, "RuntimeError: injected")

    def test_known_defect_in_a_timed_operation_is_a_failure(self):
        doc = passrun.run_pass("sl_toolkit", 1, time.monotonic(), trace=False, toy=True)
        self.assertEqual(run.failures([doc]), [])
        normalize = next(o for o in doc["ops"] if o["label"].startswith("normalize "))
        normalize["error"] = f"{run.KNOWN_DEFECT} (injected)"
        res = run.result([doc], {})
        self.assertEqual((res["correct"], res["failed"]), (False, 1))

    def test_defect_probe_accepts_only_the_known_defect(self):
        probe = passrun.run_defect_probe(toy=True)["probe"]
        self.assertTrue(probe)
        # at this commit every probe input raises the recorded defect
        self.assertTrue(all(o["error"].startswith(run.KNOWN_DEFECT) for o in probe), probe)
        doc = passrun.run_pass("sl_toolkit", 1, time.monotonic(), trace=False, toy=True)
        res = run.result([doc], {}, probe)
        self.assertEqual((res["correct"], res["failed"], res["attempted"]), (True, 0, len(doc["ops"])))
        fixed = [dict(o, error=None) for o in probe]
        self.assertTrue(run.result([doc], {}, fixed)["correct"])
        wrong = [dict(probe[0], error=None, check="normalize_coset is not idempotent")]
        self.assertFalse(run.result([doc], {}, wrong)["correct"])
        other = [dict(probe[0], error="RuntimeError: injected")]
        self.assertFalse(run.result([doc], {}, other)["correct"])


class PerLayer(unittest.TestCase):
    def test_missing_traced_function_is_an_error(self):
        plain = passrun.run_pass("weyl_enum", 1, time.monotonic(), trace=False, toy=True)
        traced = passrun.run_pass("weyl_enum", 1, time.monotonic(), trace=True, toy=True)
        names = ["weyl.reduced_word.calls", "weyl.minimal_coset_reps.yield"]
        values = run.per_layer(names, [plain], [traced])
        self.assertGreater(values["weyl.reduced_word.calls"], 0)
        self.assertGreater(values["weyl.minimal_coset_reps.yield"], 0)
        for gone, name in (("weyl.reduced_word", names[0]), ("weyl.minimal_coset_reps", names[1])):
            with self.subTest(name=name):
                functions = traced["trace"]["functions"]
                kept = functions.pop(gone)
                try:
                    with self.assertRaises(run.BenchError):
                        run.per_layer([name], [plain], [traced])
                finally:
                    functions[gone] = kept

    def test_coset_yield_is_best_when_w_is_not_scanned(self):
        tracer = Tracer()
        tracer.items[("weyl.minimal_coset_reps", None)] = 12
        self.assertEqual(tracer.coset_yield(), 1.0)
        tracer.items[("weyl.enumerate_weyl", "weyl.minimal_coset_reps")] = 48
        self.assertEqual(tracer.coset_yield(), 0.25)


if __name__ == "__main__":
    unittest.main()
