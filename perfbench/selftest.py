"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the answer checker flags wrong answers, that the tracer puts
every wrapped name back, that the seed moves the geography stream but
not the pair sets, and that the command refuses to run without the
program.
"""

import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from speed import REFERENCE_KERNEL_S, SpeedProbe  # noqa: E402
from worker import PARALLEL_FIGURES, QUERY_KINDS, Bench  # noqa: E402

import gonalgeo.cli  # noqa: E402


class _TmpCase(unittest.TestCase):
    def setUp(self):
        scratch = ROOT / ".perfbench-tmp"
        scratch.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=scratch))
        self.addCleanup(shutil.rmtree, self.tmp, True)

    def geography(self, tracer=None) -> Bench:
        bench = Bench("geography", 1, self.tmp, tracer)
        bench.setup()
        bench.prepare_checks()
        return bench


class CheckerTest(_TmpCase):
    def test_setup_answers_pass(self):
        bench = self.geography()
        self.assertEqual([r.problems for r in bench.setup_records if r.problems], [])
        self.assertEqual(len(bench.census), len(workloads.ENVELOPE))

    def test_corrupted_census_payload_is_flagged(self):
        bench = self.geography()
        good = bench.census[3, 8]
        self.assertEqual(check.check_census(good, 3, 8, bench.raw[3, 8]), [])
        for key, delta in (("N1", 1), ("N", 6), ("N_sing", -1), ("M_table[1,0]", 1)):
            bad = dict(good, **{key: str(int(good[key]) + delta)})
            with self.subTest(key=key):
                self.assertNotEqual(check.check_census(bad, 3, 8, bench.raw[3, 8]), [])
        text = json.dumps({"k": 3, "b": 8, "N": good["N"]})
        self.assertNotEqual(check.check_census(check.parse_report(text, "json"), 3, 8, bench.raw[3, 8]), [])

    def test_corrupted_cached_census_is_flagged(self):
        bench = self.geography()
        op = workloads.Op("census", 3, 8, workloads.cli_argv("census", self.tmp / "cache", "csv", 1, "--k", 3, "--b", 8), "csv")
        self.assertEqual(bench.execute(op).problems, [])
        report = self.tmp / "cache" / "census_k3_b8.json"
        doc = json.loads(report.read_text())
        doc["N22"], doc["N3"] = str(int(doc["N22"]) + 3), str(int(doc["N3"]) - 3)
        report.write_text(json.dumps(doc))
        self.assertNotEqual(bench.execute(op).problems, [])

    def test_wrong_exit_code_is_flagged(self):
        bench = self.geography()
        cache = self.tmp / "cache"
        bad_shape = workloads.Op("census", 3, 8, workloads.cli_argv("census", cache, "json", 1, "--k", 3, "--b", 7))
        self.assertTrue(any("exit code 4" in p for p in bench.execute(bad_shape).problems))
        # a genus-1 band search that is expected to give up with exit 3
        give_up = workloads.Op("delta", 3, 6, workloads.cli_argv("delta", cache, "json", 1, 1, 3, "1", "--d-max", 50),
                               expect_rc=3, epsilon="1")
        self.assertNotEqual(bench.execute(give_up).problems, [])  # 50 != the expected ceiling
        wrong = workloads.Op("delta", 3, 6, give_up.argv, expect_rc=0, epsilon="1")
        self.assertTrue(any("exit code 3" in p for p in bench.execute(wrong).problems))

    def test_every_geography_kind_passes_in_every_format(self):
        bench = self.geography()
        ops = workloads.geography_round(random.Random(5), self.tmp / "cache")
        seen = set()
        for op in ops:
            if (op.kind, op.fmt) in seen or (op.kind == "delta" and op.epsilon == "1/100"):
                continue
            seen.add((op.kind, op.fmt))
            self.assertEqual(bench.execute(op).problems, [], op)
        self.assertGreaterEqual(len(seen), 15)


class TraceTest(_TmpCase):
    def test_wrappers_are_removed_after_a_traced_run(self):
        originals = {
            (module, attr): getattr(sys.modules[module], attr)
            for module, attr, _, _ in spans.BINDINGS
            if module in sys.modules
        }
        tracer = spans.Tracer()
        bench = self.geography(tracer)
        for op in workloads.geography_round(random.Random(2), self.tmp / "cache")[:40]:
            self.assertEqual(bench.execute(op, traced=True).problems, [])
        self.assertEqual(spans.wrapped_names(), [])
        for (module, attr), fn in originals.items():
            self.assertIs(getattr(sys.modules[module], attr), fn)
        names = {span[spans.NAME] for span in tracer.spans}
        self.assertIn("cli.main", names)
        self.assertIn("bench.setup", names)
        self.assertTrue(all(span[spans.END] is not None for span in tracer.spans))

    def test_spans_are_removed_even_when_the_program_raises(self):
        tracer = spans.Tracer()
        tracer.install()
        try:
            with self.assertRaises(Exception):
                gonalgeo.cli.read_census(self.tmp, 3, 8)
        finally:
            tracer.remove()
        self.assertEqual(spans.wrapped_names(), [])
        self.assertFalse(tracer.spans[-1][spans.OK])

    def test_self_time_subtracts_children(self):
        rows = [
            ["bench.measure", 0.0, 10.0, None, None, True],
            ["cli.main", 1.0, 9.0, 0, None, True],
            ["cache.read_census", 2.0, 3.0, 1, None, True],
            ["invariants.surface_invariants", 4.0, 8.0, 1, None, True],
        ]
        figures = spans.layer_metrics(rows)
        self.assertAlmostEqual(figures["cli.self_s"], 3.0)
        self.assertAlmostEqual(figures["cache.read_s"], 1.0)
        self.assertAlmostEqual(figures["invariants.evaluate_s"], 4.0)


class StreamTest(unittest.TestCase):
    @staticmethod
    def pairs(ops):
        return sorted((op.kind, op.k, op.b) for op in ops if op.kind not in ("oracle", "asymptotics"))

    def test_seed_changes_the_geography_stream_but_not_the_pair_sets(self):
        a = workloads.make_round("geography", random.Random(1), "cache")
        b = workloads.make_round("geography", random.Random(2), "cache")
        self.assertNotEqual(a, b)
        self.assertEqual(a, workloads.make_round("geography", random.Random(1), "cache"))
        self.assertEqual(self.pairs(a), self.pairs(b))
        self.assertEqual(
            sorted((op.k, op.b, op.epsilon) for op in a if op.kind == "delta"),
            sorted((op.k, op.b, op.epsilon) for op in b if op.kind == "delta"),
        )
        rounds = {
            "enumerate": lambda rng: workloads.make_round("enumerate", rng, "c"),
            "classify": lambda rng: workloads.make_round("classify", rng, "c"),
            "parallel": lambda rng: workloads.parallel_round(rng, "c"),
        }
        for name, make in rounds.items():
            with self.subTest(round=name):
                x, y = make(random.Random(1)), make(random.Random(2))
                self.assertEqual(self.pairs(x), self.pairs(y))
                self.assertEqual(sorted(x, key=repr), sorted(y, key=repr))

    def test_round_mix_matches_the_declared_shares(self):
        ops = workloads.make_round("geography", random.Random(3), "cache")
        counts = {kind: sum(op.kind == kind for op in ops) for kind in workloads.GEOGRAPHY_ROUND}
        self.assertEqual(counts, workloads.GEOGRAPHY_ROUND)
        self.assertEqual(sum(op.audit for op in ops), workloads.INVARIANTS_WITH_AUDIT)


class SpecTest(unittest.TestCase):
    def test_benchmark_json_names_what_the_runs_print(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        per_layer = set(spans.layer_metrics([]))
        per_layer |= {"trace.overhead_s", "trace.overhead_share", "pool.overhead_ms", *PARALLEL_FIGURES}
        per_layer |= {f"query.{kind}_p50_ms" for kind in QUERY_KINDS}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, per_layer)
        self.assertEqual(
            {m["name"] for m in spec["end_to_end"]},
            {"setup_s", "work_per_s", "op_p50_ms", "op_p99_ms", "peak_rss_mib"},
        )
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "geography", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)


class SpeedProbeTest(unittest.TestCase):
    def test_normalise_removes_probe_time_and_rescales(self):
        probe = SpeedProbe()
        probe.starts = [1.0, 1.5]
        probe.durations = [2 * REFERENCE_KERNEL_S, 2 * REFERENCE_KERNEL_S]
        # 1 s interval holding two samples taken at half the reference speed
        expected = (1.0 - 4 * REFERENCE_KERNEL_S) / 2
        self.assertAlmostEqual(probe.normalise(0.9, 1.9), expected)
        # an interval with no sample inside takes the samples either side
        self.assertAlmostEqual(probe.normalise(1.1, 1.2), 0.05)


if __name__ == "__main__":
    unittest.main()
