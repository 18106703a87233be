"""Tests of the benchmark's own logic. Run from the repository root:

    python3 -m unittest discover perfbench/tests
"""

import json
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import benchlib  # noqa: E402
import run  # noqa: E402


def span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent}


class MetricCatalogue(unittest.TestCase):
    def setUp(self):
        self.declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

    def test_names_and_units_use_the_allowed_characters(self):
        names = [name for name, _, _ in benchlib.END_TO_END + benchlib.PER_LAYER]
        names += list(run.WORKLOADS)
        for name in names:
            self.assertRegex(name, benchlib.NAME_RE)
        self.assertEqual(len(names), len(set(names)))
        for _, unit, better in benchlib.END_TO_END + benchlib.PER_LAYER:
            self.assertRegex(unit, benchlib.UNIT_RE)
            self.assertIn(better, ("higher", "lower"))

    def test_the_patterns_reject_what_the_contract_forbids(self):
        for bad in ["", "_wall", ".x", "a b", "wall/s", "x" * 65]:
            self.assertIsNone(benchlib.NAME_RE.match(bad), bad)
        self.assertIsNotNone(benchlib.NAME_RE.match("x" * 64))
        for bad in ["", "m s", "u" * 17]:
            self.assertIsNone(benchlib.UNIT_RE.match(bad), bad)

    def test_benchmark_json_declares_exactly_what_the_script_reports(self):
        for section, catalogue in [
            ("end_to_end", benchlib.END_TO_END),
            ("per_layer", benchlib.PER_LAYER),
        ]:
            declared = [(m["name"], m["unit"], m["better"]) for m in self.declared[section]]
            self.assertEqual(declared, catalogue, section)
        self.assertEqual([w["name"] for w in self.declared["workloads"]], list(run.WORKLOADS))
        bounds = {m["name"]: m["bound"] for m in self.declared["end_to_end"]}
        self.assertTrue(all(0 < bound <= 0.25 for bound in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_every_workload_has_pinned_counts_and_a_document(self):
        reference = json.loads((BENCH_DIR / "reference.json").read_text())
        for name, workload in run.WORKLOADS.items():
            self.assertIn(workload["document"], reference["documents"])
            self.assertEqual(sorted(reference["counts"][name]), sorted(benchlib.PINNED_COUNTS))
        # The sharded run must render the monolithic run's bytes.
        self.assertEqual(
            run.WORKLOADS["fig9_sharded"]["document"], run.WORKLOADS["fig9_mono"]["document"]
        )


class Statistics(unittest.TestCase):
    def test_tail_percentile_needs_ten_samples_beyond_it(self):
        self.assertIsNone(benchlib.tail_percentile(list(range(1, 21))))
        # n = 30: p66 has rank 20 and ten samples above it; p67 has nine.
        self.assertEqual(benchlib.tail_percentile(list(range(30, 0, -1))), (66, 20))
        self.assertEqual(benchlib.tail_percentile(list(range(1, 101))), (90, 90))
        self.assertEqual(benchlib.tail_percentile(list(range(1, 1001))), (99, 990))


class Coverage(unittest.TestCase):
    def test_union_of_descendants_over_traced_wall(self):
        spans = [
            span("figure", 0.0, 10.0, None),
            span("shard", 1.0, 4.0, 0),
            span("sim.campaign", 2.0, 3.0, 1),
            span("shard", 3.0, 6.0, 0),  # overlaps the first shard
            span("replay", 10.0, 20.0, None),
            span("analysis.yield_query", 11.0, 19.0, 4),  # outside the root
        ]
        self.assertAlmostEqual(benchlib.coverage(spans, 0), 0.5)
        # Start-up before main is traced wall that no span covers.
        self.assertAlmostEqual(benchlib.coverage(spans, 0, startup_s=10.0), 0.25)

    def test_spans_are_clipped_to_the_root(self):
        spans = [span("figure", 1.0, 3.0, None), span("figures.doc", 0.0, 5.0, 0)]
        self.assertAlmostEqual(benchlib.coverage(spans, 0), 1.0)

    def test_layer_metrics_attribute_observe_by_figure(self):
        trace = {
            "figure": "fig7",
            "root": 0,
            "spans": [span("figure", 0.0, 2.0, None), span("sim.campaign", 0.0, 2.0, 0)],
            "stage_seconds": {"plan": 0.1, "merge": 0.2, "generate": 0.3, "observe": 0.4,
                              "reduce": 0.5, "transpose": 0.0},
            "counters": {"samples_evaluated": 7, "dies_generated": 7, "faults_generated": 9},
            "counts": {"evaluations": 35, "yield_queries": 2, "observations": 35,
                       "shard_bytes": 0},
        }
        metrics = benchlib.layer_metrics(trace, 0.0)
        self.assertEqual(metrics["apps.observe_cpu_s"], 0.4)
        self.assertEqual(metrics["core.observe_cpu_s"], 0.0)
        self.assertEqual(metrics["sim.campaign_s"], 2.0)
        self.assertEqual(metrics["trace.coverage"], 1.0)
        trace["figure"] = "fig9"
        metrics = benchlib.layer_metrics(trace, 0.0)
        self.assertEqual(metrics["core.observe_cpu_s"], 0.4)
        self.assertEqual(metrics["apps.observe_cpu_s"], 0.0)


class ReferenceChecks(unittest.TestCase):
    def setUp(self):
        self.data = b'[\n  {"mean_mse": 1.5}\n]'
        self.pinned = {"sha256": benchlib.sha256(self.data), "bytes": len(self.data)}

    def test_matching_document_passes(self):
        self.assertIsNone(benchlib.document_mismatch(self.data, self.pinned))

    def test_any_changed_byte_is_a_mismatch(self):
        changed = self.data.replace(b"1.5", b"1.6")
        self.assertEqual(len(changed), len(self.data))
        self.assertIn("differs", benchlib.document_mismatch(changed, self.pinned))
        self.assertIn("differs", benchlib.document_mismatch(self.data + b"\n", self.pinned))
        self.assertIn("no figure", benchlib.document_mismatch(None, self.pinned))

    def test_count_mismatches(self):
        pinned = {"sim.samples": 10, "shard.bytes": 5}
        names = ["sim.samples", "shard.bytes"]
        self.assertEqual(benchlib.count_mismatches({"sim.samples": 10, "shard.bytes": 5},
                                                   pinned, names), [])
        self.assertEqual(len(benchlib.count_mismatches({"sim.samples": 11, "shard.bytes": 5},
                                                       pinned, names)), 1)
        # A count the run did not report is a mismatch, not a pass.
        self.assertEqual(len(benchlib.count_mismatches({"sim.samples": 10}, pinned, names)), 1)

    def test_driver_children_parse_the_campaign_run_log(self):
        log = (
            "shard 0/4 complete (1 attempt)\n"
            "shard 1/4 failed (exit status: 1); retrying (1/2)\n"
            "shard 1/4 complete (2 attempts)\n"
            "shard 2/4 complete (1 attempt)\n"
            "  shard 3/4: 0.09s (188855.0 samples/s)\n"
        )
        self.assertEqual(benchlib.driver_children(log), (4, 1))


if __name__ == "__main__":
    unittest.main()
