"""Unit tests of the benchmark's own logic (no build needed):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import contextlib
import io
import json
import unittest

import run


def fake_item(cid, ms, cached=False, faults=""):
    return {"id": cid, "faults": faults, "ms": ms, "admit_ms": 0.1,
            "engine_ms": ms / 2, "cached": cached, "digest": "0", "total": 4,
            "covered": 3, "vectors": 5, "failures": 0, "error": ""}


def fake_pass(traced, items):
    spans = [
        {"name": "circuit", "start_us": 0, "end_us": 100, "parent": -1, "item": "a", "lane": 0},
        {"name": "synth", "start_us": 0, "end_us": 60, "parent": 0, "item": "a", "lane": 0},
        {"name": "atpg.run", "start_us": 60, "end_us": 98, "parent": 0, "item": "a", "lane": 0},
        {"name": "atpg.random_tpg", "start_us": 61, "end_us": 90, "parent": 2, "item": "a",
         "lane": 0},
    ]
    return {"traced": traced, "wall_s": 1.0 + 0.1 * traced, "peak_rss_mb": 10.0,
            "items": items,
            "counters": {"atpg.faults_searched": 4, "atpg.by_three_phase": 1},
            "spans": spans if traced else []}


class Percentiles(unittest.TestCase):
    def test_tail_quantile_keeps_ten_operations_beyond(self):
        self.assertEqual(run.tail_quantile(0, 0.9), 0.5)
        self.assertEqual(run.tail_quantile(10, 0.9), 0.5)
        self.assertAlmostEqual(run.tail_quantile(50, 0.9), 0.8)
        self.assertAlmostEqual(run.tail_quantile(100, 0.9), 0.9)
        self.assertAlmostEqual(run.tail_quantile(1000, 0.9), 0.9)
        # The 33 circuits of tables leave ten beyond p69.7, however many
        # passes measured each of them.
        self.assertAlmostEqual(run.tail_quantile(33, 0.9), 1 - 10 / 33)
        for ops in range(1, 200):
            q = run.tail_quantile(ops, 0.9)
            if q > 0.5:
                self.assertGreaterEqual(ops - run.math.ceil(q * ops - 1e-9), 10)

    def test_harrell_davis(self):
        values = list(range(1, 101))
        self.assertAlmostEqual(run.percentile(values, 0.5), 50.5, places=6)
        self.assertAlmostEqual(run.percentile(values, 0.9), 90.5, places=3)
        self.assertAlmostEqual(run.percentile([7.0] * 12, 0.9), 7.0)
        self.assertEqual(run.percentile([3.0], 0.5), 3.0)
        self.assertEqual(run.percentile([], 0.5), 0.0)
        # One value crossing a gap moves the estimate by a small part of it.
        low = [1.0] * 20 + [10.0] * 20
        shifted = [1.0] * 19 + [10.0] * 21
        self.assertLess(run.percentile(shifted, 0.5) - run.percentile(low, 0.5), 3.0)

    def test_timing_takes_each_operation_median(self):
        runs = {f"c{v}": [float(v), float(v), 1000.0] for v in range(40)}
        p50, tail, q, ops, n = run.timing(runs)
        self.assertEqual((ops, n), (40, 120))
        self.assertAlmostEqual(q, 1 - 10 / 40)
        self.assertAlmostEqual(p50, 19.5, places=6)
        self.assertAlmostEqual(tail, run.percentile([float(v) for v in range(40)], q))


class HostSpeed(unittest.TestCase):
    def test_nominal_samples_leave_timings_alone(self):
        self.assertAlmostEqual(run.speed_factor([run.CALIBRATION_NOMINAL_MS] * 3), 1.0)

    def test_slower_samples_scale_down_by_the_elasticity(self):
        slow = [run.CALIBRATION_NOMINAL_MS * 1.1] * 5
        self.assertAlmostEqual(run.speed_factor(slow), 1.1 ** -run.CALIBRATION_ELASTICITY)
        # The median: one preempted sample does not move it.
        self.assertAlmostEqual(run.speed_factor(slow + [1000.0]), run.speed_factor(slow))

    def test_normalise_scales_every_timing(self):
        nominal = run.CALIBRATION_NOMINAL_MS
        p = fake_pass(True, [fake_item("si/a", 2.0)])
        p["calibration_ms"] = [2 * nominal] * 3
        raw = {"passes": [p], "setup_s": [0.001, 0.002],
               "setup_calibration_ms": [[nominal] * 5, [2 * nominal] * 5]}
        f = 2 ** -run.CALIBRATION_ELASTICITY
        with contextlib.redirect_stderr(io.StringIO()):
            run.normalise(raw)
        item = p["items"][0]
        self.assertAlmostEqual(p["wall_s"], 1.1 * f)
        self.assertAlmostEqual(item["ms"], 2.0 * f)
        self.assertAlmostEqual(item["engine_ms"], 1.0 * f)
        self.assertAlmostEqual(item["admit_ms"], 0.1 * f)
        self.assertAlmostEqual(p["spans"][0]["end_us"], 100 * f)
        self.assertAlmostEqual(raw["setup_s"][0], 0.001)
        self.assertAlmostEqual(raw["setup_s"][1], 0.002 * f)


class Spans(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = fake_pass(True, [])["spans"]
        selfs = run.self_times(spans)
        self.assertAlmostEqual(selfs["circuit"], 0.002)
        self.assertAlmostEqual(selfs["atpg.run"], 0.009)
        self.assertAlmostEqual(selfs["atpg.random_tpg"], 0.029)

    def test_span_coverage(self):
        self.assertAlmostEqual(run.span_coverage(fake_pass(True, [])["spans"]), 0.98)

    def test_union_merges_overlaps(self):
        self.assertEqual(run.union_length([(0, 10), (5, 15), (20, 30)]), 25)


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.declared = {t: run.declared_metrics(t) for t in (0, 1)}
        if self.declared[0] is None:
            self.skipTest("no BENCHMARK.json")

    def test_end_to_end_names_match_benchmark_json(self):
        for workload in ("tables", "netlists", "serve"):
            passes = [fake_pass(False, [fake_item("si/a", 2.0), fake_item("si/b", 1.0, True)])]
            raw = {"setup_s": [0.001, 0.002]}
            with contextlib.redirect_stderr(io.StringIO()):
                metrics = run.end_to_end(workload, raw, passes)
            metrics["success_frac"] = run.metric(1.0, "fraction")
            run.validate_names(metrics, self.declared[0])

    def test_per_layer_names_match_benchmark_json(self):
        for workload in ("tables", "serve"):
            items = [fake_item("si/a", 2.0, faults="both")]
            passes = [fake_pass(False, items), fake_pass(True, items)]
            with contextlib.redirect_stderr(io.StringIO()):
                metrics = run.per_layer(workload, passes)
            run.validate_names(metrics, self.declared[1])

    def test_mismatch_is_rejected(self):
        declared = {"wall_s": "s", "setup_s": "s"}
        run.validate_names({"wall_s": run.metric(1, "s"), "setup_s": run.metric(1, "s")},
                           declared)
        with self.assertRaises(ValueError):
            run.validate_names({"wall_s": run.metric(1, "s")}, declared)
        with self.assertRaises(ValueError):
            run.validate_names({"wall_s": run.metric(1, "ms"), "setup_s": run.metric(1, "s")},
                               declared)
        with self.assertRaises(ValueError):
            run.validate_names({"wall_s": run.metric(1, "s"), "setup_s": run.metric(1, "s"),
                                "x": run.metric(1, "s")}, declared)


class SeedToCorpus(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.reference = json.loads(run.REFERENCE.read_text())

    def spec(self, workload, seed):
        return run.make_spec(workload, seed, self.reference)

    def test_same_seed_same_inputs(self):
        for workload in ("tables", "netlists", "serve"):
            self.assertEqual(self.spec(workload, 7), self.spec(workload, 7))

    def test_other_seed_other_inputs(self):
        for workload in ("tables", "netlists", "serve"):
            self.assertNotEqual(self.spec(workload, 7), self.spec(workload, 8))

    def test_tables_is_the_paper_suite_in_seeded_order(self):
        ids = [c["id"] for c in self.spec("tables", 3)["circuits"]]
        self.assertEqual(sorted(ids), sorted(run.TABLES))
        self.assertEqual(len(ids), 33)

    def test_netlists_draw_only_recorded_members(self):
        for seed in range(5):
            ids = [c["id"] for c in self.spec("netlists", seed)["circuits"]]
            self.assertEqual(len(ids), len(set(ids)))
            for cid in ids:
                self.assertIn(cid, self.reference["netlists"])
            for cid in run.NETLIST_FIXED:
                self.assertIn(cid, ids)

    def test_serve_streams_send_the_same_requests_repeats_after_originals(self):
        for seed in range(5):
            spec = self.spec("serve", seed)
            ids = [c["id"] for c in spec["circuits"]]
            streams = [[(ids[r["circuit"]], r["faults"]) for r in stream]
                       for stream in spec["streams"]]
            self.assertEqual(len(streams), run.MAX_ORDERS)
            self.assertEqual(len({tuple(s) for s in streams}), len(streams))
            for stream in streams:
                self.assertEqual(sorted(stream), sorted(streams[0]))
                # Each request is sent at most twice; the second time is an
                # exact repeat after the original, so a cache hit.
                counts = {key: stream.count(key) for key in stream}
                self.assertLessEqual(max(counts.values()), 2)
                for key in counts:
                    self.assertIn(f"{key[0]}|{key[1]}", self.reference["serve"])
                repeats = sum(n - 1 for n in counts.values())
                self.assertAlmostEqual(repeats / len(stream), run.SERVE_REPEAT_SHARE,
                                       delta=0.02)


if __name__ == "__main__":
    unittest.main()
