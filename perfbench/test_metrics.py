"""Tests for the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import metrics

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def span(id_, parent, name, start, end, cell=0):
    return {"id": id_, "parent": parent, "cell": cell, "name": name,
            "start_ns": start, "end_ns": end}


def cell(failed=False, setup=1.0, measured=2.0, uops=4e6, cycles=2e6, checks=0):
    return {"label": "x", "failed": failed, "why": "", "total_s": setup + measured,
            "setup_s": setup, "measured_s": measured, "uops": uops,
            "cycles": cycles, "checks": checks, "counters": {}}


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(metrics.tail_percentile(0))
        self.assertIsNone(metrics.tail_percentile(19))
        self.assertEqual(metrics.tail_percentile(20), 0.5)
        self.assertEqual(metrics.tail_percentile(99), 0.5)
        self.assertEqual(metrics.tail_percentile(100), 0.9)
        self.assertEqual(metrics.tail_percentile(999), 0.9)
        self.assertEqual(metrics.tail_percentile(1000), 0.99)
        self.assertEqual(metrics.tail_percentile(10000), 0.999)

    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(metrics.percentile(xs, 0.5), 50)
        self.assertEqual(metrics.percentile(xs, 0.9), 90)
        self.assertEqual(metrics.percentile(xs, 0.99), 99)
        self.assertEqual(metrics.percentile([7], 0.99), 7)


class SelfTime(unittest.TestCase):
    def test_span_minus_direct_children(self):
        spans = [span(1, 0, "bench.cell", 0, 100),
                 span(2, 1, "sim.run", 10, 30),
                 span(3, 1, "sim.run", 50, 60),
                 span(4, 2, "recovery.atomicity", 12, 20)]
        own = metrics.self_times(spans)
        self.assertAlmostEqual(own[1], 70e-9)
        self.assertAlmostEqual(own[2], 12e-9)  # grandchild leaves the parent alone
        self.assertAlmostEqual(own[3], 10e-9)
        self.assertAlmostEqual(own[4], 8e-9)

    def test_overlapping_children_count_once(self):
        spans = [span(1, 0, "faultsim.replay", 0, 100),
                 span(2, 1, "sim.run", 10, 50, cell=1),
                 span(3, 1, "sim.run", 40, 70, cell=1)]
        self.assertAlmostEqual(metrics.self_times(spans)[1], 40e-9)

    def test_layer_sums(self):
        spans = [span(1, 0, "bench.cell", 0, 100),
                 span(2, 1, "sim.warm", 0, 60),
                 span(3, 1, "sim.run", 60, 90)]
        layers = metrics.layer_self_times(spans)
        self.assertAlmostEqual(layers["bench"], 10e-9)
        self.assertAlmostEqual(layers["sim"], 90e-9)


class Failures(unittest.TestCase):
    def test_cells_and_checks_count(self):
        report = {
            "batches": [{"traced": False, "wall_s": 1.0, "cells": [cell(), cell(True)]},
                        {"traced": False, "wall_s": 1.0, "cells": [cell(), cell()]}],
            "checks": [{"name": "a", "ok": True, "detail": ""},
                       {"name": "b", "ok": False, "detail": ""}],
            "peak_rss_mb": 10.0,
        }
        self.assertEqual(metrics.count_failures(report), (6, 2))
        self.assertAlmostEqual(metrics.extra_end_to_end(report)["failed_frac"], 2 / 6)


class EndToEnd(unittest.TestCase):
    def test_medians_over_untraced_batches(self):
        report = {
            "batches": [
                {"traced": False, "wall_s": 3.0, "cells": [cell(), cell(setup=3.0)]},
                {"traced": False, "wall_s": 5.0, "cells": [cell(), cell()]},
                {"traced": False, "wall_s": 4.0, "cells": [cell(), cell()]},
                {"traced": True, "wall_s": 99.0, "cells": [cell(setup=99.0)]},
            ],
            "checks": [], "peak_rss_mb": 12.5,
        }
        v = metrics.end_to_end(report)
        self.assertEqual(v["wall_s"], 4.0)
        self.assertEqual(v["setup_s"], 2.0)
        self.assertEqual(v["measured_s"], 4.0)
        self.assertAlmostEqual(v["sim_mips"], 2.0)
        self.assertAlmostEqual(v["sim_mcycles_per_s"], 1.0)
        self.assertEqual(v["peak_rss_mb"], 12.5)
        self.assertEqual(set(v), {m["name"] for m in SPEC["end_to_end"]})


class ResultLine(unittest.TestCase):
    def test_round_trip(self):
        units = {"wall_s": "s", "peak_rss_mb": "MB"}
        values = {"wall_s": 1.2345678901234567, "peak_rss_mb": 812.7, "extra": 3}
        obj = metrics.parse_result(metrics.result_line(True, 30, 0, values, units))
        self.assertEqual(obj["attempted"], 30)
        self.assertEqual(obj["failed"], 0)
        self.assertIs(obj["correct"], True)
        self.assertEqual(obj["metrics"], {
            "wall_s": {"value": 1.2345678901234567, "unit": "s"},
            "peak_rss_mb": {"value": 812.7, "unit": "MB"}})

    def test_rejects_malformed(self):
        for bad in ('{"correct": true, "attempted": 1, "failed": 0}',
                    '{"correct": 1, "attempted": 1, "failed": 0, "metrics": {}}',
                    '{"correct": true, "attempted": 0, "failed": 0, "metrics": {}}',
                    '{"correct": true, "attempted": 1.5, "failed": 0, "metrics": {}}',
                    '{"correct": true, "attempted": 1, "failed": 0,'
                    ' "metrics": {"a": {"value": "1", "unit": "s"}}}'):
            with self.assertRaises(ValueError):
                metrics.parse_result(bad)


class Spec(unittest.TestCase):
    def test_every_per_layer_metric_has_a_mapping(self):
        self.assertEqual(list(metrics.LAYERS), [m["name"] for m in SPEC["per_layer"]])

    def test_per_layer_computes_every_metric(self):
        report = {"batches": [{"traced": False, "wall_s": 2.0, "cells": [cell()]},
                              {"traced": True, "wall_s": 2.2, "cells": [cell()]}],
                  "checks": [], "peak_rss_mb": 1.0}
        spans = [span(1, 0, "bench.cell", 0, 100), span(2, 1, "sim.run", 10, 90)]
        v = metrics.per_layer(report, spans)
        self.assertEqual(set(v), set(metrics.LAYERS))
        self.assertAlmostEqual(v["trace.overhead_frac"], 0.1)
        self.assertAlmostEqual(v["self.sim_s"], 80e-9)


if __name__ == "__main__":
    unittest.main()
