"""Tests of the benchmark's own code.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests
"""

import re
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

# Entry points that ROADMAP items 2-3 remove or fold away: the pipelined
# drive and its depth knob, the grid strategy switch, the lookahead
# prefetch, and the `*_mode` drive variants. The benchmark must not
# call them, so that it still builds and measures after they are gone.
REMOVED = [
    r"\bDriveMode\b",
    r"\bGridStrategy\b",
    r"--strategy\b",
    r"--drive-mode\b",
    r"\brun_block_frontend\b",
    r"\bset_pipeline_depth\b",
    r"prefetch",
    r"\b\w+_mode\s*\(",
]
SOURCE_SUFFIXES = {".py", ".rs", ".toml"}


def offending_lines(text):
    return [
        (n, line.strip())
        for n, line in enumerate(text.splitlines(), 1)
        for pattern in REMOVED
        if re.search(pattern, line)
    ]


class DurableEntryPoints(unittest.TestCase):
    def test_scanner_catches_each_removed_entry_point(self):
        for snippet in ("use bp_sim::DriveMode;", "Engine::new().with_strategy(GridStrategy::Auto)",
                        "bp grid paper --strategy fused", "bp grid paper --drive-mode scalar",
                        "p.run_block_frontend(&block)", "set_pipeline_depth(8)",
                        "tage.prefetch(pc)", "simulate_stream_mode(p, s, m)"):
            self.assertTrue(offending_lines(snippet), snippet)

    def test_benchmark_sources_use_no_removed_entry_point(self):
        this = Path(__file__).resolve()
        sources = [p for p in sorted(BENCH.rglob("*"))
                   if p.suffix in SOURCE_SUFFIXES and p != this and "target" not in p.parts]
        self.assertTrue(any(p.name == "main.rs" for p in sources))
        for path in sources:
            with self.subTest(path=str(path.relative_to(BENCH))):
                self.assertEqual(offending_lines(path.read_text()), [])


class EngineFigures(unittest.TestCase):
    def test_two_workers_ramp_down_after_the_second_to_last_completion(self):
        # Completions at 1, 2, 3, 4 s, exit at 5 s: both workers busy to
        # 3 s, one from 3 to 4 s; the tail runs from 3 s to the exit.
        busy, tail = run.engine_stats([1.0, 2.0, 3.0, 4.0], 5.0, 2)
        self.assertAlmostEqual(busy, 2 * 3.0 + 1.0)
        self.assertAlmostEqual(tail, 2.0)

    def test_one_worker_tail_is_the_time_after_the_last_completion(self):
        busy, tail = run.engine_stats([0.5, 1.5], 2.0, 1)
        self.assertAlmostEqual(busy, 1.5)
        self.assertAlmostEqual(tail, 0.5)


class SeededInputs(unittest.TestCase):
    NAMES = [f"B{i:02d}" for i in range(80)]

    def test_same_seed_same_inputs(self):
        self.assertEqual(run.scenario_spec(5, self.NAMES), run.scenario_spec(5, self.NAMES))
        self.assertEqual(run.replay_subset(7, self.NAMES), run.replay_subset(7, self.NAMES))

    def test_scenario_has_distinct_tenants_bursts_and_flushes(self):
        for variant in range(run.SCENARIO_VARIANTS):
            spec = run.scenario_spec(variant, self.NAMES)
            tenants = [t["benchmark"] for t in spec["tenants"]]
            self.assertEqual(len(set(tenants)), run.SCENARIO_TENANTS)
            bursts = spec["schedule"]["seeded_bursts"]
            self.assertLess(bursts["min"], bursts["max"])
            self.assertEqual(spec["flush"]["mode"], "partial")

    def test_every_variant_has_stored_reference_counts(self):
        ref = run.load_reference("scenarios.json")
        self.assertEqual(set(ref["variants"]), {str(v) for v in range(run.SCENARIO_VARIANTS)})
        replay = run.load_reference("replay.json")
        self.assertEqual(len(replay["cells"]), 80)
        for cells in replay["cells"].values():
            self.assertEqual(set(cells), set(run.REPLAY_CONFIGS))
        sweep = run.load_reference("sweep.json")
        self.assertEqual(sweep["instructions"], run.SWEEP_INSTR)
        self.assertEqual(sum(len(row) for row in sweep["mpki"]), run.SWEEP_CELLS)


if __name__ == "__main__":
    unittest.main()
