#!/usr/bin/env python3
"""The benchmark's own tests, on the reduced-size smoke mode.

    python3 e2ebench/tests/test_e2ebench.py

- every workload prints each metric name with its unit, in both modes, and
  its JSON result carries exactly BENCHMARK.json's metrics;
- the machine-independent counts repeat exactly across two runs of one
  seed, and differ between input variants;
- without the library sources the benchmark exits non-zero and prints no
  result.
"""
import json
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
_runs = {}


def run(workload, seed, trace):
    """One smoke run (cached): (stdout lines, parsed JSON result)."""
    key = (workload, seed, trace)
    if key not in _runs:
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed",
             str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=True)
        lines = out.stdout.strip().splitlines()
        _runs[key] = (lines, json.loads(lines[-1]))
    return _runs[key]


def machine_independent(result):
    return {name: metric["value"] for name, metric in result["metrics"].items()
            if name.endswith((".scheduled", ".cancelled")) or name == "sim.events_per_task"}


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    lines, result = run(workload, 1, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    expected = {m["name"]: m["unit"] for m in SPEC[group]}
                    printed = {l.split()[1]: l.split()[3] for l in lines if l.startswith("metric ")}
                    for name, unit in expected.items():
                        self.assertEqual(printed.get(name), unit, name)
                        self.assertEqual(result["metrics"][name]["unit"], unit, name)
                    self.assertEqual(set(result["metrics"]), set(expected))

    def test_counts_repeat_exactly(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = machine_independent(run(workload, 2, 1)[1])
                _runs.pop((workload, 2, 1))
                self.assertEqual(machine_independent(run(workload, 2, 1)[1]), first)
                # Seeds 3 and 11 select the same input variant.
                self.assertEqual(machine_independent(run(workload, 3, 1)[1]),
                                 machine_independent(run(workload, 11, 1)[1]))
                self.assertNotEqual(machine_independent(run(workload, 3, 1)[1]), first)

    def test_fails_without_library_sources(self):
        build_root = ROOT / ".bench_build"
        build_root.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_root) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, pathlib.Path(tmp) / BENCH_DIR.name)
            out = subprocess.run(
                SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                                   "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
