"""Tests of the benchmark itself, on tiny workloads.

    python3 bench/selftest.py

Each smoke run must print every metric BENCHMARK.json names, with its unit,
and pass its own output checks; a tampered output file must count as a
failed operation; and without the package source the benchmark must exit
non-zero without printing a result.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def smoke_args(workload, seed=0, trace=0):
    return ["--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--smoke"]


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


class SmokeRuns(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in SPEC["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    proc = subprocess.run(
                        [sys.executable, str(run.BENCH / "run.py"),
                         *smoke_args(workload["name"], trace=trace)],
                        capture_output=True, text=True, timeout=170, check=True)
                    result = result_of(proc.stdout)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for m in result["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))


class TamperedOutput(unittest.TestCase):
    def run_tampered(self, seed: int) -> dict:
        real = run.Spawner.run

        def run_then_tamper(spawner, argv, cwd, *args, **kwargs):
            proc = real(spawner, argv, cwd, *args, **kwargs)
            csv_path = cwd / "out" / "montecarlo.csv"
            if csv_path.is_file():
                lines = csv_path.read_text().splitlines()
                fields = lines[1].split(",")
                fields[2] = "1e300"      # proposed mean above every baseline
                lines[1] = ",".join(fields)
                csv_path.write_text("\n".join(lines) + "\n")
            return proc

        run.Spawner.run = run_then_tamper
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                self.assertEqual(run.main(smoke_args("paper-mc", seed=seed)), 0)
        finally:
            run.Spawner.run = real
        return result_of(out.getvalue())

    def test_tampered_file_is_a_failure_with_and_without_reference(self):
        self.assertIn("0", run.load_reference()["paper-mc@smoke"])
        for seed in (0, 987654):
            with self.subTest(seed=seed):
                result = self.run_tampered(seed)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"] / result["attempted"], 0.0)


class NoProgram(unittest.TestCase):
    def test_exits_non_zero_without_a_result(self):
        bare = run.WORK / "bare-copy"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.BENCH, bare / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "paper-mc",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
