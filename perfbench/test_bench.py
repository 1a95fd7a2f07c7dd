#!/usr/bin/env python3
"""Self-test of the sdfmap benchmark.

    python3 perfbench/test_bench.py [--binary PATH]

1. A smoke-sized run (1 s) of every workload, untraced and traced, must
   succeed and emit every metric BENCHMARK.json names, each a finite number.
2. The output check must trip: with one committed digest (or the Tab. 5
   rows) corrupted, or with no committed results at all, the run must report
   correct=false and exit non-zero.

Without --binary the benchmark is built first (as perfbench/run.py does).
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work", "selftest")
BINARY = None


def run(workload, trace=0, seconds=1.0, expected_dir=None):
    """Runs the binary; returns (exit code, parsed last stdout line)."""
    command = [BINARY, "--workload", workload, "--seed", "1", "--seconds", str(seconds),
               "--trace", str(trace), "--work-dir", os.path.join(WORK, workload),
               "--expected-dir", expected_dir or os.path.join(HERE, "expected")]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


def corrupted_copy(name, file, transform):
    """A copy of the expected results with `file` rewritten by `transform`."""
    target = os.path.join(WORK, "expected-" + name)
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(os.path.join(HERE, "expected"), target)
    path = os.path.join(target, file)
    with open(path) as handle:
        text = handle.read()
    changed = transform(text)
    assert changed != text, "corruption did not change " + file
    with open(path, "w") as handle:
        handle.write(changed)
    return target


def corrupt_digest(key):
    def transform(text):
        out = []
        for line in text.splitlines(keepends=True):
            if line.startswith(key + " "):
                digest = line.split(" ", 1)[1].strip()
                flipped = ("0" if digest[-1] != "0" else "1")
                line = key + " " + digest[:-1] + flipped + "\n"
            out.append(line)
        return "".join(out)
    return transform


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        cls.end_to_end = [m["name"] for m in spec["end_to_end"]]
        cls.per_layer = [m["name"] for m in spec["per_layer"]]
        cls.workloads = [w["name"] for w in spec["workloads"]]

    def check_metrics(self, result, names):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), set(names))
        for name in names:
            value = result["metrics"][name]["value"]
            self.assertIsInstance(value, (int, float), name)
            self.assertTrue(math.isfinite(value), name)

    def test_smoke_every_metric(self):
        for workload in self.workloads:
            for trace, names in ((0, self.end_to_end), (1, self.per_layer)):
                with self.subTest(workload=workload, trace=trace):
                    code, result, err = run(workload, trace)
                    self.assertEqual(code, 0, err[-2000:])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.check_metrics(result, names)
                    if trace == 0:
                        for name in names:
                            self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_corrupted_digest_trips(self):
        cases = [("multimedia", "multimedia.digests", "app0.h263_0"),
                 ("sweep", "sweep.digests", "set00.fn0.seq0.arch0"),
                 ("daemon", "daemon.digests", "hot.0")]
        for workload, file, key in cases:
            with self.subTest(workload=workload):
                expected = corrupted_copy(workload, file, corrupt_digest(key))
                code, result, _ = run(workload, 0, 2.0, expected)
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_missing_expected_trips(self):
        empty = os.path.join(WORK, "expected-empty")
        shutil.rmtree(empty, ignore_errors=True)
        os.makedirs(empty)
        for workload in self.workloads:
            with self.subTest(workload=workload):
                code, result, _ = run(workload, 0, 1.0, empty)
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_corrupted_rows_trip(self):
        expected = corrupted_copy("rows", "table5.txt", lambda t: t.replace("0.57", "0.58", 1))
        code, result, _ = run("sweep", 0, 1.0, expected)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])


def main():
    global BINARY
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary")
    args, rest = parser.parse_known_args()
    BINARY = args.binary
    if not BINARY:
        sys.path.insert(0, HERE)
        import run as runner  # noqa: E402
        env = {k: v for k, v in os.environ.items() if not k.startswith("SDFMAP_")}
        build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        BINARY = runner.build(os.path.abspath(os.path.join(ROOT, build_root, "perfbench")), env)
        if BINARY is None:
            return 2
    os.makedirs(WORK, exist_ok=True)
    program = unittest.main(argv=[sys.argv[0]] + rest, exit=False)
    return 0 if program.result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
