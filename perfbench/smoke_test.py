#!/usr/bin/env python3
"""Smoke test of the repository benchmark, at the tiny --smoke sizing.

Run from the repository root (takes about a minute, most of it the
first build):

    python3 perfbench/smoke_test.py

For every workload and both modes (--trace 0 and 1) it runs
perfbench/run.py twice back to back and asserts that
  * the run exits 0 and its last line is the result object;
  * every metric BENCHMARK.json names for the mode is in the result and
    printed in the report as "metric <name> <value> <unit>";
  * no point failed (fail_frac = 0) and the result is correct;
  * sampled_store's traced run serves the whole grid from the result
    store (svc.warm_hit_frac = 1);
  * both runs print the same simulated-statistics digest.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("figure_grid", "manycore", "sampled_store")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    assert proc.returncode == 0, f"{cmd} exited {proc.returncode}"
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def check(workload, trace, spec):
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    digests = []
    for _ in range(2):
        report, result = run(workload, trace)
        where = f"{workload} --trace {trace}"
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
        assert result["correct"] is True, where
        assert result["failed"] == 0 and result["attempted"] > 0, where
        printed = {}
        for line in report:
            m = re.match(r"metric (\S+)\s+(\S+) (\S+)$", line)
            if m:
                printed[m.group(1)] = m.group(3)
        for name, unit in expected.items():
            assert result["metrics"][name]["unit"] == unit, (where, name)
            assert printed.get(name) == unit, (where, name, "not printed")
        fail = [line for line in report if line.startswith("fail_frac = ")]
        assert fail and fail[0].split()[2] == "0", (where, fail)
        if workload == "sampled_store" and trace:
            assert result["metrics"]["svc.warm_hit_frac"]["value"] == 1, where
        digests.append([line for line in report if line.startswith("digest ")])
    assert digests[0] and digests[0] == digests[1], (workload, trace, digests)
    print(f"ok {workload} --trace {trace} {digests[0][0]}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check(workload, trace, spec)
    print("smoke test passed")


if __name__ == "__main__":
    main()
