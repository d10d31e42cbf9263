#!/usr/bin/env python3
"""Repository benchmark: build the driver, run one workload, gate correctness.

Run from the repository root:

    python3 perfbench/run.py --workload figure_grid --seed 1 --seconds 20 --trace 0

Builds perfbench/ (the virec library plus the virec-bench driver) into
.bench_build/perfbench, runs the driver, passes its report through, and
prints as the last line one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1
the per-layer metrics of a traced run (spans go to
.bench_build/perfbench/trace-<workload>-<seed>.json).

The simulated-statistics digest of each (workload, seed, sizing, binary)
is remembered in .bench_build/perfbench/digests.json; a later run of the
same binary that prints a different digest is reported as incorrect.
--smoke runs the tiny sizing (see perfbench/smoke_test.py).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "virec-bench")
WORKLOADS = ("figure_grid", "manycore", "sampled_store")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then let cmake rebuild whatever changed."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json promises for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def binary_sha256():
    h = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digest_agrees(key, digest):
    """Record the digest on first sight; afterwards it must not change."""
    path = os.path.join(BUILD, "digests.json")
    seen = {}
    if os.path.exists(path):
        with open(path) as f:
            seen = json.load(f)
    if key in seen:
        return seen[key] == digest
    seen[key] = digest
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizing: every workload in a few seconds")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    tag = f"{args.workload}-{args.seed}"
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--store-dir", os.path.join(BUILD, f"store-{os.getpid()}")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(BUILD, f"trace-{tag}.json")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log(f"driver failed with exit code {proc.returncode}")
        return 1
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    expected = expected_metrics(args.trace)
    if expected is not None:
        got = {name: m["unit"] for name, m in metrics.items()}
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            log(f"metrics differ from BENCHMARK.json: missing {missing}, "
                f"extra {extra}, or units differ")
            return 1

    key = (f"{args.workload}|seed={args.seed}|smoke={int(args.smoke)}|"
           f"{binary_sha256()}")
    stable = digest_agrees(key, result["digest"])
    if not stable:
        print(f"FAILED: digest {result['digest']} differs from an earlier "
              f"run of this binary")
    print(json.dumps({
        "correct": bool(result["correct"]) and stable,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
