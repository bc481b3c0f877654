#!/usr/bin/env python3
"""Build and run the layer-cost benchmark from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                  # every workload, end-to-end metrics
    python3 perfbench/run.py --self-check     # tiny sizes: names, units, determinism

The benchmark is built from source with dune into .bench_build/ (the
dune cache is disabled, so nothing is written outside the checkout).
Standard output ends with the benchmark's JSON line; the exit code is
non-zero when the build fails, a correctness gate fails or a run times
out.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "dune", "default", "perfbench", "perfbench.exe")
WORKLOADS = ["tlb-walk", "fleet-churn", "durable-churn"]

# Metrics that must repeat exactly for one seed: simulated or counted,
# never timed.  (gc.major_collections is a count but depends on how
# many passes fit in the time budget.)
DETERMINISTIC = {
    "lines_per_miss",
    "pt_bytes_per_page",
    "tlb.miss_ratio",
    "core.walk_probes",
    "core.walk_lines",
    "baselines.hashed_walk_lines",
    "service.write_sections_per_page",
    "service.seqlock_retries",
    "service.seqlock_fallbacks",
    "durable.replayed_records",
    "durable.restored_mappings",
    "durable.wal_bytes_per_page",
}

# Printed by name (not in the JSON object) on the workloads they apply to.
EXTRA = {
    "tlb-walk": [("failed_frac", "fraction")],
    "fleet-churn": [("failed_frac", "fraction")],
    "durable-churn": [
        ("failed_frac", "fraction"),
        ("wal_bytes_per_page", "bytes"),
        ("recovery_p50_ms", "ms"),
    ],
}


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    env = dict(os.environ, XDG_CACHE_HOME=os.path.join(BUILD_DIR, "cache"))
    cmd = [
        "dune", "build", "--root", ROOT, "--build-dir", os.path.join(BUILD_DIR, "dune"),
        "--profile", "release", "--cache=disabled", "./perfbench/perfbench.exe",
    ]
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"perfbench: build failed: {e}\n")
        return False
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        sys.stderr.write("perfbench: build failed\n")
        return False
    return True


def run_exe(args, timeout=170):
    """Run the benchmark binary; returns (exit code, stdout)."""
    try:
        p = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 124, ""
    return p.returncode, p.stdout


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        b = json.load(f)
    units = lambda key: {m["name"]: m["unit"] for m in b[key]}
    return units("end_to_end"), units("per_layer")


def check_output(workload, trace, code, out, expected, problems):
    """Names, units and correctness of one run; returns its metrics."""
    where = f"{workload} trace={trace}"
    if code != 0:
        problems.append(f"{where}: exit code {code}")
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        problems.append(f"{where}: last line is not JSON")
        return {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: not correct ({result.get('failed')} failed)")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted {result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{where}: metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name, {})
        if m.get("unit") != unit:
            problems.append(f"{where}: {name} unit {m.get('unit')!r}, want {unit!r}")
        if trace == 0 and not m.get("value"):
            problems.append(f"{where}: {name} is {m.get('value')}")
    printed = expected.items() if trace == 1 else list(expected.items()) + EXTRA[workload]
    for name, unit in printed:
        if not any(l.startswith(f"metric  {name} = ") and l.endswith(f" {unit}")
                   for l in lines):
            problems.append(f"{where}: no printed line for {name} [{unit}]")
    return {k: v.get("value") for k, v in metrics.items()}


def self_check():
    e2e, layers = load_benchmark()
    problems = []
    for workload in WORKLOADS:
        for trace, expected in ((0, e2e), (1, layers)):
            runs = []
            for _ in range(2):
                t0 = time.time()
                code, out = run_exe(["--workload", workload, "--seed", "7", "--seconds",
                                     "0.2", "--trace", str(trace), "--size", "tiny"])
                runs.append(check_output(workload, trace, code, out, expected, problems))
                print(f"self-check: {workload} trace={trace} ran in {time.time() - t0:.1f} s")
            for name in DETERMINISTIC & set(expected):
                a, b = (r.get(name) for r in runs)
                if a != b:
                    problems.append(f"{workload}: {name} not deterministic ({a} vs {b})")
    for p in problems:
        print("self-check FAILED:", p)
    print("self-check", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--self-check", action="store_true")
    a = ap.parse_args()
    if not build():
        return 2
    if a.self_check:
        return self_check()
    # one process per workload, so each reports its own heap peak
    codes = []
    for workload in WORKLOADS if a.workload == "all" else [a.workload]:
        code, out = run_exe(["--workload", workload, "--seed", str(a.seed),
                             "--seconds", str(a.seconds), "--trace", str(a.trace),
                             "--out", os.path.join(BUILD_DIR, "spans")])
        sys.stdout.write(out)
        sys.stdout.flush()
        codes.append(code)
    if a.workload == "all":
        print(json.dumps({"correct": not any(codes), "workloads": len(codes)}))
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
