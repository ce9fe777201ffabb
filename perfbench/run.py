#!/usr/bin/env python3
"""Repository benchmark: build the perfbench driver from source, run one workload.

    python3 perfbench/run.py --workload pca-sz --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  The first run configures and builds
the library and the driver under $CARGO_TARGET_DIR (default .bench_build);
later runs reuse that build.  Each run measures one workload in its own
process.  The last line of standard output is the JSON result; the exit
status is non-zero when the build or the run fails or any output checks
incorrect.  perfbench/NOTES.md describes the workloads and the metrics.
"""
import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pca-sz", "onebase-zfp", "rmpd-mixed")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_root():
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return root if root.is_absolute() else ROOT / root


def step(command, env):
    subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr, env=env,
                   check=True, timeout=BUILD_TIMEOUT_S)


def build(build_dir, env):
    """Configure once, then build incrementally; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("no library sources under src/: run from the root "
                           "of a full checkout")
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = build_dir / "CMakeCache.txt"
        if not cache.is_file():
            try:
                step(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"], env)
            except BaseException:
                cache.unlink(missing_ok=True)
                raise
        step(["cmake", "--build", str(build_dir), "--target", "perfbench",
              "-j", "4"], env)
    return build_dir / "perfbench"


def problems(result, spec):
    """What makes `result` unacceptable against BENCHMARK.json's `spec`."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"result keys are not {sorted(RESULT_KEYS)}"]
    found = []
    metrics = result["metrics"]
    expected = {m["name"]: m["unit"] for m in spec}
    if set(metrics) != set(expected):
        found.append("metric names differ from BENCHMARK.json: "
                     f"{sorted(set(metrics) ^ set(expected))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            found.append(f"{name} is not a finite number")
        if name in expected and entry.get("unit") != expected[name]:
            found.append(f"{name} has unit {entry.get('unit')!r}, "
                         f"not {expected[name]!r}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        found.append("attempted is not a positive whole number")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        found.append("failed is not a whole number")
    return found


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = spec["per_layer" if args.trace else "end_to_end"]
    out = build_root()
    env = dict(os.environ)
    # Compiler temporaries stay inside the checkout too.
    env["TMPDIR"] = str(out / "tmp")
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    try:
        binary = build(out / "perfbench", env)
    except (OSError, RuntimeError, subprocess.SubprocessError) as error:
        log(f"build failed: {error}")
        return 1

    work = out / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    traces = out / "traces"
    traces.mkdir(exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work),
               "--trace-out", str(traces / f"{args.workload}-{args.seed}.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                             env=env, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"no JSON result (exit status {run.returncode})")
        return 1
    found = problems(result, spec)
    if found:
        log("result refused: " + "; ".join(found))
        return 1
    print(lines[-1], flush=True)
    return 0 if run.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
