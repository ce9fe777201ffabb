#!/usr/bin/env python3
"""Exercise bench_gate.py on doctored copies of a bench baseline report.

    python3 bench/test_bench_gate.py <bench_gate.py> <BENCH_core.json>

Each candidate scales the baseline's encode/decode seconds per codec, so
the checks it must fail are known exactly.  Exits non-zero on the first
case whose exit status or failed checks differ from the expected ones.
"""
import copy
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path


def scaled(report, factors):
    """`report` with each run's seconds multiplied by
    factors[(codec, "encode"|"decode")] (default 1)."""
    out = copy.deepcopy(report)
    for run in out["runs"]:
        for side in ("encode", "decode"):
            run[f"{side}_seconds"] *= factors.get((run["codec"], side), 1.0)
    return out


def everything(factor):
    return {(codec, side): factor
            for codec in ("sz", "zfp") for side in ("encode", "decode")}


def main(gate, baseline_path):
    baseline = json.loads(Path(baseline_path).read_text())
    missing = copy.deepcopy(baseline)
    del missing["runs"][3]["encode_seconds"]
    no_sz = copy.deepcopy(baseline)
    no_sz["runs"] = [r for r in no_sz["runs"] if r["codec"] != "sz"]
    empty = dict(baseline, runs=[])

    # (name, candidate, expected exit status, expected failed checks)
    cases = [
        ("2.5x faster everywhere", scaled(baseline, everything(1 / 2.5)),
         0, set()),
        ("zfp 10x slower, sz 2.5x faster",
         scaled(baseline, {**everything(1 / 2.5), ("zfp", "encode"): 10.0,
                           ("zfp", "decode"): 10.0}),
         1, {"a"}),
        ("only sz decode 25% slower",
         scaled(baseline, {**everything(1 / 2.5), ("sz", "encode"): 1 / 10,
                           ("sz", "decode"): 1.25}),
         1, {"b"}),
        ("sz only 1.5x faster",
         scaled(baseline, {**everything(1 / 2.5), ("sz", "encode"): 1 / 1.5,
                           ("sz", "decode"): 1 / 1.5}),
         1, {"c"}),
        ("a run without encode_seconds", missing, 2, set()),
        ("no sz runs", no_sz, 2, set()),
        ("empty runs", empty, 2, set()),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as scratch:
        for name, candidate, want_status, want_checks in cases:
            path = Path(scratch) / "candidate.json"
            path.write_text(json.dumps(candidate))
            run = subprocess.run(
                [sys.executable, gate, baseline_path, str(path)],
                capture_output=True, text=True)
            checks = set(re.findall(r"^FAIL \((\w)\)", run.stderr, re.M))
            ok = run.returncode == want_status and checks == want_checks
            print(f"{'ok  ' if ok else 'FAIL'} {name}: exit {run.returncode}, "
                  f"failed checks {sorted(checks)}")
            if not ok:
                failures += 1
                print(run.stdout + run.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
