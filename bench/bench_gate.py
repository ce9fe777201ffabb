#!/usr/bin/env python3
"""CI throughput gate: compare two bench/ext_obs_baseline reports.

    python3 bench/bench_gate.py <baseline.json> <candidate.json>

Only runs[].codec, original_bytes, encode_seconds and decode_seconds are
read.  Throughput is the summed bytes over the summed seconds of a set of
runs; gating on that aggregate, not on single runs, keeps the signal
stable, because one sub-millisecond run is too noisy for a percentage
bound.  The gate fails when

  (a) the all-runs encode or decode throughput drops more than 15%,
  (b) the SZ-runs encode or decode throughput drops more than 15%, or
  (c) the SZ-runs combined throughput, bytes over encode+decode seconds,
      is below 2.0x the baseline's (the SZ hot-path criterion of
      DESIGN.md §13).

Exit status: 0 when every check passes, 1 naming each failed check, 2 on
a report it cannot use (unreadable, a run missing a field, empty "runs",
or no "sz" runs).
"""
import json
import sys

MAX_DROP_PCT = 15.0
MIN_SZ_SPEEDUP = 2.0
FIELDS = ("original_bytes", "encode_seconds", "decode_seconds")


def unusable(message):
    print(f"bench_gate: {message}", file=sys.stderr)
    sys.exit(2)


class Aggregate:
    def __init__(self):
        self.runs = 0
        self.bytes = self.encode_seconds = self.decode_seconds = 0.0

    def add(self, run):
        self.runs += 1
        self.bytes += run["original_bytes"]
        self.encode_seconds += run["encode_seconds"]
        self.decode_seconds += run["decode_seconds"]

    def throughput(self, seconds):
        return self.bytes / seconds if seconds > 0 else 0.0


def load(path):
    """The all-runs and SZ-runs aggregates of one report."""
    try:
        with open(path) as f:
            runs = json.load(f)["runs"]
    except (OSError, ValueError, KeyError, TypeError) as error:
        unusable(f"{path}: no readable \"runs\": {error!r}")
    if not isinstance(runs, list) or not runs:
        unusable(f"{path}: \"runs\" must be a non-empty array")
    every, sz = Aggregate(), Aggregate()
    for i, run in enumerate(runs):
        for key in FIELDS:
            value = run.get(key) if isinstance(run, dict) else None
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                unusable(f"{path}: runs[{i}] lacks a numeric \"{key}\"")
        every.add(run)
        if run.get("codec") == "sz":
            sz.add(run)
    if sz.runs == 0:
        unusable(f"{path}: no runs with codec \"sz\"")
    return every, sz


def main(argv):
    if len(argv) != 3:
        unusable("usage: bench_gate.py <baseline.json> <candidate.json>")
    base_all, base_sz = load(argv[1])
    cand_all, cand_sz = load(argv[2])
    failed = []

    def gate_drop(check, what, base_tp, cand_tp):
        drop = (base_tp - cand_tp) / base_tp * 100.0 if base_tp > 0 else 0.0
        print(f"{what} throughput: baseline {base_tp / 1e6:.3f} MB/s, "
              f"candidate {cand_tp / 1e6:.3f} MB/s ({-drop:+.1f}%)")
        if drop > MAX_DROP_PCT:
            failed.append(f"({check}) {what} throughput regressed "
                          f"{drop:.1f}% (threshold {MAX_DROP_PCT:.1f}%)")

    for check, base, cand in (("a", base_all, cand_all),
                              ("b", base_sz, cand_sz)):
        scope = "all runs" if check == "a" else "sz runs"
        print(f"({check}) {scope}: {base.runs} baseline, {cand.runs} candidate")
        gate_drop(check, "encode", base.throughput(base.encode_seconds),
                  cand.throughput(cand.encode_seconds))
        gate_drop(check, "decode", base.throughput(base.decode_seconds),
                  cand.throughput(cand.decode_seconds))

    base_tp = base_sz.throughput(base_sz.encode_seconds +
                                 base_sz.decode_seconds)
    cand_tp = cand_sz.throughput(cand_sz.encode_seconds +
                                 cand_sz.decode_seconds)
    speedup = cand_tp / base_tp if base_tp > 0 else 0.0
    print(f"(c) sz combined throughput: baseline {base_tp / 1e6:.3f} MB/s, "
          f"candidate {cand_tp / 1e6:.3f} MB/s ({speedup:.2f}x, "
          f"required >= {MIN_SZ_SPEEDUP:.2f}x)")
    if speedup < MIN_SZ_SPEEDUP:
        failed.append(f"(c) sz combined throughput speedup {speedup:.2f}x "
                      f"is below the required {MIN_SZ_SPEEDUP:.2f}x")

    for message in failed:
        print(f"FAIL {message}", file=sys.stderr)
    if failed:
        return 1
    print("bench_gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
