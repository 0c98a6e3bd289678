#!/usr/bin/env python3
"""Perf-trajectory gate: diff freshly emitted BENCH_*.json against committed
baselines.

Every bench binary dumps BENCH_<name>.json (bench/bench_util.hpp):

  {"bench": <name>,
   "cost_counters": [<counter>, ...],
   "records": [{"key": {...}, "counters": {...}, "wall_time_ms": <ms>}, ...]}

Records are matched by their key map.  This script compares a fresh run
against the baselines committed under bench/baselines/ and fails on:

  * any counter that differs from its baseline value (the simulation is
    deterministic, so a changed counter is a semantics change, not noise) —
    except the file's cost counters, which may fall (reported as IMPROVED)
    but never rise;
  * a baseline record or counter missing from the fresh run;
  * a fresh record or counter with no baseline value ("not pinned");
  * a key that appears twice in one file;
  * a --require'd bench file missing from the fresh run;
  * > --wall-tolerance aggregate wall-time growth per bench file (wall time
    is noisy per point, so the gate is on the file-level sum over the
    baseline records that carry a wall time).

The benches' qualitative claims (SHAPE CHECK lines) are not checked here:
each bench evaluates its own claims and exits 1 when one fails.

Improvements do NOT fail; refresh the baselines in the same PR that makes
them (see bench/baselines/README.md).

Usage:
  tools/bench_diff.py --baseline bench/baselines --fresh <dir> [options]
"""

import argparse
import json
import os
import sys


def fmt_key(key):
    return "[" + ", ".join(f"{k}={v}" for k, v in key.items()) + "]"


def load_records(path, failures):
    """Returns (cost counter names, {key identity: record}) for one file;
    a duplicate key is a failure (the file cannot say which one it pins)."""
    with open(path) as f:
        doc = json.load(f)
    records = {}
    for r in doc["records"]:
        identity = json.dumps(r["key"], sort_keys=True)
        if identity in records:
            failures.append(f"{os.path.basename(path)}: {fmt_key(r['key'])} "
                            f"duplicate key in {path}")
        records[identity] = r
    return set(doc.get("cost_counters", [])), records


def diff_counters(label, cost, base, fresh, failures, improvements):
    for counter, value in base.items():
        if counter not in fresh:
            failures.append(f"{label} {counter} missing from fresh run")
        elif counter in cost and fresh[counter] < value:
            improvements.append(
                f"{label} {counter} improved {value} -> {fresh[counter]}")
        elif counter in cost and fresh[counter] > value:
            failures.append(
                f"{label} {counter} regressed {value} -> {fresh[counter]}")
        elif fresh[counter] != value:
            failures.append(f"{label} {counter} changed {value} -> "
                            f"{fresh[counter]} (determinism break)")
    for counter in fresh.keys() - base.keys():
        failures.append(f"{label} {counter} not pinned (no baseline value)")


def diff_file(name, base_path, fresh_path, wall_tolerance, failures,
              improvements):
    cost, base = load_records(base_path, failures)
    _, fresh = load_records(fresh_path, failures)
    base_wall = 0.0
    fresh_wall = 0.0
    for identity, b in base.items():
        label = f"{name}: {fmt_key(b['key'])}"
        f = fresh.get(identity)
        if f is None:
            failures.append(f"{label} missing from fresh run")
            continue
        if "wall_time_ms" in b:
            base_wall += b["wall_time_ms"]
            fresh_wall += f["wall_time_ms"]
        diff_counters(label, cost, b["counters"], f["counters"], failures,
                      improvements)
    for identity, f in fresh.items():
        if identity not in base:
            failures.append(f"{name}: {fmt_key(f['key'])} not pinned "
                            f"(no baseline record)")

    if base_wall > 0 and fresh_wall > base_wall * (1.0 + wall_tolerance):
        failures.append(
            f"{name}: aggregate wall time regressed "
            f"{base_wall:.1f} -> {fresh_wall:.1f} ms "
            f"(> {wall_tolerance:.0%} tolerance)")
    elif base_wall > 0:
        delta = (fresh_wall - base_wall) / base_wall
        print(f"bench_diff: {name} wall {base_wall:.1f} -> "
              f"{fresh_wall:.1f} ms ({delta:+.1%})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="directory with committed BENCH_*.json baselines")
    parser.add_argument("--fresh", required=True,
                        help="directory with freshly emitted BENCH_*.json")
    parser.add_argument("--wall-tolerance", type=float, default=0.10,
                        help="allowed fractional aggregate wall-time growth "
                             "per bench file (default 0.10 = 10%%)")
    parser.add_argument("--require", action="append", default=[],
                        help="bench file name that must exist in the fresh "
                             "dir (e.g. BENCH_perf_bcast_64k.json); may be "
                             "repeated")
    args = parser.parse_args()

    baseline_files = sorted(f for f in os.listdir(args.baseline)
                            if f.startswith("BENCH_") and f.endswith(".json"))
    if not baseline_files:
        print(f"bench_diff: no baselines under {args.baseline}", file=sys.stderr)
        return 2

    failures = []
    improvements = []
    compared_files = 0

    for name in args.require:
        if not os.path.exists(os.path.join(args.fresh, name)):
            failures.append(f"{name}: required fresh output missing")

    for name in baseline_files:
        fresh_path = os.path.join(args.fresh, name)
        if not os.path.exists(fresh_path):
            # Only the benches the CTest target runs emit fresh output;
            # other baselines are skipped (they gate full manual sweeps).
            continue
        compared_files += 1
        diff_file(name, os.path.join(args.baseline, name), fresh_path,
                  args.wall_tolerance, failures, improvements)

    if compared_files == 0:
        print("bench_diff: no fresh BENCH_*.json matched any baseline",
              file=sys.stderr)
        return 2
    for line in improvements:
        print(f"bench_diff: IMPROVED {line}")
    for line in failures:
        print(f"bench_diff: FAIL {line}", file=sys.stderr)
    if failures:
        return 1
    print(f"bench_diff: OK ({compared_files} bench file(s) within tolerance)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
