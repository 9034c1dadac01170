#!/usr/bin/env python3
"""Run every ablation spec through the sweep path at a tiny length.

Usage: check_bench_specs.py WSRS_SIM SPEC_DIR

Each SPEC_DIR/*.json (a wsrs-space-v1 document) runs as
`wsrs-sim --all --space=SPEC --jobs=2 --warmup=2000 --uops=5000 --csv`.
The run must exit 0 and print one CSV row per (workload, point) pair,
each pair once, so a spec that stops parsing, a renamed preset or a
point label that collides fails here. Exit status 0 on success.
"""

import csv
import glob
import io
import json
import os
import subprocess
import sys

# Profiles a spec without "workloads" runs: the 12 benchmarks of --all.
ALL_PROFILES = 12


def expected_rows(spec):
    """Workloads x points; the bench specs list every axis's values."""
    points = 1
    for axis in spec["axes"]:
        points *= len(axis["values"])
    return len(spec.get("workloads", [None] * ALL_PROFILES)) * points


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binary, spec_dir = sys.argv[1:]
    paths = sorted(glob.glob(os.path.join(spec_dir, "*.json")))
    if not paths:
        sys.exit(f"FAIL: no specs in {spec_dir}")
    for path in paths:
        with open(path) as f:
            want = expected_rows(json.load(f))
        cmd = [binary, "--all", f"--space={path}", "--jobs=2",
               "--warmup=2000", "--uops=5000", "--csv"]
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True)
        if r.returncode != 0:
            sys.exit(f"FAIL {path}: exit {r.returncode}\n"
                     f"  stderr: {r.stderr.strip()}")
        rows = list(csv.DictReader(io.StringIO(r.stdout)))
        pairs = {(row["benchmark"], row["machine"]) for row in rows}
        if len(rows) != want or len(pairs) != want:
            sys.exit(f"FAIL {path}: {len(rows)} rows, {len(pairs)} "
                     f"distinct (benchmark, machine) pairs; expected "
                     f"{want}")
        print(f"ok: {os.path.basename(path)} -> {want} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
