#!/usr/bin/env python3
"""The schema checker must reject a stats document whose derived counters
disagree with the attribution they are views of.

Usage: schema_mutants_test.py /path/to/check_stats_schema.py STATS.json

The core writes `rename_stall_*` and `window_occupancy_sum` from the
pipeline's stall attribution, so nothing but the checker's equalities
guards them. This test rewrites a valid single-run wsrs-stats-v1
document once per mutant and requires the checker to exit 1 on each:

  - each `counters.rename_stall_*` counter + 1;
  - `counters.window_occupancy_sum` + 1;
  - `issue_width_hist[0]` + 1.

The unmutated document must pass (exit 0). Exit status 0 on success.
Used by the `obs` labelled ctest.
"""

import json
import os
import subprocess
import sys
import tempfile

COUNTERS = ("rename_stall_free_reg", "rename_stall_window",
            "rename_stall_rob", "rename_stall_lsq", "window_occupancy_sum")


def mutants(doc):
    """(label, mutated document) for every mutant of @p doc."""
    for key in COUNTERS:
        m = json.loads(json.dumps(doc))
        m["core"]["counters"][key] += 1
        yield f"counters.{key} + 1", m
    m = json.loads(json.dumps(doc))
    m["core"]["issue_width_hist"][0] += 1
    yield "issue_width_hist[0] + 1", m


def check(checker, doc, tmp):
    path = os.path.join(tmp, "doc.json")
    with open(path, "w") as f:
        json.dump(doc, f)
    r = subprocess.run([sys.executable, checker, path],
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                       text=True)
    return r.returncode, r.stderr.strip()


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    checker, stats = sys.argv[1], sys.argv[2]
    with open(stats) as f:
        doc = json.load(f)
    with tempfile.TemporaryDirectory() as tmp:
        code, err = check(checker, doc, tmp)
        if code != 0:
            sys.exit(f"FAIL: unmutated {stats} exits {code}: {err}")
        for label, m in mutants(doc):
            code, err = check(checker, m, tmp)
            if code != 1:
                sys.exit(f"FAIL: mutant {label} exits {code}, expected 1")
            print(f"{label}: rejected ({err})")
    print("every mutant rejected")


if __name__ == "__main__":
    main()
