#!/usr/bin/env python3
"""Span and metrics emission must not perturb the sweep report.

Usage: spans_identity_test.py /path/to/wsrs-sim /path/to/check_stats_schema.py

Runs the full sweep matrix twice on a 2-thread in-process sweep with
warm-up reuse — once with telemetry on (--spans-out + --metrics-out),
once with it off — and checks:

  1. the wsrs-sweep-report-v1 `jobs` and `summary` sections are
     byte-identical between the two runs once canonicalised (sorted
     keys, fixed separators): telemetry must observe, never perturb;
  2. the span log and the metrics snapshot pass the schema checker
     (wsrs-spans-v1 nesting and non-negative durations, wsrs-metrics-v1
     naming and bucket sums);
  3. the span log holds exactly one `job` root span per sweep job, its
     timeline starts at ts 0, and every job records its `warmup` and
     `simulate` stages.

Exit status 0 on success. Used by the `obs` labelled ctest.
"""

import json
import os
import subprocess
import sys
import tempfile

SWEEP = ["--all", "--uops=2000", "--warmup=500", "--reuse-warmup",
         "--jobs=2"]


def run_sweep(binary, tmp, tag, telemetry):
    report = os.path.join(tmp, f"report_{tag}.json")
    extra = []
    if telemetry:
        extra = [f"--spans-out={os.path.join(tmp, 'spans.json')}",
                 f"--metrics-out={os.path.join(tmp, 'metrics.json')}"]
    r = subprocess.run([binary, *SWEEP, f"--stats-json={report}", *extra],
                       stdout=subprocess.DEVNULL,
                       stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.exit(f"FAIL: {tag} sweep exited {r.returncode}: "
                 f"{r.stderr.strip()[-500:]}")
    with open(report) as f:
        return json.load(f)


def canonical(report):
    """The deterministic surface of a sweep report: jobs + summary."""
    return json.dumps({"jobs": report["jobs"],
                       "summary": report["summary"]},
                      sort_keys=True, separators=(",", ":"))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binary, schema_checker = sys.argv[1], sys.argv[2]

    with tempfile.TemporaryDirectory(prefix="wsrs_spans_") as tmp:
        traced = run_sweep(binary, tmp, "traced", telemetry=True)
        plain = run_sweep(binary, tmp, "plain", telemetry=False)

        a, b = canonical(traced), canonical(plain)
        if a != b:
            sys.exit("FAIL: telemetry changed the sweep report "
                     f"({len(a)} vs {len(b)} canonical bytes)")
        total = traced["summary"]["total"]
        print(f"ok: {total}-job report is byte-identical with and "
              "without telemetry")

        spans_path = os.path.join(tmp, "spans.json")
        metrics_path = os.path.join(tmp, "metrics.json")
        subprocess.run([sys.executable, schema_checker, spans_path,
                        metrics_path], check=True,
                       stdout=subprocess.DEVNULL)
        print("ok: span and metrics documents pass the schema checker")

        with open(spans_path) as f:
            spans = json.load(f)
        events = spans["traceEvents"]
        if not any(e["ts"] == 0 for e in events if e["ph"] in "Xi"):
            sys.exit("FAIL: timeline is not rebased to ts 0")
        for stage in ("job", "warmup", "simulate"):
            n = sum(1 for e in events
                    if e["ph"] == "X" and e["name"] == stage)
            if n != total:
                sys.exit(f"FAIL: {n} {stage} spans for {total} jobs")
        print("ok: one job span tree per job, with its warmup and "
              "simulate stages")

    print("spans identity: all checks passed")


if __name__ == "__main__":
    main()
