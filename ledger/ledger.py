#!/usr/bin/env python3
"""Performance ledger of the WSRS simulator: end-to-end and per-layer host
timings of the scenarios users wait for, with exact output checks.

Every repetition of a workload runs as a fresh `ledger_bench` process
(built from ledger/CMakeLists.txt into .bench_build/ledger); this script
interleaves repetitions, takes medians, checks every job's stats-document
fingerprint and prints the metrics named in BENCHMARK.json.

  python3 ledger/ledger.py measure --workload fig4-jobs --seed 3 \\
      --seconds 20 --trace 0          # one workload, one JSON result line
  python3 ledger/ledger.py run [--reps 7] [--append-row]
                                      # all workloads, interleaved, + table
  python3 ledger/ledger.py run --against PARENT_ROOT --out CHANGE.json \\
      --against-out PARENT.json --reps 10   # paired A/B repetitions
  python3 ledger/ledger.py compare PARENT.json CHANGE.json
  python3 ledger/ledger.py write-expected   # regenerate golden fingerprints
  python3 ledger/ledger.py smoke            # 2%-scale self-check

`run` and `write-expected` follow the paper protocol; `measure` runs the
same jobs shortened by MEASURE_SCALE, and `run` records in every result
how the layer shares at that scale compare with full scale.

See ledger/README.md for the workloads, the metrics and how to read them.
"""

import argparse
import functools
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "ledger"
BUILD_REL = ".bench_build/ledger"
EXPECTED = HERE / "ledger_expected.json"
TRAJECTORY = HERE / "BENCH_ledger.json"

WORKLOADS = ["single-run", "fig4-jobs", "fig4-reuse-dram", "fig4-svc",
             "explore-query"]
# run and write-expected: the paper protocol, 400k warm-up + 1M measured
# micro-ops per job (explorer confirmation 100k + 300k).
FULL_SCALE = 1.0
# measure: a multiplier on both counts that keeps one repetition near
# 1.1-1.6 s on 4 cores, so a 20 s measurement holds 12-18 of them; at
# full scale it would hold 2-3. Much smaller jobs would be dominated by
# per-run set-up (predictor tables, memory footprint reservation) instead
# of the tick loop. explore-query stays at full scale (about 3 s): its
# analytic pass does not shrink, so a shorter confirmation would double
# the analytic share of the query.
MEASURE_SCALE = {"single-run": 0.25, "fig4-jobs": 0.125,
                 "fig4-reuse-dram": 0.25, "fig4-svc": 0.125,
                 "explore-query": FULL_SCALE}
JOBS = {"single-run": 12, "fig4-jobs": 72, "fig4-reuse-dram": 72,
        "fig4-svc": 72, "explore-query": 1}
# fig4-svc must reproduce fig4-jobs byte for byte.
EXPECTED_KEY = {"fig4-svc": "fig4-jobs"}
CORE_STAGES = ["core.fetch_s", "core.rename_s", "core.issue_s",
               "core.agen_s", "core.store_data_s", "core.commit_s"]
MIN_REPS = 3
REP_TIMEOUT_S = 120
# measure starts no repetition after this and ends well inside 180 s.
HARD_STOP_S = 140
LAYER_SUM_TOLERANCE = 0.05
# compare's regression bounds on paired reps, as shares of the parent's
# median; setup_s must also worsen by more than 5 ms. BENCHMARK.json's
# bounds are wider: they must also cover the host's drift between
# separate, unpaired measure runs, which pairing cancels.
PAIRED_BOUND = {"wall_s": 0.10, "sim_uops_per_s": 0.10, "job_p50_s": 0.10,
                "job_p90_s": 0.10, "setup_s": 0.10, "peak_rss_mb": 0.05}
PAIRED_FLOOR = {"setup_s": 0.005}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ---------------------------------------------------------------- build --

def build(src_root=None):
    """Configure (once) and build ledger_bench; exit 2 on failure. With
    `src_root`, this benchmark's code is built against that checkout's
    src/ instead, so both arms of an A/B run identical benchmark code."""
    build_dir = ROOT / BUILD_REL
    steps = []
    if src_root:
        build_dir = ROOT / (BUILD_REL + "-against")
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release",
                      f"-DWSRS_SRC_DIR={Path(src_root).resolve() / 'src'}"])
    elif not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j",
                  str(min(4, os.cpu_count() or 1)), "--target",
                  "ledger_bench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            log(f"ledger: build failed: {' '.join(cmd)}")
            sys.exit(2)
    return build_dir / "ledger_bench"


# ------------------------------------------------------------------ reps --

def run_rep(binary, workload, seed, scale, traced, deadline=None):
    """One repetition in a fresh process, killed after REP_TIMEOUT_S or at
    the monotonic `deadline`. Returns the rep document, or a dict with a
    "failure" message when the process did not produce one."""
    timeout = REP_TIMEOUT_S
    if deadline is not None:
        timeout = max(1.0, min(timeout, deadline - time.monotonic()))
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--scale={scale!r}", f"--scratch={BUILD_REL}"] + (
               ["--traced"] if traced else [])
    start = time.monotonic()
    # Own process group, so a timed-out rep is killed with its svc workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"workload": workload, "traced": traced,
                "failure": f"timed out after {timeout:.0f} s"}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return {"workload": workload, "traced": traced,
                "failure": f"exit {proc.returncode}: {tail[0]}"}
    rep = json.loads(lines[-1])
    # Both clocks are CLOCK_MONOTONIC, so this spans fork, exec and the
    # benchmark's own set-up.
    rep["setup_s"] = rep["t_first"] - start
    rep["start"] = start
    return rep


def quantile(values, q):
    """Linear-interpolation quantile (numpy's default)."""
    v = sorted(values)
    if not v:
        return float("nan")
    pos = (len(v) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def rep_samples(rep):
    """Per-repetition value of every end-to-end metric."""
    lat = [j["latency_s"] for j in rep["jobs"]]
    return {
        "wall_s": rep["wall_s"],
        "sim_uops_per_s": rep["sim_uops"] / rep["wall_s"],
        "job_p50_s": quantile(lat, 0.5),
        "job_p90_s": quantile(lat, 0.9),
        "setup_s": rep["setup_s"],
        "peak_rss_mb": (rep["peak_rss_kb"] + rep["worker_peak_rss_kb"]) / 1024,
    }


def end_to_end(reps):
    """Median over repetitions of each per-repetition value. Job
    percentiles are taken within a rep first: single-run's latencies are
    bimodal (gzip, mcf), and a pooled p50 would sit in the gap between
    the slowest gzip and the fastest mcf run of the whole measurement."""
    samples = [rep_samples(r) for r in reps if "failure" not in r]
    if not samples:
        return {}
    return {m: statistics.median(s[m] for s in samples) for m in samples[0]}


def per_layer(traced, untraced, names, tax=()):
    """Median over traced repetitions of each layer value; layers a
    workload does not exercise read 0."""
    ok = [r for r in traced if "failure" not in r]
    out = {}
    for n in names:
        vals = [r["layers"].get(n, 0.0) for r in ok]
        out[n] = statistics.median(vals) if vals else 0.0
    walls = [r["wall_s"] for r in untraced if "failure" not in r]
    if ok and walls:
        out["obs.traced_overhead_frac"] = (
            statistics.median(r["wall_s"] for r in ok) /
            statistics.median(walls) - 1)
    if tax:
        out["svc.tax_s"] = statistics.median(tax)
    return out


# --------------------------------------------------------------- checks --

def load_expected():
    if not EXPECTED.exists():
        return None
    with open(EXPECTED) as f:
        return json.load(f)


def fingerprints(rep):
    return {j["name"]: j["hash"] for j in rep["jobs"]}


def scale_key(scale):
    """Key of a scale in ledger_expected.json: "1", "0.25", "0.125"."""
    return f"{scale:g}"


def check_reps(workload, reps, expected):
    """Count failed jobs and fingerprint mismatches; returns (attempted,
    failed, problems). Every rep of one workload at one scale must carry
    the same fingerprints, and at full scale and at the measure scale they
    must equal the golden ones, whatever the seed."""
    attempted = failed = 0
    problems = []
    reference = {}
    key = EXPECTED_KEY.get(workload, workload)
    golden_sets = (expected or {}).get("fingerprints", {}).get(key, {})
    for rep in reps:
        attempted += JOBS[workload]
        if "failure" in rep:
            failed += JOBS[workload]
            problems.append(f"{workload}: {rep['failure']}")
            continue
        failed += len(rep["errors"])
        problems += [f"{workload}: {e}" for e in rep["errors"]]
        for j in rep["jobs"]:
            if not j["ok"]:
                failed += 1
                problems.append(f"{workload}: {j['name']} failed: "
                                f"{j['error']}")
        got = fingerprints(rep)
        scale = scale_key(rep["scale"])
        for want, what in ((golden_sets.get(scale), "golden"),
                           (reference.get(scale), "first rep")):
            if want is None:
                continue
            bad = sorted(n for n in set(want) | set(got)
                         if want.get(n) != got.get(n))
            if bad:
                failed += len(bad)
                problems.append(f"{workload} seed {rep['seed']} scale "
                                f"{scale}: {len(bad)} fingerprint(s) differ "
                                f"from the {what}, first {bad[0]}")
        reference.setdefault(scale, got)
    return attempted, failed, problems


def identical_outcomes(jobs_reps, svc_reps):
    """fig4-svc outcomes must be byte-identical to fig4-jobs."""
    fps = [fingerprints(r) for r in jobs_reps + svc_reps
           if "failure" not in r]
    return len(fps) == len(jobs_reps + svc_reps) and all(
        f == fps[0] for f in fps)


def layer_parts(workload, layers, wall):
    """(parts, basis): the self time of each layer that makes up the
    workload's wall-clock, other.self_s last, and the basis they must add
    up to."""
    if workload == "single-run":
        names, basis = CORE_STAGES + ["sim.other_s"], wall
    elif workload == "explore-query":
        names, basis = ["explore.analytic_s", "explore.confirm_s"], wall
    else:
        names = ["runner.warmup_s", "runner.simulate_s", "runner.idle_s"]
        basis = layers["runner.threads"] * wall
    parts = {n: layers[n] for n in names}
    parts["other.self_s"] = layers.get("other.self_s", 0.0)
    return parts, basis


def layer_shares(workload, rep):
    """Share of the wall-clock basis of each part, for one traced rep."""
    parts, basis = layer_parts(workload, rep["layers"], rep["wall_s"])
    return {n: v / basis for n, v in parts.items()}


def layer_sum_problems(workload, rep):
    parts, basis = layer_parts(workload, rep["layers"], rep["wall_s"])
    other = parts["other.self_s"]
    named = sum(parts.values()) - other
    problems = []
    if abs(named + other - basis) > 1e-6 * basis + 2e-3:
        problems.append(f"{workload}: layers sum to {named + other:.6f} s, "
                        f"not the {basis:.6f} s wall-clock basis")
    if other > LAYER_SUM_TOLERANCE * basis:
        problems.append(f"{workload}: {other / basis:.1%} of the wall-clock "
                        f"is unattributed (limit "
                        f"{LAYER_SUM_TOLERANCE:.0%})")
    return problems


# ------------------------------------------------------------- measure --

def measure(binary, workload, seed, seconds, trace, scale):
    """The benchmark contract: repetitions for `seconds`, medians, checks.
    Returns (result line, problems)."""
    spec = benchmark_spec()
    expected = load_expected()
    reps, traced, paired, tax = [], [], [], []
    durations = []
    t0 = time.monotonic()
    step = 0
    while True:
        now = time.monotonic()
        est = statistics.median(durations) if durations else 0.0
        enough = (len(traced) >= 1 and len(reps) >= 1) if trace else \
            len(reps) >= MIN_REPS
        if (enough and now - t0 + est > seconds) or now - t0 > HARD_STOP_S:
            break
        one = functools.partial(run_rep, binary, seed=seed, scale=scale,
                                deadline=t0 + HARD_STOP_S + 20)
        if trace and step % 2:
            traced.append(one(workload, traced=True))
        elif trace and workload == "fig4-svc":
            # svc tax: paired with fig4-jobs, alternating which runs first.
            pair = ["fig4-jobs", "fig4-svc"][::1 if step % 4 == 0 else -1]
            got = {w: one(w, traced=False) for w in pair}
            reps.append(got["fig4-svc"])
            paired.append(got["fig4-jobs"])
            if all("failure" not in r for r in got.values()):
                tax.append(got["fig4-svc"]["wall_s"] -
                           got["fig4-jobs"]["wall_s"])
        else:
            reps.append(one(workload, traced=False))
        durations.append(time.monotonic() - now)
        step += 1

    attempted, failed, problems = check_reps(workload, reps + traced,
                                             expected)
    if paired:
        a, f, p = check_reps("fig4-jobs", paired, expected)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        for r in traced:
            if "failure" in r:
                continue
            unknown = sorted(set(r["layers"]) - set(names))
            if unknown:
                problems.append(f"{workload}: layer(s) {unknown} are not in "
                                f"BENCHMARK.json")
            problems += layer_sum_problems(workload, r)
        values = per_layer(traced, reps, names, tax)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = end_to_end(reps)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    missing = [n for n in units if n not in values]
    if missing:
        failed += 1
        problems.append(f"{workload}: no value for {missing}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u}
                    for n, u in units.items() if n in values},
    }
    return result, problems


def cmd_measure(a):
    binary = build()
    result, problems = measure(binary, a.workload, a.seed, a.seconds,
                               a.trace == 1, MEASURE_SCALE[a.workload])
    for p in problems:
        log(f"ledger: {p}")
    print(json.dumps(result))
    return 0


# ------------------------------------------------------------------ run --

def summarize(values):
    q1, q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                  else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1, "n": len(values)}


def collect(binaries, reps_n, seed):
    """Interleaved full-scale repetitions: every rep runs each workload
    once, the workload order rotated each rep. With two binaries (an A/B),
    both run each step, alternating which goes first."""
    reps = [{w: [] for w in WORKLOADS} for _ in binaries]
    for r in range(reps_n):
        k = r % len(WORKLOADS)
        for w in WORKLOADS[k:] + WORKLOADS[:k]:
            arms = list(enumerate(binaries))
            for i, b in arms if r % 2 == 0 else arms[::-1]:
                reps[i][w].append(run_rep(b, w, seed, FULL_SCALE, False))
        log(f"ledger: rep {r + 1}/{reps_n} done")
    return reps


def traced_pass(binary, seed):
    """One traced rep per workload at full scale, for the per-layer table,
    and one at the measure scale, to show that its layer shares match."""
    return {w: (run_rep(binary, w, seed, FULL_SCALE, True),
                run_rep(binary, w, seed, MEASURE_SCALE[w], True))
            for w in WORKLOADS}


def result_document(root, reps, traced, seed, spec, expected):
    """Everything `run` measured on one checkout. Per-rep lists (`starts`
    and each metric's `samples`) keep one entry per rep, None where the
    rep failed, so that `compare` pairs rep i with rep i."""
    names = [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    doc = {"schema": "wsrs-ledger-result-v2", "commit": git_commit(root),
           "build_type": None, "nproc": os.cpu_count(), "seed": seed,
           "scale": {"run": FULL_SCALE, "measure": MEASURE_SCALE},
           "workloads": {}, "attempted": 0, "failed": 0, "problems": []}
    walls = {w: [r.get("wall_s") for r in reps[w]] for w in WORKLOADS}
    tax = [s - j for s, j in zip(walls["fig4-svc"], walls["fig4-jobs"])
           if s is not None and j is not None]
    for w in WORKLOADS:
        full, scaled = traced[w]
        a, f, p = check_reps(w, reps[w] + [full, scaled], expected)
        if w == "fig4-svc" and not identical_outcomes(reps["fig4-jobs"],
                                                      reps["fig4-svc"]):
            f += 1
            p.append("fig4-svc outcomes differ from fig4-jobs")
        doc["attempted"] += a
        doc["failed"] += f
        doc["problems"] += p
        ok = [r for r in reps[w] if "failure" not in r]
        doc["build_type"] = doc["build_type"] or next(
            (r["build_type"] for r in ok), None)
        samples = [None if "failure" in r else rep_samples(r)
                   for r in reps[w]]
        e2e = {}
        for m, unit in units.items():
            per_rep = [s and s[m] for s in samples]
            vals = [v for v in per_rep if v is not None]
            if vals:
                e2e[m] = dict(summarize(vals), unit=unit, samples=per_rep)
        layers, shares, scaled_layers = {}, {}, {}
        if "failure" not in full:
            layers = per_layer([full], ok, names,
                               tax if w == "fig4-svc" else ())
            doc["problems"] += layer_sum_problems(w, full)
        if "failure" not in full and "failure" not in scaled:
            scaled_layers = scaled["layers"]
            doc["problems"] += layer_sum_problems(w, scaled)
            at = layer_shares(w, scaled)
            shares = {n: {"full": v, "measure": at[n]}
                      for n, v in layer_shares(w, full).items()}
        doc["workloads"][w] = {
            "attempted": a, "failed": f,
            "error_rate": f / max(a, 1),
            "end_to_end": e2e, "per_layer": layers,
            "per_layer_measure_scale": scaled_layers,
            "layer_shares": shares,
            "starts": [r.get("start") for r in reps[w]]}
    return doc


def print_tables(doc, spec):
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print(f"commit {doc['commit']}  build {doc['build_type']}  "
          f"nproc {doc['nproc']}  seed {doc['seed']}")
    print(f"{'workload':16} {'metric':16} {'unit':8} {'median':>14} "
          f"{'IQR':>12} {'n':>5}")
    for w in WORKLOADS:
        d = doc["workloads"][w]
        for m, s in d["end_to_end"].items():
            print(f"{w:16} {m:16} {s['unit']:8} {s['median']:14.6g} "
                  f"{s['iqr']:12.4g} {s['n']:5d}")
        # Not in BENCHMARK.json, whose metrics must never read 0.
        print(f"{w:16} {'error_rate':16} {'fraction':8} "
              f"{d['error_rate']:14.6g} {'-':>12} {d['attempted']:5d}")
    print()
    short = {"single-run": "single", "fig4-jobs": "jobs",
             "fig4-reuse-dram": "reuse-dram", "fig4-svc": "svc",
             "explore-query": "explore"}
    print(f"{'per-layer (traced pass)':30} {'unit':10}" +
          "".join(f"{short[w]:>12}" for w in WORKLOADS))
    for m in spec["per_layer"]:
        n = m["name"]
        row = [doc["workloads"][w]["per_layer"].get(n) for w in WORKLOADS]
        print(f"{n:30} {units[n]:10}" + "".join(
            f"{v:12.4g}" if v is not None else f"{'-':>12}" for v in row))
    print()
    print(f"{'layer share of wall-clock':30} {'full':>8} {'measure':>8}")
    for w in WORKLOADS:
        for n, s in doc["workloads"][w]["layer_shares"].items():
            print(f"{short[w] + ' ' + n:30} {s['full']:8.1%} "
                  f"{s['measure']:8.1%}")
    print()
    print(f"attempted {doc['attempted']}  failed {doc['failed']}  "
          f"error_rate {doc['failed'] / max(doc['attempted'], 1):.4g}")


def git_commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def module_lines(root):
    """Lines per src/tests module directory."""
    out = {}
    for top in ("src", "tests"):
        base = root / top
        if not base.is_dir():
            continue
        for mod in sorted(p for p in base.iterdir() if p.is_dir()):
            n = 0
            for f in mod.rglob("*"):
                if f.is_file():
                    with open(f, "rb") as fh:
                        n += sum(1 for _ in fh)
            out[f"{top}/{mod.name}"] = n
    return out


def append_row(doc):
    rows = []
    if TRAJECTORY.exists():
        with open(TRAJECTORY) as f:
            rows = json.load(f)["rows"]
    lines = module_lines(ROOT)
    prev = rows[-1]["lines"] if rows else None
    row = {
        "commit": doc["commit"], "build_type": doc["build_type"],
        "nproc": doc["nproc"], "seed": doc["seed"], "scale": doc["scale"],
        "workloads": {
            w: {"end_to_end": {m: {k: s[k] for k in
                                   ("unit", "median", "iqr", "n")}
                               for m, s in d["end_to_end"].items()},
                "error_rate": d["error_rate"],
                "per_layer": d["per_layer"],
                "per_layer_measure_scale": d["per_layer_measure_scale"],
                "layer_shares": d["layer_shares"]}
            for w, d in doc["workloads"].items()},
        "lines": lines,
        "net_lines": ({k: v - prev.get(k, 0) for k, v in lines.items()}
                      if prev else None),
    }
    rows.append(row)
    with open(TRAJECTORY, "w") as f:
        json.dump({"schema": "wsrs-ledger-trajectory-v1", "rows": rows}, f,
                  indent=1)
        f.write("\n")


def cmd_run(a):
    spec = benchmark_spec()
    expected = load_expected()
    binary = build()
    arms = [(binary, ROOT, expected)]
    if a.against:
        # The other checkout's outputs may differ on purpose; only the
        # cross-rep and cross-mode identity checks apply to it.
        arms.append((build(a.against), Path(a.against).resolve(), None))
    reps = collect([b for b, _, _ in arms], a.reps, a.seed)
    docs = [result_document(root, arm_reps, traced_pass(b, a.seed), a.seed,
                            spec, golden)
            for (b, root, golden), arm_reps in zip(arms, reps)]
    doc = docs[0]
    print_tables(doc, spec)
    for p in doc["problems"]:
        log(f"ledger: {p}")
    out = Path(a.out) if a.out else ROOT / BUILD_REL / "ledger_result.json"
    with open(out, "w") as f:
        json.dump(doc, f, indent=1)
    log(f"ledger: result written to {out}")
    if a.against:
        with open(a.against_out, "w") as f:
            json.dump(docs[1], f, indent=1)
        log(f"ledger: {a.against} result written to {a.against_out}")
    if a.append_row:
        if doc["build_type"] != "Release":
            log(f"ledger: refusing to append a row from a "
                f"{doc['build_type']} build")
            return 1
        append_row(doc)
    return 1 if doc["failed"] or doc["problems"] else 0


# -------------------------------------------------------------- compare --

def paired_samples(pw, cw, metric):
    """(rep index, parent, change, parent ran first) for every rep index
    at which both sides produced the metric."""
    ps = pw["end_to_end"][metric]["samples"]
    cs = cw["end_to_end"][metric]["samples"]
    return [(i, x, y, s < t) for i, (x, y, s, t) in
            enumerate(zip(ps, cs, pw["starts"], cw["starts"]))
            if None not in (x, y, s, t)]


def verdict(pairs, better, bound, floor=0.0):
    """Paired rule: >= 10 pairs in alternating order, the change wins
    >= 9/10 of them, and the medians differ by more than the parent's
    IQR. A change whose median is worse by more than `bound` (a share of
    the parent's) and by more than `floor` (absolute) regressed. Returns
    (verdict, parent median, change median, worsening)."""
    if not pairs:
        return "unresolved", math.nan, math.nan, math.nan
    ps = [x for _, x, _, _ in pairs]
    cs = [y for _, _, y, _ in pairs]
    pm, cm = statistics.median(ps), statistics.median(cs)
    iqr = summarize(ps)["iqr"]
    sign = 1 if better == "higher" else -1
    worse = sign * (pm - cm) / pm
    if worse > bound and abs(cm - pm) > floor:
        return "regressed", pm, cm, worse
    wins = sum(1 for _, x, y, _ in pairs if sign * (y - x) > 0)
    # Adjacent reps swap which side runs first; a rep lost on either side
    # leaves a gap, not a violation.
    alternating = all(a[3] != b[3] for a, b in zip(pairs, pairs[1:])
                      if b[0] == a[0] + 1)
    if (len(pairs) >= 10 and alternating and wins >= 0.9 * len(pairs) and
            sign * (cm - pm) > iqr):
        return "improved", pm, cm, worse
    if iqr / pm > bound and not (min(sign * y for y in cs) >
                                 max(sign * x for x in ps)):
        return "unresolved", pm, cm, worse
    return "unchanged", pm, cm, worse


def compare_docs(parent, change, spec):
    """Verdict rows (workload, metric, parent median, change median,
    worsening, verdict) and the exit status: 1 on a regression beyond a
    PAIRED_BOUND or on more failures than the parent."""
    rows, status = [], 0
    for w in WORKLOADS:
        pw, cw = parent["workloads"].get(w), change["workloads"].get(w)
        if not pw or not cw:
            continue
        for m in spec["end_to_end"]:
            n = m["name"]
            if n not in pw["end_to_end"] or n not in cw["end_to_end"]:
                continue
            v, pm, cm, worse = verdict(paired_samples(pw, cw, n),
                                       m["better"], PAIRED_BOUND[n],
                                       PAIRED_FLOOR.get(n, 0.0))
            status |= v == "regressed"
            rows.append((w, n, pm, cm, worse, v))
    if change["failed"] > parent["failed"]:
        status = 1
    return rows, status


def cmd_compare(a):
    spec = benchmark_spec()
    with open(a.parent) as f:
        parent = json.load(f)
    with open(a.change) as f:
        change = json.load(f)
    rows, status = compare_docs(parent, change, spec)
    print(f"{'workload':16} {'metric':16} {'parent':>12} {'change':>12} "
          f"{'gain':>8}  verdict")
    for w, m, pm, cm, worse, v in rows:
        print(f"{w:16} {m:16} {pm:12.6g} {cm:12.6g} {-worse:+8.2%}  {v}")
    print(f"failed jobs: parent {parent['failed']}, change "
          f"{change['failed']}")
    return status


# ------------------------------------------------------- write-expected --

def cmd_write_expected(a):
    """Golden fingerprints of every workload at full scale (what `run`
    checks) and at the measure scale. The seed only reorders jobs, so
    seeds 0 and 1 must agree."""
    binary = build()
    doc = {"schema": "wsrs-ledger-expected-v2", "fingerprints": {}}
    for w in WORKLOADS:
        if w in EXPECTED_KEY:
            continue
        doc["fingerprints"][w] = {}
        for scale in sorted({FULL_SCALE, MEASURE_SCALE[w]}):
            reps = [run_rep(binary, w, seed, scale, False)
                    for seed in (0, 1)]
            for rep in reps:
                if "failure" in rep or not all(j["ok"] for j in rep["jobs"]):
                    log(f"ledger: {w} seed {rep.get('seed')} failed; "
                        f"nothing written")
                    return 1
                if rep["build_type"] != "Release":
                    log(f"ledger: refusing to write golden fingerprints "
                        f"from a {rep['build_type']} build")
                    return 1
            if fingerprints(reps[0]) != fingerprints(reps[1]):
                log(f"ledger: {w} fingerprints depend on the seed; nothing "
                    f"written")
                return 1
            doc["fingerprints"][w][scale_key(scale)] = fingerprints(reps[0])
    with open(EXPECTED, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0


# ---------------------------------------------------------------- smoke --

def cmd_smoke(a):
    """Each workload once at 2% scale, untraced and traced: result schema,
    every BENCHMARK.json metric present, the layer-sum invariant, and
    fig4-svc == fig4-jobs."""
    spec = benchmark_spec()
    binary = Path(a.bench_binary) if a.bench_binary else build()
    problems = []
    for w in WORKLOADS:
        for trace in (False, True):
            result, p = measure(binary, w, 0, 0, trace, 0.02)
            problems += p
            kind = "per_layer" if trace else "end_to_end"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{w}: result keys {sorted(result)}")
            for m in spec[kind]:
                v = result["metrics"].get(m["name"])
                if (not v or v["unit"] != m["unit"] or
                        not math.isfinite(v["value"])):
                    problems.append(f"{w}: {kind} metric {m['name']} "
                                    f"missing or not finite")
            if not result["correct"]:
                problems.append(f"{w}: result not correct")
    if not identical_outcomes([run_rep(binary, "fig4-jobs", 0, 0.02, False)],
                              [run_rep(binary, "fig4-svc", 0, 0.02, False)]):
        problems.append("fig4-svc outcomes differ from fig4-jobs")
    for p in problems:
        log(f"ledger smoke: {p}")
    print("ledger smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    m = sub.add_parser("measure", help="one workload, one JSON result line")
    m.add_argument("--workload", required=True, choices=WORKLOADS)
    m.add_argument("--seed", type=int, required=True)
    m.add_argument("--seconds", type=float, required=True)
    m.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r = sub.add_parser("run", help="all workloads, interleaved")
    r.add_argument("--reps", type=int, default=7)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out")
    r.add_argument("--append-row", action="store_true")
    r.add_argument("--against", help="second checkout for paired A/B reps")
    r.add_argument("--against-out",
                   default=str(ROOT / BUILD_REL / "ledger_against.json"))
    c = sub.add_parser("compare", help="paired verdict per metric")
    c.add_argument("parent")
    c.add_argument("change")
    sub.add_parser("write-expected", help="regenerate golden fingerprints")
    s = sub.add_parser("smoke", help="2%%-scale self-check")
    s.add_argument("--bench-binary")
    a = ap.parse_args()
    return {"measure": cmd_measure, "run": cmd_run, "compare": cmd_compare,
            "write-expected": cmd_write_expected,
            "smoke": cmd_smoke}[a.cmd](a)


if __name__ == "__main__":
    sys.exit(main())
