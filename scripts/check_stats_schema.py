#!/usr/bin/env python3
"""Validate wsrs machine-readable stats documents.

Accepts any number of files, each either a single-run wsrs-stats-v1
document (wsrs-sim --stats-json) or a wsrs-sweep-report-v1 aggregate
(wsrs-sim --all --stats-json). Every file is parsed with Python's strict
JSON parser — so unescaped names or nan/inf leak out as hard failures —
and then structurally checked:

  - required keys and schema tags are present;
  - stall-cause attribution is complete: for every cluster,
    sum(issue_stall buckets) + overflow == cycles, and likewise for the
    rename and commit stall histograms (exactly one cause per stage per
    cycle), and the core's issue_width_hist counts every cycle once;
  - stall-cause legends match the histogram bucket counts;
  - histogram sample counts equal their bucket sums;
  - interval samples are monotone in cycle and respect the period;
  - sweep reports carry well-formed resume metadata (resumed flag,
    skipped_runs bounded by the job count) and warm-up checkpoint cache
    counters (wsrs-ckpt warm-up reuse);
  - wsrs-metrics-v1 registry snapshots (wsrs-sim --metrics-out) follow
    the metric naming scheme and their histogram bucket counts fold up
    to the sample count;
  - wsrs-spans-v1 span timelines (wsrs-sim --spans-out) are valid Chrome
    trace-event JSON with exactly one "job" root span per job, no
    negative durations, and every child event nested inside its parent
    window (attempts inside the job, stage spans inside their attempt);
  - wsrs-explore-v1 design-space reports (wsrs-explore) have exact axis
    coverage (enumerated == the product of the axis sizes, feasible +
    infeasible == enumerated), a genuinely non-dominated frontier in the
    documented sort order, and — when a confirmation sweep ran — an
    analytic estimate paired with a measured IPC (and consistent ranks)
    on every confirmed point.

Exit status is non-zero on the first file that fails; used by the `obs`,
`ckpt`, `mem` and `explore` labelled ctests.
"""

import json
import re
import sys


class Fail(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise Fail(msg)


def check_hist(h, where, expected_buckets=None):
    expect(isinstance(h, dict), f"{where}: histogram must be an object")
    for key in ("buckets", "overflow", "samples", "mean"):
        expect(key in h, f"{where}: missing '{key}'")
    buckets = h["buckets"]
    expect(isinstance(buckets, list), f"{where}: buckets must be a list")
    if expected_buckets is not None:
        expect(len(buckets) == expected_buckets,
               f"{where}: {len(buckets)} buckets, "
               f"expected {expected_buckets}")
    total = sum(buckets) + h["overflow"]
    expect(total == h["samples"],
           f"{where}: buckets+overflow = {total} != samples "
           f"{h['samples']}")
    return total


# Core counters that duplicate rename_stall buckets: each must equal the
# sum of its causes' buckets.
RENAME_STALL_COUNTERS = (
    ("rename_stall_rob", ("rob-full",)),
    ("rename_stall_lsq", ("lsq-full",)),
    ("rename_stall_window", ("cluster-window-full",)),
    ("rename_stall_free_reg", ("subset-full", "phys-reg-exhausted")),
)


MEM_STALL_KEYS = ("queue-full", "bank-busy", "bank-prep", "data-burst",
                  "idle")


def check_memory_obj(mem, where, core_cycles):
    """Validate the `memory` object of a stats document.

    Two shapes exist: the constant model emits the flat hierarchy counter
    map, the dram model a structured object whose stall attribution must
    cover the measured window exactly (sum(causes) == stall.cycles ==
    core cycles — the memory-side analogue of the pipeline invariant).
    """
    expect(isinstance(mem, dict), f"{where}: must be an object")
    if mem.get("model") != "dram":
        for key, v in mem.items():
            expect(isinstance(v, int) and v >= 0,
                   f"{where}: counter '{key}' must be a non-negative int")
        return
    for key in ("banks", "row_bytes", "window_depth"):
        expect(isinstance(mem.get(key), int) and mem[key] > 0,
               f"{where}: '{key}' must be a positive int")
    expect(mem.get("page_policy") in ("open", "closed"),
           f"{where}: page_policy {mem.get('page_policy')!r}")
    timing = mem["timing"]
    for key in ("t_rp", "t_rcd", "t_cas", "burst_cycles"):
        expect(isinstance(timing.get(key), int) and timing[key] >= 0,
               f"{where}.timing: '{key}' must be a non-negative int")
    for key, v in mem["counters"].items():
        expect(isinstance(v, int) and v >= 0,
               f"{where}.counters: '{key}' must be a non-negative int")
    stall = mem["stall"]
    causes = stall["causes"]
    expect(tuple(causes.keys()) == MEM_STALL_KEYS,
           f"{where}.stall: causes {tuple(causes.keys())} != "
           f"{MEM_STALL_KEYS}")
    total = sum(causes.values())
    expect(total == stall["cycles"],
           f"{where}.stall: causes sum {total} != cycles "
           f"{stall['cycles']}")
    expect(stall["cycles"] == core_cycles,
           f"{where}.stall: attribution covers {stall['cycles']} cycles, "
           f"core measured {core_cycles}")


def check_stats_doc(doc, where):
    expect(doc.get("schema") == "wsrs-stats-v1",
           f"{where}: schema is {doc.get('schema')!r}, "
           "expected 'wsrs-stats-v1'")
    for key in ("benchmark", "machine", "metrics", "core", "memory"):
        expect(key in doc, f"{where}: missing '{key}'")
    core = doc["core"]
    for key in ("num_clusters", "cycles", "committed", "counters",
                "issue_width_hist", "pipeline"):
        expect(key in core, f"{where}.core: missing '{key}'")
    cycles = core["cycles"]
    check_memory_obj(doc["memory"], f"{where}.memory", cycles)
    clusters = core["num_clusters"]
    pipe = core["pipeline"]
    legends = pipe["stall_causes"]

    issue = pipe["issue_stall"]
    expect(len(issue) == clusters,
           f"{where}: {len(issue)} issue_stall histograms for "
           f"{clusters} clusters")
    for c, h in enumerate(issue):
        total = check_hist(h, f"{where}.issue_stall[{c}]",
                           len(legends["issue"]))
        expect(total == cycles,
               f"{where}.issue_stall[{c}]: stall-cause cycles {total} != "
               f"core cycles {cycles}")
    for stage in ("rename", "commit"):
        h = pipe[f"{stage}_stall"]
        total = check_hist(h, f"{where}.{stage}_stall",
                           len(legends[stage]))
        expect(total == cycles,
               f"{where}.{stage}_stall: stall-cause cycles {total} != "
               f"core cycles {cycles}")
    rename = dict(zip(legends["rename"], pipe["rename_stall"]["buckets"]))
    for counter, causes in RENAME_STALL_COUNTERS:
        got = core["counters"][counter]
        want = sum(rename[c] for c in causes)
        expect(got == want,
               f"{where}.core.counters.{counter} = {got} != "
               f"{' + '.join(causes)} rename_stall cycles {want}")
    width_cycles = sum(core["issue_width_hist"])
    expect(width_cycles == cycles,
           f"{where}.core.issue_width_hist: counts {width_cycles} cycles, "
           f"core measured {cycles}")
    check_hist(pipe["wakeup_latency"], f"{where}.wakeup_latency")

    intervals = pipe["intervals"]
    period = intervals["period"]
    prev = None
    for i, s in enumerate(intervals["samples"]):
        cyc = s[0]
        if prev is not None:
            expect(cyc - prev == period,
                   f"{where}.intervals[{i}]: cycle step {cyc - prev} != "
                   f"period {period}")
        expect(len(s[2]) == clusters,
               f"{where}.intervals[{i}]: occupancy arity {len(s[2])}")
        prev = cyc


def check_resume_metadata(doc, where):
    """Validate the resume/ckpt objects a sweep report always carries."""
    resume = doc["resume"]
    expect(isinstance(resume.get("resumed"), bool),
           f"{where}.resume: 'resumed' must be a bool")
    skipped = resume.get("skipped_runs")
    expect(isinstance(skipped, int) and skipped >= 0,
           f"{where}.resume: 'skipped_runs' must be a non-negative int")
    expect(skipped <= doc["summary"]["total"],
           f"{where}.resume: skipped_runs {skipped} exceeds "
           f"summary.total {doc['summary']['total']}")
    expect(resume["resumed"] or skipped == 0,
           f"{where}.resume: {skipped} skipped runs without resumed=true")

    ckpt = doc["ckpt"]
    expect(isinstance(ckpt.get("warmup_reuse"), bool),
           f"{where}.ckpt: 'warmup_reuse' must be a bool")
    cache = ckpt["warmup_cache"]
    for key in ("hits", "misses"):
        expect(isinstance(cache.get(key), int) and cache[key] >= 0,
               f"{where}.ckpt.warmup_cache: '{key}' must be a "
               "non-negative int")
    if not ckpt["warmup_reuse"]:
        expect(cache["hits"] == 0 and cache["misses"] == 0,
               f"{where}.ckpt: warmup cache traffic without warmup_reuse")


METRIC_NAME_RE = re.compile(r"^wsrs_[a-z0-9_]+$")


def check_metrics_doc(doc, where):
    """Validate a wsrs-metrics-v1 registry snapshot."""
    metrics = doc["metrics"]
    expect(isinstance(metrics, list), f"{where}: 'metrics' must be a list")
    seen = set()
    for i, m in enumerate(metrics):
        mwhere = f"{where}.metrics[{i}]"
        name = m.get("name")
        expect(isinstance(name, str) and METRIC_NAME_RE.match(name),
               f"{mwhere}: name {name!r} breaks the wsrs_* scheme")
        expect(name not in seen, f"{mwhere}: duplicate metric {name!r}")
        seen.add(name)
        expect(isinstance(m.get("help"), str) and m["help"],
               f"{mwhere}: 'help' must be a non-empty string")
        kind = m.get("type")
        if kind == "counter":
            expect(name.endswith("_total"),
                   f"{mwhere}: counter {name!r} must end in '_total'")
            expect(isinstance(m.get("value"), int) and m["value"] >= 0,
                   f"{mwhere}: counter value must be a non-negative int")
        elif kind == "gauge":
            expect(isinstance(m.get("value"), int),
                   f"{mwhere}: gauge value must be an int")
        elif kind == "histogram":
            for key in ("count", "sum", "overflow"):
                expect(isinstance(m.get(key), int) and m[key] >= 0,
                       f"{mwhere}: '{key}' must be a non-negative int")
            buckets = m.get("buckets")
            expect(isinstance(buckets, list) and buckets,
                   f"{mwhere}: 'buckets' must be a non-empty list")
            prev_le = None
            in_buckets = 0
            for j, b in enumerate(buckets):
                le = b.get("le")
                expect(isinstance(le, int),
                       f"{mwhere}.buckets[{j}]: 'le' must be an int")
                expect(prev_le is None or le > prev_le,
                       f"{mwhere}.buckets[{j}]: bounds not increasing")
                prev_le = le
                expect(isinstance(b.get("count"), int)
                       and b["count"] >= 0,
                       f"{mwhere}.buckets[{j}]: bad count")
                in_buckets += b["count"]
            expect(in_buckets + m["overflow"] == m["count"],
                   f"{mwhere}: buckets+overflow = "
                   f"{in_buckets + m['overflow']} != count {m['count']}")
        else:
            raise Fail(f"{mwhere}: unknown type {kind!r}")
    return len(metrics)


def check_spans_doc(doc, where):
    """Validate a wsrs-spans-v1 Chrome trace-event timeline."""
    events = doc["traceEvents"]
    expect(isinstance(events, list), f"{where}: 'traceEvents' must be "
                                     "a list")
    roots = {}     # tid -> (ts, ts+dur) of its "job" root span.
    attempts = {}  # (tid, attempt) -> window of the "attempt" span.
    children = []
    for i, e in enumerate(events):
        ewhere = f"{where}.traceEvents[{i}]"
        ph = e.get("ph")
        expect(ph in ("X", "i", "M"),
               f"{ewhere}: unknown phase {ph!r}")
        if ph == "M":
            expect(e.get("name") in ("process_name", "thread_name"),
                   f"{ewhere}: unknown metadata {e.get('name')!r}")
            continue
        for key in ("ts", "pid", "tid"):
            expect(isinstance(e.get(key), int),
                   f"{ewhere}: '{key}' must be an int")
        expect(e["ts"] >= 0, f"{ewhere}: negative timestamp {e['ts']}")
        if ph == "X":
            expect(isinstance(e.get("dur"), int) and e["dur"] >= 0,
                   f"{ewhere}: negative/missing duration")
            if e["name"] == "job":
                expect(e["tid"] not in roots,
                       f"{ewhere}: second 'job' root for job {e['tid']}")
                roots[e["tid"]] = (e["ts"], e["ts"] + e["dur"])
                continue
            if e["name"] == "attempt":
                att = e.get("args", {}).get("attempt")
                expect(isinstance(att, int) and att >= 1,
                       f"{ewhere}: attempt span without an attempt arg")
                attempts[(e["tid"], att)] = (e["ts"], e["ts"] + e["dur"])
        else:
            expect(e.get("s") == "t",
                   f"{ewhere}: instants must be thread-scoped")
        children.append((i, e))
    for i, e in children:
        ewhere = f"{where}.traceEvents[{i}]"
        start, end = e["ts"], e["ts"] + e.get("dur", 0)
        root = roots.get(e["tid"])
        expect(root is not None,
               f"{ewhere}: event for job {e['tid']} without a 'job' root")
        parent = root
        att = e.get("args", {}).get("attempt")
        if e["name"] != "attempt" and (e["tid"], att) in attempts:
            parent = attempts[(e["tid"], att)]
        expect(parent[0] <= start and end <= parent[1],
               f"{ewhere}: '{e['name']}' [{start}, {end}] escapes its "
               f"parent window [{parent[0]}, {parent[1]}]")
    expect(roots, f"{where}: no 'job' root spans at all")
    return len(roots)


def check_sweep_report(doc, where):
    expect(doc.get("schema") == "wsrs-sweep-report-v1",
           f"{where}: schema is {doc.get('schema')!r}")
    jobs = doc["jobs"]
    summary = doc["summary"]
    check_resume_metadata(doc, where)
    expect(summary["total"] == len(jobs),
           f"{where}: summary.total {summary['total']} != "
           f"{len(jobs)} jobs")
    failed = 0
    for i, job in enumerate(jobs):
        if job["ok"]:
            check_stats_doc(job["stats"], f"{where}.jobs[{i}]")
        else:
            expect(job.get("stats") is None,
                   f"{where}.jobs[{i}]: failed job carries stats")
            expect("error" in job, f"{where}.jobs[{i}]: missing error")
            failed += 1
    expect(summary["failed"] == failed,
           f"{where}: summary.failed {summary['failed']} != {failed}")
    return len(jobs)


def check_rf_doc(doc, where):
    """Validate a wsrs-rf-v1 organization table (wsrs-rf --json)."""
    orgs = doc["organizations"]
    expect(isinstance(orgs, list) and orgs,
           f"{where}: 'organizations' must be a non-empty list")
    seen = set()
    for i, org in enumerate(orgs):
        owhere = f"{where}.organizations[{i}]"
        name = org.get("name")
        expect(isinstance(name, str) and name,
               f"{owhere}: 'name' must be a non-empty string")
        expect(name not in seen, f"{owhere}: duplicate organization "
                                 f"{name!r}")
        seen.add(name)
        for key in ("total_regs", "copies_per_reg", "read_ports",
                    "write_ports", "subfiles", "entries_per_subfile"):
            expect(isinstance(org.get(key), int) and org[key] >= 1,
                   f"{owhere}: '{key}' must be a positive int")
        expect(org["subfiles"] * org["entries_per_subfile"]
               >= org["total_regs"],
               f"{owhere}: subfile geometry can't back "
               f"{org['total_regs']} registers")
        for key in ("total_area_rel", "access_time_ns",
                    "energy_nj_per_cycle"):
            v = org.get(key)
            expect(isinstance(v, (int, float)) and v > 0,
                   f"{owhere}: '{key}' must be a positive number")
    return len(orgs)


def _explore_dominates(a, b):
    """a, b are (ipc, area, energy): maximize ipc, minimize the rest."""
    no_worse = a[0] >= b[0] and a[1] <= b[1] and a[2] <= b[2]
    better = a[0] > b[0] or a[1] < b[1] or a[2] < b[2]
    return no_worse and better


def check_explore_report(doc, where):
    """Validate a wsrs-explore-v1 design-space report (wsrs-explore)."""
    space = doc["space"]
    axes = space["axes"]
    expect(isinstance(axes, list) and axes,
           f"{where}: 'space.axes' must be a non-empty list")
    total = 1
    for i, ax in enumerate(axes):
        awhere = f"{where}.space.axes[{i}]"
        values = ax.get("values")
        expect(isinstance(values, list) and values,
               f"{awhere}: 'values' must be a non-empty list")
        expect(ax.get("size") == len(values),
               f"{awhere}: size {ax.get('size')} != "
               f"{len(values)} values")
        total *= len(values)
    expect(space["total_configs"] == total,
           f"{where}: total_configs {space['total_configs']} != "
           f"axis product {total}")
    expect(space["enumerated"] == total,
           f"{where}: enumerated {space['enumerated']} != "
           f"total_configs {total} — axis coverage is not exact")
    expect(space["feasible"] + space["infeasible"] == space["enumerated"],
           f"{where}: feasible {space['feasible']} + infeasible "
           f"{space['infeasible']} != enumerated {space['enumerated']}")
    workloads = space["workloads"]
    expect(isinstance(workloads, list) and workloads,
           f"{where}: 'space.workloads' must be a non-empty list")
    expect(doc["objectives"] == ["est_ipc", "area_rel",
                                 "energy_nj_per_cycle"],
           f"{where}: unexpected objectives {doc['objectives']!r}")

    frontier = doc["frontier"]
    expect(isinstance(frontier, list),
           f"{where}: 'frontier' must be a list")
    expect(doc["frontier_size"] == len(frontier),
           f"{where}: frontier_size {doc['frontier_size']} != "
           f"{len(frontier)} points")
    expect(len(frontier) <= space["feasible"],
           f"{where}: frontier larger than the feasible space")
    axis_params = [ax["param"] for ax in axes]
    objs = []
    measured = {}  # rank -> measured object
    seen_idx = set()
    for k, p in enumerate(frontier):
        pwhere = f"{where}.frontier[{k}]"
        expect(p["rank"] == k, f"{pwhere}: rank {p['rank']} != slot {k}")
        idx = p["index"]
        expect(isinstance(idx, int) and 0 <= idx < total,
               f"{pwhere}: index {idx!r} outside the space")
        expect(idx not in seen_idx, f"{pwhere}: duplicate index {idx}")
        seen_idx.add(idx)
        expect(p["name"] == f"x{idx}",
               f"{pwhere}: name {p['name']!r} != 'x{idx}'")
        config = p["config"]
        expect(isinstance(config, dict)
               and sorted(config) == sorted(axis_params),
               f"{pwhere}: config keys don't match the space axes")
        est = p["est"]
        for key in ("ipc", "area_rel", "energy_nj_per_cycle"):
            v = est.get(key)
            expect(isinstance(v, (int, float)) and v > 0,
                   f"{pwhere}: est.{key} must be a positive number")
        expect(isinstance(p.get("rf"), dict) and "total_area_rel"
               in p["rf"],
               f"{pwhere}: missing register-file breakdown")
        objs.append((est["ipc"], est["area_rel"],
                     est["energy_nj_per_cycle"]))
        m = p.get("measured")
        if m is not None:
            mwhere = f"{pwhere}.measured"
            expect(isinstance(m["ipc"], (int, float)) and m["ipc"] > 0,
                   f"{mwhere}: 'ipc' must be a positive number")
            per = m["per_workload"]
            expect(sorted(per) == sorted(workloads),
                   f"{mwhere}: per_workload keys don't match the "
                   f"space workloads")
            for w, v in per.items():
                expect(isinstance(v, (int, float)) and v > 0,
                       f"{mwhere}.per_workload[{w}]: bad IPC {v!r}")
            expect(m["rank_inversion"]
                   == (m["est_rank"] != m["measured_rank"]),
                   f"{mwhere}: rank_inversion flag inconsistent with "
                   f"est_rank/measured_rank")
            measured[k] = m

    # The frontier must be genuinely non-dominated and in report order.
    for a in range(len(objs)):
        for b in range(len(objs)):
            if a != b and _explore_dominates(objs[a], objs[b]):
                raise Fail(f"{where}: frontier[{a}] dominates "
                           f"frontier[{b}] — not a Pareto set")
    for k in range(1, len(objs)):
        expect(objs[k - 1][0] >= objs[k][0],
               f"{where}: frontier not sorted by est.ipc at rank {k}")

    confirm = doc["confirm"]
    if confirm is None:
        expect(not measured,
               f"{where}: measured points without a confirm block")
        return len(frontier)
    expect(confirm["confirmed"] <= confirm["requested"],
           f"{where}: confirmed {confirm['confirmed']} > requested "
           f"{confirm['requested']}")
    expect(confirm["confirmed"] <= len(frontier),
           f"{where}: confirmed more points than the frontier holds")
    expect(confirm["jobs"]
           == confirm["confirmed"] * len(workloads),
           f"{where}: confirm.jobs {confirm['jobs']} != confirmed "
           f"{confirm['confirmed']} x {len(workloads)} workloads")
    errors = confirm["errors"]
    expect(isinstance(errors, list),
           f"{where}: 'confirm.errors' must be a list")
    expect((confirm["failures"] == 0) == (len(errors) == 0),
           f"{where}: failures {confirm['failures']} inconsistent with "
           f"{len(errors)} error entries")
    expect(len(measured) == confirm["confirmed"] - len(errors),
           f"{where}: {len(measured)} measured points != confirmed "
           f"{confirm['confirmed']} - {len(errors)} failed")
    expect(all(k < confirm["confirmed"] for k in measured),
           f"{where}: measured IPC on a rank beyond confirm.confirmed")
    n_ok = len(measured)
    est_ranks = sorted(m["est_rank"] for m in measured.values())
    meas_ranks = sorted(m["measured_rank"] for m in measured.values())
    expect(est_ranks == list(range(n_ok)),
           f"{where}: est ranks are not a permutation of 0..{n_ok - 1}")
    expect(meas_ranks == list(range(n_ok)),
           f"{where}: measured ranks are not a permutation of "
           f"0..{n_ok - 1}")
    s = confirm["spearman"]
    expect(s is None or (isinstance(s, (int, float))
                         and -1.000001 <= s <= 1.000001),
           f"{where}: spearman {s!r} outside [-1, 1]")
    expect(isinstance(confirm["rank_inversions"], int)
           and confirm["rank_inversions"] <= n_ok * (n_ok - 1) // 2,
           f"{where}: rank_inversions exceeds the number of pairs")
    return len(frontier)


def check_file(path):
    with open(path) as f:
        doc = json.load(f)  # strict: rejects NaN-producing output
    schema = doc.get("schema")
    if schema == "wsrs-sweep-report-v1":
        n = check_sweep_report(doc, path)
        print(f"{path}: ok (sweep report, {n} jobs)")
    elif schema == "wsrs-metrics-v1":
        n = check_metrics_doc(doc, path)
        print(f"{path}: ok (metrics snapshot, {n} instruments)")
    elif schema == "wsrs-spans-v1":
        n = check_spans_doc(doc, path)
        print(f"{path}: ok (span timeline, {n} job spans)")
    elif schema == "wsrs-explore-v1":
        n = check_explore_report(doc, path)
        print(f"{path}: ok (explore report, {n} frontier points)")
    elif schema == "wsrs-rf-v1":
        n = check_rf_doc(doc, path)
        print(f"{path}: ok (register-file table, {n} organizations)")
    else:
        check_stats_doc(doc, path)
        print(f"{path}: ok (single-run stats, "
              f"{doc['core']['cycles']} cycles)")


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    for path in sys.argv[1:]:
        try:
            check_file(path)
        except Fail as e:
            sys.exit(f"FAIL {e}")
        except (json.JSONDecodeError, KeyError, TypeError) as e:
            sys.exit(f"FAIL {path}: {e!r}")
    print("all stats documents valid")


if __name__ == "__main__":
    main()
