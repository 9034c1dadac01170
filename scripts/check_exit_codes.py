#!/usr/bin/env python3
"""Prove the driver tools' documented exit codes stay distinct.

Usage: check_exit_codes.py WSRS_SIM WSRS_EXPLORE WSRS_RF WSRS_TRACE

The CLI contract of all four tools (README.md, "Exit codes"):

  0  success
  1  configuration error (bad flag value, unknown option,
     unknown benchmark/machine, two documents sent to stdout)
  2  I/O or corruption error (unreadable/damaged checkpoint, missing
     input file, a document or stdout that could not be written)
  3  journal/sweep binding mismatch (a journal or checkpoint that
     belongs to a different sweep or machine configuration)
  4  sweep completed but some jobs failed

Every probe below must hit its exact code — a collapse of two classes
into one (e.g. everything exiting 1) is a regression in scriptability.
A document written to stdout with `-` must also be the only thing on
stdout, so `wsrs-sim ... --stats-json=- | python3 -m json.tool` works.
Exit status 0 on success. Used by the `svc` labelled ctest.
"""

import json
import os
import subprocess
import sys
import tempfile

TINY = ["--uops=2000", "--warmup=500"]

# Flags of the retired coordinator/worker sweep: a script that still
# passes one fails fast with the config code instead of running a
# different sweep than it asked for.
RETIRED = ["coordinator=unix:sweep.sock", "workers=2", "worker",
           "connect=unix:sweep.sock", "shard-size=4",
           "lease-timeout-ms=100", "lease-retries=1", "lease-backoff-ms=1",
           "warmup-cache-dir=warmups"]


def probe(name, cmd, want, stdout=subprocess.DEVNULL):
    r = subprocess.run(cmd, stdout=stdout, stderr=subprocess.PIPE,
                       text=True)
    if r.returncode != want:
        sys.exit(f"FAIL {name}: exit {r.returncode}, expected {want}\n"
                 f"  cmd: {' '.join(cmd)}\n  stderr: {r.stderr.strip()}")
    print(f"ok: {name} -> {want}")
    return r


def stdout_document(name, cmd):
    """@p cmd exits 0 and its stdout is exactly one JSON document."""
    r = subprocess.run(cmd, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.exit(f"FAIL {name}: exit {r.returncode}\n"
                 f"  cmd: {' '.join(cmd)}\n  stderr: {r.stderr.strip()}")
    try:
        json.loads(r.stdout)
    except json.JSONDecodeError as e:
        sys.exit(f"FAIL {name}: stdout is not one JSON document ({e})\n"
                 f"  cmd: {' '.join(cmd)}\n  stdout: {r.stdout[:200]!r}")
    print(f"ok: {name}")


def full_stdout_probe(name, cmd):
    """@p cmd with stdout on /dev/full must exit with the I/O code."""
    with open("/dev/full", "w") as full:
        probe(name, cmd, 2, stdout=full)


def main():
    if len(sys.argv) != 5:
        sys.exit(__doc__)
    binary, explore, rf, trace = sys.argv[1:]
    space = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "..", "examples", "design_space.json")

    with tempfile.TemporaryDirectory(prefix="wsrs_exit_") as tmp:
        probe("clean run exits 0",
              [binary, "--bench=gzip", "--machine=RR-256", *TINY], 0)

        # Class 1: configuration errors.
        probe("unknown machine is a config error",
              [binary, "--bench=gzip", "--machine=NO-SUCH", *TINY], 1)
        probe("unknown benchmark is a config error",
              [binary, "--bench=nonesuch", "--machine=RR-256", *TINY], 1)
        # The sweep daemon and its flags are gone: a script that still
        # starts it fails fast with the config code instead of hanging.
        retired = "serve"
        probe(f"retired --{retired} is an unknown option",
              [binary, f"--{retired}=unix:{os.path.join(tmp, 'x.sock')}"],
              1)
        # So is the single-run --json printout: --stats-json=- writes
        # the run's wsrs-stats-v1 document instead.
        probe("retired --json is an unknown option",
              [binary, "--bench=gzip", "--machine=RR-256", *TINY, "--json"],
              1)
        # A timeline shows one run: a sweep would render one per job and
        # print none of them.
        probe("--all --timeline is a config error",
              [binary, "--all", *TINY, "--timeline=5"], 1)
        for flag in RETIRED:
            probe(f"retired --{flag.split('=')[0]} is an unknown option",
                  [binary, "--bench=gzip", *TINY, f"--{flag}"], 1)
        # 256 registers over WSP's four FU pools is 64 per pool, fewer
        # than the 80 logical registers: refused up front instead of
        # deadlocking until the commit watchdog fires.
        r = probe("WSP with pool subsets below 80 registers is a config "
                  "error",
                  [binary, "--bench=crafty", "--machine=WSP-512",
                   "--set-regs=256", *TINY], 1)
        if "64 registers per FU pool" not in r.stderr:
            sys.exit(f"FAIL WSP --set-regs=256: the message does not name "
                     f"the 64-register pools: {r.stderr.strip()}")
        probe("WSP with 80-register pool subsets runs",
              [binary, "--bench=crafty", "--machine=WSP-512",
               "--set-regs=320", *TINY], 0)
        # A space spec sets every point's machine: an infeasible point
        # stops the sweep before any job runs, and so does a flag that
        # would override the spec.
        infeasible = os.path.join(tmp, "infeasible.json")
        with open(infeasible, "w") as f:
            json.dump({"schema": "wsrs-space-v1", "workloads": ["gzip"],
                       "axes": [{"param": "core.num_clusters",
                                 "values": [4, 2]}]}, f)
        r = probe("--space with an infeasible point is a config error",
                  [binary, "--all", f"--space={infeasible}", *TINY], 1)
        if ("WSRS-RC-512/num_clusters=2" not in r.stderr
                or "WSRS requires 4 clusters" not in r.stderr):
            sys.exit(f"FAIL infeasible --space: the message does not name "
                     f"the point and its reason: {r.stderr.strip()}")
        feasible = os.path.join(tmp, "feasible.json")
        with open(feasible, "w") as f:
            json.dump({"schema": "wsrs-space-v1", "workloads": ["gzip"],
                       "axes": [{"param": "machine",
                                 "values": ["RR-256"]}]}, f)
        probe("--space runs its points", [binary, "--all",
                                          f"--space={feasible}", *TINY], 0)
        r = probe("--space with --machine is a config error",
                  [binary, "--all", f"--space={feasible}",
                   "--machine=RR-256", *TINY], 1)
        if "drop --machine" not in r.stderr:
            sys.exit(f"FAIL --space --machine: the message does not name "
                     f"--machine: {r.stderr.strip()}")

        # Class 2: I/O / corruption errors.
        garbage = os.path.join(tmp, "garbage.ckpt")
        with open(garbage, "wb") as f:
            f.write(b"not a checkpoint container at all")
        probe("corrupt checkpoint is an I/O error",
              [binary, "--bench=gzip", "--machine=RR-256", *TINY,
               f"--ckpt-load={garbage}"], 2)
        probe("missing checkpoint is an I/O error",
              [binary, "--bench=gzip", "--machine=RR-256", *TINY,
               f"--ckpt-load={os.path.join(tmp, 'absent.ckpt')}"], 2)
        # A checkpoint of another format version is refused by name:
        # there is no reader for old layouts.
        old = os.path.join(tmp, "old.ckpt")
        subprocess.run([binary, "--bench=gzip", "--machine=RR-256", *TINY,
                        f"--ckpt-save={old}"], check=True,
                       stdout=subprocess.DEVNULL)
        for version in (1, 2):
            with open(old, "r+b") as f:
                f.seek(8)  # the u32 version after the 8-byte magic
                f.write(version.to_bytes(4, "little"))
            r = probe(f"a version-{version} checkpoint is an I/O error",
                      [binary, "--bench=gzip", "--machine=RR-256", *TINY,
                       f"--ckpt-load={old}"], 2)
            if (f"version {version}" not in r.stderr
                    or "wsrs-ckpt-v3" not in r.stderr):
                sys.exit(f"FAIL version-{version} checkpoint: the message "
                         f"does not name both version {version} and "
                         f"wsrs-ckpt-v3: {r.stderr.strip()}")
        # A document that never arrived is an I/O error, not a success.
        probe("unwritable --stats-json is an I/O error",
              [binary, "--bench=gzip", *TINY, "--stats-json=/dev/full"], 2)
        full_stdout_probe("unwritable stdout is an I/O error",
                          [binary, "--bench=gzip", *TINY])
        probe("unwritable --trace-pipe is an I/O error",
              [binary, "--bench=gzip", *TINY, "--trace-pipe=/dev/full"], 2)
        probe("unwritable --trace-pipe-bin is an I/O error",
              [binary, "--bench=gzip", *TINY, "--trace-pipe-bin=/dev/full"],
              2)
        probe("missing wsrs-explore space file is an I/O error",
              [explore, f"--space={os.path.join(tmp, 'absent.json')}"], 2)
        probe("unwritable wsrs-explore report is an I/O error",
              [explore, f"--space={space}", "--out=/dev/full"], 2)
        full_stdout_probe("unwritable wsrs-rf --json is an I/O error",
                          [rf, "--table1", "--json"])
        probe("missing wsrs-trace input is an I/O error",
              [trace, "--info", f"--in={os.path.join(tmp, 'absent.trc')}"],
              2)

        # Class 3: journal bound to a different sweep.
        journal = os.path.join(tmp, "sweep.journal")
        subprocess.run([binary, "--all", *TINY,
                        f"--resume-journal={journal}"],
                       check=True, stdout=subprocess.DEVNULL)
        probe("resuming another sweep's journal is a mismatch error",
              [binary, "--all", *TINY, "--seed=99",
               f"--resume-journal={journal}", "--resume"], 3)

        # Documents on stdout: the text summary, CSV and progress lines
        # move to stderr, and stdout can carry only one document.
        stdout_document("single run --stats-json=- is one document",
                        [binary, "--bench=gzip", *TINY, "--stats-json=-"])
        stdout_document("sweep --stats-json=- is one document",
                        [binary, "--all", "--jobs=2", *TINY,
                         "--stats-json=-"])
        stdout_document("single run --metrics-out=- is one document",
                        [binary, "--bench=gzip", *TINY, "--metrics-out=-"])
        probe("two documents on stdout is a config error",
              [binary, "--bench=gzip", *TINY, "--stats-json=-",
               "--metrics-out=-"], 1)
        probe("two sweep documents on stdout is a config error",
              [binary, "--all", *TINY, "--stats-json=-",
               "--spans-out=-"], 1)
        # wsrs-explore's report goes to stdout unless --out names a file.
        probe("wsrs-explore report and metrics on stdout is a config "
              "error", [explore, f"--space={space}", "--metrics-out=-"], 1)

        # wsrs-trace --replay runs through the simulator's one machine
        # assembly; the line it prints is locked.
        swim = os.path.join(tmp, "swim.trc")
        subprocess.run([trace, "--record", "--bench=swim", "--uops=60000",
                        f"--out={swim}"], check=True,
                       stdout=subprocess.DEVNULL)
        r = subprocess.run([trace, "--replay", f"--in={swim}",
                            "--machine=WSRS-RC-512", "--uops=50000"],
                           stdout=subprocess.PIPE, text=True, check=True)
        want = ("on WSRS-RC-512: IPC 1.501 over 50004 micro-ops "
                "(33321 cycles, 0.99% mispredict)\n")
        if not r.stdout.endswith(want):
            sys.exit(f"FAIL replay line: {r.stdout!r}, expected it to end "
                     f"with {want!r}")
        print("ok: replay line")

    print("all exit codes distinct and as documented")


if __name__ == "__main__":
    main()
