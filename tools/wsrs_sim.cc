/**
 * @file
 * The main simulation driver: run any benchmark on any machine with full
 * parameter control, emitting text, CSV or JSON results.
 *
 *   wsrs_sim --bench=gzip --machine=WSRS-RC-512 --uops=1000000
 *   wsrs_sim --all --csv > results.csv
 *   wsrs_sim --bench=swim --machine=RR-256 --set-window=128 --json
 */
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/args.h"
#include "src/common/log.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/span_log.h"
#include "src/runner/sweep_report.h"
#include "src/runner/sweep_runner.h"
#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/svc/coordinator.h"
#include "src/svc/service.h"
#include "src/svc/worker.h"
#include "src/workload/profiles.h"

using namespace wsrs;

namespace {

sim::PredictorKind
predictorFromName(const std::string &name)
{
    if (name == "2bc-gskew")
        return sim::PredictorKind::TwoBcGskew;
    if (name == "tournament")
        return sim::PredictorKind::Tournament;
    if (name == "gshare")
        return sim::PredictorKind::Gshare;
    if (name == "bimodal")
        return sim::PredictorKind::Bimodal;
    if (name == "perfect")
        return sim::PredictorKind::Perfect;
    fatal("unknown predictor '%s' (2bc-gskew|tournament|gshare|bimodal|perfect)",
          name.c_str());
}

core::FastForwardScope
ffScopeFromName(const std::string &name)
{
    if (name == "intra")
        return core::FastForwardScope::IntraCluster;
    if (name == "adjacent")
        return core::FastForwardScope::AdjacentPair;
    if (name == "complete")
        return core::FastForwardScope::Complete;
    fatal("unknown fast-forward scope '%s' (intra|adjacent|complete)",
          name.c_str());
}

/** Run @p write on stdout when @p path is "-", else on a fresh file at
 *  @p path; @p kind names the document in the open error. */
template <typename Write>
void
writeDocument(const std::string &path, const char *kind, Write &&write)
{
    if (path == "-") {
        write(std::cout);
        return;
    }
    std::ofstream os(path);
    if (!os)
        fatalIo("cannot open %s file '%s'", kind, path.c_str());
    write(os);
}

void
printText(const sim::SimResults &r)
{
    std::printf("benchmark            %s\n", r.benchmark.c_str());
    std::printf("machine              %s\n", r.machine.c_str());
    std::printf("IPC                  %.4f\n", r.ipc);
    std::printf("cycles               %llu\n",
                (unsigned long long)r.stats.cycles);
    std::printf("committed uops       %llu\n",
                (unsigned long long)r.stats.committed);
    std::printf("branch mispredict    %.3f%%\n",
                100 * r.branchMispredictRate);
    std::printf("L1 miss rate         %.3f%%\n", 100 * r.l1MissRate);
    std::printf("L2 miss rate         %.3f%% (of L1 misses)\n",
                100 * r.l2MissRate);
    std::printf("unbalancing degree   %.1f%%\n", r.unbalancingDegree);
    std::printf("load forwards        %llu\n",
                (unsigned long long)r.stats.loadForwards);
    std::printf("injected moves       %llu\n",
                (unsigned long long)r.stats.injectedMoves);
    std::printf("rename stalls        freeReg=%llu window=%llu rob=%llu "
                "lsq=%llu\n",
                (unsigned long long)r.stats.renameStallFreeReg,
                (unsigned long long)r.stats.renameStallWindow,
                (unsigned long long)r.stats.renameStallRob,
                (unsigned long long)r.stats.renameStallLsq);
    std::printf("cluster shares       ");
    std::uint64_t tot = 0;
    for (unsigned c = 0; c < 4; ++c)
        tot += r.stats.perCluster[c];
    for (unsigned c = 0; c < 4; ++c)
        std::printf("%.1f%% ",
                    tot ? 100.0 * r.stats.perCluster[c] / tot : 0.0);
    std::printf("\n");
}

void
printCsvHeader()
{
    std::printf("benchmark,machine,ipc,cycles,committed,mispredict_rate,"
                "l1_miss_rate,l2_miss_rate,unbalancing_degree,"
                "load_forwards,injected_moves,stall_free,stall_window,"
                "stall_rob,stall_lsq\n");
}

void
printCsv(const sim::SimResults &r)
{
    std::printf("%s,%s,%.4f,%llu,%llu,%.5f,%.5f,%.5f,%.2f,%llu,%llu,%llu,"
                "%llu,%llu,%llu\n",
                r.benchmark.c_str(), r.machine.c_str(), r.ipc,
                (unsigned long long)r.stats.cycles,
                (unsigned long long)r.stats.committed,
                r.branchMispredictRate, r.l1MissRate, r.l2MissRate,
                r.unbalancingDegree,
                (unsigned long long)r.stats.loadForwards,
                (unsigned long long)r.stats.injectedMoves,
                (unsigned long long)r.stats.renameStallFreeReg,
                (unsigned long long)r.stats.renameStallWindow,
                (unsigned long long)r.stats.renameStallRob,
                (unsigned long long)r.stats.renameStallLsq);
}

void
printJson(const sim::SimResults &r)
{
    std::printf("{\n");
    std::printf("  \"benchmark\": \"%s\",\n", r.benchmark.c_str());
    std::printf("  \"machine\": \"%s\",\n", r.machine.c_str());
    std::printf("  \"ipc\": %.4f,\n", r.ipc);
    std::printf("  \"cycles\": %llu,\n",
                (unsigned long long)r.stats.cycles);
    std::printf("  \"committed\": %llu,\n",
                (unsigned long long)r.stats.committed);
    std::printf("  \"mispredict_rate\": %.5f,\n", r.branchMispredictRate);
    std::printf("  \"l1_miss_rate\": %.5f,\n", r.l1MissRate);
    std::printf("  \"l2_miss_rate\": %.5f,\n", r.l2MissRate);
    std::printf("  \"unbalancing_degree\": %.2f,\n", r.unbalancingDegree);
    std::printf("  \"load_forwards\": %llu,\n",
                (unsigned long long)r.stats.loadForwards);
    std::printf("  \"injected_moves\": %llu,\n",
                (unsigned long long)r.stats.injectedMoves);
    std::printf("  \"rename_stalls\": {\"free\": %llu, \"window\": %llu, "
                "\"rob\": %llu, \"lsq\": %llu}\n",
                (unsigned long long)r.stats.renameStallFreeReg,
                (unsigned long long)r.stats.renameStallWindow,
                (unsigned long long)r.stats.renameStallRob,
                (unsigned long long)r.stats.renameStallLsq);
    std::printf("}\n");
}

/** Daemon instance reachable from the signal handler (static storage so
 *  the captureless handler lambda may use it). */
svc::SweepService *gService = nullptr;

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args;
    args.addOption("bench", "benchmark name (gzip .. facerec)");
    args.addOption("machine",
                   "machine preset (RR-256, WSRR-384, WSRR-512, WSP-512, "
                   "WSRS-RC-384, WSRS-RC-512, WSRS-RM-512, WSRS-DEP-512)");
    args.addOption("uops", "measured micro-ops (default 1000000)");
    args.addOption("warmup", "warm-up micro-ops (default 400000)");
    args.addOption("seed", "extra trace seed (default 0)");
    args.addOption("predictor",
                   "2bc-gskew | tournament | gshare | bimodal | perfect");
    args.addOption("mem-model",
                   "memory backend preset: constant | dram | dram-closed "
                   "(default constant; see docs/memory.md)");
    args.addOption("ff-scope", "intra | adjacent | complete");
    args.addOption("set-regs", "override physical register count");
    args.addOption("set-window", "override per-cluster window");
    args.addOption("set-lsq", "override LSQ size");
    args.addOption("set-issue", "override per-cluster issue width");
    args.addOption("verify", "enable commit-time oracle checking", true);
    args.addOption("timeline", "print the last N committed micro-ops");
    args.addOption("all", "run all benchmarks x Figure-4 machines", true);
    args.addOption("jobs",
                   "worker threads for --all (0 = all cores, 1 = serial)");
    args.addOption("csv", "emit one CSV row per run", true);
    args.addOption("json", "emit JSON (single run only)", true);
    args.addOption("trace-pipe",
                   "write a Konata/O3PipeView pipeline trace of the "
                   "measured slice to FILE (single run only)");
    args.addOption("trace-pipe-bin",
                   "write the compact binary pipeline trace to FILE "
                   "(single run only)");
    args.addOption("stats-json",
                   "write machine-readable stats to FILE: a wsrs-stats-v1 "
                   "document for a single run, a wsrs-sweep-report-v1 "
                   "aggregate with --all ('-' = stdout)");
    args.addOption("interval-stats",
                   "sample {cycle, committed, occupancy} every N cycles "
                   "into the stats JSON");
    args.addOption("ckpt-save",
                   "write a full-sim checkpoint to FILE at the "
                   "warm-up/measure boundary (single run only)");
    args.addOption("ckpt-load",
                   "restore a full-sim checkpoint from FILE instead of "
                   "warming up (single run only; config must match)");
    args.addOption("reuse-warmup",
                   "with --all: warm each benchmark once (functional "
                   "warm-up snapshot) and reuse it for every machine", true);
    args.addOption("resume-journal",
                   "with --all: journal each completed run to FILE so a "
                   "killed sweep can be resumed");
    args.addOption("resume",
                   "with --all and --resume-journal: skip runs already "
                   "recorded in the journal", true);
    args.addOption("coordinator",
                   "with --all: distribute the sweep to worker processes "
                   "from this endpoint (e.g. unix:/tmp/wsrs.sock)");
    args.addOption("workers",
                   "with --coordinator: self-spawn N worker processes");
    args.addOption("worker",
                   "run as a sweep worker: claim shard leases from the "
                   "coordinator at --connect", true);
    args.addOption("connect",
                   "endpoint of the coordinator (--worker) or daemon "
                   "(--request/--status)");
    args.addOption("shard-size",
                   "with --coordinator: jobs per shard lease (default 4)");
    args.addOption("lease-timeout-ms",
                   "with --coordinator: per-job lease deadline "
                   "(default 120000)");
    args.addOption("lease-retries",
                   "with --coordinator: re-lease budget per shard before "
                   "its jobs fail (default 3)");
    args.addOption("lease-backoff-ms",
                   "with --coordinator: base re-lease backoff, doubling "
                   "per attempt (default 100)");
    args.addOption("warmup-cache-dir",
                   "shared on-disk warm-up snapshot cache directory "
                   "(cross-process, flock-serialized)");
    args.addOption("serve",
                   "run as a sweep daemon on this endpoint, accepting "
                   "JSON sweep requests until SIGTERM");
    args.addOption("queue-depth",
                   "with --serve: max queued requests before rejects "
                   "(default 4)");
    args.addOption("serve-threads",
                   "with --serve: concurrent sweep executors (default 1)");
    args.addOption("frame-log",
                   "with --serve: write a wsrs-svc-frames-v1 protocol "
                   "log to FILE on shutdown");
    args.addOption("request",
                   "submit the JSON sweep request in FILE ('-' = stdin) "
                   "to the daemon at --connect; prints the report");
    args.addOption("status",
                   "print the daemon's wsrs-svc-status-v1 document "
                   "(needs --connect)", true);
    args.addOption("metrics-out",
                   "write the process metrics snapshot (wsrs-metrics-v1 "
                   "JSON) to FILE after the run ('-' = stdout)");
    args.addOption("spans-out",
                   "with --all: write the sweep's per-job span timeline "
                   "(wsrs-spans-v1 Chrome trace JSON, Perfetto-loadable) "
                   "to FILE ('-' = stdout)");
    args.addOption("help", "show this help", true);

    try {
        args.parse(argc, argv);
        if (args.has("help")) {
            std::printf("%s", args.usage("wsrs_sim").c_str());
            return 0;
        }

        auto configure = [&](const std::string &machine) {
            sim::SimConfig cfg;
            cfg.core = sim::findPreset(machine);
            cfg.measureUops = args.getUint("uops", 1000000);
            cfg.warmupUops = args.getUint("warmup", 400000);
            cfg.seed = args.getUint("seed", 0);
            cfg.verifyDataflow = args.has("verify");
            cfg.timelineRows =
                std::size_t(args.getUint("timeline", 0));
            if (args.has("predictor"))
                cfg.predictor = predictorFromName(args.get("predictor"));
            if (args.has("mem-model"))
                cfg.mem = sim::findMemPreset(args.get("mem-model"));
            if (args.has("ff-scope"))
                cfg.core.ffScope = ffScopeFromName(args.get("ff-scope"));
            if (args.has("set-regs"))
                cfg.core.numPhysRegs =
                    unsigned(args.getUint("set-regs", 0));
            if (args.has("set-window"))
                cfg.core.clusterWindow =
                    unsigned(args.getUint("set-window", 0));
            if (args.has("set-lsq"))
                cfg.core.lsqSize = unsigned(args.getUint("set-lsq", 0));
            if (args.has("set-issue"))
                cfg.core.issuePerCluster =
                    unsigned(args.getUint("set-issue", 0));
            cfg.intervalStatsCycles = args.getUint("interval-stats", 0);
            return cfg;
        };

        const auto writeMetricsFile = [](const std::string &path) {
            writeDocument(path, "metrics", [](std::ostream &os) {
                obs::MetricsRegistry::process().writeJson(os);
            });
        };

        // The full Figure-4/5 matrix, built identically by --all, by the
        // coordinator and by every worker process: identical construction
        // means identical sweepKeyHash, which is what lets lease frames
        // carry bare job indices.
        const auto matrixJobs = [&] {
            std::vector<runner::SweepJob> jobs;
            for (const auto &p : workload::allProfiles())
                for (const std::string &m : sim::figure4Presets())
                    jobs.push_back({p, configure(m)});
            return jobs;
        };

        if (args.has("worker")) {
            svc::WorkerOptions wopt;
            wopt.endpoint = args.get("connect", "");
            if (wopt.endpoint.empty())
                fatal("--worker needs --connect=ENDPOINT");
            wopt.reuseWarmup = args.has("reuse-warmup");
            wopt.warmupCacheDir = args.get("warmup-cache-dir", "");
            svc::runWorker(matrixJobs(), wopt);
            return 0;
        }

        if (args.has("serve")) {
            svc::ServiceOptions sopt;
            sopt.endpoint = args.get("serve");
            sopt.queueDepth =
                std::size_t(args.getUint("queue-depth", 4));
            sopt.executors = unsigned(args.getUint("serve-threads", 1));
            sopt.sweepThreads = unsigned(args.getUint("jobs", 1));
            sopt.frameLogPath = args.get("frame-log", "");
            svc::SweepService service(sopt);
            gService = &service;
            std::signal(SIGTERM, [](int) {
                if (gService)
                    gService->requestStop();
            });
            std::signal(SIGINT, [](int) {
                if (gService)
                    gService->requestStop();
            });
            service.start();
            std::fprintf(stderr, "wsrs-sim: serving on %s\n",
                         service.endpoint().c_str());
            service.wait();
            gService = nullptr;
            return 0;
        }

        if (args.has("request")) {
            const std::string endpoint = args.get("connect", "");
            if (endpoint.empty())
                fatal("--request needs --connect=ENDPOINT");
            const std::string spec = args.get("request");
            std::string json;
            if (spec == "-") {
                std::ostringstream buf;
                buf << std::cin.rdbuf();
                json = buf.str();
            } else {
                std::ifstream is(spec);
                if (!is)
                    fatalIo("cannot read sweep request file '%s'",
                            spec.c_str());
                std::ostringstream buf;
                buf << is.rdbuf();
                json = buf.str();
            }
            const svc::SubmitResult res =
                svc::submitSweep(endpoint, json);
            if (!res.accepted) {
                std::fprintf(stderr,
                             "wsrs-sim: request rejected: %s (retry "
                             "after %llu ms)\n",
                             res.reason.c_str(),
                             (unsigned long long)res.retryAfterMs);
                return 75; // EX_TEMPFAIL: back off and retry.
            }
            std::printf("%s\n", res.report.c_str());
            return 0;
        }

        if (args.has("status")) {
            const std::string endpoint = args.get("connect", "");
            if (endpoint.empty())
                fatal("--status needs --connect=ENDPOINT");
            std::printf("%s\n", svc::queryStatus(endpoint).c_str());
            return 0;
        }

        if (args.has("all")) {
            if (args.has("trace-pipe") || args.has("trace-pipe-bin"))
                fatal("--trace-pipe traces a single run; combine it with "
                      "--bench/--machine, not --all");
            if (args.has("ckpt-save") || args.has("ckpt-load"))
                fatal("--ckpt-save/--ckpt-load checkpoint a single run; "
                      "for sweeps use --reuse-warmup and --resume-journal");
            if (args.has("resume") && !args.has("resume-journal"))
                fatal("--resume needs --resume-journal=FILE to know which "
                      "journal to resume from");
            // The full matrix runs on the sweep runner: one job per
            // {benchmark, machine}, per-profile trace recorded once and
            // replayed for all machines, results streamed in submission
            // order as the completed prefix grows.
            const std::vector<runner::SweepJob> jobs = matrixJobs();

            if (args.has("csv"))
                printCsvHeader();
            std::vector<const runner::SweepOutcome *> slots(jobs.size());
            std::size_t nextToPrint = 0;
            const auto printEvent = [&](const runner::SweepEvent &ev) {
                slots[ev.index] = ev.outcome;
                while (nextToPrint < slots.size() && slots[nextToPrint]) {
                    const runner::SweepOutcome &o = *slots[nextToPrint];
                    if (!o.ok) {
                        std::fprintf(stderr, "wsrs_sim: %s on %s: %s\n",
                                     jobs[nextToPrint].profile.name.c_str(),
                                     jobs[nextToPrint].config.core.name
                                         .c_str(),
                                     o.error.c_str());
                    } else if (args.has("csv")) {
                        printCsv(o.results);
                    } else {
                        std::printf("%-10s %-12s IPC %.3f\n",
                                    o.results.benchmark.c_str(),
                                    o.results.machine.c_str(),
                                    o.results.ipc);
                    }
                    ++nextToPrint;
                }
                std::fflush(stdout);
            };

            std::vector<runner::SweepOutcome> outcomes;
            runner::SweepRunner::Telemetry telemetry;
            runner::SvcReport svcReport;
            const runner::SvcReport *svcPtr = nullptr;

            // Telemetry is opt-in per flag: the span log records the
            // per-job timeline (local or distributed), the process
            // registry collects runner/service instruments. Neither
            // touches the sweep report.
            obs::SpanLog spanLog;
            obs::SpanLog *const spans =
                args.has("spans-out") ? &spanLog : nullptr;
            obs::MetricsRegistry *const metrics =
                args.has("metrics-out") ? &obs::MetricsRegistry::process()
                                        : nullptr;

            if (args.has("coordinator")) {
                // Distributed execution: shard the pending jobs out to
                // worker processes; optionally self-spawn them.
                svc::Coordinator::Options copt;
                copt.endpoint = args.get("coordinator");
                copt.shardSize = args.getUint("shard-size", 4);
                copt.perJobTimeoutMs =
                    args.getUint("lease-timeout-ms", 120000);
                copt.maxLeaseRetries =
                    unsigned(args.getUint("lease-retries", 3));
                copt.leaseBackoffMs =
                    args.getUint("lease-backoff-ms", 100);
                copt.journalPath = args.get("resume-journal", "");
                copt.resume = args.has("resume");
                copt.reuseWarmup = args.has("reuse-warmup");
                copt.onEvent = printEvent;
                copt.spans = spans;
                copt.metrics = metrics;
                svc::Coordinator coord(copt, jobs);
                coord.bind();

                // Self-spawned workers re-exec this binary with the
                // sweep-defining flags forwarded verbatim, so they build
                // the identical job list (and sweep key).
                std::vector<pid_t> kids;
                const unsigned nWorkers =
                    unsigned(args.getUint("workers", 0));
                for (unsigned w = 0; w < nWorkers; ++w) {
                    std::vector<std::string> cmd;
                    cmd.push_back(argv[0]);
                    cmd.push_back("--worker");
                    cmd.push_back("--connect=" + coord.endpoint());
                    for (const char *o :
                         {"uops", "warmup", "seed", "predictor",
                          "mem-model", "ff-scope", "set-regs",
                          "set-window", "set-lsq", "set-issue", "timeline",
                          "interval-stats", "warmup-cache-dir"})
                        if (args.has(o))
                            cmd.push_back(std::string("--") + o + "=" +
                                          args.get(o));
                    for (const char *f : {"verify", "reuse-warmup"})
                        if (args.has(f))
                            cmd.push_back(std::string("--") + f);
                    std::vector<char *> cargv;
                    for (std::string &s : cmd)
                        cargv.push_back(s.data());
                    cargv.push_back(nullptr);
                    const pid_t pid = ::fork();
                    if (pid == 0) {
                        ::execv(cargv[0], cargv.data());
                        std::fprintf(stderr,
                                     "wsrs-sim: cannot exec worker %s\n",
                                     cargv[0]);
                        ::_exit(127);
                    }
                    if (pid < 0)
                        fatalIo("cannot fork worker process %u", w);
                    kids.push_back(pid);
                }

                outcomes = coord.run();
                telemetry = coord.telemetry();
                svcReport = coord.svcReport();
                svcPtr = &svcReport;
                for (const pid_t pid : kids)
                    ::waitpid(pid, nullptr, 0);
            } else {
                runner::SweepRunner::Options opt;
                opt.threads = unsigned(args.getUint("jobs", 0));
                opt.reuseWarmup = args.has("reuse-warmup");
                opt.journalPath = args.get("resume-journal", "");
                opt.resume = args.has("resume");
                opt.onEvent = printEvent;
                opt.spans = spans;
                opt.metrics = metrics;
                runner::SweepRunner sweep(opt);
                outcomes = sweep.run(jobs);
                telemetry = sweep.telemetry();
            }

            if (args.has("stats-json"))
                writeDocument(args.get("stats-json"), "stats",
                              [&](std::ostream &os) {
                                  runner::writeSweepReport(
                                      os, jobs, outcomes, telemetry,
                                      svcPtr);
                                  os << "\n";
                              });
            if (spans) {
                const std::string label =
                    "wsrs-sim --all (" + std::to_string(jobs.size()) +
                    " jobs)";
                writeDocument(args.get("spans-out"), "spans",
                              [&](std::ostream &os) {
                                  spanLog.writeChromeTrace(os, label);
                              });
            }
            if (metrics)
                writeMetricsFile(args.get("metrics-out"));
            for (const auto &o : outcomes)
                if (!o.ok)
                    return kExitJobFailure;
            return 0;
        }

        if (args.has("spans-out"))
            fatal("--spans-out records a sweep timeline; combine it with "
                  "--all");

        const std::string bench = args.get("bench", "gzip");
        const std::string machine = args.get("machine", "RR-256");
        sim::SimConfig cfg = configure(machine);
        cfg.tracePipePath = args.get("trace-pipe", "");
        cfg.tracePipeBinPath = args.get("trace-pipe-bin", "");
        cfg.checkpointSavePath = args.get("ckpt-save", "");
        cfg.checkpointLoadPath = args.get("ckpt-load", "");
        const sim::SimResults r =
            sim::runSimulation(workload::findProfile(bench), cfg);
        if (args.has("stats-json"))
            writeDocument(args.get("stats-json"), "stats",
                          [&](std::ostream &os) {
                              os << r.statsJson << "\n";
                          });
        if (args.has("metrics-out")) {
            // Single runs bump sim-level instruments here at the tool
            // layer, from the results — the simulator core itself stays
            // free of registry calls.
            auto &reg = obs::MetricsRegistry::process();
            reg.counter("wsrs_sim_runs_total",
                        "Completed single-run simulations.")
                .add();
            reg.counter("wsrs_sim_cycles_total",
                        "Simulated cycles across runs.")
                .add(r.stats.cycles);
            reg.counter("wsrs_sim_committed_uops_total",
                        "Committed micro-ops across runs.")
                .add(r.stats.committed);
            reg.histogram("wsrs_sim_host_ms",
                          "Host wall time per simulation run (ms).",
                          obs::MetricsRegistry::latencyBucketsMs())
                .observe(std::uint64_t(r.hostSeconds * 1000));
            reg.counter("wsrs_mem_requests_total",
                        "DRAM demand requests across measured slices.")
                .add(r.mem.dramRequests);
            reg.counter("wsrs_mem_row_hits_total",
                        "DRAM open-row hits across measured slices.")
                .add(r.mem.dramRowHits);
            reg.counter("wsrs_mem_row_conflicts_total",
                        "DRAM row conflicts across measured slices.")
                .add(r.mem.dramRowConflicts);
            reg.counter("wsrs_mem_queue_full_waits_total",
                        "DRAM requests delayed by a full in-flight "
                        "window.")
                .add(r.mem.dramQueueFullWaits);
            writeMetricsFile(args.get("metrics-out"));
        }
        if (args.has("csv")) {
            printCsvHeader();
            printCsv(r);
        } else if (args.has("json")) {
            printJson(r);
        } else {
            printText(r);
        }
        if (!r.timelineText.empty())
            std::printf("\n%s", r.timelineText.c_str());
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "wsrs_sim: %s\n", e.what());
        return exitCodeFor(e);
    }
}
