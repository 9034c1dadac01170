/**
 * @file
 * The main simulation driver: run any benchmark on any machine with full
 * parameter control, emitting text, CSV or JSON results.
 *
 *   wsrs_sim --bench=gzip --machine=WSRS-RC-512 --uops=1000000
 *   wsrs_sim --all --csv > results.csv
 *   wsrs_sim --bench=swim --machine=RR-256 --set-window=128 --stats-json=-
 */
#include <cstdio>
#include <ostream>
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

void
printText(std::FILE *out, const sim::SimResults &r)
{
    std::fprintf(out, "benchmark            %s\n", r.benchmark.c_str());
    std::fprintf(out, "machine              %s\n", r.machine.c_str());
    std::fprintf(out, "IPC                  %.4f\n", r.ipc);
    std::fprintf(out, "cycles               %llu\n",
                 (unsigned long long)r.stats.cycles);
    std::fprintf(out, "committed uops       %llu\n",
                 (unsigned long long)r.stats.committed);
    std::fprintf(out, "branch mispredict    %.3f%%\n",
                 100 * r.branchMispredictRate);
    std::fprintf(out, "L1 miss rate         %.3f%%\n", 100 * r.l1MissRate);
    std::fprintf(out, "L2 miss rate         %.3f%% (of L1 misses)\n",
                 100 * r.l2MissRate);
    std::fprintf(out, "unbalancing degree   %.1f%%\n",
                 r.unbalancingDegree);
    std::fprintf(out, "load forwards        %llu\n",
                 (unsigned long long)r.stats.loadForwards);
    std::fprintf(out, "injected moves       %llu\n",
                 (unsigned long long)r.stats.injectedMoves);
    std::fprintf(out, "rename stalls        freeReg=%llu window=%llu "
                 "rob=%llu lsq=%llu\n",
                 (unsigned long long)r.stats.renameStallFreeReg,
                 (unsigned long long)r.stats.renameStallWindow,
                 (unsigned long long)r.stats.renameStallRob,
                 (unsigned long long)r.stats.renameStallLsq);
    std::fprintf(out, "cluster shares       ");
    std::uint64_t tot = 0;
    for (unsigned c = 0; c < 4; ++c)
        tot += r.stats.perCluster[c];
    for (unsigned c = 0; c < 4; ++c)
        std::fprintf(out, "%.1f%% ",
                     tot ? 100.0 * r.stats.perCluster[c] / tot : 0.0);
    std::fprintf(out, "\n");
}

void
printCsvHeader(std::FILE *out)
{
    std::fprintf(out, "benchmark,machine,ipc,cycles,committed,"
                 "mispredict_rate,l1_miss_rate,l2_miss_rate,"
                 "unbalancing_degree,load_forwards,injected_moves,"
                 "stall_free,stall_window,stall_rob,stall_lsq\n");
}

void
printCsv(std::FILE *out, const sim::SimResults &r)
{
    std::fprintf(out, "%s,%s,%.4f,%llu,%llu,%.5f,%.5f,%.5f,%.2f,%llu,%llu,"
                 "%llu,%llu,%llu,%llu\n",
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
    args.addOption("trace-pipe",
                   "write a Konata/O3PipeView pipeline trace of the "
                   "measured slice to FILE (single run only)");
    args.addOption("trace-pipe-bin",
                   "write the compact binary pipeline trace to FILE "
                   "(single run only)");
    args.addOption("stats-json",
                   "write machine-readable stats to FILE: a wsrs-stats-v1 "
                   "document for a single run, a wsrs-sweep-report-v1 "
                   "aggregate with --all ('-' = stdout, and the text "
                   "output goes to stderr)");
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
    args.addOption("metrics-out",
                   "write the process metrics snapshot (wsrs-metrics-v1 "
                   "JSON) to FILE after the run ('-' = stdout)");
    args.addOption("spans-out",
                   "with --all: write the sweep's per-job span timeline "
                   "(wsrs-spans-v1 Chrome trace JSON, Perfetto-loadable) "
                   "to FILE ('-' = stdout)");
    args.addOption("help", "show this help", true);

    return runTool("wsrs_sim", [&]() -> int {
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
            cfg.core.verifyDataflow = args.has("verify");
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

        std::FILE *const text =
            textStream({{"stats-json", args.get("stats-json")},
                        {"metrics-out", args.get("metrics-out")},
                        {"spans-out", args.get("spans-out")}});

        const auto writeMetricsFile = [](const std::string &path) {
            writeDocument(path, "metrics", [](std::ostream &os) {
                obs::MetricsRegistry::process().writeJson(os);
            });
        };

        if (args.has("all")) {
            if (args.has("trace-pipe") || args.has("trace-pipe-bin"))
                fatal("--trace-pipe traces a single run; combine it with "
                      "--bench/--machine, not --all");
            if (args.has("timeline"))
                fatal("--timeline shows a single run; combine it with "
                      "--bench/--machine, not --all");
            if (args.has("ckpt-save") || args.has("ckpt-load"))
                fatal("--ckpt-save/--ckpt-load checkpoint a single run; "
                      "for sweeps use --reuse-warmup and --resume-journal");
            if (args.has("resume") && !args.has("resume-journal"))
                fatal("--resume needs --resume-journal=FILE to know which "
                      "journal to resume from");
            // The full Figure-4/5 matrix runs on the sweep runner: one job
            // per {benchmark, machine}, each streaming its own trace,
            // results printed in submission order as the completed prefix
            // grows.
            std::vector<runner::SweepJob> jobs;
            for (const auto &p : workload::allProfiles())
                for (const std::string &m : sim::figure4Presets())
                    jobs.push_back({p, configure(m)});

            if (args.has("csv"))
                printCsvHeader(text);
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
                        printCsv(text, o.results);
                    } else {
                        std::fprintf(text, "%-10s %-12s IPC %.3f\n",
                                     o.results.benchmark.c_str(),
                                     o.results.machine.c_str(),
                                     o.results.ipc);
                    }
                    ++nextToPrint;
                }
                std::fflush(text);
            };

            // Telemetry is opt-in per flag: the span log records the
            // per-job timeline, the process registry collects runner
            // instruments. Neither touches the sweep report.
            obs::SpanLog spanLog;
            obs::SpanLog *const spans =
                args.has("spans-out") ? &spanLog : nullptr;
            obs::MetricsRegistry *const metrics =
                args.has("metrics-out") ? &obs::MetricsRegistry::process()
                                        : nullptr;

            runner::SweepRunner::Options opt;
            opt.threads = unsigned(args.getUint("jobs", 0));
            opt.reuseWarmup = args.has("reuse-warmup");
            opt.journalPath = args.get("resume-journal", "");
            opt.resume = args.has("resume");
            opt.onEvent = printEvent;
            opt.spans = spans;
            opt.metrics = metrics;
            runner::SweepRunner sweep(opt);
            const std::vector<runner::SweepOutcome> outcomes =
                sweep.run(jobs);

            if (args.has("stats-json"))
                writeDocument(args.get("stats-json"), "stats",
                              [&](std::ostream &os) {
                                  runner::writeSweepReport(
                                      os, jobs, outcomes,
                                      sweep.telemetry());
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
            printCsvHeader(text);
            printCsv(text, r);
        } else {
            printText(text, r);
        }
        if (!r.timelineText.empty())
            std::fprintf(text, "\n%s", r.timelineText.c_str());
        return 0;
    });
}
