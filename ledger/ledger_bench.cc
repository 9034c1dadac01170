/**
 * @file
 * Performance-ledger workload runner.
 *
 * One invocation runs ONE repetition of one ledger workload in a fresh
 * process and prints one JSON line (schema wsrs-ledger-rep-v1) on stdout;
 * ledger.py interleaves repetitions, aggregates them and checks the
 * fingerprints. Every layer is timed from outside, around calls into the
 * modules' public entry points (sim::runSimulation, SweepRunner::run,
 * svc::Coordinator::run, explore::explore, buildWarmupSnapshot /
 * restoreWarmupSnapshot, TraceGenerator::next). With --traced the public
 * instrumentation hooks are attached as well (StageProfiler, SpanLog,
 * MetricsRegistry, the svc report) and the rep carries per-layer values.
 *
 *   ledger_bench --workload=fig4-jobs --seed=3 --scale=0.125 [--traced]
 *                [--scratch=DIR]
 *   ledger_bench --worker --connect=unix:SOCK --workload=fig4-svc ...
 *
 * The second form is a fig4-svc worker: it rebuilds the same job list from
 * the same flags and serves coordinator leases, as `wsrs-sim --worker`
 * does.
 */
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/bpred/predictor.h"
#include "src/common/args.h"
#include "src/common/log.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/explore/analytic_model.h"
#include "src/explore/explorer.h"
#include "src/explore/space.h"
#include "src/memory/hierarchy.h"
#include "src/obs/explore_metrics.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/span_log.h"
#include "src/obs/stage_profiler.h"
#include "src/runner/job_exec.h"
#include "src/runner/sweep_runner.h"
#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/sim/warmup.h"
#include "src/svc/coordinator.h"
#include "src/svc/json_min.h"
#include "src/svc/worker.h"
#include "src/workload/profiles.h"
#include "src/workload/trace_generator.h"

using namespace wsrs;

namespace {

/** Sweep threads, svc worker processes and explorer threads. */
constexpr unsigned kThreads = 4;
/** The paper protocol per job, before --scale. */
constexpr std::uint64_t kWarmupUops = 400000;
constexpr std::uint64_t kMeasureUops = 1000000;
/** explore::ExplorerOptions defaults, before --scale. */
constexpr std::uint64_t kConfirmWarmupUops = 100000;
constexpr std::uint64_t kConfirmMeasureUops = 300000;
constexpr std::size_t kConfirmTop = 12;
/** explore-query's space, relative to the checkout root (the cwd). */
constexpr const char *kSpacePath = "ledger/ledger_space.json";

double
monoNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
    return buf;
}

/** Peak resident set of this process image (VmHWM), in KiB. ru_maxrss
 *  would also count the launching interpreter: Linux carries it across
 *  execve. */
std::uint64_t
selfPeakRssKb()
{
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10);
    return 0;
}

struct Params
{
    std::string workload;
    std::uint64_t seed = 0;
    double scale = 1.0;
    bool traced = false;
    std::string scratch;
};

struct JobRecord
{
    std::string name;
    bool ok = false;
    std::string error;
    double latency = 0;
    std::string hash;
};

/** One repetition, as ledger.py consumes it. */
struct Rep
{
    double tFirst = 0;  ///< First timed call (end of set-up).
    double tEnd = 0;    ///< Last timed call returned.
    std::uint64_t simUops = 0;
    std::uint64_t workerPeakRssKb = 0;
    std::vector<JobRecord> jobs;
    std::vector<std::string> errors;
    std::map<std::string, double> layers;  ///< Traced reps only.

    double wall() const { return tEnd - tFirst; }
};

std::uint64_t
scaled(std::uint64_t n, double scale)
{
    return std::max<std::uint64_t>(1, std::uint64_t(double(n) * scale + 0.5));
}

sim::SimConfig
protocolConfig(const Params &p, bool dram)
{
    sim::SimConfig c;
    c.warmupUops = scaled(kWarmupUops, p.scale);
    c.measureUops = scaled(kMeasureUops, p.scale);
    if (dram)
        c.mem = sim::findMemPreset("dram");
    return c;
}

/** Fisher-Yates shuffle of each @p block-sized run of @p v; seed 0 keeps
 *  the paper order. */
template <typename T>
void
shuffleBlocks(std::vector<T> &v, std::size_t block, std::uint64_t seed)
{
    if (seed == 0)
        return;
    XorShiftRng rng(seed);
    for (std::size_t b = 0; b < v.size(); b += block)
        for (std::size_t i = std::min(block, v.size() - b); i > 1; --i)
            std::swap(v[b + i - 1], v[b + rng.below(i)]);
}

/**
 * The job list of a simulation workload; identical in the coordinator
 * and in every fig4-svc worker, so the sweep keys match. The seed
 * permutes the submission order only: every job, and so every
 * fingerprint, is the same for all seeds. The profile-major rows stay
 * where the paper matrix has them and the machines are shuffled within
 * each row: a sweep's trace cache and slow rows, and single-run's heap
 * high-water mark (which depends on how gzip and mcf runs interleave),
 * then do not depend on the seed.
 */
std::vector<runner::SweepJob>
workloadJobs(const Params &p)
{
    const std::vector<std::string> machines = sim::figure4Presets();
    std::vector<workload::BenchmarkProfile> profiles =
        workload::allProfiles();
    if (p.workload == "single-run") // gzip fits the 512 KB L2, mcf misses it
        profiles = {workload::findProfile("gzip"),
                    workload::findProfile("mcf")};
    std::vector<runner::SweepJob> jobs = runner::SweepRunner::crossProduct(
        profiles, machines,
        protocolConfig(p, p.workload == "fig4-reuse-dram"));
    shuffleBlocks(jobs, machines.size(), p.seed);
    return jobs;
}

JobRecord
record(const runner::SweepJob &job, const runner::SweepOutcome &o,
       double latency)
{
    JobRecord r;
    r.name = job.profile.name + "@" + job.config.core.name;
    r.ok = o.ok;
    r.error = o.error;
    r.latency = latency;
    if (o.ok)
        r.hash = hex64(fnv1a(o.results.statsJson));
    return r;
}

std::uint64_t
jobUops(const std::vector<runner::SweepJob> &jobs)
{
    std::uint64_t n = 0;
    for (const runner::SweepJob &j : jobs)
        n += j.config.warmupUops + j.config.measureUops;
    return n;
}

/** Non-idle memory-queue stall cycles of one wsrs-stats-v1 document (the
 *  five DRAM buckets always sum to the core cycles, so idle is left out).
 *  0 under the constant model, which has no stall object. */
double
memoryStallCycles(const std::string &statsJson)
{
    const svc::JsonValue doc = svc::parseJson(statsJson, "wsrs-stats-v1");
    if (!doc.has("memory") || !doc.get("memory").has("stall"))
        return 0;
    const svc::JsonValue &causes =
        doc.get("memory").get("stall").get("causes");
    double sum = 0;
    for (const auto &[cause, cycles] : causes.asObject())
        if (cause != "idle")
            sum += double(cycles.asInt());
    return sum;
}

/** core/memory/bpred/sim counts from the jobs' simulated results. */
void
addSimulatedLayers(Rep &rep, const std::vector<runner::SweepOutcome> &outs)
{
    double cycles = 0, ipc = 0, l1 = 0, l2 = 0, stall = 0, bytes = 0;
    double requests = 0, rowHits = 0, fullWaits = 0, branches = 0,
           mispredicts = 0;
    std::size_t n = 0;
    for (const runner::SweepOutcome &o : outs) {
        if (!o.ok)
            continue;
        const sim::SimResults &r = o.results;
        ++n;
        cycles += double(r.stats.cycles);
        ipc += r.ipc;
        l1 += r.l1MissRate;
        l2 += r.l2MissRate;
        requests += double(r.mem.dramRequests);
        rowHits += double(r.mem.dramRowHits);
        fullWaits += double(r.mem.dramQueueFullWaits);
        branches += double(r.stats.branches);
        mispredicts += double(r.stats.mispredicts);
        stall += memoryStallCycles(r.statsJson);
        bytes += double(r.statsJson.size());
    }
    const double k = n ? 1.0 / double(n) : 0.0;
    rep.layers["core.cycles"] = cycles;
    rep.layers["core.ipc_mean"] = ipc * k;
    rep.layers["memory.l1_miss_rate"] = l1 * k;
    rep.layers["memory.l2_miss_rate"] = l2 * k;
    rep.layers["memory.dram_requests"] = requests;
    rep.layers["memory.dram_row_hit_frac"] =
        requests > 0 ? rowHits / requests : 0.0;
    rep.layers["memory.dram_queue_full_waits"] = fullWaits;
    rep.layers["memory.stall_cycles"] = stall;
    rep.layers["bpred.mispredict_rate"] =
        branches > 0 ? mispredicts / branches : 0.0;
    rep.layers["sim.stats_json_bytes"] = bytes;
}

volatile std::uint64_t gGenSink;

/**
 * Standalone TraceGenerator::next cost over the workload's distinct
 * (profile, seed) streams, charged to the @p generated micro-ops the
 * workload itself draws from generators. Runs after the timed window.
 */
void
addGenerationLayers(Rep &rep, const std::vector<runner::SweepJob> &streams,
                    std::uint64_t generated)
{
    std::uint64_t uops = 0, sink = 0;
    const double t0 = monoNow();
    for (const runner::SweepJob &s : streams) {
        workload::TraceGenerator gen(s.profile, s.config.seed);
        const std::uint64_t n = s.config.warmupUops + s.config.measureUops;
        for (std::uint64_t i = 0; i < n; ++i)
            sink += gen.next().pc;
        uops += n;
    }
    const double secs = monoNow() - t0;
    gGenSink = sink;
    const double nsPerUop = uops ? secs * 1e9 / double(uops) : 0.0;
    rep.layers["workload.uops_generated"] = double(generated);
    rep.layers["workload.gen_ns_per_uop"] = nsPerUop;
    rep.layers["workload.gen_s"] = nsPerUop * double(generated) * 1e-9;
}

/** First job of each distinct profile (jobs are profile-major). */
std::vector<runner::SweepJob>
distinctProfiles(const std::vector<runner::SweepJob> &jobs)
{
    std::vector<runner::SweepJob> out;
    std::set<std::string> seen;
    for (const runner::SweepJob &j : jobs)
        if (seen.insert(j.profile.name).second)
            out.push_back(j);
    return out;
}

/**
 * runner/other layers of a sweep from its span log: per-job warmup and
 * simulate spans are the busy time, the rest of threads x wall is idle.
 */
void
addSweepLayers(Rep &rep, const obs::SpanLog &spans, std::size_t numJobs,
               std::size_t numFailed, std::size_t distinctTraces)
{
    double warmup = 0, simulate = 0, build = 0;
    std::map<std::uint64_t, std::pair<std::int64_t, std::int64_t>> extent;
    for (const obs::SpanEvent &e : spans.snapshot()) {
        if (e.phase != 'X' || (e.name != "warmup" && e.name != "simulate"))
            continue;
        const double d = double(e.durUs) * 1e-6;
        if (e.name == "warmup") {
            warmup += d;
            if (e.detail == "build")
                build += d;
        } else {
            simulate += d;
        }
        auto it = extent.find(e.job);
        if (it == extent.end()) {
            extent.emplace(e.job,
                           std::make_pair(e.startUs, e.startUs + e.durUs));
        } else {
            it->second.first = std::min(it->second.first, e.startUs);
            it->second.second =
                std::max(it->second.second, e.startUs + e.durUs);
        }
    }
    double busy = 0;
    std::int64_t lastStart = 0;
    for (const auto &[job, se] : extent) {
        busy += double(se.second - se.first) * 1e-6;
        lastStart = std::max(lastStart, se.first);
    }
    // The first worker goes idle at the first completion after the last
    // job was picked up; everything from there on is the tail.
    std::int64_t tailStart = 0;
    for (const auto &[job, se] : extent)
        if (se.second >= lastStart && (!tailStart || se.second < tailStart))
            tailStart = se.second;
    const double basis = double(kThreads) * rep.wall();
    const double other = busy - warmup - simulate;
    rep.layers["runner.jobs"] = double(numJobs);
    rep.layers["runner.jobs_failed"] = double(numFailed);
    rep.layers["runner.threads"] = kThreads;
    rep.layers["runner.warmup_s"] = warmup;
    rep.layers["runner.simulate_s"] = simulate;
    rep.layers["runner.idle_s"] = basis - busy;
    rep.layers["runner.busy_frac"] = basis > 0 ? busy / basis : 0.0;
    rep.layers["runner.tail_s"] =
        tailStart ? std::max(0.0, rep.tEnd - double(tailStart) * 1e-6) : 0.0;
    rep.layers["runner.trace_reuse_frac"] =
        numJobs ? double(numJobs - distinctTraces) / double(numJobs) : 0.0;
    rep.layers["sim.run_s"] = simulate;
    rep.layers["ckpt.build_s"] = build;
    rep.layers["other.self_s"] = other;
    rep.layers["obs.unattributed_frac"] = basis > 0 ? other / basis : 0.0;
}

void
addCkptCounters(Rep &rep, const runner::SweepRunner::Telemetry &t)
{
    const double lookups = double(t.warmupHits + t.warmupMisses);
    rep.layers["ckpt.warmup_builds"] = double(t.warmupMisses);
    rep.layers["ckpt.warmup_hits"] = double(t.warmupHits);
    rep.layers["ckpt.hit_frac"] =
        lookups > 0 ? double(t.warmupHits) / lookups : 0.0;
}

/**
 * Standalone buildWarmupSnapshot / restoreWarmupSnapshot over the
 * workload's distinct profiles. The sweep restores inside runSimulation,
 * so its restore time is charged as restores x the standalone mean.
 */
void
addSnapshotLayers(Rep &rep, const std::vector<runner::SweepJob> &jobs,
                  std::uint64_t restores)
{
    double buildS = 0, restoreS = 0, bytes = 0, uops = 0;
    const std::vector<runner::SweepJob> profiles = distinctProfiles(jobs);
    for (const runner::SweepJob &j : profiles) {
        const double t0 = monoNow();
        const std::string blob = sim::buildWarmupSnapshot(j.profile, j.config);
        const double t1 = monoNow();
        StatGroup stats(j.profile.name);
        memory::MemoryHierarchy mem(j.config.mem, stats);
        const auto predictor = sim::makePredictor(j.config.predictor);
        const double t2 = monoNow();
        sim::restoreWarmupSnapshot(blob, "ledger", j.profile, j.config, mem,
                                   *predictor);
        restoreS += monoNow() - t2;
        buildS += t1 - t0;
        bytes += double(blob.size());
        uops += double(j.config.warmupUops);
    }
    rep.layers["ckpt.build_ns_per_uop"] = uops > 0 ? buildS * 1e9 / uops : 0;
    rep.layers["ckpt.restore_s"] =
        profiles.empty() ? 0.0
                         : restoreS / double(profiles.size()) *
                               double(restores);
    rep.layers["ckpt.blob_bytes"] = bytes;
}

Rep
runSingle(const Params &p)
{
    const std::vector<runner::SweepJob> jobs = workloadJobs(p);
    obs::StageProfiler profiler;
    std::vector<runner::SweepOutcome> outs;
    outs.reserve(jobs.size());
    Rep rep;
    double runS = 0;
    rep.tFirst = monoNow();
    for (const runner::SweepJob &job : jobs) {
        sim::SimConfig cfg = job.config;
        if (p.traced)
            cfg.profiler = &profiler;
        runner::SweepOutcome o;
        const double t0 = monoNow();
        try {
            o.results = sim::runSimulation(job.profile, cfg);
            o.ok = true;
        } catch (const std::exception &e) {
            o.error = e.what();
        }
        const double d = monoNow() - t0;
        runS += d;
        rep.jobs.push_back(record(job, o, d));
        outs.push_back(std::move(o));
    }
    rep.tEnd = monoNow();
    rep.simUops = jobUops(jobs);
    if (!p.traced)
        return rep;

    using S = obs::StageProfiler;
    const std::pair<const char *, S::Stage> stages[] = {
        {"core.fetch_s", S::Fetch},   {"core.rename_s", S::Rename},
        {"core.issue_s", S::Issue},   {"core.agen_s", S::Agen},
        {"core.store_data_s", S::StoreData}, {"core.commit_s", S::Commit}};
    double stageSum = 0;
    for (const auto &[name, stage] : stages) {
        rep.layers[name] = profiler.seconds(stage);
        stageSum += profiler.seconds(stage);
    }
    addSimulatedLayers(rep, outs);
    const double cycles = rep.layers["core.cycles"];
    rep.layers["core.host_ns_per_cycle"] =
        cycles > 0 ? stageSum * 1e9 / cycles : 0.0;
    rep.layers["sim.run_s"] = runS;
    rep.layers["sim.other_s"] = runS - stageSum;
    rep.layers["other.self_s"] = rep.wall() - runS;
    rep.layers["obs.unattributed_frac"] = (rep.wall() - runS) / rep.wall();
    // No trace cache: every run regenerates its own stream.
    addGenerationLayers(rep, distinctProfiles(jobs), jobUops(jobs));
    return rep;
}

Rep
runSweep(const Params &p)
{
    const std::vector<runner::SweepJob> jobs = workloadJobs(p);
    runner::SweepRunner::Options opt;
    opt.threads = kThreads;
    opt.shareTraces = true;
    opt.reuseWarmup = p.workload == "fig4-reuse-dram";
    std::vector<double> done(jobs.size(), 0.0);
    opt.onEvent = [&done](const runner::SweepEvent &ev) {
        done[ev.index] = monoNow();
    };
    obs::SpanLog spans;
    if (p.traced)
        opt.spans = &spans;
    runner::SweepRunner sweep(opt);

    Rep rep;
    rep.tFirst = monoNow();
    const std::vector<runner::SweepOutcome> outs = sweep.run(jobs);
    rep.tEnd = monoNow();
    std::size_t failed = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        rep.jobs.push_back(record(jobs[i], outs[i], done[i] - rep.tFirst));
        failed += outs[i].ok ? 0 : 1;
    }
    rep.simUops = jobUops(jobs);
    if (!p.traced)
        return rep;

    const std::vector<runner::SweepJob> traces = distinctProfiles(jobs);
    addSimulatedLayers(rep, outs);
    addSweepLayers(rep, spans, jobs.size(), failed, traces.size());
    addCkptCounters(rep, sweep.telemetry());
    if (opt.reuseWarmup)
        addSnapshotLayers(rep, jobs, jobs.size());
    // Shared traces: each profile's stream is generated once.
    addGenerationLayers(rep, traces, jobUops(traces));
    return rep;
}

/** Worker processes of one fig4-svc rep; killed and reaped on unwind. */
class WorkerProcs
{
  public:
    WorkerProcs() = default;
    WorkerProcs(const WorkerProcs &) = delete;
    WorkerProcs &operator=(const WorkerProcs &) = delete;
    ~WorkerProcs()
    {
        for (const pid_t pid : pids_)
            ::kill(pid, SIGKILL);
        reap();
    }

    void
    spawn(std::vector<std::string> argv)
    {
        std::vector<char *> cargv;
        for (std::string &s : argv)
            cargv.push_back(s.data());
        cargv.push_back(nullptr);
        const pid_t pid = ::fork();
        if (pid == 0) {
            ::execv("/proc/self/exe", cargv.data());
            std::fprintf(stderr, "ledger_bench: cannot exec worker: %s\n",
                         std::strerror(errno));
            ::_exit(127);
        }
        if (pid < 0)
            fatalIo("cannot fork worker process: %s", std::strerror(errno));
        pids_.push_back(pid);
    }

    /** Wait for every worker; returns the count that did not exit 0. */
    std::size_t
    reap()
    {
        std::size_t bad = 0;
        for (const pid_t pid : pids_) {
            int status = 0;
            rusage ru{};
            while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
            }
            if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
                ++bad;
            peakRssKb_ = std::max<std::uint64_t>(peakRssKb_, ru.ru_maxrss);
        }
        pids_.clear();
        return bad;
    }

    std::uint64_t peakRssKb() const { return peakRssKb_; }

  private:
    std::vector<pid_t> pids_;
    std::uint64_t peakRssKb_ = 0;
};

Rep
runSvc(const Params &p)
{
    const std::vector<runner::SweepJob> jobs = workloadJobs(p);
    svc::Coordinator::Options copt;
    copt.endpoint = "unix:" + p.scratch + "/svc-" +
                    std::to_string(::getpid()) + ".sock";
    std::vector<double> done(jobs.size(), 0.0);
    copt.onEvent = [&done](const runner::SweepEvent &ev) {
        done[ev.index] = monoNow();
    };
    obs::SpanLog spans;
    if (p.traced)
        copt.spans = &spans;
    svc::Coordinator coord(copt, jobs);

    // Bind and worker exec are set-up; the handshake happens inside run().
    const double spawn0 = monoNow();
    coord.bind();
    WorkerProcs workers;
    char scale[64];
    std::snprintf(scale, sizeof(scale), "--scale=%.17g", p.scale);
    for (unsigned w = 0; w < kThreads; ++w)
        workers.spawn({"ledger_bench", "--worker",
                       "--connect=" + coord.endpoint(),
                       "--workload=" + p.workload,
                       "--seed=" + std::to_string(p.seed), scale});
    const double spawnS = monoNow() - spawn0;

    Rep rep;
    rep.tFirst = monoNow();
    const std::vector<runner::SweepOutcome> outs = coord.run();
    rep.tEnd = monoNow();
    if (const std::size_t bad = workers.reap())
        rep.errors.push_back(std::to_string(bad) +
                             " svc worker(s) exited abnormally");
    rep.workerPeakRssKb = workers.peakRssKb();
    std::size_t failed = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        rep.jobs.push_back(record(jobs[i], outs[i], done[i] - rep.tFirst));
        failed += outs[i].ok ? 0 : 1;
    }
    rep.simUops = jobUops(jobs);
    if (!p.traced)
        return rep;

    // Each worker keeps its own trace cache; a profile is generated at
    // least once.
    const std::vector<runner::SweepJob> traces = distinctProfiles(jobs);
    addSimulatedLayers(rep, outs);
    addSweepLayers(rep, spans, jobs.size(), failed, traces.size());
    addCkptCounters(rep, coord.telemetry());
    const obs::SvcCounters &c = coord.svcReport().counters;
    rep.layers["svc.spawn_s"] = spawnS;
    rep.layers["svc.leases_granted"] = double(c.leasesGranted);
    rep.layers["svc.lease_retries"] = double(c.leaseRetries);
    rep.layers["svc.lease_timeouts"] = double(c.leaseTimeouts);
    rep.layers["svc.duplicate_results"] = double(c.duplicateResults);
    rep.layers["svc.workers_lost"] = double(c.workersLost);
    addGenerationLayers(rep, traces, jobUops(traces));
    return rep;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fatalIo("cannot read '%s'", path.c_str());
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

Rep
runExplore(const Params &p)
{
    // The query has no seeded input: every reordering of the space (axis
    // order, workload order) changes its work or its memory high-water
    // mark, so runs with different seeds would not be comparable.
    const explore::SpaceSpec spec =
        explore::parseSpaceSpec(readFile(kSpacePath), kSpacePath);

    explore::ExplorerOptions opt;
    opt.threads = kThreads;
    opt.confirmTop = kConfirmTop;
    opt.confirmThreads = kThreads;
    opt.confirmWarmupUops = scaled(kConfirmWarmupUops, p.scale);
    opt.confirmMeasureUops = scaled(kConfirmMeasureUops, p.scale);
    obs::MetricsRegistry registry;
    if (p.traced)
        opt.metrics = &registry;
    const explore::AnalyticModel model;

    Rep rep;
    rep.tFirst = monoNow();
    const explore::ExplorerResult r = explore::explore(spec, model, opt);
    rep.tEnd = monoNow();

    JobRecord q;
    q.name = "query";
    q.latency = rep.wall();
    q.hash = hex64(fnv1a(r.reportJson));
    q.ok = r.confirmed.size() == std::min(kConfirmTop, r.frontier.size());
    for (const explore::ConfirmedPoint &c : r.confirmed)
        if (!c.ok) {
            q.ok = false;
            q.error = c.error;
        }
    rep.jobs.push_back(q);
    const std::uint64_t confirmJobs =
        r.confirmed.size() * spec.workloads.size();
    rep.simUops =
        confirmJobs * (opt.confirmWarmupUops + opt.confirmMeasureUops);
    if (!p.traced)
        return rep;

    // The explorer reports its phase times and the confirmation sweep's
    // job times through the registry, in whole milliseconds.
    obs::ExploreMetrics em(registry);
    runner::RunnerMetrics rm(registry);
    const double analytic = double(em.enumerateMs.sum()) * 1e-3;
    const double confirm = double(em.confirmMs.sum()) * 1e-3;
    const double jobS = double(rm.jobMs.sum()) * 1e-3;
    const double basis = double(kThreads) * confirm;
    rep.layers["explore.enumerated"] = double(r.enumerated);
    rep.layers["explore.infeasible"] = double(r.infeasible);
    rep.layers["explore.frontier_size"] = double(r.frontier.size());
    rep.layers["explore.analytic_s"] = analytic;
    rep.layers["explore.configs_per_s"] =
        analytic > 0 ? double(r.enumerated) / analytic : 0.0;
    rep.layers["explore.confirm_s"] = confirm;
    rep.layers["explore.confirm_jobs"] = double(em.confirmJobs.value());
    rep.layers["explore.confirm_spearman"] = r.confirmSpearman;
    rep.layers["explore.rank_inversions"] = double(r.rankInversions);
    rep.layers["explore.report_bytes"] = double(r.reportJson.size());
    rep.layers["runner.jobs"] = double(rm.jobsExecuted.value());
    rep.layers["runner.jobs_failed"] = double(rm.jobFailures.value());
    rep.layers["runner.threads"] = kThreads;
    rep.layers["runner.simulate_s"] = double(rm.simulateMs.sum()) * 1e-3;
    rep.layers["runner.idle_s"] = basis - jobS;
    rep.layers["runner.busy_frac"] = basis > 0 ? jobS / basis : 0.0;
    rep.layers["runner.trace_reuse_frac"] =
        confirmJobs ? double(confirmJobs - spec.workloads.size()) /
                          double(confirmJobs)
                    : 0.0;
    rep.layers["sim.run_s"] = double(rm.simulateMs.sum()) * 1e-3;
    const double other = rep.wall() - analytic - confirm;
    rep.layers["other.self_s"] = other;
    rep.layers["obs.unattributed_frac"] = other / rep.wall();

    std::vector<runner::SweepJob> traces;
    for (const std::string &w : spec.workloads) {
        runner::SweepJob s{workload::findProfile(w), {}};
        s.config.warmupUops = opt.confirmWarmupUops;
        s.config.measureUops = opt.confirmMeasureUops;
        traces.push_back(std::move(s));
    }
    addGenerationLayers(rep, traces, confirmJobs ? jobUops(traces) : 0);
    return rep;
}

void
printRep(const Params &p, const Rep &rep)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"schema\":\"wsrs-ledger-rep-v1\",\"workload\":\""
       << jsonEscape(p.workload) << "\",\"seed\":" << p.seed
       << ",\"scale\":" << p.scale
       << ",\"traced\":" << (p.traced ? "true" : "false")
       << ",\"build_type\":\"" << WSRS_BUILD_TYPE << "\""
       << ",\"t_first\":" << rep.tFirst << ",\"wall_s\":" << rep.wall()
       << ",\"sim_uops\":" << rep.simUops
       << ",\"peak_rss_kb\":" << selfPeakRssKb()
       << ",\"worker_peak_rss_kb\":" << rep.workerPeakRssKb << ",\"jobs\":[";
    for (std::size_t i = 0; i < rep.jobs.size(); ++i) {
        const JobRecord &j = rep.jobs[i];
        os << (i ? "," : "") << "{\"name\":\"" << jsonEscape(j.name)
           << "\",\"ok\":" << (j.ok ? "true" : "false")
           << ",\"latency_s\":" << j.latency << ",\"hash\":\"" << j.hash
           << "\",\"error\":\"" << jsonEscape(j.error) << "\"}";
    }
    os << "],\"errors\":[";
    for (std::size_t i = 0; i < rep.errors.size(); ++i)
        os << (i ? "," : "") << '"' << jsonEscape(rep.errors[i]) << '"';
    os << "],\"layers\":{";
    bool first = true;
    for (const auto &[name, value] : rep.layers) {
        os << (first ? "" : ",") << '"' << name << "\":" << value;
        first = false;
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        ArgParser args;
        args.addOption("workload", "single-run | fig4-jobs | "
                                   "fig4-reuse-dram | fig4-svc | "
                                   "explore-query");
        args.addOption("seed", "input seed (permutes the submission order)");
        args.addOption("scale", "multiplier on the per-job micro-op counts");
        args.addOption("traced", "attach the instrumentation hooks", true);
        args.addOption("scratch", "directory for the fig4-svc socket");
        args.addOption("worker", "serve fig4-svc leases", true);
        args.addOption("connect", "with --worker: coordinator endpoint");
        args.parse(argc, argv);

        Params p;
        p.workload = args.get("workload");
        p.seed = args.getUint("seed", 0);
        p.scale = args.getDouble("scale", 1.0);
        p.traced = args.has("traced");
        p.scratch = args.get("scratch", ".");
        if (!(p.scale > 0 && p.scale <= 1))
            fatal("--scale must be in (0, 1]");

        if (args.has("worker")) {
            svc::WorkerOptions wopt;
            wopt.endpoint = args.get("connect");
            if (wopt.endpoint.empty())
                fatal("--worker needs --connect=ENDPOINT");
            svc::runWorker(workloadJobs(p), wopt);
            return 0;
        }

        Rep rep;
        if (p.workload == "single-run")
            rep = runSingle(p);
        else if (p.workload == "fig4-jobs" || p.workload == "fig4-reuse-dram")
            rep = runSweep(p);
        else if (p.workload == "fig4-svc")
            rep = runSvc(p);
        else if (p.workload == "explore-query")
            rep = runExplore(p);
        else
            fatal("unknown --workload '%s'", p.workload.c_str());
        printRep(p, rep);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ledger_bench: %s\n", e.what());
        return 1;
    }
}
