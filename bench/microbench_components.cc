/**
 * @file
 * Google-benchmark microbenchmarks of the simulator's building blocks:
 * trace generation, branch prediction, cache access, and whole-machine
 * simulation throughput (micro-ops per second) for each machine
 * configuration. These track the *host* performance of the simulator
 * itself, not simulated metrics.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/bpred/simple_predictors.h"
#include "src/bpred/two_bc_gskew.h"
#include "src/common/args.h"
#include "src/common/json.h"
#include "src/common/log.h"
#include "src/core/cluster_alloc.h"
#include "src/isa/micro_op.h"
#include "src/memory/hierarchy.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/span_log.h"
#include "src/obs/stage_profiler.h"
#include "src/runner/sweep_runner.h"
#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/workload/profiles.h"
#include "src/workload/trace_generator.h"

using namespace wsrs;

namespace {

void
BM_TraceGeneration(benchmark::State &state)
{
    workload::TraceGenerator gen(workload::findProfile("gzip"));
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGeneration);

void
BM_TwoBcGskewLookupUpdate(benchmark::State &state)
{
    bpred::TwoBcGskew bp;
    XorShiftRng rng(5);
    Addr pc = 0x400000;
    for (auto _ : state) {
        const bool taken = rng.chance(0.6);
        benchmark::DoNotOptimize(bp.lookup(pc));
        bp.update(pc, taken);
        pc = 0x400000 + (rng.next() & 0x3ff) * 4;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TwoBcGskewLookupUpdate);

void
BM_CacheHierarchyAccess(benchmark::State &state)
{
    StatGroup stats("bm");
    memory::MemoryHierarchy mem(memory::HierarchyParams{}, stats);
    XorShiftRng rng(11);
    Cycle now = 0;
    for (auto _ : state) {
        const Addr a = 8 * rng.below(1 << 16);
        benchmark::DoNotOptimize(mem.access(a, false, now++));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHierarchyAccess);

void
BM_SimulatorThroughput(benchmark::State &state, const char *machine,
                       const char *bench)
{
    for (auto _ : state) {
        sim::SimConfig cfg;
        cfg.core = sim::findPreset(machine);
        cfg.warmupUops = 0;
        cfg.measureUops = 50000;
        const sim::SimResults r =
            sim::runSimulation(workload::findProfile(bench), cfg);
        benchmark::DoNotOptimize(r.ipc);
        state.SetItemsProcessed(state.items_processed() + 50000);
    }
}
BENCHMARK_CAPTURE(BM_SimulatorThroughput, rr256_gzip, "RR-256", "gzip")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SimulatorThroughput, wsrs_rc512_gzip, "WSRS-RC-512",
                  "gzip")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SimulatorThroughput, wsrs_rm512_swim, "WSRS-RM-512",
                  "swim")
    ->Unit(benchmark::kMillisecond);

/** Deterministic micro-op / operand-subset stream for the placement
 *  benchmark below. */
std::uint64_t
nextAllocCase(std::uint64_t x, isa::MicroOp &op, core::AllocContext &ctx)
{
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
    const unsigned arity = (x & 15) < 10 ? 2 : ((x & 15) < 14 ? 1 : 0);
    op.src1 = arity >= 1 ? static_cast<LogReg>(1) : kNoLogReg;
    op.src2 = arity >= 2 ? static_cast<LogReg>(2) : kNoLogReg;
    op.commutative = (x & 16) != 0;
    ctx.src1Subset = static_cast<SubsetId>((x >> 5) & 3);
    ctx.src2Subset = static_cast<SubsetId>((x >> 7) & 3);
    return x;
}

void
BM_WsrsOptionsInterned(benchmark::State &state)
{
    // Shipped path: single indexed load from the 96-entry table interned
    // at construction.
    core::ClusterAllocator alloc(sim::findPreset("WSRS-RC-512"));
    isa::MicroOp op;
    core::AllocContext ctx;
    std::uint64_t x = 0x9e3779b97f4a7c15;
    for (auto _ : state) {
        x = nextAllocCase(x, op, ctx);
        unsigned count = 0;
        const auto opts = alloc.wsrsOptions(op, ctx, count);
        benchmark::DoNotOptimize(opts);
        benchmark::DoNotOptimize(count);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WsrsOptionsInterned);

// ---------------------------------------------------------------------
// Machine-readable throughput tracking (BENCH_sim_throughput.json).
//
// `microbench_components --sim-throughput-json=PATH` skips the google
// benchmarks and instead measures (a) whole-machine simulation throughput
// in micro-ops/second for each Figure-4 preset and (b) the wall-clock of
// the full 12-benchmark x 6-machine sweep, serial versus parallel. The
// JSON feeds scripts/check_throughput.py (ctest label `perf-smoke`) so
// host-performance regressions are caught from this file onward.
// ---------------------------------------------------------------------

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/**
 * CPU seconds consumed so far on @p clock. The overhead A/Bs time their
 * arms in CPU time rather than wall time: on a shared host a wall-clock
 * arm also counts the time its thread spent descheduled, a noise term
 * as large as the 2% effect being gated.
 */
double
cpuSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/**
 * Median of per-round arm/reference throughput ratios. The A/B gates
 * compare arms measured back-to-back within each round, so a host
 * noise spike inflates or deflates both sides of a round's ratio
 * roughly equally and cancels; the median then discards the rounds
 * where it didn't. Far more stable on shared hosts than comparing
 * each arm's independent best-of, where one lucky reference round
 * fails the gate.
 */
double
medianPairedRatio(std::vector<double> ratios)
{
    std::sort(ratios.begin(), ratios.end());
    const std::size_t n = ratios.size();
    return n % 2 ? ratios[n / 2]
                 : 0.5 * (ratios[n / 2 - 1] + ratios[n / 2]);
}

/** Measure and write the wsrs-sim-throughput-v1 document to @p os. */
void
emitThroughputJson(std::ostream &os)
{
    const std::uint64_t kWarmup = 20000, kMeasure = 200000;
    const std::uint64_t kSweepWarmup = 10000, kSweepMeasure = 40000;

    JsonWriter w(os, JsonWriter::Style::Spaced);
    w.beginObject().field("schema", "wsrs-sim-throughput-v1");
#ifdef WSRS_BUILD_TYPE
    w.field("build_type", WSRS_BUILD_TYPE);
#endif
    w.field("host_threads", std::thread::hardware_concurrency());

    // (a) Single-run simulator throughput per machine preset, in thread
    // CPU time like the trace_overhead arms: the 10% floors must not
    // trip on time this thread spent descheduled on a shared host. Each
    // preset reports its best of three rounds, the presets interleaved
    // within a round: co-tenant load on a shared host swings a single
    // 220k-uop run by +-30% even in CPU time, while a code regression
    // slows every round alike.
    const int kSingleRounds = 3;
    const auto presets = sim::figure4Presets();
    const auto &profile = workload::findProfile("gzip");
    std::vector<double> bestSecs(presets.size(), 0.0);
    for (int rep = 0; rep < kSingleRounds; ++rep) {
        for (std::size_t i = 0; i < presets.size(); ++i) {
            sim::SimConfig cfg;
            cfg.core = sim::findPreset(presets[i]);
            cfg.warmupUops = kWarmup;
            cfg.measureUops = kMeasure;
            const double t0 = cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
            const sim::SimResults r = sim::runSimulation(profile, cfg);
            const double secs = cpuSeconds(CLOCK_THREAD_CPUTIME_ID) - t0;
            benchmark::DoNotOptimize(r.ipc);
            if (rep == 0 || secs < bestSecs[i])
                bestSecs[i] = secs;
        }
    }
    w.key("single_run").beginObject();
    for (std::size_t i = 0; i < presets.size(); ++i) {
        const std::uint64_t uops = kWarmup + kMeasure;
        w.key(presets[i]).beginObject()
            .field("uops", uops).field("seconds", bestSecs[i])
            .field("uops_per_second", std::llround(uops / bestSecs[i]))
            .field("best_of", kSingleRounds).field("clock", "thread_cpu")
            .endObject();
    }
    w.endObject();

    // (b) Pipeline-trace overhead A/B on one preset. The four
    // configurations (reference, tracing off, text sink, binary sink —
    // "ref" and "off" are deliberately identical) are measured
    // round-robin interleaved, best of 64, in thread CPU time, so slow
    // drift on a shared host hits all of them equally instead of
    // biasing whichever section ran first.
    // scripts/check_throughput.py --trace-tolerance asserts off stays
    // within tolerance of ref: the tracing-disabled hooks (one
    // null-pointer test per committed micro-op) must be free.
    {
        const char *preset = "WSRS-RC-512";
        struct TraceCfg
        {
            const char *text;
            const char *bin;
            double best = 0;
        };
        TraceCfg cfgs[4] = {
            {"", ""}, {"", ""}, {"/dev/null", ""}, {"", "/dev/null"}};
        // ref and off are identical code paths, so their measured gap
        // is pure noise, which must sit well under the 2% assertion
        // threshold. The gate compares the median of within-round
        // off/ref ratios (medianPairedRatio) rather than each arm's
        // independent best-of; best_of throughputs are still emitted
        // for the human-readable report. Many short rounds rather than
        // a few long ones: co-tenant load on a shared host swings a
        // single round's ratio by +-20% or more, and eight rounds of
        // 800k uops let the median land 5% off parity; 64 rounds of
        // 100k keep the two arms of a pair closer in time and give the
        // median eight times the samples in about the same host time.
        const int kAbRounds = 64;
        const std::uint64_t kAbMeasure = 100000;
        std::vector<double> offRatios;
        for (int rep = 0; rep < kAbRounds; ++rep) {
            double roundTput[4] = {};
            for (int slot = 0; slot < 4; ++slot) {
                // Alternate which of ref/off runs first: the first arm
                // after the slow I/O-bound sinks of the previous round
                // sees a measurably friendlier machine (turbo/thermal
                // recovery), a position bias the paired ratio would
                // otherwise report as systematic overhead.
                const int i =
                    slot < 2 ? (rep % 2 ? 1 - slot : slot) : slot;
                TraceCfg &tc = cfgs[i];
                sim::SimConfig cfg;
                cfg.core = sim::findPreset(preset);
                cfg.warmupUops = kWarmup;
                cfg.measureUops = kAbMeasure;
                cfg.tracePipePath = tc.text;
                cfg.tracePipeBinPath = tc.bin;
                // runSimulation runs on this thread: thread CPU time.
                const double t0 = cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
                const sim::SimResults r = sim::runSimulation(profile, cfg);
                benchmark::DoNotOptimize(r.ipc);
                roundTput[i] = (double(kWarmup) + double(kAbMeasure)) /
                               (cpuSeconds(CLOCK_THREAD_CPUTIME_ID) - t0);
                tc.best = std::max(tc.best, roundTput[i]);
            }
            offRatios.push_back(roundTput[1] / roundTput[0]);
        }

        const double ref = cfgs[0].best, off = cfgs[1].best;
        const double text = cfgs[2].best, bin = cfgs[3].best;
        w.key("trace_overhead").beginObject()
            .field("preset", preset).field("best_of", kAbRounds)
            .field("clock", "thread_cpu")
            .field("ref_uops_per_second", std::llround(ref))
            .field("off_uops_per_second", std::llround(off))
            .field("off_paired_ratio", medianPairedRatio(offRatios))
            .field("text_uops_per_second", std::llround(text))
            .field("binary_uops_per_second", std::llround(bin))
            .field("text_slowdown", text > 0 ? ref / text : 0.0)
            .field("binary_slowdown", bin > 0 ? ref / bin : 0.0)
            .endObject();

        // Host-side wall-time split across the six pipeline-stage calls.
        obs::StageProfiler prof;
        sim::SimConfig cfg;
        cfg.core = sim::findPreset(preset);
        cfg.warmupUops = kWarmup;
        cfg.measureUops = kMeasure;
        cfg.profiler = &prof;
        const sim::SimResults r = sim::runSimulation(profile, cfg);
        benchmark::DoNotOptimize(r.ipc);
        std::ostringstream profile;
        prof.dumpJson(profile);
        w.key("stage_profile").raw(profile.str());
    }

    // (b') Sweep telemetry overhead A/B. Three arms over an identical
    // small sweep, timed in process CPU time: reference and "off" are
    // deliberately identical (null metrics/span pointers in the runner
    // options — the shipped default), so their gap is the noise floor;
    // "on" wires a MetricsRegistry and SpanLog in.
    // scripts/check_throughput.py --metrics-tolerance asserts both off
    // AND on stay within tolerance of ref via the same paired-median
    // estimator as the trace gate: the disabled hooks (one null-pointer
    // test per job stage) must be free, and even enabled telemetry (a
    // handful of relaxed atomics and span records per job, nothing per
    // micro-op) must stay under 2%. The arms run the *serial* runner:
    // the hooks under test fire identically per job regardless of
    // thread count, and the parallel runner's scheduling jitter
    // (several percent between identical arms on a shared host) would
    // drown the effect being gated.
    //
    // Each round runs the sweep one benchmark at a time (its two jobs),
    // all three arms back to back, and sums each arm's time over the
    // benchmarks. Interleaving whole 24-job sweeps instead leaves half a
    // second between the arms of a pair, long enough for co-tenant load
    // on a shared host to swing identical arms by +-20% per round and the
    // paired median past the 2% gate. Each arm still runs the same jobs;
    // it pays the per-sweep setup (for "on", the registry binding and
    // span bookkeeping) twelve times per round instead of once.
    {
        sim::SimConfig abBase;
        abBase.warmupUops = 5000;
        abBase.measureUops = 45000;
        std::vector<std::vector<runner::SweepJob>> abSweeps;
        std::size_t abJobCount = 0;
        for (const auto &p : workload::allProfiles()) {
            abSweeps.push_back(runner::SweepRunner::crossProduct(
                {p}, {"RR-256", "WSRS-RC-512"}, abBase));
            abJobCount += abSweeps.back().size();
        }
        const double abUops =
            double(abJobCount) * double(abBase.warmupUops +
                                        abBase.measureUops);
        const int kTelemetryRounds = 15;
        obs::MetricsRegistry registry;
        struct TelemetryArm
        {
            bool enabled;
            double best = 0;
        };
        TelemetryArm arms[3] = {{false}, {false}, {true}};
        std::vector<double> offRatios, onRatios;
        for (int rep = 0; rep < kTelemetryRounds; ++rep) {
            double roundSecs[3] = {};
            for (std::size_t b = 0; b < abSweeps.size(); ++b) {
                for (int slot = 0; slot < 3; ++slot) {
                    // Rotate the arm order per benchmark and round so
                    // run-position bias cancels out of the paired ratios,
                    // as in the trace A/B above.
                    const int i = int((slot + rep + b) % 3);
                    obs::SpanLog spanLog;
                    runner::SweepRunner::Options opt;
                    opt.threads = 1;
                    if (arms[i].enabled) {
                        opt.metrics = &registry;
                        opt.spans = &spanLog;
                    }
                    // Process CPU time charges the arm for every thread
                    // the runner uses (the serial runner uses only this
                    // one).
                    const double t0 = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
                    runner::SweepRunner(opt).run(abSweeps[b]);
                    roundSecs[i] += cpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - t0;
                }
            }
            double roundTput[3];
            for (int i = 0; i < 3; ++i) {
                roundTput[i] = abUops / roundSecs[i];
                arms[i].best = std::max(arms[i].best, roundTput[i]);
            }
            offRatios.push_back(roundTput[1] / roundTput[0]);
            onRatios.push_back(roundTput[2] / roundTput[0]);
        }
        const double ref = arms[0].best, off = arms[1].best;
        const double on = arms[2].best;
        w.key("metrics_overhead").beginObject()
            .field("jobs", abJobCount).field("best_of", kTelemetryRounds)
            .field("clock", "process_cpu")
            .field("ref_uops_per_second", std::llround(ref))
            .field("off_uops_per_second", std::llround(off))
            .field("on_uops_per_second", std::llround(on))
            .field("off_paired_ratio", medianPairedRatio(offRatios))
            .field("on_paired_ratio", medianPairedRatio(onRatios))
            .endObject();
    }

    // (c) Full-matrix sweep wall-clock, serial versus parallel runner.
    sim::SimConfig base;
    base.warmupUops = kSweepWarmup;
    base.measureUops = kSweepMeasure;
    const auto jobs = runner::SweepRunner::crossProduct(
        workload::allProfiles(), presets, base);

    runner::SweepRunner::Options serial;
    serial.threads = 1;
    const auto t_serial = std::chrono::steady_clock::now();
    runner::SweepRunner(serial).run(jobs);
    const double serialSecs = secondsSince(t_serial);

    runner::SweepRunner::Options parallel;  // Default: all cores.
    const auto t_par = std::chrono::steady_clock::now();
    runner::SweepRunner(parallel).run(jobs);
    const double parSecs = secondsSince(t_par);

    w.key("sweep").beginObject()
        .field("jobs", jobs.size())
        .field("uops_per_job", kSweepWarmup + kSweepMeasure)
        .field("serial_seconds", serialSecs)
        .field("parallel_seconds", parSecs)
        .field("speedup", serialSecs / parSecs)
        .endObject();

    // (d) Warm-up checkpoint reuse. A warm-up-heavy matrix (the paper
    // protocol leans the same way: 400k warm-up vs 1M measured) run twice
    // with the parallel runner: once warming every job through the timed
    // core, once building one functional warm-up snapshot per benchmark
    // and restoring it into all six machine configs. check_throughput.py
    // --ckpt-speedup asserts the reuse path stays meaningfully faster.
    {
        const std::uint64_t kCkptWarmup = 40000, kCkptMeasure = 10000;
        sim::SimConfig heavy;
        heavy.warmupUops = kCkptWarmup;
        heavy.measureUops = kCkptMeasure;
        const auto ckptJobs = runner::SweepRunner::crossProduct(
            workload::allProfiles(), presets, heavy);

        runner::SweepRunner::Options noReuse;
        const auto t_cold = std::chrono::steady_clock::now();
        runner::SweepRunner(noReuse).run(ckptJobs);
        const double coldSecs = secondsSince(t_cold);

        runner::SweepRunner::Options reuse;
        reuse.reuseWarmup = true;
        runner::SweepRunner warm(reuse);
        const auto t_warm = std::chrono::steady_clock::now();
        warm.run(ckptJobs);
        const double warmSecs = secondsSince(t_warm);

        w.key("ckpt").beginObject()
            .field("jobs", ckptJobs.size())
            .field("warmup_uops", kCkptWarmup)
            .field("measure_uops", kCkptMeasure)
            .field("no_reuse_seconds", coldSecs)
            .field("reuse_seconds", warmSecs)
            .field("warmup_speedup", coldSecs / warmSecs)
            .field("warmup_hits", warm.telemetry().warmupHits)
            .field("warmup_misses", warm.telemetry().warmupMisses)
            .endObject();
    }
    w.endObject();
    os << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const char *flag = "--sim-throughput-json=";
        if (std::strncmp(argv[i], flag, std::strlen(flag)) != 0)
            continue;
        const std::string path = argv[i] + std::strlen(flag);
        return runTool("microbench_components", [&] {
            // Probe the path with one byte first, so an unwritable one
            // fails now rather than after the whole measurement.
            if (path != "-") {
                std::ofstream probe(path);
                if (!(probe << '\n' << std::flush))
                    fatalIo("cannot write throughput file '%s'",
                            path.c_str());
            }
            writeDocument(path, "throughput", emitThroughputJson);
            std::printf("wrote %s\n", path.c_str());
            return 0;
        });
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
