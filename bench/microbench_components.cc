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
#include <cstdio>
#include <cstring>
#include <ctime>
#include <deque>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/bpred/simple_predictors.h"
#include "src/bpred/two_bc_gskew.h"
#include "src/core/cluster_alloc.h"
#include "src/core/phys_regfile.h"
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

// ---------------------------------------------------------------------
// Per-structure microbenchmarks for the hot-loop layouts, so a perf-smoke
// regression is attributable below the pipeline-stage level: the ROB
// window scan over the packed SoA metadata record vs the old
// one-big-struct layout, the fixed-capacity recycler ring vs the
// std::deque it replaced, and the interned WSRS placement table vs
// re-deriving the legal (cluster, swapped) set per micro-op.
// ---------------------------------------------------------------------

/** Hot ROB metadata exactly as packed in Core's window (12 bytes). */
struct RobMetaBench
{
    std::uint8_t state, waitClass, cluster, flags;
    std::uint8_t cls;
    std::uint16_t psrc1, psrc2, pdst;
};

/** Seed-style AoS entry: the same hot fields buried in the full record. */
struct RobEntryAosBench
{
    std::uint8_t state, waitClass, cluster, flags;
    std::uint8_t cls;
    std::uint16_t psrc1, psrc2, pdst;
    std::uint64_t readyCycle, completeCycle;
    std::uint64_t pc, effAddr, memOrdinal;
    std::uint64_t seq, value, target;  // cold commit/dataflow payload
};

template <typename Entry>
void
robScanBench(benchmark::State &state)
{
    // 64 x 512-entry windows: the metadata stream stays L2-resident under
    // the packed 12-byte record (~384 KiB) but busts it under the full
    // AoS record (~3.3 MiB) — the cache-footprint gap that motivated the
    // hot/cold split, at a working set the parallel sweep actually has
    // (one window per in-flight job).
    constexpr std::size_t kEntries = 64 * 512;
    std::vector<Entry> rob(kEntries);
    std::uint64_t x = 0x2545f4914f6cdd1d;
    for (Entry &e : rob) {
        x ^= x << 13; x ^= x >> 7; x ^= x << 17;
        e.state = x & 3;
        e.cluster = (x >> 2) & 3;
    }
    // The wakeup/issue-era scan shape: walk every slot, test the state
    // byte, touch the operand fields of the matching ones.
    for (auto _ : state) {
        unsigned woken = 0;
        for (Entry &e : rob) {
            if (e.state == 1) {
                e.psrc1 = static_cast<std::uint16_t>(woken);
                e.state = 2;
                ++woken;
            } else if (e.state == 2) {
                e.state = 1;
            }
        }
        benchmark::DoNotOptimize(woken);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * kEntries));
}

void
BM_RobScanSoa(benchmark::State &state)
{
    robScanBench<RobMetaBench>(state);
}
BENCHMARK(BM_RobScanSoa);

void
BM_RobScanAos(benchmark::State &state)
{
    robScanBench<RobEntryAosBench>(state);
}
BENCHMARK(BM_RobScanAos);

void
BM_RecyclerRing(benchmark::State &state)
{
    // The shipped layout: a fixed-capacity power-of-two ring with
    // mask-and-store push/pop (mirrors PhysRegFile's recycler, minus the
    // always-on constraint checks so both arms compare pure structure
    // cost).
    struct E
    {
        Cycle availableAt;
        PhysReg reg;
    };
    std::vector<std::vector<PhysReg>> freeLists(4);
    for (unsigned s = 0; s < 4; ++s)
        for (unsigned i = 0; i < 128; ++i)
            freeLists[s].push_back(static_cast<PhysReg>(s * 128 + i));
    std::vector<E> ring(1024);
    const std::size_t mask = ring.size() - 1;
    std::size_t head = 0, size = 0;
    Cycle now = 0;
    for (auto _ : state) {
        for (unsigned s = 0; s < 4; ++s) {
            const PhysReg p = freeLists[s].back();
            freeLists[s].pop_back();
            ring[(head + size) & mask] = {now + 2, p};
            ++size;
        }
        while (size > 0 && ring[head].availableAt <= now) {
            const PhysReg p = ring[head].reg;
            head = (head + 1) & mask;
            --size;
            freeLists[p / 128].push_back(p);
        }
        ++now;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 4));
}
BENCHMARK(BM_RecyclerRing);

void
BM_RecyclerDeque(benchmark::State &state)
{
    // Reference: the seed's std::deque recycler over identical free-list
    // traffic (allocator churn included — that is the point).
    struct E
    {
        Cycle availableAt;
        PhysReg reg;
    };
    std::vector<std::vector<PhysReg>> freeLists(4);
    for (unsigned s = 0; s < 4; ++s)
        for (unsigned i = 0; i < 128; ++i)
            freeLists[s].push_back(static_cast<PhysReg>(s * 128 + i));
    std::deque<E> recycler;
    Cycle now = 0;
    for (auto _ : state) {
        for (unsigned s = 0; s < 4; ++s) {
            const PhysReg p = freeLists[s].back();
            freeLists[s].pop_back();
            recycler.push_back({now + 2, p});
        }
        while (!recycler.empty() && recycler.front().availableAt <= now) {
            const PhysReg p = recycler.front().reg;
            recycler.pop_front();
            freeLists[p / 128].push_back(p);
        }
        ++now;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 4));
}
BENCHMARK(BM_RecyclerDeque);

/** Deterministic micro-op / operand-subset stream shared by both arms. */
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

void
BM_WsrsOptionsRecomputed(benchmark::State &state)
{
    // Reference: the defining per-micro-op derivation the table replaced
    // (mirrors ClusterAllocator::computeWsrsOptions for commutative FUs).
    isa::MicroOp op;
    core::AllocContext ctx;
    std::uint64_t x = 0x9e3779b97f4a7c15;
    for (auto _ : state) {
        x = nextAllocCase(x, op, ctx);
        std::array<core::AllocDecision, 4> opts{};
        unsigned count = 0;
        if (op.isDyadic()) {
            opts[count++] = {core::wsrsCluster(ctx.src1Subset,
                                               ctx.src2Subset), false};
            if (ctx.src1Subset != ctx.src2Subset)
                opts[count++] = {core::wsrsCluster(ctx.src2Subset,
                                                   ctx.src1Subset), true};
        } else if (op.isMonadic()) {
            const SubsetId s = ctx.src1Subset;
            opts[count++] = {static_cast<ClusterId>((s & 2) | 0), false};
            opts[count++] = {static_cast<ClusterId>((s & 2) | 1), false};
            const ClusterId a = static_cast<ClusterId>(0 | (s & 1));
            const ClusterId b = static_cast<ClusterId>(2 | (s & 1));
            const ClusterId distinct =
                ((a >> 1) == ((s & 2) >> 1)) ? b : a;
            opts[count++] = {distinct, true};
        } else {
            for (ClusterId c = 0; c < 4; ++c)
                opts[count++] = {c, false};
        }
        benchmark::DoNotOptimize(opts);
        benchmark::DoNotOptimize(count);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WsrsOptionsRecomputed);

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

int
emitThroughputJson(const std::string &path)
{
    const std::uint64_t kWarmup = 20000, kMeasure = 200000;
    const std::uint64_t kSweepWarmup = 10000, kSweepMeasure = 40000;

    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "cannot open '%s' for writing\n", path.c_str());
        return 1;
    }

    std::fprintf(out, "{\n  \"schema\": \"wsrs-sim-throughput-v1\",\n");
#ifdef WSRS_BUILD_TYPE
    std::fprintf(out, "  \"build_type\": \"%s\",\n", WSRS_BUILD_TYPE);
#endif
    std::fprintf(out, "  \"host_threads\": %u,\n",
                 std::thread::hardware_concurrency());

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
    std::fprintf(out, "  \"single_run\": {\n");
    for (std::size_t i = 0; i < presets.size(); ++i) {
        const double uops = double(kWarmup) + double(kMeasure);
        std::fprintf(out,
                     "    \"%s\": {\"uops\": %.0f, \"seconds\": %.4f, "
                     "\"uops_per_second\": %.0f, \"best_of\": %d, "
                     "\"clock\": \"thread_cpu\"}%s\n",
                     presets[i].c_str(), uops, bestSecs[i],
                     uops / bestSecs[i], kSingleRounds,
                     i + 1 < presets.size() ? "," : "");
    }
    std::fprintf(out, "  },\n");

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
        std::fprintf(out,
                     "  \"trace_overhead\": {\"preset\": \"%s\", "
                     "\"best_of\": %d, \"clock\": \"thread_cpu\",\n"
                     "    \"ref_uops_per_second\": %.0f, "
                     "\"off_uops_per_second\": %.0f, "
                     "\"off_paired_ratio\": %.4f,\n"
                     "    \"text_uops_per_second\": %.0f, "
                     "\"binary_uops_per_second\": %.0f,\n"
                     "    \"text_slowdown\": %.4f, "
                     "\"binary_slowdown\": %.4f},\n",
                     preset, kAbRounds, ref, off,
                     medianPairedRatio(offRatios),
                     text, bin,
                     text > 0 ? ref / text : 0.0,
                     bin > 0 ? ref / bin : 0.0);

        // Host-side wall-time split across the six pipeline-stage calls.
        obs::StageProfiler prof;
        sim::SimConfig cfg;
        cfg.core = sim::findPreset(preset);
        cfg.warmupUops = kWarmup;
        cfg.measureUops = kMeasure;
        cfg.profiler = &prof;
        const sim::SimResults r = sim::runSimulation(profile, cfg);
        benchmark::DoNotOptimize(r.ipc);
        std::ostringstream os;
        prof.dumpJson(os);
        std::fprintf(out, "  \"stage_profile\": %s,\n", os.str().c_str());
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
    // Each round runs the sweep one benchmark at a time (its two jobs,
    // which share one recorded trace as in the full sweep), all three
    // arms back to back, and sums each arm's time over the benchmarks.
    // Interleaving whole 24-job sweeps instead leaves half a second
    // between the arms of a pair, long enough for co-tenant load on a
    // shared host to swing identical arms by +-20% per round and the
    // paired median past the 2% gate. Each arm still runs the same
    // jobs with the same trace sharing; it pays the per-sweep setup
    // (for "on", the registry binding and span bookkeeping) twelve
    // times per round instead of once.
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
        std::fprintf(out,
                     "  \"metrics_overhead\": {\"jobs\": %zu, "
                     "\"best_of\": %d, \"clock\": \"process_cpu\",\n"
                     "    \"ref_uops_per_second\": %.0f, "
                     "\"off_uops_per_second\": %.0f, "
                     "\"on_uops_per_second\": %.0f,\n"
                     "    \"off_paired_ratio\": %.4f, "
                     "\"on_paired_ratio\": %.4f},\n",
                     abJobCount, kTelemetryRounds, ref, off, on,
                     medianPairedRatio(offRatios),
                     medianPairedRatio(onRatios));
    }

    // (c) Full-matrix sweep wall-clock, serial versus parallel runner.
    sim::SimConfig base;
    base.warmupUops = kSweepWarmup;
    base.measureUops = kSweepMeasure;
    const auto jobs = runner::SweepRunner::crossProduct(
        workload::allProfiles(), presets, base);

    runner::SweepRunner::Options serial;
    serial.threads = 1;
    serial.shareTraces = false;  // The pre-runner, regenerate-always path.
    const auto t_serial = std::chrono::steady_clock::now();
    runner::SweepRunner(serial).run(jobs);
    const double serialSecs = secondsSince(t_serial);

    runner::SweepRunner::Options parallel;  // Defaults: all cores, cache.
    const auto t_par = std::chrono::steady_clock::now();
    runner::SweepRunner(parallel).run(jobs);
    const double parSecs = secondsSince(t_par);

    std::fprintf(out,
                 "  \"sweep\": {\"jobs\": %zu, \"uops_per_job\": %llu,\n"
                 "    \"serial_seconds\": %.4f, \"parallel_seconds\": %.4f,"
                 " \"speedup\": %.3f},\n",
                 jobs.size(),
                 static_cast<unsigned long long>(kSweepWarmup +
                                                 kSweepMeasure),
                 serialSecs, parSecs, serialSecs / parSecs);

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

        std::fprintf(out,
                     "  \"ckpt\": {\"jobs\": %zu, \"warmup_uops\": %llu, "
                     "\"measure_uops\": %llu,\n"
                     "    \"no_reuse_seconds\": %.4f, "
                     "\"reuse_seconds\": %.4f, \"warmup_speedup\": %.3f,\n"
                     "    \"warmup_hits\": %llu, \"warmup_misses\": %llu}\n"
                     "}\n",
                     ckptJobs.size(),
                     static_cast<unsigned long long>(kCkptWarmup),
                     static_cast<unsigned long long>(kCkptMeasure),
                     coldSecs, warmSecs, coldSecs / warmSecs,
                     static_cast<unsigned long long>(
                         warm.telemetry().warmupHits),
                     static_cast<unsigned long long>(
                         warm.telemetry().warmupMisses));
    }
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const char *flag = "--sim-throughput-json=";
        if (std::strncmp(argv[i], flag, std::strlen(flag)) == 0)
            return emitThroughputJson(argv[i] + std::strlen(flag));
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
