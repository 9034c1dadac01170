#include "simulator.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <memory>

#include "src/bpred/simple_predictors.h"
#include "src/bpred/tournament.h"
#include "src/bpred/two_bc_gskew.h"
#include "src/ckpt/io.h"
#include "src/common/log.h"
#include "src/obs/trace_sink.h"
#include "src/sim/warmup.h"
#include "src/workload/trace_generator.h"

namespace wsrs::sim {

std::unique_ptr<bpred::BranchPredictor>
makePredictor(PredictorKind kind)
{
    switch (kind) {
      case PredictorKind::TwoBcGskew:
        return std::make_unique<bpred::TwoBcGskew>();
      case PredictorKind::Tournament:
        return std::make_unique<bpred::TournamentPredictor>();
      case PredictorKind::Gshare:
        return std::make_unique<bpred::GsharePredictor>();
      case PredictorKind::Bimodal:
        return std::make_unique<bpred::BimodalPredictor>();
      case PredictorKind::Perfect:
        return std::make_unique<bpred::PerfectPredictor>();
    }
    WSRS_PANIC("unhandled predictor kind");
}

namespace {

/**
 * The sections of a kind="full-sim" checkpoint: the trace source's cursor,
 * the predictor, the memory hierarchy and the core's complete transient
 * state, taken at a cycle boundary (between run() calls). @p ck is a
 * CheckpointWriter to save them or a CheckpointReader to restore them.
 */
template <typename Ck, typename Src, typename Pred, typename Mem,
          typename Machine>
void
fullSimSections(Ck &ck, Src &source, Pred &predictor, Mem &mem,
                Machine &machine)
{
    ckpt::section(ck, "trace", source);
    ckpt::section(ck, "bpred", predictor);
    ckpt::section(ck, "memory", mem);
    ckpt::section(ck, "core", machine);
}

void
saveFullCheckpoint(const std::string &path, std::uint64_t meta_hash,
                   const ckpt::Snapshotter &source_snap,
                   const bpred::BranchPredictor &predictor,
                   const memory::MemoryHierarchy &mem,
                   const core::Core &machine)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        fatalIo("cannot open checkpoint file '%s' for writing", path.c_str());
    ckpt::CheckpointWriter cw(os, path, ckpt::kKindFullSim, meta_hash);
    fullSimSections(cw, source_snap, predictor, mem, machine);
    cw.finish();
}

/** Restore everything saveFullCheckpoint wrote, validating the meta-hash. */
void
loadFullCheckpoint(const std::string &path, std::uint64_t meta_hash,
                   ckpt::Snapshotter &source_snap,
                   bpred::BranchPredictor &predictor,
                   memory::MemoryHierarchy &mem, core::Core &machine)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fatalIo("cannot open checkpoint file '%s'", path.c_str());
    ckpt::CheckpointReader cr(is, path);
    cr.expect(ckpt::kKindFullSim, meta_hash);
    fullSimSections(cr, source_snap, predictor, mem, machine);
}

/** Parse a strictly-decimal environment value; fatal on malformed input. */
std::uint64_t
parseEnvUint(const char *name, const char *value)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(value, &end, 10);
    // strtoull silently accepts whitespace, signs and trailing garbage
    // (and returns 0 for pure garbage); require a plain digit string.
    if (value[0] < '0' || value[0] > '9' || end == value ||
        *end != '\0' || errno == ERANGE)
        fatal("malformed %s='%s' (expected a non-negative integer)",
              name, value);
    return v;
}

} // namespace

SimConfig
applyEnvOverrides(SimConfig config)
{
    if (const char *s = std::getenv("WSRS_MEASURE_UOPS"))
        config.measureUops = parseEnvUint("WSRS_MEASURE_UOPS", s);
    if (const char *s = std::getenv("WSRS_WARMUP_UOPS"))
        config.warmupUops = parseEnvUint("WSRS_WARMUP_UOPS", s);
    return config;
}

namespace {

/**
 * Shared simulation body. @p source_snap is the checkpointable view of
 * @p source when one exists (the generator-backed overload); full-sim
 * checkpoint save/load needs it to capture/restore the trace cursor.
 */
SimResults
runSimulationImpl(const workload::BenchmarkProfile &profile,
                  const SimConfig &config, workload::MicroOpSource &source,
                  ckpt::Snapshotter *source_snap)
{
    const auto host0 = std::chrono::steady_clock::now();
    auto predictor = makePredictor(config.predictor);
    StatGroup stats(profile.name);
    memory::MemoryHierarchy mem(config.mem, stats);

    core::Core machine(config.core, source, *predictor, mem);

    // ---- warm-up phase: run it, restore it, or skip past it ----
    if (!config.checkpointLoadPath.empty()) {
        if (config.warmupBlob)
            fatal("checkpointLoadPath and warmupBlob are mutually "
                  "exclusive");
        if (!source_snap)
            fatal("full-sim checkpoints require a generator-backed trace "
                  "source (runSimulation overload without an external "
                  "MicroOpSource)");
        loadFullCheckpoint(config.checkpointLoadPath,
                           fullCheckpointMetaHash(profile, config),
                           *source_snap, *predictor, mem, machine);
    } else if (config.warmupBlob) {
        if (config.core.verifyDataflow)
            fatal("warm-up snapshot reuse cannot be combined with "
                  "verifyDataflow: the commit-time oracle must observe the "
                  "warm-up micro-ops it would skip");
        restoreWarmupSnapshot(*config.warmupBlob, "<warmup-blob>", profile,
                              config, mem, *predictor);
        // The warmed state corresponds to the stream's first warmupUops
        // micro-ops; fast-forward the source so the measured slice starts
        // where a core-driven warm-up of that length would have it start.
        for (std::uint64_t i = 0; i < config.warmupUops; ++i)
            (void)source.next();
    } else if (config.warmupUops > 0) {
        machine.run(config.warmupUops);
    }

    if (!config.checkpointSavePath.empty()) {
        if (!source_snap)
            fatal("full-sim checkpoints require a generator-backed trace "
                  "source (runSimulation overload without an external "
                  "MicroOpSource)");
        saveFullCheckpoint(config.checkpointSavePath,
                           fullCheckpointMetaHash(profile, config),
                           *source_snap, *predictor, mem, machine);
    }

    machine.resetStats();
    // The measurement epoch: the core clock keeps counting across
    // resetStats, so the memory backend's stall attribution must anchor
    // to the same cycle the measured slice starts at (0 on the warm-up
    // blob path, the warm-up length otherwise).
    mem.resetMeasurement(machine.now());

    // Observability attaches after warm-up so traces, the timeline and
    // interval series cover exactly the measured slice.
    std::ofstream trace_text, trace_bin;
    obs::FanOutSink sinks;
    if (!config.tracePipePath.empty()) {
        trace_text.open(config.tracePipePath);
        if (!trace_text)
            fatalIo("cannot open trace file '%s'",
                  config.tracePipePath.c_str());
        sinks.add<obs::O3PipeViewSink>(trace_text);
    }
    if (!config.tracePipeBinPath.empty()) {
        trace_bin.open(config.tracePipeBinPath, std::ios::binary);
        if (!trace_bin)
            fatalIo("cannot open binary trace file '%s'",
                  config.tracePipeBinPath.c_str());
        sinks.add<obs::BinaryTraceSink>(trace_bin);
    }
    const obs::TimelineSink *timeline =
        config.timelineRows > 0
            ? &sinks.add<obs::TimelineSink>(config.timelineRows)
            : nullptr;
    if (!sinks.empty())
        machine.attachTraceSink(&sinks);
    if (config.intervalStatsCycles > 0)
        machine.enableIntervalStats(config.intervalStatsCycles);
    if (config.profiler)
        machine.attachStageProfiler(config.profiler);

    const std::uint64_t acc0 = mem.accesses();
    const std::uint64_t l1m0 = mem.l1Misses();
    const std::uint64_t l2m0 = mem.l2Misses();
    MemBackendStats mem0;
    if (const memory::DramController *d = mem.dram()) {
        mem0.dramRequests = d->requests();
        mem0.dramRowHits = d->rowHits();
        mem0.dramRowConflicts = d->rowConflicts();
        mem0.dramQueueFullWaits = d->queueFullWaits();
    }

    machine.run(config.measureUops);

    sinks.finish();
    machine.attachTraceSink(nullptr);
    machine.attachStageProfiler(nullptr);
    // A trace that could not be written is an I/O error, not a result.
    if (trace_text.is_open() && !trace_text.flush())
        fatalIo("cannot write trace file '%s'", config.tracePipePath.c_str());
    if (trace_bin.is_open() && !trace_bin.flush())
        fatalIo("cannot write binary trace file '%s'",
                config.tracePipeBinPath.c_str());

    const core::CoreStats &cs = machine.stats();
    if (config.core.verifyDataflow && cs.valueMismatches > 0)
        fatal("dataflow verification failed: %llu mismatching values",
              static_cast<unsigned long long>(cs.valueMismatches));

    SimResults r;
    r.benchmark = profile.name;
    r.machine = config.core.name;
    r.stats = cs;
    r.ipc = cs.ipc();
    r.unbalancingDegree = cs.unbalancingDegree();
    r.branchMispredictRate = cs.mispredictRate();
    const std::uint64_t acc = mem.accesses() - acc0;
    const std::uint64_t l1m = mem.l1Misses() - l1m0;
    const std::uint64_t l2m = mem.l2Misses() - l2m0;
    r.l1MissRate = acc ? double(l1m) / acc : 0.0;
    r.l2MissRate = l1m ? double(l2m) / l1m : 0.0;
    if (const memory::DramController *d = mem.dram()) {
        r.mem.dramRequests = d->requests() - mem0.dramRequests;
        r.mem.dramRowHits = d->rowHits() - mem0.dramRowHits;
        r.mem.dramRowConflicts = d->rowConflicts() - mem0.dramRowConflicts;
        r.mem.dramQueueFullWaits =
            d->queueFullWaits() - mem0.dramQueueFullWaits;
    }
    if (timeline) {
        std::ostringstream os;
        timeline->render(os);
        r.timelineText = os.str();
    }

    {
        std::ostringstream os;
        JsonWriter w(os, JsonWriter::Style::Spaced);
        w.beginObject()
            .field("schema", kStatsJsonSchema)
            .field("benchmark", r.benchmark).field("machine", r.machine)
            .field("measure_uops", config.measureUops)
            .field("warmup_uops", config.warmupUops)
            .field("seed", config.seed)
            .key("metrics").beginObject()
            .field("ipc", r.ipc)
            .field("unbalancing_degree", r.unbalancingDegree)
            .field("branch_mispredict_rate", r.branchMispredictRate)
            .field("l1_miss_rate", r.l1MissRate)
            .field("l2_miss_rate", r.l2MissRate)
            .endObject()
            .key("core");
        machine.dumpStatsJson(w);
        w.key("memory");
        // Constant model: the flat counter map, byte-identical to the
        // pre-DRAM seed. DRAM model: a structured object wrapping the
        // same counters plus geometry and the stall attribution up to
        // the final measured cycle.
        if (const memory::DramController *d = mem.dram())
            d->dumpJson(w, stats, machine.now());
        else
            stats.dumpJson(w);
        w.endObject();
        r.statsJson = os.str();
    }
    r.hostSeconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - host0)
                        .count();
    return r;
}

} // namespace

SimResults
runSimulation(const workload::BenchmarkProfile &profile,
              const SimConfig &config)
{
    workload::TraceGenerator gen(profile, config.seed);
    return runSimulationImpl(profile, config, gen, &gen);
}

SimResults
runSimulation(const workload::BenchmarkProfile &profile,
              const SimConfig &config, workload::MicroOpSource &source)
{
    return runSimulationImpl(profile, config, source, nullptr);
}

} // namespace wsrs::sim
