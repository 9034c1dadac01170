/**
 * @file
 * One-call simulation facade: benchmark profile + machine preset ->
 * measured results, following the paper's protocol (warm-up phase for
 * caches and predictor state, then a measured slice).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/bpred/predictor.h"
#include "src/core/core.h"
#include "src/core/params.h"
#include "src/memory/hierarchy.h"
#include "src/obs/stage_profiler.h"
#include "src/workload/profile.h"

namespace wsrs::sim {

/** Which direction predictor the front end uses. */
enum class PredictorKind : std::uint8_t {
    TwoBcGskew, ///< Paper baseline: 512 Kbit EV8-class 2Bc-gskew.
    Tournament, ///< EV6-class local/global tournament.
    Gshare,
    Bimodal,
    Perfect,
};

/** Spellings of each PredictorKind in enum order (`wsrs-sim --predictor`,
 *  the `bpred.kind` space axis), nullptr-terminated. */
inline constexpr const char *kPredictorNames[] = {
    "2bc-gskew", "tournament", "gshare", "bimodal", "perfect", nullptr};

/** Full experiment description. */
struct SimConfig
{
    core::CoreParams core;
    memory::HierarchyParams mem;     ///< Defaults to the paper's Table 3.
    PredictorKind predictor = PredictorKind::TwoBcGskew;
    std::uint64_t warmupUops = 400000;   ///< Cache/predictor warm-up.
    std::uint64_t measureUops = 1000000; ///< Measured slice.
    std::uint64_t seed = 0;              ///< Extra trace seed.
    std::size_t timelineRows = 0;        ///< Record last-N pipeline rows.

    // ---- observability (measured slice only; warm-up is never traced) ----
    std::string tracePipePath;     ///< O3PipeView text trace (Konata).
    std::string tracePipeBinPath;  ///< Compact binary trace.
    Cycle intervalStatsCycles = 0; ///< Interval sampler period (0 off).
    obs::StageProfiler *profiler = nullptr;  ///< Host-side stage timing.

    // ---- checkpointing (see docs/checkpointing.md) ----
    /** Write a kind="full-sim" checkpoint (trace cursor, predictor, memory
     *  and full core transient state) at the warm-up/measure boundary,
     *  then continue; the saving run's results are unperturbed. Requires
     *  the generator-backed runSimulation overload. */
    std::string checkpointSavePath;
    /** Restore a kind="full-sim" checkpoint instead of warming up; the
     *  measured slice is bit-identical to the run that saved it. The
     *  configuration must match the saver's (enforced via meta-hash). */
    std::string checkpointLoadPath;
    /** In-memory kind="warmup" snapshot (see sim/warmup.h): restore the
     *  warmed memory hierarchy and predictor from the blob and fast-forward
     *  the micro-op source instead of running the core through warm-up.
     *  Borrowed; must outlive the run. Incompatible with
     *  core.verifyDataflow (the commit-time oracle cannot skip the
     *  warm-up dataflow). */
    const std::string *warmupBlob = nullptr;
};

/** Memory-backend counters of a measured run, for telemetry consumers
 *  (wsrs_mem_* registry instruments). All zero under the Constant model. */
struct MemBackendStats
{
    std::uint64_t dramRequests = 0;
    std::uint64_t dramRowHits = 0;
    std::uint64_t dramRowConflicts = 0;
    std::uint64_t dramQueueFullWaits = 0;
};

/** Results of a measured slice. */
struct SimResults
{
    std::string benchmark;
    std::string machine;
    core::CoreStats stats;
    obs::RenameStallGroups renameStalls;  ///< Grouped rename stalls.
    MemBackendStats mem;
    /** stats.ipc(). Kept as a field: its reader that cannot move is
     *  ledger/ledger_bench.cc, which the benchmark freezes; make it a
     *  method call in the next change to ledger/. */
    double ipc = 0;
    double l1MissRate = 0;          ///< Per measured access.
    double l2MissRate = 0;          ///< Per L1 miss.
    std::string timelineText;       ///< Rendered pipeline rows (if asked).
    /** Machine-readable stats document (schema wsrs-stats-v1): headline
     *  metrics plus the full core (stall attribution, wake-up latency,
     *  intervals) and memory statistics. Always populated. */
    std::string statsJson;
    /** Host wall time of the whole run (warm-up + measure), seconds.
     *  Deliberately not part of statsJson: it varies run to run, and the
     *  stats document must stay deterministic for a given job. Telemetry
     *  consumers (wsrs-sim --metrics-out) read it from here instead. */
    double hostSeconds = 0;
};

/** Run one benchmark on one machine. */
SimResults runSimulation(const workload::BenchmarkProfile &profile,
                         const SimConfig &config);

/**
 * Run one benchmark on one machine, drawing micro-ops from @p source
 * (for example a TraceReader over a recorded trace file) instead of
 * constructing a fresh TraceGenerator. Full-sim checkpoints need the
 * generator overload. The sweep runner never takes this path: each of its
 * jobs generates its own stream.
 */
SimResults runSimulation(const workload::BenchmarkProfile &profile,
                         const SimConfig &config,
                         workload::MicroOpSource &source);

/** Construct the branch predictor a SimConfig names. */
std::unique_ptr<bpred::BranchPredictor> makePredictor(PredictorKind kind);

} // namespace wsrs::sim
