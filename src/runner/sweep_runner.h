/**
 * @file
 * Parallel configuration-sweep engine.
 *
 * A sweep is an ordered list of {benchmark profile, machine config} jobs —
 * typically the full benchmarks x presets matrix behind Figure 4/Figure 5.
 * SweepRunner executes the jobs on a thread pool and returns outcomes in
 * submission order, with two determinism guarantees:
 *
 *  - every job runs in a fully independent simulation (own core, memory
 *    hierarchy, predictor and TraceGenerator), seeded only by its
 *    SimConfig, so results are bit-identical regardless of thread count
 *    or schedule. Every machine of a profile reads the same micro-op
 *    stream because TraceGenerator is deterministic; generating it costs
 *    a few percent of a run, so no job shares another's stream;
 *  - outcomes land at the job's submission index, never in completion
 *    order.
 *
 * Errors (wsrs::FatalError and other exceptions) are captured per job
 * instead of tearing the sweep down. Progress is reported through a
 * serialized callback as jobs complete.
 */
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/workload/profile.h"

namespace wsrs::obs {
class MetricsRegistry;
class SpanLog;
} // namespace wsrs::obs

namespace wsrs::runner {

/** One unit of sweep work. */
struct SweepJob
{
    workload::BenchmarkProfile profile;
    sim::SimConfig config;
};

/** Result slot of one job, at its submission index. */
struct SweepOutcome
{
    sim::SimResults results;  ///< Valid when ok.
    bool ok = false;
    std::string error;        ///< Failure message when !ok.
};

/** Progress callback payload; delivery is serialized across workers. */
struct SweepEvent
{
    std::size_t index = 0;      ///< Submission index of the finished job.
    std::size_t completed = 0;  ///< Jobs finished so far (including this).
    std::size_t total = 0;
    const SweepOutcome *outcome = nullptr;
};

/** Thread-pool sweep executor. */
class SweepRunner
{
  public:
    struct Options
    {
        /** Worker threads; 0 picks the hardware concurrency, 1 runs the
         *  sweep inline on the calling thread. */
        unsigned threads = 0;
        /** Ignored: every job generates its own trace. Its only writer
         *  is ledger/ledger_bench.cc, which the benchmark freezes; delete
         *  it in the next change to ledger/. */
        bool shareTraces = true;
        /**
         * Warm each benchmark once (functional warm-up snapshot of the
         * memory hierarchy and predictor, cached per warm-up key) and
         * restore it for every machine configuration, instead of running
         * each job's core through the warm-up slice. Changes what warm-up
         * means (functional instead of core-timed) so it is opt-in;
         * results stay deterministic and machine-comparable because every
         * job of a benchmark starts from the identical warmed state.
         * Incompatible with jobs that set core.verifyDataflow.
         */
        bool reuseWarmup = false;
        /** Journal each completed job to this file (empty = no journal). */
        std::string journalPath;
        /** Resume from an existing journal at journalPath: recovered jobs
         *  are skipped and their recorded outcomes returned. */
        bool resume = false;
        /** Per-completion progress hook (serialized; may be empty). */
        std::function<void(const SweepEvent &)> onEvent;

        // ---- telemetry (null = disabled; docs/observability.md) ----
        /** Registry the runner's job/warm-up instruments bind to. */
        obs::MetricsRegistry *metrics = nullptr;
        /** Span log: one root span per job (enqueue -> completion) with
         *  warmup/simulate children, same shape as a distributed run. */
        obs::SpanLog *spans = nullptr;
    };

    /** What happened around the sweep (reported in the sweep report). */
    struct Telemetry
    {
        bool resumed = false;          ///< A prior journal was replayed.
        std::size_t skippedRuns = 0;   ///< Jobs recovered, not re-run.
        bool warmupReuse = false;      ///< Options::reuseWarmup was on.
        std::uint64_t warmupHits = 0;  ///< Warm-up snapshot cache hits.
        std::uint64_t warmupMisses = 0;///< ... and builds.
        /** Warm-up keys still cached when the sweep ended; 0 when every
         *  blob was released after the last job that needed it. */
        std::size_t warmupHeld = 0;
    };

    SweepRunner();
    explicit SweepRunner(Options options);

    /**
     * Execute all jobs; blocks until the sweep finishes. Outcomes are in
     * submission order and independent of the thread count.
     */
    std::vector<SweepOutcome> run(const std::vector<SweepJob> &jobs);

    /** Telemetry of the most recent run() call. */
    const Telemetry &telemetry() const { return telemetry_; }

    /** Worker threads a sweep of @p num_jobs jobs would use. */
    unsigned effectiveThreads(std::size_t num_jobs) const;

    /**
     * Build the profiles x machine-labels matrix in row-major submission
     * order, applying each label preset on top of @p base.
     */
    static std::vector<SweepJob>
    crossProduct(const std::vector<workload::BenchmarkProfile> &profiles,
                 const std::vector<std::string> &machine_labels,
                 const sim::SimConfig &base);

    /**
     * Build the profiles x fully-specified-configurations matrix in the
     * same row-major submission order (profiles outer). Used by the
     * design-space explorer, whose confirmation points are arbitrary
     * machines with no preset label.
     */
    static std::vector<SweepJob>
    crossProduct(const std::vector<workload::BenchmarkProfile> &profiles,
                 const std::vector<sim::SimConfig> &configs);

  private:
    Options options_;
    Telemetry telemetry_;
};

} // namespace wsrs::runner
