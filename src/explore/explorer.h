/**
 * @file
 * Explorer orchestration: analytic sweep -> Pareto frontier ->
 * cycle-accurate confirmation -> ranked wsrs-explore-v1 report.
 *
 * explore() streams the space's flat indices over a thread pool, scores
 * every feasible point with the analytic model (estimated IPC averaged
 * over the spec's workloads; area and energy from the hardware model),
 * keeps one exact non-dominated archive per chunk and merges them.
 * Scoring evaluates the model in its three pieces (AnalyticModel::
 * coreTerms, memTerms, combine): memory-side terms once per combination
 * of the memory-side axes, core-side terms and the hardware estimate
 * once per change of a core-side digit, and the fixed point once per
 * distinct pair of term vectors — with the same floating-point
 * operations as one estimateIpc call per point and workload. The
 * result — and the report bytes — are independent of the thread count:
 * points are pure functions of (spec, index), the non-dominated set is a
 * set, and every ordering in the report is deterministically tie-broken
 * by the enumeration index.
 *
 * With confirmTop > 0 the top-K frontier points (report order) are
 * materialized into named SimConfigs and dispatched through
 * runner::SweepRunner as a K x workloads job matrix; the report then
 * pairs each confirmed point's analytic estimate with its measured IPC,
 * ranks both ways, flags rank inversions, and records the Spearman rank
 * correlation between the two orderings.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/explore/analytic_model.h"
#include "src/explore/pareto.h"
#include "src/explore/space.h"

namespace wsrs::obs {
class MetricsRegistry;
} // namespace wsrs::obs

namespace wsrs::explore {

/** Schema tag of the explorer's JSON report. */
inline constexpr const char *kExploreReportSchema = "wsrs-explore-v1";

/** Knobs of one explore() run. */
struct ExplorerOptions
{
    /** Analytic-sweep threads; 0 picks the hardware concurrency. */
    unsigned threads = 1;
    /** Frontier points to confirm cycle-accurately (0 = none). */
    std::size_t confirmTop = 0;
    /** Confirmation sweep threads (SweepRunner semantics; 0 = hw). */
    unsigned confirmThreads = 0;
    std::uint64_t confirmMeasureUops = 300000;
    std::uint64_t confirmWarmupUops = 100000;
    /** Instrument group target (null = telemetry off). */
    obs::MetricsRegistry *metrics = nullptr;
};

/** Measured outcome of one confirmed frontier point. */
struct ConfirmedPoint
{
    std::uint64_t index = 0;    ///< Flat space index.
    bool ok = false;            ///< All of the point's jobs succeeded.
    double measuredIpc = 0;     ///< Mean over workloads (valid when ok).
    std::vector<double> perWorkload; ///< Spec workload order.
    std::string error;          ///< First failure message when !ok.
};

/** Everything explore() produces. */
struct ExplorerResult
{
    std::uint64_t enumerated = 0;  ///< Points decoded (== space size).
    std::uint64_t infeasible = 0;  ///< ... of which failed validation.
    /** Fixed-point evaluations (AnalyticModel::combine calls) of the
     *  sweep; at most feasible points x workloads. Not in the report. */
    std::uint64_t modelEvaluations = 0;
    std::vector<FrontierPoint> frontier;  ///< Report order.
    std::vector<ConfirmedPoint> confirmed;
    /** Spearman correlation of analytic vs. measured over the confirmed
     *  points (NaN when fewer than two confirmed). */
    double confirmSpearman = 0;
    std::size_t rankInversions = 0; ///< Discordant confirmed pairs.
    std::string reportJson;         ///< wsrs-explore-v1 document.
};

/** Run the analytic sweep (and optional confirmation) over @p spec. */
ExplorerResult explore(const SpaceSpec &spec, const AnalyticModel &model,
                       const ExplorerOptions &options);

} // namespace wsrs::explore
