/**
 * @file
 * Aggregated machine-readable sweep report: every job's wsrs-stats-v1
 * document collected into one JSON file (schema wsrs-sweep-report-v1),
 * consumed by scripts/plot_figures.py and scripts/stall_report.py.
 */
#pragma once

#include <iosfwd>
#include <vector>

#include "src/runner/sweep_runner.h"

namespace wsrs::runner {

/** Version tag of the aggregated sweep report document. */
inline constexpr const char *kSweepReportSchema = "wsrs-sweep-report-v1";

/**
 * Write the aggregated report for a finished sweep. @p jobs and
 * @p outcomes must be the submission-order pair returned by
 * SweepRunner::run; failed jobs are reported with ok=false and their
 * error text instead of a stats document. The report carries the
 * runner's telemetry in two additive objects: "resume" ({resumed,
 * skipped_runs}) and "ckpt" ({warmup_reuse, warmup_cache: {hits,
 * misses}}).
 */
void writeSweepReport(std::ostream &os, const std::vector<SweepJob> &jobs,
                      const std::vector<SweepOutcome> &outcomes,
                      const SweepRunner::Telemetry &telemetry = {});

} // namespace wsrs::runner
