/**
 * @file
 * Observability instruments of the design-space explorer (src/explore).
 *
 * The explorer is an analytic pipeline, not a simulation, so its telemetry
 * lives in the process-wide MetricsRegistry like the runner's and the
 * service's: how many configuration points were enumerated, how many were
 * feasible, the size of the non-dominated frontier, and how the
 * cycle-accurate confirmation sweep went. Exported through the usual
 * `wsrs-metrics-v1` document (`wsrs-explore --metrics-out`).
 */
#pragma once

#include "src/obs/metrics_registry.h"

namespace wsrs::obs {

/** Handles of the `wsrs_explore_*` instrument group. */
struct ExploreMetrics
{
    explicit ExploreMetrics(MetricsRegistry &r);

    MetricCounter &configsEnumerated;  ///< Points decoded and estimated.
    MetricCounter &configsInfeasible;  ///< Points rejected by validation.
    MetricCounter &confirmJobs;        ///< Cycle-accurate jobs dispatched.
    MetricCounter &confirmFailures;    ///< ... that failed.
    MetricGauge &frontierSize;         ///< Non-dominated points found.
    MetricGauge &spaceAxes;            ///< Axes in the loaded spec.
    MetricHistogram &enumerateMs;      ///< Analytic sweep wall time.
    MetricHistogram &confirmMs;        ///< Confirmation sweep wall time.
};

} // namespace wsrs::obs
