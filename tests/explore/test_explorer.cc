/**
 * @file
 * End-to-end tests of explore(): thread-count determinism of the report
 * bytes (the regression test the report's design promises), report
 * well-formedness, exact axis coverage, frontier non-dominance, the
 * cycle-accurate confirmation path, the analytic sweep's throughput
 * floor (>= 1M configurations in well under a minute single-threaded)
 * and its reuse of model evaluations across points.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "src/explore/analytic_model.h"
#include "src/explore/explorer.h"
#include "src/explore/pareto.h"
#include "src/explore/space.h"
#include "tests/support/json_error.h"

namespace wsrs::explore {
namespace {

const char *kSmallSpec = R"({
  "schema": "wsrs-space-v1",
  "base": {"machine": "WSRS-RC-512", "mem": "constant"},
  "workloads": ["gzip", "mcf"],
  "axes": [
    {"param": "core.num_clusters", "values": [2, 4]},
    {"param": "core.mode", "values": ["conventional", "ws", "wsrs"]},
    {"param": "core.num_phys_regs", "from": 256, "to": 512, "step": 128}
  ]
})";

TEST(Explorer, ReportBytesAreThreadCountInvariant)
{
    const SpaceSpec spec = parseSpaceSpec(kSmallSpec, "test");
    const AnalyticModel model;
    ExplorerOptions one;
    one.threads = 1;
    ExplorerOptions four;
    four.threads = 4;
    const ExplorerResult r1 = explore(spec, model, one);
    const ExplorerResult r4 = explore(spec, model, four);
    EXPECT_EQ(r1.enumerated, r4.enumerated);
    EXPECT_EQ(r1.infeasible, r4.infeasible);
    ASSERT_EQ(r1.frontier.size(), r4.frontier.size());
    for (std::size_t i = 0; i < r1.frontier.size(); ++i)
        EXPECT_EQ(r1.frontier[i].index, r4.frontier[i].index);
    // The contract is byte equality, not just semantic equality.
    EXPECT_EQ(r1.reportJson, r4.reportJson);
}

TEST(Explorer, ReportIsStrictJsonWithExactCoverage)
{
    const SpaceSpec spec = parseSpaceSpec(kSmallSpec, "test");
    const AnalyticModel model;
    ExplorerOptions opt;
    opt.threads = 2;
    const ExplorerResult r = explore(spec, model, opt);
    EXPECT_EQ(r.enumerated, spec.totalPoints());
    EXPECT_GT(r.infeasible, 0u); // 2-cluster WSRS points must be flagged.
    EXPECT_LT(r.infeasible, r.enumerated);
    EXPECT_FALSE(r.frontier.empty());

    EXPECT_EQ(test::jsonError(r.reportJson), "");
    EXPECT_NE(r.reportJson.find("\"schema\":\"wsrs-explore-v1\""),
              std::string::npos);
    EXPECT_NE(r.reportJson.find("\"total_configs\":18"),
              std::string::npos);
    EXPECT_NE(r.reportJson.find("\"confirm\":null"), std::string::npos);
}

TEST(Explorer, FrontierIsMutuallyNonDominated)
{
    const SpaceSpec spec = parseSpaceSpec(kSmallSpec, "test");
    const AnalyticModel model;
    const ExplorerResult r = explore(spec, model, ExplorerOptions{});
    for (const auto &a : r.frontier)
        for (const auto &b : r.frontier)
            if (a.index != b.index) {
                EXPECT_FALSE(dominates(a.obj, b.obj))
                    << a.index << " dominates " << b.index;
            }
    // Report order: estimated IPC non-increasing.
    for (std::size_t i = 1; i < r.frontier.size(); ++i)
        EXPECT_GE(r.frontier[i - 1].obj.ipc, r.frontier[i].obj.ipc);
}

TEST(Explorer, ConfirmationPairsEstimateWithMeasurement)
{
    const char *spec_text = R"({
      "schema": "wsrs-space-v1",
      "base": {"machine": "WSRS-RC-512", "mem": "constant"},
      "workloads": ["gzip"],
      "axes": [
        {"param": "core.mode", "values": ["conventional", "ws", "wsrs"]},
        {"param": "core.num_phys_regs", "values": [256, 512]}
      ]
    })";
    const SpaceSpec spec = parseSpaceSpec(spec_text, "test");
    const AnalyticModel model;
    ExplorerOptions opt;
    opt.threads = 2;
    opt.confirmTop = 2;
    opt.confirmThreads = 2;
    opt.confirmMeasureUops = 8000;
    opt.confirmWarmupUops = 2000;
    const ExplorerResult r = explore(spec, model, opt);
    ASSERT_EQ(r.confirmed.size(), 2u);
    for (std::size_t k = 0; k < r.confirmed.size(); ++k) {
        const ConfirmedPoint &cp = r.confirmed[k];
        EXPECT_EQ(cp.index, r.frontier[k].index);
        ASSERT_TRUE(cp.ok) << cp.error;
        EXPECT_GT(cp.measuredIpc, 0.0);
        ASSERT_EQ(cp.perWorkload.size(), 1u);
        EXPECT_GT(cp.perWorkload[0], 0.0);
    }
    EXPECT_EQ(test::jsonError(r.reportJson), "");
    EXPECT_NE(r.reportJson.find("\"measured\":{"), std::string::npos);
    EXPECT_NE(r.reportJson.find("\"confirm\":{"), std::string::npos);

    // The confirmation sweep is deterministic too: a single-threaded
    // confirm run must reproduce the same bytes.
    ExplorerOptions serial = opt;
    serial.threads = 1;
    serial.confirmThreads = 1;
    const ExplorerResult r2 = explore(spec, model, serial);
    EXPECT_EQ(r.reportJson, r2.reportJson);
}

TEST(Explorer, MillionConfigSweepUnderAMinute)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    constexpr bool instrumented = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    constexpr bool instrumented = true;
#else
    constexpr bool instrumented = false;
#endif
#else
    constexpr bool instrumented = false;
#endif
    // 960 * 6 * 3 * 2^6 = 1,105,920 configurations (sanitized builds
    // sweep an 8x smaller space and skip the clock).
    const std::string regs = instrumented
                                 ? "\"from\": 128, \"to\": 247, \"step\": 1"
                                 : "\"from\": 128, \"to\": 1087, "
                                   "\"step\": 1";
    const std::string spec_text = R"({
      "schema": "wsrs-space-v1",
      "base": {"machine": "WSRS-RC-512", "mem": "constant"},
      "workloads": ["gzip"],
      "axes": [
        {"param": "core.num_phys_regs", )" +
                                  regs + R"(},
        {"param": "core.cluster_window",
         "values": [32, 40, 48, 56, 64, 72]},
        {"param": "core.mode", "values": ["conventional", "ws", "wsrs"]},
        {"param": "core.num_clusters", "values": [2, 4]},
        {"param": "core.issue_per_cluster", "values": [2, 4]},
        {"param": "mem.l2_kb", "values": [512, 1024]},
        {"param": "mem.l1_kb", "values": [32, 64]},
        {"param": "mem.mshrs", "values": [4, 8]},
        {"param": "mem.prefetch_depth", "values": [0, 2]}
      ]
    })";
    const SpaceSpec spec = parseSpaceSpec(spec_text, "test");
    if (!instrumented) {
        ASSERT_GE(spec.totalPoints(), 1000000u);
    }
    const AnalyticModel model;
    ExplorerOptions opt;
    opt.threads = 1;
    const auto t0 = std::chrono::steady_clock::now();
    const ExplorerResult r = explore(spec, model, opt);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    EXPECT_EQ(r.enumerated, spec.totalPoints());
    EXPECT_FALSE(r.frontier.empty());
    if (!instrumented) {
        EXPECT_LT(seconds, 60.0)
            << "analytic sweep too slow: " << r.enumerated
            << " configs in " << seconds << "s";
    }
}

TEST(Explorer, SweepRunsTheFixedPointOncePerDistinctInput)
{
    // The explore-query space: 34,560 core x 32 memory combinations
    // (1,105,920 points), of which 921,600 are feasible. The per-point
    // sweep ran the fixed point feasible x workloads times; the split
    // sweep runs it once per distinct (core terms, memory terms) pair.
    // A deterministic count, so the gain is guarded without a clock.
    const char *spec_text = R"({
      "schema": "wsrs-space-v1",
      "base": {"machine": "WSRS-RC-512", "mem": "constant"},
      "workloads": ["gzip", "gcc", "mcf", "swim", "equake"],
      "axes": [
        {"param": "core.mode", "values": ["conventional", "ws", "wsrs"]},
        {"param": "core.policy", "values": ["rr", "rc", "rm"]},
        {"param": "core.num_clusters", "values": [2, 4]},
        {"param": "core.issue_per_cluster", "values": [2, 4]},
        {"param": "core.cluster_window", "from": 32, "to": 72, "step": 8},
        {"param": "core.num_phys_regs", "from": 256, "to": 832,
         "step": 64},
        {"param": "core.commit_width", "values": [4, 8]},
        {"param": "core.fetch_width", "values": [4, 8]},
        {"param": "core.lsus_per_cluster", "values": [1, 2]},
        {"param": "core.lsq_size", "values": [32, 64]},
        {"param": "mem.l1_kb", "values": [32, 64]},
        {"param": "mem.l2_kb", "values": [512, 1024]},
        {"param": "mem.l2_assoc", "values": [4, 8]},
        {"param": "mem.mshrs", "values": [4, 8]},
        {"param": "mem.prefetch_depth", "values": [0, 2]}
      ]
    })";
    const SpaceSpec spec = parseSpaceSpec(spec_text, "test");
    ASSERT_EQ(spec.totalPoints(), 1105920u);
    const AnalyticModel model;
    for (const unsigned threads : {1u, 4u}) {
        ExplorerOptions opt;
        opt.threads = threads;
        const ExplorerResult r = explore(spec, model, opt);
        const std::uint64_t per_point =
            (r.enumerated - r.infeasible) * spec.workloads.size();
        EXPECT_EQ(r.enumerated - r.infeasible, 921600u);
        EXPECT_GT(r.modelEvaluations, 0u);
        EXPECT_LE(r.modelEvaluations, per_point / 4)
            << "threads=" << threads << ": " << r.modelEvaluations
            << " fixed-point evaluations for " << per_point
            << " (point, workload) pairs";
    }
}

} // namespace
} // namespace wsrs::explore
