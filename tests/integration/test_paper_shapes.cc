/**
 * @file
 * Integration tests pinning the paper's qualitative results (the "shape"
 * of Figures 4 and 5 and the Section 5 analysis). Slices are kept short,
 * so tolerances are loose — the full bench harnesses produce the real
 * numbers.
 */
#include <gtest/gtest.h>

#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/workload/profiles.h"

namespace wsrs {
namespace {

sim::SimResults
run(const std::string &bench, const std::string &machine,
    std::uint64_t uops = 60000)
{
    sim::SimConfig cfg;
    cfg.core = sim::findPreset(machine);
    cfg.warmupUops = uops;
    cfg.measureUops = uops;
    return sim::runSimulation(workload::findProfile(bench), cfg);
}

TEST(PaperShapes, WriteSpecializationDoesNotImpairPerformance)
{
    // Section 5.4.1: WS + round-robin matches the conventional machine.
    for (const char *bench : {"gzip", "gcc", "swim"}) {
        const double rr = run(bench, "RR-256").ipc;
        const double ws = run(bench, "WSRR-512").ipc;
        EXPECT_GT(ws, rr * 0.97) << bench;
    }
}

TEST(PaperShapes, WriteSpecializationHelpsFpThroughLargerRegisterSet)
{
    // Section 5.4.1: marginal FP improvement from the larger register set.
    const double rr = run("mgrid", "RR-256").ipc;
    const double ws = run("mgrid", "WSRR-512").ipc;
    EXPECT_GE(ws, rr);
}

TEST(PaperShapes, WsrsRcStandsTheComparison)
{
    // Abstract: "performance ... stands the comparison". We pin a 12%
    // envelope (the paper reports ~3%; see EXPERIMENTS.md for the
    // measured deviation of this reproduction).
    for (const char *bench : {"gzip", "vpr", "mcf", "swim", "mgrid"}) {
        const double rr = run(bench, "RR-256").ipc;
        const double rc = run(bench, "WSRS-RC-512").ipc;
        EXPECT_GT(rc, rr * 0.88) << bench;
        EXPECT_LT(rc, rr * 1.12) << bench;
    }
}

TEST(PaperShapes, RmDoesNotBeatRcOnAverage)
{
    // Section 5.4.2: RC exploits more degrees of freedom than RM.
    double rc_sum = 0, rm_sum = 0;
    for (const char *bench : {"gcc", "crafty", "mgrid", "facerec"}) {
        rc_sum += run(bench, "WSRS-RC-512").ipc;
        rm_sum += run(bench, "WSRS-RM-512").ipc;
    }
    EXPECT_GE(rc_sum, rm_sum * 0.99);
}

TEST(PaperShapes, RegisterCount384To512HasMinorImpact)
{
    for (const char *bench : {"gzip", "applu"}) {
        const double r384 = run(bench, "WSRS-RC-384").ipc;
        const double r512 = run(bench, "WSRS-RC-512").ipc;
        EXPECT_NEAR(r384, r512, 0.08 * r512) << bench;
    }
}

TEST(PaperShapes, RoundRobinPerfectlyBalanced)
{
    EXPECT_EQ(run("gzip", "RR-256").stats.unbalancingDegree(), 0.0);
    EXPECT_EQ(run("swim", "RR-256").stats.unbalancingDegree(), 0.0);
}

TEST(PaperShapes, RmMoreUnbalancedThanRc)
{
    // Figure 5: RM exhibits the highest unbalancing in most cases.
    double rc_sum = 0, rm_sum = 0;
    for (const char *bench : {"gzip", "mcf", "swim", "facerec"}) {
        rc_sum += run(bench, "WSRS-RC-512").stats.unbalancingDegree();
        rm_sum += run(bench, "WSRS-RM-512").stats.unbalancingDegree();
    }
    EXPECT_GT(rm_sum, rc_sum);
}

TEST(PaperShapes, HighIpcFpCodesAreHighlyUnbalanced)
{
    // Figure 5: facerec/wupwise unbalancing approaches 100%.
    EXPECT_GT(run("facerec", "WSRS-RM-512").stats.unbalancingDegree(), 80.0);
    EXPECT_GT(run("facerec", "WSRS-RC-512").stats.unbalancingDegree(), 50.0);
}

TEST(PaperShapes, McfIsTheSlowestBenchmark)
{
    const double mcf = run("mcf", "RR-256").ipc;
    for (const char *bench : {"gzip", "vpr", "gcc", "crafty", "swim"})
        EXPECT_LT(mcf, run(bench, "RR-256").ipc) << bench;
}

TEST(PaperShapes, DependenceAwarePolicyIsCompetitive)
{
    // Section 5.4.2 future work: trading dependence locality against
    // balance should at least match the random policies.
    double dep = 0, rc = 0;
    for (const char *bench : {"gzip", "mgrid"}) {
        dep += run(bench, "WSRS-DEP-512").ipc;
        rc += run(bench, "WSRS-RC-512").ipc;
    }
    EXPECT_GT(dep, rc * 0.9);
}

} // namespace
} // namespace wsrs
