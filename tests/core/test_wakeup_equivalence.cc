/**
 * @file
 * Regression lock on the event-driven wake-up rewrite.
 *
 * The issue stage used to re-scan every waiting micro-op in every cluster
 * queue each cycle; it now walks only per-cluster ready lists fed by
 * producer-subscription wake-up. The rewrite must be cycle-exact: these
 * golden values were captured from the seed (full-scan) implementation on
 * one short simulation per Figure-4 preset and must never drift.
 */
#include <gtest/gtest.h>

#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/workload/profiles.h"

namespace wsrs::core {
namespace {

struct Golden
{
    const char *bench;
    const char *machine;
    std::uint64_t cycles;
    std::uint64_t committed;
    std::uint64_t loadForwards;
    std::uint64_t stallFree;
    std::uint64_t stallWindow;
    std::uint64_t stallRob;
    std::uint64_t stallLsq;
};

// Captured from the seed implementation at warmupUops=20000,
// measureUops=50000, seed=0 (tools/wsrs-sim --csv).
constexpr Golden kGolden[] = {
    {"gzip", "RR-256", 26102, 50007, 2189, 5637, 813, 6274, 0},
    {"swim", "RR-256", 33598, 50003, 3227, 25928, 830, 0, 0},
    {"gzip", "WSRR-384", 25717, 50003, 2186, 0, 0, 12446, 0},
    {"swim", "WSRR-384", 32914, 50003, 3250, 0, 0, 24211, 1506},
    {"gzip", "WSRR-512", 25717, 50003, 2186, 0, 0, 12446, 0},
    {"swim", "WSRR-512", 32914, 50003, 3250, 0, 0, 24211, 1506},
    {"gzip", "WSRS-RC-384", 28146, 50001, 2036, 0, 12355, 695, 0},
    {"swim", "WSRS-RC-384", 34047, 50003, 3126, 0, 24886, 611, 329},
    {"gzip", "WSRS-RC-512", 28146, 50001, 2036, 0, 12355, 695, 0},
    {"swim", "WSRS-RC-512", 34047, 50003, 3126, 0, 24886, 611, 329},
    {"gzip", "WSRS-RM-512", 30945, 50002, 1855, 0, 16095, 3, 0},
    {"swim", "WSRS-RM-512", 34048, 50000, 3155, 0, 25524, 48, 89},
};

TEST(WakeupEquivalence, MatchesSeedGoldenPerFigure4Preset)
{
    for (const Golden &g : kGolden) {
        SCOPED_TRACE(std::string(g.bench) + " on " + g.machine);
        sim::SimConfig cfg;
        cfg.core = sim::findPreset(g.machine);
        cfg.warmupUops = 20000;
        cfg.measureUops = 50000;
        const sim::SimResults r =
            sim::runSimulation(workload::findProfile(g.bench), cfg);
        EXPECT_EQ(r.stats.cycles, g.cycles);
        EXPECT_EQ(r.stats.committed, g.committed);
        EXPECT_EQ(r.stats.loadForwards, g.loadForwards);
        EXPECT_EQ(r.stats.renameStallFreeReg, g.stallFree);
        EXPECT_EQ(r.stats.renameStallWindow, g.stallWindow);
        EXPECT_EQ(r.stats.renameStallRob, g.stallRob);
        EXPECT_EQ(r.stats.renameStallLsq, g.stallLsq);
        EXPECT_NEAR(r.ipc, double(g.committed) / g.cycles, 1e-12);
    }
}

TEST(WakeupEquivalence, VerifiedDataflowStillPasses)
{
    // Oracle value checking crosses every issued result; a wake-up that
    // issued a micro-op before its operands were readable would surface
    // as a value mismatch (runSimulation fatals on any).
    for (const char *machine : {"RR-256", "WSRS-RC-512"}) {
        sim::SimConfig cfg;
        cfg.core = sim::findPreset(machine);
        cfg.warmupUops = 5000;
        cfg.measureUops = 30000;
        cfg.core.verifyDataflow = true;
        const sim::SimResults r =
            sim::runSimulation(workload::findProfile("gcc"), cfg);
        EXPECT_EQ(r.stats.valueMismatches, 0u);
    }
}

} // namespace
} // namespace wsrs::core
