/**
 * @file
 * Memory-backend presets at the simulator level.
 *
 * The `constant` preset is the identity: selecting it explicitly must
 * produce the byte-exact stats document of the default configuration, so
 * the constant-memory golden fingerprints in test_golden_equivalence.cc
 * keep the DRAM work out of the paper-reproduction path. The `dram` preset
 * must emit a schema-shaped, deterministic document of its own; its bytes
 * (and `dram-closed`'s) are locked by the DRAM rows of the same golden
 * table.
 */
#include <string>

#include <gtest/gtest.h>

#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/workload/profiles.h"
#include "tests/support/json_lint.h"

namespace {

using namespace wsrs;

sim::SimResults
run(const char *profile, const char *preset, const char *mem_preset)
{
    sim::SimConfig cfg;
    cfg.core = sim::findPreset(preset);
    if (mem_preset)
        cfg.mem = sim::findMemPreset(mem_preset);
    cfg.warmupUops = 2000;
    cfg.measureUops = 10000;
    return sim::runSimulation(workload::findProfile(profile), cfg);
}

TEST(MemModel, ConstantPresetIsByteIdenticalToDefault)
{
    for (const char *profile : {"gzip", "swim"}) {
        for (const char *preset : {"RR-256", "WSRS-RC-512"}) {
            const sim::SimResults def = run(profile, preset, nullptr);
            const sim::SimResults con = run(profile, preset, "constant");
            EXPECT_EQ(con.statsJson, def.statsJson)
                << preset << "/" << profile;
            EXPECT_EQ(con.stats.cycles, def.stats.cycles);
            // The constant model reports no DRAM activity at all.
            EXPECT_EQ(con.mem.dramRequests, 0u);
        }
    }
}

TEST(MemModel, DramPresetEmitsValidDeterministicStats)
{
    const sim::SimResults a = run("gzip", "WSRS-RC-512", "dram");
    EXPECT_EQ(test::jsonLint(a.statsJson), "");
    EXPECT_NE(a.statsJson.find("\"model\": \"dram\""), std::string::npos);
    EXPECT_NE(a.statsJson.find("\"stall\""), std::string::npos);
    EXPECT_GT(a.mem.dramRequests, 0u);

    // Deterministic: a second identical run reproduces the document.
    const sim::SimResults b = run("gzip", "WSRS-RC-512", "dram");
    EXPECT_EQ(b.statsJson, a.statsJson);
}

TEST(MemModel, DramSlowsMemoryBoundRunsRelativeToConstant)
{
    // Not a golden value — just the directionality that makes the model
    // worth having: default DRAM timing (28/28/28 + burst) is slower than
    // the flat 80-cycle constant once bank conflicts and the shared bus
    // come into play, so cycles must move (and IPC with them).
    const sim::SimResults con = run("swim", "WSRS-RC-512", "constant");
    const sim::SimResults dram = run("swim", "WSRS-RC-512", "dram");
    EXPECT_NE(dram.stats.cycles, con.stats.cycles);
    EXPECT_EQ(dram.stats.committed, con.stats.committed)
        << "memory timing must not change committed work";
}

TEST(MemModel, UnknownPresetDies)
{
    EXPECT_THROW(sim::findMemPreset("rambus"), std::exception);
    EXPECT_EQ(sim::memPresets().size(), 3u);
}

} // namespace
