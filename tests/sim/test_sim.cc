/** @file Tests for presets and the simulation facade. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "src/common/log.h"
#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/sim/warmup.h"
#include "src/workload/profiles.h"
#include "tests/support/fnv.h"

namespace wsrs::sim {
namespace {

TEST(Presets, PaperMispredictionPenalties)
{
    // Section 5.2.1: 17 cycles conventional, 16 with WS (one register-read
    // stage saved), 16/18 for the WSRS renaming strategies.
    EXPECT_EQ(presetConventional().minMispredictPenalty(), 17u);
    EXPECT_EQ(presetWriteSpec(384).minMispredictPenalty(), 16u);
    EXPECT_EQ(presetWsrsRc(512, core::RenameImpl::OverPickRecycle)
                  .minMispredictPenalty(),
              16u);
    EXPECT_EQ(presetWsrsRc(512, core::RenameImpl::ExactCount)
                  .minMispredictPenalty(),
              18u);
}

TEST(Presets, MachineShellMatchesPaper)
{
    const core::CoreParams p = presetConventional();
    EXPECT_EQ(p.numClusters, 4u);
    EXPECT_EQ(p.issuePerCluster, 2u);
    EXPECT_EQ(p.fetchWidth, 8u);
    EXPECT_EQ(p.clusterWindow, 56u);
    EXPECT_EQ(p.numPhysRegs, 256u);
}

TEST(Presets, RegisterReadPipelines)
{
    // Table 1 at the simulated clock: conventional 4 stages, WS one
    // shorter, WSRS two shorter.
    EXPECT_EQ(presetConventional().regReadStages, 4u);
    EXPECT_EQ(presetWriteSpec(512).regReadStages, 3u);
    EXPECT_EQ(presetWsrsRm(512).regReadStages, 2u);
}

TEST(Presets, FindPresetCoversFigure4)
{
    for (const std::string &label : figure4Presets()) {
        const core::CoreParams p = findPreset(label);
        EXPECT_EQ(p.name, label);
    }
    EXPECT_THROW(findPreset("bogus"), FatalError);
}

TEST(Presets, ModesAndPoliciesWireUp)
{
    EXPECT_EQ(findPreset("RR-256").mode, core::RegFileMode::Conventional);
    EXPECT_EQ(findPreset("WSRR-384").mode, core::RegFileMode::WriteSpec);
    EXPECT_EQ(findPreset("WSRS-RC-512").mode, core::RegFileMode::Wsrs);
    EXPECT_EQ(findPreset("WSRS-RC-512").policy,
              core::AllocPolicy::RandomCommutative);
    EXPECT_TRUE(findPreset("WSRS-RC-512").commutativeFus);
    EXPECT_EQ(findPreset("WSRS-RM-512").policy,
              core::AllocPolicy::RandomMonadic);
    EXPECT_FALSE(findPreset("WSRS-RM-512").commutativeFus);
    EXPECT_EQ(findPreset("WSRS-DEP-512").policy,
              core::AllocPolicy::DependenceAware);
}


TEST(Presets, MonolithicAndNarrowMachines)
{
    const core::CoreParams mono = presetMonolithic8Way();
    EXPECT_EQ(mono.numClusters, 1u);
    EXPECT_EQ(mono.issuePerCluster, 8u);
    EXPECT_EQ(mono.lsusPerCluster, 4u);
    EXPECT_EQ(mono.ffScope, core::FastForwardScope::Complete);
    EXPECT_EQ(mono.minMispredictPenalty(), 18u);  // big RF, 5 read stages

    const core::CoreParams narrow = presetConventional4Way();
    EXPECT_EQ(narrow.numClusters, 2u);
    EXPECT_EQ(narrow.fetchWidth, 4u);
    EXPECT_EQ(narrow.minMispredictPenalty(), 16u);

    const core::CoreParams pools = presetWriteSpecPools(512);
    EXPECT_EQ(pools.mode, core::RegFileMode::WriteSpecPools);
    EXPECT_EQ(pools.minMispredictPenalty(), 16u);

    EXPECT_EQ(findPreset("MONO-256").numClusters, 1u);
    EXPECT_EQ(findPreset("RR4W-128").fetchWidth, 4u);
    EXPECT_EQ(findPreset("WSP-512").mode,
              core::RegFileMode::WriteSpecPools);
}

TEST(Simulator, RunsAndReportsConsistentResults)
{
    SimConfig cfg;
    cfg.core = findPreset("RR-256");
    cfg.warmupUops = 5000;
    cfg.measureUops = 20000;
    cfg.core.verifyDataflow = true;
    const SimResults r =
        runSimulation(workload::findProfile("gzip"), cfg);
    EXPECT_EQ(r.benchmark, "gzip");
    EXPECT_EQ(r.machine, "RR-256");
    EXPECT_GE(r.stats.committed, 20000u);
    EXPECT_NEAR(r.ipc, double(r.stats.committed) / r.stats.cycles, 1e-12);
    EXPECT_GE(r.l1MissRate, 0.0);
    EXPECT_LE(r.l1MissRate, 1.0);
}

TEST(Simulator, DeterministicAcrossRuns)
{
    SimConfig cfg;
    cfg.core = findPreset("WSRS-RC-512");
    cfg.warmupUops = 2000;
    cfg.measureUops = 10000;
    const auto &p = workload::findProfile("swim");
    const SimResults a = runSimulation(p, cfg);
    const SimResults b = runSimulation(p, cfg);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.mispredicts, b.stats.mispredicts);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
}

TEST(Simulator, SeedChangesTraceButNotValidity)
{
    SimConfig a, b;
    a.core = b.core = findPreset("RR-256");
    a.warmupUops = b.warmupUops = 2000;
    a.measureUops = b.measureUops = 10000;
    a.core.verifyDataflow = b.core.verifyDataflow = true;
    b.seed = 99;
    const auto &p = workload::findProfile("vpr");
    const SimResults ra = runSimulation(p, a);
    const SimResults rb = runSimulation(p, b);
    EXPECT_NE(ra.stats.cycles, rb.stats.cycles);
}

TEST(Simulator, AllPredictorsRun)
{
    for (const PredictorKind kind :
         {PredictorKind::TwoBcGskew, PredictorKind::Gshare,
          PredictorKind::Bimodal, PredictorKind::Perfect}) {
        SimConfig cfg;
        cfg.core = findPreset("RR-256");
        cfg.predictor = kind;
        cfg.warmupUops = 2000;
        cfg.measureUops = 8000;
        const SimResults r =
            runSimulation(workload::findProfile("gcc"), cfg);
        if (kind == PredictorKind::Perfect)
            EXPECT_EQ(r.stats.mispredicts, 0u);
        else
            EXPECT_GT(r.ipc, 0.1);
    }
}

TEST(Simulator, PerfectPredictorIsUpperBound)
{
    SimConfig real, ideal;
    real.core = ideal.core = findPreset("RR-256");
    real.warmupUops = ideal.warmupUops = 5000;
    real.measureUops = ideal.measureUops = 20000;
    ideal.predictor = PredictorKind::Perfect;
    const auto &p = workload::findProfile("gcc");
    EXPECT_GE(runSimulation(p, ideal).ipc, runSimulation(p, real).ipc);
}

TEST(Simulator, VerifyKnobLivesInCoreParams)
{
    // The oracle cannot skip the warm-up dataflow a blob stands in for,
    // so asking for it on the core alone must refuse the blob.
    const auto &profile = workload::findProfile("gzip");
    SimConfig cfg;
    cfg.core = findPreset("WSRS-RC-512");
    cfg.warmupUops = 2000;
    cfg.measureUops = 2000;
    const std::string blob = buildWarmupSnapshot(profile, cfg);
    cfg.core.verifyDataflow = true;
    cfg.warmupBlob = &blob;
    EXPECT_THROW(runSimulation(profile, cfg), FatalError);
}

// Locks the `--timeline` text of three runs: a full ring, a DRAM run and a
// slice that commits fewer micro-ops than the ring holds.
TEST(Simulator, TimelineTextIsGolden)
{
    const struct
    {
        const char *bench, *machine, *mem;
        std::uint64_t warmup, measure;
        std::size_t rows;
        std::uint64_t hash;
    } cases[] = {
        {"gcc", "WSRS-RC-512", nullptr, 2000, 5000, 40, 0x516b06ebe7e8f793ull},
        {"mcf", "RR-256", "dram", 1000, 3000, 24, 0x1edab94157ed3c6dull},
        {"gzip", "WSRR-384", nullptr, 500, 20, 64, 0x154d9c98dfecfc62ull},
    };
    for (const auto &c : cases) {
        SimConfig cfg;
        cfg.core = findPreset(c.machine);
        if (c.mem)
            cfg.mem = findMemPreset(c.mem);
        cfg.warmupUops = c.warmup;
        cfg.measureUops = c.measure;
        cfg.timelineRows = c.rows;
        const std::string text =
            runSimulation(workload::findProfile(c.bench), cfg).timelineText;
        const auto lines = std::count(text.begin(), text.end(), '\n');
        // A header plus one row per recorded micro-op, at most `rows`.
        EXPECT_GT(lines, 1) << c.bench;
        EXPECT_LE(lines, std::ptrdiff_t(c.rows) + 1) << c.bench;
        const std::uint64_t hash = test::fnv1a(text);
        EXPECT_EQ(hash, c.hash)
            << c.bench << " on " << c.machine << ": " << std::hex << hash;
    }
}

TEST(Simulator, EnvOverridesApply)
{
    ::setenv("WSRS_MEASURE_UOPS", "1234", 1);
    ::setenv("WSRS_WARMUP_UOPS", "55", 1);
    const SimConfig cfg = applyEnvOverrides(SimConfig{});
    EXPECT_EQ(cfg.measureUops, 1234u);
    EXPECT_EQ(cfg.warmupUops, 55u);
    ::unsetenv("WSRS_MEASURE_UOPS");
    ::unsetenv("WSRS_WARMUP_UOPS");
}

TEST(Simulator, MalformedEnvOverridesAreFatal)
{
    // Historically these fell back to strtoull's garbage-tolerant parse:
    // "12k" silently became 12 and "junk" became 0. They must fail loudly.
    for (const char *bad : {"junk", "12k", "-5", " 7", "", "9999999999"
                                                         "9999999999"}) {
        ::setenv("WSRS_MEASURE_UOPS", bad, 1);
        EXPECT_THROW(applyEnvOverrides(SimConfig{}), FatalError)
            << "value '" << bad << "'";
        ::unsetenv("WSRS_MEASURE_UOPS");

        ::setenv("WSRS_WARMUP_UOPS", bad, 1);
        EXPECT_THROW(applyEnvOverrides(SimConfig{}), FatalError)
            << "value '" << bad << "'";
        ::unsetenv("WSRS_WARMUP_UOPS");
    }
}

} // namespace
} // namespace wsrs::sim
