/**
 * @file
 * Configuration fuzzing: random but legal machine configurations must all
 * run to completion with zero oracle mismatches. This sweeps corners no
 * hand-written test hits (odd windows, tiny LSQs, single-issue clusters,
 * mixed modes/policies/scopes/implementations) and relies on the core's
 * internal assertions to catch structural violations.
 */
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/workload/profiles.h"

namespace wsrs {
namespace {

core::CoreParams
randomConfig(XorShiftRng &rng)
{
    core::CoreParams p;
    const unsigned mode_pick = unsigned(rng.below(4));
    p.mode = static_cast<core::RegFileMode>(mode_pick);

    // WSRS requires 4 clusters; others may use 1, 2 or 4.
    if (p.mode == core::RegFileMode::Wsrs) {
        p.numClusters = 4;
    } else {
        const unsigned opts[] = {1, 2, 4};
        p.numClusters = opts[rng.below(3)];
    }
    // Subset modes need numPhysRegs divisible by numClusters (the pools
    // mode always partitions by 4... it uses numClusters subsets).
    p.issuePerCluster = 1 + unsigned(rng.below(3));
    p.fetchWidth = 4 + unsigned(rng.below(2)) * 4;
    p.commitWidth = p.fetchWidth;
    p.clusterWindow = 16 + unsigned(rng.below(6)) * 8;
    p.lsqSize = 16 + unsigned(rng.below(4)) * 16;
    p.lsusPerCluster = 1 + unsigned(rng.below(2));
    p.alusPerCluster = 1 + unsigned(rng.below(3));
    p.fpusPerCluster = 1 + unsigned(rng.below(2));

    const unsigned per_subset_min = 96;  // > 80 logical registers
    const unsigned subsets =
        p.mode == core::RegFileMode::Conventional ? 1
        : p.mode == core::RegFileMode::WriteSpecPools
            ? core::kNumFuPools
            : p.numClusters;
    p.numPhysRegs =
        subsets * (per_subset_min + unsigned(rng.below(3)) * 16);

    switch (rng.below(4)) {
      case 0:
        p.policy = core::AllocPolicy::RoundRobin;
        break;
      case 1:
        p.policy = core::AllocPolicy::RandomMonadic;
        break;
      case 2:
        p.policy = core::AllocPolicy::RandomCommutative;
        p.commutativeFus = true;
        break;
      default:
        p.policy = core::AllocPolicy::DependenceAware;
        break;
    }
    // The WSRS allocation geometry needs 4 clusters even for RR.
    if (p.mode != core::RegFileMode::Wsrs &&
        p.policy != core::AllocPolicy::RoundRobin &&
        rng.chance(0.3)) {
        p.policy = core::AllocPolicy::RoundRobin;
    }

    p.renameImpl = rng.chance(0.5) ? core::RenameImpl::OverPickRecycle
                                   : core::RenameImpl::ExactCount;
    p.ffScope = static_cast<core::FastForwardScope>(rng.below(3));
    p.regReadStages = 2 + unsigned(rng.below(3));
    p.frontEndDepth = 8 + unsigned(rng.below(8));
    p.recycleDelay = 2 + unsigned(rng.below(4));
    p.writebackPerCluster = 1 + unsigned(rng.below(3));
    p.sharedComplexUnit = rng.chance(0.3);
    p.agenWidth = 2 + unsigned(rng.below(7));
    p.verifyDataflow = true;
    p.seed = rng.next();
    p.name = "fuzz";
    return p;
}

class ConfigFuzz : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ConfigFuzz, RandomLegalConfigVerifies)
{
    XorShiftRng rng(0xf022 + GetParam());
    const core::CoreParams params = randomConfig(rng);

    // Rotate through benchmarks so memory behaviour varies too.
    const auto &profiles = workload::allProfiles();
    const auto &profile = profiles[GetParam() % profiles.size()];

    sim::SimConfig cfg;
    cfg.core = params;
    cfg.warmupUops = 0;
    cfg.measureUops = 12000;
    cfg.core.verifyDataflow = true;
    const sim::SimResults r = sim::runSimulation(profile, cfg);
    EXPECT_EQ(r.stats.valueMismatches, 0u)
        << "mode=" << int(params.mode) << " policy=" << int(params.policy)
        << " clusters=" << params.numClusters
        << " regs=" << params.numPhysRegs << " bench=" << profile.name;
    EXPECT_GE(r.stats.committed, 12000u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConfigFuzz, ::testing::Range(0u, 36u));

} // namespace
} // namespace wsrs
