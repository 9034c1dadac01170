/**
 * @file
 * The repository's strongest correctness statement: for every benchmark and
 * every machine configuration, all committed destination values equal the
 * in-order oracle's — renaming (under write/read specialization), cluster
 * allocation (including operand swapping), bypassing, store-to-load
 * forwarding and memory ordering are architecturally transparent.
 */
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/workload/profiles.h"

namespace wsrs {
namespace {

using Case = std::tuple<std::string, std::string>;

class OracleEquivalence : public ::testing::TestWithParam<Case>
{
};

TEST_P(OracleEquivalence, AllCommittedValuesMatchOracle)
{
    const auto &[bench, machine] = GetParam();
    sim::SimConfig cfg;
    cfg.core = sim::findPreset(machine);
    cfg.warmupUops = 0;
    cfg.measureUops = 25000;
    cfg.core.verifyDataflow = true;  // runSimulation throws on any mismatch
    const sim::SimResults r =
        sim::runSimulation(workload::findProfile(bench), cfg);
    EXPECT_EQ(r.stats.valueMismatches, 0u);
    EXPECT_GE(r.stats.committed, 25000u);
}

std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    std::vector<std::string> machines = sim::figure4Presets();
    machines.insert(machines.end(),
                    {"WSP-512", "WSRS-DEP-512", "MONO-256", "RR4W-128"});
    for (const auto &p : workload::allProfiles())
        for (const std::string &m : machines)
            cases.emplace_back(p.name, m);
    return cases;
}

std::string
caseName(const ::testing::TestParamInfo<Case> &info)
{
    std::string s =
        std::get<0>(info.param) + "_" + std::get<1>(info.param);
    for (char &c : s)
        if (c == '-')
            c = '_';
    return s;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarksAllMachines, OracleEquivalence,
                         ::testing::ValuesIn(allCases()), caseName);

} // namespace
} // namespace wsrs
