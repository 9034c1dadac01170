/**
 * @file
 * End-to-end observability checks: run a real simulation with both trace
 * sinks and the interval sampler attached, then verify the binary trace
 * reads back self-consistently, agrees with the text trace, and the
 * exported stats document is strict JSON.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/obs/trace_sink.h"
#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/workload/profiles.h"
#include "tests/support/json_error.h"

namespace wsrs {
namespace {

std::size_t
countOccurrences(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size()))
        ++n;
    return n;
}

TEST(ObsIntegration, TracedRunExportsConsistentArtifacts)
{
    const std::string textPath = testing::TempDir() + "wsrs_obs.kanata";
    const std::string binPath = testing::TempDir() + "wsrs_obs.bin";

    sim::SimConfig cfg;
    cfg.core = sim::findPreset("WSRS-RC-512");
    cfg.warmupUops = 2000;
    cfg.measureUops = 6000;
    cfg.tracePipePath = textPath;
    cfg.tracePipeBinPath = binPath;
    cfg.intervalStatsCycles = 500;
    const sim::SimResults r =
        sim::runSimulation(workload::findProfile("gzip"), cfg);

    // The stats document parses strictly and carries the pipeline section.
    EXPECT_EQ(test::jsonError(r.statsJson), "");
    EXPECT_NE(r.statsJson.find("\"schema\": \"wsrs-stats-v1\""),
              std::string::npos);
    EXPECT_NE(r.statsJson.find("\"issue_stall\""), std::string::npos);
    EXPECT_NE(r.statsJson.find("\"period\": 500"), std::string::npos);

    // Binary trace: one record per committed micro-op of the measured
    // slice (the warm-up is never traced), self-consistent timestamps,
    // commit-ordered.
    std::ifstream bin(binPath, std::ios::binary);
    ASSERT_TRUE(bin.good());
    const std::vector<obs::UopTrace> records = obs::readBinaryTrace(bin);
    ASSERT_GE(records.size(), cfg.measureUops);
    Cycle prevCommit = 0;
    for (const obs::UopTrace &t : records) {
        EXPECT_LE(t.fetchCycle, t.renameCycle);
        EXPECT_LE(t.renameCycle, t.issueCycle);
        EXPECT_LE(t.readyCycle, t.issueCycle);
        EXPECT_LE(t.issueCycle, t.completeCycle);
        EXPECT_LE(t.completeCycle, t.commitCycle);
        EXPECT_GE(t.commitCycle, prevCommit);
        EXPECT_LT(t.cluster, cfg.core.numClusters);
        prevCommit = t.commitCycle;
    }

    // Text trace: same micro-op count, one O3PipeView block each.
    std::ifstream text(textPath);
    ASSERT_TRUE(text.good());
    std::ostringstream textContents;
    textContents << text.rdbuf();
    EXPECT_EQ(countOccurrences(textContents.str(), "O3PipeView:fetch:"),
              records.size());
    EXPECT_EQ(countOccurrences(textContents.str(), "O3PipeView:retire:"),
              records.size());
}

TEST(ObsIntegration, UntracedRunStillExportsStatsJson)
{
    sim::SimConfig cfg;
    cfg.core = sim::findPreset("RR-256");
    cfg.warmupUops = 1000;
    cfg.measureUops = 3000;
    const sim::SimResults r =
        sim::runSimulation(workload::findProfile("applu"), cfg);
    EXPECT_EQ(test::jsonError(r.statsJson), "");
    EXPECT_NE(r.statsJson.find("\"schema\": \"wsrs-stats-v1\""),
              std::string::npos);
    // Interval sampling off: the series must be empty, not absent.
    EXPECT_NE(r.statsJson.find("\"period\": 0"), std::string::npos);
}

} // namespace
} // namespace wsrs
