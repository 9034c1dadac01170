/**
 * @file
 * Golden lock and brute-force equivalence for the explorer's analytic
 * sweep.
 *
 * explore() does not evaluate the analytic model once per (point,
 * workload): it splits the model into core-side terms, memory-side terms
 * and the fixed point that combines them, and reuses each piece across
 * the points that share its inputs. That is only legal because it is
 * observationally invisible, which these tests lock in two ways.
 *
 *  - Golden: the FNV-1a hash of the analytic-only wsrs-explore-v1 report
 *    (confirmTop = 0) for the shipped examples/design_space.json and for
 *    a DRAM-base space whose memory axes come first. The hashes were
 *    generated from the implementation before the split, which called
 *    AnalyticModel::estimateIpc for every feasible point and workload.
 *  - Equivalence: a test-local brute-force sweep (decode -> materialize
 *    -> estimateIpc x workloads -> estimateHardware -> offer) must give
 *    the same infeasible count and a frontier with the same indices and
 *    bit-equal objectives, at 1 and 3 sweep threads.
 *
 * If an intentional model change invalidates a hash, regenerate it with
 * the brute-force loop below agreeing — never to paper over a diff
 * between the two paths.
 */
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/explore/analytic_model.h"
#include "src/explore/explorer.h"
#include "src/explore/pareto.h"
#include "src/explore/space.h"
#include "src/workload/profiles.h"
#include "tests/support/fnv.h"

namespace wsrs::explore {
namespace {

using test::fnv1a;

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
readExampleSpace()
{
    const std::string path =
        std::string(WSRS_SOURCE_DIR) + "/examples/design_space.json";
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << "cannot read " << path;
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

// Memory axes first, so every step of the innermost (core) axes changes
// the core; covers the core-side mem.l1_latency, the model-inert
// core.lsq_size and mem.l2_assoc, and both DRAM page policies.
const char *kDramSpec = R"({
  "schema": "wsrs-space-v1",
  "base": {"machine": "WSRS-RC-512", "mem": "dram"},
  "workloads": ["gzip", "mcf", "swim"],
  "axes": [
    {"param": "mem.model", "values": ["dram", "dram-closed"]},
    {"param": "mem.l1_latency", "values": [2, 3]},
    {"param": "mem.l2_kb", "values": [256, 1024]},
    {"param": "mem.l2_assoc", "values": [4, 8]},
    {"param": "mem.mshrs", "values": [4, 16]},
    {"param": "mem.dram_t_cas", "values": [14, 28]},
    {"param": "core.mode", "values": ["ws", "wsrs"]},
    {"param": "core.num_clusters", "values": [2, 4]},
    {"param": "core.cluster_window", "values": [40, 72]},
    {"param": "core.lsq_size", "values": [32, 64]},
    {"param": "core.num_phys_regs", "values": [256, 384, 512]}
  ]
})";

// Core and memory axes interleaved: 5 x 2 x 2 x 7 = 140 points in runs
// of 7 that share their core digits, and at 3 threads the chunk
// boundaries (46 and 93) fall inside such runs.
const char *kInterleavedSpec = R"({
  "schema": "wsrs-space-v1",
  "base": {"machine": "WSRS-RC-512", "mem": "constant"},
  "workloads": ["gcc", "equake"],
  "axes": [
    {"param": "core.num_phys_regs", "from": 256, "to": 768, "step": 128},
    {"param": "mem.l1_kb", "values": [16, 64]},
    {"param": "mem.l1_latency", "values": [1, 3]},
    {"param": "mem.prefetch_depth", "values": [0, 1, 2, 4, 8, 16, 32]}
  ]
})";

/** The per-point sweep explore() replaced, kept here as the oracle. */
struct BruteForce
{
    std::uint64_t infeasible = 0;
    std::vector<FrontierPoint> frontier;
};

BruteForce
bruteForce(const SpaceSpec &spec, const AnalyticModel &model)
{
    std::vector<WorkloadSignature> sigs;
    for (const std::string &name : spec.workloads)
        sigs.push_back(model.characterize(workload::findProfile(name)));

    BruteForce out;
    ParetoArchive archive;
    std::vector<std::uint32_t> digits(spec.axes.size());
    for (std::uint64_t idx = 0; idx < spec.totalPoints(); ++idx) {
        decodePoint(spec, idx, digits.data());
        const ConfigPoint pt = materializePoint(spec, digits.data());
        if (!pt.feasible) {
            ++out.infeasible;
            continue;
        }
        double sum_ipc = 0;
        for (const WorkloadSignature &sig : sigs)
            sum_ipc += model.estimateIpc(pt.core, pt.mem, sig).ipc;
        const HardwareEstimate hw = model.estimateHardware(pt.core);
        FrontierPoint p;
        p.index = idx;
        p.obj.ipc = sum_ipc / sigs.size();
        p.obj.area = hw.areaRel;
        p.obj.energy = hw.energyNJ;
        archive.offer(p);
    }
    out.frontier = archive.sorted();
    return out;
}

void
expectMatchesBruteForce(const std::string &spec_text, const char *what)
{
    const SpaceSpec spec = parseSpaceSpec(spec_text, what);
    const AnalyticModel model;
    const BruteForce want = bruteForce(spec, model);
    ASSERT_FALSE(want.frontier.empty()) << what;
    for (const unsigned threads : {1u, 3u}) {
        SCOPED_TRACE(std::string(what) + " threads=" +
                     std::to_string(threads));
        ExplorerOptions opt;
        opt.threads = threads;
        const ExplorerResult got = explore(spec, model, opt);
        EXPECT_EQ(got.enumerated, spec.totalPoints());
        EXPECT_EQ(got.infeasible, want.infeasible);
        ASSERT_EQ(got.frontier.size(), want.frontier.size());
        for (std::size_t k = 0; k < want.frontier.size(); ++k) {
            const FrontierPoint &g = got.frontier[k];
            const FrontierPoint &w = want.frontier[k];
            EXPECT_EQ(g.index, w.index) << "rank " << k;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(g.obj.ipc),
                      std::bit_cast<std::uint64_t>(w.obj.ipc))
                << "rank " << k << ": " << g.obj.ipc << " vs "
                << w.obj.ipc;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(g.obj.area),
                      std::bit_cast<std::uint64_t>(w.obj.area));
            EXPECT_EQ(std::bit_cast<std::uint64_t>(g.obj.energy),
                      std::bit_cast<std::uint64_t>(w.obj.energy));
        }
    }
}

struct GoldenRow
{
    const char *what;
    std::uint64_t reportHash; ///< fnv1a over the analytic-only report.
    std::uint64_t infeasible;
    std::size_t frontierSize;
};

// Generated from the per-point implementation; see the file comment.
constexpr GoldenRow kExampleGolden = {"design_space.json",
                                      0x551e9793437bef67ull, 324, 11};
constexpr GoldenRow kDramGolden = {"dram space", 0xa1ae3a86292f40a2ull,
                                   768, 4};

void
expectGolden(const std::string &spec_text, const GoldenRow &row)
{
    const SpaceSpec spec = parseSpaceSpec(spec_text, row.what);
    const AnalyticModel model;
    for (const unsigned threads : {1u, 4u}) {
        ExplorerOptions opt;
        opt.threads = threads;
        const ExplorerResult r = explore(spec, model, opt);
        EXPECT_EQ(hex64(fnv1a(r.reportJson)), hex64(row.reportHash))
            << row.what << " threads=" << threads;
        EXPECT_EQ(r.infeasible, row.infeasible) << row.what;
        EXPECT_EQ(r.frontier.size(), row.frontierSize) << row.what;
    }
}

TEST(ExplorerGolden, ExampleSpaceReport)
{
    expectGolden(readExampleSpace(), kExampleGolden);
}

TEST(ExplorerGolden, DramMemoryFirstSpaceReport)
{
    expectGolden(kDramSpec, kDramGolden);
}

TEST(ExplorerEquivalence, ExampleSpaceMatchesPerPointSweep)
{
    expectMatchesBruteForce(readExampleSpace(), "design_space.json");
}

TEST(ExplorerEquivalence, DramMemoryFirstSpaceMatchesPerPointSweep)
{
    expectMatchesBruteForce(kDramSpec, "dram space");
}

TEST(ExplorerEquivalence, InterleavedAxesMatchPerPointSweep)
{
    expectMatchesBruteForce(kInterleavedSpec, "interleaved space");
}

} // namespace
} // namespace wsrs::explore
