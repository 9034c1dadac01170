/**
 * @file
 * Cycle-exact golden lock for the hot-loop restructuring work.
 *
 * The speed pass (structure-of-arrays window, ready-list scheduling,
 * interned allocation tables, ring-buffer recycler/LSQ, batched stat
 * attribution, flat committed-memory map) is only legal because it is
 * observationally invisible: every preset must produce the exact
 * wsrs-stats-v1 JSON document — byte for byte — that the pre-refactor
 * simulator produced. These fingerprints were generated from the seed
 * implementation (straight AoS window scan, std::deque recycler,
 * std::unordered_map oracle) and lock cycles, committed micro-op counts
 * and an FNV-1a hash of the full stats document for every Figure-4 /
 * MONO / narrow preset over two benchmark profiles with dataflow
 * verification enabled. Rows with a memory preset other than `constant`
 * lock the event-driven DRAM backend (open- and closed-page) the same
 * way on RR-256 and WSRS-RC-512.
 *
 * If an intentional model change invalidates these rows, regenerate them
 * with the same configuration (warmupUops=2000, measureUops=10000,
 * verifyDataflow=true, default seed) from a build whose behaviour change
 * is understood and reviewed — never to paper over an accidental diff.
 */
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/workload/profiles.h"
#include "tests/support/fnv.h"

namespace {

using namespace wsrs;

using test::fnv1a;

struct GoldenRow
{
    const char *preset;
    const char *profile;
    const char *memPreset;    ///< sim::findMemPreset label.
    std::uint64_t statsHash;  ///< fnv1a over the full stats JSON.
    std::uint64_t cycles;
    std::uint64_t committed;
};

// Generated from the seed implementation; see the file comment.
constexpr GoldenRow kGolden[] = {
    {"RR-256", "gzip", "constant", 0x5a920b6c1794bb91ull, 5823ull, 10006ull},
    {"RR-256", "swim", "constant", 0x8fbda47daaa6373cull, 6361ull, 10000ull},
    {"WSRR-384", "gzip", "constant", 0x38217cb98e020455ull, 5692ull, 10000ull},
    {"WSRR-384", "swim", "constant", 0x3ac1200d179dcb50ull, 6152ull, 10000ull},
    {"WSRR-512", "gzip", "constant", 0x2c74b5e076f5ae5bull, 5692ull, 10000ull},
    {"WSRR-512", "swim", "constant", 0xdc1d8032710e7f9cull, 6152ull, 10000ull},
    {"WSP-512", "gzip", "constant", 0xb2b6a686730c24c4ull, 6763ull, 10006ull},
    {"WSP-512", "swim", "constant", 0xa2ef233032c44820ull, 6086ull, 10000ull},
    {"WSRS-RC-384", "gzip", "constant", 0x98592be519e9a0daull, 6260ull, 10006ull},
    {"WSRS-RC-384", "swim", "constant", 0xf6721a66ad27f268ull, 6728ull, 10000ull},
    {"WSRS-RC-512", "gzip", "constant", 0x6c7ca45475fdebf4ull, 6260ull, 10006ull},
    {"WSRS-RC-512", "swim", "constant", 0x4be0973e84076ea6ull, 6728ull, 10000ull},
    {"WSRS-RM-512", "gzip", "constant", 0xe94393057bf574cdull, 7418ull, 10006ull},
    {"WSRS-RM-512", "swim", "constant", 0x763fbfff8e0e3bdcull, 6676ull, 10000ull},
    {"WSRS-DEP-512", "gzip", "constant", 0x51fba526fcb51f1aull, 6033ull, 10005ull},
    {"WSRS-DEP-512", "swim", "constant", 0xd5798a210667fa1cull, 6190ull, 10000ull},
    {"MONO-256", "gzip", "constant", 0x887151c97e376d47ull, 5865ull, 10005ull},
    {"MONO-256", "swim", "constant", 0xa2aa15535ba87ea1ull, 6435ull, 10000ull},
    {"MONO-320", "gzip", "constant", 0xfd275b35b14077f8ull, 5854ull, 10005ull},
    {"MONO-320", "swim", "constant", 0x76bc673269fa3e0cull, 6137ull, 10000ull},
    {"RR4W-128", "gzip", "constant", 0x1ea5c020b048576aull, 10149ull, 10002ull},
    {"RR4W-128", "swim", "constant", 0xf380b8f3d434e56bull, 13101ull, 10000ull},
    // The event-driven DRAM backend, open- and closed-page. Captured from
    // the parent of the change that added them, before any src/ edit.
    {"RR-256", "gzip", "dram", 0x39a23d7cffc2e9c0ull, 6722ull, 10005ull},
    {"RR-256", "swim", "dram", 0x7705e742b8ff58a6ull, 10240ull, 10000ull},
    {"WSRS-RC-512", "gzip", "dram", 0xd18a115c39ac7b3bull, 7081ull, 10003ull},
    {"WSRS-RC-512", "swim", "dram", 0x4f82ef61af45e8a3ull, 10155ull, 10000ull},
    {"RR-256", "gzip", "dram-closed", 0x543464904d8db2c6ull, 6042ull, 10004ull},
    {"RR-256", "swim", "dram-closed", 0x0ca69a62c2c3dd6eull, 7705ull, 10000ull},
    {"WSRS-RC-512", "gzip", "dram-closed", 0xce3d4ba43ab937bbull, 6506ull, 10007ull},
    {"WSRS-RC-512", "swim", "dram-closed", 0xcf1e2ab3f0f31333ull, 7754ull, 10000ull},
    // Memory-bound profiles, where most cycles change no state: the
    // round-robin (RR), random (RC, RM) and draw-free (DEP) allocators
    // while rename stalls. Captured from the parent of the change that
    // skips those cycles, before any src/ edit.
    {"RR-256", "mcf", "constant", 0x2bdd29b4dc2e4833ull, 35567ull, 10005ull},
    {"WSRS-RC-512", "mcf", "constant", 0x9b834a929755b5cdull, 35491ull, 10005ull},
    {"WSRS-RM-512", "mcf", "constant", 0xafb1d78faeba0e4bull, 35753ull, 10005ull},
    {"WSRS-DEP-512", "mcf", "constant", 0x43569cb6f9151e2eull, 35818ull, 10005ull},
    {"RR-256", "equake", "constant", 0xd3763c53e50a4aacull, 9430ull, 10006ull},
    {"WSRS-RC-512", "equake", "constant", 0xc3bd68dd049934ffull, 9679ull, 10006ull},
    {"WSRS-RM-512", "equake", "constant", 0xd65defc7a0ed9bcbull, 10082ull, 10006ull},
    {"WSRS-DEP-512", "equake", "constant", 0xbe35a872e40ff98aull, 9686ull, 10006ull},
    {"RR-256", "mcf", "dram", 0xb825a78d5d61ff22ull, 45955ull, 10005ull},
    {"WSRS-RC-512", "mcf", "dram", 0x4f2b4d8c0f9bd31full, 46028ull, 10005ull},
    {"RR-256", "equake", "dram", 0x9214120dca179b51ull, 14851ull, 10006ull},
    {"WSRS-RC-512", "equake", "dram", 0x320a6aea6e0fb787ull, 14940ull, 10004ull},
};

// gtest would otherwise print the row's raw bytes, pointers included,
// into every discovered ctest name.
void
PrintTo(const GoldenRow &row, std::ostream *os)
{
    *os << row.preset << "/" << row.profile;
    if (std::string(row.memPreset) != "constant")
        *os << "/" << row.memPreset;
}

class GoldenEquivalence : public ::testing::TestWithParam<GoldenRow>
{
};

TEST_P(GoldenEquivalence, StatsJsonByteIdentical)
{
    const GoldenRow &row = GetParam();
    sim::SimConfig cfg;
    cfg.core = sim::findPreset(row.preset);
    cfg.mem = sim::findMemPreset(row.memPreset);
    cfg.warmupUops = 2000;
    cfg.measureUops = 10000;
    // The commit-time oracle cross-checks every value the dataflow model
    // produced, so a scheduling-only refactor that accidentally perturbs
    // operand routing fails loudly here, not just via the hash.
    cfg.core.verifyDataflow = true;
    const sim::SimResults r =
        sim::runSimulation(workload::findProfile(row.profile), cfg);
    EXPECT_EQ(r.stats.cycles, row.cycles)
        << row.preset << "/" << row.profile;
    EXPECT_EQ(r.stats.committed, row.committed)
        << row.preset << "/" << row.profile;
    EXPECT_EQ(fnv1a(r.statsJson), row.statsHash)
        << row.preset << "/" << row.profile
        << ": stats JSON diverged from the seed implementation";
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, GoldenEquivalence, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<GoldenRow> &info) {
        std::string name = std::string(info.param.preset) + "_" +
                           info.param.profile;
        if (std::string(info.param.memPreset) != "constant")
            name += std::string("_") + info.param.memPreset;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

// One traced mcf run, captured with the rows above: the interval samples
// inside its stats document and its --trace-pipe O3PipeView bytes. The
// odd period puts sample boundaries inside long stalls.
TEST(GoldenEquivalenceTraced, McfIntervalsAndPipeTraceByteIdentical)
{
    const std::string path = testing::TempDir() + "wsrs_golden_mcf.kanata";
    sim::SimConfig cfg;
    cfg.core = sim::findPreset("WSRS-RC-512");
    cfg.warmupUops = 2000;
    cfg.measureUops = 10000;
    cfg.core.verifyDataflow = true;
    cfg.intervalStatsCycles = 97;
    cfg.tracePipePath = path;
    const sim::SimResults r =
        sim::runSimulation(workload::findProfile("mcf"), cfg);
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream trace;
    trace << in.rdbuf();
    std::remove(path.c_str());
    EXPECT_EQ(r.stats.cycles, 35491ull);
    EXPECT_EQ(fnv1a(r.statsJson), 0xb174d9584e8ce607ull);
    EXPECT_EQ(fnv1a(trace.str()), 0xacc8ee16a3124d1dull);
}

} // namespace
