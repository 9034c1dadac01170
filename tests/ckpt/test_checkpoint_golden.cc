/**
 * @file
 * Golden end-to-end checkpoint tests: save at the warm-up/measure boundary,
 * restore into a fresh simulation, and require the measured slice to be
 * bit-identical — cycles and the full wsrs-stats-v1 document — to an
 * uninterrupted run. This is the determinism contract the crash-resume and
 * warm-up-reuse features stand on.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <ostream>
#include <string>

#include "src/bpred/two_bc_gskew.h"
#include "src/common/log.h"
#include "src/core/core.h"
#include "src/memory/hierarchy.h"
#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/sim/warmup.h"
#include "src/workload/profiles.h"
#include "src/workload/trace_generator.h"
#include "tests/support/fnv.h"

namespace wsrs::sim {
namespace {

struct TempFile
{
    TempFile()
    {
        path = (std::filesystem::temp_directory_path() /
                ("wsrs_ckpt_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter++) + ".ckpt"))
                   .string();
    }
    ~TempFile() { std::remove(path.c_str()); }
    static inline int counter = 0;
    std::string path;
};

SimConfig
smallConfig(const std::string &machine, bool verify = false)
{
    SimConfig cfg;
    cfg.core = findPreset(machine);
    cfg.warmupUops = 8000;
    cfg.measureUops = 15000;
    cfg.core.verifyDataflow = verify;
    return cfg;
}

struct CkptRow
{
    const char *bench;
    const char *machine;
};

// gtest would otherwise print the literals' addresses into every
// discovered ctest name.
void
PrintTo(const CkptRow &row, std::ostream *os)
{
    *os << row.bench << "/" << row.machine;
}

class GoldenCheckpoint : public ::testing::TestWithParam<CkptRow>
{
};

TEST_P(GoldenCheckpoint, SaveRestoreContinueIsBitIdentical)
{
    const auto [bench, machine] = GetParam();
    const workload::BenchmarkProfile &profile =
        workload::findProfile(bench);
    const SimConfig cfg = smallConfig(machine);

    const SimResults clean = runSimulation(profile, cfg);

    // Saving must not perturb the saving run.
    TempFile ckpt;
    SimConfig save = cfg;
    save.checkpointSavePath = ckpt.path;
    const SimResults saved = runSimulation(profile, save);
    EXPECT_EQ(saved.stats.cycles, clean.stats.cycles);
    EXPECT_EQ(saved.statsJson, clean.statsJson);

    // A fresh simulation restored from the checkpoint continues exactly
    // where the saver was: bit-identical measured slice.
    SimConfig load = cfg;
    load.checkpointLoadPath = ckpt.path;
    const SimResults restored = runSimulation(profile, load);
    EXPECT_EQ(restored.stats.cycles, clean.stats.cycles);
    EXPECT_EQ(restored.stats.committed, clean.stats.committed);
    EXPECT_EQ(restored.statsJson, clean.statsJson);
}

INSTANTIATE_TEST_SUITE_P(
    ProfilesTimesMachines, GoldenCheckpoint,
    ::testing::Values(CkptRow{"gzip", "WSRS-RC-512"},
                      CkptRow{"gzip", "RR-256"},
                      CkptRow{"swim", "WSRS-RC-512"},
                      CkptRow{"swim", "RR-256"}),
    [](const auto &info) {
        std::string name = std::string(info.param.bench) + "_" +
                           info.param.machine;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(CheckpointGolden, VerifyDataflowSurvivesRestore)
{
    // With the oracle enabled the checkpoint also carries the in-order
    // architectural state; a desync would trip valueMismatches.
    const workload::BenchmarkProfile &profile = workload::findProfile("gcc");
    const SimConfig cfg = smallConfig("WSRS-RC-512", /*verify=*/true);
    const SimResults clean = runSimulation(profile, cfg);

    TempFile ckpt;
    SimConfig save = cfg;
    save.checkpointSavePath = ckpt.path;
    (void)runSimulation(profile, save);

    SimConfig load = cfg;
    load.checkpointLoadPath = ckpt.path;
    const SimResults restored = runSimulation(profile, load);
    EXPECT_EQ(restored.stats.valueMismatches, 0u);
    EXPECT_EQ(restored.statsJson, clean.statsJson);
}

TEST(CheckpointGolden, RejectsMismatchedConfiguration)
{
    const workload::BenchmarkProfile &profile =
        workload::findProfile("gzip");
    TempFile ckpt;
    SimConfig save = smallConfig("WSRS-RC-512");
    save.checkpointSavePath = ckpt.path;
    (void)runSimulation(profile, save);

    // Different machine preset.
    SimConfig wrongMachine = smallConfig("RR-256");
    wrongMachine.checkpointLoadPath = ckpt.path;
    EXPECT_THROW(runSimulation(profile, wrongMachine), FatalError);

    // Different warm-up length.
    SimConfig wrongWarmup = smallConfig("WSRS-RC-512");
    wrongWarmup.warmupUops = 9000;
    wrongWarmup.checkpointLoadPath = ckpt.path;
    EXPECT_THROW(runSimulation(profile, wrongWarmup), FatalError);

    // Different benchmark.
    SimConfig cfg = smallConfig("WSRS-RC-512");
    cfg.checkpointLoadPath = ckpt.path;
    EXPECT_THROW(runSimulation(workload::findProfile("swim"), cfg),
                 FatalError);
}

TEST(CheckpointGolden, MissingFileFailsCleanly)
{
    SimConfig cfg = smallConfig("RR-256");
    cfg.checkpointLoadPath = "/nonexistent/dir/x.ckpt";
    EXPECT_THROW(runSimulation(workload::findProfile("gzip"), cfg),
                 FatalError);
}

TEST(WarmupSnapshot, ReuseIsDeterministicAcrossBuilds)
{
    const workload::BenchmarkProfile &profile =
        workload::findProfile("vpr");
    const SimConfig cfg = smallConfig("WSRS-RC-512");

    const std::string blob1 = buildWarmupSnapshot(profile, cfg);
    const std::string blob2 = buildWarmupSnapshot(profile, cfg);
    EXPECT_EQ(blob1, blob2) << "warm-up build is not deterministic";

    SimConfig reuse = cfg;
    reuse.warmupBlob = &blob1;
    const SimResults a = runSimulation(profile, reuse);
    const SimResults b = runSimulation(profile, reuse);
    EXPECT_EQ(a.statsJson, b.statsJson);
    EXPECT_GT(a.stats.committed, 0u);
}

TEST(WarmupSnapshot, KeyCoversConfigurationSlice)
{
    const workload::BenchmarkProfile &profile =
        workload::findProfile("vpr");
    const SimConfig base = smallConfig("WSRS-RC-512");
    const std::uint64_t k0 = warmupKeyHash(profile, base);

    SimConfig other = base;
    other.warmupUops += 1;
    EXPECT_NE(warmupKeyHash(profile, other), k0);
    other = base;
    other.seed = 99;
    EXPECT_NE(warmupKeyHash(profile, other), k0);
    other = base;
    other.predictor = PredictorKind::Gshare;
    EXPECT_NE(warmupKeyHash(profile, other), k0);
    other = base;
    other.mem.l1.sizeBytes *= 2;
    EXPECT_NE(warmupKeyHash(profile, other), k0);
    // The core preset is deliberately NOT part of the key: machine
    // independence is what makes one snapshot serve the whole sweep.
    other = base;
    other.core = findPreset("RR-256");
    EXPECT_EQ(warmupKeyHash(profile, other), k0);

    // A mismatched key is refused at restore time.
    const std::string blob = buildWarmupSnapshot(profile, base);
    SimConfig wrong = base;
    wrong.warmupUops = 4000;
    wrong.warmupBlob = &blob;
    EXPECT_THROW(runSimulation(profile, wrong), FatalError);
}

TEST(WarmupSnapshot, IncompatibleWithVerifyDataflow)
{
    const workload::BenchmarkProfile &profile =
        workload::findProfile("gzip");
    const SimConfig cfg = smallConfig("WSRS-RC-512");
    const std::string blob = buildWarmupSnapshot(profile, cfg);
    SimConfig bad = cfg;
    bad.core.verifyDataflow = true;
    bad.warmupBlob = &blob;
    EXPECT_THROW(runSimulation(profile, bad), FatalError);
}

// Locks the wsrs-ckpt-v3 bytes of a gzip warm-up snapshot.
TEST(WarmupSnapshot, BlobBytesAreGolden)
{
    const std::string blob = buildWarmupSnapshot(
        workload::findProfile("gzip"), smallConfig("WSRS-RC-512"));
    const std::uint64_t hash = test::fnv1a(blob);
    EXPECT_EQ(hash, 0xc647a086b265e64full) << std::hex << hash;

    // One row per other predictor kind, so each predictor's table layout
    // is locked too.
    const struct
    {
        PredictorKind kind;
        std::uint64_t hash;
    } rows[] = {
        {PredictorKind::Tournament, 0xd5e8fe0ef498259aull},
        {PredictorKind::Gshare, 0x0331343ab132930bull},
        {PredictorKind::Bimodal, 0x22877ba726bd5dacull},
        {PredictorKind::Perfect, 0x7dc70e880165eef6ull},
    };
    for (const auto &row : rows) {
        SimConfig cfg = smallConfig("WSRS-RC-512");
        cfg.predictor = row.kind;
        const std::uint64_t h = test::fnv1a(
            buildWarmupSnapshot(workload::findProfile("gzip"), cfg));
        EXPECT_EQ(h, row.hash)
            << "predictor " << static_cast<int>(row.kind) << ": " << std::hex
            << h;
    }
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

// Locks the bytes of a full-sim checkpoint file. Without verifyDataflow
// the core keeps no dataflow values, so its committed-memory image is
// empty and its value fields are 0; the verify row carries them: mcf's
// stores at the warm-up boundary already span about 150 4 KiB pages.
TEST(FullSimCheckpoint, FileBytesAreGolden)
{
    const struct
    {
        const char *bench;
        const char *machine;
        std::uint64_t hash;
        const char *mem = nullptr;  // findMemPreset label; default memory
        bool impl1 = false;         // Impl-1 renaming (OverPickRecycle)
        bool verify = false;        // CoreParams::verifyDataflow
    } cases[] = {
        {"mcf", "WSRS-RC-512", 0x0617ad7428c9e162ull},
        {"gzip", "RR-256", 0x819fbc0e3e81f612ull},
        // DRAM banks, the completion FIFO and pending stall segments.
        {"swim", "WSRS-RC-512", 0x9877c63ffaa78b43ull, "dram"},
        // The Impl-1 recycler and staged lists; no named preset uses it.
        {"gzip", "WSRS-RC-512", 0x041a3fa9a5df926eull, nullptr, true},
        // Dataflow values: the committed image, PRF, results, store data.
        {"mcf", "WSRS-RC-512", 0xc17f6348b4a1f49eull, nullptr, false, true},
    };
    for (const auto &c : cases) {
        TempFile ckpt;
        SimConfig cfg = smallConfig(c.machine, c.verify);
        if (c.mem)
            cfg.mem = findMemPreset(c.mem);
        if (c.impl1)
            cfg.core = presetWsrsRc(512, core::RenameImpl::OverPickRecycle);
        cfg.checkpointSavePath = ckpt.path;
        (void)runSimulation(workload::findProfile(c.bench), cfg);
        const std::uint64_t hash = test::fnv1a(slurp(ckpt.path));
        EXPECT_EQ(hash, c.hash)
            << c.bench << " on " << c.machine << ": " << std::hex << hash;
    }
}

// Locks the bytes of one Core snapshot with the interval sampler on, so
// interval samples are part of the locked layout (runSimulation saves
// before it is enabled).
TEST(CoreSnapshot, BytesAreGolden)
{
    workload::TraceGenerator gen(workload::findProfile("gzip"), 1);
    bpred::TwoBcGskew predictor;
    StatGroup stats("core-snapshot");
    memory::MemoryHierarchy mem(memory::HierarchyParams{}, stats);
    core::Core machine(findPreset("WSRS-RC-512"), gen, predictor, mem);
    machine.enableIntervalStats(500);
    machine.run(6000);
    ckpt::Writer w;
    machine.snapshot(w);
    const std::uint64_t hash = test::fnv1a(w.buffer());
    EXPECT_EQ(hash, 0x13ee160ba333b9e4ull) << std::hex << hash;

    // A fresh core restores those bytes and saves them back unchanged.
    core::Core copy(findPreset("WSRS-RC-512"), gen, predictor, mem);
    ckpt::Reader r(w.buffer(), "<core>");
    copy.restore(r);
    ckpt::Writer again;
    copy.snapshot(again);
    EXPECT_EQ(again.buffer(), w.buffer());
}

} // namespace
} // namespace wsrs::sim
