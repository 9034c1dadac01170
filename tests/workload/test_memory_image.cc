/**
 * @file
 * The paged memory image shared by the core and the oracle: a seeded
 * differential test against std::map, snapshot bytes, bounded restore, and
 * commit-time oracle runs that would see a wrong loaded value (the stats
 * document never contains one, so the golden fingerprints cannot).
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <unistd.h>

#include "src/common/log.h"
#include "src/common/rng.h"
#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/workload/memory_image.h"
#include "src/workload/profiles.h"
#include "src/workload/trace_generator.h"
#include "src/workload/trace_io.h"

namespace wsrs::workload {
namespace {

using RefMap = std::map<Addr, std::uint64_t>;

std::uint64_t
refLoad(const RefMap &m, Addr a)
{
    const auto it = m.find(a);
    return it != m.end() ? it->second : memInitValue(a);
}

std::string
refSnapshot(const RefMap &m)
{
    ckpt::Writer w;
    w.u64(m.size());
    for (const auto &[a, v] : m) {
        w.u64(a);
        w.u64(v);
    }
    return w.buffer();
}

std::string
snapshotOf(const MemoryImage &img)
{
    ckpt::Writer w;
    img.snapshot(w);
    return w.buffer();
}

/** An address from one of the regions the image must keep apart. */
Addr
pickAddr(XorShiftRng &rng)
{
    static const Addr kBoundary[] = {4080, 4088, 4092, 4096, 4100, 4104,
                                     8184, 8188, 8192, 8196, 0, 1, 7, 8};
    Addr a = 0;
    switch (rng.below(5)) {
      case 0:
        a = kBoundary[rng.below(sizeof(kBoundary) / sizeof(kBoundary[0]))];
        break;
      case 1:  // Stream region.
        a = 0x1000'0000 + 8 * rng.below(1u << 16);
        break;
      case 2:  // Random region, mcf-sized.
        a = 0x4000'0000 + 8 * rng.below((3u << 20) / 8);
        break;
      case 3:  // The top of the address space.
        a = ~Addr{0} - 8 * rng.below(1024) - 7;
        break;
      default:  // A small hot set, so loads often hit stored keys.
        a = 0x4000'0000 + 8 * rng.below(64);
        break;
    }
    if (rng.chance(0.25))
        a += 1 + rng.below(7);  // Unaligned: must stay its own key.
    return a;
}

TEST(MemoryImage, MatchesOrderedMapReference)
{
    XorShiftRng rng(20021118);
    MemoryImage img;
    RefMap ref;
    for (int i = 0; i < 200000; ++i) {
        const Addr a = pickAddr(rng);
        if (rng.chance(0.4)) {
            const std::uint64_t v = rng.next();
            img.store(a, v);
            ref[a] = v;
        } else {
            ASSERT_EQ(img.load(a), refLoad(ref, a)) << std::hex << a;
        }
        if (i == 120000) {
            ASSERT_EQ(snapshotOf(img), refSnapshot(ref));
            img.clear();
            ref.clear();
            ASSERT_EQ(img.size(), 0u);
        }
    }
    ASSERT_EQ(img.size(), ref.size());
    ASSERT_EQ(snapshotOf(img), refSnapshot(ref));
    // Every stored key reads back, and a neighbour one byte off does not.
    for (const auto &[a, v] : ref) {
        ASSERT_EQ(img.load(a), v) << std::hex << a;
        ASSERT_EQ(img.load(a + 1), refLoad(ref, a + 1)) << std::hex << a;
    }
}

TEST(MemoryImage, PageBoundaryKeysAreDistinct)
{
    MemoryImage img;
    img.store(4088, 1);
    img.store(4100, 3);
    img.store(4096, 2);
    EXPECT_EQ(img.load(4088), 1u);
    EXPECT_EQ(img.load(4096), 2u);
    EXPECT_EQ(img.load(4100), 3u);
    EXPECT_EQ(img.load(4104), memInitValue(4104));
    EXPECT_EQ(img.load(4092), memInitValue(4092));
    img.store(4096, 4);  // Overwrite keeps the count.
    EXPECT_EQ(img.size(), 3u);
    EXPECT_EQ(snapshotOf(img),
              refSnapshot({{4088, 1}, {4096, 4}, {4100, 3}}));
}

TEST(MemoryImage, RestoreRoundTripsAndReplaces)
{
    XorShiftRng rng(7);
    MemoryImage a;
    for (int i = 0; i < 5000; ++i)
        a.store(pickAddr(rng), rng.next());
    const std::string bytes = snapshotOf(a);

    MemoryImage b;
    b.store(12345, 6789);  // Replaced, not merged.
    ckpt::Reader r(bytes, "test");
    b.restore(r);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(b.size(), a.size());
    EXPECT_EQ(b.load(12345), memInitValue(12345));
    EXPECT_EQ(snapshotOf(b), bytes);
}

TEST(MemoryImage, RestoreRejectsCountBeyondPayload)
{
    // A count in (2^62, 2^63) overflows a doubling pre-size loop. Any
    // count the payload cannot hold fails, located, before a pair is read.
    const std::uint64_t counts[] = {(std::uint64_t{1} << 62) + 1,
                                    ~std::uint64_t{0}, 2};
    for (const std::uint64_t count : counts) {
        ckpt::Writer w;
        w.u64(count);
        w.u64(8);  // One (address, value) pair: room for a count of 1.
        w.u64(9);
        ckpt::Reader r(w.buffer(), "crafted", 100);
        MemoryImage img;
        try {
            img.restore(r);
            FAIL() << "expected FatalError for count " << count;
        } catch (const FatalError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("crafted"), std::string::npos) << msg;
            EXPECT_NE(msg.find("exceeds the remaining payload"),
                      std::string::npos) << msg;
            EXPECT_NE(msg.find("offset 108"), std::string::npos) << msg;
        }
    }

    ckpt::Writer ok;
    ok.u64(1);
    ok.u64(8);
    ok.u64(9);
    ckpt::Reader r(ok.buffer(), "exact");
    MemoryImage img;
    img.restore(r);
    EXPECT_EQ(img.load(8), 9u);
}

TEST(MemoryImage, OracleRunOfMcfSeesNoValueMismatch)
{
    // mcf's 3 MB working set spreads its stores over hundreds of pages.
    sim::SimConfig cfg;
    cfg.core = sim::findPreset("WSRS-RC-512");
    cfg.warmupUops = 20000;
    cfg.measureUops = 30000;
    cfg.core.verifyDataflow = true;
    const sim::SimResults r = sim::runSimulation(findProfile("mcf"), cfg);
    EXPECT_EQ(r.stats.valueMismatches, 0u);
    EXPECT_GE(r.stats.committed, 30000u);
}

/** Generated micro-ops with some memory addresses moved off alignment. */
class UnalignedSource : public MicroOpSource
{
  public:
    explicit UnalignedSource(const BenchmarkProfile &p) : gen_(p, 0) {}

    isa::MicroOp
    next() override
    {
        isa::MicroOp op = gen_.next();
        // A function of the address, so stores and later loads of the
        // same double-word agree on the unaligned key.
        if ((op.isLoad() || op.isStore()) && (op.effAddr >> 3) % 3 == 0)
            op.effAddr += 1 + (op.effAddr >> 3) % 7;
        return op;
    }

  private:
    TraceGenerator gen_;
};

TEST(MemoryImage, OracleRunOfUnalignedTraceSeesNoValueMismatch)
{
    const BenchmarkProfile &profile = findProfile("gcc");
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("wsrs_unaligned_" + std::to_string(::getpid()) + ".trc"))
            .string();
    std::uint64_t unaligned = 0;
    {
        UnalignedSource src(profile);
        TraceWriter writer(path);
        for (int i = 0; i < 40000; ++i) {
            const isa::MicroOp op = src.next();
            unaligned += (op.isLoad() || op.isStore()) && (op.effAddr & 7);
            writer.append(op);
        }
    }
    ASSERT_GT(unaligned, 1000u);

    sim::SimConfig cfg;
    cfg.core = sim::findPreset("WSRS-RC-512");
    cfg.warmupUops = 0;
    cfg.measureUops = 35000;
    cfg.core.verifyDataflow = true;
    TraceReader reader(path);
    const sim::SimResults r = sim::runSimulation(profile, cfg, reader);
    std::remove(path.c_str());
    EXPECT_EQ(r.stats.valueMismatches, 0u);
    EXPECT_GE(r.stats.committed, 35000u);
}

} // namespace
} // namespace wsrs::workload
