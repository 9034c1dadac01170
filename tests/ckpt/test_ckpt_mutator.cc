/**
 * @file
 * Seeded mutation of every section of a full-sim checkpoint saved under
 * the DRAM memory model: bit flips, truncations and u64 fields overwritten
 * with 2^k, fed straight to each component's restore, past the CRC that
 * would otherwise catch them. Every mutant must either restore or fail as
 * an IoError; any other exception, a crash or a hang is a defect (the
 * ASan, UBSan and TSan lanes run this through the `ckpt` label).
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <unistd.h>

#include "src/ckpt/io.h"
#include "src/common/log.h"
#include "src/common/rng.h"
#include "src/core/core.h"
#include "src/memory/hierarchy.h"
#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/workload/profiles.h"
#include "src/workload/trace_generator.h"

namespace wsrs::sim {
namespace {

/** Bit-flip and truncation mutants per section. */
constexpr int kMutants = 200;

/** "" when @p restore accepts @p bytes or raises an IoError. */
std::string
defectOf(const std::function<void(ckpt::Reader &)> &restore,
         const std::string &bytes)
{
    ckpt::Reader r(bytes, "<mutant>");
    try {
        restore(r);
    } catch (const IoError &) {
    } catch (const std::exception &e) {
        return e.what();
    }
    return "";
}

/** Every mutant of @p payload, each passed to @p visit(label, bytes). */
template <typename Visit>
void
forEachMutant(const std::string &payload, XorShiftRng &rng, Visit &&visit)
{
    for (int i = 0; i < kMutants; ++i) {
        std::string m = payload;
        if (i % 2 == 0) {
            for (int flips = 1 + static_cast<int>(rng.below(3)); flips > 0;
                 --flips)
                m[rng.below(m.size())] ^=
                    static_cast<char>(1u << rng.below(8));
            visit("bit flips " + std::to_string(i), m);
        } else {
            m.resize(rng.below(m.size()));
            visit("truncated to " + std::to_string(m.size()), m);
        }
    }
    // Every u64 that could be a count (1 .. 2^20) becomes 2^k, k >= 32.
    for (std::size_t at = 0; at + 8 <= payload.size(); ++at) {
        const std::uint64_t v = ckpt::loadLe(payload.data() + at, 8);
        if (v == 0 || v > (std::uint64_t{1} << 20))
            continue;
        std::string m = payload;
        const unsigned k = 32 + static_cast<unsigned>(rng.below(32));
        ckpt::storeLe(m.data() + at, std::uint64_t{1} << k, 8);
        visit("2^" + std::to_string(k) + " at " + std::to_string(at), m);
    }
}

TEST(CheckpointMutator, EverySectionRestoresOrRaisesIoError)
{
    const workload::BenchmarkProfile &profile =
        workload::findProfile("swim");
    SimConfig cfg;
    cfg.core = findPreset("WSRS-RC-512");
    cfg.mem = findMemPreset("dram");
    cfg.warmupUops = 4000;
    cfg.measureUops = 1000;
    cfg.checkpointSavePath = testing::TempDir() + "wsrs_mutator_" +
                             std::to_string(::getpid()) + ".ckpt";
    (void)runSimulation(profile, cfg);
    std::ifstream is(cfg.checkpointSavePath, std::ios::binary);
    const ckpt::CheckpointReader cr(is, cfg.checkpointSavePath);
    std::filesystem::remove(cfg.checkpointSavePath);

    // Fresh restore targets, configured as the saving run's were.
    workload::TraceGenerator gen(profile, cfg.seed);
    const auto bp = makePredictor(cfg.predictor);
    StatGroup stats("mutator");
    memory::MemoryHierarchy mem(cfg.mem, stats);
    const struct
    {
        const char *section;
        std::function<void(ckpt::Reader &)> restore;
    } targets[] = {
        {"trace",
         [&](ckpt::Reader &r) {
             workload::TraceGenerator(profile, cfg.seed).restore(r);
         }},
        {"bpred",
         [&](ckpt::Reader &r) { makePredictor(cfg.predictor)->restore(r); }},
        {"memory",
         [&](ckpt::Reader &r) {
             StatGroup g("mem");
             memory::MemoryHierarchy(cfg.mem, g).restore(r);
         }},
        {"core",
         [&](ckpt::Reader &r) {
             core::Core(cfg.core, gen, *bp, mem).restore(r);
         }},
    };

    XorShiftRng rng(0x6d757461);
    for (const auto &t : targets) {
        ckpt::Reader sec = cr.section(t.section);
        std::string payload(sec.remaining(), '\0');
        sec.bytes(payload.data(), payload.size());
        ASSERT_GE(payload.size(), 8u) << t.section;
        {
            ckpt::Reader r(payload, t.section);
            ASSERT_NO_THROW(t.restore(r)) << t.section;
        }
        forEachMutant(payload, rng,
                      [&](const std::string &label, const std::string &m) {
                          EXPECT_EQ(defectOf(t.restore, m), "")
                              << t.section << ": " << label;
                      });
    }
}

} // namespace
} // namespace wsrs::sim
