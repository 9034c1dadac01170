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
#include <vector>
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

/**
 * Offsets of every wake-up token (a u64 ROB number) in a core payload:
 * the register-waiter lists, the wake-wheel buckets and the far wakes,
 * found as the one span that parses as those lists between two u64
 * copies of the register count.
 */
std::vector<std::size_t>
tokenOffsets(const std::string &p, std::uint64_t num_regs)
{
    const auto at = [&](std::size_t pos) {
        return pos + 8 <= p.size() ? ckpt::loadLe(p.data() + pos, 8)
                                   : ~std::uint64_t{0};
    };
    for (std::size_t start = 0; start + 8 <= p.size(); ++start) {
        if (at(start) != num_regs)
            continue;
        std::vector<std::size_t> tokens;
        std::size_t pos = start + 8;
        bool ok = true;
        const auto list = [&] {
            const std::uint64_t n = at(pos);
            ok = ok && n <= 4096 && pos + 8 * (n + 1) <= p.size();
            for (std::uint64_t k = 0; ok && k < n; ++k)
                tokens.push_back(pos + 8 * (k + 1));
            pos += ok ? 8 * (n + 1) : 0;
        };
        for (std::uint64_t r = 0; ok && r < num_regs; ++r)
            list();
        const std::uint64_t buckets = ok ? at(pos) : 0;
        ok = ok && buckets <= 4096;
        pos += 8;
        for (std::uint64_t b = 0; ok && b < buckets; ++b) {
            pos += 8;  // The bucket's cycle.
            list();
        }
        const std::uint64_t far = ok ? at(pos) : 0;
        ok = ok && far <= 4096;
        for (std::uint64_t f = 0; ok && f < far; ++f)
            tokens.push_back(pos + 16 * f + 16);
        pos += 8 + 16 * far;
        if (ok && at(pos) == num_regs)  // The producer table's size.
            return tokens;
    }
    return {};
}

/** The IoError message @p restore raises on @p bytes ("" if none). */
std::string
ioErrorOf(const std::function<void(ckpt::Reader &)> &restore,
          const std::string &bytes)
{
    ckpt::Reader r(bytes, "<core>");
    try {
        restore(r);
    } catch (const IoError &e) {
        return e.what();
    }
    return "";
}

// The core's wake-up lists are intrusive: a token listed twice or naming
// a micro-op outside the window would corrupt them, so a load rejects
// either at its byte offset.
TEST(CheckpointMutator, CoreRejectsDuplicateAndOutOfWindowWakeUpTokens)
{
    const core::CoreParams params = findPreset("WSRS-RC-512");
    workload::TraceGenerator gen(workload::findProfile("mcf"), 1);
    const auto bp = makePredictor(PredictorKind::TwoBcGskew);
    StatGroup stats("mutator");
    memory::MemoryHierarchy mem(findMemPreset("dram"), stats);
    core::Core machine(params, gen, *bp, mem);
    machine.run(3000);
    ckpt::Writer w;
    machine.snapshot(w);
    const std::string payload = w.buffer();
    const auto restore = [&](ckpt::Reader &r) {
        core::Core(params, gen, *bp, mem).restore(r);
    };
    ASSERT_EQ(ioErrorOf(restore, payload), "");

    const std::vector<std::size_t> tokens =
        tokenOffsets(payload, params.numPhysRegs);
    ASSERT_GE(tokens.size(), 2u);
    const auto mutant = [&](std::size_t token, std::uint64_t value) {
        std::string m = payload;
        ckpt::storeLe(m.data() + token, value, 8);
        return m;
    };
    const auto offsetOf = [](std::size_t token) {
        return "at byte offset " + std::to_string(token + 8) + ")";
    };
    const std::uint64_t first = ckpt::loadLe(payload.data() + tokens[0], 8);
    for (std::size_t k = 1; k < tokens.size(); ++k) {
        const std::string e = ioErrorOf(restore, mutant(tokens[k], first));
        EXPECT_NE(e.find("ROB slot holds two wake-up tokens"),
                  std::string::npos) << "token " << k << ": " << e;
        EXPECT_NE(e.find(offsetOf(tokens[k])), std::string::npos) << e;
    }
    const std::uint64_t window =
        std::uint64_t{params.numClusters} * params.clusterWindow;
    for (std::size_t k = 0; k < tokens.size(); ++k) {
        const std::uint64_t n = ckpt::loadLe(payload.data() + tokens[k], 8);
        for (const std::uint64_t outside : {n + window, n - window}) {
            const std::string e =
                ioErrorOf(restore, mutant(tokens[k], outside));
            EXPECT_NE(e.find("wake-up token outside the ROB window"),
                      std::string::npos) << "token " << k << ": " << e;
            EXPECT_NE(e.find(offsetOf(tokens[k])), std::string::npos) << e;
        }
    }
}

} // namespace
} // namespace wsrs::sim
