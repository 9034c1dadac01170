/**
 * @file
 * Deterministic synthetic micro-op trace generator.
 *
 * A BenchmarkProfile is expanded at construction into a small *static
 * program*: a sequence of static micro-op sites organized as segments of
 * loops made of basic blocks, each block terminated by a conditional branch
 * site with a fixed behaviour (loop-back counter, biased coin, or repeating
 * pattern). Register operands are allocated statically following the
 * profile's dependence-distance and invariant-operand rules, so the dynamic
 * stream exhibits stable, controllable dependence structure, and branch
 * predictors observe genuine per-PC history correlation.
 *
 * next() walks the static program like a tiny CFG interpreter and produces
 * an infinite dynamic stream: branch outcomes advance per-site state, loads
 * and stores draw effective addresses from per-site strided streams or a
 * random working set, and stores optionally alias recently loaded addresses.
 */
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/ckpt/snapshotter.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/isa/micro_op.h"
#include "src/workload/profile.h"
#include "src/workload/source.h"

namespace wsrs::workload {

/** How a static branch site decides its outcome. */
enum class BranchKind : std::uint8_t {
    None,     ///< Not a branch.
    Loop,     ///< Taken (trip-1) times, then not taken once; repeats.
    Biased,   ///< Taken with a fixed per-site probability.
    Pattern,  ///< Fixed repeating bit pattern, with optional noise flips.
};

/** How a static memory site generates effective addresses. */
enum class AddrKind : std::uint8_t {
    None,        ///< Not a memory operation.
    Stream,      ///< Strided stream (per-site stream id).
    Random,      ///< Uniform over the profile's working set.
    AliasLoad,   ///< Store site re-using a recently loaded address.
    AliasStore,  ///< Load site re-reading a recently stored address.
};

/** One site of the generated static program. */
struct StaticOp
{
    Addr pc = 0;
    isa::OpClass op = isa::OpClass::IntAlu;
    LogReg src1 = kNoLogReg;
    LogReg src2 = kNoLogReg;
    LogReg dst = kNoLogReg;
    bool commutative = false;

    BranchKind branchKind = BranchKind::None;
    std::uint32_t targetIdx = 0;   ///< Static index if the branch is taken.
    std::uint32_t tripCount = 0;   ///< Loop sites: iterations per entry.
    double takenProb = 0.0;        ///< Biased sites.
    std::uint16_t pattern = 0;     ///< Pattern sites: 16-bit outcome cycle.

    AddrKind addrKind = AddrKind::None;
    std::uint16_t streamId = 0;    ///< Stream sites.
};

/**
 * Expands a BenchmarkProfile into an infinite deterministic micro-op stream.
 *
 * Two generators constructed from the same profile and seed produce
 * bit-identical streams, so the oracle and any number of simulated machines
 * can each own an independent generator over the same trace.
 */
class TraceGenerator : public MicroOpSource, public ckpt::Snapshotter
{
  public:
    /**
     * Build the static program and reset the dynamic walk.
     *
     * @param profile benchmark description; validated with wsrs::fatal.
     * @param seed extra seed XORed with the profile's own seed.
     */
    explicit TraceGenerator(const BenchmarkProfile &profile,
                            std::uint64_t seed = 0);

    /** Produce the next dynamic micro-op. */
    isa::MicroOp next() override;

    /** The generated static program (for inspection and tests). */
    const std::vector<StaticOp> &program() const { return program_; }

    /** Number of dynamic micro-ops produced so far. */
    SeqNum produced() const { return seq_; }

    /**
     * Checkpoint the dynamic walk (cursor, per-site branch state, stream
     * bases, alias rings, RNG). The static program is rebuilt by the
     * constructor, so the restore target must be constructed from the same
     * profile and seed; the program size is validated.
     */
    void snapshot(ckpt::Writer &w) const override;
    void restore(ckpt::Reader &r) override;

  private:
    template <typename Self, typename Io>
    static void transfer(Self &self, Io &io);

    void buildProgram();
    void validateProfile() const;

    /** Draw a non-branch op class from the profile mix. */
    isa::OpClass drawOpClass();
    /** Pick a source register per the dependence rules. */
    LogReg pickSource(bool allow_invariant);
    /** Pick the destination of the most recent load site, if any. */
    LogReg lastLoadDest() const;
    /** Emit one non-terminator op site; may emit 2 (indexed store). */
    void emitBodyOp();
    /** Emit a conditional branch site; target patched later. */
    std::size_t emitBranch(BranchKind kind);

    /** Evaluate a dynamic branch outcome and advance the site state. */
    bool evalBranch(std::size_t idx);
    /** Compute the dynamic effective address of a memory site. */
    Addr computeAddr(const StaticOp &s);

    BenchmarkProfile profile_;
    XorShiftRng buildRng_;   ///< Drives static-program construction.
    XorShiftRng rng_;        ///< Drives the dynamic walk.

    std::vector<StaticOp> program_;

    // Static-construction helpers.
    std::vector<LogReg> recentDsts_;    ///< Dests in static emission order.
    std::size_t blockStartDsts_ = 0;    ///< recentDsts_ size at block start.
    std::vector<LogReg> blockLoadDsts_; ///< Load dests in the current block.
    /** Estimated dataflow depth (latency cycles) of each register's
     *  current static producer chain; bounds chain growth. */
    std::array<double, isa::kNumLogRegs> estDepth_{};
    /** Sources chosen for the op being emitted (depth bookkeeping). */
    double pendingSrcDepth_ = 0.0;
    unsigned nextGeneralDst_ = 0;
    unsigned nextInvariant_ = 0;
    LogReg lastLoadDst_ = kNoLogReg;

    // Dynamic walk state.
    std::uint32_t cursor_ = 0;
    SeqNum seq_ = 0;
    struct BranchState { std::uint32_t count = 0; };
    std::vector<BranchState> branchState_;
    struct StreamState { Addr base = 0; Addr next = 0; Addr stride = 8; };
    std::vector<StreamState> streams_;
    Addr streamRegionBytes_ = 4096;
    std::vector<Addr> recentLoadAddrs_;  ///< Ring of recent load addresses.
    std::size_t recentLoadPos_ = 0;
    std::vector<Addr> recentStoreAddrs_; ///< Ring of recent store addresses.
    std::size_t recentStorePos_ = 0;
};

} // namespace wsrs::workload
