#include "trace_generator.h"

#include <algorithm>

#include "src/common/log.h"

namespace wsrs::workload {

namespace {

/// Synthetic text segment base; PCs are 4 bytes apart.
constexpr Addr kPcBase = 0x0040'0000;
/// Base of the strided-stream data regions.
constexpr Addr kStreamBase = 0x1000'0000;
/// Maximum bytes reserved per stream region.
constexpr Addr kStreamRegionMax = 1u << 22;
/// Base of the random-access working-set region.
constexpr Addr kRandomBase = 0x4000'0000;
/// Number of recent load addresses remembered for store aliasing.
constexpr std::size_t kRecentLoads = 32;

} // namespace

TraceGenerator::TraceGenerator(const BenchmarkProfile &profile,
                               std::uint64_t seed)
    : profile_(profile),
      buildRng_(profile.seed ^ seed ^ 0xb1c2d3e4f5a6ull),
      rng_(profile.seed ^ seed ^ 0x0123456789abull)
{
    validateProfile();
    buildProgram();
    branchState_.assign(program_.size(), BranchState{});

    // Half of the footprint backs the streams, half the random region.
    const Addr region =
        std::min<Addr>(kStreamRegionMax,
                       std::max<Addr>(4096,
                                      profile_.workingSetBytes / 2 /
                                          std::max(1u, profile_.numStreams)));
    streamRegionBytes_ = region;
    streams_.resize(std::max(1u, profile_.numStreams));
    const Addr jitter_span =
        (kStreamRegionMax > region ? kStreamRegionMax - region : 64) / 64;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
        // Spread stream bases uniformly within their slots so concurrently
        // swept arrays cover distinct cache sets (aligned bases would all
        // collide on the same sets).
        streams_[i].base = kStreamBase + i * kStreamRegionMax +
                           64 * buildRng_.below(jitter_span);
        streams_[i].next = streams_[i].base;
        streams_[i].stride = 8;
    }
    recentLoadAddrs_.assign(kRecentLoads, kRandomBase);
    recentStoreAddrs_.assign(kRecentLoads, kRandomBase + 8);
}

void
TraceGenerator::validateProfile() const
{
    const BenchmarkProfile &p = profile_;
    const double mix = p.fracLoad + p.fracStore + p.fracBranch + p.fracIntMul +
                       p.fracIntDiv + p.fracFpAdd + p.fracFpMul + p.fracFpDiv +
                       p.fracFpSqrt;
    if (mix > 1.0 + 1e-9)
        fatal("profile %s: instruction mix sums to %.3f > 1",
              p.name.c_str(), mix);
    if (p.fracBranch <= 0.0 || p.fracBranch >= 0.5)
        fatal("profile %s: fracBranch %.3f outside (0, 0.5)",
              p.name.c_str(), p.fracBranch);
    if (p.fracNoadic + p.fracMonadic > 1.0 + 1e-9)
        fatal("profile %s: arity fractions exceed 1", p.name.c_str());
    if (p.numInvariantRegs >= isa::kNumLogRegs / 2)
        fatal("profile %s: too many invariant registers (%u)",
              p.name.c_str(), p.numInvariantRegs);
    if (p.numSegments == 0 || p.meanLoopBlocks == 0 || p.meanTripCount < 2)
        fatal("profile %s: degenerate static-program shape", p.name.c_str());
    if (p.workingSetBytes < 4096)
        fatal("profile %s: working set below one page", p.name.c_str());
}

isa::OpClass
TraceGenerator::drawOpClass()
{
    // Branch sites are placed structurally (one per block); renormalize the
    // remaining mix over non-branch classes.
    const BenchmarkProfile &p = profile_;
    const double non_branch = 1.0 - p.fracBranch;
    double u = buildRng_.uniform() * non_branch;
    auto take = [&u](double f) {
        u -= f;
        return u < 0.0;
    };
    if (take(p.fracLoad)) return isa::OpClass::Load;
    if (take(p.fracStore)) return isa::OpClass::Store;
    if (take(p.fracIntMul)) return isa::OpClass::IntMul;
    if (take(p.fracIntDiv)) return isa::OpClass::IntDiv;
    if (take(p.fracFpAdd)) return isa::OpClass::FpAdd;
    if (take(p.fracFpMul)) return isa::OpClass::FpMul;
    if (take(p.fracFpDiv)) return isa::OpClass::FpDiv;
    if (take(p.fracFpSqrt)) return isa::OpClass::FpSqrt;
    return isa::OpClass::IntAlu;
}

LogReg
TraceGenerator::pickSource(bool allow_invariant)
{
    const unsigned n_inv = profile_.numInvariantRegs;
    const unsigned n_gen = isa::kNumLogRegs - n_inv;
    const auto use = [&](LogReg r) -> LogReg {
        pendingSrcDepth_ = std::max(pendingSrcDepth_, estDepth_[r]);
        return r;
    };
    const auto invariant = [&]() -> LogReg {
        if (n_inv > 0)
            return use(static_cast<LogReg>(buildRng_.below(n_inv)));
        return use(static_cast<LogReg>(n_inv + buildRng_.below(n_gen)));
    };

    const double u = buildRng_.uniform();
    // Chain roots: loop invariants and freshly loaded array elements. The
    // mix bounds the dependence-chain depth like real loop bodies do.
    if (allow_invariant && u < profile_.invariantFrac)
        return invariant();
    if (u < profile_.invariantFrac + profile_.loadValueFrac) {
        if (!blockLoadDsts_.empty())
            return use(
                blockLoadDsts_[buildRng_.below(blockLoadDsts_.size())]);
        return invariant();
    }
    // Computation chain: a recent destination, usually within the current
    // basic block (independent loop iterations); with probability
    // depCrossBlockFrac the whole history (loop-carried chains).
    const bool cross = buildRng_.chance(profile_.depCrossBlockFrac);
    const std::size_t window =
        cross ? recentDsts_.size() : recentDsts_.size() - blockStartDsts_;
    const std::uint64_t k = buildRng_.geometric(profile_.depGeomP);
    if (k <= window) {
        const LogReg cand = recentDsts_[recentDsts_.size() - k];
        // Bound the accumulated chain depth (the generator's ILP lever).
        if (cross || estDepth_[cand] <= profile_.maxChainDepth)
            return use(cand);
    }
    return invariant();
}

LogReg
TraceGenerator::lastLoadDest() const
{
    return lastLoadDst_;
}

void
TraceGenerator::emitBodyOp()
{
    const BenchmarkProfile &p = profile_;
    const unsigned n_inv = p.numInvariantRegs;
    const unsigned n_gen = isa::kNumLogRegs - n_inv;

    // Address registers are usually bases/induction values (invariants
    // here); computed addresses serialize the in-order address pipeline.
    auto pick_addr_src = [&]() -> LogReg {
        if (n_inv > 0 && buildRng_.chance(p.addrInvariantFrac))
            return static_cast<LogReg>(buildRng_.below(n_inv));
        return pickSource(true);
    };

    auto pick_dest = [&]() -> LogReg {
        LogReg d;
        if (buildRng_.chance(0.5)) {
            d = static_cast<LogReg>(n_inv + (nextGeneralDst_ % n_gen));
            ++nextGeneralDst_;
        } else {
            d = static_cast<LogReg>(n_inv + buildRng_.below(n_gen));
        }
        return d;
    };

    StaticOp s;
    s.pc = kPcBase + 4 * program_.size();
    s.op = drawOpClass();
    pendingSrcDepth_ = 0.0;

    switch (s.op) {
      case isa::OpClass::Load: {
        if (lastLoadDst_ != kNoLogReg &&
            buildRng_.chance(p.pointerChaseFrac)) {
            s.src1 = lastLoadDst_;
            s.addrKind = AddrKind::Random;
        } else if (buildRng_.chance(p.loadAfterStoreFrac)) {
            s.src1 = pick_addr_src();
            s.addrKind = AddrKind::AliasStore;
        } else {
            s.src1 = pick_addr_src();
            s.addrKind = buildRng_.chance(p.strideFrac) ? AddrKind::Stream
                                                        : AddrKind::Random;
            s.streamId = static_cast<std::uint16_t>(
                buildRng_.below(std::max(1u, p.numStreams)));
        }
        s.dst = pick_dest();
        lastLoadDst_ = s.dst;
        recentDsts_.push_back(s.dst);
        blockLoadDsts_.push_back(s.dst);
        break;
      }
      case isa::OpClass::Store: {
        if (buildRng_.chance(p.fracIndexedStore)) {
            // Decode-split indexed store: address-generation micro-op
            // followed by the store consuming its result.
            StaticOp ag;
            ag.pc = s.pc;
            ag.op = isa::OpClass::IntAlu;
            ag.src1 = pickSource(true);
            ag.src2 = pickSource(true);
            ag.dst = pick_dest();
            estDepth_[ag.dst] = pendingSrcDepth_ + 1.0;
            pendingSrcDepth_ = estDepth_[ag.dst];
            program_.push_back(ag);
            recentDsts_.push_back(ag.dst);
            s.pc = kPcBase + 4 * program_.size();
            s.src1 = ag.dst;
        } else {
            s.src1 = pick_addr_src();
        }
        s.src2 = pickSource(true);
        if (buildRng_.chance(p.storeAliasFrac)) {
            s.addrKind = AddrKind::AliasLoad;
        } else {
            s.addrKind = buildRng_.chance(p.strideFrac) ? AddrKind::Stream
                                                        : AddrKind::Random;
            s.streamId = static_cast<std::uint16_t>(
                buildRng_.below(std::max(1u, p.numStreams)));
        }
        break;
      }
      default: {
        // ALU / FP computational micro-op: draw the arity.
        const double u = buildRng_.uniform();
        if (u < p.fracNoadic) {
            // no register sources
        } else if (u < p.fracNoadic + p.fracMonadic) {
            s.src1 = pickSource(true);
        } else {
            s.src1 = pickSource(true);
            s.src2 = pickSource(true);
            s.commutative = buildRng_.chance(p.fracCommutative);
        }
        s.dst = pick_dest();
        recentDsts_.push_back(s.dst);
        break;
      }
    }
    if (s.dst != kNoLogReg) {
        estDepth_[s.dst] =
            pendingSrcDepth_ + static_cast<double>(isa::opLatency(s.op));
    }
    program_.push_back(s);
}

std::size_t
TraceGenerator::emitBranch(BranchKind kind)
{
    const BenchmarkProfile &p = profile_;
    StaticOp s;
    s.pc = kPcBase + 4 * program_.size();
    s.op = isa::OpClass::Branch;
    s.src1 = pickSource(true);
    s.branchKind = kind;
    switch (kind) {
      case BranchKind::Loop:
        s.tripCount = static_cast<std::uint32_t>(std::max<std::uint64_t>(
            2, buildRng_.range(p.meanTripCount / 2,
                               p.meanTripCount + p.meanTripCount / 2)));
        break;
      case BranchKind::Biased:
        s.takenProb = std::clamp(
            p.biasedTakenProb + (buildRng_.uniform() - 0.5) * 0.03, 0.0, 1.0);
        // Half of the biased sites are biased not-taken instead.
        if (buildRng_.chance(0.5))
            s.takenProb = 1.0 - s.takenProb;
        break;
      case BranchKind::Pattern:
        s.pattern = static_cast<std::uint16_t>(buildRng_.next());
        break;
      default:
        WSRS_PANIC("emitBranch with kind None");
    }
    program_.push_back(s);
    return program_.size() - 1;
}

void
TraceGenerator::buildProgram()
{
    const BenchmarkProfile &p = profile_;
    // One branch terminates each block, so the mean block body length that
    // realizes fracBranch is (1 - f) / f.
    const unsigned mean_block = static_cast<unsigned>(std::clamp(
        (1.0 - p.fracBranch) / p.fracBranch, 2.0, 48.0));

    for (unsigned seg = 0; seg < p.numSegments; ++seg) {
        // Segment preamble: write invariant registers outside the loop.
        const unsigned n_pre =
            std::max(1u, p.numInvariantRegs / p.numSegments);
        for (unsigned i = 0; i < n_pre && p.numInvariantRegs > 0; ++i) {
            StaticOp s;
            s.pc = kPcBase + 4 * program_.size();
            s.op = p.floatingPoint ? isa::OpClass::FpAdd
                                   : isa::OpClass::IntAlu;
            if (buildRng_.chance(0.5))
                s.src1 = pickSource(false);
            s.dst = static_cast<LogReg>(nextInvariant_ %
                                        p.numInvariantRegs);
            ++nextInvariant_;
            // Invariants are computed outside the loops they feed; at run
            // time they are ready long before their readers.
            estDepth_[s.dst] = 0.0;
            program_.push_back(s);
            recentDsts_.push_back(s.dst);
        }

        const std::uint32_t loop_start =
            static_cast<std::uint32_t>(program_.size());
        const unsigned n_blocks = static_cast<unsigned>(buildRng_.range(
            1, std::max(1u, 2 * p.meanLoopBlocks - 1)));

        // Forward branches to patch once the segment's loop-back index is
        // known: (site index, desired skip distance).
        std::vector<std::pair<std::size_t, unsigned>> pending;

        for (unsigned b = 0; b < n_blocks; ++b) {
            blockStartDsts_ = recentDsts_.size();
            blockLoadDsts_.clear();
            const unsigned len = static_cast<unsigned>(buildRng_.range(
                std::max(1u, mean_block / 2), mean_block + mean_block / 2));
            for (unsigned i = 0; i < len; ++i)
                emitBodyOp();
            if (b + 1 < n_blocks) {
                const BranchKind kind =
                    buildRng_.chance(p.branchBiasedFrac) ? BranchKind::Biased
                                                         : BranchKind::Pattern;
                const std::size_t idx = emitBranch(kind);
                pending.emplace_back(
                    idx, static_cast<unsigned>(buildRng_.range(1, 4)));
            }
        }
        const std::size_t loop_back = emitBranch(BranchKind::Loop);
        program_[loop_back].targetIdx = loop_start;

        for (const auto &[idx, skip] : pending) {
            program_[idx].targetIdx = static_cast<std::uint32_t>(
                std::min(idx + 1 + skip, loop_back));
        }
    }
    WSRS_ASSERT(!program_.empty());
}

bool
TraceGenerator::evalBranch(std::size_t idx)
{
    const StaticOp &s = program_[idx];
    BranchState &st = branchState_[idx];
    switch (s.branchKind) {
      case BranchKind::Loop:
        if (++st.count >= s.tripCount) {
            st.count = 0;
            return false;
        }
        return true;
      case BranchKind::Biased:
        return rng_.chance(s.takenProb);
      case BranchKind::Pattern: {
        bool bit = (s.pattern >> (st.count % 16)) & 1;
        ++st.count;
        if (rng_.chance(profile_.patternNoise))
            bit = !bit;
        return bit;
      }
      default:
        WSRS_PANIC("evalBranch on non-branch site");
    }
}

Addr
TraceGenerator::computeAddr(const StaticOp &s)
{
    switch (s.addrKind) {
      case AddrKind::Stream: {
        StreamState &st = streams_[s.streamId];
        if (rng_.chance(profile_.streamPeekFrac)) {
            // Re-read the current element (register-blocked reuse).
            return st.next > st.base ? st.next - st.stride : st.next;
        }
        Addr a = st.next;
        st.next += st.stride;
        if (st.next >= st.base + streamRegionBytes_)
            st.next = st.base;
        return a;
      }
      case AddrKind::Random: {
        const Addr words =
            std::max<Addr>(1, profile_.workingSetBytes / 2 / 8);
        // Temporal locality: most non-streaming references revisit a small
        // hot subset of the region.
        if (rng_.chance(profile_.randomHotFrac)) {
            const Addr hot_words = std::max<Addr>(1, std::min<Addr>(
                words / 8, 16384 / 8));
            return kRandomBase + 8 * rng_.below(hot_words);
        }
        return kRandomBase + 8 * rng_.below(words);
      }
      case AddrKind::AliasLoad:
        return recentLoadAddrs_[rng_.below(recentLoadAddrs_.size())];
      case AddrKind::AliasStore:
        return recentStoreAddrs_[rng_.below(recentStoreAddrs_.size())];
      default:
        WSRS_PANIC("computeAddr on non-memory site");
    }
}

isa::MicroOp
TraceGenerator::next()
{
    const StaticOp &s = program_[cursor_];
    isa::MicroOp m;
    m.seq = seq_++;
    m.pc = s.pc;
    m.op = s.op;
    m.src1 = s.src1;
    m.src2 = s.src2;
    m.dst = s.dst;
    m.commutative = s.commutative;

    if (s.op == isa::OpClass::Load || s.op == isa::OpClass::Store) {
        m.effAddr = computeAddr(s);
        if (s.op == isa::OpClass::Load) {
            recentLoadAddrs_[recentLoadPos_] = m.effAddr;
            recentLoadPos_ = (recentLoadPos_ + 1) % recentLoadAddrs_.size();
        } else {
            recentStoreAddrs_[recentStorePos_] = m.effAddr;
            recentStorePos_ =
                (recentStorePos_ + 1) % recentStoreAddrs_.size();
        }
    }

    if (s.op == isa::OpClass::Branch) {
        const bool taken = evalBranch(cursor_);
        m.taken = taken;
        m.target = program_[s.targetIdx].pc;
        cursor_ = taken ? s.targetIdx : cursor_ + 1;
    } else {
        ++cursor_;
    }
    if (cursor_ >= program_.size())
        cursor_ = 0;
    return m;
}

template <typename Self, typename Io>
void
TraceGenerator::transfer(Self &self, Io &io)
{
    // The restore target rebuilds the same static program from (profile,
    // seed); the program size cross-checks that contract.
    ckpt::expect(io, self.program_.size(), 8,
                 "trace generator static-program size mismatch (different "
                 "profile or seed)");
    ckpt::rng(io, self.rng_);
    io.u32(self.cursor_);
    ckpt::check(io, self.cursor_ < self.program_.size(),
                "trace generator cursor out of range");
    io.u64(self.seq_);
    ckpt::expect(io, self.branchState_.size(), 8,
                 "trace generator branch-state size mismatch");
    for (auto &st : self.branchState_)
        io.u32(st.count);
    ckpt::expect(io, self.streams_.size(), 8,
                 "trace generator stream count mismatch");
    for (auto &st : self.streams_) {
        io.u64(st.base);
        io.u64(st.next);
        io.u64(st.stride);
    }
    ckpt::vecExact(io, self.recentLoadAddrs_, "recent-load ring");
    io.u64(self.recentLoadPos_);
    ckpt::vecExact(io, self.recentStoreAddrs_, "recent-store ring");
    io.u64(self.recentStorePos_);
    ckpt::check(io,
                self.recentLoadPos_ < self.recentLoadAddrs_.size() &&
                    self.recentStorePos_ < self.recentStoreAddrs_.size(),
                "trace generator alias-ring cursor out of range");
}

void TraceGenerator::snapshot(ckpt::Writer &w) const { transfer(*this, w); }
void TraceGenerator::restore(ckpt::Reader &r) { transfer(*this, r); }

} // namespace wsrs::workload
