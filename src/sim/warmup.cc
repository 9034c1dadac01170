#include "warmup.h"

#include <cstring>
#include <sstream>

#include "src/ckpt/io.h"
#include "src/common/hash.h"
#include "src/common/log.h"
#include "src/workload/trace_generator.h"

namespace wsrs::sim {

namespace {

std::uint64_t
hashStr(std::uint64_t h, std::string_view s)
{
    h = mixCombine(h, s.size());
    for (const char c : s)
        h = mixCombine(h, static_cast<unsigned char>(c));
    return h;
}

/** Hash a double by bit pattern: the profile knobs are exact constants, so
 *  bit equality is the right identity (no epsilon semantics wanted). */
std::uint64_t
hashD(std::uint64_t h, double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return mixCombine(h, bits);
}

/** Every profile knob participates: two profiles sharing a name but
 *  differing in any knob must never share a warm-up snapshot. */
std::uint64_t
hashProfile(std::uint64_t h, const workload::BenchmarkProfile &p)
{
    h = hashStr(h, p.name);
    h = mixCombine(h, p.floatingPoint);
    h = hashD(h, p.fracLoad);
    h = hashD(h, p.fracStore);
    h = hashD(h, p.fracBranch);
    h = hashD(h, p.fracIntMul);
    h = hashD(h, p.fracIntDiv);
    h = hashD(h, p.fracFpAdd);
    h = hashD(h, p.fracFpMul);
    h = hashD(h, p.fracFpDiv);
    h = hashD(h, p.fracFpSqrt);
    h = hashD(h, p.fracNoadic);
    h = hashD(h, p.fracMonadic);
    h = hashD(h, p.fracCommutative);
    h = hashD(h, p.fracIndexedStore);
    h = hashD(h, p.depGeomP);
    h = hashD(h, p.depCrossBlockFrac);
    h = hashD(h, p.maxChainDepth);
    h = hashD(h, p.invariantFrac);
    h = mixCombine(h, p.numInvariantRegs);
    h = hashD(h, p.loadValueFrac);
    h = hashD(h, p.pointerChaseFrac);
    h = hashD(h, p.addrInvariantFrac);
    h = mixCombine(h, p.numSegments);
    h = mixCombine(h, p.meanLoopBlocks);
    h = mixCombine(h, p.meanTripCount);
    h = hashD(h, p.branchBiasedFrac);
    h = hashD(h, p.biasedTakenProb);
    h = hashD(h, p.patternNoise);
    h = mixCombine(h, p.numStreams);
    h = hashD(h, p.strideFrac);
    h = hashD(h, p.streamPeekFrac);
    h = mixCombine(h, p.workingSetBytes);
    h = hashD(h, p.randomHotFrac);
    h = hashD(h, p.storeAliasFrac);
    h = hashD(h, p.loadAfterStoreFrac);
    h = mixCombine(h, p.seed);
    return h;
}

std::uint64_t
hashCacheParams(std::uint64_t h, const memory::CacheParams &p)
{
    h = mixCombine(h, p.sizeBytes);
    h = mixCombine(h, p.assoc);
    h = mixCombine(h, p.lineBytes);
    h = mixCombine(h, static_cast<std::uint64_t>(p.replacement));
    return h;
}

std::uint64_t
hashMemParams(std::uint64_t h, const memory::HierarchyParams &p)
{
    h = hashCacheParams(h, p.l1);
    h = hashCacheParams(h, p.l2);
    h = mixCombine(h, p.l1Latency);
    h = mixCombine(h, p.l1MissPenalty);
    h = mixCombine(h, p.l2MissPenalty);
    h = mixCombine(h, p.l2BytesPerCycle);
    h = mixCombine(h, p.mshrs);
    h = mixCombine(h, p.prefetchDepth);
    h = mixCombine(h, static_cast<std::uint64_t>(p.model));
    h = mixCombine(h, p.dram.banks);
    h = mixCombine(h, p.dram.rowBytes);
    h = mixCombine(h, p.dram.tRp);
    h = mixCombine(h, p.dram.tRcd);
    h = mixCombine(h, p.dram.tCas);
    h = mixCombine(h, p.dram.burstCycles);
    h = mixCombine(h, p.dram.windowDepth);
    h = mixCombine(h, p.dram.closedPage);
    return h;
}

std::uint64_t
hashCoreParams(std::uint64_t h, const core::CoreParams &p)
{
    h = hashStr(h, p.name);
    h = mixCombine(h, p.numClusters);
    h = mixCombine(h, p.fetchWidth);
    h = mixCombine(h, p.commitWidth);
    h = mixCombine(h, p.issuePerCluster);
    h = mixCombine(h, p.lsusPerCluster);
    h = mixCombine(h, p.fpusPerCluster);
    h = mixCombine(h, p.alusPerCluster);
    h = mixCombine(h, p.clusterWindow);
    h = mixCombine(h, p.lsqSize);
    h = mixCombine(h, p.fetchQueue);
    h = mixCombine(h, p.agenWidth);
    h = mixCombine(h, p.numPhysRegs);
    h = mixCombine(h, static_cast<std::uint64_t>(p.mode));
    h = mixCombine(h, static_cast<std::uint64_t>(p.policy));
    h = mixCombine(h, static_cast<std::uint64_t>(p.renameImpl));
    h = mixCombine(h, static_cast<std::uint64_t>(p.ffScope));
    h = mixCombine(h, p.frontEndDepth);
    h = mixCombine(h, p.regReadStages);
    h = mixCombine(h, p.recycleDelay);
    h = mixCombine(h, p.writebackPerCluster);
    h = mixCombine(h, p.commutativeFus);
    h = mixCombine(h, p.sharedComplexUnit);
    h = mixCombine(h, p.verifyDataflow);
    h = mixCombine(h, static_cast<std::uint64_t>(p.deadlockPolicy));
    h = mixCombine(h, p.fetchBreakOnTaken);
    h = mixCombine(h, p.seed);
    return h;
}

} // namespace

std::uint64_t
warmupKeyHash(const workload::BenchmarkProfile &profile,
              const SimConfig &config)
{
    std::uint64_t h = hashStr(mix64(0x77617275), "wsrs-warmup-key-v1");
    h = hashProfile(h, profile);
    h = mixCombine(h, config.seed);
    h = mixCombine(h, config.warmupUops);
    h = hashMemParams(h, config.mem);
    h = mixCombine(h, static_cast<std::uint64_t>(config.predictor));
    return h;
}

std::uint64_t
fullCheckpointMetaHash(const workload::BenchmarkProfile &profile,
                       const SimConfig &config)
{
    std::uint64_t h = warmupKeyHash(profile, config);
    h = hashStr(h, "full-sim");
    return hashCoreParams(h, config.core);
}

std::string
buildWarmupSnapshot(const workload::BenchmarkProfile &profile,
                    const SimConfig &config)
{
    workload::TraceGenerator gen(profile, config.seed);
    StatGroup group("warmup");
    memory::MemoryHierarchy mem(config.mem, group);
    const std::unique_ptr<bpred::BranchPredictor> predictor =
        makePredictor(config.predictor);

    // Functional warm-up: no core timing exists here, so memory accesses
    // are stamped with the micro-op index — a deterministic, monotonic
    // clock that spaces L2 port occupancy the way a committing core would
    // (one-ish micro-op per cycle). Branches train the predictor with the
    // same lookup-then-update discipline the front end uses.
    for (std::uint64_t i = 0; i < config.warmupUops; ++i) {
        const isa::MicroOp op = gen.next();
        if (op.isBranch()) {
            (void)predictor->lookup(op.pc);
            predictor->update(op.pc, op.taken);
        } else if (op.isLoad() || op.isStore()) {
            mem.access(op.effAddr, op.isStore(), i);
        }
    }

    // The warmed state worth carrying across machines is the tag,
    // replacement and predictor state; the warming pass's own port/miss
    // timing would land in the restored core's future (its clock restarts
    // at zero) and stall early refills behind a phantom busy port.
    mem.rebaseTiming();

    std::ostringstream os(std::ios::binary);
    ckpt::CheckpointWriter cw(os, "<warmup-blob>", ckpt::kKindWarmup,
                              warmupKeyHash(profile, config));
    {
        ckpt::Writer w;
        w.str(profile.name);
        w.u64(config.warmupUops);
        cw.section("meta", w);
    }
    ckpt::section(cw, "memory", mem);
    ckpt::section(cw, "bpred", *predictor);
    cw.finish();
    return os.str();
}

void
restoreWarmupSnapshot(const std::string &blob, const std::string &origin,
                      const workload::BenchmarkProfile &profile,
                      const SimConfig &config, memory::MemoryHierarchy &mem,
                      bpred::BranchPredictor &predictor)
{
    std::istringstream is(blob, std::ios::binary);
    ckpt::CheckpointReader cr(is, origin);
    cr.expect(ckpt::kKindWarmup, warmupKeyHash(profile, config));
    ckpt::section(cr, "memory", mem);
    ckpt::section(cr, "bpred", predictor);
}

} // namespace wsrs::sim
