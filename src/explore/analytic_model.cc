#include "analytic_model.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/common/log.h"
#include "src/core/cluster_alloc.h"
#include "src/cxmodel/wakeup_model.h"
#include "src/isa/micro_op.h"
#include "src/isa/op_class.h"
#include "src/rfmodel/regfile_model.h"

namespace wsrs::explore {

namespace {

/**
 * Capacity miss probability of a reference stream with @p bytes of
 * footprint against a cache of @p cache_bytes: zero when resident, rising
 * toward one on a power-law curve (the usual sqrt-ish miss-rate knee).
 */
double
capacityMiss(double cache_bytes, double bytes, double exp)
{
    if (bytes <= cache_bytes || bytes <= 0)
        return 0.0;
    return 1.0 - std::pow(cache_bytes / bytes, exp);
}

/** Expected cross-cluster operand probability of one machine. */
double
crossClusterProb(const core::CoreParams &c)
{
    if (c.numClusters <= 1 ||
        c.ffScope == core::FastForwardScope::Complete)
        return 0.0;
    // Read specialization confines each *operand* to a cluster pair, but
    // a dyadic consumer's two operands need not share a pair, so WSRS
    // producer locality is no better than the unconstrained machines';
    // RC's commutative swap buys back a little placement freedom.
    double p = double(c.numClusters - 1) / c.numClusters;
    if (c.mode == core::RegFileMode::Wsrs &&
        c.policy == core::AllocPolicy::RandomCommutative)
        p *= 0.92;
    if (c.policy == core::AllocPolicy::DependenceAware)
        p *= 0.55;  // follows producers when window room allows
    if (c.ffScope == core::FastForwardScope::AdjacentPair)
        p *= 0.5;   // cross-cluster within the pair stays free
    return p;
}

} // namespace

WorkloadSignature
AnalyticModel::characterize(const workload::BenchmarkProfile &p) const
{
    WorkloadSignature s;
    s.name = p.name;

    // Indexed stores expand into an address-generation micro-op plus the
    // store itself (paper 5.1.1); renormalize the mix to micro-ops.
    const double agen = p.fracStore * p.fracIndexedStore;
    const double norm = 1.0 + agen;
    s.fLoad = p.fracLoad / norm;
    s.fStore = p.fracStore / norm;
    s.fBranch = p.fracBranch / norm;
    s.fIntMul = p.fracIntMul / norm;
    s.fIntDiv = p.fracIntDiv / norm;
    s.fFpAdd = p.fracFpAdd / norm;
    s.fFpMul = p.fracFpMul / norm;
    s.fFpDiv = p.fracFpDiv / norm;
    s.fFpSqrt = p.fracFpSqrt / norm;
    s.fAlu = 1.0 - (s.fLoad + s.fStore + s.fBranch + s.fIntMul +
                    s.fIntDiv + s.fFpAdd + s.fFpMul + s.fFpDiv + s.fFpSqrt);
    s.fDest = 1.0 - s.fStore - s.fBranch;

    using isa::OpClass;
    using isa::opLatency;
    s.meanExecLat =
        s.fLoad * opLatency(OpClass::Load) +
        s.fStore * opLatency(OpClass::Store) +
        s.fBranch * opLatency(OpClass::Branch) +
        s.fIntMul * opLatency(OpClass::IntMul) +
        s.fIntDiv * opLatency(OpClass::IntDiv) +
        s.fFpAdd * opLatency(OpClass::FpAdd) +
        s.fFpMul * opLatency(OpClass::FpMul) +
        s.fFpDiv * opLatency(OpClass::FpDiv) +
        s.fFpSqrt * opLatency(OpClass::FpSqrt) +
        s.fAlu * opLatency(OpClass::IntAlu);

    s.meanDepDist = 1.0 / std::max(p.depGeomP, 1e-3);
    // Sources that read always-ready registers root fresh chains: loop
    // invariants, noadic micro-ops, and values fed straight from loads.
    s.readyFrac = p.invariantFrac + 0.5 * p.fracNoadic +
                  0.35 * p.loadValueFrac;
    s.maxChainDepth = p.maxChainDepth;
    s.crossBlockFrac = p.depCrossBlockFrac;

    // The 2Bc-gskew predictor learns a site's bias and a patterned site's
    // history; what is left are the bias exceptions and the noise floor.
    s.mispredictRate =
        k_.mrFloor + k_.mrBias * p.branchBiasedFrac * (1 - p.biasedTakenProb) +
        k_.mrPattern * (1 - p.branchBiasedFrac) * p.patternNoise;

    s.footprintBytes = double(p.workingSetBytes);
    s.strideFrac = p.strideFrac;
    s.streamPeekFrac = p.streamPeekFrac;
    s.randomHotFrac = p.randomHotFrac;
    s.pointerChaseFrac = p.pointerChaseFrac;
    s.addrInvariantFrac = p.addrInvariantFrac;
    s.invariantFrac = p.invariantFrac;
    return s;
}

IpcEstimate
AnalyticModel::estimateIpc(const core::CoreParams &core,
                           const memory::HierarchyParams &mem,
                           const WorkloadSignature &s) const
{
    return combine(coreTerms(core, mem.l1Latency, s), memTerms(mem, s));
}

CoreTerms
AnalyticModel::coreTerms(const core::CoreParams &core, unsigned l1Latency,
                         const WorkloadSignature &s) const
{
    CoreTerms t;
    const double C = core.numClusters;
    const double issueTot = C * core.issuePerCluster;
    const double windowTotal = C * core.clusterWindow;
    t.clusters = C;
    t.issuePerCluster = std::max(1u, core.issuePerCluster);
    t.windowTotal = windowTotal;
    t.mispredictRate = s.mispredictRate;

    // ---- structural throughput bound --------------------------------
    const double aluDemand =
        s.fAlu + s.fBranch + s.fIntMul + s.fIntDiv;
    const double memDemand = s.fLoad + s.fStore;
    const double fpDemand = s.fFpAdd + s.fFpMul + s.fFpDiv + s.fFpSqrt;
    double widthStruct = std::min(
        {double(core.fetchWidth), double(core.commitWidth), issueTot});
    if (aluDemand > 0)
        widthStruct =
            std::min(widthStruct, C * core.alusPerCluster / aluDemand);
    if (memDemand > 0)
        widthStruct = std::min(
            {widthStruct, C * core.lsusPerCluster / memDemand,
             double(core.agenWidth) / memDemand});
    if (fpDemand > 0)
        widthStruct =
            std::min(widthStruct, C * core.fpusPerCluster / fpDemand);
    t.widthStruct = widthStruct;

    // ---- dependence-limited ILP -------------------------------------
    const double meanLat =
        s.meanExecLat + s.fLoad * (double(l1Latency) -
                                   double(isa::opLatency(isa::OpClass::Load)));
    const double pCross = crossClusterProb(core);
    const double chainLat = meanLat + k_.bypassWeight * pCross;
    t.chainLat = chainLat;
    t.ilpDep =
        (k_.ilpBase + k_.ilpDist * s.meanDepDist) *
        (1.0 + k_.ilpReady * s.readyFrac) *
        std::pow(k_.latRef / chainLat, k_.latExp) /
        (1.0 + k_.crossBlockDrag * s.crossBlockFrac);

    // ---- branch CPI --------------------------------------------------
    const double branchPenalty =
        double(core.minMispredictPenalty()) + k_.refillPenalty;
    t.cpiBranch = s.fBranch * s.mispredictRate * branchPenalty;

    // ---- register subset pressure -----------------------------------
    const unsigned subsets =
        core.mode == core::RegFileMode::Conventional ? 1
        : core.mode == core::RegFileMode::WriteSpecPools
            ? core::kNumFuPools
            : core.numClusters;
    const double headroom = std::max(
        1.0, double(core.numPhysRegs) - double(isa::kNumLogRegs));
    double imbalance = 1.0;
    if (subsets > 1) {
        imbalance += k_.imbInvariant * s.invariantFrac;
        if (core.mode == core::RegFileMode::Wsrs)
            imbalance += k_.imbWsrs;
        if (core.policy == core::AllocPolicy::RandomMonadic)
            imbalance += k_.imbRandomMonadic;
    }
    // In-flight destination values hold their registers for the chain
    // latency, so long-latency mixes (FP codes) occupy proportionally
    // more of the pool at the same window occupancy.
    const double demand = s.fDest * windowTotal * k_.occFrac * imbalance *
                          std::pow(chainLat / k_.latRef, k_.occLatExp);
    const double u = std::min(demand / headroom, 0.98);
    t.cpiReg = k_.regWeight * std::pow(u, k_.regExp) / (1.0 - u);

    // Pair-constrained dispatch: WSRS cannot rebalance cluster load.
    if (core.mode == core::RegFileMode::Wsrs && core.numClusters > 1) {
        t.balanceLoss = k_.balWsrs;
        if (core.policy == core::AllocPolicy::RandomMonadic)
            t.balanceLoss += k_.balWsrsRm;
    }
    return t;
}

MemTerms
AnalyticModel::memTerms(const memory::HierarchyParams &mem,
                        const WorkloadSignature &s) const
{
    MemTerms t;

    // ---- cache miss rates from geometry -----------------------------
    // Half the footprint backs the strided streams, half the random
    // region (workload::TraceGenerator's layout).
    const double half = 0.5 * s.footprintBytes;
    const auto missPerLoad = [&](double cache_bytes,
                                 unsigned line_bytes,
                                 double stream_scale) {
        const double streamAdvance =
            s.strideFrac * (1.0 - s.streamPeekFrac);
        const double streamMiss = streamAdvance *
                                  (k_.strideBytes / line_bytes) *
                                  k_.l1StrideWeight * stream_scale *
                                  capacityMiss(cache_bytes, half, k_.capExp);
        const double rand = 1.0 - s.strideFrac;
        const double randMiss =
            rand * (s.randomHotFrac *
                        capacityMiss(cache_bytes, k_.hotBytes, k_.capExp) +
                    (1.0 - s.randomHotFrac) *
                        capacityMiss(cache_bytes, half, k_.capExp));
        return std::min(1.0, streamMiss + randMiss);
    };
    const double l1Miss =
        missPerLoad(double(mem.l1.sizeBytes), mem.l1.lineBytes, 1.0);
    // The stride prefetcher hides stream misses at the L2 level.
    const double l2StreamScale =
        1.0 / (1.0 + k_.prefetchGain * mem.prefetchDepth);
    const double l2MissPerAccess =
        missPerLoad(double(mem.l2.sizeBytes), mem.l2.lineBytes,
                    l2StreamScale);
    t.l1Miss = l1Miss;
    t.l2PerL1 = l1Miss > 0 ? std::min(1.0, l2MissPerAccess / l1Miss) : 0.0;

    // ---- L2-miss service latency (memory backend profile) -----------
    const double refill =
        double(mem.l2.lineBytes) / std::max(1u, mem.l2BytesPerCycle);
    double l2Pen;
    if (mem.model == memory::MemModel::Dram) {
        const auto &d = mem.dram;
        const double burst = double(d.burstCycles);
        if (d.closedPage) {
            l2Pen = double(d.tRcd + d.tCas) + burst;
        } else {
            const double rowHit =
                s.strideFrac * (1.0 - k_.dramBankSpread);
            const double openMiss =
                0.5 * double(d.tRcd + d.tCas) +
                0.5 * double(d.tRp + d.tRcd + d.tCas);
            l2Pen = rowHit * (double(d.tCas) + burst) +
                    (1.0 - rowHit) * (openMiss + burst);
        }
        l2Pen += refill;
    } else {
        l2Pen = double(mem.l2MissPenalty) + refill;
    }
    t.l2Pen = l2Pen;

    // ---- memory-level parallelism -----------------------------------
    t.overlap =
        s.addrInvariantFrac * (1.0 - s.pointerChaseFrac) *
        (k_.mlpStride * s.strideFrac +
         k_.mlpRandom * (1.0 - s.strideFrac));
    t.mlpCap = mem.mshrs == 0 ? k_.mlpMax
                              : std::min(k_.mlpMax, double(mem.mshrs));
    t.missPerUop = s.fLoad * l1Miss;
    t.l1MissPenalty = double(mem.l1MissPenalty);
    return t;
}

IpcEstimate
AnalyticModel::combine(const CoreTerms &c, const MemTerms &mt) const
{
    const double mlp =
        std::clamp(1.0 + (mt.mlpCap - 1.0) * mt.overlap, 1.0,
                   1.0 + c.windowTotal * mt.missPerUop);
    const double cpiMem = mt.missPerUop *
                          (mt.l1MissPenalty * k_.l1Expose +
                           mt.l2PerL1 * mt.l2Pen * k_.l2Expose) /
                          mlp;

    // ---- Little's-law window bound with M/M/m queue wait ------------
    // The queue wait depends on the achieved throughput, so solve by a
    // short damped fixed point (monotone, converges in a handful of
    // rounds).
    const double memResidence =
        mt.missPerUop * (mt.l1MissPenalty + mt.l2PerL1 * mt.l2Pen) / mlp;
    const double C = c.clusters;
    const unsigned m = static_cast<unsigned>(c.issuePerCluster);
    double x = std::min(c.widthStruct, c.ilpDep);
    double xCore = x;
    for (int iter = 0; iter < 8; ++iter) {
        const double rho = std::min(x / C / m, 0.97);
        const double wq = k_.queueWeight * mmQueueWait(rho, m);
        const double tRes = k_.resBase + c.chainLat + wq + memResidence;
        const double ipcWindow = c.windowTotal / tRes;
        xCore = std::min({c.widthStruct, c.ilpDep, ipcWindow}) *
                (1.0 - c.balanceLoss);
        const double cpi = 1.0 / xCore + c.cpiBranch + cpiMem + c.cpiReg;
        x = 0.5 * (x + 1.0 / cpi);
    }

    IpcEstimate e;
    e.cpiCore = 1.0 / xCore;
    e.cpiBranch = c.cpiBranch;
    e.cpiMem = cpiMem;
    e.cpiReg = c.cpiReg;
    e.ipc = 1.0 / (e.cpiCore + c.cpiBranch + cpiMem + c.cpiReg);
    e.mispredictRate = c.mispredictRate;
    e.l1MissPerLoad = mt.l1Miss;
    e.l2MissPerL1 = mt.l2PerL1;
    e.mlp = mlp;
    return e;
}

HardwareEstimate
AnalyticModel::estimateHardware(const core::CoreParams &core) const
{
    const rfmodel::RegFileModel model;
    const rfmodel::RegFileOrg org = rfmodel::regFileOrgFromParams(core);
    const rfmodel::RegFileOrg ref = rfmodel::makeNoWs2Cluster();
    const cxmodel::SchedulerOrg sched =
        cxmodel::schedulerOrgFromParams(core);
    const cxmodel::SchedulerOrg refSched = cxmodel::makeConventional4Way();

    HardwareEstimate h;
    h.rfAreaRel = model.totalArea(org) / model.totalArea(ref);
    const double cmpRel = double(cxmodel::totalComparators(sched)) /
                          double(cxmodel::totalComparators(refSched));
    h.areaRel = h.rfAreaRel * (1.0 - k_.areaCmpShare) +
                cmpRel * k_.areaCmpShare;
    h.energyNJ = model.energyNJPerCycle(org) +
                 k_.energyCmpNJ * cxmodel::totalComparators(sched);
    h.accessTimeNs = model.accessTimeNs(org);
    h.comparators = cxmodel::totalComparators(sched);
    h.bypassSources = cxmodel::bypassSources(sched);
    return h;
}

double
mmQueueWait(double rho, unsigned m)
{
    WSRS_ASSERT(rho >= 0.0 && rho < 1.0 && m >= 1);
    return std::pow(rho, std::sqrt(2.0 * (m + 1))) / (m * (1.0 - rho));
}

double
spearman(const std::vector<double> &a, const std::vector<double> &b)
{
    WSRS_ASSERT(a.size() == b.size());
    const std::size_t n = a.size();
    if (n < 2)
        return 0.0;

    const auto ranks = [n](const std::vector<double> &v) {
        std::vector<std::size_t> order(n);
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::sort(order.begin(), order.end(),
                  [&](std::size_t i, std::size_t j) { return v[i] < v[j]; });
        std::vector<double> r(n);
        std::size_t i = 0;
        while (i < n) {
            std::size_t j = i;
            while (j + 1 < n && v[order[j + 1]] == v[order[i]])
                ++j;
            const double avg = 0.5 * (double(i) + double(j)) + 1.0;
            for (std::size_t t = i; t <= j; ++t)
                r[order[t]] = avg;
            i = j + 1;
        }
        return r;
    };
    const std::vector<double> ra = ranks(a);
    const std::vector<double> rb = ranks(b);

    double meanA = 0, meanB = 0;
    for (std::size_t i = 0; i < n; ++i) {
        meanA += ra[i];
        meanB += rb[i];
    }
    meanA /= double(n);
    meanB /= double(n);
    double cov = 0, varA = 0, varB = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double da = ra[i] - meanA;
        const double db = rb[i] - meanB;
        cov += da * db;
        varA += da * da;
        varB += db * db;
    }
    if (varA <= 0 || varB <= 0)
        return 0.0;
    return cov / std::sqrt(varA * varB);
}

} // namespace wsrs::explore
