/**
 * @file
 * Analytic IPC / area / energy estimator of the design-space explorer.
 *
 * The estimator maps a machine description (core::CoreParams +
 * memory::HierarchyParams) and a workload signature (derived from a
 * workload::BenchmarkProfile) to a sustained-IPC estimate in under a
 * microsecond, so the full configuration space — millions of points — can
 * be swept analytically and only the Pareto frontier handed to the
 * cycle-accurate simulator.
 *
 * The estimate is evaluated in three pure pieces: coreTerms() (everything
 * that reads only the core and the L1 hit latency), memTerms() (everything
 * that reads only the memory hierarchy) and combine() (the MLP clamp and
 * the fixed point, which need both). estimateIpc() is exactly
 * combine(coreTerms(), memTerms()); the explorer's sweep calls the pieces
 * directly so points that share a side share its terms.
 *
 * The performance model is a CPI-components decomposition around an
 * M/M/m-style queuing core (after Carroll & Lin, arXiv:1807.08586):
 *
 *  - a *structural* throughput bound from the narrowest pipeline resource
 *    (fetch/commit width, per-cluster issue slots, FU-class supply vs. the
 *    workload's demand mix);
 *  - a *dependence* bound from the profile's producer-distance and
 *    chain-depth knobs, stretched by the expected cross-cluster bypass
 *    penalty of the machine's register-file mode / allocation policy;
 *  - a *window* bound by Little's law: total in-flight capacity over the
 *    mean residence time, where residence includes the per-cluster issue
 *    queue wait (Sakasegawa's M/M/m approximation, m = issue slots per
 *    cluster) and the expected memory-miss residence — solved by a short
 *    damped fixed point because the queue wait depends on the achieved
 *    throughput;
 *  - additive CPI penalties for branch mispredictions (misprediction rate
 *    estimated from the profile's branch-site statistics, penalty from the
 *    machine's pipeline depths), exposed memory stalls (cache miss rates
 *    estimated from the profile's footprint/locality knobs against the
 *    cache geometry, overlapped by an MLP factor bounded by the MSHR count
 *    and the memory backend's latency profile), and subset-pressure stalls
 *    on write-specialized machines (physical-register utilization per
 *    subset, inflated by the policy- and workload-dependent unbalancing
 *    the paper's Figure 5 measures).
 *
 * Area and energy reuse the calibrated Section-4.2 register-file model
 * (src/rfmodel) plus the Section-4.3 wake-up inventory (src/cxmodel):
 * area is the register-file area relative to the Table-1 noWS-2 reference
 * with a weighted share for the window comparators, energy is the
 * register-file nJ/cycle plus a per-comparator tag-broadcast term.
 *
 * Every constant lives in ModelConstants; the defaults were calibrated
 * against the repo's 72 measured Figure-4 jobs (12 benchmarks x 6
 * machines) and are gated by a Spearman rank-correlation ctest
 * (tests/explore/test_calibration_gate.cc, docs/explorer.md).
 */
#pragma once

#include "src/core/params.h"
#include "src/memory/hierarchy.h"
#include "src/workload/profile.h"

namespace wsrs::explore {

/** Machine-independent characterization of one benchmark profile. */
struct WorkloadSignature
{
    std::string name;

    /// @name Micro-op mix (per generated micro-op, indexed-store split
    /// applied; fAlu absorbs the remainder and the agen micro-ops).
    /// @{
    double fLoad = 0, fStore = 0, fBranch = 0;
    double fIntMul = 0, fIntDiv = 0;
    double fFpAdd = 0, fFpMul = 0, fFpDiv = 0, fFpSqrt = 0;
    double fAlu = 0;
    double fDest = 0;       ///< Micro-ops producing a register result.
    double meanExecLat = 0; ///< Mix-weighted FU latency (L1-hit loads).
    /// @}

    /// @name Dependence structure.
    /// @{
    double meanDepDist = 0;   ///< Mean producer distance, 1/depGeomP.
    double readyFrac = 0;     ///< Sources reading always-ready registers.
    double maxChainDepth = 0; ///< Generator's dataflow-depth bound.
    double crossBlockFrac = 0;
    /// @}

    double mispredictRate = 0; ///< Estimated per-branch mispredict rate.

    /// @name Memory behaviour.
    /// @{
    double footprintBytes = 0;
    double strideFrac = 0, streamPeekFrac = 0, randomHotFrac = 0;
    double pointerChaseFrac = 0, addrInvariantFrac = 0;
    double invariantFrac = 0;
    /// @}
};

/** Every tunable of the analytic model (see docs/explorer.md). */
struct ModelConstants
{
    // Dependence ILP: ilpDep = (ilpBase + ilpDist * meanDepDist)
    //   * (1 + ilpReady * readyFrac) * (latRef / chainLat)^latExp.
    double ilpBase = 0.33;
    double ilpDist = 0.66;
    double ilpReady = 1.45;
    double latRef = 1.55;
    double latExp = 0.75;
    /// Serialization drag of cross-basic-block dependences.
    double crossBlockDrag = 0.32;

    // Cross-cluster bypass: +1 cycle stretched into the chain latency.
    double bypassWeight = 0.62;

    // Branches: rate = mrFloor + mrBias * biased * (1 - takenProb)
    //   + mrPattern * (1 - biased) * patternNoise; penalty adds refill.
    double mrFloor = 0.0016;
    double mrBias = 0.70;
    double mrPattern = 1.45;
    double refillPenalty = 3.1;

    // Cache-geometry miss estimation.
    double strideBytes = 8.0;     ///< Mean advance of a strided access.
    double hotBytes = 24e3;       ///< Hot random-subset footprint.
    double l1StrideWeight = 0.94;
    double capExp = 0.82;         ///< Capacity-miss curve shape.

    // Memory-level parallelism and exposure.
    double mlpMax = 5.4;
    double mlpStride = 0.92;
    double mlpRandom = 0.34;
    double l1Expose = 0.42;       ///< Exposed share of an L1-miss stall.
    double l2Expose = 0.96;       ///< Exposed share of an L2-miss stall.
    double prefetchGain = 0.35;   ///< Stream-miss reduction per depth.

    // DRAM backend latency profile (model == Dram).
    double dramBankSpread = 0.55; ///< Row-hit loss from bank conflicts.

    // Issue-queue / window residence (Little's law fixed point).
    double resBase = 5.3;         ///< Rename-to-issue + commit residence.
    double queueWeight = 1.9;     ///< Weight of the M/M/m queue wait.

    // Register subset pressure.
    double occFrac = 0.27;        ///< Window occupancy at the knee.
    double regWeight = 2.6;
    double regExp = 5.0;
    double imbInvariant = 0.78;   ///< Unbalancing from invariant operands.
    double imbWsrs = 0.14;        ///< Extra pressure of paired subsets.
    double imbRandomMonadic = 0.07; ///< RM's weaker placement freedom.
    double occLatExp = 0.5;       ///< Residence growth with chain latency.

    // Cluster-balance throughput loss: read specialization constrains a
    // consumer to its operand subset's cluster pair, so WSRS dispatch
    // cannot freely rebalance cluster load the way an unconstrained
    // allocator can (the measured Figure-4 WSRS machines trail WSRR by
    // 5-10% at equal frequency). RM loses additional freedom because it
    // cannot swap commutative operands.
    double balWsrs = 0.10;
    double balWsrsRm = 0.06;

    // Area / energy objectives.
    double areaCmpShare = 0.30;   ///< Comparator share of the area metric.
    double energyCmpNJ = 0.9e-4;  ///< nJ/cycle per wake-up comparator.
};

/** IPC estimate with its CPI decomposition (diagnostics + report). */
struct IpcEstimate
{
    double ipc = 0;
    double cpiCore = 0;    ///< Structural/dependence/window component.
    double cpiBranch = 0;
    double cpiMem = 0;
    double cpiReg = 0;     ///< Subset-pressure stalls.
    double mispredictRate = 0;
    double l1MissPerLoad = 0;
    double l2MissPerL1 = 0;
    double mlp = 0;
};

/**
 * The terms of one estimate that read only the core parameters (and the
 * L1 hit latency, which stretches the dependent-chain latency). Every
 * member is a double, so two sets of terms compare bitwise with memcmp.
 */
struct CoreTerms
{
    double clusters = 0;        ///< C.
    double issuePerCluster = 0; ///< m >= 1 of the M/M/m queue.
    double windowTotal = 0;
    double widthStruct = 0;     ///< Structural throughput bound.
    double chainLat = 0;        ///< Dependent-chain latency with bypass.
    double ilpDep = 0;          ///< Dependence-limited ILP.
    double cpiBranch = 0;
    double cpiReg = 0;
    double balanceLoss = 0;     ///< WSRS cluster-balance throughput loss.
    double mispredictRate = 0;
};

/** The terms of one estimate that read only the memory hierarchy.
 *  All doubles, like CoreTerms. */
struct MemTerms
{
    double l1Miss = 0;        ///< L1 misses per load.
    double l2PerL1 = 0;       ///< L2 misses per L1 miss.
    double l2Pen = 0;         ///< L2-miss service latency, cycles.
    double overlap = 0;       ///< Workload's miss-overlap potential.
    double mlpCap = 0;        ///< MSHR-bounded MLP ceiling.
    double missPerUop = 0;    ///< L1 misses per micro-op.
    double l1MissPenalty = 0;
};

/** Workload-independent hardware cost of one machine. */
struct HardwareEstimate
{
    double areaRel = 0;       ///< Composite area vs. the noWS-2 reference.
    double rfAreaRel = 0;     ///< Register-file share alone (Table 1).
    double energyNJ = 0;      ///< Register file + tag broadcast, nJ/cycle.
    double accessTimeNs = 0;
    unsigned comparators = 0; ///< Wake-up comparators machine-wide.
    unsigned bypassSources = 0;
};

/** The estimator. Immutable and thread-safe after construction. */
class AnalyticModel
{
  public:
    AnalyticModel() : k_{} {}
    explicit AnalyticModel(const ModelConstants &k) : k_(k) {}

    /** Reduce a profile to the knobs the estimator consumes. */
    WorkloadSignature
    characterize(const workload::BenchmarkProfile &profile) const;

    /** Sustained-IPC estimate of one workload on one machine:
     *  combine(coreTerms(core, mem.l1Latency, sig), memTerms(mem, sig)). */
    IpcEstimate estimateIpc(const core::CoreParams &core,
                            const memory::HierarchyParams &mem,
                            const WorkloadSignature &sig) const;

    /** Core-side terms of one workload on one core. */
    CoreTerms coreTerms(const core::CoreParams &core, unsigned l1Latency,
                        const WorkloadSignature &sig) const;

    /** Memory-side terms of one workload on one memory hierarchy. */
    MemTerms memTerms(const memory::HierarchyParams &mem,
                      const WorkloadSignature &sig) const;

    /** The MLP clamp and the M/M/m window fixed point over both sides. */
    IpcEstimate combine(const CoreTerms &core, const MemTerms &mem) const;

    /** Area/energy cost of one machine (workload-independent). */
    HardwareEstimate estimateHardware(const core::CoreParams &core) const;

    const ModelConstants &constants() const { return k_; }

  private:
    ModelConstants k_;
};

/**
 * Sakasegawa's M/M/m mean queue-wait approximation in units of the mean
 * service time: wq = rho^sqrt(2(m+1)) / (m (1 - rho)). Exact for m = 1
 * (the M/M/1 closed form rho^2 / (1 - rho)); within a few percent of the
 * Erlang-C value for the small m of an issue cluster. @p rho must be in
 * [0, 1).
 */
double mmQueueWait(double rho, unsigned m);

/** Spearman rank correlation of two equally-sized samples; ties receive
 *  their average rank. Returns 0 for fewer than two points. */
double spearman(const std::vector<double> &a, const std::vector<double> &b);

} // namespace wsrs::explore
