/**
 * @file
 * Static configuration of the simulated execution core.
 */
#pragma once

#include <cstdint>
#include <string>

#include "src/common/types.h"

namespace wsrs::core {

/** How physical-register read/write connectivity is constrained. */
enum class RegFileMode : std::uint8_t {
    Conventional,   ///< Any unit reads/writes any register (noWS).
    WriteSpec,      ///< Write specialization per cluster (Figure 2a).
    WriteSpecPools, ///< Write specialization per FU pool (Figure 2b):
                    ///< load/store units, simple ALUs, complex ALUs and
                    ///< branch units each write their own register subset.
    Wsrs,           ///< Write + read specialization (WSRS).
};

/** Policy allocating instructions to clusters. */
enum class AllocPolicy : std::uint8_t {
    RoundRobin,        ///< Conventional/WS machines (paper baseline).
    RandomMonadic,     ///< WSRS "RM": random left/right for monadic ops.
    RandomCommutative, ///< WSRS "RC": commutative clusters, random form.
    DependenceAware,   ///< Extension: paper section 5.4 future work.
};

/** How a write-specialized machine handles subset-exhaustion deadlock
 *  (paper section 2.3). */
enum class DeadlockPolicy : std::uint8_t {
    MoveInjection,  ///< Workaround (b): raise, inject remapping moves.
    Avoidance,      ///< Workaround (a): allocation steers away from
                    ///< subsets nearly full of architectural registers.
};

/** The paper's two free-register-assignment implementations (2.2). */
enum class RenameImpl : std::uint8_t {
    OverPickRecycle, ///< Impl-1: pick N per subset, recycle the unused.
    ExactCount,      ///< Impl-2: exact per-subset counts, longer pipeline.
};

/** Which producer-consumer pairs can forward results back to back. */
enum class FastForwardScope : std::uint8_t {
    IntraCluster, ///< Baseline: free in-cluster, +1 cycle across (4.3.1).
    AdjacentPair, ///< Free within a cluster pair, +1 cycle across pairs.
    Complete,     ///< Free everywhere (upper bound).
};

/** Full machine description. */
struct CoreParams
{
    std::string name = "core";

    unsigned numClusters = 4;
    unsigned fetchWidth = 8;       ///< Micro-ops entering the core per cycle.
    unsigned commitWidth = 8;
    unsigned issuePerCluster = 2;
    unsigned lsusPerCluster = 1;   ///< Load/store units per cluster.
    unsigned fpusPerCluster = 1;   ///< Floating-point units per cluster.
    unsigned alusPerCluster = 2;   ///< Integer ALUs per cluster.
    unsigned clusterWindow = 56;   ///< In-flight micro-ops per cluster.
    unsigned lsqSize = 64;         ///< Load/store queue entries.
    unsigned fetchQueue = 64;      ///< Front-end buffer capacity.
    unsigned agenWidth = 8;        ///< In-order address computations/cycle.

    unsigned numPhysRegs = 256;    ///< Total physical registers.
    RegFileMode mode = RegFileMode::Conventional;
    AllocPolicy policy = AllocPolicy::RoundRobin;
    RenameImpl renameImpl = RenameImpl::ExactCount;
    FastForwardScope ffScope = FastForwardScope::IntraCluster;

    /**
     * Fetch-to-rename depth. The minimum branch-misprediction penalty is
     * frontEndDepth + 1 (earliest issue) + regReadStages + 1 (execute);
     * the presets encode the paper's 17/16/16/18-cycle penalties.
     */
    unsigned frontEndDepth = 11;
    unsigned regReadStages = 4;    ///< Issue-to-execute register read pipe.
    unsigned recycleDelay = 4;     ///< Impl-1 free-register recycle latency.
    unsigned writebackPerCluster = 3; ///< Results per cluster per cycle.

    bool commutativeFus = false;   ///< FUs execute both operand orders (RC).
    bool sharedComplexUnit = false;///< Mul/div shared by adjacent clusters.
    /** Commit-time oracle value checking. Also the one switch for the
     *  dataflow values (register results, store data, the committed
     *  memory image): without it the core computes and keeps none. */
    bool verifyDataflow = false;
    DeadlockPolicy deadlockPolicy = DeadlockPolicy::MoveInjection;
    /** Realistic front end: stop fetching after a taken branch each cycle
     *  (the paper idealizes this away; ablation knob). */
    bool fetchBreakOnTaken = false;

    std::uint64_t seed = 1;        ///< Seed for stochastic policies.

    /** Derived: minimum branch misprediction penalty in cycles. */
    unsigned
    minMispredictPenalty() const
    {
        return frontEndDepth + 1 + regReadStages + 1;
    }
};

} // namespace wsrs::core
