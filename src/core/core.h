/**
 * @file
 * The cycle-level out-of-order clustered execution core.
 *
 * Pipeline model (paper section 5): an idealized front end sustains
 * fetchWidth micro-ops per cycle through a frontEndDepth-stage pipe into
 * rename; rename allocates clusters (policy) and physical registers (write
 * specialization); per-cluster 2-way schedulers issue oldest-first with
 * bypass-aware operand readiness (free fast-forwarding inside a cluster,
 * +1 cycle across clusters); loads/stores compute addresses in order with
 * exact conflict detection and store-to-load forwarding; commit retires
 * in order, frees previous mappings and (optionally) verifies every
 * destination value against the in-order oracle.
 *
 * Branch mispredictions are modeled trace-driven: fetch stalls at the
 * mispredicted branch and resumes when it resolves, giving the paper's
 * configured minimum penalties (CoreParams::minMispredictPenalty).
 *
 * In-flight micro-op state is kept structure-of-arrays (RobStore): the
 * fields the wake/issue/commit scans touch every cycle — scheduling state,
 * cluster, operand/destination physical tags, op class, ready/complete
 * cycles — are parallel arrays over a power-of-two ring, while everything
 * needed at most once per micro-op (the full decoded MicroOp, oracle
 * values, trace timestamps, the previous mapping) lives in a parallel cold
 * array. The issue loop thereby walks a few dense bytes per entry instead
 * of dragging whole 120-byte records through the cache.
 */
#pragma once

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "src/bpred/predictor.h"
#include "src/ckpt/snapshotter.h"
#include "src/obs/pipeline_stats.h"
#include "src/obs/stage_profiler.h"
#include "src/obs/trace_sink.h"
#include "src/core/cluster_alloc.h"
#include "src/core/lsq.h"
#include "src/core/params.h"
#include "src/core/phys_regfile.h"
#include "src/core/rename.h"
#include "src/isa/micro_op.h"
#include "src/memory/hierarchy.h"
#include "src/workload/memory_image.h"
#include "src/workload/oracle.h"
#include "src/workload/source.h"

namespace wsrs::core {

/** Scheduling state of an in-flight micro-op. */
enum class InstState : std::uint8_t { Waiting, Issued };

/** Aggregate results of a simulation phase. */
struct CoreStats
{
    std::uint64_t cycles = 0;
    std::uint64_t committed = 0;        ///< Trace micro-ops committed.
    std::uint64_t injectedMoves = 0;    ///< Deadlock-workaround moves.
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t loadForwards = 0;     ///< Loads served by the LSQ.
    std::uint64_t unbalancedGroups = 0; ///< Figure-5 metric numerator.
    std::uint64_t totalGroups = 0;      ///< Figure-5 metric denominator.
    std::uint64_t valueMismatches = 0;  ///< Dataflow verification failures.
    std::array<std::uint64_t, kMaxClusters> perCluster{};
    /** Cycles by number of micro-ops issued that cycle (0..16+). */
    std::array<std::uint64_t, 17> issueWidthHist{};

    /**
     * The one field list of the core's checkpoint and the sweep journal:
     * saves through a ckpt::Writer, loads through a ckpt::Reader.
     */
    template <typename Self, typename Io>
    static void
    transfer(Self &s, Io &io)
    {
        io.u64(s.cycles);
        io.u64(s.committed);
        io.u64(s.injectedMoves);
        io.u64(s.branches);
        io.u64(s.mispredicts);
        io.u64(s.loadForwards);
        io.u64(s.unbalancedGroups);
        io.u64(s.totalGroups);
        io.u64(s.valueMismatches);
        for (auto &v : s.perCluster)
            io.u64(v);
        for (auto &v : s.issueWidthHist)
            io.u64(v);
    }

    double
    meanIssueWidth() const
    {
        std::uint64_t issued = 0, cyc = 0;
        for (std::size_t w = 0; w < issueWidthHist.size(); ++w) {
            issued += w * issueWidthHist[w];
            cyc += issueWidthHist[w];
        }
        return cyc ? double(issued) / cyc : 0.0;
    }

    double ipc() const { return cycles ? double(committed) / cycles : 0.0; }
    double
    unbalancingDegree() const
    {
        return totalGroups ? 100.0 * double(unbalancedGroups) / totalGroups
                           : 0.0;
    }
    double
    mispredictRate() const
    {
        return branches ? double(mispredicts) / branches : 0.0;
    }
};

/** The simulated machine. */
class Core
{
  public:
    /**
     * @param params machine description (validated here).
     * @param gen micro-op source (generator or trace file); must outlive the core.
     * @param bp direction predictor; must outlive the core.
     * @param mem data-memory hierarchy; must outlive the core.
     */
    Core(const CoreParams &params, workload::MicroOpSource &gen,
         bpred::BranchPredictor &bp, memory::MemoryHierarchy &mem);

    /**
     * Run until @p num_uops more trace micro-ops have committed. Cycles
     * in which no state can change are credited in bulk, not ticked.
     * @throws wsrs::FatalError if forward progress stops (hard deadlock).
     */
    void run(std::uint64_t num_uops);

    /** Zero the measurement counters, keeping all machine state. */
    void resetStats();

    /** Physical-register accounting snapshot (conservation checking). */
    struct RegAccounting
    {
        unsigned free = 0;        ///< On free lists.
        unsigned recycling = 0;   ///< In the Impl-1 recycler.
        unsigned architectural = 0;  ///< Mapped by the map table.
        unsigned inFlight = 0;    ///< Previous mappings awaiting commit.
        unsigned total = 0;       ///< Register file size.
    };

    /**
     * Count where every physical register currently lives. The invariant
     * free + recycling + architectural + inFlight == total holds at any
     * cycle boundary (checked by tests).
     */
    RegAccounting regAccounting() const;

    const CoreStats &stats() const { return stats_; }
    const CoreParams &params() const { return params_; }
    const PhysRegFile &regFile() const { return prf_; }
    const Renamer &renamer() const { return renamer_; }
    Cycle now() const { return now_; }

    // ---- observability (src/obs) ----

    /**
     * Stream every committed micro-op's lifecycle record into @p sink
     * (nullptr detaches). Purely observational: never alters timing.
     */
    void attachTraceSink(obs::TraceSink *sink) { traceSink_ = sink; }

    /** Wrap each pipeline-stage call in wall-clock timing (nullptr off). */
    void attachStageProfiler(obs::StageProfiler *p) { profiler_ = p; }

    /** Record an occupancy/commit sample every @p period cycles. */
    void enableIntervalStats(Cycle period) { obs_.enableIntervals(period); }

    /** Per-stage stall-cause attribution and wake-up latency stats. */
    const obs::PipelineStats &pipeStats() const { return obs_; }

    /** Machine-readable core stats document (schema wsrs-stats-v1 body). */
    void dumpStatsJson(JsonWriter &w) const;

    // ---- checkpointing (src/ckpt) ----

    /**
     * Serialize the complete transient machine state — ROB, schedulers,
     * wake wheel, LSQ, rename state, free lists, front end, committed
     * memory image and statistics — so that restore() into a freshly
     * constructed Core with identical CoreParams continues bit-identically.
     * Must be called at a cycle boundary (between run() calls). The
     * attached micro-op source, predictor and memory hierarchy are NOT
     * included; the caller checkpoints those separately.
     *
     * The structure-of-arrays window is written entry by entry; state
     * derived from the entries (ROB flags, per-cluster in-flight and
     * waiting counts) is rebuilt on restore, not written.
     */
    void snapshot(ckpt::Writer &w) const;
    void restore(ckpt::Reader &r);

  private:
    template <typename Self, typename Io>
    static void transfer(Self &self, Io &io);

    // ---- pipeline stages (called in tick() order) ----
    void tick();
    void commitStage();
    void captureStoreData();
    void issueStage();
    void agenStage();
    void renameStage();
    void fetchStage();

    // ---- helpers (ring-slot index arguments are robIx() values) ----
    bool srcReady(std::size_t i) const;
    Cycle ffPenalty(ClusterId producer, ClusterId consumer) const;
    bool tryIssue(std::uint64_t rob_num);
    void assertWsrsConstraints(std::size_t i) const;

    // ---- event-driven wake-up ----
    void subscribeOrSchedule(std::uint64_t rob_num);
    void scheduleWake(std::uint64_t rob_num, Cycle at);
    void wakeDependants(PhysReg preg);
    void wakeOne(std::uint64_t rob_num);
    void insertReady(std::uint64_t rob_num);
    void drainWakes();

    // ---- observability helpers ----
    void setWaitClass(std::size_t i, std::uint8_t cls);
    void clearWaitClass(std::size_t i);
    obs::IssueStall issueStall(ClusterId c) const;
    obs::CommitStall commitStall() const;
    void emitTrace(std::size_t i);
    void runStages();

    // ---- rename steering and stall tests (shared with the skip) ----
    /** Why rename cannot take the fetch-buffer head, before steering. */
    obs::RenameStall entryStall() const;
    /** The head's cluster: allocate() plus deadlock avoidance. */
    AllocDecision steer(const isa::MicroOp &op);
    /** Why @p op cannot enter on @p dec's cluster (FullWidth if it can). */
    obs::RenameStall placementStall(const isa::MicroOp &op,
                                    AllocDecision dec) const;
    /** A placement stall that move injection may try to break. */
    bool wantsMove(const isa::MicroOp &op, AllocDecision dec,
                   obs::RenameStall cause) const;

    // ---- quiescent-cycle skip ----
    /**
     * First cycle >= now_ and < @p limit at which any state but the wake
     * wheel's can change (@p limit if none).
     */
    Cycle nextEvent(Cycle limit) const;
    /** Cycles from now_ to the next wake-wheel bucket, at most @p n. */
    Cycle cyclesToWake(Cycle n) const;
    /** After a quiescent tick: jump to the next event, crediting stats. */
    void skipQuiescent(Cycle limit);

    // Per-cycle issue budgets (reset by issueStage).
    std::array<unsigned, kMaxClusters> cycTotal_{};
    std::array<unsigned, kMaxClusters> cycInts_{};
    std::array<unsigned, kMaxClusters> cycMems_{};
    std::array<unsigned, kMaxClusters> cycFps_{};
    bool tryInjectMove(SubsetId blocked_subset);
    void recordAllocation(ClusterId cluster);
    SubsetId targetSubset(ClusterId cluster) const;
    SubsetId destSubset(const isa::MicroOp &op, ClusterId cluster) const;

    // ---- structure-of-arrays in-flight window ----

    /** Per-entry flag bits in RobStore::flags. */
    static constexpr std::uint8_t kFlagSwapped = 1u << 0;
    static constexpr std::uint8_t kFlagInjectedMove = 1u << 1;
    static constexpr std::uint8_t kFlagMispredicted = 1u << 2;
    static constexpr std::uint8_t kFlagHasDest = 1u << 3;
    static constexpr std::uint8_t kFlagCommutative = 1u << 4;
    /** Register-source arity (0..2) in bits 5..6. */
    static constexpr unsigned kFlagNumSrcsShift = 5;

    /** Cold per-entry fields: touched once at rename/issue/commit each. */
    struct RobCold
    {
        std::uint64_t expected = 0;      ///< Oracle value (verify mode).
        std::uint64_t result = 0;        ///< Dataflow value produced.
        Cycle fetchCycle = 0;            ///< Cycle the op left the generator.
        Cycle renameCycle = 0;           ///< Cycle the op entered the window.
        Cycle issueCycle = kNeverCycle;
        PhysReg oldPdst = kNoPhysReg;
        isa::MicroOp op;                 ///< Full decoded micro-op.
    };

    /** The ROB as parallel arrays over a power-of-two ring. */
    /**
     * Byte-sized pipeline fields and renamed registers of one window
     * entry, packed into a single 12-byte record so renaming, issuing and
     * committing an entry touch one cache line for all of them instead of
     * one line per parallel array (no pipeline loop scans a single field
     * linearly anymore — the ready lists and the wake wheel replaced the
     * former full-window scans, so the fine-grained split stopped paying
     * for itself).
     */
    struct RobMeta
    {
        std::uint8_t state;      ///< InstState values.
        std::uint8_t waitClass;  ///< See setWaitClass().
        std::uint8_t cluster;
        std::uint8_t flags;      ///< kFlag* bits + arity.
        isa::OpClass cls;
        PhysReg psrc1;
        PhysReg psrc2;
        PhysReg pdst;
    };

    struct RobStore
    {
        std::vector<RobMeta> meta;
        std::vector<Cycle> readyCycle;       ///< First cycle on a ready list.
        std::vector<Cycle> completeCycle;
        std::vector<Addr> pc;
        std::vector<Addr> effAddr;
        std::vector<std::uint64_t> memOrdinal;
        std::vector<RobCold> cold;
    };

    /** Ring slot of an absolute ROB number (power-of-two mask, no divide). */
    std::size_t robIx(std::uint64_t n) const { return n & robMask_; }

    /** Reset slot @p i to freshly-constructed defaults. */
    void clearRobSlot(std::size_t i);

    CoreParams params_;
    workload::MicroOpSource &gen_;
    bpred::BranchPredictor &bp_;
    memory::MemoryHierarchy &mem_;

    PhysRegFile prf_;
    Renamer renamer_;
    ClusterAllocator alloc_;
    LoadStoreQueue lsq_;
    workload::OracleExecutor oracle_;   ///< Used in verify mode.

    // ROB window: absolute numbers [robHead_, robTail_), at most
    // windowCap_ in flight, stored in a ring of robMask_ + 1 slots.
    RobStore rob_;
    std::size_t windowCap_ = 0;   ///< numClusters * clusterWindow.
    std::size_t robMask_ = 0;     ///< Ring capacity (pow2) minus one.
    std::uint64_t robHead_ = 0;
    std::uint64_t robTail_ = 0;

    // Per-cluster ready lists of absolute ROB numbers (kept in age order;
    // issued entries are compacted away during the scan). Unlike the former
    // full scheduler-queue scan, only micro-ops whose source operands are
    // known ready (or that are resource-blocked) ever appear here; waiting
    // micro-ops sit in regWaiters_ / the wake wheel until their producers
    // broadcast.
    std::array<std::vector<std::uint64_t>, kMaxClusters> readyQ_;
    // First live index into each ready list. Issued entries advance the
    // head instead of shifting the (potentially long) resource-blocked
    // tail left every cycle; the dead prefix is trimmed in bulk once it
    // grows past a threshold, keeping the per-issue cost O(1) amortized.
    std::array<std::size_t, kMaxClusters> readyHead_{};
    std::array<unsigned, kMaxClusters> inflight_{};

    // Producer-subscription wake-up. Each waiting micro-op holds exactly
    // one pending token: either one subscription on a not-yet-issued
    // source (regWaiters_), or one wake-wheel slot at the cycle its
    // (bypass-adjusted) operands become ready. A token is the micro-op's
    // ROB ring slot, so every list is an intrusive FIFO threaded through
    // one link per slot (tokenNext_) and nothing allocates per wake-up.

    /** End of a token list. */
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
    /** FIFO of ROB ring slots linked through tokenNext_. */
    struct TokenList
    {
        std::uint32_t head = kNoSlot;
        std::uint32_t tail = kNoSlot;
        bool empty() const { return head == kNoSlot; }
    };
    /** Append slot @p i to @p list (i must be on no other list). */
    void pushToken(TokenList &list, std::size_t i);
    /** The live ROB number held in ring slot @p i. */
    std::uint64_t
    robNumOf(std::size_t i) const
    {
        return robHead_ + ((i - robHead_) & robMask_);
    }
    /** Per ROB ring slot: the next slot on its token list. */
    std::vector<std::uint32_t> tokenNext_;
    /** Per physical register: micro-ops to notify when its producer issues. */
    std::vector<TokenList> regWaiters_;

    /** Timing wheel bucket: micro-ops to re-evaluate at a given cycle. */
    struct WakeBucket
    {
        Cycle cycle = kNeverCycle;
        TokenList tokens;
    };
    static constexpr std::size_t kWakeRing = 4096;
    /** Dead ready-list prefix length that triggers a bulk trim. */
    static constexpr std::size_t kReadyTrim = 1024;
    std::vector<WakeBucket> wakeWheel_;
    /** Wakes beyond the wheel horizon (virtually never used). */
    std::vector<std::pair<Cycle, std::uint64_t>> farWakes_;

    /** Producer info per physical register for bypass-aware wake-up. */
    struct Producer
    {
        Cycle readyBase = 0;              ///< Issue cycle + latency.
        ClusterId cluster = kMaxClusters; ///< kMaxClusters = retired state.
    };
    std::vector<Producer> prod_;

    // Functional-unit occupancy.
    std::array<Cycle, kMaxClusters> complexBusyUntil_{};
    std::array<Cycle, kMaxClusters> fpDivBusyUntil_{};

    // Write-back port reservations: per cluster, a ring of (cycle, count)
    // for the next kWbRing cycles; reservations further ahead wait in
    // wbFar_ until the ring reaches them (settleWritebacks).
    struct WbSlot
    {
        Cycle cycle = kNeverCycle;
        std::uint8_t count = 0;
    };
    static constexpr std::size_t kWbRing = 1024;
    std::vector<std::array<WbSlot, kWbRing>> wbSlots_;
    /** A reservation kWbRing or more cycles ahead (long memory latency). */
    struct WbFar
    {
        Cycle cycle;
        ClusterId cluster;
        std::uint8_t count;
    };
    std::vector<WbFar> wbFar_;
    Cycle reserveWriteback(ClusterId c, Cycle nominal);
    /** Write-backs reserved on cluster @p c at @p cycle (>= now_). */
    std::uint8_t &wbCount(ClusterId c, Cycle cycle);
    /** Move wbFar_ entries the ring now covers into it. */
    void settleWritebacks();

    // Front end: fixed-capacity FIFO ring sized from params.fetchQueue.
    struct Fetched
    {
        isa::MicroOp op;
        std::uint64_t expected;
        Cycle readyAt;        ///< Earliest rename cycle.
        Cycle fetchCycle;     ///< Cycle the op left the generator.
        bool mispredicted;
    };
    std::vector<Fetched> fetchBuf_;
    std::size_t fetchMask_ = 0;
    std::size_t fetchHead_ = 0;
    std::size_t fetchCount_ = 0;
    bool fetchStalled_ = false;     ///< Waiting on a mispredicted branch.
    Cycle fetchResumeAt_ = 0;

    // Pending store-data captures: ROB numbers of issued stores whose data
    // producer had not issued yet.
    std::vector<std::uint64_t> pendingStoreData_;

    // Committed memory image (dataflow values); probed once per load.
    workload::MemoryImage committedMem_;

    // Figure-5 unbalancing metric state.
    std::array<std::uint64_t, kMaxClusters> groupCount_{};
    unsigned groupFill_ = 0;

    Cycle now_ = 0;
    /// The current tick committed, issued, renamed, injected a move,
    /// fetched, fired a wake, computed an address or captured store data.
    bool active_ = false;
    CoreStats stats_;

    // ---- observability state ----
    obs::PipelineStats obs_;
    obs::TraceSink *traceSink_ = nullptr;
    obs::StageProfiler *profiler_ = nullptr;
    // Waiting micro-ops per cluster holding a local (same-cluster producer)
    // vs remote (cross-cluster forward) wake-up token; O(1) per-cycle
    // issue-stall classification.
    std::array<unsigned, kMaxClusters> waitLocal_{};
    std::array<unsigned, kMaxClusters> waitRemote_{};
};

} // namespace wsrs::core
