#include "core.h"
#include <cstdlib>

#include <algorithm>
#include <ostream>
#include <span>

#include "src/workload/dataflow.h"

namespace wsrs::core {

// obs sizes its per-cluster arrays without depending on core headers.
static_assert(kMaxClusters <= obs::kClusterCap,
              "obs::kClusterCap must cover core::kMaxClusters");

namespace {

/** Validate a machine description before construction. */
CoreParams
validated(CoreParams p)
{
    if (p.fetchWidth == 0 || p.commitWidth == 0 || p.issuePerCluster == 0)
        fatal("zero pipeline width");
    if (p.numClusters == 0 || p.numClusters > kMaxClusters)
        fatal("unsupported cluster count %u", p.numClusters);
    if (p.clusterWindow == 0)
        fatal("zero cluster window");
    if (p.mode == RegFileMode::Wsrs && p.numClusters != 4)
        fatal("WSRS requires 4 clusters");
    if (p.writebackPerCluster == 0)
        fatal("zero write-back bandwidth");
    return p;
}

/** Smallest power of two >= n (n >= 1). */
std::size_t
pow2AtLeast(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

Core::Core(const CoreParams &params, workload::MicroOpSource &gen,
           bpred::BranchPredictor &bp, memory::MemoryHierarchy &mem)
    : params_(validated(params)), gen_(gen), bp_(bp), mem_(mem),
      prf_(params_.numPhysRegs,
           params_.mode == RegFileMode::Conventional ? 1
           : params_.mode == RegFileMode::WriteSpecPools
               ? kNumFuPools
               : params_.numClusters),
      renamer_(prf_, params_.renameImpl, params_.fetchWidth,
               params_.recycleDelay),
      alloc_(params_), lsq_(params_.lsqSize),
      regWaiters_(params_.numPhysRegs), wakeWheel_(kWakeRing),
      prod_(params_.numPhysRegs), wbSlots_(params_.numClusters),
      obs_(params_.numClusters)
{
    windowCap_ = std::size_t{params_.numClusters} * params_.clusterWindow;
    const std::size_t ring = pow2AtLeast(windowCap_);
    robMask_ = ring - 1;
    rob_.meta.assign(ring, RobMeta{0, 0, 0, 0, isa::OpClass::IntAlu,
                                   kNoPhysReg, kNoPhysReg, kNoPhysReg});
    rob_.readyCycle.assign(ring, kNeverCycle);
    rob_.completeCycle.assign(ring, kNeverCycle);
    rob_.pc.assign(ring, 0);
    rob_.effAddr.assign(ring, 0);
    rob_.memOrdinal.assign(ring, 0);
    rob_.cold.assign(ring, RobCold{});
    tokenNext_.assign(ring, kNoSlot);

    fetchMask_ = pow2AtLeast(std::max<std::size_t>(params_.fetchQueue, 1)) - 1;
    fetchBuf_.resize(fetchMask_ + 1);

    renamer_.initMapping(params_.verifyDataflow ? &workload::initRegValue
                                                : nullptr);
}

void
Core::clearRobSlot(std::size_t i)
{
    rob_.meta[i] = RobMeta{0, 0, 0, 0, isa::OpClass::IntAlu,
                           kNoPhysReg, kNoPhysReg, kNoPhysReg};
    rob_.readyCycle[i] = kNeverCycle;
    rob_.completeCycle[i] = kNeverCycle;
    rob_.pc[i] = 0;
    rob_.effAddr[i] = 0;
    rob_.memOrdinal[i] = 0;
    rob_.cold[i] = RobCold{};
}

SubsetId
Core::targetSubset(ClusterId cluster) const
{
    return params_.mode == RegFileMode::Conventional
               ? SubsetId{0}
               : static_cast<SubsetId>(cluster);
}

SubsetId
Core::destSubset(const isa::MicroOp &op, ClusterId cluster) const
{
    // Figure 2b: pool-level specialization picks the subset by the
    // executing functional-unit pool, not the cluster.
    if (params_.mode == RegFileMode::WriteSpecPools)
        return poolSubsetOf(op.op);
    return targetSubset(cluster);
}

Cycle
Core::ffPenalty(ClusterId producer, ClusterId consumer) const
{
    if (producer >= params_.numClusters)  // Architectural / retired value.
        return 0;
    switch (params_.ffScope) {
      case FastForwardScope::Complete:
        return 0;
      case FastForwardScope::AdjacentPair:
        return (producer >> 1) == (consumer >> 1) ? 0 : 1;
      case FastForwardScope::IntraCluster:
      default:
        return producer == consumer ? 0 : 1;
    }
}

bool
Core::srcReady(std::size_t i) const
{
    const ClusterId cl = rob_.meta[i].cluster;
    const auto ready = [&](PhysReg p) {
        if (p == kNoPhysReg)
            return true;
        const Producer &info = prod_[p];
        if (info.readyBase == kNeverCycle)
            return false;
        return now_ >= info.readyBase + ffPenalty(info.cluster, cl);
    };
    // Memory ops are gated by the in-order address pipeline instead of
    // register readiness (stores capture their data lazily).
    if (isa::isMemOp(rob_.meta[i].cls))
        return true;
    if (!ready(rob_.meta[i].psrc1))
        return false;
    return ready(rob_.meta[i].psrc2);
}

void
Core::insertReady(std::uint64_t rob_num)
{
    // Ready lists stay sorted by ROB number so the issue stage keeps the
    // oldest-first selection order of the former full-queue scan.
    const std::size_t i = robIx(rob_num);
    const ClusterId c = rob_.meta[i].cluster;
    auto &q = readyQ_[c];
    std::size_t &head = readyHead_[c];
    if (head == q.size() && head != 0) {
        // The live range is empty but a dead prefix remains; reclaim it
        // now so back()/lower_bound below only ever see live entries.
        q.clear();
        head = 0;
    }
    if (q.empty() || q.back() < rob_num) {
        // Most wakes are for the youngest entries: append without search.
        q.push_back(rob_num);
    } else {
        const auto it =
            std::lower_bound(q.begin() + head, q.end(), rob_num);
        if (it != q.end() && *it == rob_num)
            return;
        q.insert(it, rob_num);
    }
    if (rob_.readyCycle[i] == kNeverCycle)
        rob_.readyCycle[i] = now_;
}

void
Core::setWaitClass(std::size_t i, std::uint8_t cls)
{
    if (rob_.meta[i].waitClass == cls)
        return;
    clearWaitClass(i);
    rob_.meta[i].waitClass = cls;
    ++(cls == 2 ? waitRemote_ : waitLocal_)[rob_.meta[i].cluster];
}

void
Core::clearWaitClass(std::size_t i)
{
    const std::uint8_t cls = rob_.meta[i].waitClass;
    if (cls == 0)
        return;
    auto &count = (cls == 2 ? waitRemote_ : waitLocal_)[rob_.meta[i].cluster];
    WSRS_ASSERT(count > 0);
    --count;
    rob_.meta[i].waitClass = 0;
}

void
Core::pushToken(TokenList &list, std::size_t i)
{
    const auto slot = static_cast<std::uint32_t>(i);
    tokenNext_[slot] = kNoSlot;
    if (list.empty())
        list.head = slot;
    else
        tokenNext_[list.tail] = slot;
    list.tail = slot;
}

void
Core::scheduleWake(std::uint64_t rob_num, Cycle at)
{
    WSRS_ASSERT(at > now_);
    if (at - now_ >= kWakeRing) {
        farWakes_.emplace_back(at, rob_num);
        return;
    }
    WakeBucket &b = wakeWheel_[at % kWakeRing];
    if (b.cycle != at) {
        b.cycle = at;
        b.tokens = {};
    }
    pushToken(b.tokens, robIx(rob_num));
}

void
Core::subscribeOrSchedule(std::uint64_t rob_num)
{
    const std::size_t i = robIx(rob_num);
    // Memory micro-ops are gated by the in-order address pipeline: they
    // enter the ready list when agenStage computes their address.
    WSRS_ASSERT(!isa::isMemOp(rob_.meta[i].cls));
    const PhysReg psrc1 = rob_.meta[i].psrc1;
    const PhysReg psrc2 = rob_.meta[i].psrc2;
    const ClusterId cl = rob_.meta[i].cluster;
    const auto pending = [&](PhysReg p) {
        return p != kNoPhysReg && prod_[p].readyBase == kNeverCycle;
    };
    // Wait on one un-issued source at a time; wakeOne() re-evaluates and
    // re-subscribes to the other source if it is still outstanding.
    // The single pending token is classified local/remote for stall
    // attribution; classification never feeds back into timing.
    if (pending(psrc1)) {
        pushToken(regWaiters_[psrc1], i);
        setWaitClass(i, prod_[psrc1].cluster != cl ? 2 : 1);
        return;
    }
    if (pending(psrc2)) {
        pushToken(regWaiters_[psrc2], i);
        setWaitClass(i, prod_[psrc2].cluster != cl ? 2 : 1);
        return;
    }
    // Both producers issued: the operands become readable at a known cycle.
    Cycle at = now_ + 1;
    bool remote = false;
    const auto account = [&](PhysReg p) {
        if (p == kNoPhysReg)
            return;
        const Producer &info = prod_[p];
        const Cycle pen = ffPenalty(info.cluster, cl);
        const Cycle t = info.readyBase + pen;
        if (t > at) {
            at = t;
            remote = pen > 0;
        } else if (t == at && pen > 0) {
            remote = true;
        }
    };
    account(psrc1);
    account(psrc2);
    setWaitClass(i, remote ? 2 : 1);
    scheduleWake(rob_num, at);
}

void
Core::wakeDependants(PhysReg preg)
{
    const TokenList waiters = regWaiters_[preg];
    if (waiters.empty())
        return;
    regWaiters_[preg] = {};
    const Producer &info = prod_[preg];
    // scheduleWake relinks each slot, so read its link first.
    for (std::uint32_t i = waiters.head, next; i != kNoSlot; i = next) {
        next = tokenNext_[i];
        const Cycle pen = ffPenalty(info.cluster, rob_.meta[i].cluster);
        scheduleWake(robNumOf(i), std::max(now_ + 1, info.readyBase + pen));
        // The token moves from subscription to the wheel: re-classify by
        // whether an intercluster hop delays this consumer.
        setWaitClass(i, pen > 0 ? 2 : 1);
    }
}

void
Core::wakeOne(std::uint64_t rob_num)
{
    active_ = true;
    WSRS_ASSERT(rob_num >= robHead_ && rob_num < robTail_);
    const std::size_t i = robIx(rob_num);
    if (rob_.meta[i].state != static_cast<std::uint8_t>(InstState::Waiting))
        return;
    clearWaitClass(i);  // Token fired; re-wait re-classifies below.
    if (srcReady(i))
        insertReady(rob_num);
    else
        subscribeOrSchedule(rob_num);
}

void
Core::drainWakes()
{
    WakeBucket &b = wakeWheel_[now_ % kWakeRing];
    if (b.cycle == now_) {
        // wakeOne may relink a slot, but always onto a register's list or
        // a bucket for a cycle > now_ (with the far-wake overflow, never
        // this one), so read each link before waking its slot.
        const TokenList due = b.tokens;
        b.tokens = {};
        b.cycle = kNeverCycle;
        for (std::uint32_t i = due.head, next; i != kNoSlot; i = next) {
            next = tokenNext_[i];
            wakeOne(robNumOf(i));
        }
    }
    if (!farWakes_.empty()) {
        std::size_t w = 0;
        for (std::size_t i = 0; i < farWakes_.size(); ++i) {
            if (farWakes_[i].first <= now_)
                wakeOne(farWakes_[i].second);
            else
                farWakes_[w++] = farWakes_[i];
        }
        farWakes_.resize(w);
    }
}

std::uint8_t &
Core::wbCount(ClusterId c, Cycle cycle)
{
    if (cycle - now_ >= kWbRing) {
        for (WbFar &f : wbFar_)
            if (f.cluster == c && f.cycle == cycle)
                return f.count;
        wbFar_.push_back({cycle, c, 0});
        return wbFar_.back().count;
    }
    WbSlot &slot = wbSlots_[c][cycle % kWbRing];
    if (slot.cycle != cycle) {
        // Cycles at or past now_ + kWbRing wait in wbFar_, so the slot's
        // previous cycle has passed: no live reservation is dropped.
        WSRS_ASSERT(slot.cycle < now_ || slot.cycle == kNeverCycle ||
                    slot.count == 0);
        slot.cycle = cycle;
        slot.count = 0;
    }
    return slot.count;
}

Cycle
Core::reserveWriteback(ClusterId c, Cycle nominal)
{
    for (Cycle cycle = nominal;; ++cycle) {
        std::uint8_t &count = wbCount(c, cycle);
        if (count < params_.writebackPerCluster) {
            ++count;
            return cycle;
        }
    }
}

void
Core::settleWritebacks()
{
    std::size_t w = 0;
    for (const WbFar &f : wbFar_) {
        if (f.cycle < now_)
            continue;  // A quiescent skip passed it.
        if (f.cycle - now_ >= kWbRing) {
            wbFar_[w++] = f;
            continue;
        }
        WbSlot &slot = wbSlots_[f.cluster][f.cycle % kWbRing];
        WSRS_ASSERT(slot.cycle < now_ || slot.cycle == kNeverCycle ||
                    slot.count == 0);
        slot = {f.cycle, f.count};
    }
    wbFar_.resize(w);
}

void
Core::assertWsrsConstraints(std::size_t i) const
{
    // Read specialization (Figure 3): the subset feeding a cluster's first
    // operand port must share its top/bottom bit, the second port its
    // left/right bit; write specialization: results land in subset c.
    const ClusterId c = rob_.meta[i].cluster;
    const bool swapped = rob_.meta[i].flags & kFlagSwapped;
    const unsigned nsrcs = rob_.meta[i].flags >> kFlagNumSrcsShift;
    PhysReg first = kNoPhysReg, second = kNoPhysReg;
    if (nsrcs == 2) {
        first = swapped ? rob_.meta[i].psrc2 : rob_.meta[i].psrc1;
        second = swapped ? rob_.meta[i].psrc1 : rob_.meta[i].psrc2;
    } else if (nsrcs == 1) {
        (swapped ? second : first) = rob_.meta[i].psrc1;
    }
    if (first != kNoPhysReg)
        WSRS_ASSERT((prf_.subsetOf(first) & 2) == (c & 2));
    if (second != kNoPhysReg)
        WSRS_ASSERT((prf_.subsetOf(second) & 1) == (c & 1));
    if (rob_.meta[i].pdst != kNoPhysReg)
        WSRS_ASSERT(prf_.subsetOf(rob_.meta[i].pdst) == c);
}

bool
Core::tryIssue(std::uint64_t rob_num)
{
    const std::size_t i = robIx(rob_num);
    WSRS_ASSERT(rob_.meta[i].state ==
                static_cast<std::uint8_t>(InstState::Waiting));
    const ClusterId c = rob_.meta[i].cluster;
    const isa::OpClass cls = rob_.meta[i].cls;
    const std::uint8_t flags = rob_.meta[i].flags;

    // Issue-bandwidth and functional-unit availability.
    if (cycTotal_[c] >= params_.issuePerCluster)
        return false;
    if (isa::isMemOp(cls)) {
        if (cycMems_[c] >= params_.lsusPerCluster)
            return false;
    } else if (isa::isFpOp(cls)) {
        if (cycFps_[c] >= params_.fpusPerCluster)
            return false;
        if ((cls == isa::OpClass::FpDiv || cls == isa::OpClass::FpSqrt) &&
            fpDivBusyUntil_[c] > now_)
            return false;
    } else {
        if (cycInts_[c] >= params_.alusPerCluster)
            return false;
        if (isa::isComplexIntOp(cls)) {
            const unsigned unit = params_.sharedComplexUnit ? c >> 1 : c;
            if (complexBusyUntil_[unit] > now_)
                return false;
        }
    }

    // Operand readiness needs no re-check here: entries reach a ready
    // list either through wakeOne (which verifies srcReady) or through
    // agenStage (memory ops, whose srcReady is definitionally true), and
    // readiness is monotone — producers' ready cycles are fixed at issue
    // and a source's physical register cannot be reallocated before this
    // consumer commits.

    // Memory access waits for the in-order address pipeline (agenStage).
    if (isa::isMemOp(cls) && !lsq_.addrComputed(rob_.memOrdinal[i]))
        return false;

    Cycle eff_lat = isa::opLatency(cls);
    std::uint64_t mem_val = 0;

    if (cls == isa::OpClass::Load) {
        const Addr effAddr = rob_.effAddr[i];
        const ForwardProbe probe =
            lsq_.probeForward(rob_.memOrdinal[i], effAddr);
        if (probe.conflict) {
            if (!probe.dataReady)
                return false;  // Conflicting store data still in flight.
            mem_val = probe.value;
            eff_lat = mem_.params().l1Latency;
            ++stats_.loadForwards;
            mem_.access(effAddr, false, now_);  // Keep tags warm.
        } else {
            const memory::TimedAccess ta = mem_.access(effAddr, false, now_);
            eff_lat = ta.latency;
            if (params_.verifyDataflow)
                mem_val = committedMem_.load(effAddr);
        }
    } else if (cls == isa::OpClass::Store) {
        mem_.access(rob_.effAddr[i], true, now_);
        const PhysReg psrc2 = rob_.meta[i].psrc2;
        if (psrc2 == kNoPhysReg || prod_[psrc2].readyBase != kNeverCycle)
            lsq_.setStoreData(rob_.memOrdinal[i], storeDataValue(i));
        else
            pendingStoreData_.push_back(rob_num);
    }

    // Non-pipelined long-latency units.
    if (cls == isa::OpClass::FpDiv || cls == isa::OpClass::FpSqrt)
        fpDivBusyUntil_[c] = now_ + eff_lat;
    if (isa::isComplexIntOp(cls)) {
        const unsigned unit = params_.sharedComplexUnit ? c >> 1 : c;
        complexBusyUntil_[unit] = now_ + eff_lat;
    }

    if (flags & kFlagHasDest) {
        // Write-back port arbitration may push the result later.
        const Cycle nominal = now_ + params_.regReadStages + eff_lat;
        const Cycle actual = reserveWriteback(c, nominal);
        eff_lat += actual - nominal;
        const PhysReg pdst = rob_.meta[i].pdst;
        if (params_.verifyDataflow) {
            const std::uint64_t result = resultValue(i, mem_val);
            rob_.cold[i].result = result;
            prf_.setValue(pdst, result);
        }
        prod_[pdst].readyBase = now_ + eff_lat;
        prod_[pdst].cluster = c;
        // Result broadcast: move exact dependants onto the wake wheel at
        // the cycle the value becomes readable from their cluster.
        wakeDependants(pdst);
    }

    rob_.meta[i].state = static_cast<std::uint8_t>(InstState::Issued);
    rob_.cold[i].issueCycle = now_;
    rob_.completeCycle[i] = now_ + params_.regReadStages + eff_lat;
    if (rob_.readyCycle[i] != kNeverCycle)
        obs_.recordWakeupLatency(now_ - rob_.readyCycle[i]);
    if (params_.mode == RegFileMode::Wsrs)
        assertWsrsConstraints(i);

    if (cls == isa::OpClass::Branch && (flags & kFlagMispredicted)) {
        // Redirect: fetch restarts the cycle after resolution.
        fetchStalled_ = false;
        fetchResumeAt_ = now_ + params_.regReadStages + eff_lat;
    }

    ++cycTotal_[c];
    if (isa::isMemOp(cls))
        ++cycMems_[c];
    else if (isa::isFpOp(cls))
        ++cycFps_[c];
    else
        ++cycInts_[c];
    return true;
}

void
Core::issueStage()
{
    cycTotal_.fill(0);
    cycInts_.fill(0);
    cycMems_.fill(0);
    cycFps_.fill(0);

    // Move micro-ops whose operands became ready this cycle onto the
    // per-cluster ready lists, then select oldest-first among ready
    // entries only. Entries stay listed while resource-blocked (issue
    // ports, busy units, conflicting store data still in flight).
    drainWakes();
    for (ClusterId c = 0; c < params_.numClusters; ++c) {
        auto &q = readyQ_[c];
        std::size_t &head = readyHead_[c];
        std::size_t w = head, i = head;
        for (; i < q.size(); ++i) {
            // Every failure path in tryIssue is side-effect-free, so once
            // the cluster's issue bandwidth is consumed the rest of the
            // list can be kept wholesale instead of probed entry by entry.
            if (cycTotal_[c] >= params_.issuePerCluster)
                break;
            if (rob_.meta[robIx(q[i])].state ==
                static_cast<std::uint8_t>(InstState::Issued))
                continue;
            if (!tryIssue(q[i]))
                q[w++] = q[i];
        }
        if (i < q.size()) {
            // Entries kept within the scanned prefix slide right to abut
            // the unscanned tail; the head advances past the gap. Only the
            // short prefix moves — the tail stays in place.
            const std::size_t kept = w - head;
            if (w != i)
                std::move_backward(q.begin() + head, q.begin() + w,
                                   q.begin() + i);
            head = i - kept;
        } else {
            q.resize(w);
            if (head == w) {
                q.clear();
                head = 0;
            }
        }
        if (head >= kReadyTrim) {
            q.erase(q.begin(), q.begin() + head);
            head = 0;
        }
    }
    for (ClusterId c = 0; c < params_.numClusters; ++c)
        obs_.recordIssue(c, issueStall(c), inflight_[c]);

    unsigned issued_now = 0;
    for (ClusterId c = 0; c < params_.numClusters; ++c)
        issued_now += cycTotal_[c];
    active_ |= issued_now > 0;
    ++stats_.issueWidthHist[std::min<std::size_t>(
        issued_now, stats_.issueWidthHist.size() - 1)];
}

obs::IssueStall
Core::issueStall(ClusterId c) const
{
    // Exactly one dominant outcome per cluster per cycle, checked from
    // cheapest to most specific. The wait-token counters make the
    // local/remote operand-wait split O(1).
    if (cycTotal_[c] > 0)
        return obs::IssueStall::Issued;
    if (inflight_[c] == 0)
        return obs::IssueStall::EmptyCluster;
    if (readyQ_[c].size() > readyHead_[c])
        return obs::IssueStall::ResourceBusy;
    if (waitRemote_[c] > 0)
        return obs::IssueStall::ForwardWait;
    if (waitLocal_[c] > 0)
        return obs::IssueStall::OperandWait;
    return obs::IssueStall::NoReadyUop;
}

void
Core::agenStage()
{
    // Dedicated in-order address-computation path (paper section 5.2):
    // addresses are computed in program order as soon as the address
    // operand is available, independent of cluster issue slots.
    unsigned done = 0;
    std::uint64_t rn = 0;
    while (done < params_.agenWidth && lsq_.nextAgen(rn)) {
        const std::size_t i = robIx(rn);
        const PhysReg psrc1 = rob_.meta[i].psrc1;
        if (psrc1 != kNoPhysReg) {
            const Producer &info = prod_[psrc1];
            if (info.readyBase == kNeverCycle || now_ < info.readyBase)
                break;
        }
        lsq_.markAddrComputed(rob_.memOrdinal[i]);
        // Address known: the memory op becomes eligible for issue (this
        // stage runs after issueStage, so the earliest attempt is next
        // cycle, exactly as under the former every-cycle scan).
        insertReady(rn);
        ++done;
    }
    active_ |= done > 0;
}

void
Core::captureStoreData()
{
    std::size_t w = 0;
    for (std::size_t k = 0; k < pendingStoreData_.size(); ++k) {
        const std::uint64_t n = pendingStoreData_[k];
        if (n < robHead_)
            continue;  // Already captured at commit.
        const std::size_t i = robIx(n);
        const PhysReg psrc2 = rob_.meta[i].psrc2;
        if (psrc2 != kNoPhysReg && prod_[psrc2].readyBase == kNeverCycle) {
            pendingStoreData_[w++] = n;
            continue;
        }
        lsq_.setStoreData(rob_.memOrdinal[i], storeDataValue(i));
        active_ = true;
    }
    pendingStoreData_.resize(w);
}

std::uint64_t
Core::operandValue(PhysReg p) const
{
    return p != kNoPhysReg ? prf_.value(p) : 0;
}

std::uint64_t
Core::storeDataValue(std::size_t i) const
{
    if (!params_.verifyDataflow)
        return 0;
    return workload::storeValue(rob_.pc[i], operandValue(rob_.meta[i].psrc1),
                                operandValue(rob_.meta[i].psrc2));
}

std::uint64_t
Core::resultValue(std::size_t i, std::uint64_t mem_val) const
{
    const std::uint8_t flags = rob_.meta[i].flags;
    const isa::OpClass cls = rob_.meta[i].cls;
    const std::uint64_t s1 = operandValue(rob_.meta[i].psrc1);
    if (cls == isa::OpClass::Load)
        return workload::execValue(cls, rob_.pc[i], flags & kFlagCommutative,
                                   s1, 0, mem_val);
    if (flags & kFlagInjectedMove)
        return s1;
    return workload::execValue(cls, rob_.pc[i], flags & kFlagCommutative, s1,
                               operandValue(rob_.meta[i].psrc2), 0);
}

void
Core::recordAllocation(ClusterId cluster)
{
    ++stats_.perCluster[cluster];
    ++groupCount_[cluster];
    if (++groupFill_ == 128) {
        bool unbalanced = false;
        for (ClusterId c = 0; c < params_.numClusters; ++c)
            if (groupCount_[c] < 24 || groupCount_[c] > 40)
                unbalanced = true;
        ++stats_.totalGroups;
        if (unbalanced)
            ++stats_.unbalancedGroups;
        groupCount_.fill(0);
        groupFill_ = 0;
    }
}

bool
Core::tryInjectMove(SubsetId blocked_subset)
{
    if (params_.mode == RegFileMode::Conventional)
        return false;  // Single subset: moves cannot help.
    if (robTail_ - robHead_ >= windowCap_)
        return false;

    // Victim: any logical register currently mapped into the full subset.
    LogReg victim = kNoLogReg;
    for (unsigned r = 0; r < isa::kNumLogRegs; ++r) {
        if (renamer_.subsetOfLog(static_cast<LogReg>(r)) == blocked_subset) {
            victim = static_cast<LogReg>(r);
            break;
        }
    }
    if (victim == kNoLogReg)
        return false;

    isa::MicroOp m;
    m.op = isa::OpClass::IntAlu;
    m.src1 = victim;
    m.dst = victim;
    m.pc = 0;
    m.seq = 0;

    // Legal clusters for the move whose target subset differs and has a
    // free register and window room.
    AllocDecision chosen{};
    bool found = false;
    if (params_.mode == RegFileMode::Wsrs) {
        AllocContext ctx;
        ctx.src1Subset = blocked_subset;
        unsigned count = 0;
        const auto opts = alloc_.wsrsOptions(m, ctx, count);
        for (unsigned i = 0; i < count; ++i) {
            const SubsetId t = targetSubset(opts[i].cluster);
            if (t != blocked_subset && renamer_.canAllocate(t) &&
                inflight_[opts[i].cluster] < params_.clusterWindow) {
                chosen = opts[i];
                found = true;
                break;
            }
        }
    } else if (params_.mode == RegFileMode::WriteSpecPools) {
        // Moves execute on the simple-ALU pool; they can only free
        // registers *into* that pool's subset.
        const SubsetId t = poolSubsetOf(isa::OpClass::IntAlu);
        if (t != blocked_subset && renamer_.canAllocate(t)) {
            for (ClusterId c = 0; c < params_.numClusters; ++c) {
                if (inflight_[c] < params_.clusterWindow) {
                    chosen = {c, false};
                    found = true;
                    break;
                }
            }
        }
    } else {
        for (ClusterId c = 0; c < params_.numClusters; ++c) {
            const SubsetId t = targetSubset(c);
            if (t != blocked_subset && renamer_.canAllocate(t) &&
                inflight_[c] < params_.clusterWindow) {
                chosen = {c, false};
                found = true;
                break;
            }
        }
    }
    if (!found)
        return false;

    const RenamedRegs rr = renamer_.rename(m, destSubset(m, chosen.cluster));
    const std::uint64_t n = robTail_++;
    const std::size_t i = robIx(n);
    clearRobSlot(i);
    RobCold &cold = rob_.cold[i];
    cold.op = m;
    cold.fetchCycle = now_;
    cold.renameCycle = now_;
    cold.oldPdst = rr.oldPdst;
    rob_.meta[i].cluster = chosen.cluster;
    rob_.meta[i].flags = static_cast<std::uint8_t>(
        (chosen.swapped ? kFlagSwapped : 0) | kFlagInjectedMove |
        kFlagHasDest | (1u << kFlagNumSrcsShift));
    rob_.meta[i].cls = m.op;
    rob_.meta[i].psrc1 = rr.psrc1;
    rob_.meta[i].pdst = rr.pdst;
    prod_[rr.pdst] = {kNeverCycle, chosen.cluster};

    subscribeOrSchedule(n);
    ++inflight_[chosen.cluster];
    ++stats_.injectedMoves;
    active_ = true;
    return true;
}

obs::RenameStall
Core::entryStall() const
{
    if (fetchCount_ == 0 || fetchBuf_[fetchHead_].readyAt > now_) {
        return fetchCount_ == 0 && (fetchStalled_ || now_ < fetchResumeAt_)
                   ? obs::RenameStall::BranchRedirect
                   : obs::RenameStall::FrontendEmpty;
    }
    if (robTail_ - robHead_ >= windowCap_)
        return obs::RenameStall::RobFull;
    if (isa::isMemOp(fetchBuf_[fetchHead_].op.op) && lsq_.full())
        return obs::RenameStall::LsqFull;
    return obs::RenameStall::FullWidth;
}

inline AllocDecision
Core::steer(const isa::MicroOp &op)
{
    AllocContext ctx;
    ctx.inflight = &inflight_;
    if (op.src1 != kNoLogReg) {
        const PhysReg p = renamer_.mapping(op.src1);
        ctx.src1Subset = prf_.subsetOf(p);
        ctx.src1Producer = prod_[p].cluster;
    }
    if (op.src2 != kNoLogReg) {
        const PhysReg p = renamer_.mapping(op.src2);
        ctx.src2Subset = prf_.subsetOf(p);
        ctx.src2Producer = prod_[p].cluster;
    }

    AllocDecision dec = alloc_.allocate(op, ctx);
    if (params_.deadlockPolicy == DeadlockPolicy::Avoidance &&
        op.hasDest() && params_.mode != RegFileMode::Conventional &&
        !renamer_.canAllocate(destSubset(op, dec.cluster))) {
        // Workaround (a), section 2.3: steer the instruction to a
        // cluster whose subset still has a free register, if its
        // placement freedom allows one.
        if (params_.mode == RegFileMode::Wsrs) {
            unsigned count = 0;
            const auto opts = alloc_.wsrsOptions(op, ctx, count);
            for (unsigned i = 0; i < count; ++i) {
                if (renamer_.canAllocate(targetSubset(opts[i].cluster)) &&
                    inflight_[opts[i].cluster] < params_.clusterWindow) {
                    dec = opts[i];
                    break;
                }
            }
        } else if (params_.mode == RegFileMode::WriteSpec) {
            for (ClusterId c = 0; c < params_.numClusters; ++c) {
                if (renamer_.canAllocate(targetSubset(c)) &&
                    inflight_[c] < params_.clusterWindow) {
                    dec = {c, false};
                    break;
                }
            }
        }
        // Pool-level specialization has no freedom: the pool is fixed
        // by the op class, so avoidance cannot help there.
    }
    return dec;
}

inline obs::RenameStall
Core::placementStall(const isa::MicroOp &op, AllocDecision dec) const
{
    if (inflight_[dec.cluster] >= params_.clusterWindow)
        return obs::RenameStall::ClusterWindowFull;
    if (!op.hasDest() || renamer_.canAllocate(destSubset(op, dec.cluster)))
        return obs::RenameStall::FullWidth;
    // Distinguish one empty subset (specialization pressure) from a
    // globally exhausted register file.
    for (unsigned s = 0; s < prf_.numSubsets(); ++s)
        if (renamer_.canAllocate(static_cast<SubsetId>(s)))
            return obs::RenameStall::SubsetFull;
    return obs::RenameStall::PhysRegExhausted;
}

bool
Core::wantsMove(const isa::MicroOp &op, AllocDecision dec,
                obs::RenameStall cause) const
{
    return (cause == obs::RenameStall::SubsetFull ||
            cause == obs::RenameStall::PhysRegExhausted) &&
           params_.deadlockPolicy == DeadlockPolicy::MoveInjection &&
           renamer_.deadlocked(destSubset(op, dec.cluster));
}

void
Core::renameStage()
{
    renamer_.beginCycle(now_);
    unsigned renamed = 0;
    obs::RenameStall cause = obs::RenameStall::FullWidth;
    while (renamed < params_.fetchWidth) {
        cause = entryStall();
        if (cause != obs::RenameStall::FullWidth)
            break;
        const Fetched &f = fetchBuf_[fetchHead_];
        const isa::MicroOp &op = f.op;
        const AllocDecision dec = steer(op);
        cause = placementStall(op, dec);
        if (cause != obs::RenameStall::FullWidth) {
            if (wantsMove(op, dec, cause))
                tryInjectMove(destSubset(op, dec.cluster));
            break;
        }

        const SubsetId tgt = destSubset(op, dec.cluster);
        const RenamedRegs rr = renamer_.rename(op, tgt);
        const std::uint64_t n = robTail_++;
        const std::size_t i = robIx(n);
        // Every field of the recycled slot is (re)written right here, so
        // the full clearRobSlot double-touch is unnecessary on this path.
        rob_.meta[i].state = static_cast<std::uint8_t>(InstState::Waiting);
        rob_.meta[i].waitClass = 0;
        rob_.readyCycle[i] = kNeverCycle;
        rob_.completeCycle[i] = kNeverCycle;
        RobCold &cold = rob_.cold[i];
        cold.op = op;
        cold.expected = f.expected;
        cold.result = 0;
        cold.fetchCycle = f.fetchCycle;
        cold.renameCycle = now_;
        cold.issueCycle = kNeverCycle;
        cold.oldPdst = rr.oldPdst;
        rob_.meta[i].cluster = dec.cluster;
        rob_.meta[i].flags = static_cast<std::uint8_t>(
            (dec.swapped ? kFlagSwapped : 0) |
            (f.mispredicted ? kFlagMispredicted : 0) |
            (op.hasDest() ? kFlagHasDest : 0) |
            (op.commutative ? kFlagCommutative : 0) |
            (op.numSrcs() << kFlagNumSrcsShift));
        rob_.meta[i].cls = op.op;
        rob_.meta[i].psrc1 = rr.psrc1;
        rob_.meta[i].psrc2 = rr.psrc2;
        rob_.meta[i].pdst = rr.pdst;
        rob_.pc[i] = op.pc;
        rob_.effAddr[i] = op.effAddr;
        rob_.memOrdinal[i] =
            isa::isMemOp(op.op) ? lsq_.allocate(op.isStore(), op.effAddr, n)
                                : 0;
        if (op.hasDest())
            prod_[rr.pdst] = {kNeverCycle, dec.cluster};

        if (!isa::isMemOp(op.op))
            subscribeOrSchedule(n);
        ++inflight_[dec.cluster];
        recordAllocation(dec.cluster);

        fetchHead_ = (fetchHead_ + 1) & fetchMask_;
        --fetchCount_;
        ++renamed;
    }
    active_ |= renamed > 0;
    obs_.recordRename(cause);
    renamer_.endCycle(now_);
}

void
Core::fetchStage()
{
    if (fetchStalled_ || now_ < fetchResumeAt_)
        return;
    unsigned fetched = 0;
    while (fetched < params_.fetchWidth &&
           fetchCount_ < params_.fetchQueue) {
        const isa::MicroOp op = gen_.next();
        Fetched &f = fetchBuf_[(fetchHead_ + fetchCount_) & fetchMask_];
        f.op = op;
        f.expected =
            params_.verifyDataflow ? oracle_.execute(op) : 0;
        f.readyAt = now_ + params_.frontEndDepth;
        f.fetchCycle = now_;
        f.mispredicted = false;
        if (op.isBranch()) {
            const bool pred = bp_.lookup(op.pc);
            bp_.update(op.pc, op.taken);
            f.mispredicted = !bp_.isPerfect() && pred != op.taken;
        }
        ++fetchCount_;
        ++fetched;
        if (f.mispredicted) {
            fetchStalled_ = true;
            break;
        }
        if (params_.fetchBreakOnTaken && op.isBranch() && op.taken)
            break;
    }
    active_ |= fetched > 0;
}

void
Core::commitStage()
{
    unsigned width = 0;
    while (width < params_.commitWidth && robHead_ != robTail_) {
        const std::size_t i = robIx(robHead_);
        if (rob_.meta[i].state != static_cast<std::uint8_t>(InstState::Issued) ||
            now_ < rob_.completeCycle[i])
            break;
        const isa::OpClass cls = rob_.meta[i].cls;
        const std::uint8_t flags = rob_.meta[i].flags;
        RobCold &cold = rob_.cold[i];

        if (cls == isa::OpClass::Store) {
            if (params_.verifyDataflow) {
                // Data not captured yet: its producer committed earlier,
                // so the value is available now.
                const std::uint64_t mo = rob_.memOrdinal[i];
                committedMem_.store(rob_.effAddr[i],
                                    lsq_.storeDataReady(mo)
                                        ? lsq_.storeData(mo)
                                        : storeDataValue(i));
            }
            lsq_.popFront();
        } else if (cls == isa::OpClass::Load) {
            lsq_.popFront();
        }

        if (flags & kFlagHasDest) {
            if (params_.verifyDataflow && !(flags & kFlagInjectedMove) &&
                cold.result != cold.expected) {
                ++stats_.valueMismatches;
            }
            renamer_.commitFree(cold.oldPdst, now_);
        }

        if (cls == isa::OpClass::Branch) {
            ++stats_.branches;
            if (flags & kFlagMispredicted)
                ++stats_.mispredicts;
        }

        if (traceSink_)
            emitTrace(i);

        WSRS_ASSERT(inflight_[rob_.meta[i].cluster] > 0);
        --inflight_[rob_.meta[i].cluster];
        ++robHead_;
        ++width;
        if (!(flags & kFlagInjectedMove))
            ++stats_.committed;
    }

    active_ |= width > 0;
    obs_.recordCommit(width > 0 ? obs::CommitStall::Committed
                                : commitStall());
}

obs::CommitStall
Core::commitStall() const
{
    if (robHead_ == robTail_)
        return obs::CommitStall::RobEmpty;
    if (rob_.meta[robIx(robHead_)].state !=
        static_cast<std::uint8_t>(InstState::Issued))
        return obs::CommitStall::HeadNotIssued;
    return obs::CommitStall::HeadExecuting;
}

void
Core::emitTrace(std::size_t i)
{
    const RobCold &cold = rob_.cold[i];
    const std::uint8_t flags = rob_.meta[i].flags;
    obs::UopTrace t;
    t.seq = cold.op.seq;
    t.pc = cold.op.pc;
    t.op = rob_.meta[i].cls;
    t.cluster = rob_.meta[i].cluster;
    t.dstSubset = rob_.meta[i].pdst != kNoPhysReg ? prf_.subsetOf(rob_.meta[i].pdst)
                                             : SubsetId{0xff};
    t.flags = ((flags & kFlagMispredicted) ? obs::kUopMispredicted : 0) |
              ((flags & kFlagInjectedMove) ? obs::kUopInjectedMove : 0);
    t.fetchCycle = cold.fetchCycle;
    t.renameCycle = cold.renameCycle;
    t.readyCycle = rob_.readyCycle[i] != kNeverCycle ? rob_.readyCycle[i]
                                                     : cold.issueCycle;
    t.issueCycle = cold.issueCycle;
    t.completeCycle = rob_.completeCycle[i];
    t.commitCycle = now_;
    traceSink_->record(t);
}

void
Core::runStages()
{
    commitStage();
    captureStoreData();
    issueStage();
    agenStage();
    renameStage();
    fetchStage();
}

void
Core::tick()
{
    active_ = false;
    if (profiler_) {
        obs::StageProfiler &p = *profiler_;
        p.time(obs::StageProfiler::Commit, [&] { commitStage(); });
        p.time(obs::StageProfiler::StoreData, [&] { captureStoreData(); });
        p.time(obs::StageProfiler::Issue, [&] { issueStage(); });
        p.time(obs::StageProfiler::Agen, [&] { agenStage(); });
        p.time(obs::StageProfiler::Rename, [&] { renameStage(); });
        p.time(obs::StageProfiler::Fetch, [&] { fetchStage(); });
    } else {
        runStages();
    }
    obs_.endCycle(now_, stats_.committed, inflight_.data());
    ++now_;
    ++stats_.cycles;
    if (!wbFar_.empty())
        settleWritebacks();
}

void
Core::run(std::uint64_t num_uops)
{
    // Impl-1 renaming pulls and defers registers every cycle, so no cycle
    // of it is quiescent.
    const bool skip = params_.renameImpl != RenameImpl::OverPickRecycle;
    const std::uint64_t target = stats_.committed + num_uops;
    std::uint64_t last_committed = stats_.committed;
    Cycle last_progress = now_;
    while (stats_.committed < target) {
        tick();
        if (stats_.committed != last_committed) {
            last_committed = stats_.committed;
            last_progress = now_;
            continue;
        }
        // The skip never passes the cycle at which the watchdog fires.
        if (skip && !active_)
            skipQuiescent(last_progress + 500001);
        if (now_ - last_progress > 500000) {
            fatal("core '%s': no commit in 500000 cycles at cycle %llu "
                  "(unresolvable deadlock?)",
                  params_.name.c_str(),
                  static_cast<unsigned long long>(now_));
        }
    }
}

Cycle
Core::nextEvent(Cycle limit) const
{
    Cycle next = limit;
    const auto at = [&](Cycle c) {
        if (c >= now_ && c < next)
            next = c;
    };
    if (robHead_ != robTail_) {
        const std::size_t head = robIx(robHead_);
        if (rob_.meta[head].state ==
            static_cast<std::uint8_t>(InstState::Issued))
            at(rob_.completeCycle[head]);
    }
    for (ClusterId c = 0; c < params_.numClusters; ++c) {
        if (readyQ_[c].size() > readyHead_[c]) {
            at(fpDivBusyUntil_[c]);
            at(complexBusyUntil_[params_.sharedComplexUnit ? c >> 1 : c]);
        }
    }
    std::uint64_t rn = 0;
    if (lsq_.nextAgen(rn)) {
        const PhysReg src = rob_.meta[robIx(rn)].psrc1;
        if (src != kNoPhysReg)
            at(prod_[src].readyBase);
    }
    if (fetchCount_ > 0)
        at(fetchBuf_[fetchHead_].readyAt);
    at(fetchResumeAt_);
    for (const auto &[cycle, rob_num] : farWakes_)
        at(cycle);
    return next;
}

Cycle
Core::cyclesToWake(Cycle n) const
{
    // Wheel buckets hold cycles below now_ + kWakeRing only.
    const Cycle horizon = std::min(n, Cycle{kWakeRing});
    for (Cycle k = 0; k < horizon; ++k)
        if (wakeWheel_[(now_ + k) % kWakeRing].cycle == now_ + k)
            return k;
    return n;
}

void
Core::skipQuiescent(Cycle limit)
{
    // The tick just run changed nothing but time and statistics, so every
    // cycle before the next event repeats it. Its interval sample, if one
    // is due, is taken by a real tick.
    Cycle n = std::min(nextEvent(limit) - now_, obs_.cyclesToSample() - 1);
    if (n == 0)
        return;

    // The stall causes are recomputed from the unchanged state, except
    // where rename steers the fetch-buffer head: allocate() draws once
    // per cycle, so replay each cycle's draw and stop before the first
    // one that would rename or try a move. The wake wheel is scanned
    // only as far as the replay got, so a skip that stops at once (a
    // stall move injection keeps retrying) costs no scan.
    obs::PipelineStats::Counts<obs::RenameStall> renames{};
    const auto ix = [](obs::RenameStall c) {
        return static_cast<std::size_t>(c);
    };
    const obs::RenameStall entry = entryStall();
    if (entry != obs::RenameStall::FullWidth) {
        n = cyclesToWake(n);
        renames[ix(entry)] = n;
    } else {
        const isa::MicroOp &op = fetchBuf_[fetchHead_].op;
        const ClusterAllocator::Draws start = alloc_.draws();
        const auto replay = [&](Cycle cycles) {
            renames = {};
            alloc_.setDraws(start);
            for (Cycle k = 0; k < cycles; ++k) {
                const ClusterAllocator::Draws saved = alloc_.draws();
                const AllocDecision dec = steer(op);
                const obs::RenameStall cause = placementStall(op, dec);
                if (cause == obs::RenameStall::FullWidth ||
                    wantsMove(op, dec, cause)) {
                    alloc_.setDraws(saved);
                    return k;
                }
                ++renames[ix(cause)];
            }
            return cycles;
        };
        n = replay(n);
        if (const Cycle wake = cyclesToWake(n); wake < n)
            n = replay(wake);
    }
    if (n == 0)
        return;

    std::array<obs::IssueStall, kMaxClusters> issue{};
    for (ClusterId c = 0; c < params_.numClusters; ++c)
        issue[c] = issueStall(c);
    obs_.creditQuiescent(n, issue.data(), inflight_.data(), renames,
                         commitStall());
    stats_.issueWidthHist[0] += n;
    stats_.cycles += n;
    now_ += n;
    if (!wbFar_.empty())
        settleWritebacks();
}

Core::RegAccounting
Core::regAccounting() const
{
    RegAccounting acc;
    acc.total = prf_.numRegs();
    for (unsigned s = 0; s < prf_.numSubsets(); ++s)
        acc.free += prf_.numFree(static_cast<SubsetId>(s));
    acc.recycling = prf_.inRecycler() + renamer_.staged();
    acc.architectural = isa::kNumLogRegs;
    // Each in-flight destination-producing micro-op holds exactly one
    // outgoing mapping (its oldPdst) that frees at commit; the new
    // mapping is counted as architectural (it is in the map table, or
    // appears as a younger op's oldPdst).
    for (std::uint64_t n = robHead_; n != robTail_; ++n)
        if (rob_.cold[robIx(n)].oldPdst != kNoPhysReg)
            ++acc.inFlight;
    return acc;
}

void
Core::resetStats()
{
    stats_ = CoreStats{};
    groupCount_.fill(0);
    groupFill_ = 0;
    // Wait-token counters are machine state, not measurement: keep them.
    obs_.reset();
}

void
Core::dumpStatsJson(JsonWriter &w) const
{
    const auto stalls = obs::groupRenameStalls(obs_.renameStall());
    w.beginObject()
        .field("machine", params_.name)
        .field("num_clusters", params_.numClusters)
        .field("cycles", stats_.cycles)
        .field("committed", stats_.committed)
        .field("ipc", stats_.ipc())
        .key("counters").beginObject()
        .field("injected_moves", stats_.injectedMoves)
        .field("branches", stats_.branches)
        .field("mispredicts", stats_.mispredicts)
        .field("load_forwards", stats_.loadForwards)
        .field("rename_stall_free_reg", stalls.freeReg)
        .field("rename_stall_window", stalls.window)
        .field("rename_stall_rob", stalls.rob)
        .field("rename_stall_lsq", stalls.lsq)
        .field("unbalanced_groups", stats_.unbalancedGroups)
        .field("total_groups", stats_.totalGroups)
        .field("value_mismatches", stats_.valueMismatches)
        .field("window_occupancy_sum", obs_.windowOccupancySum())
        .endObject()
        .field("issue_width_hist", stats_.issueWidthHist)
        .field("per_cluster_alloc", std::span(stats_.perCluster)
                                        .first(params_.numClusters))
        .key("pipeline");
    obs_.dumpJson(w);
    w.endObject();
}

namespace {

/** One micro-op, in wsrs-ckpt field order. */
template <typename Op, typename Io>
void
transferMicroOp(Op &op, Io &io)
{
    io.u64(op.seq);
    io.u64(op.pc);
    io.u8(op.op);
    ckpt::check(io, static_cast<std::size_t>(op.op) < isa::kNumOpClasses,
                "invalid op class in checkpointed micro-op");
    io.u8(op.src1);
    io.u8(op.src2);
    io.u8(op.dst);
    io.b(op.commutative);
    io.b(op.taken);
    io.u64(op.target);
    io.u64(op.effAddr);
}

} // namespace

template <typename Self, typename Io>
void
Core::transfer(Self &self, Io &io)
{
    // Geometry guard: restore targets must be configured identically.
    // The window capacity (not the power-of-two ring size) is what defines
    // the machine, and matches the pre-SoA stream bytes.
    const char *geometry = "core geometry mismatch: checkpoint was taken on "
                           "a differently configured machine";
    ckpt::expect(io, self.params_.numClusters, 4, geometry);
    ckpt::expect(io, self.params_.numPhysRegs, 4, geometry);
    ckpt::expect(io, self.windowCap_, 8, geometry);
    io.u64(self.now_);

    ckpt::part(io, self.prf_);
    ckpt::part(io, self.renamer_);
    ckpt::part(io, self.alloc_);
    ckpt::part(io, self.lsq_);
    ckpt::part(io, self.oracle_);

    // ROB: live window only, re-assembled per entry in array-of-structs
    // field order. A load clears every slot first and rebuilds the
    // derived fields of each live entry, and the per-cluster counts of
    // in-flight and waiting micro-ops from the entries.
    io.u64(self.robHead_);
    io.u64(self.robTail_);
    ckpt::check(io,
                self.robTail_ >= self.robHead_ &&
                    self.robTail_ - self.robHead_ <= self.windowCap_,
                "ROB window out of range");
    if constexpr (Io::kLoading) {
        for (std::size_t i = 0; i <= self.robMask_; ++i)
            self.clearRobSlot(i);
        self.inflight_.fill(0);
        self.waitLocal_.fill(0);
        self.waitRemote_.fill(0);
    }
    for (std::uint64_t n = self.robHead_; n != self.robTail_; ++n) {
        const std::size_t i = self.robIx(n);
        auto &cold = self.rob_.cold[i];
        auto &meta = self.rob_.meta[i];
        transferMicroOp(cold.op, io);
        io.u64(cold.expected);
        io.u64(cold.result);
        io.u64(self.rob_.memOrdinal[i]);
        io.u64(cold.fetchCycle);
        io.u64(cold.renameCycle);
        io.u64(self.rob_.readyCycle[i]);
        io.u64(cold.issueCycle);
        io.u64(self.rob_.completeCycle[i]);
        io.u16(meta.psrc1);
        io.u16(meta.psrc2);
        io.u16(meta.pdst);
        io.u16(cold.oldPdst);
        io.u8(meta.cluster);
        ckpt::check(io, meta.cluster < self.params_.numClusters,
                    "in-flight micro-op cluster out of range");
        bool swapped = meta.flags & kFlagSwapped;
        bool injected = meta.flags & kFlagInjectedMove;
        bool mispredicted = meta.flags & kFlagMispredicted;
        io.b(swapped);
        io.b(injected);
        io.b(mispredicted);
        io.u8(meta.state);
        ckpt::check(io, meta.state <= 1, "invalid in-flight micro-op state");
        io.u8(meta.waitClass);
        ckpt::check(io, meta.waitClass <= 2,
                    "invalid in-flight micro-op wait class");
        if constexpr (Io::kLoading) {
            ++self.inflight_[meta.cluster];
            if (meta.waitClass != 0)
                ++(meta.waitClass == 2 ? self.waitRemote_
                                       : self.waitLocal_)[meta.cluster];
            meta.cls = cold.op.op;
            self.rob_.pc[i] = cold.op.pc;
            self.rob_.effAddr[i] = cold.op.effAddr;
            meta.flags = static_cast<std::uint8_t>(
                (swapped ? kFlagSwapped : 0) |
                (injected ? kFlagInjectedMove : 0) |
                (mispredicted ? kFlagMispredicted : 0) |
                (cold.op.hasDest() ? kFlagHasDest : 0) |
                (cold.op.commutative ? kFlagCommutative : 0) |
                (cold.op.numSrcs() << kFlagNumSrcsShift));
        }
    }

    // Only the live range [head, end) of each ready list is state; the
    // dead prefix is a transient compaction artifact. The byte layout
    // matches writeVec over a head-free list.
    for (ClusterId c = 0; c < kMaxClusters; ++c) {
        auto &q = self.readyQ_[c];
        if constexpr (Io::kLoading) {
            ckpt::vec(io, q);
            self.readyHead_[c] = 0;
        } else {
            io.u64(q.size() - self.readyHead_[c]);
            for (std::size_t k = self.readyHead_[c]; k < q.size(); ++k)
                io.u64(q[k]);
        }
    }
    // Wake-up tokens: each list as a count and its ROB numbers in FIFO
    // order. A load relinks every token, and rejects one outside the
    // window or a slot already holding a token (each waiting micro-op
    // holds one; a second link would corrupt both lists).
    std::vector<bool> holdsToken;
    if constexpr (Io::kLoading)
        holdsToken.assign(self.robMask_ + 1, false);
    const auto token = [&](std::uint64_t rob_num) {
        ckpt::check(io, rob_num >= self.robHead_ && rob_num < self.robTail_,
                    "wake-up token outside the ROB window");
        const std::size_t i = self.robIx(rob_num);
        ckpt::check(io, !holdsToken[i], "ROB slot holds two wake-up tokens");
        holdsToken[i] = true;
        return i;
    };
    const auto tokens = [&](auto &list) {
        if constexpr (Io::kLoading) {
            list = {};
            const std::uint64_t n = ckpt::count(io, 0, 8);
            for (std::uint64_t k = 0; k < n; ++k)
                self.pushToken(list, token(io.u64()));
        } else {
            std::uint64_t n = 0;
            for (std::uint32_t i = list.head; i != kNoSlot;
                 i = self.tokenNext_[i])
                ++n;
            io.u64(n);
            for (std::uint32_t i = list.head; i != kNoSlot;
                 i = self.tokenNext_[i])
                io.u64(self.robNumOf(i));
        }
    };
    ckpt::expect(io, self.regWaiters_.size(), 8,
                 "register-waiter table size mismatch");
    for (auto &waiters : self.regWaiters_)
        tokens(waiters);

    // Wake wheel: only buckets scheduled at or after `now_` are live
    // (scheduleWake lazily reclaims stale slots by overwriting them).
    if constexpr (Io::kLoading) {
        for (WakeBucket &b : self.wakeWheel_)
            b = {};
        const std::uint64_t live = io.u64();
        for (std::uint64_t k = 0; k < live; ++k) {
            const Cycle cycle = io.u64();
            ckpt::check(io, cycle >= self.now_,
                        "wake-wheel bucket in the past");
            ckpt::check(io, cycle - self.now_ < kWakeRing,
                        "wake-wheel bucket beyond the wheel");
            WakeBucket &b = self.wakeWheel_[cycle % kWakeRing];
            ckpt::check(io, b.cycle == kNeverCycle,
                        "two wake-wheel buckets share a slot");
            b.cycle = cycle;
            tokens(b.tokens);
        }
    } else {
        const auto isLive = [&](const WakeBucket &b) {
            return b.cycle != kNeverCycle && b.cycle >= self.now_ &&
                   !b.tokens.empty();
        };
        io.u64(std::count_if(self.wakeWheel_.begin(), self.wakeWheel_.end(),
                             isLive));
        for (const WakeBucket &b : self.wakeWheel_) {
            if (isLive(b)) {
                io.u64(b.cycle);
                tokens(b.tokens);
            }
        }
    }
    const std::uint64_t far =
        ckpt::count(io, self.farWakes_.size(), 16, "far wake");
    if constexpr (Io::kLoading)
        self.farWakes_.assign(far, {});
    for (auto &[cycle, rob_num] : self.farWakes_) {
        io.u64(cycle);
        io.u64(rob_num);
        if constexpr (Io::kLoading)
            token(rob_num);
    }

    ckpt::expect(io, self.prod_.size(), 8, "producer table size mismatch");
    for (auto &p : self.prod_) {
        io.u64(p.readyBase);
        io.u8(p.cluster);
    }

    for (auto &c : self.complexBusyUntil_)
        io.u64(c);
    for (auto &c : self.fpDivBusyUntil_)
        io.u64(c);

    // Write-back reservations: only future ones matter. Each cluster's
    // list holds its ring entries in slot order, then its wbFar_ entries.
    ckpt::expect(io, self.wbSlots_.size(), 8,
                 "write-back ring count mismatch");
    if constexpr (Io::kLoading)
        self.wbFar_.clear();
    for (ClusterId c = 0; c < self.wbSlots_.size(); ++c) {
        auto &ring = self.wbSlots_[c];
        if constexpr (Io::kLoading) {
            ring.fill(WbSlot{});
            const std::uint64_t active = ckpt::count(io, 0, 9, "write-back");
            for (std::uint64_t k = 0; k < active; ++k) {
                const Cycle cycle = io.u64();
                ckpt::check(io, cycle >= self.now_,
                            "write-back reservation in the past");
                const std::uint8_t count = io.u8();
                if (cycle - self.now_ >= kWbRing) {
                    self.wbFar_.push_back({cycle, c, count});
                    continue;
                }
                WbSlot &s = ring[cycle % kWbRing];
                ckpt::check(io, s.cycle == kNeverCycle,
                            "two write-back reservations share a slot");
                s = {cycle, count};
            }
        } else {
            const auto isActive = [&](const WbSlot &s) {
                return s.cycle != kNeverCycle && s.cycle >= self.now_ &&
                       s.count > 0;
            };
            const auto far = [&](const WbFar &f) { return f.cluster == c; };
            io.u64(std::count_if(ring.begin(), ring.end(), isActive) +
                   std::count_if(self.wbFar_.begin(), self.wbFar_.end(),
                                 far));
            for (const WbSlot &s : ring) {
                if (isActive(s)) {
                    io.u64(s.cycle);
                    io.u8(s.count);
                }
            }
            for (const WbFar &f : self.wbFar_) {
                if (far(f)) {
                    io.u64(f.cycle);
                    io.u8(f.count);
                }
            }
        }
    }

    // Fetch queue, oldest first; a load re-bases the ring at slot 0.
    std::uint64_t fq = self.fetchCount_;
    io.u64(fq);
    ckpt::check(io, fq <= self.fetchBuf_.size(),
                "fetch queue occupancy out of range");
    if constexpr (Io::kLoading) {
        self.fetchHead_ = 0;
        self.fetchCount_ = static_cast<std::size_t>(fq);
    }
    for (std::size_t k = 0; k < fq; ++k) {
        auto &f = self.fetchBuf_[(self.fetchHead_ + k) & self.fetchMask_];
        transferMicroOp(f.op, io);
        io.u64(f.expected);
        io.u64(f.readyAt);
        io.u64(f.fetchCycle);
        io.b(f.mispredicted);
    }
    io.b(self.fetchStalled_);
    io.u64(self.fetchResumeAt_);

    ckpt::vec(io, self.pendingStoreData_);

    ckpt::part(io, self.committedMem_);

    for (auto &g : self.groupCount_)
        io.u64(g);
    io.u32(self.groupFill_);

    // Measurement state.
    CoreStats::transfer(self.stats_, io);
    ckpt::part(io, self.obs_);
    ckpt::expectEnd(io, "trailing bytes after core state");
}

void Core::snapshot(ckpt::Writer &w) const { transfer(*this, w); }
void Core::restore(ckpt::Reader &r) { transfer(*this, r); }

} // namespace wsrs::core
