#include "rename.h"

#include <algorithm>

namespace wsrs::core {

Renamer::Renamer(PhysRegFile &prf, RenameImpl impl, unsigned group_width,
                 unsigned recycle_delay)
    : prf_(prf), impl_(impl), groupWidth_(group_width),
      recycleDelay_(recycle_delay), archCount_(prf.numSubsets(), 0),
      staged_(prf.numSubsets())
{
    if (prf.numRegs() < isa::kNumLogRegs)
        fatal("%u physical registers cannot back %u logical registers",
              prf.numRegs(), isa::kNumLogRegs);
}

void
Renamer::initMapping(std::uint64_t (*init_value)(LogReg))
{
    // Distribute the architectural state round-robin over the subsets so no
    // subset starts disproportionately full.
    for (unsigned r = 0; r < isa::kNumLogRegs; ++r) {
        const SubsetId s =
            static_cast<SubsetId>(r % prf_.numSubsets());
        WSRS_ASSERT(prf_.numFree(s) > 0);
        const PhysReg p = prf_.allocate(s);
        map_[r] = p;
        ++archCount_[s];
        prf_.setValue(p, init_value(static_cast<LogReg>(r)));
    }
}

void
Renamer::beginCycle(Cycle now)
{
    prf_.drainRecycler(now);
    if (impl_ != RenameImpl::OverPickRecycle)
        return;
    // Impl-1: speculatively pull up to groupWidth registers from every
    // subset; whatever the renamed group does not consume is recycled.
    for (unsigned s = 0; s < prf_.numSubsets(); ++s) {
        auto &stage = staged_[s];
        while (stage.size() < groupWidth_ &&
               prf_.numFree(static_cast<SubsetId>(s)) > 0) {
            stage.push_back(prf_.allocate(static_cast<SubsetId>(s)));
        }
    }
}

bool
Renamer::canAllocate(SubsetId s) const
{
    if (impl_ == RenameImpl::OverPickRecycle)
        return !staged_[s].empty();
    return prf_.numFree(s) > 0;
}

unsigned
Renamer::available(SubsetId s) const
{
    if (impl_ == RenameImpl::OverPickRecycle)
        return static_cast<unsigned>(staged_[s].size());
    return prf_.numFree(s);
}

unsigned
Renamer::staged() const
{
    unsigned n = 0;
    for (const auto &stage : staged_)
        n += static_cast<unsigned>(stage.size());
    return n;
}

RenamedRegs
Renamer::rename(const isa::MicroOp &op, SubsetId target_subset)
{
    RenamedRegs out;
    if (op.src1 != kNoLogReg)
        out.psrc1 = map_[op.src1];
    if (op.src2 != kNoLogReg)
        out.psrc2 = map_[op.src2];
    if (!op.hasDest())
        return out;

    WSRS_ASSERT(canAllocate(target_subset));
    if (impl_ == RenameImpl::OverPickRecycle) {
        out.pdst = staged_[target_subset].back();
        staged_[target_subset].pop_back();
    } else {
        out.pdst = prf_.allocate(target_subset);
    }

    out.oldPdst = map_[op.dst];
    --archCount_[prf_.subsetOf(out.oldPdst)];
    ++archCount_[target_subset];
    map_[op.dst] = out.pdst;
    return out;
}

void
Renamer::endCycle(Cycle now)
{
    if (impl_ != RenameImpl::OverPickRecycle)
        return;
    for (auto &stage : staged_) {
        for (const PhysReg p : stage)
            prf_.releaseDeferred(p, now + recycleDelay_);
        stage.clear();
    }
}

void
Renamer::commitFree(PhysReg old_pdst, Cycle now)
{
    if (impl_ == RenameImpl::OverPickRecycle)
        prf_.releaseDeferred(old_pdst, now + recycleDelay_);
    else
        prf_.release(old_pdst);
}

template <typename Self, typename Io>
void
Renamer::transfer(Self &self, Io &io)
{
    // The per-subset occupancy counts are the map's histogram, rebuilt
    // on load.
    if constexpr (Io::kLoading)
        std::fill(self.archCount_.begin(), self.archCount_.end(), 0);
    for (auto &p : self.map_) {
        io.u32(p);
        ckpt::check(io, p < self.prf_.numRegs(),
                    "rename map entry out of range");
        if constexpr (Io::kLoading)
            ++self.archCount_[self.prf_.subsetOf(p)];
    }
    ckpt::expect(io, self.staged_.size(), 8, "staging-buffer count mismatch");
    for (auto &stage : self.staged_)
        ckpt::vec(io, stage);
}

void Renamer::snapshot(ckpt::Writer &w) const { transfer(*this, w); }
void Renamer::restore(ckpt::Reader &r) { transfer(*this, r); }

} // namespace wsrs::core
