#include "phys_regfile.h"

namespace wsrs::core {

PhysRegFile::PhysRegFile(unsigned num_regs, unsigned num_subsets)
    : numSubsets_(num_subsets)
{
    if (num_subsets == 0 || num_regs % num_subsets != 0)
        fatal("physical register count %u not divisible into %u subsets",
              num_regs, num_subsets);
    subsetSize_ = num_regs / num_subsets;
    values_.assign(num_regs, 0);
    subsetOf_.resize(num_regs);
    for (unsigned p = 0; p < num_regs; ++p)
        subsetOf_[p] = static_cast<SubsetId>(p / subsetSize_);
    freeLists_.resize(num_subsets);
    for (unsigned s = 0; s < num_subsets; ++s) {
        // Populate in descending order so allocation starts from the
        // subset's low registers (deterministic and cache-friendly).
        auto &list = freeLists_[s];
        list.reserve(subsetSize_);
        for (unsigned i = subsetSize_; i-- > 0;)
            list.push_back(static_cast<PhysReg>(s * subsetSize_ + i));
    }
    std::size_t cap = 1;
    while (cap < num_regs + 1u)
        cap <<= 1;
    recycler_.resize(cap);
    recyclerMask_ = cap - 1;
}

PhysReg
PhysRegFile::allocate(SubsetId s)
{
    auto &list = freeLists_[s];
    WSRS_ASSERT(!list.empty());
    const PhysReg p = list.back();
    list.pop_back();
    return p;
}

void
PhysRegFile::release(PhysReg p)
{
    freeLists_[subsetOf(p)].push_back(p);
}

void
PhysRegFile::releaseDeferred(PhysReg p, Cycle available_at)
{
    WSRS_ASSERT(recyclerSize_ == 0 ||
                recycler_[(recyclerHead_ + recyclerSize_ - 1) & recyclerMask_]
                        .availableAt <= available_at);
    WSRS_ASSERT(recyclerSize_ <= recyclerMask_);
    recycler_[(recyclerHead_ + recyclerSize_) & recyclerMask_] = {available_at,
                                                                 p};
    ++recyclerSize_;
}

void
PhysRegFile::drainRecycler(Cycle now)
{
    while (recyclerSize_ > 0 && recycler_[recyclerHead_].availableAt <= now) {
        release(recycler_[recyclerHead_].reg);
        recyclerHead_ = (recyclerHead_ + 1) & recyclerMask_;
        --recyclerSize_;
    }
}

template <typename Self, typename Io>
void
PhysRegFile::transfer(Self &self, Io &io)
{
    const char *geometry = "physical register file geometry mismatch";
    ckpt::expect(io, self.numRegs(), 4, geometry);
    ckpt::expect(io, self.numSubsets_, 4, geometry);
    for (auto &v : self.values_)
        io.u64(v);
    for (auto &list : self.freeLists_) {
        ckpt::vec(io, list);
        ckpt::check(io, list.size() <= self.subsetSize_,
                    "free list larger than its subset");
    }
    // Live recycler entries only, oldest first; a load re-bases the ring.
    std::uint64_t n = self.recyclerSize_;
    io.u64(n);
    ckpt::check(io, n <= self.recyclerMask_,
                "recycler occupancy exceeds register count");
    if constexpr (Io::kLoading) {
        self.recyclerHead_ = 0;
        self.recyclerSize_ = static_cast<std::size_t>(n);
    }
    for (std::size_t k = 0; k < n; ++k) {
        auto &e = self.recycler_[(self.recyclerHead_ + k) & self.recyclerMask_];
        io.u64(e.availableAt);
        io.u32(e.reg);
    }
}

void PhysRegFile::snapshot(ckpt::Writer &w) const { transfer(*this, w); }
void PhysRegFile::restore(ckpt::Reader &r) { transfer(*this, r); }

} // namespace wsrs::core
