#include "src/workload/memory_image.h"

#include <algorithm>
#include <string>

namespace wsrs::workload {

void
MemoryImage::clear()
{
    pageIndex_ = FlatMap64();
    pages_.clear();
    alignedCount_ = 0;
    unaligned_.clear();
}

void
MemoryImage::snapshot(ckpt::Writer &w) const
{
    // Pages in ascending page number give the aligned keys in address
    // order; the unaligned keys are merged in as they fall between them.
    std::vector<const Page *> order;
    order.reserve(pages_.size());
    for (const auto &p : pages_)
        order.push_back(p.get());
    std::sort(order.begin(), order.end(), [](const Page *x, const Page *y) {
        return x->number < y->number;
    });

    w.u64(size());
    auto side = unaligned_.begin();
    const auto put = [&w](Addr a, std::uint64_t v) {
        w.u64(a);
        w.u64(v);
    };
    for (const Page *p : order) {
        const Addr base = p->number << kPageShift;
        for (unsigned word = 0; word < p->present.size(); ++word) {
            for (std::uint64_t bits = p->present[word]; bits != 0;
                 bits &= bits - 1) {
                const unsigned slot =
                    word * 64 + static_cast<unsigned>(__builtin_ctzll(bits));
                const Addr a = base + (Addr{slot} << 3);
                for (; side != unaligned_.end() && side->first < a; ++side)
                    put(side->first, side->second);
                put(a, p->value[slot]);
            }
        }
    }
    for (; side != unaligned_.end(); ++side)
        put(side->first, side->second);
}

void
MemoryImage::restore(ckpt::Reader &r)
{
    clear();
    const std::uint64_t n = r.u64();
    if (n > r.remaining() / 16)
        r.fail("memory image count " + std::to_string(n) +
               " exceeds the remaining payload");
    for (std::uint64_t i = 0; i < n; ++i) {
        const Addr a = r.u64();
        store(a, r.u64());
    }
}

} // namespace wsrs::workload
