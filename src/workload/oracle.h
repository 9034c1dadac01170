/**
 * @file
 * In-order architectural executor used as the golden reference.
 *
 * The oracle executes the micro-op stream strictly in program order against
 * the dataflow-value semantics of dataflow.h. The out-of-order core must
 * produce the same destination value for every committed micro-op; the
 * integration tests compare them instruction by instruction.
 */
#pragma once

#include <array>
#include <cstdint>

#include "src/ckpt/snapshotter.h"
#include "src/isa/micro_op.h"
#include "src/workload/dataflow.h"
#include "src/workload/memory_image.h"

namespace wsrs::workload {

/** Golden in-order executor over architectural register and memory state. */
class OracleExecutor : public ckpt::Snapshotter
{
  public:
    OracleExecutor()
    {
        for (unsigned r = 0; r < isa::kNumLogRegs; ++r)
            regs_[r] = initRegValue(static_cast<LogReg>(r));
    }

    /**
     * Execute one micro-op in program order.
     *
     * @return the value written to the destination register, or 0 when the
     *         micro-op has no destination (stores, branches).
     */
    std::uint64_t
    execute(const isa::MicroOp &op)
    {
        const std::uint64_t s1 =
            op.src1 != kNoLogReg ? regs_[op.src1] : 0;
        const std::uint64_t s2 =
            op.src2 != kNoLogReg ? regs_[op.src2] : 0;
        if (op.isStore()) {
            mem_.store(op.effAddr, storeValue(op, s1, s2));
            return 0;
        }
        std::uint64_t result = 0;
        if (op.hasDest()) {
            const std::uint64_t mv = op.isLoad() ? loadMem(op.effAddr) : 0;
            result = execValue(op, s1, s2, mv);
            regs_[op.dst] = result;
        }
        return result;
    }

    /** Current architectural value of a logical register. */
    std::uint64_t reg(LogReg r) const { return regs_[r]; }

    /** Current memory value at an address (init pattern if never stored). */
    std::uint64_t loadMem(Addr a) const { return mem_.load(a); }

    void snapshot(ckpt::Writer &w) const override { transfer(*this, w); }
    void restore(ckpt::Reader &r) override { transfer(*this, r); }

  private:
    template <typename Self, typename Io>
    static void
    transfer(Self &self, Io &io)
    {
        for (auto &v : self.regs_)
            io.u64(v);
        ckpt::part(io, self.mem_);
    }

    std::array<std::uint64_t, isa::kNumLogRegs> regs_{};
    MemoryImage mem_;
};

} // namespace wsrs::workload
