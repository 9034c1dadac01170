/**
 * @file
 * Conditional branch direction predictor interface.
 *
 * The paper assumes perfect branch *target* prediction (PC-relative targets
 * resolve early, returns use a return stack, indirect jumps are rare), so
 * only direction prediction is modeled. The front end looks a branch up,
 * compares against the trace outcome, and updates the predictor immediately
 * (trace-driven idealization: history repair after a misprediction is
 * perfect, which matches the paper's idealized front end).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/ckpt/snapshotter.h"
#include "src/common/types.h"

namespace wsrs::bpred {

/**
 * Direction predictor with internal global-history management.
 *
 * Predictors are checkpointable (ckpt::Snapshotter): snapshot/restore must
 * round-trip all tables and history so a restored predictor produces the
 * same lookup/update stream as the original.
 */
class BranchPredictor : public ckpt::Snapshotter
{
  public:
    ~BranchPredictor() override = default;

    /** Predict the direction of the conditional branch at @p pc. */
    virtual bool lookup(Addr pc) = 0;

    /**
     * Train with the resolved outcome and advance the global history.
     * Must be called exactly once per lookup, in the same order.
     */
    virtual void update(Addr pc, bool taken) = 0;

    /** Storage budget in bits (0 for idealized predictors). */
    virtual std::uint64_t storageBits() const = 0;

    /** Idealized oracle predictors never mispredict. */
    virtual bool isPerfect() const { return false; }

    /** Short identifying name. */
    virtual std::string name() const = 0;
};

/**
 * Saturating @p Bits-bit counter in one byte. The width belongs to the
 * counter's type, so a table of 64 K counters costs 64 KB.
 */
template <unsigned Bits>
class SatCounter
{
    static_assert(Bits >= 1 && Bits <= 8, "a counter fits one byte");

  public:
    static constexpr std::uint8_t kMax =
        static_cast<std::uint8_t>((1u << Bits) - 1);

    explicit SatCounter(std::uint8_t init = 0) : value_(init) {}

    void increment() { if (value_ < kMax) ++value_; }
    void decrement() { if (value_ > 0) --value_; }
    /** Train toward an outcome. */
    void train(bool taken) { taken ? increment() : decrement(); }

    /** Most-significant-bit "predict taken" reading. */
    bool taken() const { return value_ > kMax / 2; }
    std::uint8_t value() const { return value_; }
    /** Checkpoint restore: overwrite the count (clamped to the range). */
    void set(std::uint8_t v) { value_ = v > kMax ? kMax : v; }

  private:
    std::uint8_t value_;
};

/** Save or load a saturating-counter table; its size is configuration. */
template <typename Io, typename Table>
void
transferTable(Io &io, Table &t, const char *what)
{
    std::uint64_t n = t.size();
    io.u64(n);
    if constexpr (Io::kLoading) {
        if (n != t.size())
            io.fail(std::string(what) + ": table size " + std::to_string(n) +
                    " != configured " + std::to_string(t.size()));
    }
    for (auto &c : t) {
        std::uint8_t v = c.value();
        io.u8(v);
        if constexpr (Io::kLoading)
            c.set(v);
    }
}

} // namespace wsrs::bpred
