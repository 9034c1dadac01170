/**
 * @file
 * Baseline predictors: always/perfect, bimodal, and gshare. Used by the
 * branch-prediction ablation bench and as components of tests.
 */
#pragma once

#include <vector>

#include "src/bpred/predictor.h"

namespace wsrs::bpred {

/** Idealized oracle: the front end never mispredicts. */
class PerfectPredictor : public BranchPredictor
{
  public:
    bool lookup(Addr) override { return true; }
    void update(Addr, bool) override {}
    std::uint64_t storageBits() const override { return 0; }
    std::string name() const override { return "perfect"; }
    bool isPerfect() const override { return true; }

    // Stateless: nothing to checkpoint.
    void snapshot(ckpt::Writer &) const override {}
    void restore(ckpt::Reader &) override {}
};

/** Classic per-PC 2-bit bimodal table. */
class BimodalPredictor : public BranchPredictor
{
  public:
    /** @param log_entries log2 of the table size. */
    explicit BimodalPredictor(unsigned log_entries = 14)
        : mask_((1u << log_entries) - 1),
          table_(std::size_t{1} << log_entries, SatCounter<2>(1))
    {
    }

    bool lookup(Addr pc) override { return table_[index(pc)].taken(); }

    void
    update(Addr pc, bool taken) override
    {
        table_[index(pc)].train(taken);
    }

    std::uint64_t storageBits() const override { return table_.size() * 2; }
    std::string name() const override { return "bimodal"; }

    void snapshot(ckpt::Writer &w) const override { transfer(*this, w); }
    void restore(ckpt::Reader &r) override { transfer(*this, r); }

  private:
    template <typename Self, typename Io>
    static void
    transfer(Self &self, Io &io)
    {
        transferTable(io, self.table_, "bimodal");
    }

    std::size_t index(Addr pc) const { return (pc >> 2) & mask_; }

    std::size_t mask_;
    std::vector<SatCounter<2>> table_;
};

/** gshare: global history XOR PC indexing a 2-bit table. */
class GsharePredictor : public BranchPredictor
{
  public:
    /**
     * @param log_entries log2 of the table size.
     * @param hist_len global history length in branches.
     */
    explicit GsharePredictor(unsigned log_entries = 16,
                             unsigned hist_len = 14)
        : mask_((std::size_t{1} << log_entries) - 1), histLen_(hist_len),
          table_(std::size_t{1} << log_entries, SatCounter<2>(1))
    {
    }

    bool lookup(Addr pc) override { return table_[index(pc)].taken(); }

    void
    update(Addr pc, bool taken) override
    {
        table_[index(pc)].train(taken);
        history_ = ((history_ << 1) | (taken ? 1 : 0)) &
                   ((std::uint64_t{1} << histLen_) - 1);
    }

    std::uint64_t storageBits() const override { return table_.size() * 2; }
    std::string name() const override { return "gshare"; }

    void snapshot(ckpt::Writer &w) const override { transfer(*this, w); }
    void restore(ckpt::Reader &r) override { transfer(*this, r); }

  private:
    template <typename Self, typename Io>
    static void
    transfer(Self &self, Io &io)
    {
        io.u64(self.history_);
        transferTable(io, self.table_, "gshare");
    }

    std::size_t
    index(Addr pc) const
    {
        return ((pc >> 2) ^ history_) & mask_;
    }

    std::size_t mask_;
    unsigned histLen_;
    std::uint64_t history_ = 0;
    std::vector<SatCounter<2>> table_;
};

} // namespace wsrs::bpred
