/**
 * @file
 * Alpha 21264 (EV6)-style tournament predictor: a local-history predictor
 * (per-PC history table indexing a pattern table) and a global predictor,
 * arbitrated by a global-history-indexed chooser. The paper's clusters are
 * EV6-like, so this is the natural historical baseline to compare the
 * EV8-class 2Bc-gskew against (ablation A5).
 */
#pragma once

#include <vector>

#include "src/bpred/predictor.h"

namespace wsrs::bpred {

/** EV6-class tournament direction predictor (~36 Kbit default). */
class TournamentPredictor : public BranchPredictor
{
  public:
    struct Params
    {
        unsigned logLocalHist = 10;   ///< 1K local-history entries.
        unsigned localHistBits = 10;  ///< Bits of local history kept.
        unsigned logLocalPht = 10;    ///< 1K x 3-bit local counters.
        unsigned logGlobal = 12;      ///< 4K x 2-bit global counters.
        unsigned logChooser = 12;     ///< 4K x 2-bit chooser counters.
    };

    TournamentPredictor();
    explicit TournamentPredictor(const Params &params);

    bool lookup(Addr pc) override;
    void update(Addr pc, bool taken) override;

    std::uint64_t storageBits() const override;
    std::string name() const override { return "tournament"; }

    void snapshot(ckpt::Writer &w) const override { transfer(*this, w); }
    void restore(ckpt::Reader &r) override { transfer(*this, r); }

  private:
    template <typename Self, typename Io>
    static void
    transfer(Self &self, Io &io)
    {
        io.u64(self.history_);
        ckpt::vecExact(io, self.localHist_, "tournament local history");
        transferTable(io, self.localPht_, "tournament local pht");
        transferTable(io, self.global_, "tournament global");
        transferTable(io, self.chooser_, "tournament chooser");
    }

    std::size_t localHistIndex(Addr pc) const;
    std::size_t globalIndex() const;

    Params params_;
    std::vector<std::uint16_t> localHist_;
    std::vector<SatCounter<3>> localPht_;
    std::vector<SatCounter<2>> global_;
    std::vector<SatCounter<2>> chooser_; ///< taken() = use global.
    std::uint64_t history_ = 0;
};

} // namespace wsrs::bpred
