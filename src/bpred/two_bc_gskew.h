/**
 * @file
 * The 2Bc-gskew hybrid predictor (Seznec & Michaud 1999; EV8 variant).
 *
 * Four 2-bit counter banks:
 *  - BIM  : bimodal, indexed by PC only;
 *  - G0,G1: gshare-style banks indexed by distinct skewed hashes of
 *           (PC, global history), G1 using a longer history;
 *  - META : chooser between BIM and the e-gskew majority vote.
 *
 * Prediction: majority(BIM, G0, G1) when META says "use e-gskew", BIM
 * otherwise.
 *
 * Partial-update policy (as published):
 *  - on a correct prediction, strengthen only the banks that agreed with
 *    the outcome (and only those that participated in the prediction);
 *  - on a misprediction, train all three direction banks toward the
 *    outcome;
 *  - META trains toward the component (BIM vs majority) that was right
 *    whenever the two disagree.
 *
 * The default geometry spends the paper's 512 Kbit budget: four banks of
 * 64 K 2-bit counters.
 */
#pragma once

#include <vector>

#include "src/bpred/predictor.h"

namespace wsrs::bpred {

/** EV8-class 2Bc-gskew direction predictor. */
class TwoBcGskew : public BranchPredictor
{
  public:
    /** Geometry parameters. */
    struct Params
    {
        unsigned logEntries = 16;  ///< log2 counters per bank (4 banks).
        unsigned histLenG0 = 11;   ///< history bits hashed into G0.
        unsigned histLenG1 = 21;   ///< history bits hashed into G1.
    };

    TwoBcGskew();
    explicit TwoBcGskew(const Params &params);

    bool lookup(Addr pc) override;
    void update(Addr pc, bool taken) override;

    std::uint64_t
    storageBits() const override
    {
        return 4ull * bim_.size() * 2;
    }

    std::string name() const override { return "2bc-gskew"; }

    /** Current global history register value (testing hook). */
    std::uint64_t history() const { return history_; }

    void snapshot(ckpt::Writer &w) const override { transfer(*this, w); }
    void restore(ckpt::Reader &r) override { transfer(*this, r); }

  private:
    template <typename Self, typename Io>
    static void
    transfer(Self &self, Io &io)
    {
        io.u64(self.history_);
        transferTable(io, self.bim_, "2bc-gskew bim");
        transferTable(io, self.g0_, "2bc-gskew g0");
        transferTable(io, self.g1_, "2bc-gskew g1");
        transferTable(io, self.meta_, "2bc-gskew meta");
    }

    std::size_t indexBim(Addr pc) const;
    std::size_t indexG0(Addr pc) const;
    std::size_t indexG1(Addr pc) const;
    std::size_t indexMeta(Addr pc) const;

    Params params_;
    std::size_t mask_;
    std::vector<SatCounter<2>> bim_, g0_, g1_, meta_;
    std::uint64_t history_ = 0;
};

} // namespace wsrs::bpred
