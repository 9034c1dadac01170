#include "tournament.h"

namespace wsrs::bpred {

TournamentPredictor::TournamentPredictor()
    : TournamentPredictor(Params{})
{
}

TournamentPredictor::TournamentPredictor(const Params &params)
    : params_(params),
      localHist_(std::size_t{1} << params.logLocalHist, 0),
      localPht_(std::size_t{1} << params.logLocalPht, SatCounter<3>(3)),
      global_(std::size_t{1} << params.logGlobal, SatCounter<2>(1)),
      chooser_(std::size_t{1} << params.logChooser, SatCounter<2>(1))
{
}

std::size_t
TournamentPredictor::localHistIndex(Addr pc) const
{
    return (pc >> 2) & ((std::size_t{1} << params_.logLocalHist) - 1);
}

std::size_t
TournamentPredictor::globalIndex() const
{
    return history_ & ((std::size_t{1} << params_.logGlobal) - 1);
}

bool
TournamentPredictor::lookup(Addr pc)
{
    const std::uint16_t lh = localHist_[localHistIndex(pc)];
    const bool local = localPht_[lh & ((1u << params_.logLocalPht) - 1)]
                           .taken();
    const bool global = global_[globalIndex()].taken();
    const bool use_global =
        chooser_[history_ & ((std::size_t{1} << params_.logChooser) - 1)]
            .taken();
    return use_global ? global : local;
}

void
TournamentPredictor::update(Addr pc, bool taken)
{
    const std::size_t lhi = localHistIndex(pc);
    const std::uint16_t lh = localHist_[lhi];
    const std::size_t lpi = lh & ((1u << params_.logLocalPht) - 1);
    const std::size_t gi = globalIndex();
    const std::size_t ci =
        history_ & ((std::size_t{1} << params_.logChooser) - 1);

    const bool local = localPht_[lpi].taken();
    const bool global = global_[gi].taken();

    // The chooser trains toward whichever component was right when they
    // disagree.
    if (local != global)
        chooser_[ci].train(global == taken);

    localPht_[lpi].train(taken);
    global_[gi].train(taken);

    localHist_[lhi] = static_cast<std::uint16_t>(
        ((lh << 1) | (taken ? 1 : 0)) &
        ((1u << params_.localHistBits) - 1));
    history_ = (history_ << 1) | (taken ? 1 : 0);
}

std::uint64_t
TournamentPredictor::storageBits() const
{
    return localHist_.size() * params_.localHistBits +
           localPht_.size() * 3 + global_.size() * 2 +
           chooser_.size() * 2;
}

} // namespace wsrs::bpred
