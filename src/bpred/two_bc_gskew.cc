#include "two_bc_gskew.h"

#include "src/common/hash.h"

namespace wsrs::bpred {

namespace {

/** Skewing hash: fold a 64-bit mix down to @p bits. */
std::size_t
fold(std::uint64_t x, unsigned bits)
{
    x = mix64(x);
    return static_cast<std::size_t>((x ^ (x >> bits) ^ (x >> (2 * bits))) &
                                    ((std::uint64_t{1} << bits) - 1));
}

} // namespace

TwoBcGskew::TwoBcGskew() : TwoBcGskew(Params{}) {}

TwoBcGskew::TwoBcGskew(const Params &params)
    : params_(params),
      mask_((std::size_t{1} << params.logEntries) - 1),
      bim_(std::size_t{1} << params.logEntries, SatCounter<2>(1)),
      g0_(std::size_t{1} << params.logEntries, SatCounter<2>(1)),
      g1_(std::size_t{1} << params.logEntries, SatCounter<2>(1)),
      meta_(std::size_t{1} << params.logEntries, SatCounter<2>(2))
{
}

std::size_t
TwoBcGskew::indexBim(Addr pc) const
{
    return (pc >> 2) & mask_;
}

std::size_t
TwoBcGskew::indexG0(Addr pc) const
{
    const std::uint64_t h =
        history_ & ((std::uint64_t{1} << params_.histLenG0) - 1);
    return fold((pc >> 2) * 0x9e3779b97f4a7c15ull + h, params_.logEntries);
}

std::size_t
TwoBcGskew::indexG1(Addr pc) const
{
    const std::uint64_t h =
        history_ & ((std::uint64_t{1} << params_.histLenG1) - 1);
    return fold(((pc >> 2) + 0x51ed270b) * 0xc2b2ae3d27d4eb4full + h * 3,
                params_.logEntries);
}

std::size_t
TwoBcGskew::indexMeta(Addr pc) const
{
    // The chooser is PC-indexed (the "2Bc" part of 2Bc-gskew): it learns
    // per branch whether the history-based e-gskew vote is trustworthy.
    return fold((pc >> 2) * 0x165667b19e3779f9ull + 0xbadc0ffe,
                params_.logEntries);
}

bool
TwoBcGskew::lookup(Addr pc)
{
    const bool bim = bim_[indexBim(pc)].taken();
    const bool p0 = g0_[indexG0(pc)].taken();
    const bool p1 = g1_[indexG1(pc)].taken();
    const bool majority = (bim + p0 + p1) >= 2;
    const bool use_gskew = meta_[indexMeta(pc)].taken();
    return use_gskew ? majority : bim;
}

void
TwoBcGskew::update(Addr pc, bool taken)
{
    const std::size_t ib = indexBim(pc);
    const std::size_t i0 = indexG0(pc);
    const std::size_t i1 = indexG1(pc);
    const std::size_t im = indexMeta(pc);

    const bool bim = bim_[ib].taken();
    const bool p0 = g0_[i0].taken();
    const bool p1 = g1_[i1].taken();
    const bool majority = (bim + p0 + p1) >= 2;
    const bool use_gskew = meta_[im].taken();
    const bool pred = use_gskew ? majority : bim;

    // META trains toward the component that was right when they disagree.
    if (bim != majority)
        meta_[im].train(majority == taken);

    if (pred == taken) {
        if (bim == taken)
            bim_[ib].train(taken);
        if (use_gskew) {
            // Partial update: while e-gskew provides the prediction, only
            // agreeing banks strengthen (the de-aliasing property).
            if (p0 == taken)
                g0_[i0].train(taken);
            if (p1 == taken)
                g1_[i1].train(taken);
        } else {
            // While the chooser selects bimodal the history banks are not
            // protected; train them fully so history contexts that never
            // mispredict still warm up and the chooser can switch back.
            g0_[i0].train(taken);
            g1_[i1].train(taken);
        }
    } else {
        // Misprediction: retrain everything toward the outcome.
        bim_[ib].train(taken);
        g0_[i0].train(taken);
        g1_[i1].train(taken);
    }

    history_ = (history_ << 1) | (taken ? 1 : 0);
}

} // namespace wsrs::bpred
