/**
 * @file
 * Ablation A5 — branch predictor study.
 *
 * The paper assumes an EV8-class 512 Kbit 2Bc-gskew front end. This
 * harness swaps in weaker (bimodal, gshare) and idealized (perfect)
 * predictors to show how much of the machines' IPC rests on that
 * assumption, and that the WSRS-vs-conventional comparison is robust to
 * the predictor choice.
 */
#include <cstdio>

#include "bench_util.h"
#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/workload/profiles.h"

using namespace wsrs;

namespace {

sim::SimResults
run(const char *bench, const char *machine, sim::PredictorKind kind)
{
    sim::SimConfig cfg = sim::applyEnvOverrides(sim::SimConfig{});
    cfg.core = sim::findPreset(machine);
    cfg.predictor = kind;
    cfg.warmupUops = std::min<std::uint64_t>(cfg.warmupUops, 150000);
    cfg.measureUops = std::min<std::uint64_t>(cfg.measureUops, 250000);
    return sim::runSimulation(workload::findProfile(bench), cfg);
}

} // namespace

int
main()
{
    benchutil::banner("Ablation A5",
                      "branch predictors: bimodal / gshare / 2Bc-gskew / "
                      "perfect");

    const struct
    {
        const char *label;
        sim::PredictorKind kind;
    } preds[] = {
        {"bimodal", sim::PredictorKind::Bimodal},
        {"gshare", sim::PredictorKind::Gshare},
        {"tournament", sim::PredictorKind::Tournament},
        {"2bc-gskew", sim::PredictorKind::TwoBcGskew},
        {"perfect", sim::PredictorKind::Perfect},
    };

    for (const char *machine : {"RR-256", "WSRS-RC-512"}) {
        std::printf("\n%s\n%-10s", machine, "bench");
        for (const auto &p : preds)
            std::printf("  %10s mispr%%", p.label);
        std::printf("\n");
        for (const char *bench : {"gzip", "gcc", "mcf", "mgrid"}) {
            std::printf("%-10s", bench);
            for (const auto &p : preds) {
                const sim::SimResults r = run(bench, machine, p.kind);
                std::printf("  %10.3f %5.1f%%", r.ipc,
                            100.0 * r.stats.mispredictRate());
            }
            std::printf("\n");
        }
    }
    std::printf("\nShape: 2Bc-gskew approaches the perfect-prediction\n"
                "bound on loop-dominated codes and clearly beats bimodal\n"
                "and gshare on the branchy integer codes; the WSRS/\n"
                "conventional ranking is stable across predictors.\n");
    return 0;
}
