/**
 * @file
 * Design-space explorer driver: sweep a declarative configuration space
 * with the analytic IPC/area/energy model, keep the exact Pareto
 * frontier, and optionally confirm the top of the frontier with the
 * cycle-accurate simulator (docs/explorer.md).
 *
 *   wsrs-explore --space=space.json --threads=8 --out=report.json
 *   wsrs-explore --space=space.json --confirm-top=16 --out=report.json
 *   wsrs-explore --calibrate                # Figure-4 rank correlation
 *   wsrs-explore --list-params              # supported axis parameters
 */
#include <cstdio>
#include <ostream>
#include <string>

#include "src/common/args.h"
#include "src/common/log.h"
#include "src/explore/analytic_model.h"
#include "src/explore/calibrate.h"
#include "src/explore/explorer.h"
#include "src/explore/space.h"
#include "src/obs/metrics_registry.h"

using namespace wsrs;

int
main(int argc, char **argv)
{
    ArgParser args;
    args.addOption("space", "configuration-space spec (wsrs-space-v1 JSON)");
    args.addOption("threads", "analytic sweep threads (default 1)");
    args.addOption("confirm-top",
                   "confirm the top-K frontier points cycle-accurately");
    args.addOption("confirm-threads",
                   "confirmation sweep threads (default: hardware)");
    args.addOption("measure-uops",
                   "measured micro-ops per confirmation/calibration job");
    args.addOption("warmup-uops",
                   "warm-up micro-ops per confirmation/calibration job");
    args.addOption("out", "report output path ('-' = stdout, the default)");
    args.addOption("calibrate",
                   "run the Figure-4 matrix and report the analytic/"
                   "measured rank correlation", true);
    args.addOption("list-params", "list supported axis parameters", true);
    args.addOption("metrics-out",
                   "write the process metrics snapshot (wsrs-metrics-v1 "
                   "JSON; '-' = stdout)");
    args.addOption("help", "show this help", true);

    return runTool("wsrs-explore", [&]() -> int {
        args.parse(argc, argv);
        if (args.has("help")) {
            std::printf("%s", args.usage("wsrs-explore").c_str());
            return 0;
        }

        if (args.has("list-params")) {
            for (const std::string &p : explore::supportedParams())
                std::printf("%s\n", p.c_str());
            return 0;
        }

        // The report (or calibration text) goes to stdout by default.
        const std::string out =
            args.get("out").empty() ? "-" : args.get("out");
        textStream({{"out", out}, {"metrics-out", args.get("metrics-out")}});
        obs::MetricsRegistry *const metrics =
            args.has("metrics-out") ? &obs::MetricsRegistry::process()
                                    : nullptr;
        const auto writeMetricsFile = [&] {
            writeDocument(args.get("metrics-out"), "metrics",
                          [](std::ostream &os) {
                              obs::MetricsRegistry::process().writeJson(os);
                          });
        };
        const explore::AnalyticModel model;

        if (args.has("calibrate")) {
            explore::CalibrationOptions copt;
            copt.threads = unsigned(args.getUint("confirm-threads", 0));
            copt.measureUops = args.getUint("measure-uops", 200000);
            copt.warmupUops = args.getUint("warmup-uops", 50000);
            copt.metrics = metrics;
            const explore::CalibrationResult cal =
                explore::calibrate(model, copt);
            writeDocument(out, "report", [&](std::ostream &os) {
                os << explore::calibrationReportText(cal);
            });
            if (metrics)
                writeMetricsFile();
            return cal.failures == 0 ? kExitOk : kExitJobFailure;
        }

        if (!args.has("space"))
            fatal("--space is required (or use --calibrate/--list-params)");

        const explore::SpaceSpec spec =
            explore::loadSpaceSpec(args.get("space"));

        explore::ExplorerOptions opt;
        opt.threads = unsigned(args.getUint("threads", 1));
        opt.confirmTop = args.getUint("confirm-top", 0);
        opt.confirmThreads = unsigned(args.getUint("confirm-threads", 0));
        opt.confirmMeasureUops = args.getUint("measure-uops", 300000);
        opt.confirmWarmupUops = args.getUint("warmup-uops", 100000);
        opt.metrics = metrics;

        const explore::ExplorerResult result =
            explore::explore(spec, model, opt);
        writeDocument(out, "report",
                      [&](std::ostream &os) { os << result.reportJson; });

        std::fprintf(stderr,
                     "wsrs-explore: %llu configs (%llu infeasible), "
                     "frontier %zu",
                     static_cast<unsigned long long>(result.enumerated),
                     static_cast<unsigned long long>(result.infeasible),
                     result.frontier.size());
        if (!result.confirmed.empty())
            std::fprintf(stderr,
                         ", confirmed %zu (spearman %.4f, "
                         "%zu rank inversions)",
                         result.confirmed.size(), result.confirmSpearman,
                         result.rankInversions);
        std::fprintf(stderr, "\n");

        if (metrics)
            writeMetricsFile();
        return 0;
    });
}
