/**
 * @file
 * Trace utility: record synthetic benchmark traces to the binary format,
 * inspect trace files, and replay them through any machine.
 *
 *   wsrs-trace --record --bench=gzip --uops=1000000 --out=gzip.trc
 *   wsrs-trace --info --in=gzip.trc
 *   wsrs-trace --replay --in=gzip.trc --machine=WSRS-RC-512 --uops=500000
 */
#include <array>
#include <cstdio>
#include <string>

#include "src/common/args.h"
#include "src/common/log.h"
#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/workload/profiles.h"
#include "src/workload/trace_generator.h"
#include "src/workload/trace_io.h"

using namespace wsrs;

namespace {

int
record(const ArgParser &args)
{
    const std::string bench = args.get("bench", "gzip");
    const std::string out = args.get("out", bench + ".trc");
    const std::uint64_t uops = args.getUint("uops", 1000000);

    workload::TraceGenerator gen(workload::findProfile(bench),
                                 args.getUint("seed", 0));
    workload::TraceWriter writer(out);
    for (std::uint64_t i = 0; i < uops; ++i)
        writer.append(gen.next());
    writer.close();
    std::printf("recorded %llu micro-ops of '%s' to %s\n",
                (unsigned long long)writer.written(), bench.c_str(),
                out.c_str());
    return 0;
}

int
info(const ArgParser &args)
{
    const std::string in = args.get("in");
    if (in.empty())
        fatal("--info requires --in=<file>");
    workload::TraceReader reader(in, /*wrap=*/false);
    std::printf("%s: %llu micro-ops\n", in.c_str(),
                (unsigned long long)reader.records());

    std::array<std::uint64_t, isa::kNumOpClasses> mix{};
    std::uint64_t monadic = 0, dyadic = 0, noadic = 0, taken = 0,
                  branches = 0;
    for (std::uint64_t i = 0; i < reader.records(); ++i) {
        const isa::MicroOp op = reader.next();
        ++mix[static_cast<std::size_t>(op.op)];
        if (op.isDyadic())
            ++dyadic;
        else if (op.isMonadic())
            ++monadic;
        else
            ++noadic;
        if (op.isBranch()) {
            ++branches;
            taken += op.taken;
        }
    }
    std::printf("\ninstruction mix:\n");
    for (std::size_t i = 0; i < isa::kNumOpClasses; ++i) {
        if (mix[i] == 0)
            continue;
        std::printf("  %-8s %8.3f%%\n",
                    std::string(isa::opClassName(
                                    static_cast<isa::OpClass>(i)))
                        .c_str(),
                    100.0 * mix[i] / reader.records());
    }
    std::printf("arity: %.1f%% dyadic, %.1f%% monadic, %.1f%% noadic\n",
                100.0 * dyadic / reader.records(),
                100.0 * monadic / reader.records(),
                100.0 * noadic / reader.records());
    if (branches)
        std::printf("branches taken: %.1f%%\n", 100.0 * taken / branches);
    return 0;
}

int
replay(const ArgParser &args)
{
    const std::string in = args.get("in");
    if (in.empty())
        fatal("--replay requires --in=<file>");
    workload::TraceReader reader(in);
    sim::SimConfig cfg;
    cfg.core = sim::findPreset(args.get("machine", "RR-256"));
    cfg.warmupUops = 0;
    cfg.measureUops = args.getUint("uops", reader.records());
    // A recorded trace carries no profile: the run is named after its file.
    workload::BenchmarkProfile profile;
    profile.name = in;
    const sim::SimResults r = sim::runSimulation(profile, cfg, reader);
    std::printf("%s on %s: IPC %.3f over %llu micro-ops "
                "(%llu cycles, %.2f%% mispredict)\n",
                in.c_str(), r.machine.c_str(), r.ipc,
                (unsigned long long)r.stats.committed,
                (unsigned long long)r.stats.cycles,
                100.0 * r.branchMispredictRate);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args;
    args.addOption("record", "record a synthetic trace", true);
    args.addOption("info", "summarize a trace file", true);
    args.addOption("replay", "simulate from a trace file", true);
    args.addOption("bench", "benchmark to record (default gzip)");
    args.addOption("machine", "machine preset for --replay");
    args.addOption("in", "input trace file");
    args.addOption("out", "output trace file");
    args.addOption("uops", "micro-ops to record/replay");
    args.addOption("seed", "extra trace seed");
    args.addOption("help", "show this help", true);

    return runTool("wsrs-trace", [&] {
        args.parse(argc, argv);
        if (args.has("help")) {
            std::printf("%s", args.usage("wsrs-trace").c_str());
            return 0;
        }
        if (args.has("record"))
            return record(args);
        if (args.has("info"))
            return info(args);
        if (args.has("replay"))
            return replay(args);
        std::printf("%s", args.usage("wsrs-trace").c_str());
        return 1;
    });
}
