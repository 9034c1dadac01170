/**
 * @file
 * Pipeline-timeline viewer: run a short slice and render the last N
 * committed micro-ops' journey through the machine (R=rename, I=issue,
 * C=complete, X=commit) — a quick way to *see* write/read specialization,
 * cross-cluster bypass delays and misprediction bubbles.
 *
 *   ./build/examples/pipeline_viewer [bench] [machine] [rows]
 */
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "src/bpred/two_bc_gskew.h"
#include "src/core/core.h"
#include "src/obs/trace_sink.h"
#include "src/sim/presets.h"
#include "src/workload/profiles.h"
#include "src/workload/trace_generator.h"

using namespace wsrs;

int
main(int argc, char **argv)
{
    const std::string bench = argc > 1 ? argv[1] : "gzip";
    const std::string machine = argc > 2 ? argv[2] : "WSRS-RC-512";
    const std::size_t rows =
        argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 40;
    if (rows == 0) {
        std::fprintf(stderr, "rows must be at least 1\n");
        return 1;
    }

    workload::TraceGenerator gen(workload::findProfile(bench));
    bpred::TwoBcGskew bp;
    StatGroup stats("viewer");
    memory::MemoryHierarchy mem(memory::HierarchyParams{}, stats);
    core::Core machine_core(sim::findPreset(machine), gen, bp, mem);

    machine_core.run(20000);           // warm up
    obs::TimelineSink timeline(rows);
    machine_core.attachTraceSink(&timeline);
    machine_core.run(2000);
    machine_core.attachTraceSink(nullptr);

    std::printf("%s on %s — last %zu committed micro-ops\n\n",
                bench.c_str(), machine.c_str(), rows);
    timeline.render(std::cout);

    const core::CoreStats &s = machine_core.stats();
    std::printf("\nmean issue width %.2f / 8, mean window occupancy "
                "%.0f / 224\n",
                s.meanIssueWidth(), s.meanWindowOccupancy());
    return 0;
}
