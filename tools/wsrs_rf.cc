/**
 * @file
 * Hardware-model explorer: evaluate the register-file and scheduler
 * complexity models for arbitrary organizations from the command line.
 *
 *   wsrs-rf --table1                  # the paper's five organizations
 *   wsrs-rf --table1 --json           # the same, machine-readable
 *   wsrs-rf --regs=512 --copies=2 --reads=4 --writes=3 --entries=256
 *   wsrs-rf --wakeup --producers=6 --window=56 --clusters=4
 */
#include <cstdio>
#include <ostream>

#include "src/common/args.h"
#include "src/common/json.h"
#include "src/common/log.h"
#include "src/cxmodel/wakeup_model.h"
#include "src/rfmodel/regfile_model.h"

using namespace wsrs;

namespace {

void
printOrg(const rfmodel::RegFileModel &model, const rfmodel::RegFileOrg &org)
{
    const rfmodel::RegFileOrg ref = rfmodel::makeNoWs2Cluster();
    std::printf("%-10s %4u regs x%u (%2u,%2u) %4u subfiles x%4u entries | "
                "%6.0f w^2/bit | %.2f ns | %.2f nJ/cy | area %5.2fx | "
                "cyc@10GHz %u (bypass %u)\n",
                org.name.c_str(), org.totalRegs, org.copiesPerReg,
                org.portsPerCopy.reads, org.portsPerCopy.writes,
                org.numSubfiles, org.entriesPerSubfile,
                model.bitArea(org), model.accessTimeNs(org),
                model.energyNJPerCycle(org),
                model.totalArea(org) / model.totalArea(ref),
                model.pipelineCycles(org, 10.0),
                model.bypassSources(org, 10.0));
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args;
    args.addOption("table1", "print the paper's five organizations", true);
    args.addOption("wakeup", "evaluate the wake-up/selection model", true);
    args.addOption("regs", "total registers (custom organization)");
    args.addOption("copies", "copies per register");
    args.addOption("reads", "read ports per copy");
    args.addOption("writes", "write ports per copy");
    args.addOption("subfiles", "physical subfiles");
    args.addOption("entries", "entries per subfile");
    args.addOption("producers", "producers visible per operand");
    args.addOption("window", "wake-up entries per cluster");
    args.addOption("clusters", "number of clusters");
    args.addOption("pipe", "register read/write pipeline length");
    args.addOption("json", "emit organizations as JSON", true);
    args.addOption("help", "show this help", true);

    return runTool("wsrs-rf", [&] {
        args.parse(argc, argv);
        if (args.has("help")) {
            std::printf("%s", args.usage("wsrs-rf").c_str());
            return 0;
        }

        const rfmodel::RegFileModel model;
        // --json: printOrg's machine-readable twin, as the explorer emits.
        const auto orgJson = [&](const rfmodel::RegFileOrg &org) {
            return rfmodel::orgJson(
                org, model.estimate(org, rfmodel::makeNoWs2Cluster()));
        };

        if (args.has("wakeup")) {
            cxmodel::SchedulerOrg org;
            org.name = "custom";
            org.producersVisible =
                unsigned(args.getUint("producers", 12));
            org.windowPerCluster = unsigned(args.getUint("window", 56));
            org.numClusters = unsigned(args.getUint("clusters", 4));
            org.regReadWritePipe = unsigned(args.getUint("pipe", 4));
            std::printf("wake-up: %u comparators/entry, %u total, "
                        "relative delay %.2f, selection depth %u, "
                        "bypass sources %u\n",
                        cxmodel::comparatorsPerEntry(org),
                        cxmodel::totalComparators(org),
                        cxmodel::relativeWakeupDelay(org),
                        cxmodel::selectionTreeDepth(org),
                        cxmodel::bypassSources(org));
            return 0;
        }

        if (args.has("table1") || !args.has("regs")) {
            if (args.has("json")) {
                writeDocument("-", "rf", [&](std::ostream &os) {
                    JsonWriter w(os, JsonWriter::Style::Compact);
                    w.beginObject().field("schema", "wsrs-rf-v1");
                    w.key("organizations").beginArray();
                    auto orgs = rfmodel::table1Organizations();
                    orgs.push_back(rfmodel::makeWsrs7Cluster());
                    for (const auto &org : orgs)
                        w.raw(orgJson(org));
                    w.endArray().endObject();
                    os << "\n";
                });
                return 0;
            }
            for (const auto &org : rfmodel::table1Organizations())
                printOrg(model, org);
            printOrg(model, rfmodel::makeWsrs7Cluster());
            return 0;
        }

        rfmodel::RegFileOrg org;
        org.name = "custom";
        org.totalRegs = unsigned(args.getUint("regs", 256));
        org.copiesPerReg = unsigned(args.getUint("copies", 1));
        org.portsPerCopy.reads = unsigned(args.getUint("reads", 4));
        org.portsPerCopy.writes = unsigned(args.getUint("writes", 3));
        org.numSubfiles = unsigned(args.getUint("subfiles", 1));
        org.entriesPerSubfile =
            unsigned(args.getUint("entries", org.totalRegs));
        org.writeBusesPerSubfile = org.portsPerCopy.writes;
        org.writeSpanRows = org.entriesPerSubfile;
        org.producersVisible = unsigned(args.getUint("producers", 12));
        if (args.has("json")) {
            writeDocument("-", "rf", [&](std::ostream &os) {
                os << orgJson(org) << '\n';
            });
        } else {
            printOrg(model, org);
        }
        return 0;
    });
}
