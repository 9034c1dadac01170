#include "regfile_model.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/common/json.h"
#include "src/common/log.h"
#include "src/core/cluster_alloc.h"

namespace wsrs::rfmodel {

namespace {

/** Width of a cell in wire pitches: one bitline per read, two per write. */
double
cellWidth(const RegFileOrg &org)
{
    return org.portsPerCopy.reads + 2.0 * org.portsPerCopy.writes;
}

/** Height of a cell in wire pitches: one wordline per port. */
double
cellHeight(const RegFileOrg &org)
{
    return org.portsPerCopy.reads + 1.0 * org.portsPerCopy.writes;
}

/** Area of one subfile array in w^2. */
double
subfileArea(const RegFileOrg &org)
{
    return static_cast<double>(org.entriesPerSubfile) * org.bitsPerReg *
           cellWidth(org) * cellHeight(org);
}

} // namespace

double
RegFileModel::accessTimeNs(const RegFileOrg &org) const
{
    WSRS_ASSERT(org.entriesPerSubfile > 0);
    return constants_.tBaseNs +
           constants_.tDecNs * std::log2(double(org.entriesPerSubfile)) +
           constants_.tWireNs * std::sqrt(subfileArea(org));
}

double
RegFileModel::energyNJPerCycle(const RegFileOrg &org) const
{
    const double wl_len = org.bitsPerReg * cellWidth(org);
    const double rd_bl_len = org.entriesPerSubfile * cellHeight(org);
    const double accesses =
        org.portsPerCopy.reads + org.writeBusesPerSubfile;
    const double per_subfile =
        constants_.eWlNJ * accesses * wl_len +
        constants_.eBlNJ * org.portsPerCopy.reads * rd_bl_len +
        constants_.eSubNJ;
    return org.numSubfiles * per_subfile;
}

double
RegFileModel::bitArea(const RegFileOrg &org) const
{
    return org.copiesPerReg * bitCellArea(org.portsPerCopy);
}

double
RegFileModel::totalArea(const RegFileOrg &org) const
{
    return static_cast<double>(org.totalRegs) * org.bitsPerReg *
           bitArea(org);
}

unsigned
RegFileModel::pipelineCycles(const RegFileOrg &org, double ghz) const
{
    const double period_ns = 1.0 / ghz;
    // Access time in cycles plus the paper's extra half cycle to drive the
    // data to the functional units; epsilon guards exact-integer results.
    const double cycles = accessTimeNs(org) / period_ns + 0.5;
    return static_cast<unsigned>(std::ceil(cycles - 1e-9));
}

unsigned
RegFileModel::bypassSources(const RegFileOrg &org, double ghz) const
{
    return pipelineCycles(org, ghz) * org.producersVisible + 1;
}

RegFileEstimate
RegFileModel::estimate(const RegFileOrg &org,
                       const RegFileOrg &reference) const
{
    RegFileEstimate e;
    e.bitArea = bitArea(org);
    e.totalAreaRel = totalArea(org) / totalArea(reference);
    e.accessTimeNs = accessTimeNs(org);
    e.energyNJPerCycle = energyNJPerCycle(org);
    e.pipeCycles10GHz = pipelineCycles(org, 10.0);
    e.pipeCycles5GHz = pipelineCycles(org, 5.0);
    e.bypassSources10GHz = bypassSources(org, 10.0);
    e.bypassSources5GHz = bypassSources(org, 5.0);
    return e;
}

RegFileOrg
makeNoWsMonolithic()
{
    return RegFileOrg{
        .name = "noWS-M",
        .totalRegs = 256,
        .copiesPerReg = 1,
        .portsPerCopy = {.reads = 16, .writes = 12},
        .numSubfiles = 1,
        .entriesPerSubfile = 256,
        .bitsPerReg = 64,
        .writeBusesPerSubfile = 12,
        .writeSpanRows = 256,
        .producersVisible = 12,
    };
}

RegFileOrg
makeNoWsDistributed()
{
    return RegFileOrg{
        .name = "noWS-D",
        .totalRegs = 256,
        .copiesPerReg = 4,
        .portsPerCopy = {.reads = 4, .writes = 12},
        .numSubfiles = 4,
        .entriesPerSubfile = 256,
        .bitsPerReg = 64,
        .writeBusesPerSubfile = 12,
        .writeSpanRows = 256,
        .producersVisible = 12,
    };
}

RegFileOrg
makeWriteSpec()
{
    return RegFileOrg{
        .name = "WS",
        .totalRegs = 512,
        .copiesPerReg = 4,
        .portsPerCopy = {.reads = 4, .writes = 3},
        .numSubfiles = 4,
        .entriesPerSubfile = 512,
        .bitsPerReg = 64,
        // Every cluster's 3 result buses enter each read copy, but each
        // bus spans only its subset's quarter of the rows.
        .writeBusesPerSubfile = 12,
        .writeSpanRows = 128,
        .producersVisible = 12,
    };
}

RegFileOrg
makeWsrs()
{
    return RegFileOrg{
        .name = "WSRS",
        .totalRegs = 512,
        .copiesPerReg = 2,
        .portsPerCopy = {.reads = 4, .writes = 3},
        .numSubfiles = 4,
        // Each subfile holds one operand side of one subset pair.
        .entriesPerSubfile = 256,
        .bitsPerReg = 64,
        .writeBusesPerSubfile = 6,
        .writeSpanRows = 128,
        .producersVisible = 6,
    };
}

RegFileOrg
makeNoWs2Cluster()
{
    return RegFileOrg{
        .name = "noWS-2",
        .totalRegs = 128,
        .copiesPerReg = 2,
        .portsPerCopy = {.reads = 4, .writes = 6},
        .numSubfiles = 2,
        .entriesPerSubfile = 128,
        .bitsPerReg = 64,
        .writeBusesPerSubfile = 6,
        .writeSpanRows = 128,
        .producersVisible = 6,
    };
}

RegFileOrg
makeWsrs7Cluster()
{
    return RegFileOrg{
        .name = "WSRS-7",
        .totalRegs = 896,
        .copiesPerReg = 2,
        .portsPerCopy = {.reads = 4, .writes = 3},
        .numSubfiles = 7,
        .entriesPerSubfile = 256,
        .bitsPerReg = 64,
        .writeBusesPerSubfile = 6,
        .writeSpanRows = 128,
        .producersVisible = 6,
    };
}

std::vector<RegFileOrg>
table1Organizations()
{
    return {makeNoWsMonolithic(), makeNoWsDistributed(), makeWriteSpec(),
            makeWsrs(), makeNoWs2Cluster()};
}

RegFileOrg
regFileOrgFromParams(const core::CoreParams &params)
{
    const unsigned clusters = std::max(1u, params.numClusters);
    const unsigned reads = 2 * params.issuePerCluster;
    const unsigned wb = params.writebackPerCluster;

    RegFileOrg org;
    org.name = params.name;
    org.totalRegs = params.numPhysRegs;
    org.bitsPerReg = 64;

    switch (params.mode) {
    case core::RegFileMode::Conventional:
        org.copiesPerReg = clusters;
        org.portsPerCopy = {.reads = reads, .writes = clusters * wb};
        org.numSubfiles = clusters;
        org.entriesPerSubfile = params.numPhysRegs;
        org.writeBusesPerSubfile = clusters * wb;
        org.writeSpanRows = params.numPhysRegs;
        org.producersVisible = clusters * wb;
        break;
    case core::RegFileMode::WriteSpec:
    case core::RegFileMode::WriteSpecPools:
        // Write specialization keeps only the local write ports on each
        // cell; all clusters' buses still enter each read copy but each
        // spans only its subset's rows.
        org.copiesPerReg = clusters;
        org.portsPerCopy = {.reads = reads, .writes = wb};
        org.numSubfiles = clusters;
        org.entriesPerSubfile = params.numPhysRegs;
        org.writeBusesPerSubfile = clusters * wb;
        org.writeSpanRows =
            params.numPhysRegs /
            (params.mode == core::RegFileMode::WriteSpecPools
                 ? core::kNumFuPools
                 : clusters);
        org.producersVisible = clusters * wb;
        break;
    case core::RegFileMode::Wsrs: {
        // Each subfile holds one operand side of one subset pair; an
        // operand can only have been produced on two clusters.
        const unsigned copies = std::min(2u, clusters);
        org.copiesPerReg = copies;
        org.portsPerCopy = {.reads = reads, .writes = wb};
        org.numSubfiles = clusters;
        org.entriesPerSubfile =
            params.numPhysRegs * copies / clusters;
        org.writeBusesPerSubfile = copies * wb;
        org.writeSpanRows = params.numPhysRegs / clusters;
        org.producersVisible = copies * wb;
        break;
    }
    }
    return org;
}

std::string
orgJson(const RegFileOrg &org, const RegFileEstimate &est)
{
    std::ostringstream os;
    JsonWriter(os, JsonWriter::Style::Spaced)
        .beginObject()
        .field("name", org.name).field("total_regs", org.totalRegs)
        .field("copies_per_reg", org.copiesPerReg)
        .field("read_ports", org.portsPerCopy.reads)
        .field("write_ports", org.portsPerCopy.writes)
        .field("subfiles", org.numSubfiles)
        .field("entries_per_subfile", org.entriesPerSubfile)
        .field("write_buses_per_subfile", org.writeBusesPerSubfile)
        .field("write_span_rows", org.writeSpanRows)
        .field("producers_visible", org.producersVisible)
        .field("bit_area_w2", est.bitArea)
        .field("total_area_rel", est.totalAreaRel)
        .field("access_time_ns", est.accessTimeNs)
        .field("energy_nj_per_cycle", est.energyNJPerCycle)
        .field("pipe_cycles_10ghz", est.pipeCycles10GHz)
        .field("pipe_cycles_5ghz", est.pipeCycles5GHz)
        .field("bypass_sources_10ghz", est.bypassSources10GHz)
        .field("bypass_sources_5ghz", est.bypassSources5GHz)
        .endObject();
    return os.str();
}

} // namespace wsrs::rfmodel
