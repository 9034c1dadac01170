/**
 * @file
 * Analytic area / access-time / energy model of multi-ported register files,
 * reproducing the methodology of the paper's Section 4.2.
 *
 * Area uses the exact wire-pitch formula (paper formula (1), after
 * Zyuban-Kogge): a cell with R read and W write ports needs R + 2W bitlines
 * and R + W wordlines, hence per-bit area (R + 2W)(R + W) in units of w^2
 * (w = wire pitch).
 *
 * Access time and peak energy use a CACTI-2.0-style structural model whose
 * three constants were calibrated so that the paper's five Table-1
 * configurations land on the published 0.10 um values (see
 * docs in EXPERIMENTS.md):
 *
 *   t(ns)      = tBase + tDec * log2(entries) + tWire * sqrt(subfileArea)
 *   E(nJ/cyc)  = sum over subfiles of
 *                eWl * acc * Lwl + eBl * R * Lbl + eSub
 *
 * i.e. a constant sense/compare path, a decoder depth term, a wire-flight
 * term across the subfile diagonal; and wordline switching, read-bitline
 * sensing, and per-subfile control overhead for energy.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/core/params.h"

namespace wsrs::rfmodel {

/** Per-register-copy port configuration. */
struct PortConfig
{
    unsigned reads = 0;
    unsigned writes = 0;
};

/**
 * Per-bit silicon area of a register cell, in units of w^2.
 *
 * Paper formula (1): (reads + 2*writes) bitlines x (reads + writes)
 * wordlines.
 */
constexpr double
bitCellArea(PortConfig ports)
{
    return static_cast<double>(ports.reads + 2 * ports.writes) *
           static_cast<double>(ports.reads + ports.writes);
}

/**
 * Structural description of one register-file organization (one Table-1
 * column).
 */
struct RegFileOrg
{
    std::string name;           ///< e.g. "WSRS".
    unsigned totalRegs = 128;   ///< Architectural physical registers.
    unsigned copiesPerReg = 1;  ///< Replicated copies of each register.
    PortConfig portsPerCopy;    ///< Ports on each individual copy.
    unsigned numSubfiles = 1;   ///< Physically distinct subfile arrays.
    unsigned entriesPerSubfile = 128;   ///< Rows per subfile array.
    unsigned bitsPerReg = 64;   ///< Width of a register in bits.
    /// Write buses entering each subfile at peak (broadcast included).
    unsigned writeBusesPerSubfile = 0;
    /// Rows spanned by each write bus (write specialization shortens it).
    unsigned writeSpanRows = 0;
    /// Result-producing units visible to one operand's bypass/wake-up
    /// (N in the paper's X*N+1 bypass-source formula).
    unsigned producersVisible = 12;
};

/** Derived estimates for one organization (one Table-1 column). */
struct RegFileEstimate
{
    double bitArea = 0;         ///< Register bit area, x w^2 (all copies).
    double totalAreaRel = 0;    ///< Total area / noWS-2 total area.
    double accessTimeNs = 0;    ///< Subfile read access time.
    double energyNJPerCycle = 0;///< Peak power, nJ per cycle.
    unsigned pipeCycles10GHz = 0;   ///< Register-read pipeline at 10 GHz.
    unsigned pipeCycles5GHz = 0;    ///< ... and at 5 GHz.
    unsigned bypassSources10GHz = 0;///< Bypass-point sources at 10 GHz.
    unsigned bypassSources5GHz = 0; ///< ... and at 5 GHz.
};

/** CACTI-style calibrated model (0.10 um, constants see file comment). */
class RegFileModel
{
  public:
    /** Calibrated constants; defaults reproduce the paper's Table 1. */
    struct Constants
    {
        double tBaseNs = 0.145789;
        double tDecNs = 0.00984878;
        double tWireNs = 0.111471e-3;   ///< Per sqrt(w^2) of subfile area.
        double eWlNJ = 1.27851e-5;      ///< Per (access x wordline w).
        double eSubNJ = 0.353585 / 4;   ///< Per subfile.
        double eBlNJ = 0.173791e-4;     ///< Per (read x bitline w).
    };

    RegFileModel() : constants_{} {}
    explicit RegFileModel(const Constants &constants)
        : constants_(constants)
    {
    }

    /** Subfile read access time in ns. */
    double accessTimeNs(const RegFileOrg &org) const;

    /** Peak energy per cycle over all subfiles, in nJ. */
    double energyNJPerCycle(const RegFileOrg &org) const;

    /** Register bit area in w^2 (copies included) — formula (1). */
    double bitArea(const RegFileOrg &org) const;

    /** Total register-file area in w^2 x bits. */
    double totalArea(const RegFileOrg &org) const;

    /**
     * Register-read pipeline depth at @p ghz: access time plus the paper's
     * extra half cycle to drive data to the functional units.
     */
    unsigned pipelineCycles(const RegFileOrg &org, double ghz) const;

    /**
     * Bypass-point sources X*N+1: X pipeline cycles of in-flight results
     * from N visible producers, plus the register-file path.
     */
    unsigned bypassSources(const RegFileOrg &org, double ghz) const;

    /** All derived numbers, normalized against @p reference for area. */
    RegFileEstimate estimate(const RegFileOrg &org,
                             const RegFileOrg &reference) const;

  private:
    Constants constants_;
};

/// @name The paper's Table-1 organizations (8-way unless noted).
/// @{
RegFileOrg makeNoWsMonolithic();  ///< noWS-M: conventional monolithic.
RegFileOrg makeNoWsDistributed(); ///< noWS-D: conventional 4-cluster.
RegFileOrg makeWriteSpec();       ///< WS: write specialization only.
RegFileOrg makeWsrs();            ///< WSRS: 4-cluster WSRS.
RegFileOrg makeNoWs2Cluster();    ///< noWS-2: conventional 4-way 2-cluster.
/// @}

/**
 * The 7-cluster WSRS extension (paper Section 7 / IRISA report PI 1411):
 * still two (4R,3W) copies per register, wake-up and bypass complexity kept
 * at the 2-cluster level.
 */
RegFileOrg makeWsrs7Cluster();

/** The five Table-1 organizations, in paper column order. */
std::vector<RegFileOrg> table1Organizations();

/**
 * Derive the register-file organization implied by an arbitrary machine
 * description, generalizing Table 1 to any cluster count, issue width,
 * write-back bandwidth and register count:
 *
 *  - conventional: one full copy per cluster, every cluster's results
 *    written into every copy (for a single cluster this degenerates to one
 *    file with the machine's own write-back ports, not Table 1's
 *    12-ported noWS-M idealization);
 *  - WS / WS-pools: one full copy per cluster with only the local write
 *    ports on each cell, all clusters' buses entering each copy but
 *    spanning only their subset's rows;
 *  - WSRS: two copies per register, each subfile holding one operand side
 *    of one subset pair.
 *
 * Applied to the Section-5 presets this reproduces the matching Table-1
 * maker organizations field for field.
 */
RegFileOrg regFileOrgFromParams(const core::CoreParams &params);

/**
 * One organization and its estimates as a JSON object (no trailing
 * newline), the machine-readable face of wsrs-rf's text table. Shared by
 * `wsrs-rf --json` and the explorer report's per-point "rf" member.
 */
std::string orgJson(const RegFileOrg &org, const RegFileEstimate &est);

} // namespace wsrs::rfmodel
