/**
 * @file
 * Declarative configuration-space specification and streaming enumeration.
 *
 * A space is a JSON document (schema `wsrs-space-v1`) naming a base
 * machine and a list of axes, each axis a parameter of core::CoreParams or
 * memory::HierarchyParams with an explicit value list or an arithmetic
 * range:
 *
 *   {
 *     "schema": "wsrs-space-v1",
 *     "base": {"machine": "WSRS-RC-512", "mem": "constant"},
 *     "workloads": ["gzip", "mcf"],
 *     "axes": [
 *       {"param": "core.num_clusters", "values": [2, 4, 8]},
 *       {"param": "core.mode", "values": ["conventional", "ws", "wsrs"]},
 *       {"param": "core.num_phys_regs",
 *        "from": 256, "to": 1024, "step": 64}
 *     ]
 *   }
 *
 * The cross product of the axes is enumerated as flat indices in row-major
 * order (first axis outermost), decoded on the fly — the space is never
 * materialized. Points are deterministic pure functions of the spec and
 * the index, which is what makes the explorer's parallel sweep and its
 * reports byte-stable across thread counts.
 *
 * Materialization starts from the base machine; when a mode / policy /
 * rename-impl / register-count axis is present, the point's core instead
 * starts from sim::presetForMode (so pipeline depths follow the paper's
 * mode rules) before the remaining axes are applied. Points the simulator
 * would reject (WSRS cluster geometry, subset divisibility, register
 * backing) are flagged infeasible rather than silently skipped, keeping
 * the axis-coverage accounting exact. Supported parameters are listed in
 * docs/explorer.md and by `wsrs-explore --list-params`.
 */
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/params.h"
#include "src/memory/hierarchy.h"

namespace wsrs::explore {

/** Schema tag accepted in a space specification document. */
inline constexpr const char *kSpaceSchema = "wsrs-space-v1";

/** Most values one axis may take; parseSpaceSpec rejects a longer axis
 *  before expanding its range. */
inline constexpr std::size_t kMaxAxisValues = 4096;

/** One enumerable parameter, parse-validated against the catalog. */
struct AxisSpec
{
    std::string param;       ///< Catalog name, e.g. "core.num_clusters".
    unsigned field = 0;      ///< Catalog field id (internal).
    bool isEnum = false;     ///< Enum-valued (mode, policy, ...).
    /** Feeds only the memory-side terms of the analytic model
     *  (AnalyticModel::memTerms): every mem.* axis but mem.l1_latency,
     *  which stretches the core-side chain latency. */
    bool memorySide = false;
    std::vector<double> numeric;     ///< Values of a numeric axis.
    std::vector<unsigned> ordinals;  ///< Mapped values of an enum axis.
    std::vector<std::string> labels; ///< Enum spellings, for reports.

    std::size_t size() const
    {
        return isEnum ? ordinals.size() : numeric.size();
    }
};

/** Parsed space specification with the base point resolved. */
struct SpaceSpec
{
    std::vector<AxisSpec> axes;
    std::vector<std::string> workloads; ///< Benchmark names, spec order.
    core::CoreParams baseCore;
    memory::HierarchyParams baseMem;
    std::string baseMachineLabel;
    std::string baseMemLabel;

    /** Cross-product size (product of axis sizes; 1 for no axes). */
    std::uint64_t totalPoints() const;
};

/** One materialized configuration point. */
struct ConfigPoint
{
    core::CoreParams core;
    memory::HierarchyParams mem;
    bool feasible = true;
    const char *whyInfeasible = nullptr; ///< Static string when !feasible.
};

/**
 * Parse and validate a wsrs-space-v1 document. @p what names the
 * document in error messages. @throws wsrs::FatalError on malformed
 * JSON, unknown parameters, empty axes or unknown workloads.
 */
SpaceSpec parseSpaceSpec(std::string_view text, const std::string &what);

/** Decode flat @p index into per-axis value indices (row-major, first
 *  axis outermost). @p digits must hold spec.axes.size() entries. */
void decodePoint(const SpaceSpec &spec, std::uint64_t index,
                 std::uint32_t *digits);

/** Materialize the point selected by @p digits (cheap; no name is set on
 *  the core — see pointName). */
ConfigPoint materializePoint(const SpaceSpec &spec,
                             const std::uint32_t *digits);

/** Deterministic display name of a point ("x<index>"). */
std::string pointName(std::uint64_t index);

/** The point's axis assignments as a JSON object ("param": value). */
std::string pointConfigJson(const SpaceSpec &spec,
                            const std::uint32_t *digits);

/** Names of every supported axis parameter, catalog order. */
std::vector<std::string> supportedParams();

} // namespace wsrs::explore
