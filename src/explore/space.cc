#include "space.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/common/json.h"
#include "src/common/log.h"
#include "src/core/cluster_alloc.h"
#include "src/isa/micro_op.h"
#include "src/sim/presets.h"
#include "src/workload/profiles.h"

namespace wsrs::explore {

namespace {

/** Catalog field identifiers (AxisSpec::field). */
enum Field : unsigned {
    // core::CoreParams — numeric.
    kNumClusters,
    kFetchWidth,
    kCommitWidth,
    kIssuePerCluster,
    kLsusPerCluster,
    kFpusPerCluster,
    kAlusPerCluster,
    kClusterWindow,
    kLsqSize,
    kFetchQueue,
    kAgenWidth,
    kNumPhysRegs,
    kFrontEndDepth,
    kRegReadStages,
    kWritebackPerCluster,
    kRecycleDelay,
    // core::CoreParams — enums.
    kMode,
    kPolicy,
    kRenameImpl,
    kFfScope,
    // memory::HierarchyParams — numeric.
    kL1Kb,
    kL1Assoc,
    kL2Kb,
    kL2Assoc,
    kLineBytes,
    kL1Latency,
    kL1MissPenalty,
    kL2MissPenalty,
    kL2BytesPerCycle,
    kMshrs,
    kPrefetchDepth,
    // memory backend.
    kMemModel,
    kDramBanks,
    kDramRowBytes,
    kDramTRp,
    kDramTRcd,
    kDramTCas,
    kDramBurstCycles,
    kDramWindowDepth,
    kNumFields
};

/** The half of the analytic model an axis feeds (AxisSpec::memorySide). */
enum Side { kCoreSide, kMemSide };

struct CatalogEntry
{
    const char *name;
    Field field;
    bool isEnum;
    /** Enum spellings in ordinal order (nullptr-terminated), or null. */
    const char *const *enumNames;
    Side side;
};

constexpr const char *kModeNames[] = {"conventional", "ws", "ws-pools",
                                      "wsrs", nullptr};
constexpr const char *kPolicyNames[] = {"rr", "rm", "rc", "dep", nullptr};
constexpr const char *kRenameNames[] = {"impl1", "impl2", nullptr};
constexpr const char *kFfNames[] = {"intra", "pair", "complete", nullptr};
constexpr const char *kMemModelNames[] = {"constant", "dram", "dram-closed",
                                          nullptr};

constexpr CatalogEntry kCatalog[] = {
    {"core.num_clusters", kNumClusters, false, nullptr, kCoreSide},
    {"core.fetch_width", kFetchWidth, false, nullptr, kCoreSide},
    {"core.commit_width", kCommitWidth, false, nullptr, kCoreSide},
    {"core.issue_per_cluster", kIssuePerCluster, false, nullptr, kCoreSide},
    {"core.lsus_per_cluster", kLsusPerCluster, false, nullptr, kCoreSide},
    {"core.fpus_per_cluster", kFpusPerCluster, false, nullptr, kCoreSide},
    {"core.alus_per_cluster", kAlusPerCluster, false, nullptr, kCoreSide},
    {"core.cluster_window", kClusterWindow, false, nullptr, kCoreSide},
    {"core.lsq_size", kLsqSize, false, nullptr, kCoreSide},
    {"core.fetch_queue", kFetchQueue, false, nullptr, kCoreSide},
    {"core.agen_width", kAgenWidth, false, nullptr, kCoreSide},
    {"core.num_phys_regs", kNumPhysRegs, false, nullptr, kCoreSide},
    {"core.front_end_depth", kFrontEndDepth, false, nullptr, kCoreSide},
    {"core.reg_read_stages", kRegReadStages, false, nullptr, kCoreSide},
    {"core.writeback_per_cluster",
     kWritebackPerCluster, false, nullptr, kCoreSide},
    {"core.recycle_delay", kRecycleDelay, false, nullptr, kCoreSide},
    {"core.mode", kMode, true, kModeNames, kCoreSide},
    {"core.policy", kPolicy, true, kPolicyNames, kCoreSide},
    {"core.rename_impl", kRenameImpl, true, kRenameNames, kCoreSide},
    {"core.ff_scope", kFfScope, true, kFfNames, kCoreSide},
    {"mem.l1_kb", kL1Kb, false, nullptr, kMemSide},
    {"mem.l1_assoc", kL1Assoc, false, nullptr, kMemSide},
    {"mem.l2_kb", kL2Kb, false, nullptr, kMemSide},
    {"mem.l2_assoc", kL2Assoc, false, nullptr, kMemSide},
    {"mem.line_bytes", kLineBytes, false, nullptr, kMemSide},
    {"mem.l1_latency", kL1Latency, false, nullptr, kCoreSide},
    {"mem.l1_miss_penalty", kL1MissPenalty, false, nullptr, kMemSide},
    {"mem.l2_miss_penalty", kL2MissPenalty, false, nullptr, kMemSide},
    {"mem.l2_bytes_per_cycle", kL2BytesPerCycle, false, nullptr, kMemSide},
    {"mem.mshrs", kMshrs, false, nullptr, kMemSide},
    {"mem.prefetch_depth", kPrefetchDepth, false, nullptr, kMemSide},
    {"mem.model", kMemModel, true, kMemModelNames, kMemSide},
    {"mem.dram_banks", kDramBanks, false, nullptr, kMemSide},
    {"mem.dram_row_bytes", kDramRowBytes, false, nullptr, kMemSide},
    {"mem.dram_t_rp", kDramTRp, false, nullptr, kMemSide},
    {"mem.dram_t_rcd", kDramTRcd, false, nullptr, kMemSide},
    {"mem.dram_t_cas", kDramTCas, false, nullptr, kMemSide},
    {"mem.dram_burst_cycles", kDramBurstCycles, false, nullptr, kMemSide},
    {"mem.dram_window_depth", kDramWindowDepth, false, nullptr, kMemSide},
};

const CatalogEntry *
findCatalog(const std::string &name)
{
    for (const auto &e : kCatalog)
        if (name == e.name)
            return &e;
    return nullptr;
}

unsigned
mapEnum(const CatalogEntry &entry, const std::string &value,
        const std::string &what)
{
    for (unsigned i = 0; entry.enumNames[i] != nullptr; ++i)
        if (value == entry.enumNames[i])
            return i;
    fatal("%s: axis '%s' has no value '%s'", what.c_str(), entry.name,
          value.c_str());
}

/** Apply one numeric axis value to the point. */
void
applyNumeric(ConfigPoint &pt, Field field, double v)
{
    const auto u = [v] { return static_cast<unsigned>(v); };
    switch (field) {
    case kNumClusters: pt.core.numClusters = u(); break;
    case kFetchWidth: pt.core.fetchWidth = u(); break;
    case kCommitWidth: pt.core.commitWidth = u(); break;
    case kIssuePerCluster: pt.core.issuePerCluster = u(); break;
    case kLsusPerCluster: pt.core.lsusPerCluster = u(); break;
    case kFpusPerCluster: pt.core.fpusPerCluster = u(); break;
    case kAlusPerCluster: pt.core.alusPerCluster = u(); break;
    case kClusterWindow: pt.core.clusterWindow = u(); break;
    case kLsqSize: pt.core.lsqSize = u(); break;
    case kFetchQueue: pt.core.fetchQueue = u(); break;
    case kAgenWidth: pt.core.agenWidth = u(); break;
    case kNumPhysRegs: pt.core.numPhysRegs = u(); break;
    case kFrontEndDepth: pt.core.frontEndDepth = u(); break;
    case kRegReadStages: pt.core.regReadStages = u(); break;
    case kWritebackPerCluster: pt.core.writebackPerCluster = u(); break;
    case kRecycleDelay: pt.core.recycleDelay = u(); break;
    case kL1Kb: pt.mem.l1.sizeBytes = u() * 1024u; break;
    case kL1Assoc: pt.mem.l1.assoc = u(); break;
    case kL2Kb: pt.mem.l2.sizeBytes = u() * 1024u; break;
    case kL2Assoc: pt.mem.l2.assoc = u(); break;
    case kLineBytes:
        pt.mem.l1.lineBytes = u();
        pt.mem.l2.lineBytes = u();
        break;
    case kL1Latency: pt.mem.l1Latency = u(); break;
    case kL1MissPenalty: pt.mem.l1MissPenalty = u(); break;
    case kL2MissPenalty: pt.mem.l2MissPenalty = u(); break;
    case kL2BytesPerCycle: pt.mem.l2BytesPerCycle = u(); break;
    case kMshrs: pt.mem.mshrs = u(); break;
    case kPrefetchDepth: pt.mem.prefetchDepth = u(); break;
    case kDramBanks: pt.mem.dram.banks = u(); break;
    case kDramRowBytes: pt.mem.dram.rowBytes = u(); break;
    case kDramTRp: pt.mem.dram.tRp = u(); break;
    case kDramTRcd: pt.mem.dram.tRcd = u(); break;
    case kDramTCas: pt.mem.dram.tCas = u(); break;
    case kDramBurstCycles: pt.mem.dram.burstCycles = u(); break;
    case kDramWindowDepth: pt.mem.dram.windowDepth = u(); break;
    default: WSRS_PANIC("numeric apply on enum field");
    }
}

/** Apply one enum axis ordinal to the point. */
void
applyEnum(ConfigPoint &pt, Field field, unsigned ord)
{
    switch (field) {
    case kMode:
        pt.core.mode = static_cast<core::RegFileMode>(ord);
        break;
    case kPolicy:
        pt.core.policy = static_cast<core::AllocPolicy>(ord);
        break;
    case kRenameImpl:
        pt.core.renameImpl = static_cast<core::RenameImpl>(ord);
        break;
    case kFfScope:
        pt.core.ffScope = static_cast<core::FastForwardScope>(ord);
        break;
    case kMemModel:
        pt.mem.model = ord == 0 ? memory::MemModel::Constant
                                : memory::MemModel::Dram;
        pt.mem.dram.closedPage = ord == 2;
        break;
    default: WSRS_PANIC("enum apply on numeric field");
    }
}

/** Map the catalog policy ordinal to the core enum. */
core::AllocPolicy
policyFromOrdinal(unsigned ord)
{
    switch (ord) {
    case 0: return core::AllocPolicy::RoundRobin;
    case 1: return core::AllocPolicy::RandomMonadic;
    case 2: return core::AllocPolicy::RandomCommutative;
    default: return core::AllocPolicy::DependenceAware;
    }
}

unsigned
subsetsFor(const core::CoreParams &c)
{
    switch (c.mode) {
    case core::RegFileMode::Conventional: return 1;
    case core::RegFileMode::WriteSpecPools: return core::kNumFuPools;
    default: return c.numClusters;
    }
}

} // namespace

std::uint64_t
SpaceSpec::totalPoints() const
{
    std::uint64_t total = 1;
    for (const auto &axis : axes)
        total *= axis.size();
    return total;
}

SpaceSpec
parseSpaceSpec(std::string_view text, const std::string &what)
{
    const JsonValue doc = parseJson(text, what);
    const std::string schema = doc.getString("schema", "");
    if (schema != kSpaceSchema)
        fatal("%s: schema '%s' is not %s", what.c_str(), schema.c_str(),
              kSpaceSchema);

    SpaceSpec spec;
    spec.baseMachineLabel = "WSRS-RC-512";
    spec.baseMemLabel = "constant";
    if (doc.has("base")) {
        const JsonValue &base = doc.get("base");
        spec.baseMachineLabel =
            base.getString("machine", spec.baseMachineLabel);
        spec.baseMemLabel = base.getString("mem", spec.baseMemLabel);
    }
    spec.baseCore = sim::findPreset(spec.baseMachineLabel);
    spec.baseMem = sim::findMemPreset(spec.baseMemLabel);

    if (doc.has("workloads")) {
        for (const auto &w : doc.get("workloads").asArray()) {
            workload::findProfile(w.asString());  // validates the name
            spec.workloads.push_back(w.asString());
        }
    } else {
        for (const auto &p : workload::allProfiles())
            spec.workloads.push_back(p.name);
    }
    if (spec.workloads.empty())
        fatal("%s: empty workloads list", what.c_str());

    if (!doc.has("axes"))
        fatal("%s: missing 'axes'", what.c_str());
    for (const auto &axisDoc : doc.get("axes").asArray()) {
        AxisSpec axis;
        axis.param = axisDoc.getString("param", "");
        const CatalogEntry *entry = findCatalog(axis.param);
        if (entry == nullptr)
            fatal("%s: unknown axis parameter '%s' (see wsrs-explore "
                  "--list-params)",
                  what.c_str(), axis.param.c_str());
        axis.field = entry->field;
        axis.isEnum = entry->isEnum;
        axis.memorySide = entry->side == kMemSide;

        if (axisDoc.has("values")) {
            for (const auto &v : axisDoc.get("values").asArray()) {
                if (entry->isEnum) {
                    axis.labels.push_back(v.asString());
                    axis.ordinals.push_back(
                        mapEnum(*entry, v.asString(), what));
                } else {
                    axis.numeric.push_back(v.asDouble());
                }
            }
        } else if (axisDoc.has("from")) {
            if (entry->isEnum)
                fatal("%s: axis '%s' is enum-valued and cannot use a "
                      "range",
                      what.c_str(), axis.param.c_str());
            const double from = axisDoc.get("from").asDouble();
            const double to = axisDoc.get("to").asDouble();
            const double step = axisDoc.has("step")
                                    ? axisDoc.get("step").asDouble()
                                    : 1.0;
            if (step <= 0 || to < from)
                fatal("%s: axis '%s' has an empty or descending range",
                      what.c_str(), axis.param.c_str());
            // Count before expanding, so a huge range fails here instead
            // of filling memory. The size guard also ends a range whose
            // step is lost to rounding (the check below then rejects it).
            const double count = std::floor((to - from) / step) + 1;
            if (!std::isfinite(count) || count > double(kMaxAxisValues))
                fatal("%s: axis '%s' has more than %zu values",
                      what.c_str(), axis.param.c_str(), kMaxAxisValues);
            for (double v = from;
                 v <= to + 1e-9 && axis.numeric.size() <= kMaxAxisValues;
                 v += step)
                axis.numeric.push_back(v);
        } else {
            fatal("%s: axis '%s' needs 'values' or 'from'/'to'",
                  what.c_str(), axis.param.c_str());
        }
        if (axis.size() == 0)
            fatal("%s: axis '%s' has no values", what.c_str(),
                  axis.param.c_str());
        if (axis.size() > kMaxAxisValues)
            fatal("%s: axis '%s' has more than %zu values", what.c_str(),
                  axis.param.c_str(), kMaxAxisValues);
        for (const auto &other : spec.axes)
            if (other.field == axis.field)
                fatal("%s: axis '%s' appears twice", what.c_str(),
                      axis.param.c_str());
        spec.axes.push_back(std::move(axis));
    }
    if (spec.axes.empty())
        fatal("%s: no axes", what.c_str());
    return spec;
}

void
decodePoint(const SpaceSpec &spec, std::uint64_t index,
            std::uint32_t *digits)
{
    // Row-major: the first axis varies slowest.
    for (std::size_t i = spec.axes.size(); i-- > 0;) {
        const std::uint64_t n = spec.axes[i].size();
        digits[i] = static_cast<std::uint32_t>(index % n);
        index /= n;
    }
}

ConfigPoint
materializePoint(const SpaceSpec &spec, const std::uint32_t *digits)
{
    // Resolve the machine shell: mode/policy/impl/regs axes re-derive the
    // paper's pipeline-depth rules through presetForMode; everything else
    // starts from the base machine.
    core::RegFileMode mode = spec.baseCore.mode;
    core::AllocPolicy policy = spec.baseCore.policy;
    core::RenameImpl impl = spec.baseCore.renameImpl;
    unsigned regs = spec.baseCore.numPhysRegs;
    bool reshell = false;
    for (std::size_t i = 0; i < spec.axes.size(); ++i) {
        const AxisSpec &axis = spec.axes[i];
        switch (axis.field) {
        case kMode:
            mode = static_cast<core::RegFileMode>(axis.ordinals[digits[i]]);
            reshell = true;
            break;
        case kPolicy:
            policy = policyFromOrdinal(axis.ordinals[digits[i]]);
            reshell = true;
            break;
        case kRenameImpl:
            impl = static_cast<core::RenameImpl>(axis.ordinals[digits[i]]);
            reshell = true;
            break;
        case kNumPhysRegs:
            regs = static_cast<unsigned>(axis.numeric[digits[i]]);
            break;
        default: break;
        }
    }

    ConfigPoint pt;
    pt.mem = spec.baseMem;
    if (reshell)
        pt.core = sim::presetForMode(mode, policy, regs, impl);
    else
        pt.core = spec.baseCore;
    pt.core.numPhysRegs = regs;

    for (std::size_t i = 0; i < spec.axes.size(); ++i) {
        const AxisSpec &axis = spec.axes[i];
        const Field field = static_cast<Field>(axis.field);
        if (field == kMode || field == kPolicy || field == kRenameImpl ||
            field == kNumPhysRegs)
            continue;  // already folded into the shell
        if (axis.isEnum)
            applyEnum(pt, field, axis.ordinals[digits[i]]);
        else
            applyNumeric(pt, field, axis.numeric[digits[i]]);
    }

    // Feasibility: everything Core's construction-time validation (and
    // PhysRegFile/Renamer) would reject, plus a progress-headroom floor.
    const auto reject = [&pt](const char *why) {
        pt.feasible = false;
        pt.whyInfeasible = why;
        return pt;
    };
    if (pt.core.numClusters == 0 ||
        pt.core.numClusters > core::kMaxClusters)
        return reject("unsupported cluster count");
    if (pt.core.mode == core::RegFileMode::Wsrs &&
        pt.core.numClusters != 4)
        return reject("WSRS requires 4 clusters");
    if (pt.core.fetchWidth == 0 || pt.core.commitWidth == 0 ||
        pt.core.issuePerCluster == 0 || pt.core.clusterWindow == 0 ||
        pt.core.writebackPerCluster == 0)
        return reject("zero pipeline width");
    const unsigned subsets = subsetsFor(pt.core);
    if (pt.core.numPhysRegs % subsets != 0)
        return reject("registers not divisible into subsets");
    if (pt.core.numPhysRegs < isa::kNumLogRegs + subsets)
        return reject("too few physical registers");
    return pt;
}

std::string
pointName(std::uint64_t index)
{
    // Appending (rather than "x" + to_string) keeps GCC 12's -Wrestrict
    // false positive out of Release builds.
    std::string name = "x";
    name += std::to_string(index);
    return name;
}

std::string
pointConfigJson(const SpaceSpec &spec, const std::uint32_t *digits)
{
    std::ostringstream os;
    JsonWriter w(os, JsonWriter::Style::Spaced);
    w.beginObject();
    for (std::size_t i = 0; i < spec.axes.size(); ++i) {
        const AxisSpec &axis = spec.axes[i];
        w.key(axis.param);
        if (axis.isEnum)
            w.value(axis.labels[digits[i]]);
        else
            w.value(axis.numeric[digits[i]]);
    }
    w.endObject();
    return os.str();
}

std::vector<std::string>
supportedParams()
{
    std::vector<std::string> names;
    for (const auto &e : kCatalog)
        names.push_back(e.name);
    return names;
}

} // namespace wsrs::explore
