#include "explorer.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <sstream>
#include <thread>

#include "src/common/json.h"
#include "src/obs/explore_metrics.h"
#include "src/rfmodel/regfile_model.h"
#include "src/runner/sweep_runner.h"
#include "src/workload/profiles.h"

namespace wsrs::explore {

namespace {

/**
 * Memory-side model terms of every combination of the space's
 * memory-side axes, with combinations whose terms are bit-identical for
 * every workload merged into one class. Built once, read by every sweep
 * thread.
 */
struct MemoryTable
{
    std::vector<std::size_t> axes;      ///< Memory-side axis positions.
    std::vector<std::uint32_t> classOf; ///< Combination -> class.
    std::vector<MemTerms> terms;        ///< Class-major, workload-minor.
    std::size_t classes = 0;
};

/** Row-major index of @p digits' memory-side digits. */
std::uint64_t
memoryCombo(const SpaceSpec &spec, const MemoryTable &table,
            const std::uint32_t *digits)
{
    std::uint64_t combo = 0;
    for (const std::size_t a : table.axes)
        combo = combo * spec.axes[a].size() + digits[a];
    return combo;
}

MemoryTable
buildMemoryTable(const SpaceSpec &spec, const AnalyticModel &model,
                 const std::vector<WorkloadSignature> &sigs)
{
    MemoryTable table;
    std::uint64_t combos = 1;
    for (std::size_t a = 0; a < spec.axes.size(); ++a)
        if (spec.axes[a].memorySide) {
            table.axes.push_back(a);
            combos *= spec.axes[a].size();
        }
    table.classOf.resize(combos);

    // Core-side digits stay 0: the memory-side terms never read them.
    std::vector<std::uint32_t> digits(std::max<std::size_t>(
        spec.axes.size(), 1));
    std::vector<MemTerms> row(sigs.size());
    std::map<std::string, std::uint32_t> classes; // term bytes -> class
    for (std::uint64_t combo = 0; combo < combos; ++combo) {
        std::uint64_t rest = combo;
        for (std::size_t k = table.axes.size(); k-- > 0;) {
            const std::uint64_t n = spec.axes[table.axes[k]].size();
            digits[table.axes[k]] = static_cast<std::uint32_t>(rest % n);
            rest /= n;
        }
        const ConfigPoint pt = materializePoint(spec, digits.data());
        for (std::size_t w = 0; w < sigs.size(); ++w)
            row[w] = model.memTerms(pt.mem, sigs[w]);
        const auto [it, fresh] = classes.emplace(
            std::string(reinterpret_cast<const char *>(row.data()),
                        row.size() * sizeof(MemTerms)),
            static_cast<std::uint32_t>(classes.size()));
        if (fresh)
            table.terms.insert(table.terms.end(), row.begin(), row.end());
        table.classOf[combo] = it->second;
    }
    table.classes = classes.size();
    return table;
}

/** One worker's share of the analytic sweep. */
struct ChunkResult
{
    ParetoArchive archive;
    std::uint64_t infeasible = 0;
    std::uint64_t modelEvaluations = 0;
};

/**
 * Score points [lo, hi). The core side (feasibility, core terms,
 * hardware) is recomputed only when an odometer step changes a
 * core-side digit, and the fixed point runs once per memory class for
 * each distinct vector of core terms. Every objective is the value
 * the per-point estimateIpc loop would produce, bit for bit, so chunk
 * boundaries cannot change the result.
 */
void
sweepChunk(const SpaceSpec &spec, const AnalyticModel &model,
           const std::vector<WorkloadSignature> &sigs,
           const MemoryTable &mem, std::uint64_t lo, std::uint64_t hi,
           ChunkResult &out)
{
    const std::size_t n = spec.axes.size();
    const std::size_t nsig = sigs.size();
    // coreFrom[a]: some axis at position >= a is core-side, so a step
    // that carries into axis a changes the core.
    std::vector<char> coreFrom(n + 1, 0);
    for (std::size_t a = n; a-- > 0;)
        coreFrom[a] = coreFrom[a + 1] || !spec.axes[a].memorySide;

    std::vector<std::uint32_t> digits(std::max<std::size_t>(n, 1));
    decodePoint(spec, lo, digits.data());

    // Mean IPC per memory class under the current core terms; a class
    // is valid when its stamp equals gen (0 = no core terms yet).
    std::vector<double> classIpc(mem.classes);
    std::vector<std::uint64_t> classGen(mem.classes, 0);
    std::uint64_t gen = 0;
    std::vector<CoreTerms> cur(nsig), next(nsig);
    bool feasible = false;
    HardwareEstimate hw;
    bool coreChanged = true;
    for (std::uint64_t idx = lo; idx < hi; ++idx) {
        if (coreChanged) {
            const ConfigPoint pt = materializePoint(spec, digits.data());
            feasible = pt.feasible;
            if (feasible) {
                for (std::size_t w = 0; w < nsig; ++w)
                    next[w] = model.coreTerms(pt.core, pt.mem.l1Latency,
                                              sigs[w]);
                if (gen == 0 ||
                    std::memcmp(next.data(), cur.data(),
                                nsig * sizeof(CoreTerms)) != 0) {
                    cur.swap(next);
                    ++gen;
                }
                hw = model.estimateHardware(pt.core);
            }
        }

        if (!feasible) {
            ++out.infeasible;
        } else {
            const std::uint32_t cls =
                mem.classOf[memoryCombo(spec, mem, digits.data())];
            if (classGen[cls] != gen) {
                const MemTerms *terms = mem.terms.data() + cls * nsig;
                double sum_ipc = 0;
                for (std::size_t w = 0; w < nsig; ++w)
                    sum_ipc += model.combine(cur[w], terms[w]).ipc;
                classIpc[cls] = sigs.empty() ? 0 : sum_ipc / nsig;
                classGen[cls] = gen;
                out.modelEvaluations += nsig;
            }
            FrontierPoint p;
            p.index = idx;
            p.obj.ipc = classIpc[cls];
            p.obj.area = hw.areaRel;
            p.obj.energy = hw.energyNJ;
            out.archive.offer(p);
        }

        // Step the odometer (last axis fastest); the digits at and after
        // the highest one that moved are the ones that changed.
        std::size_t a = n;
        while (a > 0) {
            --a;
            if (++digits[a] < spec.axes[a].size())
                break;
            digits[a] = 0;
        }
        coreChanged = coreFrom[a];
    }
}

/** Mean-over-workloads CPI decomposition of one point, for the report. */
struct MeanEstimate
{
    IpcEstimate est; ///< Every member is the arithmetic workload mean.
};

MeanEstimate
meanEstimate(const AnalyticModel &model, const ConfigPoint &pt,
             const std::vector<WorkloadSignature> &sigs)
{
    MeanEstimate m;
    if (sigs.empty())
        return m;
    for (const WorkloadSignature &sig : sigs) {
        const IpcEstimate e = model.estimateIpc(pt.core, pt.mem, sig);
        m.est.ipc += e.ipc;
        m.est.cpiCore += e.cpiCore;
        m.est.cpiBranch += e.cpiBranch;
        m.est.cpiMem += e.cpiMem;
        m.est.cpiReg += e.cpiReg;
        m.est.mispredictRate += e.mispredictRate;
        m.est.l1MissPerLoad += e.l1MissPerLoad;
        m.est.l2MissPerL1 += e.l2MissPerL1;
        m.est.mlp += e.mlp;
    }
    const double n = static_cast<double>(sigs.size());
    m.est.ipc /= n;
    m.est.cpiCore /= n;
    m.est.cpiBranch /= n;
    m.est.cpiMem /= n;
    m.est.cpiReg /= n;
    m.est.mispredictRate /= n;
    m.est.l1MissPerLoad /= n;
    m.est.l2MissPerL1 /= n;
    m.est.mlp /= n;
    return m;
}

/** Rank of each entry when sorted by value desc (ties: lower index
 *  first); rank 0 is the best. @p order maps value slots to the stable
 *  identity used for tie-breaking. */
std::vector<std::size_t>
rankDescending(const std::vector<double> &values,
               const std::vector<std::uint64_t> &ids)
{
    std::vector<std::size_t> order(values.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (values[a] != values[b])
                      return values[a] > values[b];
                  return ids[a] < ids[b];
              });
    std::vector<std::size_t> rank(values.size());
    for (std::size_t r = 0; r < order.size(); ++r)
        rank[order[r]] = r;
    return rank;
}

} // namespace

ExplorerResult
explore(const SpaceSpec &spec, const AnalyticModel &model,
        const ExplorerOptions &options)
{
    using Clock = std::chrono::steady_clock;
    ExplorerResult result;

    std::vector<workload::BenchmarkProfile> profiles;
    std::vector<WorkloadSignature> sigs;
    profiles.reserve(spec.workloads.size());
    sigs.reserve(spec.workloads.size());
    for (const std::string &name : spec.workloads) {
        profiles.push_back(workload::findProfile(name));
        sigs.push_back(model.characterize(profiles.back()));
    }

    // ---- analytic sweep -------------------------------------------------
    const auto enumerate_start = Clock::now();
    const std::uint64_t total = spec.totalPoints();
    unsigned threads = options.threads
                           ? options.threads
                           : std::max(1u, std::thread::hardware_concurrency());
    threads = static_cast<unsigned>(std::min<std::uint64_t>(
        threads, std::max<std::uint64_t>(total, 1)));

    const MemoryTable mem = buildMemoryTable(spec, model, sigs);
    std::vector<ChunkResult> chunks(threads);
    if (threads <= 1) {
        sweepChunk(spec, model, sigs, mem, 0, total, chunks[0]);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t) {
            const std::uint64_t lo = total * t / threads;
            const std::uint64_t hi = total * (t + 1) / threads;
            pool.emplace_back([&, lo, hi, t] {
                sweepChunk(spec, model, sigs, mem, lo, hi, chunks[t]);
            });
        }
        for (std::thread &th : pool)
            th.join();
    }

    // Merge in chunk order; the archive is a set, so any order gives the
    // same frontier — chunk order just makes the walk obvious.
    ParetoArchive merged;
    result.enumerated = total;
    for (const ChunkResult &c : chunks) {
        merged.merge(c.archive);
        result.infeasible += c.infeasible;
        result.modelEvaluations += c.modelEvaluations;
    }
    result.frontier = merged.sorted();
    const auto enumerate_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - enumerate_start)
            .count();

    // ---- cycle-accurate confirmation ------------------------------------
    const std::size_t confirm_n =
        std::min(options.confirmTop, result.frontier.size());
    std::size_t confirm_jobs = 0;
    std::size_t confirm_failures = 0;
    const auto confirm_start = Clock::now();
    if (confirm_n > 0) {
        std::vector<std::uint32_t> digits(std::max<std::size_t>(
            spec.axes.size(), 1));
        std::vector<sim::SimConfig> configs;
        configs.reserve(confirm_n);
        for (std::size_t k = 0; k < confirm_n; ++k) {
            const std::uint64_t idx = result.frontier[k].index;
            decodePoint(spec, idx, digits.data());
            ConfigPoint pt = materializePoint(spec, digits.data());
            sim::SimConfig cfg;
            cfg.core = pt.core;
            cfg.core.name = pointName(idx);
            cfg.mem = pt.mem;
            cfg.predictor = pt.predictor;
            cfg.measureUops = options.confirmMeasureUops;
            cfg.warmupUops = options.confirmWarmupUops;
            configs.push_back(std::move(cfg));
        }

        runner::SweepRunner::Options ropts;
        ropts.threads = options.confirmThreads;
        ropts.metrics = options.metrics;
        runner::SweepRunner sweeper(ropts);
        const std::vector<runner::SweepJob> jobs =
            runner::SweepRunner::crossProduct(profiles, configs);
        confirm_jobs = jobs.size();
        const std::vector<runner::SweepOutcome> outcomes = sweeper.run(jobs);

        result.confirmed.resize(confirm_n);
        for (std::size_t k = 0; k < confirm_n; ++k) {
            ConfirmedPoint &cp = result.confirmed[k];
            cp.index = result.frontier[k].index;
            cp.ok = true;
            cp.perWorkload.resize(profiles.size(), 0);
            double sum = 0;
            for (std::size_t p = 0; p < profiles.size(); ++p) {
                // crossProduct is profiles-outer: job p * confirm_n + k.
                const runner::SweepOutcome &o =
                    outcomes[p * confirm_n + k];
                if (!o.ok) {
                    ++confirm_failures;
                    if (cp.ok) {
                        cp.ok = false;
                        cp.error = o.error;
                    }
                    continue;
                }
                cp.perWorkload[p] = o.results.ipc;
                sum += o.results.ipc;
            }
            if (cp.ok && !profiles.empty())
                cp.measuredIpc = sum / static_cast<double>(profiles.size());
        }

        std::vector<double> est_ok, meas_ok;
        for (std::size_t k = 0; k < confirm_n; ++k) {
            if (!result.confirmed[k].ok)
                continue;
            est_ok.push_back(result.frontier[k].obj.ipc);
            meas_ok.push_back(result.confirmed[k].measuredIpc);
        }
        result.confirmSpearman = spearman(est_ok, meas_ok);
        for (std::size_t i = 0; i < est_ok.size(); ++i)
            for (std::size_t j = i + 1; j < est_ok.size(); ++j)
                if ((est_ok[i] - est_ok[j]) * (meas_ok[i] - meas_ok[j]) < 0)
                    ++result.rankInversions;
    }
    const auto confirm_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - confirm_start)
            .count();

    // ---- telemetry ------------------------------------------------------
    if (options.metrics) {
        obs::ExploreMetrics m(*options.metrics);
        m.configsEnumerated.add(result.enumerated);
        m.configsInfeasible.add(result.infeasible);
        m.confirmJobs.add(confirm_jobs);
        m.confirmFailures.add(confirm_failures);
        m.frontierSize.set(static_cast<std::int64_t>(
            result.frontier.size()));
        m.spaceAxes.set(static_cast<std::int64_t>(spec.axes.size()));
        m.enumerateMs.observe(static_cast<std::uint64_t>(enumerate_ms));
        if (confirm_n > 0)
            m.confirmMs.observe(static_cast<std::uint64_t>(confirm_ms));
    }

    // ---- report ---------------------------------------------------------
    // Deterministic by construction: every value is a pure function of
    // (spec, model, options) — no wall times, no machine identity.
    std::ostringstream os;
    JsonWriter w(os, JsonWriter::Style::Compact);
    w.beginObject()
        .field("schema", kExploreReportSchema)
        .key("space").beginObject()
        .field("base_machine", spec.baseMachineLabel)
        .field("base_mem", spec.baseMemLabel)
        .field("workloads", spec.workloads)
        .key("axes").beginArray();
    for (const AxisSpec &axis : spec.axes) {
        w.beginObject().field("param", axis.param).field("size", axis.size());
        if (axis.isEnum)
            w.field("values", axis.labels);
        else
            w.field("values", axis.numeric);
        w.endObject();
    }
    w.endArray()
        .field("total_configs", total)
        .field("enumerated", result.enumerated)
        .field("feasible", result.enumerated - result.infeasible)
        .field("infeasible", result.infeasible)
        .endObject()
        .field("objectives",
               std::array{"est_ipc", "area_rel", "energy_nj_per_cycle"})
        .field("frontier_size", result.frontier.size());

    // Ranks over the confirmed (and successful) points only.
    std::vector<double> est_vals, meas_vals;
    std::vector<std::uint64_t> rank_ids;
    std::vector<std::size_t> ok_slot(confirm_n, SIZE_MAX);
    for (std::size_t k = 0; k < confirm_n; ++k) {
        if (!result.confirmed[k].ok)
            continue;
        ok_slot[k] = est_vals.size();
        est_vals.push_back(result.frontier[k].obj.ipc);
        meas_vals.push_back(result.confirmed[k].measuredIpc);
        rank_ids.push_back(result.frontier[k].index);
    }
    const std::vector<std::size_t> est_rank =
        rankDescending(est_vals, rank_ids);
    const std::vector<std::size_t> meas_rank =
        rankDescending(meas_vals, rank_ids);

    w.key("frontier").beginArray();
    {
        const rfmodel::RegFileModel rf_model;
        const rfmodel::RegFileOrg rf_ref = rfmodel::makeNoWs2Cluster();
        std::vector<std::uint32_t> digits(std::max<std::size_t>(
            spec.axes.size(), 1));
        for (std::size_t k = 0; k < result.frontier.size(); ++k) {
            const FrontierPoint &fp = result.frontier[k];
            decodePoint(spec, fp.index, digits.data());
            const ConfigPoint pt = materializePoint(spec, digits.data());
            const MeanEstimate m = meanEstimate(model, pt, sigs);
            const HardwareEstimate hw = model.estimateHardware(pt.core);
            const rfmodel::RegFileOrg org =
                rfmodel::regFileOrgFromParams(pt.core);

            w.beginObject()
                .field("rank", k)
                .field("index", fp.index)
                .field("name", pointName(fp.index))
                .key("config").raw(pointConfigJson(spec, digits.data()))
                .key("est").beginObject()
                .field("ipc", fp.obj.ipc)
                .field("area_rel", fp.obj.area)
                .field("energy_nj_per_cycle", fp.obj.energy)
                .field("cpi_core", m.est.cpiCore)
                .field("cpi_branch", m.est.cpiBranch)
                .field("cpi_mem", m.est.cpiMem)
                .field("cpi_reg", m.est.cpiReg)
                .field("mispredict_rate", m.est.mispredictRate)
                .field("l1_miss_per_load", m.est.l1MissPerLoad)
                .field("l2_miss_per_l1", m.est.l2MissPerL1)
                .field("mlp", m.est.mlp)
                .field("rf_area_rel", hw.rfAreaRel)
                .field("access_time_ns", hw.accessTimeNs)
                .field("comparators", hw.comparators)
                .field("bypass_sources", hw.bypassSources)
                .endObject()
                .key("rf")
                .raw(rfmodel::orgJson(org, rf_model.estimate(org, rf_ref)))
                .key("measured");
            if (k < confirm_n && result.confirmed[k].ok) {
                const ConfirmedPoint &cp = result.confirmed[k];
                const std::size_t slot = ok_slot[k];
                w.beginObject()
                    .field("ipc", cp.measuredIpc)
                    .key("per_workload").beginObject();
                for (std::size_t p = 0; p < spec.workloads.size(); ++p)
                    w.field(spec.workloads[p], cp.perWorkload[p]);
                w.endObject()
                    .field("est_rank", est_rank[slot])
                    .field("measured_rank", meas_rank[slot])
                    .field("rank_inversion", est_rank[slot] != meas_rank[slot])
                    .endObject();
            } else {
                w.null();
            }
            w.endObject();
        }
    }
    w.endArray().key("confirm");
    if (confirm_n > 0) {
        w.beginObject()
            .field("requested", options.confirmTop)
            .field("confirmed", confirm_n)
            .field("jobs", confirm_jobs)
            .field("failures", confirm_failures)
            .field("measure_uops", options.confirmMeasureUops)
            .field("warmup_uops", options.confirmWarmupUops)
            .field("spearman", result.confirmSpearman)
            .field("rank_inversions", result.rankInversions)
            .key("errors").beginArray();
        for (const ConfirmedPoint &cp : result.confirmed)
            if (!cp.ok)
                w.beginObject()
                    .field("index", cp.index)
                    .field("error", cp.error)
                    .endObject();
        w.endArray().endObject();
    } else {
        w.null();
    }
    w.endObject();
    os << "\n";
    result.reportJson = os.str();
    return result;
}

} // namespace wsrs::explore
