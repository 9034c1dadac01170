#include "calibrate.h"

#include <iomanip>
#include <sstream>

#include "src/runner/sweep_runner.h"
#include "src/sim/presets.h"
#include "src/workload/profiles.h"

namespace wsrs::explore {

CalibrationResult
calibrate(const AnalyticModel &model, const CalibrationOptions &options)
{
    CalibrationResult result;

    const std::vector<workload::BenchmarkProfile> &profiles =
        workload::allProfiles();
    const std::vector<std::string> machines = sim::figure4Presets();

    sim::SimConfig base;
    base.measureUops = options.measureUops;
    base.warmupUops = options.warmupUops;

    runner::SweepRunner::Options ropts;
    ropts.threads = options.threads;
    ropts.metrics = options.metrics;
    runner::SweepRunner sweeper(ropts);
    const std::vector<runner::SweepJob> jobs =
        runner::SweepRunner::crossProduct(profiles, machines, base);
    const std::vector<runner::SweepOutcome> outcomes = sweeper.run(jobs);

    // Analytic estimates reuse the per-benchmark signature across the six
    // machines; the machine parameters come straight from the preset the
    // sweep job applied, so both sides describe the same configuration.
    std::vector<core::CoreParams> cores;
    cores.reserve(machines.size());
    for (const std::string &label : machines)
        cores.push_back(sim::findPreset(label));

    result.jobs.reserve(jobs.size());
    std::vector<double> est_ok, meas_ok;
    for (std::size_t p = 0; p < profiles.size(); ++p) {
        const WorkloadSignature sig = model.characterize(profiles[p]);
        for (std::size_t m = 0; m < machines.size(); ++m) {
            const std::size_t j = p * machines.size() + m;
            CalibrationJob job;
            job.benchmark = profiles[p].name;
            job.machine = machines[m];
            job.estimatedIpc =
                model.estimateIpc(cores[m], base.mem, sig).ipc;
            job.ok = outcomes[j].ok;
            if (job.ok) {
                job.measuredIpc = outcomes[j].results.ipc;
                est_ok.push_back(job.estimatedIpc);
                meas_ok.push_back(job.measuredIpc);
            } else {
                job.error = outcomes[j].error;
                ++result.failures;
            }
            result.jobs.push_back(std::move(job));
        }
    }
    result.spearmanIpc = spearman(est_ok, meas_ok);
    return result;
}

std::string
calibrationReportText(const CalibrationResult &result)
{
    std::ostringstream os;
    os << std::left << std::setw(14) << "benchmark" << std::setw(14)
       << "machine" << std::right << std::setw(10) << "measured"
       << std::setw(10) << "analytic" << '\n';
    os << std::string(48, '-') << '\n';
    os << std::fixed << std::setprecision(4);
    for (const CalibrationJob &job : result.jobs) {
        os << std::left << std::setw(14) << job.benchmark << std::setw(14)
           << job.machine << std::right;
        if (job.ok) {
            os << std::setw(10) << job.measuredIpc << std::setw(10)
               << job.estimatedIpc << '\n';
        } else {
            os << "  FAILED: " << job.error << '\n';
        }
    }
    os << std::string(48, '-') << '\n';
    os << "jobs " << result.jobs.size() << "  failures "
       << result.failures << "  spearman " << std::setprecision(4)
       << result.spearmanIpc << '\n';
    return os.str();
}

} // namespace wsrs::explore
