#include "sweep_report.h"

#include <ostream>

#include "src/common/json.h"
#include "src/common/log.h"

namespace wsrs::runner {

void
writeSweepReport(std::ostream &os, const std::vector<SweepJob> &jobs,
                 const std::vector<SweepOutcome> &outcomes,
                 const SweepRunner::Telemetry &telemetry)
{
    if (jobs.size() != outcomes.size())
        fatal("sweep report: %zu jobs but %zu outcomes", jobs.size(),
              outcomes.size());
    std::size_t failed = 0;
    JsonWriter w(os, JsonWriter::Style::Spaced);
    w.beginObject().field("schema", kSweepReportSchema).key("jobs");
    w.beginArray();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SweepOutcome &out = outcomes[i];
        w.beginObject()
            .field("benchmark", jobs[i].profile.name)
            .field("machine", jobs[i].config.core.name)
            .field("ok", out.ok);
        if (out.ok) {
            // results.statsJson is itself a complete JSON document.
            w.key("stats").raw(out.results.statsJson);
        } else {
            w.field("error", out.error).key("stats").null();
            ++failed;
        }
        w.endObject();
    }
    w.endArray()
        .key("resume").beginObject()
        .field("resumed", telemetry.resumed)
        .field("skipped_runs", telemetry.skippedRuns)
        .endObject()
        .key("ckpt").beginObject()
        .field("warmup_reuse", telemetry.warmupReuse)
        .key("warmup_cache").beginObject()
        .field("hits", telemetry.warmupHits)
        .field("misses", telemetry.warmupMisses)
        .endObject().endObject();
    w.key("summary").beginObject();
    w.field("total", jobs.size()).field("failed", failed);
    w.endObject().endObject();
}

} // namespace wsrs::runner
