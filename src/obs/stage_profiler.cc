#include "stage_profiler.h"

#include <ostream>

#include "src/common/json.h"

namespace wsrs::obs {

const char *
StageProfiler::stageName(Stage s)
{
    switch (s) {
      case Commit:    return "commit";
      case StoreData: return "store_data";
      case Issue:     return "issue";
      case Agen:      return "agen";
      case Rename:    return "rename";
      case Fetch:     return "fetch";
      default:        return "invalid";
    }
}

double
StageProfiler::totalSeconds() const
{
    double t = 0;
    for (const double s : seconds_)
        t += s;
    return t;
}

void
StageProfiler::reset()
{
    seconds_.fill(0.0);
    calls_.fill(0);
}

void
StageProfiler::dumpJson(std::ostream &os) const
{
    const double total = totalSeconds();
    JsonWriter w(os, JsonWriter::Style::Spaced);
    w.beginObject();
    for (unsigned s = 0; s < kNumStages; ++s)
        w.key(stageName(static_cast<Stage>(s))).beginObject()
            .field("seconds", seconds_[s]).field("calls", calls_[s])
            .field("share", total > 0 ? seconds_[s] / total : 0.0)
            .endObject();
    w.endObject();
}

} // namespace wsrs::obs
