#include "span_log.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <ostream>

#include "src/common/json.h"

namespace wsrs::obs {

std::int64_t
monotonicMicros()
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
SpanLog::add(SpanEvent e)
{
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(std::move(e));
}

void
SpanLog::complete(std::string name, std::uint64_t job, std::uint32_t attempt,
                  std::uint64_t worker, std::int64_t startUs,
                  std::int64_t durUs, std::string detail)
{
    add(SpanEvent{std::move(name), 'X', job, attempt, worker, startUs,
                  durUs, std::move(detail)});
}

void
SpanLog::instant(std::string name, std::uint64_t job, std::uint32_t attempt,
                 std::uint64_t worker, std::int64_t tsUs, std::string detail)
{
    add(SpanEvent{std::move(name), 'i', job, attempt, worker, tsUs, 0,
                  std::move(detail)});
}

void
SpanLog::nameJob(std::uint64_t job, std::string name)
{
    std::lock_guard<std::mutex> lock(mu_);
    jobNames_[job] = std::move(name);
}

std::size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
}

std::vector<SpanEvent>
SpanLog::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
}

std::vector<SpanEvent>
SpanLog::drain()
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SpanEvent> out;
    out.swap(events_);
    return out;
}

namespace {

struct Window
{
    std::int64_t start = 0;
    std::int64_t end = 0;
};

/** Clamp a span into @p parent; keeps start <= end. */
void
clampInto(std::int64_t &start, std::int64_t &end, const Window &parent)
{
    start = std::clamp(start, parent.start, parent.end);
    end = std::clamp(end, start, parent.end);
}

/** One trace event object; the document's line framing goes around it. */
void
writeEvent(std::ostream &os, const SpanEvent &e, std::int64_t start,
           std::int64_t dur)
{
    JsonWriter w(os, JsonWriter::Style::Spaced);
    w.beginObject().field("name", e.name);
    w.field("ph", std::string_view(&e.phase, 1)).field("ts", start);
    if (e.phase == 'X')
        w.field("dur", dur);
    else
        w.field("s", "t");
    w.field("pid", 0).field("tid", e.job);
    w.key("args").beginObject().field("worker", e.worker);
    if (e.attempt)
        w.field("attempt", e.attempt);
    if (!e.detail.empty())
        w.field("detail", e.detail);
    w.endObject().endObject();
}

/** A metadata event naming the process (tid 0) or one job's row. */
void
writeName(std::ostream &os, const char *kind, std::uint64_t tid,
          const std::string &name)
{
    JsonWriter w(os, JsonWriter::Style::Spaced);
    w.beginObject().field("name", kind).field("ph", "M");
    w.field("pid", 0).field("tid", tid);
    w.key("args").beginObject().field("name", name);
    w.endObject().endObject();
}

} // namespace

void
SpanLog::writeChromeTrace(std::ostream &os, const std::string &label) const
{
    std::vector<SpanEvent> events;
    std::map<std::uint64_t, std::string> names;
    {
        std::lock_guard<std::mutex> lock(mu_);
        events = events_;
        names = jobNames_;
    }

    std::int64_t base = std::numeric_limits<std::int64_t>::max();
    for (const SpanEvent &e : events)
        base = std::min(base, e.startUs);
    if (events.empty())
        base = 0;

    // Parent windows for the nesting clamp: the "job" root span per job,
    // and each "attempt" span per (job, attempt).
    std::map<std::uint64_t, Window> jobWindow;
    std::map<std::pair<std::uint64_t, std::uint32_t>, Window> attemptWindow;
    for (const SpanEvent &e : events) {
        if (e.phase != 'X')
            continue;
        const std::int64_t start = e.startUs - base;
        const std::int64_t end = start + std::max<std::int64_t>(e.durUs, 0);
        if (e.name == "job")
            jobWindow[e.job] = Window{start, end};
    }
    for (const SpanEvent &e : events) {
        if (e.phase != 'X' || e.name != "attempt")
            continue;
        std::int64_t start = e.startUs - base;
        std::int64_t end = start + std::max<std::int64_t>(e.durUs, 0);
        const auto root = jobWindow.find(e.job);
        if (root != jobWindow.end())
            clampInto(start, end, root->second);
        attemptWindow[{e.job, e.attempt}] = Window{start, end};
    }

    // One event per line: the header and the ",\n  " between events are
    // fixed framing around writer-emitted values.
    os << "{\n\"schema\": \"" << kSpansJsonSchema
       << "\",\n\"displayTimeUnit\": \"ms\",\n\"label\": ";
    JsonWriter(os, JsonWriter::Style::Spaced).value(label);
    os << ",\n\"traceEvents\": [\n  ";
    writeName(os, "process_name", 0, label);
    for (const auto &[job, name] : names) {
        os << ",\n  ";
        writeName(os, "thread_name", job,
                  "job " + std::to_string(job) + " " + name);
    }

    for (const SpanEvent &e : events) {
        std::int64_t start = e.startUs - base;
        std::int64_t end = start + std::max<std::int64_t>(e.durUs, 0);
        if (e.name == "job") {
            // Root span; already well-formed by construction.
        } else if (e.name == "attempt") {
            const auto w = attemptWindow.find({e.job, e.attempt});
            if (w != attemptWindow.end()) {
                start = w->second.start;
                end = w->second.end;
            }
        } else {
            // Leaf: clamp into its attempt if one exists, else the root.
            const auto aw = attemptWindow.find({e.job, e.attempt});
            const auto jw = jobWindow.find(e.job);
            if (aw != attemptWindow.end())
                clampInto(start, end, aw->second);
            else if (jw != jobWindow.end())
                clampInto(start, end, jw->second);
        }
        os << ",\n  ";
        writeEvent(os, e, start, e.phase == 'X' ? end - start : 0);
    }
    os << "\n]}\n";
}

} // namespace wsrs::obs
