#include "proto.h"

#include <cstdio>
#include <sstream>

#include "src/ckpt/io.h"
#include "src/common/json.h"
#include "src/common/log.h"
#include "src/runner/resume_journal.h"

namespace wsrs::svc {

namespace {

/** A control-frame body: the spaced JSON object @p fill writes into. */
template <typename Fill>
std::string
object(Fill fill)
{
    std::ostringstream os;
    JsonWriter w(os, JsonWriter::Style::Spaced);
    fill(w.beginObject());
    w.endObject();
    return os.str();
}

} // namespace

std::string
hexKey(std::uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(key));
    return std::string(buf);
}

std::uint64_t
parseHexKey(const std::string &text, const std::string &what)
{
    if (text.size() != 16)
        fatal("%s: sweep key '%s' is not 16 hex digits", what.c_str(),
              text.c_str());
    std::uint64_t v = 0;
    for (const char c : text) {
        v <<= 4;
        if (c >= '0' && c <= '9')
            v |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            v |= static_cast<std::uint64_t>(c - 'a' + 10);
        else
            fatal("%s: sweep key '%s' has a non-hex digit", what.c_str(),
                  text.c_str());
    }
    return v;
}

std::string
helloPayload(std::int64_t pid, std::uint64_t sweep_key,
             std::uint64_t num_jobs, std::int64_t mono_us)
{
    return object([&](JsonWriter &w) {
        w.field("role", "worker").field("pid", pid);
        w.field("sweep_key", hexKey(sweep_key)).field("jobs", num_jobs);
        w.field("mono_us", mono_us);
    });
}

HelloInfo
parseHello(const std::string &payload)
{
    const JsonValue doc = parseJson(payload, "hello frame");
    HelloInfo info;
    info.role = doc.getString("role", "");
    info.pid = doc.getInt("pid", 0);
    info.sweepKey =
        parseHexKey(doc.getString("sweep_key", ""), "hello frame");
    info.jobs = static_cast<std::uint64_t>(doc.getInt("jobs", 0));
    info.monoUs = doc.getInt("mono_us", 0);
    return info;
}

std::string
helloAckPayload(bool ok, const std::string &error)
{
    return object([&](JsonWriter &w) {
        w.field("ok", ok);
        if (!error.empty())
            w.field("error", error);
    });
}

std::string
parseHelloAck(const std::string &payload)
{
    const JsonValue doc = parseJson(payload, "hello_ack frame");
    if (doc.getBool("ok", false))
        return std::string();
    std::string error = doc.getString("error", "");
    if (error.empty())
        error = "coordinator refused the handshake";
    return error;
}

std::string
leasePayload(const Shard &shard, std::uint32_t attempt)
{
    return object([&](JsonWriter &w) {
        w.field("shard", shard.id).field("attempt", attempt);
        w.field("jobs", shard.jobs);
    });
}

LeaseInfo
parseLease(const std::string &payload)
{
    const JsonValue doc = parseJson(payload, "lease frame");
    LeaseInfo lease;
    lease.shard.id = static_cast<std::uint64_t>(doc.getInt("shard", 0));
    lease.attempt =
        static_cast<std::uint32_t>(doc.getInt("attempt", 1));
    for (const JsonValue &v : doc.get("jobs").asArray())
        lease.shard.jobs.push_back(static_cast<std::uint64_t>(v.asInt()));
    return lease;
}

std::string
shardDonePayload(std::uint64_t shard_id)
{
    return object([&](JsonWriter &w) { w.field("shard", shard_id); });
}

std::uint64_t
parseShardDone(const std::string &payload)
{
    const JsonValue doc = parseJson(payload, "shard_done frame");
    return static_cast<std::uint64_t>(doc.getInt("shard", 0));
}

std::string
encodeJobDone(std::uint64_t index, const runner::SweepOutcome &out)
{
    ckpt::Writer inner;
    runner::encodeOutcome(inner, out);
    ckpt::Writer w;
    w.u64(index);
    w.str(inner.buffer());
    return w.buffer();
}

JobDone
decodeJobDone(const std::string &payload)
{
    ckpt::Reader r(payload, "job_done frame");
    JobDone done;
    done.index = r.u64();
    const std::string inner = r.str();
    if (!r.atEnd())
        fatalIo("job_done frame has trailing bytes after the outcome");
    ckpt::Reader ir(inner, "job_done frame [outcome]");
    done.outcome = runner::decodeOutcome(ir);
    return done;
}

std::string
workerStatsPayload(const WorkerStatsInfo &stats)
{
    return object([&](JsonWriter &w) {
        w.field("jobs_run", stats.jobsRun);
        w.field("warmup_hits", stats.warmupHits);
        w.field("warmup_misses", stats.warmupMisses);
    });
}

WorkerStatsInfo
parseWorkerStats(const std::string &payload)
{
    const JsonValue doc = parseJson(payload, "worker_stats frame");
    WorkerStatsInfo stats;
    stats.jobsRun = static_cast<std::uint64_t>(doc.getInt("jobs_run", 0));
    stats.warmupHits =
        static_cast<std::uint64_t>(doc.getInt("warmup_hits", 0));
    stats.warmupMisses =
        static_cast<std::uint64_t>(doc.getInt("warmup_misses", 0));
    return stats;
}

std::string
spanBatchPayload(const std::vector<obs::SpanEvent> &events)
{
    ckpt::Writer w;
    w.u64(events.size());
    for (const obs::SpanEvent &e : events) {
        w.str(e.name);
        w.u8(static_cast<std::uint8_t>(e.phase));
        w.u64(e.job);
        w.u32(e.attempt);
        w.u64(e.worker);
        w.u64(static_cast<std::uint64_t>(e.startUs));
        w.u64(static_cast<std::uint64_t>(e.durUs));
        w.str(e.detail);
    }
    return w.buffer();
}

std::vector<obs::SpanEvent>
parseSpanBatch(const std::string &payload)
{
    // Smallest encoded event: two empty strings (u32 length each), the
    // phase byte, the u32 attempt and five u64 fields.
    constexpr std::size_t kMinEventBytes = 4 + 1 + 8 + 4 + 8 + 8 + 8 + 4;
    ckpt::Reader r(payload, "span_batch frame");
    const std::uint64_t count = r.u64();
    if (count > 1u << 20)
        fatalIo("span_batch frame declares %llu events — refusing",
                static_cast<unsigned long long>(count));
    if (count > r.remaining() / kMinEventBytes)
        r.fail("declares " + std::to_string(count) + " events but only " +
               std::to_string(r.remaining()) + " bytes remain");
    std::vector<obs::SpanEvent> events;
    events.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
        obs::SpanEvent e;
        e.name = r.str();
        e.phase = static_cast<char>(r.u8());
        e.job = r.u64();
        e.attempt = r.u32();
        e.worker = r.u64();
        e.startUs = static_cast<std::int64_t>(r.u64());
        e.durUs = static_cast<std::int64_t>(r.u64());
        e.detail = r.str();
        events.push_back(std::move(e));
    }
    if (!r.atEnd())
        fatalIo("span_batch frame has trailing bytes");
    return events;
}

std::string
errorPayload(const std::string &message)
{
    return object([&](JsonWriter &w) { w.field("error", message); });
}

std::string
parseErrorPayload(const std::string &payload)
{
    const JsonValue doc = parseJson(payload, "error frame");
    return doc.getString("error", "unspecified service error");
}

} // namespace wsrs::svc
