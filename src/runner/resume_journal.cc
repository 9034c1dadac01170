#include "resume_journal.h"

#include <cstring>
#include <filesystem>
#include <sstream>

#include "src/common/hash.h"
#include "src/common/log.h"
#include "src/sim/warmup.h"

namespace wsrs::runner {

namespace {

constexpr char kRecordMarker[4] = {'J', 'R', 'E', 'C'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8;
/** Marker + index + payload length (CRC follows the payload). */
constexpr std::size_t kRecordHeadBytes = 4 + 8 + 8;

} // namespace

std::uint64_t
sweepKeyHash(const std::vector<SweepJob> &jobs)
{
    std::uint64_t h = mix64(0x73776a72u);  // sweep-journal salt
    h = mixCombine(h, jobs.size());
    for (const SweepJob &job : jobs) {
        // The full-checkpoint meta-hash already covers the profile, trace
        // seed, warm-up length, memory hierarchy, predictor and the whole
        // core preset; only the measured length is missing from it.
        h = mixCombine(h,
                       sim::fullCheckpointMetaHash(job.profile, job.config));
        h = mixCombine(h, job.config.measureUops);
    }
    return h;
}

namespace {

/** The outcome's one field list, shared by the journal and svc frames. */
template <typename Out, typename Io>
void
transferOutcome(Out &out, Io &io)
{
    io.b(out.ok);
    io.str(out.error);
    auto &r = out.results;
    io.str(r.benchmark);
    io.str(r.machine);
    io.str(r.statsJson);
    io.str(r.timelineText);
    io.d64(r.ipc);
    io.d64(r.unbalancingDegree);
    io.d64(r.branchMispredictRate);
    io.d64(r.l1MissRate);
    io.d64(r.l2MissRate);
    core::CoreStats::transfer(r.stats, io);
    io.u64(r.mem.dramRequests);
    io.u64(r.mem.dramRowHits);
    io.u64(r.mem.dramRowConflicts);
    io.u64(r.mem.dramQueueFullWaits);
}

} // namespace

void
encodeOutcome(ckpt::Writer &w, const SweepOutcome &out)
{
    transferOutcome(out, w);
}

SweepOutcome
decodeOutcome(ckpt::Reader &r)
{
    SweepOutcome out;
    transferOutcome(out, r);
    ckpt::expectEnd(r, "trailing bytes after journal outcome");
    return out;
}

ResumeJournal::ResumeJournal(std::string path, std::uint64_t sweep_key,
                             std::uint64_t num_jobs, bool resume)
    : path_(std::move(path)), sweepKey_(sweep_key), numJobs_(num_jobs),
      recovered_(num_jobs), mask_(num_jobs, false)
{
    if (resume && std::filesystem::exists(path_)) {
        replay();
    } else {
        writeHeader();
    }
}

void
ResumeJournal::writeHeader()
{
    out_.open(path_, std::ios::binary | std::ios::trunc);
    if (!out_)
        fatalIo("cannot open resume journal '%s' for writing", path_.c_str());
    ckpt::Writer w;
    w.bytes(kJournalMagic, sizeof(kJournalMagic));
    w.u32(kJournalVersion);
    w.u64(sweepKey_);
    w.u64(numJobs_);
    out_.write(w.buffer().data(),
               static_cast<std::streamsize>(w.size()));
    out_.flush();
    if (!out_)
        fatalIo("write error on resume journal '%s'", path_.c_str());
}

void
ResumeJournal::replay()
{
    std::string data;
    {
        std::ifstream is(path_, std::ios::binary);
        if (!is)
            fatalIo("cannot open resume journal '%s'", path_.c_str());
        std::ostringstream buf;
        buf << is.rdbuf();
        data = buf.str();
    }
    if (data.size() < kHeaderBytes)
        fatalIo("resume journal '%s' is truncated: %zu bytes, need %zu for "
              "the header",
              path_.c_str(), data.size(), kHeaderBytes);
    if (std::memcmp(data.data(), kJournalMagic, sizeof(kJournalMagic)) != 0)
        fatalIo("'%s' is not a wsrs sweep journal (bad magic)", path_.c_str());
    const auto version =
        static_cast<std::uint32_t>(ckpt::loadLe(data.data() + 8, 4));
    if (version != kJournalVersion)
        fatalMismatch("resume journal '%s' has format version %u, this build "
              "reads version %u",
              path_.c_str(), version, kJournalVersion);
    const std::uint64_t key = ckpt::loadLe(data.data() + 12, 8);
    if (key != sweepKey_)
        fatalMismatch("resume journal '%s' belongs to a different sweep "
              "(journal key %016llx, this sweep %016llx); refusing to mix "
              "results — delete the journal or rerun the original sweep",
              path_.c_str(), static_cast<unsigned long long>(key),
              static_cast<unsigned long long>(sweepKey_));
    const std::uint64_t jobs = ckpt::loadLe(data.data() + 20, 8);
    if (jobs != numJobs_)
        fatalMismatch("resume journal '%s' records a %llu-job sweep, this sweep "
              "has %llu jobs",
              path_.c_str(), static_cast<unsigned long long>(jobs),
              static_cast<unsigned long long>(numJobs_));
    resumed_ = true;

    // Replay intact records; anything from the first damaged or
    // incomplete record onward is a torn tail from the crash and is
    // discarded (the jobs it covered simply rerun).
    std::size_t pos = kHeaderBytes;
    std::size_t goodEnd = pos;
    while (data.size() - pos >= kRecordHeadBytes) {
        if (std::memcmp(data.data() + pos, kRecordMarker,
                        sizeof(kRecordMarker)) != 0)
            break;
        const std::uint64_t index = ckpt::loadLe(data.data() + pos + 4, 8);
        const std::uint64_t len = ckpt::loadLe(data.data() + pos + 12, 8);
        if (index >= numJobs_ || len > data.size() - pos - kRecordHeadBytes)
            break;
        const std::size_t crcPos = pos + kRecordHeadBytes +
                                   static_cast<std::size_t>(len);
        if (data.size() - crcPos < 4)
            break;
        const auto stored =
            static_cast<std::uint32_t>(ckpt::loadLe(data.data() + crcPos, 4));
        const std::uint32_t computed = ckpt::crc32(
            data.data() + pos + 4, kRecordHeadBytes - 4 +
                                       static_cast<std::size_t>(len));
        if (stored != computed)
            break;
        ckpt::Reader r(
            std::string_view(data.data() + pos + kRecordHeadBytes,
                             static_cast<std::size_t>(len)),
            "journal '" + path_ + "'", pos + kRecordHeadBytes);
        recovered_[static_cast<std::size_t>(index)] = decodeOutcome(r);
        if (!mask_[static_cast<std::size_t>(index)]) {
            mask_[static_cast<std::size_t>(index)] = true;
            ++recoveredCount_;
        }
        pos = crcPos + 4;
        goodEnd = pos;
    }

    if (goodEnd != data.size())
        std::filesystem::resize_file(path_, goodEnd);
    out_.open(path_, std::ios::binary | std::ios::app);
    if (!out_)
        fatalIo("cannot reopen resume journal '%s' for append",
              path_.c_str());
}

void
ResumeJournal::record(std::uint64_t index, const SweepOutcome &out)
{
    ckpt::Writer payload;
    encodeOutcome(payload, out);
    ckpt::Writer rec;
    rec.bytes(kRecordMarker, sizeof(kRecordMarker));
    rec.u64(index);
    rec.u64(payload.size());
    rec.bytes(payload.buffer().data(), payload.size());
    // The CRC covers everything after the marker.
    rec.u32(ckpt::crc32(rec.buffer().data() + sizeof(kRecordMarker),
                        rec.size() - sizeof(kRecordMarker)));

    std::lock_guard<std::mutex> lock(mutex_);
    out_.write(rec.buffer().data(), static_cast<std::streamsize>(rec.size()));
    out_.flush();
    if (!out_)
        fatalIo("write error on resume journal '%s'", path_.c_str());
}

} // namespace wsrs::runner
