#include "trace_io.h"

#include <array>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#define WSRS_TRACE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "src/ckpt/io.h"
#include "src/common/log.h"

namespace wsrs::workload {

namespace {

constexpr char kMagic[8] = {'W', 'S', 'R', 'S', 'T', 'R', 'C', '1'};
constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kRecordBytes = 30;

std::array<std::uint8_t, kRecordBytes>
encodeRecord(const isa::MicroOp &op)
{
    std::array<std::uint8_t, kRecordBytes> rec{};
    ckpt::storeLe(&rec[0], op.pc, 8);
    ckpt::storeLe(&rec[8], op.effAddr, 8);
    ckpt::storeLe(&rec[16], op.target, 8);
    rec[24] = static_cast<std::uint8_t>(op.op);
    rec[25] = op.src1;
    rec[26] = op.src2;
    rec[27] = op.dst;
    rec[28] = static_cast<std::uint8_t>((op.commutative ? 1 : 0) |
                                        (op.taken ? 2 : 0));
    rec[29] = 0;
    return rec;
}

isa::MicroOp
decodeRecord(const std::array<std::uint8_t, kRecordBytes> &rec,
             const std::string &path, std::uint64_t byte_offset)
{
    isa::MicroOp op;
    op.pc = ckpt::loadLe(&rec[0], 8);
    op.effAddr = ckpt::loadLe(&rec[8], 8);
    op.target = ckpt::loadLe(&rec[16], 8);
    if (rec[24] >= isa::kNumOpClasses)
        fatalIo("trace file '%s' is corrupt: invalid op class %u at byte "
              "offset %llu",
              path.c_str(), rec[24],
              static_cast<unsigned long long>(byte_offset + 24));
    op.op = static_cast<isa::OpClass>(rec[24]);
    // Registers index the core's map table: a logical register or none.
    for (std::size_t at = 25; at < 28; ++at) {
        if (rec[at] >= isa::kNumLogRegs && rec[at] != kNoLogReg)
            fatalIo("trace file '%s' is corrupt: invalid register %u at "
                    "byte offset %llu",
                    path.c_str(), rec[at],
                    static_cast<unsigned long long>(byte_offset + at));
    }
    op.src1 = rec[25];
    op.src2 = rec[26];
    op.dst = rec[27];
    op.commutative = rec[28] & 1;
    op.taken = rec[28] & 2;
    return op;
}

} // namespace

TraceWriter::TraceWriter(const std::string &path)
    : out_(path, std::ios::binary | std::ios::trunc), path_(path)
{
    if (!out_)
        fatalIo("cannot open trace file '%s' for writing", path.c_str());
    std::uint8_t header[kHeaderBytes] = {};
    std::memcpy(header, kMagic, sizeof(kMagic));
    // The record count at header + 8 stays zero until close() patches it.
    out_.write(reinterpret_cast<const char *>(header), kHeaderBytes);
}

TraceWriter::~TraceWriter()
{
    if (!closed_)
        close();
}

void
TraceWriter::append(const isa::MicroOp &op)
{
    WSRS_ASSERT(!closed_);
    const auto rec = encodeRecord(op);
    out_.write(reinterpret_cast<const char *>(rec.data()), rec.size());
    ++count_;
}

void
TraceWriter::close()
{
    if (closed_)
        return;
    closed_ = true;
    out_.seekp(8);
    char buf[8];
    ckpt::storeLe(buf, count_, 8);
    out_.write(buf, 8);
    out_.flush();
    if (!out_)
        fatalIo("error writing trace file '%s'", path_.c_str());
    out_.close();
}

TraceReader::TraceReader(const std::string &path, bool wrap)
    : in_(path, std::ios::binary), path_(path), wrap_(wrap)
{
    if (!in_)
        fatalIo("cannot open trace file '%s'", path.c_str());

    // Size the file up front so truncation is reported as an explicit
    // error (with the offending byte offset) instead of a short read
    // surfacing later, mid-simulation.
    in_.seekg(0, std::ios::end);
    const auto fileSize = static_cast<std::uint64_t>(in_.tellg());
    in_.seekg(0);

#ifdef WSRS_TRACE_MMAP
    // Map the whole file read-only; every validity check below runs
    // against the mapped bytes exactly as it would against stream reads.
    // A mapping failure (exotic filesystem, size 0) falls back silently.
    if (fileSize > 0) {
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd >= 0) {
            void *m = ::mmap(nullptr, static_cast<std::size_t>(fileSize),
                             PROT_READ, MAP_PRIVATE, fd, 0);
            ::close(fd);
            if (m != MAP_FAILED) {
                map_ = static_cast<const std::uint8_t *>(m);
                mapLen_ = static_cast<std::size_t>(fileSize);
            }
        }
    }
#endif

    if (fileSize < kHeaderBytes)
        fatalIo("trace file '%s' is truncated: %llu bytes, need %zu for the "
              "header (the file ends at byte offset %llu)",
              path.c_str(), static_cast<unsigned long long>(fileSize),
              kHeaderBytes, static_cast<unsigned long long>(fileSize));
    std::uint8_t header[kHeaderBytes];
    in_.read(reinterpret_cast<char *>(header), kHeaderBytes);
    if (!in_ || std::memcmp(header, kMagic, sizeof(kMagic)) != 0)
        fatalIo("'%s' is not a wsrs trace file (bad magic at byte offset 0)",
                path.c_str());
    count_ = ckpt::loadLe(header + 8, 8);
    if (count_ == 0)
        fatalIo("trace file '%s' contains no records (record count at byte "
                "offset 8)",
                path.c_str());

    // Compare in records, not bytes: count_ * kRecordBytes can wrap.
    if (count_ > (fileSize - kHeaderBytes) / kRecordBytes)
        fatalIo("trace file '%s' is truncated: header declares %llu records "
              "(%.0f bytes) but the file ends at byte offset %llu",
              path.c_str(), static_cast<unsigned long long>(count_),
              kHeaderBytes + static_cast<double>(count_) * kRecordBytes,
              static_cast<unsigned long long>(fileSize));
    const std::uint64_t need = kHeaderBytes + count_ * kRecordBytes;
    if (fileSize > need)
        fatalIo("trace file '%s' is corrupt: %llu trailing bytes after the "
              "last record (record region ends at byte offset %llu)",
              path.c_str(), static_cast<unsigned long long>(fileSize - need),
              static_cast<unsigned long long>(need));
}

TraceReader::~TraceReader()
{
#ifdef WSRS_TRACE_MMAP
    if (map_ != nullptr)
        ::munmap(const_cast<std::uint8_t *>(map_), mapLen_);
#endif
}

isa::MicroOp
TraceReader::next()
{
    if (cursor_ >= count_) {
        if (!wrap_)
            fatalIo("trace file '%s' exhausted after %llu records",
                  path_.c_str(), static_cast<unsigned long long>(count_));
        if (map_ == nullptr) {
            in_.clear();
            in_.seekg(kHeaderBytes);
        }
        cursor_ = 0;
    }
    const std::uint64_t offset = kHeaderBytes + cursor_ * kRecordBytes;
    std::array<std::uint8_t, kRecordBytes> rec;
    if (map_ != nullptr) {
        // Constructor-validated geometry guarantees the record is in range.
        std::memcpy(rec.data(), map_ + offset, kRecordBytes);
    } else {
        in_.read(reinterpret_cast<char *>(rec.data()), rec.size());
        if (!in_)
            fatalIo("error reading trace file '%s': record %llu at byte "
                  "offset %llu is unreadable (truncated or I/O error)",
                  path_.c_str(), static_cast<unsigned long long>(cursor_),
                  static_cast<unsigned long long>(offset));
    }
    ++cursor_;
    isa::MicroOp op = decodeRecord(rec, path_, offset);
    op.seq = produced_++;
    return op;
}

} // namespace wsrs::workload
