#include "io.h"

#include <array>
#include <cstring>

#include "src/common/log.h"

namespace wsrs::ckpt {

namespace {

constexpr char kSectionMarker[4] = {'S', 'E', 'C', 'T'};
constexpr char kTrailerMarker[4] = {'D', 'O', 'N', 'E'};

std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[i] = c;
    }
    return t;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t len, std::uint32_t seed)
{
    static const std::array<std::uint32_t, 256> table = makeCrcTable();
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = seed ^ 0xffffffffu;
    for (std::size_t i = 0; i < len; ++i)
        c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

void
Writer::putLe(std::uint64_t v, int n)
{
    char b[8];
    storeLe(b, v, n);
    buf_.append(b, static_cast<std::size_t>(n));
}

void
Writer::d64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
Writer::str(std::string_view s)
{
    if (s.size() > 0xffffffffull)
        fatal("checkpoint string of %zu bytes exceeds format limit",
              s.size());
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
}

void
Writer::bytes(const void *p, std::size_t n)
{
    buf_.append(static_cast<const char *>(p), n);
}

void
Reader::need(std::size_t n) const
{
    if (data_.size() - pos_ < n)
        fatalIo("%s: truncated: need %zu bytes at offset %llu but only %zu "
              "remain",
              origin_.c_str(), n, static_cast<unsigned long long>(offset()),
              data_.size() - pos_);
}

std::uint8_t
Reader::u8()
{
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint64_t
Reader::getLe(int n)
{
    need(static_cast<std::size_t>(n));
    const std::uint64_t v = loadLe(data_.data() + pos_, n);
    pos_ += static_cast<std::size_t>(n);
    return v;
}

double
Reader::d64()
{
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
Reader::str()
{
    return std::string(view(u32()));
}

void
Reader::bytes(void *p, std::size_t n)
{
    need(n);
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
}

std::string_view
Reader::view(std::size_t n)
{
    need(n);
    const std::string_view v = data_.substr(pos_, n);
    pos_ += n;
    return v;
}

void
Reader::fail(const std::string &what) const
{
    fatalIo("%s: %s (at byte offset %llu)", origin_.c_str(), what.c_str(),
          static_cast<unsigned long long>(offset()));
}

CheckpointWriter::CheckpointWriter(std::ostream &os, std::string path,
                                   std::string_view kind,
                                   std::uint64_t metaHash)
    : os_(os), path_(std::move(path))
{
    os_.write(kMagic, sizeof(kMagic));
    rawLe(kFormatVersion, 4);
    rawLe(metaHash, 8);
    rawStr(kind);
}

CheckpointWriter::~CheckpointWriter()
{
    // finish() is the normal path; tolerate abandonment during unwinding.
}

void
CheckpointWriter::rawStr(std::string_view s)
{
    rawLe(s.size(), 4);
    os_.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void
CheckpointWriter::rawLe(std::uint64_t v, int n)
{
    char b[8];
    storeLe(b, v, n);
    os_.write(b, n);
}

void
CheckpointWriter::section(std::string_view name, const Writer &payload)
{
    WSRS_ASSERT(!finished_);
    os_.write(kSectionMarker, sizeof(kSectionMarker));
    rawStr(name);
    rawLe(payload.size(), 8);
    rawLe(crc32(payload.buffer().data(), payload.size()), 4);
    os_.write(payload.buffer().data(),
              static_cast<std::streamsize>(payload.size()));
    ++sections_;
}

void
CheckpointWriter::finish()
{
    WSRS_ASSERT(!finished_);
    finished_ = true;
    os_.write(kTrailerMarker, sizeof(kTrailerMarker));
    rawLe(sections_, 4);
    os_.flush();
    if (!os_)
        fatalIo("error writing checkpoint '%s'", path_.c_str());
}

CheckpointReader::CheckpointReader(std::string_view bytes, std::string origin)
    : origin_(std::move(origin))
{
    parse(bytes);
}

CheckpointReader::CheckpointReader(std::istream &is, std::string origin)
    : origin_(std::move(origin))
{
    if (const std::streamsize avail = is.rdbuf()->in_avail(); avail > 0)
        owned_.reserve(static_cast<std::size_t>(avail));
    char chunk[1 << 16];
    while (is.read(chunk, sizeof(chunk)) || is.gcount() > 0)
        owned_.append(chunk, static_cast<std::size_t>(is.gcount()));
    if (!is.eof())
        fatalIo("error reading checkpoint '%s'", origin_.c_str());
    parse(owned_);
}

void
CheckpointReader::parse(std::string_view bytes)
{
    Reader r(bytes, "checkpoint '" + origin_ + "'");
    char magic[sizeof(kMagic)];
    if (r.remaining() < sizeof(kMagic))
        r.fail("file too small to be a checkpoint");
    r.bytes(magic, sizeof(kMagic));
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        fatalIo("'%s' is not a wsrs checkpoint (bad magic)", origin_.c_str());
    const std::uint32_t version = r.u32();
    if (version != kFormatVersion)
        fatalIo("checkpoint '%s' has format version %u, this build reads "
              "version %u (%s)",
              origin_.c_str(), version, kFormatVersion, kFormatName);
    metaHash_ = r.u64();
    kind_ = r.str();

    // Scan all sections, verifying each CRC, then require the trailer.
    while (true) {
        if (r.remaining() < 4)
            r.fail("truncated: expected section or trailer marker");
        char marker[4];
        r.bytes(marker, 4);
        if (std::memcmp(marker, kTrailerMarker, 4) == 0)
            break;
        if (std::memcmp(marker, kSectionMarker, 4) != 0)
            r.fail("corrupt section marker");
        const std::string_view name = r.view(r.u32());
        const std::uint64_t len = r.u64();
        const std::uint32_t wantCrc = r.u32();
        if (r.remaining() < len)
            r.fail("truncated section '" + std::string(name) + "': " +
                   std::to_string(len) + " payload bytes declared, " +
                   std::to_string(r.remaining()) + " remain");
        const std::uint64_t payloadOffset = r.offset();
        const std::string_view payload = r.view(len);
        const std::uint32_t gotCrc = crc32(payload.data(), payload.size());
        if (gotCrc != wantCrc)
            fatalIo("checkpoint '%s': section '%.*s' CRC mismatch "
                  "(stored %08x, computed %08x, payload at byte offset %llu)",
                  origin_.c_str(), static_cast<int>(name.size()), name.data(),
                  wantCrc, gotCrc,
                  static_cast<unsigned long long>(payloadOffset));
        if (!sections_.emplace(name, Section{payload, payloadOffset}).second)
            r.fail("duplicate section");
    }
    const std::uint32_t count = r.u32();
    if (count != sections_.size())
        fatalIo("checkpoint '%s': trailer declares %u sections, found %zu",
              origin_.c_str(), count, sections_.size());
}

bool
CheckpointReader::hasSection(std::string_view name) const
{
    return sections_.find(name) != sections_.end();
}

Reader
CheckpointReader::section(std::string_view name) const
{
    auto it = sections_.find(name);
    if (it == sections_.end())
        fatal("checkpoint '%s' has no '%.*s' section", origin_.c_str(),
              static_cast<int>(name.size()), name.data());
    return Reader(it->second.payload,
                  "checkpoint '" + origin_ + "' [" + it->first + "]",
                  it->second.fileOffset);
}

void
CheckpointReader::expect(std::string_view kind, std::uint64_t metaHash) const
{
    if (kind_ != kind)
        fatalMismatch("checkpoint '%s' has kind '%s', expected '%.*s'",
              origin_.c_str(), kind_.c_str(), static_cast<int>(kind.size()),
              kind.data());
    if (metaHash_ != metaHash)
        fatalMismatch("checkpoint '%s' was produced by a different configuration "
              "(meta hash %016llx, this run expects %016llx); refusing to "
              "restore",
              origin_.c_str(),
              static_cast<unsigned long long>(metaHash_),
              static_cast<unsigned long long>(metaHash));
}

} // namespace wsrs::ckpt
