/**
 * @file
 * Versioned, CRC-checked binary checkpoint container (`wsrs-ckpt-v2`).
 *
 * A checkpoint file is a header followed by named sections:
 *
 *   header   := magic[8]="WSRSCKP1" u32 version u64 metaHash str kind
 *   section  := "SECT" str name u64 payloadLen u32 crc32(payload) payload
 *   trailer  := "DONE" u32 sectionCount
 *
 * All integers are little-endian; `str` is a u32 byte length followed by the
 * bytes. The `kind` tag distinguishes checkpoint flavors (full simulation
 * snapshot vs. warm-up-only snapshot); `metaHash` binds a checkpoint to the
 * configuration that produced it so a restore into a mismatched machine
 * fails loudly instead of silently desynchronizing.
 *
 * Components serialize themselves through the byte-oriented Writer/Reader
 * pair (see snapshotter.h); the Checkpoint{Writer,Reader} classes handle
 * framing, integrity checks and error reporting with exact byte offsets.
 *
 * Each component lists its fields once, in a `transfer(self, io)` template
 * that runs over either a Writer (saving) or a Reader (loading): the same
 * call, e.g. `io.u64(self.now_)`, writes the field or reads into it. The
 * direction tag `Io::kLoading` selects the few steps that really differ,
 * and the free helpers below (expect, check, count, vec, part, ...) cover
 * the shared patterns in both directions.
 */
#pragma once

#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace wsrs::ckpt {

/** Schema tag for the checkpoint container format. */
inline constexpr const char *kFormatName = "wsrs-ckpt-v2";
/** Container file magic. */
inline constexpr char kMagic[8] = {'W', 'S', 'R', 'S', 'C', 'K', 'P', '1'};
/** Container format version; bump on any layout change. */
inline constexpr std::uint32_t kFormatVersion = 2;

/** Checkpoint kinds used by the simulator. */
inline constexpr const char *kKindFullSim = "full-sim";
inline constexpr const char *kKindWarmup = "warmup";

/** CRC-32 (IEEE 802.3 polynomial) over @p len bytes, seedable for chaining. */
std::uint32_t crc32(const void *data, std::size_t len,
                    std::uint32_t seed = 0);

/**
 * Store the low @p n bytes of @p v at @p p, least significant first. Every
 * wsrs binary format (checkpoints, journals, frames, trace files) encodes
 * its integers through this pair.
 */
inline void
storeLe(void *p, std::uint64_t v, int n)
{
    auto *b = static_cast<unsigned char *>(p);
    for (int i = 0; i < n; ++i)
        b[i] = static_cast<unsigned char>(v >> (8 * i));
}

/** Load the @p n-byte little-endian integer at @p p. */
inline std::uint64_t
loadLe(const void *p, int n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i)
        v |= std::uint64_t{b[i]} << (8 * i);
    return v;
}

/**
 * Byte-stream encoder components serialize themselves into. Accumulates
 * into an in-memory buffer so the container can frame each section with its
 * length and CRC.
 */
class Writer
{
  public:
    /** Direction tag for `transfer`: a Writer saves. */
    static constexpr bool kLoading = false;

    void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
    /** An enum whose values fit one byte. */
    template <typename E>
        requires std::is_enum_v<E>
    void u8(E v) { u8(static_cast<std::uint8_t>(v)); }
    void u16(std::uint16_t v) { putLe(v, 2); }
    void u32(std::uint32_t v) { putLe(v, 4); }
    void u64(std::uint64_t v) { putLe(v, 8); }
    /** Double via its IEEE-754 bit pattern (bit-exact round trip). */
    void d64(double v);
    /** Boolean as one byte. */
    void b(bool v) { u8(v ? 1 : 0); }
    /** Length-prefixed string. */
    void str(std::string_view s);
    void bytes(const void *p, std::size_t n);

    /** The low @p n bytes of @p v, little-endian. */
    void putLe(std::uint64_t v, int n);

    const std::string &buffer() const { return buf_; }
    std::size_t size() const { return buf_.size(); }

  private:
    std::string buf_;
};

/**
 * Byte-stream decoder over one section's payload. Every accessor checks
 * bounds and reports failures via wsrs::fatal with the checkpoint origin
 * and the absolute file byte offset of the bad read.
 */
class Reader
{
  public:
    /**
     * @param data       section payload (must outlive the reader).
     * @param origin     human-readable source, e.g. "ckpt 'f.ckpt' [core]".
     * @param baseOffset absolute file offset of data[0], for error messages.
     */
    Reader(std::string_view data, std::string origin,
           std::uint64_t baseOffset = 0)
        : data_(data), origin_(std::move(origin)), base_(baseOffset)
    {
    }

    /** Direction tag for `transfer`: a Reader loads. */
    static constexpr bool kLoading = true;

    std::uint8_t u8();
    std::uint16_t u16() { return static_cast<std::uint16_t>(getLe(2)); }
    std::uint32_t u32() { return static_cast<std::uint32_t>(getLe(4)); }
    std::uint64_t u64() { return getLe(8); }
    double d64();
    bool b() { return u8() != 0; }
    std::string str();
    void bytes(void *p, std::size_t n);
    /** The @p n-byte little-endian integer at the cursor. */
    std::uint64_t getLe(int n);

    /* Read-into forms: the loading side of each Writer call. */
    template <typename T> void u8(T &v) { v = static_cast<T>(u8()); }
    template <typename T> void u16(T &v) { v = static_cast<T>(u16()); }
    template <typename T> void u32(T &v) { v = static_cast<T>(u32()); }
    template <typename T> void u64(T &v) { v = static_cast<T>(u64()); }
    void b(bool &v) { v = b(); }
    void d64(double &v) { v = d64(); }
    void str(std::string &s) { s = str(); }

    std::size_t remaining() const { return data_.size() - pos_; }
    bool atEnd() const { return pos_ == data_.size(); }
    /** Absolute file offset of the next byte to be read. */
    std::uint64_t offset() const { return base_ + pos_; }
    const std::string &origin() const { return origin_; }

    /** Fail with @p what at the current offset (restore-side validation). */
    [[noreturn]] void fail(const std::string &what) const;

  private:
    void need(std::size_t n) const;

    std::string_view data_;
    std::size_t pos_ = 0;
    std::string origin_;
    std::uint64_t base_;
};

/* Vector helpers shared by component snapshotters. */

template <typename T>
void
writeVec(Writer &w, const std::vector<T> &v)
{
    w.u64(v.size());
    for (const T &x : v) {
        if constexpr (sizeof(T) == 1)
            w.u8(static_cast<std::uint8_t>(x));
        else if constexpr (sizeof(T) == 2)
            w.u16(static_cast<std::uint16_t>(x));
        else if constexpr (sizeof(T) == 4)
            w.u32(static_cast<std::uint32_t>(x));
        else
            w.u64(static_cast<std::uint64_t>(x));
    }
}

/**
 * Element count of a variable-length list whose entries take @p wireBytes
 * each. Saving writes @p n; loading reads the count and rejects, naming
 * @p what, one the bytes left cannot hold, so nothing is ever sized from
 * an unchecked count.
 */
template <typename Io>
std::uint64_t
count(Io &io, std::uint64_t n, std::size_t wireBytes,
      const char *what = "vector")
{
    io.u64(n);
    if constexpr (Io::kLoading) {
        if (n > io.remaining() / wireBytes)
            io.fail(std::string(what) + " count " + std::to_string(n) +
                    " exceeds the " + std::to_string(io.remaining()) +
                    " bytes remaining");
    }
    return n;
}

template <typename T>
void
readVec(Reader &r, std::vector<T> &v)
{
    constexpr std::size_t kWireBytes = sizeof(T) < 8 ? sizeof(T) : 8;
    const std::uint64_t n = count(r, 0, kWireBytes);
    v.clear();
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        if constexpr (sizeof(T) == 1)
            v.push_back(static_cast<T>(r.u8()));
        else if constexpr (sizeof(T) == 2)
            v.push_back(static_cast<T>(r.u16()));
        else if constexpr (sizeof(T) == 4)
            v.push_back(static_cast<T>(r.u32()));
        else
            v.push_back(static_cast<T>(r.u64()));
    }
}

/**
 * Read a vector whose size is fixed by the restore target's configuration;
 * fails if the checkpoint disagrees.
 */
template <typename T>
void
readVecExact(Reader &r, std::vector<T> &v, std::size_t expect,
             const char *what)
{
    readVec(r, v);
    if (v.size() != expect)
        r.fail(std::string(what) + ": size " + std::to_string(v.size()) +
               " != expected " + std::to_string(expect));
}

/* Helpers shared by the components' `transfer` lists. */

/** A length-prefixed vector of integers (writeVec/readVec). */
template <typename Io, typename V>
void
vec(Io &io, V &v)
{
    if constexpr (Io::kLoading)
        readVec(io, v);
    else
        writeVec(io, v);
}

/** A vector whose size is configuration: loading must find that size. */
template <typename Io, typename V>
void
vecExact(Io &io, V &v, const char *what)
{
    if constexpr (Io::kLoading)
        readVecExact(io, v, v.size(), what);
    else
        writeVec(io, v);
}

/**
 * Configuration guard: saving writes @p v in @p width bytes; loading fails
 * with @p what unless the stored value equals @p v.
 */
template <typename Io>
void
expect(Io &io, std::uint64_t v, int width, const char *what)
{
    if constexpr (Io::kLoading) {
        if (io.getLe(width) != v)
            io.fail(what);
    } else {
        io.putLe(v, width);
    }
}

/** Restore-side validation: loading fails with @p what unless @p ok. */
template <typename Io>
void
check(Io &io, bool ok, const char *what)
{
    if constexpr (Io::kLoading) {
        if (!ok)
            io.fail(what);
    }
}

/** Loading fails with @p what unless the whole payload was consumed. */
template <typename Io>
void
expectEnd(Io &io, const char *what)
{
    if constexpr (Io::kLoading) {
        if (!io.atEnd())
            io.fail(what);
    }
}

/** A nested component with its own snapshot/restore pair. */
template <typename Io, typename S>
void
part(Io &io, S &s)
{
    if constexpr (Io::kLoading)
        s.restore(io);
    else
        s.snapshot(io);
}

/** A statistics counter: value() saved, restore(v) on load. */
template <typename Io, typename C>
void
counter(Io &io, C &c)
{
    if constexpr (Io::kLoading)
        c.restore(io.u64());
    else
        io.u64(c.value());
}

/** An XorShiftRng's two state words. */
template <typename Io, typename Rng>
void
rng(Io &io, Rng &g)
{
    std::uint64_t s0 = g.stateWord(0);
    std::uint64_t s1 = g.stateWord(1);
    io.u64(s0);
    io.u64(s1);
    if constexpr (Io::kLoading)
        g.setState(s0, s1);
}

/** Writes the container framing around per-component sections. */
class CheckpointWriter
{
  public:
    /** Write the header. @p metaHash binds the checkpoint to its config. */
    CheckpointWriter(std::ostream &os, std::string path,
                     std::string_view kind, std::uint64_t metaHash);
    ~CheckpointWriter();

    CheckpointWriter(const CheckpointWriter &) = delete;
    CheckpointWriter &operator=(const CheckpointWriter &) = delete;

    /** Emit one framed, CRC-protected section. */
    void section(std::string_view name, const Writer &payload);

    /** Write the trailer and flush; fails on any stream error. */
    void finish();

  private:
    void rawStr(std::string_view s);
    void rawLe(std::uint64_t v, int n);

    std::ostream &os_;
    std::string path_;
    std::uint32_t sections_ = 0;
    bool finished_ = false;
};

/**
 * Parses and integrity-checks a whole checkpoint up front, then hands out
 * per-section Readers. Any structural damage (bad magic, version skew,
 * truncation, CRC mismatch, missing trailer) is a fatal error naming the
 * byte offset of the damage.
 */
class CheckpointReader
{
  public:
    /** @param origin name used in diagnostics (usually the file path). */
    CheckpointReader(std::istream &is, std::string origin);

    const std::string &kind() const { return kind_; }
    std::uint64_t metaHash() const { return metaHash_; }
    std::size_t sectionCount() const { return sections_.size(); }

    bool hasSection(std::string_view name) const;
    /** Reader over a section's payload; fatal if the section is absent. */
    Reader section(std::string_view name) const;

    /** Validate kind and metaHash in one step (fatal on mismatch). */
    void expect(std::string_view kind, std::uint64_t metaHash) const;

  private:
    struct Section
    {
        std::string payload;
        std::uint64_t fileOffset;  // offset of payload[0] in the file
    };

    std::string origin_;
    std::string kind_;
    std::uint64_t metaHash_ = 0;
    std::map<std::string, Section, std::less<>> sections_;
};

/** One component as the named section @p name, saved or loaded. */
template <typename S>
void
section(CheckpointWriter &cw, std::string_view name, const S &s)
{
    Writer w;
    s.snapshot(w);
    cw.section(name, w);
}

template <typename S>
void
section(const CheckpointReader &cr, std::string_view name, S &s)
{
    Reader r = cr.section(name);
    s.restore(r);
}

} // namespace wsrs::ckpt
