#include "trace_sink.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <istream>
#include <ostream>

#include "src/ckpt/io.h"
#include "src/common/log.h"

namespace wsrs::obs {

void
O3PipeViewSink::record(const UopTrace &t)
{
    // gem5 emits per-instruction blocks at retire, so timestamps inside a
    // block may precede the previous block's retire line; Konata's
    // O3PipeView loader handles that. The decode line stands in for the
    // whole front-end pipe between fetch and rename.
    char buf[256];
    const int n = std::snprintf(
        buf, sizeof(buf),
        "O3PipeView:fetch:%llu:0x%08llx:0:%llu:%s/c%u\n"
        "O3PipeView:decode:%llu\n"
        "O3PipeView:rename:%llu\n"
        "O3PipeView:dispatch:%llu\n"
        "O3PipeView:issue:%llu\n"
        "O3PipeView:complete:%llu\n"
        "O3PipeView:retire:%llu:store:%llu\n",
        (unsigned long long)t.fetchCycle, (unsigned long long)t.pc,
        (unsigned long long)t.seq,
        std::string(isa::opClassName(t.op)).c_str(), unsigned(t.cluster),
        (unsigned long long)(t.fetchCycle + 1),
        (unsigned long long)t.renameCycle,
        (unsigned long long)t.renameCycle,
        (unsigned long long)t.issueCycle,
        (unsigned long long)t.completeCycle,
        (unsigned long long)t.commitCycle,
        (unsigned long long)(t.op == isa::OpClass::Store ? t.commitCycle
                                                         : 0));
    os_.write(buf, n);
}

void
O3PipeViewSink::finish()
{
    os_.flush();
}

BinaryTraceSink::BinaryTraceSink(std::ostream &os) : os_(os)
{
    unsigned char header[16];
    std::memcpy(header, kMagic, 8);
    ckpt::storeLe(header + 8, kVersion, 4);
    ckpt::storeLe(header + 12, kRecordBytes, 4);
    os_.write(reinterpret_cast<const char *>(header), sizeof(header));
}

void
BinaryTraceSink::record(const UopTrace &t)
{
    unsigned char rec[kRecordBytes];
    ckpt::storeLe(rec + 0, t.seq, 8);
    ckpt::storeLe(rec + 8, t.pc, 8);
    ckpt::storeLe(rec + 16, t.fetchCycle, 8);
    ckpt::storeLe(rec + 24, t.renameCycle, 8);
    ckpt::storeLe(rec + 32, t.readyCycle, 8);
    ckpt::storeLe(rec + 40, t.issueCycle, 8);
    ckpt::storeLe(rec + 48, t.completeCycle, 8);
    ckpt::storeLe(rec + 56, t.commitCycle, 8);
    rec[64] = static_cast<unsigned char>(t.op);
    rec[65] = t.cluster;
    rec[66] = t.dstSubset;
    rec[67] = t.flags;
    ckpt::storeLe(rec + 68, std::min<Cycle>(t.wakeupLatency(), 0xffffffffu),
                  4);
    os_.write(reinterpret_cast<const char *>(rec), sizeof(rec));
}

void
BinaryTraceSink::finish()
{
    os_.flush();
}

TimelineSink::TimelineSink(std::size_t rows) : ring_(rows)
{
    WSRS_ASSERT(rows > 0);
}

void
TimelineSink::record(const UopTrace &t)
{
    ring_[(head_ + size_) % ring_.size()] = t;
    if (size_ < ring_.size())
        ++size_;
    else
        head_ = (head_ + 1) % ring_.size();
}

std::vector<UopTrace>
TimelineSink::records() const
{
    std::vector<UopTrace> out;
    out.reserve(size_);
    for (std::size_t k = 0; k < size_; ++k)
        out.push_back(ring_[(head_ + k) % ring_.size()]);
    return out;
}

void
TimelineSink::render(std::ostream &os) const
{
    if (size_ == 0) {
        os << "(timeline empty: no micro-op committed)\n";
        return;
    }
    const std::vector<UopTrace> tl = records();
    const Cycle base = tl.front().renameCycle;
    os << "seq        cluster op       "
          "R=rename I=issue C=complete X=commit (cycle - "
       << base << ")\n";
    for (const UopTrace &e : tl) {
        char line[96];
        std::snprintf(line, sizeof(line), "%-10llu C%u      %-8s ",
                      (unsigned long long)e.seq, unsigned(e.cluster),
                      std::string(isa::opClassName(e.op)).c_str());
        os << line;
        // Draw the four pipeline events on a relative-cycle ruler.
        const Cycle rel_commit = e.commitCycle - base;
        std::string ruler(std::min<Cycle>(rel_commit + 1, 60), '.');
        const auto mark = [&](Cycle cycle, char m) {
            const Cycle rel = cycle - base;
            if (rel < ruler.size())
                ruler[static_cast<std::size_t>(rel)] = m;
        };
        mark(e.renameCycle, 'R');
        mark(e.issueCycle, 'I');
        mark(e.completeCycle, 'C');
        mark(e.commitCycle, 'X');
        os << ruler << ((e.flags & kUopMispredicted) ? "  <mispredict" : "")
           << "\n";
    }
}

std::vector<UopTrace>
readBinaryTrace(std::istream &is)
{
    unsigned char header[16];
    is.read(reinterpret_cast<char *>(header), sizeof(header));
    if (is.gcount() != sizeof(header) ||
        std::memcmp(header, BinaryTraceSink::kMagic, 8) != 0)
        fatal("not a wsrs binary pipeline trace (bad magic)");
    const auto version =
        static_cast<std::uint32_t>(ckpt::loadLe(header + 8, 4));
    const auto recBytes =
        static_cast<std::uint32_t>(ckpt::loadLe(header + 12, 4));
    if (version != BinaryTraceSink::kVersion)
        fatal("unsupported pipeline-trace version %u", version);
    if (recBytes != BinaryTraceSink::kRecordBytes)
        fatal("unexpected pipeline-trace record size %u", recBytes);

    std::vector<UopTrace> out;
    unsigned char rec[BinaryTraceSink::kRecordBytes];
    for (;;) {
        is.read(reinterpret_cast<char *>(rec), sizeof(rec));
        if (is.gcount() == 0)
            break;
        if (is.gcount() != static_cast<std::streamsize>(sizeof(rec)))
            fatal("truncated pipeline-trace record");
        UopTrace t;
        t.seq = ckpt::loadLe(rec + 0, 8);
        t.pc = ckpt::loadLe(rec + 8, 8);
        t.fetchCycle = ckpt::loadLe(rec + 16, 8);
        t.renameCycle = ckpt::loadLe(rec + 24, 8);
        t.readyCycle = ckpt::loadLe(rec + 32, 8);
        t.issueCycle = ckpt::loadLe(rec + 40, 8);
        t.completeCycle = ckpt::loadLe(rec + 48, 8);
        t.commitCycle = ckpt::loadLe(rec + 56, 8);
        t.op = static_cast<isa::OpClass>(rec[64]);
        t.cluster = rec[65];
        t.dstSubset = rec[66];
        t.flags = rec[67];
        out.push_back(t);
    }
    return out;
}

} // namespace wsrs::obs
