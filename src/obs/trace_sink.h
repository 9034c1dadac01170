/**
 * @file
 * Pipeline event tracing: per-micro-op lifecycle records emitted by the
 * core at commit and written either as gem5-O3PipeView-compatible text
 * (loadable by the Konata pipeline viewer) or as a compact fixed-size
 * binary stream.
 *
 * The core holds a `TraceSink *` that is null when tracing is disabled, so
 * the disabled path costs a single predictable branch per committed
 * micro-op; all formatting work lives behind the virtual call.
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/isa/op_class.h"

namespace wsrs::obs {

/** Flag bits of UopTrace::flags (and the binary record's flags byte). */
enum UopTraceFlags : std::uint8_t {
    kUopMispredicted = 1 << 0, ///< Mispredicted branch.
    kUopInjectedMove = 1 << 1, ///< Deadlock-workaround move (not in trace).
};

/** Lifecycle timestamps of one committed micro-op. */
struct UopTrace
{
    SeqNum seq = 0;
    Addr pc = 0;
    isa::OpClass op = isa::OpClass::IntAlu;
    ClusterId cluster = 0;
    SubsetId dstSubset = 0xff;       ///< 0xff: no register destination.
    std::uint8_t flags = 0;
    Cycle fetchCycle = 0;
    Cycle renameCycle = 0;           ///< Rename/dispatch into the window.
    Cycle readyCycle = 0;            ///< Operands ready (wake-up delivered).
    Cycle issueCycle = 0;
    Cycle completeCycle = 0;         ///< Result writeback.
    Cycle commitCycle = 0;

    /** Cycles between wake-up and issue (scheduler/resource delay). */
    Cycle wakeupLatency() const
    {
        return issueCycle >= readyCycle ? issueCycle - readyCycle : 0;
    }
};

/** Destination of pipeline trace records. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    /** Record one committed micro-op; called in commit order. */
    virtual void record(const UopTrace &t) = 0;
    /** Flush buffered output; called once after the measured slice. */
    virtual void finish() {}
};

/**
 * gem5 O3PipeView text format, one block of lines per micro-op:
 *
 *   O3PipeView:fetch:<cycle>:0x<pc>:0:<seq>:<mnemonic>
 *   O3PipeView:decode:<cycle>
 *   ...
 *   O3PipeView:retire:<cycle>:store:<cycle-or-0>
 *
 * Konata auto-detects this format ("gem5 O3PipeView" loader), so the
 * produced file opens directly in the viewer.
 */
class O3PipeViewSink : public TraceSink
{
  public:
    /** @param os destination stream; must outlive the sink. */
    explicit O3PipeViewSink(std::ostream &os) : os_(os) {}

    void record(const UopTrace &t) override;
    void finish() override;

  private:
    std::ostream &os_;
};

/**
 * Compact binary form: a 16-byte header (magic, version, record size)
 * followed by fixed-size little-endian records, ~5x smaller than the text
 * form and loss-free (keeps readyCycle, subset and flags, which the
 * O3PipeView text cannot carry).
 */
class BinaryTraceSink : public TraceSink
{
  public:
    static constexpr char kMagic[8] = {'W', 'S', 'R', 'S',
                                       'P', 'T', 'R', '1'};
    static constexpr std::uint32_t kVersion = 1;
    static constexpr std::uint32_t kRecordBytes = 72;

    /** @param os destination stream (binary mode); must outlive the sink. */
    explicit BinaryTraceSink(std::ostream &os);

    void record(const UopTrace &t) override;
    void finish() override;

  private:
    std::ostream &os_;
};

/**
 * The last N committed micro-ops, rendered as a text chart (wsrs-sim
 * --timeline): one row per micro-op marking rename (R), issue (I),
 * complete (C) and commit (X) on a ruler of cycles relative to the oldest
 * row's rename. The ring is allocated once, so record never allocates.
 */
class TimelineSink : public TraceSink
{
  public:
    /** @param rows ring capacity; must be at least 1. */
    explicit TimelineSink(std::size_t rows);

    void record(const UopTrace &t) override;

    /** The recorded micro-ops, oldest first. */
    std::vector<UopTrace> records() const;

    /** Render the recorded micro-ops, oldest first. */
    void render(std::ostream &os) const;

  private:
    std::vector<UopTrace> ring_;
    std::size_t head_ = 0;  ///< Oldest recorded micro-op.
    std::size_t size_ = 0;
};

/** Forwards every record to each sink it owns, in the order added. */
class FanOutSink : public TraceSink
{
  public:
    /** Construct a @p Sink from @p args, own it and return it. */
    template <typename Sink, typename... Args>
    Sink &
    add(Args &&...args)
    {
        auto sink = std::make_unique<Sink>(std::forward<Args>(args)...);
        Sink &added = *sink;
        sinks_.push_back(std::move(sink));
        return added;
    }

    bool empty() const { return sinks_.empty(); }

    void
    record(const UopTrace &t) override
    {
        for (const auto &s : sinks_)
            s->record(t);
    }

    void
    finish() override
    {
        for (const auto &s : sinks_)
            s->finish();
    }

  private:
    std::vector<std::unique_ptr<TraceSink>> sinks_;
};

/**
 * Read back a binary trace produced by BinaryTraceSink.
 * @throws wsrs::FatalError on a bad magic/version/truncated file.
 */
std::vector<UopTrace> readBinaryTrace(std::istream &is);

} // namespace wsrs::obs
