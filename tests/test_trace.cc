/**
 * @file
 * Flight-recorder tests: ring semantics, the binary section format and
 * its JSON-lines export, thread-local scope routing, SimCheck context
 * attachment, and the per-run recording contract under runMatrix().
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "check/simcheck.h"
#include "common/logging.h"
#include "os/machine.h"
#include "trace/trace.h"
#include "workloads/driver.h"

namespace safemem {
namespace {

/**
 * Minimal JSON syntax checker for the exporter's lines: objects, arrays,
 * strings (with every escape form), numbers and literals. Returns true
 * when all of @p text is exactly one JSON value. Raw bytes >= 0x80 are
 * refused: the exporter must emit pure ASCII.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : text_(text) {}

    bool
    valid()
    {
        return value() && pos_ == text_.size();
    }

  private:
    bool
    eat(char ch)
    {
        if (pos_ < text_.size() && text_[pos_] == ch) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    value()
    {
        if (pos_ >= text_.size())
            return false;
        char ch = text_[pos_];
        if (ch == '{')
            return members('}', true);
        if (ch == '[')
            return members(']', false);
        if (ch == '"')
            return quoted();
        for (const char *word : {"true", "false", "null"}) {
            if (text_.compare(pos_, std::strlen(word), word) == 0) {
                pos_ += std::strlen(word);
                return true;
            }
        }
        return number();
    }

    bool
    members(char close, bool object)
    {
        ++pos_;
        if (eat(close))
            return true;
        do {
            if (object && !(quoted() && eat(':')))
                return false;
            if (!value())
                return false;
        } while (eat(','));
        return eat(close);
    }

    bool
    quoted()
    {
        if (!eat('"'))
            return false;
        while (pos_ < text_.size()) {
            auto ch = static_cast<unsigned char>(text_[pos_++]);
            if (ch == '"')
                return true;
            if (ch < 0x20 || ch >= 0x80)
                return false;
            if (ch != '\\')
                continue;
            if (pos_ >= text_.size())
                return false;
            char esc = text_[pos_++];
            if (esc == 'u') {
                for (int i = 0; i < 4; ++i) {
                    if (pos_ >= text_.size() ||
                        !std::isxdigit(
                            static_cast<unsigned char>(text_[pos_++])))
                        return false;
                }
            } else if (std::string("\"\\/bfnrt").find(esc) ==
                       std::string::npos) {
                return false;
            }
        }
        return false;
    }

    bool
    number()
    {
        std::size_t start = pos_;
        eat('-');
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                std::string(".eE+-").find(text_[pos_]) !=
                    std::string::npos))
            ++pos_;
        return pos_ > start &&
               std::isdigit(static_cast<unsigned char>(text_[pos_ - 1]));
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

TEST(Trace, RingWrapKeepsNewestRecords)
{
    Trace trace(16);
    EXPECT_EQ(trace.capacity(), 16u);
    for (std::uint64_t i = 0; i < 40; ++i)
        trace.emit(TraceEvent::WatchEstablish, i, i * 10);

    EXPECT_EQ(trace.emitted(), 40u);
    EXPECT_EQ(trace.dropped(), 24u);
    EXPECT_EQ(trace.size(), 16u);

    std::vector<TraceRecord> records = trace.records();
    ASSERT_EQ(records.size(), 16u);
    // Oldest retained first: cycles 24..39.
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].cycle, 24 + i);
        EXPECT_EQ(records[i].a, (24 + i) * 10);
    }
}

TEST(Trace, PayloadWordsDefaultToZero)
{
    Trace trace(16);
    trace.emit(TraceEvent::ControllerFill, 7);
    trace.emit(TraceEvent::ControllerInterrupt, 8, 1, 2, 3);

    std::vector<TraceRecord> records = trace.records();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0],
              (TraceRecord{7, 0, 0, 0, 0, TraceEvent::ControllerFill}));
    EXPECT_EQ(records[1],
              (TraceRecord{8, 1, 2, 3, 0, TraceEvent::ControllerInterrupt}));
}

TEST(Trace, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(Trace(10).capacity(), 16u);
    EXPECT_EQ(Trace(0).capacity(), 16u);
    EXPECT_EQ(Trace(4096).capacity(), 4096u);
    EXPECT_EQ(Trace(4097).capacity(), 8192u);
}

TEST(Trace, LastRecordsReturnsNewestOldestFirst)
{
    Trace trace(16);
    for (std::uint64_t i = 0; i < 5; ++i)
        trace.emit(TraceEvent::WatchDrop, i);

    std::vector<TraceRecord> last = trace.lastRecords(3);
    ASSERT_EQ(last.size(), 3u);
    EXPECT_EQ(last[0].cycle, 2u);
    EXPECT_EQ(last[2].cycle, 4u);
    EXPECT_EQ(trace.lastRecords(99).size(), 5u);
}

TEST(Trace, ClearForgetsEverything)
{
    Trace trace(16);
    trace.emit(TraceEvent::WatchDrop, 1);
    trace.clear();
    EXPECT_EQ(trace.emitted(), 0u);
    EXPECT_TRUE(trace.records().empty());
}

TEST(Trace, EventNamesCoverEveryEvent)
{
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(TraceEvent::NumEvents); ++i) {
        std::string name =
            traceEventName(static_cast<TraceEvent>(i));
        EXPECT_FALSE(name.empty());
        EXPECT_NE(name, "?");
    }
    EXPECT_STREQ(traceEventName(TraceEvent::NumEvents), "?");
}

TEST(Trace, BinarySectionsRoundTrip)
{
    Trace first(16);
    for (std::uint64_t i = 0; i < 40; ++i)
        first.emit(TraceEvent::ControllerFill, i, i, i + 1, i + 2);
    Trace second(32);
    second.emit(TraceEvent::LeakReported, 99, 0xabc, 128, 7);

    std::stringstream stream(std::ios::in | std::ios::out |
                             std::ios::binary);
    writeTraceSection(stream, first, "gzip/safemem+buggy");
    writeTraceSection(stream, second, "hotpath");

    std::vector<TraceSection> sections = readTraceSections(stream);
    ASSERT_EQ(sections.size(), 2u);

    EXPECT_EQ(sections[0].label, "gzip/safemem+buggy");
    EXPECT_EQ(sections[0].emitted, 40u);
    EXPECT_EQ(sections[0].capacity, 16u);
    EXPECT_EQ(sections[0].records, first.records());

    EXPECT_EQ(sections[1].label, "hotpath");
    EXPECT_EQ(sections[1].emitted, 1u);
    EXPECT_EQ(sections[1].records, second.records());
}

TEST(Trace, EmptyStreamYieldsNoSections)
{
    std::stringstream stream;
    EXPECT_TRUE(readTraceSections(stream).empty());
}

TEST(Trace, MalformedMagicThrows)
{
    std::stringstream stream(std::ios::in | std::ios::out |
                             std::ios::binary);
    stream << "NOPE this is not a trace file";
    EXPECT_THROW(readTraceSections(stream), FatalError);
}

TEST(Trace, TruncatedSectionThrows)
{
    Trace trace(16);
    trace.emit(TraceEvent::WatchDrop, 1);
    std::stringstream stream(std::ios::in | std::ios::out |
                             std::ios::binary);
    writeTraceSection(stream, trace, "cut");
    std::string bytes = stream.str();
    bytes.resize(bytes.size() - 5);

    std::stringstream cut(bytes, std::ios::in | std::ios::binary);
    EXPECT_THROW(readTraceSections(cut), FatalError);
}

/**
 * @return a one-record section labelled "x" whose header claims
 * @p capacity and @p count, patched in after writing (the fields sit
 * after magic, version, label length, label and emitted).
 */
std::string
sectionClaiming(std::uint64_t capacity, std::uint64_t count)
{
    Trace trace(16);
    trace.emit(TraceEvent::WatchDrop, 1);
    std::stringstream stream(std::ios::in | std::ios::out |
                             std::ios::binary);
    writeTraceSection(stream, trace, "x");
    std::string bytes = stream.str();
    const std::size_t capacity_at = 4 + 4 + 4 + 1 + 8;
    std::memcpy(&bytes[capacity_at], &capacity, sizeof(capacity));
    std::memcpy(&bytes[capacity_at + 8], &count, sizeof(count));
    return bytes;
}

TEST(Trace, HugeClaimedCountFailsAsTruncationNotAllocation)
{
    // A count of 2^58 under a capacity of 2^60 passes the header's own
    // bound; reserving it used to throw std::length_error.
    std::stringstream stream(
        sectionClaiming(std::uint64_t{1} << 60, std::uint64_t{1} << 58),
        std::ios::in | std::ios::binary);
    try {
        readTraceSections(stream);
        FAIL() << "a section claiming 2^58 records was accepted";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("trace: truncated"),
                  std::string::npos)
            << err.what();
    }
}

TEST(Trace, CountBeyondTheRecordsPresentThrows)
{
    // The header claims three records; the stream holds one.
    std::stringstream stream(sectionClaiming(16, 3),
                             std::ios::in | std::ios::binary);
    EXPECT_THROW(readTraceSections(stream), FatalError);
    // Unpatched, the same bytes read back as one record.
    std::stringstream intact(sectionClaiming(16, 1),
                             std::ios::in | std::ios::binary);
    std::vector<TraceSection> sections = readTraceSections(intact);
    ASSERT_EQ(sections.size(), 1u);
    EXPECT_EQ(sections[0].records.size(), 1u);
}

TEST(Trace, JsonLinesCarryAbsoluteSequenceNumbers)
{
    Trace trace(16);
    for (std::uint64_t i = 0; i < 20; ++i)
        trace.emit(TraceEvent::ControllerEvict, 100 + i, i);

    std::stringstream stream(std::ios::in | std::ios::out |
                             std::ios::binary);
    writeTraceSection(stream, trace, "run \"x\"");
    std::vector<TraceSection> sections = readTraceSections(stream);
    ASSERT_EQ(sections.size(), 1u);
    ASSERT_EQ(sections[0].records.size(), 16u);

    // 20 emitted into a 16-ring: the first retained record is emit #4.
    std::string line = traceRecordJsonLine(sections[0], 0);
    EXPECT_NE(line.find("\"run\":\"run \\\"x\\\"\""), std::string::npos);
    EXPECT_NE(line.find("\"seq\":4"), std::string::npos);
    EXPECT_NE(line.find("\"cycle\":104"), std::string::npos);
    EXPECT_NE(line.find("\"event\":\"controller_evict\""),
              std::string::npos);
    EXPECT_NE(line.find("\"a\":4"), std::string::npos);
    EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(Trace, CorruptedLabelByteStillExportsAsciiJson)
{
    Trace trace(16);
    trace.emit(TraceEvent::WatchDrop, 7, 0x1000, 64);
    std::stringstream stream(std::ios::in | std::ios::out |
                             std::ios::binary);
    writeTraceSection(stream, trace, "gzip/safemem");

    // Flip the label's '/' to a byte that is not UTF-8 on its own.
    std::string bytes = stream.str();
    std::size_t at = bytes.find("gzip/safemem");
    ASSERT_NE(at, std::string::npos);
    bytes[at + 4] = '\xff';
    std::stringstream corrupt(bytes, std::ios::in | std::ios::binary);
    std::vector<TraceSection> sections = readTraceSections(corrupt);
    ASSERT_EQ(sections.size(), 1u);
    ASSERT_EQ(sections[0].label, "gzip\xffsafemem");

    for (const std::string &line :
         {traceRecordJsonLine(sections[0], 0),
          traceSectionSummaryJson(sections[0])}) {
        EXPECT_TRUE(JsonChecker(line).valid()) << line;
        for (char ch : line)
            EXPECT_LT(static_cast<unsigned char>(ch), 0x80) << line;
        EXPECT_NE(line.find("\"run\":\"gzip\\u00ffsafemem\""),
                  std::string::npos)
            << line;
    }
    // The checker itself refuses what the exporter used to emit.
    EXPECT_FALSE(JsonChecker("{\"run\":\"gzip\xffsafemem\"}").valid());
    EXPECT_TRUE(JsonChecker("{\"run\":\"gzip\\u00ffsafemem\"}").valid());
}

TEST(Trace, SectionSummaryCountsEventsAndCycleSpan)
{
    Trace trace(16);
    trace.emit(TraceEvent::ControllerFill, 100);
    trace.emit(TraceEvent::ControllerFill, 250);
    trace.emit(TraceEvent::ControllerEvict, 900);

    std::stringstream stream(std::ios::in | std::ios::out |
                             std::ios::binary);
    writeTraceSection(stream, trace, "summary/run");
    std::vector<TraceSection> sections = readTraceSections(stream);
    ASSERT_EQ(sections.size(), 1u);

    std::string summary = traceSectionSummaryJson(sections[0]);
    EXPECT_NE(summary.find("\"run\":\"summary/run\""), std::string::npos);
    EXPECT_NE(summary.find("\"emitted\":3"), std::string::npos);
    EXPECT_NE(summary.find("\"retained\":3"), std::string::npos);
    EXPECT_NE(summary.find("\"cycle_first\":100"), std::string::npos);
    EXPECT_NE(summary.find("\"cycle_last\":900"), std::string::npos);
    EXPECT_NE(summary.find("\"controller_fill\":2"), std::string::npos);
    EXPECT_NE(summary.find("\"controller_evict\":1"), std::string::npos);
    // Events with zero occurrences are omitted, not listed as zero.
    EXPECT_EQ(summary.find("\"leak_reported\""), std::string::npos);
    EXPECT_EQ(summary.find('\n'), std::string::npos);
}

TEST(Trace, RecordsCarryTheEmittingPid)
{
    Trace trace(16);
    trace.emit(TraceEvent::ControllerFill, 10);
    trace.setPid(3);
    trace.emit(TraceEvent::ControllerFill, 20);
    ASSERT_EQ(trace.records().size(), 2u);
    EXPECT_EQ(trace.records()[0].pid, 0u);
    EXPECT_EQ(trace.records()[1].pid, 3u);

    std::stringstream stream(std::ios::in | std::ios::out |
                             std::ios::binary);
    writeTraceSection(stream, trace, "pids");
    std::vector<TraceSection> sections = readTraceSections(stream);
    ASSERT_EQ(sections.size(), 1u);
    EXPECT_EQ(sections[0].records, trace.records());
    EXPECT_NE(traceRecordJsonLine(sections[0], 1).find("\"pid\":3"),
              std::string::npos);
}

TEST(Trace, ScopeRoutesAndNests)
{
    EXPECT_EQ(currentTrace(), nullptr);
    Trace outer(16);
    {
        TraceScope outer_scope(outer);
        EXPECT_EQ(currentTrace(), &outer);
        Trace inner(16);
        {
            TraceScope inner_scope(inner);
            EXPECT_EQ(currentTrace(), &inner);
        }
        EXPECT_EQ(currentTrace(), &outer);
    }
    EXPECT_EQ(currentTrace(), nullptr);
}

TEST(Trace, ContextSummaryShowsNewestEvents)
{
    EXPECT_TRUE(traceContextSummary(4).empty());

    Trace trace(16);
    TraceScope scope(trace);
    EXPECT_TRUE(traceContextSummary(4).empty()) << "empty ring";

    trace.emit(TraceEvent::WatchScrubPark, 123, 0x40, 64);
    trace.emit(TraceEvent::ControllerScrubBegin, 130, 0, 512);
    std::string summary = traceContextSummary(4);
    EXPECT_NE(summary.find("last trace events:"), std::string::npos);
    EXPECT_NE(summary.find("watch_scrub_park@123"), std::string::npos);
    EXPECT_NE(summary.find("controller_scrub_begin@130"),
              std::string::npos);
}

TEST(Trace, SimCheckViolationsCarryTraceContext)
{
    ASSERT_TRUE(SimCheck::instance().enabled());
    Trace trace(16);
    TraceScope scope(trace);
    trace.emit(TraceEvent::KernelScrubTickBegin, 555);

    try {
        SIMCHECK_AUDIT(AuditDomain::MemoryController, "self_test_trace",
                       false, "seeded violation with trace context");
        FAIL() << "audit failure did not throw";
    } catch (const PanicError &err) {
        std::string what = err.what();
        EXPECT_NE(what.find("SimCheck violation"), std::string::npos);
        EXPECT_NE(what.find("last trace events:"), std::string::npos);
        EXPECT_NE(what.find("kernel_scrub_tick_begin@555"),
                  std::string::npos);
    }
}

TEST(Trace, MachineRecordsControllerTraffic)
{
    if (!kTraceCompiledIn)
        GTEST_SKIP() << "emit sites compiled out";

    Trace trace;
    MachineConfig config{4u << 20, CacheConfig{16, 2}, 64};
    config.trace = &trace;
    Machine machine(config);

    VirtAddr region = machine.kernel().mapRegion(kPageSize);
    for (int i = 0; i < 64; ++i)
        machine.store<std::uint64_t>(region + i * 64, i);
    machine.cache().flushAll();

    std::uint64_t fills = 0;
    std::uint64_t evicts = 0;
    for (const TraceRecord &record : trace.records()) {
        if (record.event == TraceEvent::ControllerFill)
            ++fills;
        if (record.event == TraceEvent::ControllerEvict)
            ++evicts;
    }
    EXPECT_GT(fills, 0u);
    EXPECT_GT(evicts, 0u);
}

TEST(Trace, MatrixCellsRecordIdenticallySerialAndParallel)
{
    if (!kTraceCompiledIn)
        GTEST_SKIP() << "emit sites compiled out";

    auto make_specs = [](std::vector<Trace> &traces) {
        RunParams params;
        params.requests = 10;
        params.seed = 42;
        std::vector<RunSpec> specs;
        specs.push_back(RunSpec{"gzip", ToolKind::SafeMemBoth, params});
        params.buggy = true;
        specs.push_back(RunSpec{"tar", ToolKind::SafeMemBoth, params});
        for (std::size_t i = 0; i < specs.size(); ++i)
            specs[i].params.trace = &traces[i];
        return specs;
    };

    std::vector<Trace> serial_traces(2);
    std::vector<MatrixCell> serial =
        runMatrix(make_specs(serial_traces), 1);
    std::vector<Trace> parallel_traces(2);
    std::vector<MatrixCell> parallel =
        runMatrix(make_specs(parallel_traces), 2);

    for (std::size_t i = 0; i < 2; ++i) {
        ASSERT_TRUE(serial[i].ok());
        ASSERT_TRUE(parallel[i].ok());
        EXPECT_GT(serial_traces[i].emitted(), 0u);
        EXPECT_EQ(serial_traces[i].emitted(),
                  parallel_traces[i].emitted());
        EXPECT_EQ(serial_traces[i].records(),
                  parallel_traces[i].records());
    }
    EXPECT_NE(serial_traces[0].records(), serial_traces[1].records())
        << "distinct runs should record distinct streams";
}

} // namespace
} // namespace safemem
