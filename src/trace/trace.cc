#include "trace/trace.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "common/logging.h"

namespace safemem {
namespace {

/// Section framing for writeTraceSection()/readTraceSections().
constexpr char kTraceMagic[4] = {'S', 'F', 'T', 'R'};
/// v2 added the pid word to every serialized record.
constexpr std::uint32_t kTraceVersion = 2;

/// The driving thread's flight recorder (TraceScope; mirrors the Log
/// routing in common/logging.cc — per-thread, so parallel runMatrix
/// cells never see each other's recorder).
thread_local Trace *t_threadTrace = nullptr;

std::size_t
roundUpPow2(std::size_t value)
{
    std::size_t pow2 = 1;
    while (pow2 < value)
        pow2 <<= 1;
    return pow2;
}

template <typename T>
void
putScalar(std::ostream &os, T value)
{
    os.write(reinterpret_cast<const char *>(&value), sizeof(value));
}

template <typename T>
bool
getScalar(std::istream &is, T &value)
{
    is.read(reinterpret_cast<char *>(&value), sizeof(value));
    return static_cast<bool>(is);
}

/// JSON string escaping for section labels: quotes, backslashes, and
/// every byte outside printable ASCII (controls, DEL, bytes >= 0x80) as
/// \u00XX. A label read back from a corrupted trace file may hold any
/// byte; a raw byte >= 0x80 is not UTF-8, so the line would not be JSON.
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char ch : text) {
        switch (ch) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        default: {
            auto byte = static_cast<unsigned char>(ch);
            if (byte < 0x20 || byte >= 0x7f) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(byte));
                out += buf;
            } else {
                out += ch;
            }
        }
        }
    }
    return out;
}

} // namespace

const char *
traceEventName(TraceEvent event)
{
    auto index = static_cast<std::size_t>(event);
    if (index >= static_cast<std::size_t>(TraceEvent::NumEvents))
        return "?";
    return kTraceEventNames[index];
}

int
traceEventBankPayload(TraceEvent event)
{
    switch (event) {
    case TraceEvent::ControllerBusLock:
    case TraceEvent::ControllerBusUnlock:
    case TraceEvent::KernelScrubTickBegin:
    case TraceEvent::KernelScrubTickEnd:
        return 0;
    case TraceEvent::ControllerEvict:
        return 1;
    case TraceEvent::ControllerFill:
    case TraceEvent::ControllerScrubBegin:
    case TraceEvent::ControllerScrubEnd:
    case TraceEvent::EdcCheckPass:
    case TraceEvent::EdcCheckFail:
    case TraceEvent::EccBlockDecode:
    case TraceEvent::PartialWriteRmw:
        return 2;
    default:
        return -1;
    }
}

Trace::Trace(std::size_t capacity)
{
    if (capacity < 16)
        capacity = 16;
    ring_.resize(roundUpPow2(capacity));
    mask_ = ring_.size() - 1;
}

std::vector<TraceRecord>
Trace::records() const
{
    return lastRecords(ring_.size());
}

std::vector<TraceRecord>
Trace::lastRecords(std::size_t n) const
{
    std::size_t available = size();
    if (n > available)
        n = available;
    std::vector<TraceRecord> out;
    out.reserve(n);
    for (std::uint64_t seq = seq_ - n; seq != seq_; ++seq)
        out.push_back(ring_[static_cast<std::size_t>(seq) & mask_]);
    return out;
}

TraceScope::TraceScope(Trace &trace)
    : previous_(t_threadTrace)
{
    t_threadTrace = &trace;
}

TraceScope::~TraceScope()
{
    t_threadTrace = previous_;
}

Trace *
currentTrace()
{
    return t_threadTrace;
}

std::string
traceContextSummary(std::size_t n)
{
    const Trace *trace = currentTrace();
    if (!trace || trace->emitted() == 0)
        return "";
    std::ostringstream out;
    out << " | last trace events:";
    for (const TraceRecord &rec : trace->lastRecords(n))
        out << " " << traceEventName(rec.event) << "@" << rec.cycle << "("
            << rec.a << "," << rec.b << "," << rec.c << ")";
    return out.str();
}

void
writeTraceSection(std::ostream &os, const Trace &trace,
                  const std::string &label)
{
    os.write(kTraceMagic, sizeof(kTraceMagic));
    putScalar(os, kTraceVersion);
    putScalar(os, static_cast<std::uint32_t>(label.size()));
    os.write(label.data(),
             static_cast<std::streamsize>(label.size()));
    putScalar(os, trace.emitted());
    putScalar(os, static_cast<std::uint64_t>(trace.capacity()));
    std::vector<TraceRecord> records = trace.records();
    putScalar(os, static_cast<std::uint64_t>(records.size()));
    for (const TraceRecord &rec : records) {
        putScalar(os, rec.cycle);
        putScalar(os, rec.a);
        putScalar(os, rec.b);
        putScalar(os, rec.c);
        putScalar(os, rec.pid);
        putScalar(os, static_cast<std::uint16_t>(rec.event));
    }
}

std::vector<TraceSection>
readTraceSections(std::istream &is)
{
    std::vector<TraceSection> sections;
    while (true) {
        char magic[4];
        is.read(magic, sizeof(magic));
        if (is.eof() && is.gcount() == 0)
            break;
        if (!is || std::memcmp(magic, kTraceMagic, sizeof(magic)) != 0)
            throw FatalError("trace: bad section magic (not a trace file, "
                             "or truncated mid-section)");
        std::uint32_t version = 0;
        std::uint32_t label_len = 0;
        if (!getScalar(is, version) || version != kTraceVersion)
            throw FatalError("trace: unsupported section version");
        if (!getScalar(is, label_len) || label_len > 4096)
            throw FatalError("trace: corrupt section label length");
        TraceSection section;
        section.label.resize(label_len);
        is.read(section.label.data(), label_len);
        std::uint64_t count = 0;
        if (!is || !getScalar(is, section.emitted) ||
            !getScalar(is, section.capacity) || !getScalar(is, count) ||
            count > section.capacity)
            throw FatalError("trace: corrupt section header");
        // The count comes from the file: reserve no more than a bounded
        // prefix of it, so a corrupt count fails below as a truncated
        // stream instead of as one huge allocation up front.
        constexpr std::uint64_t kMaxReserve = std::uint64_t{1} << 16;
        section.records.reserve(
            static_cast<std::size_t>(std::min(count, kMaxReserve)));
        for (std::uint64_t i = 0; i < count; ++i) {
            TraceRecord rec;
            std::uint16_t event = 0;
            if (!getScalar(is, rec.cycle) || !getScalar(is, rec.a) ||
                !getScalar(is, rec.b) || !getScalar(is, rec.c) ||
                !getScalar(is, rec.pid) || !getScalar(is, event))
                throw FatalError("trace: truncated record stream (the "
                                 "section header claims " +
                                 std::to_string(count) +
                                 " records; the stream ends after " +
                                 std::to_string(i) + ")");
            rec.event = static_cast<TraceEvent>(event);
            section.records.push_back(rec);
        }
        sections.push_back(std::move(section));
    }
    return sections;
}

std::string
traceRecordJsonLine(const TraceSection &section, std::size_t index)
{
    const TraceRecord &rec = section.records.at(index);
    // Absolute sequence number: the section retains the newest records,
    // so record 0 is (emitted - retained).
    std::uint64_t seq =
        section.emitted - section.records.size() + index;
    std::ostringstream out;
    out << "{\"run\":\"" << jsonEscape(section.label) << "\",\"seq\":" << seq
        << ",\"cycle\":" << rec.cycle << ",\"pid\":" << rec.pid
        << ",\"event\":\"" << traceEventName(rec.event) << "\",\"a\":" << rec.a
        << ",\"b\":" << rec.b << ",\"c\":" << rec.c;
    // Decode the bank payload word for bank-carrying events, so readers
    // need not know which of a/b/c holds it per event.
    int bank_word = traceEventBankPayload(rec.event);
    if (bank_word >= 0) {
        std::uint64_t bank =
            bank_word == 0 ? rec.a : bank_word == 1 ? rec.b : rec.c;
        out << ",\"bank\":" << bank;
    }
    out << "}";
    return out.str();
}

std::string
traceSectionSummaryJson(const TraceSection &section)
{
    // Per-event counts over the retained records, plus the cycle span
    // they cover — enough to skim a long consolidated trace for which
    // sections saw interrupts, switches or scrub traffic.
    std::uint64_t counts[static_cast<std::size_t>(TraceEvent::NumEvents)] =
        {};
    std::map<std::uint64_t, std::uint64_t> bank_counts;
    Cycles first = 0;
    Cycles last = 0;
    for (std::size_t i = 0; i < section.records.size(); ++i) {
        const TraceRecord &rec = section.records[i];
        auto index = static_cast<std::size_t>(rec.event);
        if (index < static_cast<std::size_t>(TraceEvent::NumEvents))
            ++counts[index];
        int bank_word = traceEventBankPayload(rec.event);
        if (bank_word >= 0)
            ++bank_counts[bank_word == 0   ? rec.a
                          : bank_word == 1 ? rec.b
                                           : rec.c];
        if (i == 0)
            first = rec.cycle;
        last = rec.cycle;
    }
    std::ostringstream out;
    out << "{\"run\":\"" << jsonEscape(section.label)
        << "\",\"emitted\":" << section.emitted
        << ",\"retained\":" << section.records.size()
        << ",\"cycle_first\":" << first << ",\"cycle_last\":" << last
        << ",\"events\":{";
    bool comma = false;
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(TraceEvent::NumEvents); ++i) {
        if (counts[i] == 0)
            continue;
        if (comma)
            out << ",";
        out << "\"" << kTraceEventNames[i] << "\":" << counts[i];
        comma = true;
    }
    out << "},\"bank_events\":{";
    comma = false;
    for (const auto &[bank, count] : bank_counts) {
        if (comma)
            out << ",";
        out << "\"" << bank << "\":" << count;
        comma = true;
    }
    out << "}}";
    return out.str();
}

} // namespace safemem
