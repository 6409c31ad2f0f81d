#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <tuple>

namespace perfbench {

namespace {

struct KindInfo
{
    const char *name;
    Layer layer;
};

constexpr KindInfo kKinds[kSpanKinds] = {
    {"os.machine_boot", Layer::Setup},
    {"os.process_boot", Layer::Setup},
    {"safemem.stack_boot", Layer::Setup},
    {"os.machine_teardown", Layer::Setup},
    {"run", Layer::Run},
    {"run.process", Layer::Run},
    {"tool.alloc", Layer::Tool},
    {"tool.calloc", Layer::Tool},
    {"tool.realloc", Layer::Tool},
    {"tool.free", Layer::Tool},
    {"tool.finish", Layer::Tool},
    {"watch.watch", Layer::Watch},
    {"watch.unwatch", Layer::Watch},
    {"watch.is_watched", Layer::Watch},
    {"watch.fault", Layer::Fault},
    {"sched.wait", Layer::Sched},
    {"sched.handoff", Layer::Sched},
};

constexpr const char *kLayerNames[kLayers] = {
    "setup", "run", "tool", "watch", "fault", "sched",
};

thread_local SpanTrack *tlTrack = nullptr;

std::size_t
index(SpanKind kind)
{
    return static_cast<std::size_t>(kind);
}

} // namespace

const char *
spanName(SpanKind kind)
{
    return kKinds[index(kind)].name;
}

Layer
spanLayer(SpanKind kind)
{
    return kKinds[index(kind)].layer;
}

const char *
layerName(Layer layer)
{
    return kLayerNames[static_cast<std::size_t>(layer)];
}

void
SpanTrack::begin(SpanKind kind)
{
    Span span;
    span.kind = kind;
    span.parent = open_.empty() ? kNoParent : open_.back();
    span.start = nowNs();
    open_.push_back(static_cast<std::uint32_t>(spans_.size()));
    spans_.push_back(span);
}

void
SpanTrack::end()
{
    std::uint32_t idx = open_.back();
    open_.pop_back();
    spans_[idx].end = nowNs();
    close(idx);
}

void
SpanTrack::leaf(SpanKind kind, std::int64_t start, std::int64_t end)
{
    Span span;
    span.kind = kind;
    span.parent = open_.empty() ? kNoParent : open_.back();
    span.start = start;
    span.end = end;
    spans_.push_back(span);
    close(static_cast<std::uint32_t>(spans_.size() - 1));
}

void
SpanTrack::close(std::uint32_t idx)
{
    const Span &span = spans_[idx];
    if (span.kind == SpanKind::SchedWait) {
        // Descheduled time: none of the interrupted spans was working.
        for (std::uint32_t open : open_)
            spans_[open].waitNs += span.end - span.start;
    } else if (span.parent != kNoParent) {
        spans_[span.parent].childNs += span.active();
    }
}

SpanTrack *
currentTrack()
{
    return tlTrack;
}

TrackBinding::TrackBinding(SpanTrack *track) : previous_(tlTrack)
{
    tlTrack = track;
}

TrackBinding::~TrackBinding()
{
    tlTrack = previous_;
}

RunProfile
profileRun(const SpanRecorder &recorder)
{
    RunProfile profile;
    std::ostringstream errors;
    for (const auto &track : recorder.tracks()) {
        if (track->openCount() != 0)
            errors << track->label() << ": " << track->openCount()
                   << " span(s) left open; ";
        const std::vector<Span> &spans = track->spans();
        for (const Span &span : spans) {
            std::size_t k = index(span.kind);
            Layer layer = spanLayer(span.kind);
            LayerTotals &totals =
                profile.layers[static_cast<std::size_t>(layer)];
            const Span *parent =
                span.parent == kNoParent ? nullptr : &spans[span.parent];
            ++profile.calls[k];
            profile.activeNs[k] += span.active();
            profile.selfNs[k] += span.self();
            if (span.kind == SpanKind::Run)
                profile.runWallNs += span.end - span.start;
            if (span.kind != SpanKind::SchedWait) {
                ++totals.spans;
                totals.selfNs += span.self();
                if (!parent || parent->kind == SpanKind::SchedWait ||
                    spanLayer(parent->kind) != layer)
                    totals.busyNs += span.active();
            }

            if (span.self() < 0 || span.end < span.start)
                errors << track->label() << ": " << spanName(span.kind)
                       << " has negative self time; ";
            if (parent &&
                (span.start < parent->start || span.end > parent->end))
                errors << track->label() << ": " << spanName(span.kind)
                       << " lies outside its parent "
                       << spanName(parent->kind) << "; ";

            switch (span.kind) {
              case SpanKind::ToolAlloc:
              case SpanKind::ToolCalloc:
              case SpanKind::ToolRealloc:
                profile.allocNs.push_back(span.active());
                break;
              case SpanKind::ToolFree:
                profile.freeNs.push_back(span.active());
                break;
              case SpanKind::Watch:
                profile.watchNs.push_back(span.active());
                break;
              case SpanKind::Unwatch:
                profile.unwatchNs.push_back(span.active());
                break;
              default:
                break;
            }
        }
    }
    profile.nestingError = errors.str();
    return profile;
}

bool
writeChromeTrace(const SpanRecorder &recorder, const std::string &workload,
                 std::size_t max_events, const std::string &path)
{
    // (start, track, span) of every span, earliest first: a parent
    // starts no later than its children, so a prefix keeps every parent.
    std::vector<std::tuple<std::int64_t, std::uint32_t, std::uint32_t>> order;
    const auto &tracks = recorder.tracks();
    for (std::uint32_t t = 0; t < tracks.size(); ++t) {
        const std::vector<Span> &spans = tracks[t]->spans();
        for (std::uint32_t i = 0; i < spans.size(); ++i)
            order.emplace_back(spans[i].start, t, i);
    }
    std::sort(order.begin(), order.end());
    std::size_t written = std::min(order.size(), max_events);
    std::int64_t origin = order.empty() ? 0 : std::get<0>(order.front());

    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    // Thread track id: recording thread x layer.
    auto tid = [](std::uint32_t track, Layer layer) {
        return track * kLayers + static_cast<std::size_t>(layer) + 1;
    };
    std::fprintf(out,
                 "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":"
                 "\"%s\",\"run\":%u,\"spans\":%zu,\"spans_written\":%zu},"
                 "\"traceEvents\":[\n",
                 workload.c_str(), recorder.runId(), order.size(), written);
    std::fprintf(out,
                 "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,"
                 "\"args\":{\"name\":\"%s\"}}",
                 workload.c_str());
    for (std::uint32_t t = 0; t < tracks.size(); ++t) {
        for (std::size_t l = 0; l < kLayers; ++l) {
            Layer layer = static_cast<Layer>(l);
            std::fprintf(out,
                         ",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                         "\"tid\":%zu,\"args\":{\"name\":\"%s (%s)\"}}",
                         tid(t, layer), layerName(layer),
                         tracks[t]->label().c_str());
        }
    }
    for (std::size_t e = 0; e < written; ++e) {
        auto [start, t, i] = order[e];
        const Span &span = tracks[t]->spans()[i];
        long long parent =
            span.parent == kNoParent ? -1 : static_cast<long long>(span.parent);
        std::fprintf(out,
                     ",\n{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\","
                     "\"pid\":1,\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"track\":%u,\"id\":%u,\"parent\":%lld,\"run\":%u,"
                     "\"self_ns\":%lld}}",
                     spanName(span.kind), layerName(spanLayer(span.kind)),
                     tid(t, spanLayer(span.kind)),
                     static_cast<double>(start - origin) / 1e3,
                     static_cast<double>(span.end - span.start) / 1e3, t, i,
                     parent, recorder.runId(),
                     static_cast<long long>(span.self()));
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
}

} // namespace perfbench
