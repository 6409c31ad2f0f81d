/**
 * @file
 * Host-time spans recorded at the layer boundaries of a traced run.
 *
 * A span has a kind (which names it and its layer), a start, an end and
 * the span that caused it: the innermost span still open on the same
 * thread when it began. Each thread records into its own SpanTrack, so
 * the consolidated run's process threads never share a buffer; the
 * tracks of one run belong to the SpanRecorder, which tags them with
 * the run id. Spans stay in memory until the benchmark writes them out.
 *
 * Time a thread spends descheduled (a `sched.wait` span, in a
 * consolidated run) is subtracted from every span it interrupts, so a
 * span's active time counts only host time its own thread spent
 * working. A span's self time is its active time minus the active time
 * of its children.
 */

#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/** @return monotonic host time in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The simulator layers a span can belong to. */
enum class Layer : std::uint8_t
{
    Setup, ///< os Machine boot/teardown, process and tool-stack boot
    Run,   ///< app + Env + access path (whatever no child span covers)
    Tool,  ///< tool interposition (Tool decorator)
    Watch, ///< watch backend calls (WatchBackend decorator)
    Fault, ///< the tool's watch-fault callback
    Sched, ///< consolidated hand-offs
    Count
};

/** Span kinds, one per decorated call or timed step. */
enum class SpanKind : std::uint8_t
{
    MachineBoot,
    ProcessBoot,
    StackBoot,
    MachineTeardown,
    Run,  ///< the whole simulated execution (main thread)
    Proc, ///< one process's execution on its driving thread
    ToolAlloc,
    ToolCalloc,
    ToolRealloc,
    ToolFree,
    ToolFinish,
    Watch,
    Unwatch,
    IsWatched,
    Fault,
    SchedWait,    ///< this thread descheduled
    SchedHandoff, ///< from a yield to this thread resuming
    Count
};

inline constexpr std::size_t kSpanKinds =
    static_cast<std::size_t>(SpanKind::Count);
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::Count);

/** @return the span's name, e.g. "tool.alloc". */
const char *spanName(SpanKind kind);

/** @return the layer @p kind belongs to. */
Layer spanLayer(SpanKind kind);

/** @return the layer's name, e.g. "tool". */
const char *layerName(Layer layer);

inline constexpr std::uint32_t kNoParent = ~0u;

struct Span
{
    std::int64_t start = 0;
    std::int64_t end = 0;
    /** Descheduled time inside this span (its sched.wait descendants). */
    std::int64_t waitNs = 0;
    /** Active time of the direct children. */
    std::int64_t childNs = 0;
    /** Index of the causing span on the same track, or kNoParent. */
    std::uint32_t parent = kNoParent;
    SpanKind kind = SpanKind::Run;

    std::int64_t active() const { return end - start - waitNs; }
    std::int64_t self() const { return active() - childNs; }
};

/** The spans one thread recorded in one run. Only that thread writes it. */
class SpanTrack
{
  public:
    explicit SpanTrack(std::string label) : label_(std::move(label)) {}

    /** Open a span of @p kind under the innermost open span. */
    void begin(SpanKind kind);

    /** Close the innermost open span. */
    void end();

    /** Record a finished span [@p start, @p end] under the innermost
     *  open span (a hand-off whose start another thread observed). */
    void leaf(SpanKind kind, std::int64_t start, std::int64_t end);

    const std::string &label() const { return label_; }
    const std::vector<Span> &spans() const { return spans_; }
    std::size_t openCount() const { return open_.size(); }

  private:
    void close(std::uint32_t index);

    std::string label_;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> open_;
};

/** The tracks of one traced run. */
class SpanRecorder
{
  public:
    explicit SpanRecorder(std::uint32_t run_id) : runId_(run_id) {}

    /** Add a track (call before the thread that fills it starts). */
    SpanTrack &
    addTrack(std::string label)
    {
        tracks_.push_back(std::make_unique<SpanTrack>(std::move(label)));
        return *tracks_.back();
    }

    std::uint32_t runId() const { return runId_; }
    const std::vector<std::unique_ptr<SpanTrack>> &tracks() const
    {
        return tracks_;
    }

  private:
    std::uint32_t runId_;
    std::vector<std::unique_ptr<SpanTrack>> tracks_;
};

/** @return the calling thread's track; null when it records nothing. */
SpanTrack *currentTrack();

/** RAII: make @p track the calling thread's track for the scope. */
class TrackBinding
{
  public:
    explicit TrackBinding(SpanTrack *track);
    ~TrackBinding();

    TrackBinding(const TrackBinding &) = delete;
    TrackBinding &operator=(const TrackBinding &) = delete;

  private:
    SpanTrack *previous_;
};

/** RAII span on the calling thread's track; a no-op when it has none. */
class SpanScope
{
  public:
    explicit SpanScope(SpanKind kind) : track_(currentTrack())
    {
        if (track_)
            track_->begin(kind);
    }
    ~SpanScope()
    {
        if (track_)
            track_->end();
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanTrack *track_;
};

/** Totals of one layer over a run. */
struct LayerTotals
{
    std::uint64_t spans = 0;
    /** Active time of the layer's outermost spans (not nested in a span
     *  of the same layer). */
    std::int64_t busyNs = 0;
    /** Self time summed over the layer's spans. */
    std::int64_t selfNs = 0;
};

/** What one traced run's spans add up to. */
struct RunProfile
{
    std::array<std::uint64_t, kSpanKinds> calls{};
    /** Active and self time summed over every span of each kind. */
    std::array<std::int64_t, kSpanKinds> activeNs{};
    std::array<std::int64_t, kSpanKinds> selfNs{};
    /** Wall time (end minus start) of the run spans. */
    std::int64_t runWallNs = 0;
    /** Per layer; sched.wait spans (a thread descheduled) are left out. */
    std::array<LayerTotals, kLayers> layers{};
    /** Per-call active times (the latency distributions). */
    std::vector<std::int64_t> allocNs;
    std::vector<std::int64_t> freeNs;
    std::vector<std::int64_t> watchNs;
    std::vector<std::int64_t> unwatchNs;
    /** Nesting violations: a child outside its parent, a negative self
     *  time, or a span left open. Empty when the run is well formed. */
    std::string nestingError;

    std::uint64_t callsOf(SpanKind kind) const
    {
        return calls[static_cast<std::size_t>(kind)];
    }
    std::int64_t activeOf(SpanKind kind) const
    {
        return activeNs[static_cast<std::size_t>(kind)];
    }
    std::int64_t selfOf(SpanKind kind) const
    {
        return selfNs[static_cast<std::size_t>(kind)];
    }
    const LayerTotals &layer(Layer l) const
    {
        return layers[static_cast<std::size_t>(l)];
    }
};

/** Add up and check the spans of @p recorder's run. */
RunProfile profileRun(const SpanRecorder &recorder);

/**
 * Write the run's spans as Chrome Trace Event JSON (opens in Perfetto
 * and chrome://tracing): one process track named @p workload, one
 * thread track per (layer, recording thread). At most @p max_events
 * spans are written, the earliest-starting ones, so every written
 * span's parent is written too; the file records how many were left
 * out. @return false when the file could not be written.
 */
bool writeChromeTrace(const SpanRecorder &recorder,
                      const std::string &workload, std::size_t max_events,
                      const std::string &path);

} // namespace perfbench
