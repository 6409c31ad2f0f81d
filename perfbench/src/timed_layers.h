/**
 * @file
 * Timing decorators for the two virtual layer interfaces a run's tool
 * stack is built from: Tool (malloc interposition) and WatchBackend
 * (watch/unwatch plus the fault callback). Each forwards every call to
 * the wrapped object unchanged and records a span around the calls the
 * per-layer metrics need, so the layers are timed from outside the
 * simulator.
 */

#pragma once

#include <utility>

#include "common/tool.h"
#include "safemem/watch_backend.h"
#include "spans.h"

namespace perfbench {

class TimedTool final : public safemem::Tool
{
  public:
    explicit TimedTool(safemem::Tool &inner) : inner_(inner) {}

    safemem::VirtAddr
    toolAlloc(std::size_t size, const safemem::ShadowStack &stack,
              std::uint64_t site_tag) override
    {
        SpanScope span(SpanKind::ToolAlloc);
        return inner_.toolAlloc(size, stack, site_tag);
    }

    safemem::VirtAddr
    toolCalloc(std::size_t count, std::size_t size,
               const safemem::ShadowStack &stack,
               std::uint64_t site_tag) override
    {
        SpanScope span(SpanKind::ToolCalloc);
        return inner_.toolCalloc(count, size, stack, site_tag);
    }

    safemem::VirtAddr
    toolRealloc(safemem::VirtAddr addr, std::size_t new_size,
                const safemem::ShadowStack &stack,
                std::uint64_t site_tag) override
    {
        SpanScope span(SpanKind::ToolRealloc);
        return inner_.toolRealloc(addr, new_size, stack, site_tag);
    }

    void
    toolFree(safemem::VirtAddr addr) override
    {
        SpanScope span(SpanKind::ToolFree);
        inner_.toolFree(addr);
    }

    void onCompute(safemem::Cycles cycles) override { inner_.onCompute(cycles); }

    void
    finish() override
    {
        SpanScope span(SpanKind::ToolFinish);
        inner_.finish();
    }

  private:
    safemem::Tool &inner_;
};

class TimedWatchBackend final : public safemem::WatchBackend
{
  public:
    explicit TimedWatchBackend(safemem::WatchBackend &inner) : inner_(inner) {}

    std::size_t granule() const override { return inner_.granule(); }

    void
    setFaultCallback(safemem::WatchFaultCallback callback) override
    {
        inner_.setFaultCallback(
            [callback = std::move(callback)](
                safemem::VirtAddr base, safemem::WatchKind kind,
                std::uint64_t cookie, safemem::VirtAddr fault_addr,
                bool is_write) {
                SpanScope span(SpanKind::Fault);
                callback(base, kind, cookie, fault_addr, is_write);
            });
    }

    void
    watch(safemem::VirtAddr base, std::size_t size, safemem::WatchKind kind,
          std::uint64_t cookie) override
    {
        SpanScope span(SpanKind::Watch);
        inner_.watch(base, size, kind, cookie);
    }

    void
    unwatch(safemem::VirtAddr base) override
    {
        SpanScope span(SpanKind::Unwatch);
        inner_.unwatch(base);
    }

    bool
    isWatched(safemem::VirtAddr base) const override
    {
        SpanScope span(SpanKind::IsWatched);
        return inner_.isWatched(base);
    }

    std::size_t regionCount() const override { return inner_.regionCount(); }

    std::uint64_t
    watchedBytes() const override
    {
        return inner_.watchedBytes();
    }

    const safemem::StatSet &
    stats() const override
    {
        return inner_.stats();
    }

  private:
    safemem::WatchBackend &inner_;
};

} // namespace perfbench
