#include "safemem/watch_manager.h"

#include <algorithm>
#include <bit>

#include "check/simcheck.h"
#include "common/logging.h"
#include "trace/trace.h"

namespace safemem {

namespace {

/** Slots a table allocates on its first insert. */
constexpr std::size_t kInitialLineSlots = 64;

/** Cross-check the library and kernel indexes this often. */
constexpr std::uint32_t kAuditEveryMutations = 256;

bool
overlaps(VirtAddr base, std::size_t size, VirtAddr other,
         std::size_t other_size)
{
    return base < other + other_size && other < base + size;
}

} // namespace

std::size_t
WatchLineTable::probe(VirtAddr line) const
{
    std::size_t mask = slots_.size() - 1;
    std::size_t i = homeOf(line);
    while (slots_[i].line != line && slots_[i].line != kFree)
        i = (i + 1) & mask;
    return i;
}

WatchLineTable::Slot &
WatchLineTable::insert(VirtAddr line)
{
    if ((size_ + 1) * 4 > slots_.size() * 3)
        grow();
    Slot &slot = slots_[probe(line)];
    if (slot.line == line)
        panic("WatchLineTable: line ", line, " inserted twice");
    slot.line = line;
    ++size_;
    return slot;
}

void
WatchLineTable::erase(VirtAddr line)
{
    std::size_t hole = slotOf(line);
    if (hole == slots_.size())
        panic("WatchLineTable: erase of absent line ", line);
    // Backward shift: walk the rest of the probe chain and pull back
    // each entry whose home does not lie cyclically in (hole, j], so
    // every remaining key stays reachable from its home without a
    // tombstone.
    std::size_t mask = slots_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; slots_[j].line != kFree;
         j = (j + 1) & mask) {
        if (((j - homeOf(slots_[j].line)) & mask) >= ((j - hole) & mask)) {
            slots_[hole] = slots_[j];
            hole = j;
        }
    }
    slots_[hole].line = kFree;
    --size_;
}

void
WatchLineTable::grow()
{
    std::vector<Slot> old = std::move(slots_);
    std::size_t capacity = old.empty() ? kInitialLineSlots : 2 * old.size();
    slots_.assign(capacity, Slot{});
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (const Slot &slot : old) {
        if (slot.line != kFree)
            slots_[probe(slot.line)] = slot;
    }
}

EccWatchManager::EccWatchManager(Machine &machine)
    : machine_(machine), scramble_(machine.kernel().scramblePattern()),
      trace_(machine.trace())
{
}

void
EccWatchManager::installFaultHandler()
{
    machine_.kernel().registerEccFaultHandler(
        [this](const UserEccFault &fault) { return onEccFault(fault); });
}

void
EccWatchManager::installScrubHooks()
{
    machine_.kernel().setScrubHooks(
        [this](unsigned bank) { scrubHookPark(bank); },
        [this](unsigned bank) { scrubHookRestore(bank); });
}

template <typename Match>
std::vector<std::uint32_t>
EccWatchManager::liveRegionsWhere(Match match) const
{
    std::vector<std::uint32_t> handles;
    for (std::uint32_t h = 0; h < regions_.size(); ++h) {
        if (regions_[h].size != 0 && match(regions_[h]))
            handles.push_back(h);
    }
    std::sort(handles.begin(), handles.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  return regions_[a].base < regions_[b].base;
              });
    return handles;
}

void
EccWatchManager::park(std::uint32_t handle, unsigned tag)
{
    const Region &region = regions_[handle];
    parked_.push_back(ParkedRegion{region, tag});
    SAFEMEM_TRACE_EMIT(trace_,
                       tag == kSwapParked ? TraceEvent::WatchSwapPark
                                          : TraceEvent::WatchScrubPark,
                       machine_.clock().now(), region.base, region.size);
    dropRegion(handle);
}

template <typename Match>
std::vector<EccWatchManager::Region>
EccWatchManager::unpark(Match match)
{
    // Detach before restoring: watch() consults the parking list for
    // overlaps, so restoring in place would see each region as
    // overlapping itself.
    std::vector<Region> detached;
    auto keep = parked_.begin();
    for (const ParkedRegion &parked : parked_) {
        if (match(parked))
            detached.push_back(parked.region);
        else
            *keep++ = parked;
    }
    parked_.erase(keep, parked_.end());
    return detached;
}

void
EccWatchManager::parkAllForScrub(unsigned bank)
{
    // Per-bank pairing discipline: the kernel runs park(b) → scrub(b) →
    // restore(b) strictly nested, so no region parked by bank b may
    // still be waiting when b parks again.
    if (simCheckActive()) {
        for (const ParkedRegion &parked : parked_) {
            SIMCHECK_AUDIT(AuditDomain::Kernel, "scrub_park_pairing",
                           parked.bank != bank, "bank ", bank,
                           " parks again while region ",
                           parked.region.base,
                           " from its previous pass awaits restore");
        }
    }
    // Lift every watch the scrubbed bank backs so its scrubber sees
    // clean lines (paper §2.2.2: SafeMem temporarily unmonitors watched
    // regions and blocks the program until scrubbing finishes). Regions
    // wholly in other banks stay live — that is the point of banking.
    for (std::uint32_t handle : liveRegionsWhere([bank](const Region &r) {
             return r.bankMask >> bank & 1;
         }))
        park(handle, bank);
    stats_.add(WatchStat::ScrubUnwatchPasses);
}

void
EccWatchManager::restoreAfterScrub(unsigned bank)
{
    // Entries parked by other banks' in-flight passes stay parked.
    for (const Region &region : unpark([bank](const ParkedRegion &p) {
             return p.bank == bank;
         })) {
        SAFEMEM_TRACE_EMIT(trace_, TraceEvent::WatchScrubRestore,
                           machine_.clock().now(), region.base, region.size);
        watch(region.base, region.size, region.kind, region.cookie);
    }
}

void
EccWatchManager::installSwapHooks()
{
    machine_.kernel().setSwapHooks(
        [this](VirtAddr vpage) {
            // Pre swap-out: park every watched region that intersects
            // the departing page.
            for (std::uint32_t handle :
                 liveRegionsWhere([vpage](const Region &r) {
                     return overlaps(r.base, r.size, vpage, kPageSize);
                 })) {
                park(handle, kSwapParked);
                stats_.add(WatchStat::RegionsSwapParked);
            }
        },
        [this](VirtAddr vpage) {
            // Post swap-in: restore the parked regions of this page.
            for (const Region &region :
                 unpark([vpage](const ParkedRegion &p) {
                     return p.bank == kSwapParked &&
                            overlaps(p.region.base, p.region.size, vpage,
                                     kPageSize);
                 })) {
                SAFEMEM_TRACE_EMIT(trace_, TraceEvent::WatchSwapRestore,
                                   machine_.clock().now(), region.base,
                                   region.size);
                watch(region.base, region.size, region.kind,
                      region.cookie);
                stats_.add(WatchStat::RegionsSwapRestored);
            }
        });
}

void
EccWatchManager::setFaultCallback(WatchFaultCallback callback)
{
    callback_ = std::move(callback);
}

void
EccWatchManager::watch(VirtAddr base, std::size_t size, WatchKind kind,
                       std::uint64_t cookie)
{
    if (!isAligned(base, kCacheLineSize) || !isAligned(size, kCacheLineSize)
        || size == 0)
        panic("EccWatchManager: region ", base, "+", size,
              " is not line aligned");

    for (std::size_t off = 0; off < size; off += kCacheLineSize) {
        if (lines_.find(base + off))
            panic("EccWatchManager: line ", base + off, " already watched");
    }
    // Parked regions are still logically watched: they come back the
    // moment their scrub pass ends or their page swaps in, so letting a
    // new watch overlap one would double-watch on restore.
    for (const ParkedRegion &parked : parked_) {
        if (overlaps(base, size, parked.region.base, parked.region.size))
            panic("EccWatchManager: region ", base, " overlaps a ",
                  parked.bank == kSwapParked ? "swap" : "scrub",
                  "-parked watch at ", parked.region.base);
    }

    // Save the original contents into SafeMem's private memory — the
    // hardware-error discriminator needs them (§2.2.2). The read can
    // run a scrub pass whose restore re-enters watch(), so the buffer
    // is taken from scratch_ for the duration, not borrowed.
    std::vector<std::uint64_t> words = std::move(scratch_);
    words.resize(size / kEccGroupSize);
    machine_.read(base, words.data(), size);

    machine_.kernel().watchMemory(base, size);

    // Record which banks back the region's frames (resident and pinned
    // now that the kernel watch is in): only those banks' scrub passes
    // ever park this region.
    Region region{base, size, kind, cookie, 0};
    MemoryController &controller = machine_.controller();
    for (VirtAddr vpage = alignDown(base, kPageSize); vpage < base + size;
         vpage += kPageSize) {
        if (auto paddr = machine_.kernel().peekTranslate(vpage))
            region.bankMask |= std::uint64_t{1} << controller.bankOf(*paddr);
    }
    if (region.bankMask == 0)
        panic("EccWatchManager: region ", base,
              " has no resident frames after watchMemory");

    std::uint32_t handle;
    if (freeRegions_.empty()) {
        handle = static_cast<std::uint32_t>(regions_.size());
        regions_.push_back(region);
    } else {
        handle = freeRegions_.back();
        freeRegions_.pop_back();
        regions_[handle] = region;
    }
    for (std::size_t off = 0; off < size; off += kCacheLineSize) {
        WatchLineTable::Slot &slot = lines_.insert(base + off);
        slot.region = handle;
        std::copy_n(words.begin() + off / kEccGroupSize, kEccGroupsPerLine,
                    slot.words.begin());
    }
    scratch_ = std::move(words);
    watchedBytes_ += size;
    stats_.add(WatchStat::RegionsWatched);
    stats_.maxOf(WatchStat::PeakWatchedBytes, watchedBytes_);
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::WatchEstablish,
                       machine_.clock().now(), base, size,
                       static_cast<std::uint64_t>(kind));
    noteMutation();
}

void
EccWatchManager::dropRegion(std::uint32_t handle)
{
    // Copied: the kernel call below may page in, and a swap-in restore
    // re-enters watch(), which can reallocate regions_.
    const Region region = regions_[handle];
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::WatchDrop,
                       machine_.clock().now(), region.base, region.size);
    machine_.kernel().disableWatchMemory(region.base, region.size);
    for (std::size_t off = 0; off < region.size; off += kCacheLineSize)
        lines_.erase(region.base + off);
    watchedBytes_ -= region.size;
    regions_[handle].size = 0;
    freeRegions_.push_back(handle);
    noteMutation();
}

void
EccWatchManager::unwatch(VirtAddr base)
{
    const WatchLineTable::Slot *slot = lines_.find(base);
    if (slot && regions_[slot->region].base == base) {
        dropRegion(slot->region);
        stats_.add(WatchStat::RegionsUnwatched);
        return;
    }
    // A parked region — swap- or scrub-parked — is still logically
    // watched; cancelling it only removes the parking entry (its lines
    // were already unscrambled when it was parked).
    for (auto parked = parked_.begin(); parked != parked_.end(); ++parked) {
        if (parked->region.base == base) {
            SAFEMEM_TRACE_EMIT(trace_,
                               parked->bank == kSwapParked
                                   ? TraceEvent::WatchSwapCancel
                                   : TraceEvent::WatchScrubCancel,
                               machine_.clock().now(), base);
            parked_.erase(parked);
            stats_.add(WatchStat::ParkedRegionsCancelled);
            return;
        }
    }
    panic("EccWatchManager: unwatch of unknown region ", base);
}

bool
EccWatchManager::isWatched(VirtAddr base) const
{
    const WatchLineTable::Slot *slot = lines_.find(base);
    if (slot && regions_[slot->region].base == base)
        return true;
    return std::any_of(parked_.begin(), parked_.end(),
                       [base](const ParkedRegion &parked) {
                           return parked.region.base == base;
                       });
}

void
EccWatchManager::noteMutation()
{
    if (!simCheckActive())
        return;
    if (++mutationsSinceAudit_ >= kAuditEveryMutations) {
        mutationsSinceAudit_ = 0;
        auditInvariants();
    }
}

void
EccWatchManager::auditInvariants() const
{
    if (!simCheckActive())
        return;
    const Kernel &kernel = machine_.kernel();
    lines_.forEach([&](const WatchLineTable::Slot &slot) {
        SIMCHECK_AUDIT(AuditDomain::Kernel, "watch_table_line_watched",
                       kernel.isWatched(slot.line), "library watches line ",
                       slot.line, " of region ", regions_[slot.region].base,
                       " but pid ", kernel.currentPid(),
                       "'s kernel mask does not");
    });
    SIMCHECK_AUDIT(AuditDomain::Kernel, "watch_table_count_matches",
                   lines_.size() == kernel.watchedLineCount(),
                   "library table holds ", lines_.size(),
                   " lines but pid ", kernel.currentPid(), " watches ",
                   kernel.watchedLineCount());
}

FaultDecision
EccWatchManager::onEccFault(const UserEccFault &fault)
{
    VirtAddr vline = alignDown(fault.vaddr, kCacheLineSize);
    const WatchLineTable::Slot *slot = lines_.find(vline);
    if (!slot) {
        // Not one of ours: a genuine hardware error somewhere else.
        if (inRepair_)
            panic("EccWatchManager: nested ECC fault at line ", vline,
                  " while repairing a hardware error — the repair path "
                  "pulled the corrupted region back through the cache");
        stats_.add(WatchStat::ForeignFaults);
        SAFEMEM_TRACE_EMIT(trace_, TraceEvent::WatchFaultForeign,
                           machine_.clock().now(), vline);
        return FaultDecision::HardwareError;
    }

    const std::uint32_t handle = slot->region;
    const Region region = regions_[handle];

    // Everything from here on is monitoring work, not application work.
    CostScope scope(machine_.clock(),
                    region.kind == WatchKind::LeakSuspect
                        ? CostCenter::ToolLeak
                        : CostCenter::ToolCorruption);

    // Recompute the scramble signature for the faulting line and compare
    // against memory: a mismatch means a real hardware error struck the
    // watched line (§2.2.2).
    MemoryController &controller = machine_.controller();
    LineData current{};
    controller.peekLine(alignDown(fault.lineAddr, kCacheLineSize), current);
    bool signature_intact = true;
    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
        if (lineWord(current, i) != scramble_.apply(slot->words[i])) {
            signature_intact = false;
            break;
        }
    }

    if (!signature_intact) {
        // Hardware error under a watch. The watched data is expendable
        // (padding or a suspected leak) and we hold a pristine copy:
        // repair the region, then report the hardware error.
        stats_.add(WatchStat::HardwareErrorsDetected);
        SAFEMEM_TRACE_EMIT(trace_, TraceEvent::WatchFaultHardware,
                           machine_.clock().now(), vline, region.base);
        if (inRepair_)
            panic("EccWatchManager: nested hardware fault inside the "
                  "repair path at line ", vline);
        inRepair_ = true;
        std::vector<std::uint64_t> original;
        original.reserve(region.size / kEccGroupSize);
        for (std::size_t off = 0; off < region.size; off += kCacheLineSize) {
            const auto &words = lines_.find(region.base + off)->words;
            original.insert(original.end(), words.begin(), words.end());
        }
        dropRegion(handle);
        // Repair through the device-op path: writeLineDeviceOp rewrites
        // each line with freshly encoded check bytes without any cache
        // traffic. A machine_.write() here would write-allocate, and the
        // read-for-ownership fill would pull the still-corrupted line
        // through the controller — a nested ECC fault inside the fault
        // handler (the inRepair_ guard above turns that into a panic
        // rather than unbounded recursion).
        Kernel &kernel = machine_.kernel();
        for (std::size_t off = 0; off < region.size; off += kCacheLineSize) {
            PhysAddr pline = kernel.translate(region.base + off);
            // The region's lines cannot be cache-resident (watchMemory
            // flushed them and faulted fills never install), but flush
            // defensively so a stale copy can never shadow the repair.
            machine_.cache().flushLine(pline);
            controller.writeLineDeviceOp(pline,
                                         &original[off / kEccGroupSize]);
        }
        inRepair_ = false;
        SAFEMEM_TRACE_EMIT(trace_, TraceEvent::WatchRepairDone,
                           machine_.clock().now(), region.base, region.size);
        return FaultDecision::HardwareError;
    }

    // Access fault: remove the watch (only the first access matters),
    // then hand the event to the owning detector.
    stats_.add(WatchStat::AccessFaults);
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::WatchFaultAccess,
                       machine_.clock().now(), vline, region.base,
                       fault.isWrite ? 1 : 0);
    dropRegion(handle);
    if (callback_)
        callback_(region.base, region.kind, region.cookie, vline,
                  fault.isWrite);
    return FaultDecision::Handled;
}

} // namespace safemem
