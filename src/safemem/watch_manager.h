/**
 * @file
 * The ECC watch backend — SafeMem's user-level library side of the
 * mechanism (paper §2.2).
 *
 * Responsibilities beyond calling the kernel's WatchMemory /
 * DisableWatchMemory:
 *
 *  - keep a private copy of each watched line's original contents, used
 *    to recompute the scramble signature and tell access faults apart
 *    from genuine hardware ECC errors (§2.2.2 "Data Scrambling");
 *  - index the watched lines: one open-addressed table maps each line
 *    to its saved words and its region's record, so lookups by region
 *    base and by faulting line are one probe each;
 *  - dispatch verified access faults to the owning detector through the
 *    WatchFaultCallback, after disabling the watch (only the first
 *    access matters, §2.2.1);
 *  - coordinate with memory scrubbing: unwatch everything before a scrub
 *    pass and rewatch afterwards (§2.2.2 "Dealing with ECC Memory
 *    Scrubbing").
 */

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "ecc/scramble.h"
#include "os/machine.h"
#include "safemem/watch_backend.h"

namespace safemem {

/** Slot indices into the watch manager StatSet; order matches kWatchStatNames. */
enum class WatchStat : std::size_t
{
    ScrubUnwatchPasses,
    RegionsSwapParked,
    RegionsSwapRestored,
    RegionsWatched,
    PeakWatchedBytes,
    RegionsUnwatched,
    ParkedRegionsCancelled,
    ForeignFaults,
    HardwareErrorsDetected,
    AccessFaults,
};

/** Report/snapshot names for WatchStat, in enumerator order. */
inline constexpr const char *kWatchStatNames[] = {
    "scrub_unwatch_passes",
    "regions_swap_parked",
    "regions_swap_restored",
    "regions_watched",
    "peak_watched_bytes",
    "regions_unwatched",
    "parked_regions_cancelled",
    "foreign_faults",
    "hardware_errors_detected",
    "access_faults",
};

/**
 * The library's line index: an open-addressed hash table from a watched
 * line's virtual address to the line's original words and the handle of
 * its region record. Linear probing over a power-of-two capacity,
 * Fibonacci hashing of the line number, and backward-shift deletion, so
 * there are no tombstones and probe chains never degrade. It doubles at
 * 3/4 load and starts with no storage, so an idle manager allocates
 * nothing.
 */
class WatchLineTable
{
  public:
    /** Marks a free slot; never line aligned, so never a key. */
    static constexpr VirtAddr kFree = ~VirtAddr{0};

    struct Slot
    {
        VirtAddr line = kFree;
        /** Index of the owning region's record. */
        std::uint32_t region = 0;
        /** The line's original data, one word per ECC group. */
        std::array<std::uint64_t, kEccGroupsPerLine> words{};
    };

    /** @return the slot holding @p line, or nullptr. */
    const Slot *find(VirtAddr line) const
    {
        std::size_t i = slotOf(line);
        return i == capacity() ? nullptr : &slots_[i];
    }

    /** Claim a slot for @p line (must be absent); may grow the table,
     *  invalidating earlier slot pointers. */
    Slot &insert(VirtAddr line);

    /** Remove @p line (must be present), shifting its probe chain back. */
    void erase(VirtAddr line);

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return slots_.size(); }

    /** @return the slot @p line's probe starts at (capacity() > 0). */
    std::size_t homeOf(VirtAddr line) const
    {
        return static_cast<std::size_t>(
            (line / kCacheLineSize) * 0x9E3779B97F4A7C15ull >> shift_);
    }

    /** @return the index of the slot holding @p line, or capacity(). */
    std::size_t slotOf(VirtAddr line) const
    {
        if (slots_.empty())
            return 0;
        std::size_t i = probe(line);
        return slots_[i].line == line ? i : capacity();
    }

    /** Visit every occupied slot. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &slot : slots_)
            if (slot.line != kFree)
                fn(slot);
    }

  private:
    /** @return the slot holding @p line, else the free slot ending its
     *  probe chain. */
    std::size_t probe(VirtAddr line) const;
    void grow();

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    /** 64 - log2(capacity): keeps the hash's top bits. */
    unsigned shift_ = 64;
};

class EccWatchManager : public WatchBackend
{
  public:
    explicit EccWatchManager(Machine &machine);

    /** Wire this manager into the kernel's ECC fault delivery. */
    void installFaultHandler();

    /** Register the pre/post scrub hooks with the kernel. */
    void installScrubHooks();

    /**
     * Lift every watch whose frames @p bank holds ahead of that bank's
     * scrub pass, parking the regions for restoreAfterScrub() (paper
     * §2.2.2 "Dealing with ECC Memory Scrubbing"). Scrubbing is
     * per-bank, and so is parking: regions wholly in other banks stay
     * live, and a region spanning the scrubbed bank parks whole (its
     * kernel unwatch is all-or-nothing). Parked regions stay logically
     * watched: isWatched() reports them, unwatch() cancels them, and
     * watch() refuses overlaps with them — exactly like swap-parked
     * regions.
     *
     * Park/restore is a simulated lock on the watch set, and PR 4 fixed
     * real double-park/lost-restore bugs here — so it is annotated as a
     * capability: any call path Clang can see that parks twice, or
     * restores without parking, is a compile error. Per-bank pairing
     * (park(b) must not nest inside an unfinished park(b)) is audited
     * at runtime by SimCheck.
     */
    void parkAllForScrub(unsigned bank) ACQUIRE(scrubPark_);

    /** Re-establish every region parked by parkAllForScrub(@p bank). */
    void restoreAfterScrub(unsigned bank) RELEASE(scrubPark_);

    /**
     * Register swap hooks for the kernel's UnwatchRewatch policy
     * (paper §2.2.2's proposed alternative to pinning): watches on a
     * page that swaps out are parked, and re-established when the page
     * swaps back in.
     */
    void installSwapHooks();

    /** @name WatchBackend interface */
    /// @{
    std::size_t granule() const override { return kCacheLineSize; }
    void setFaultCallback(WatchFaultCallback callback) override;
    void watch(VirtAddr base, std::size_t size, WatchKind kind,
               std::uint64_t cookie) override;
    void unwatch(VirtAddr base) override;
    bool isWatched(VirtAddr base) const override;
    std::size_t regionCount() const override
    {
        return regions_.size() - freeRegions_.size();
    }
    std::uint64_t watchedBytes() const override { return watchedBytes_; }
    const StatSet &stats() const override { return stats_; }
    /// @}

    /**
     * The user-level ECC fault handler (registered via the kernel).
     * Classifies the fault by scramble signature and dispatches access
     * faults; hardware errors are repaired from the private copy.
     */
    FaultDecision onEccFault(const UserEccFault &fault);

    /** @return the line index (inspection in tests). */
    const WatchLineTable &lineTable() const { return lines_; }

    /**
     * SimCheck cross-check of the library's index against the kernel's:
     * every line in the table is kernel-watched at its translation, and
     * the table holds exactly as many lines as the kernel counts for
     * the current process. Must run in the owning process's context;
     * runs automatically every few hundred watch mutations.
     */
    void auditInvariants() const;

  private:
    /** One watched region's record, stored once; its lines' table
     *  slots refer to it by index. A size of 0 marks a free record. */
    struct Region
    {
        VirtAddr base = 0;
        std::size_t size = 0;
        WatchKind kind = WatchKind::LeakSuspect;
        std::uint64_t cookie = 0;
        /** Banks backing the region's frames at watch() time — the
         *  banks whose scrub passes must park this region. */
        std::uint64_t bankMask = 1;
    };

    /** Tag of a region parked by a swap-out rather than a scrub pass. */
    static constexpr unsigned kSwapParked = ~0u;

    /** A region lifted for a scrub pass or a swap-out. Metadata only:
     *  restoring calls watch(), which re-reads the words from memory. */
    struct ParkedRegion
    {
        Region region;
        /** The bank whose scrub pass parked it (its restore key), or
         *  kSwapParked: then any swap-in of a page it overlaps
         *  restores it. */
        unsigned bank = 0;
    };

    /** @return handles of the live regions @p match selects, in
     *  ascending base order (the order park records are emitted in). */
    template <typename Match>
    std::vector<std::uint32_t> liveRegionsWhere(Match match) const;

    /** Park region @p handle under @p tag (a bank or kSwapParked). */
    void park(std::uint32_t handle, unsigned tag);

    /** Detach the parked regions @p match selects, in parking order. */
    template <typename Match>
    std::vector<Region> unpark(Match match);

    /** Remove region @p handle's kernel watches and bookkeeping. */
    void dropRegion(std::uint32_t handle);

    /** Run auditInvariants() every few hundred mutations. */
    void noteMutation();

    /**
     * @name Kernel scrub-hook trampolines
     * The kernel invokes park and restore from *separate* std::function
     * hooks, so the acquire/release pairing spans call paths the
     * analysis cannot follow; these two opt-outs are the only sanctioned
     * unpaired entries (the pairing itself is exercised by the scrub
     * tests and audited at runtime by SimCheck).
     */
    /// @{
    void scrubHookPark(unsigned bank) NO_THREAD_SAFETY_ANALYSIS
    {
        parkAllForScrub(bank);
    }
    void scrubHookRestore(unsigned bank) NO_THREAD_SAFETY_ANALYSIS
    {
        restoreAfterScrub(bank);
    }
    /// @}

    Machine &machine_;
    const ScramblePattern &scramble_;
    Trace *trace_;
    WatchFaultCallback callback_;

    /** Guards the hardware-error repair block against re-entry: a
     *  nested ECC fault while rewriting the corrupted region means the
     *  repair itself pulled the bad line through the controller. */
    bool inRepair_ = false;

    /** Every watched line, keyed by virtual line address. */
    WatchLineTable lines_;
    /** Region records, indexed by handle; freed records are reused. */
    std::vector<Region> regions_;
    std::vector<std::uint32_t> freeRegions_;

    /** Compile-time face of the park/restore pairing discipline. */
    Capability scrubPark_;
    /** Regions lifted for a bank's scrub pass or a page's swap-out. */
    std::vector<ParkedRegion> parked_;

    /** Reused buffer for the words watch() saves. A nested watch()
     *  (a scrub restore inside the read that fills it) takes its own. */
    std::vector<std::uint64_t> scratch_;

    std::uint64_t watchedBytes_ = 0;
    std::uint32_t mutationsSinceAudit_ = 0;
    StatSet stats_{kWatchStatNames};
};

} // namespace safemem
